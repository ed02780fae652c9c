"""Finite sets and maps: the desk-scale model of the Grothendieck ring of maps.

A FiniteMap is a total map {0..n-1} -> {0..q-1}.  Cut-and-paste relations
slice any such map into point-to-point pieces, each equivalent to the unit,
so the class of a map in the ring is its source size and the subring these
classes generate is Z.  On top of that model this module builds symmetric
powers S^k f, configuration maps B_k f, and the oracle for the geometric
power structure: the sum over charge profiles of the orbit counts of the
blockwise symmetric-group action on off-diagonal tuples.  That action is
free, so each count is perm(m, s) * prod |X_i|^{k_i} / prod k_i!, and the
oracle checks the sum against a count of particle configurations.  Since a
map's class is its size, the oracle (oracle_coefficients) takes the sizes
|M| and |X_i| and builds no map.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .lambdas import charge_profiles, integer_power_formula, LambdaStructure, power
from .rings import INTEGERS, ComputationError, Immutable, exact_quotient
from .series import TruncatedSeries, _check_order

DEFAULT_BUDGET = 10**7


class BudgetExceededError(ComputationError, RuntimeError):
    """A profile's orbit count or the exponent map's size exceeds the budget."""


class EquivalenceCheckError(ComputationError, RuntimeError):
    """A constructed equivalence of finite maps failed its verification."""


class FiniteSeriesCheckError(ComputationError, RuntimeError):
    """A finite-model series disagrees with the algebraic power structure."""


class OrbitCheckError(ComputationError, RuntimeError):
    """The orbit total disagrees with the particle-configuration count."""


class FiniteMap(Immutable):
    """A map between explicit finite sets {0..n-1} -> {0..q-1}."""

    __slots__ = ("source_size", "target_size", "values")

    def __init__(self, source_size: int, target_size: int, values: Sequence[int]):
        values = tuple(values)
        if source_size < 0 or target_size < 0:
            raise ValueError("set sizes must be nonnegative")
        if len(values) != source_size:
            raise ValueError(f"expected {source_size} values, got {len(values)}")
        if values and (min(values) < 0 or max(values) >= target_size):
            raise ValueError("map value out of range")
        object.__setattr__(self, "source_size", source_size)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "values", values)

    @classmethod
    def identity(cls, n: int) -> "FiniteMap":
        return cls(n, n, range(n))

    @classmethod
    def constant(cls, n: int, target_size: int = 1, value: int = 0) -> "FiniteMap":
        return cls(n, target_size, [value] * n)

    @classmethod
    def unit(cls) -> "FiniteMap":
        return cls(1, 1, [0])

    def __call__(self, x: int) -> int:
        return self.values[x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMap)
            and self.source_size == other.source_size
            and self.target_size == other.target_size
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.source_size, self.target_size, self.values))

    def __repr__(self) -> str:
        return f"FiniteMap({self.source_size}->{self.target_size}, {list(self.values)})"

    def fiber_sizes(self) -> Tuple[int, ...]:
        """Sorted fiber cardinalities over every target point (zeros included)."""
        counts = [0] * self.target_size
        for v in self.values:
            counts[v] += 1
        return tuple(sorted(counts))


def class_of(f: FiniteMap) -> int:
    """The class of a finite map in the ring: its source size."""
    return f.source_size


def combine(f: FiniteMap, g: FiniteMap, op: str) -> FiniteMap:
    """Disjoint union (sum in the ring) or Cartesian product (product)."""
    if op == "disjoint_union":
        values = list(f.values) + [g(x) + f.target_size for x in range(g.source_size)]
        return FiniteMap(
            f.source_size + g.source_size, f.target_size + g.target_size, values
        )
    if op == "cartesian_product":
        values = []
        for a in range(f.source_size):
            for b in range(g.source_size):
                values.append(f(a) * g.target_size + g(b))
        return FiniteMap(
            f.source_size * g.source_size, f.target_size * g.target_size, values
        )
    raise ValueError(f"unknown op {op!r}")


def find_equivalence(
    f: FiniteMap, g: FiniteMap
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Explicit bijections (h1, h2) with h2 o f = g o h1, or None.

    Two finite maps are equivalent iff their sorted fiber-size profiles agree;
    the witness pairs fibers of equal size.  The returned bijections are
    verified before being handed back.
    """
    if f.source_size != g.source_size or f.target_size != g.target_size:
        return None

    def fibers(h: FiniteMap) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(h.target_size)]
        for x in range(h.source_size):
            out[h(x)].append(x)
        return out

    ff, gf = fibers(f), fibers(g)
    order_f = sorted(range(f.target_size), key=lambda y: len(ff[y]))
    order_g = sorted(range(g.target_size), key=lambda y: len(gf[y]))
    if [len(ff[y]) for y in order_f] != [len(gf[y]) for y in order_g]:
        return None
    h1 = [0] * f.source_size
    h2 = [0] * f.target_size
    for yf, yg in zip(order_f, order_g):
        h2[yf] = yg
        for xf, xg in zip(ff[yf], gf[yg]):
            h1[xf] = xg
    if sorted(h1) != list(range(f.source_size)):
        raise EquivalenceCheckError(f"source map {h1} is not a bijection")
    if sorted(h2) != list(range(f.target_size)):
        raise EquivalenceCheckError(f"target map {h2} is not a bijection")
    if any(h2[f(x)] != g(h1[x]) for x in range(f.source_size)):
        raise EquivalenceCheckError(f"bijections {h1}, {h2} do not intertwine {f} and {g}")
    return tuple(h1), tuple(h2)


# -- symmetric powers and configuration spaces -------------------------------


def _image_multiset_map(f: FiniteMap, k: int, choose) -> FiniteMap:
    """The k-selections of the source, via choose(f.values, k), mapped to image multisets."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    tgt = itertools.combinations_with_replacement(range(f.target_size), k)
    tgt_index = {ms: i for i, ms in enumerate(tgt)}
    values = tuple(map(tgt_index.__getitem__, map(tuple, map(sorted, choose(f.values, k)))))
    return FiniteMap(len(values), len(tgt_index), values)


def symmetric_power_map(f: FiniteMap, k: int) -> FiniteMap:
    """S^k f: size-k multisets over the source mapped to image multisets."""
    return _image_multiset_map(f, k, itertools.combinations_with_replacement)


def config_space_map(f: FiniteMap, k: int) -> FiniteMap:
    """B_k f: k-element subsets of the source mapped to image multisets."""
    return _image_multiset_map(f, k, itertools.combinations)


# -- the geometric power structure oracle -------------------------------------


def particle_configuration_count(m_size: int, coeff_sizes: Sequence[int], k: int) -> List[int]:
    """Count maps from the exponent source into the charged-state space, by total charge 0..k.

    Each point carries charge 0 or a pair (charge i, internal state in X_i).
    The points are added one at a time, keeping for every total charge r <= k
    the number of configurations of the points so far.  This sums over points,
    not over charge profiles, so it shares no step with the orbit counts that
    _orbit_counts checks against it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    charges = list(enumerate(coeff_sizes[:k], start=1))
    ways = [1] + [0] * k  # ways[r]: configurations of total charge r
    for _point in range(m_size):
        added = ways[:]  # the new point at charge 0
        for i, size in charges:  # or at charge i, in one of the states of X_i
            for r in range(i, k + 1):
                added[r] += size * ways[r - i]
        ways = added
    return ways


def _profiles(m_size: int, sizes: Sequence[int], k: int, budget: int):
    """Every charge profile of t^k that can add orbits, with its orbit count.

    A profile needs a nonempty coefficient set for each charge, so its parts
    are the charges i with X_i nonempty, and distinct points, so it has at
    most m_size parts; any other profile adds 0 orbits.  The blockwise action
    on off-diagonal tuples is free, so a profile with s = sum k_i particles
    has perm(m, s) * prod |X_i|^{k_i} / prod k_i! orbits, one representative
    each.  Returns the (profile, count) pairs, or refuses the first profile
    whose count exceeds the budget.
    """
    counted = []
    for profile in charge_profiles(k, m_size, parts=[i for i, n in enumerate(sizes, 1) if n]):
        reps = math.perm(m_size, sum(profile.values()))
        for i, k_i in sorted(profile.items()):
            reps = exact_quotient(reps * sizes[i - 1] ** k_i, math.factorial(k_i))
        if reps > budget:
            raise BudgetExceededError(
                f"profile {dict(sorted(profile.items()))} needs {reps} orbit "
                f"representatives (budget {budget})"
            )
        counted.append((profile, reps))
    return counted


def _orbit_counts(m_size: int, sizes: Sequence[int], orders: Sequence[int], budget: int):
    """Coefficients t^k, k in the increasing `orders`, of (1 + |X_1|t + |X_2|t^2 + ...)^|M|.

    Each is the sum of one walk of _profiles, which refuses a profile over the
    budget.  Then refuses M with more than `budget` points, and checks every
    order, lowest first, against one particle_configuration_count to the top
    order (OrbitCheckError); with no order, that O(m_size) count never runs.
    A negative budget is refused first, with a ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    counts = []
    for k in orders:  # a comprehension here would turn the arguments into cells
        counts.append(sum(reps for _profile, reps in _profiles(m_size, sizes, k, budget)))
    if m_size > budget:
        raise BudgetExceededError(f"the exponent map has {m_size} source points (budget {budget})")
    if orders:
        particles = particle_configuration_count(m_size, sizes, orders[-1])
        for k, total in zip(orders, counts):
            if total != particles[k]:
                raise OrbitCheckError(
                    f"orbit total {total} != particle-configuration count {particles[k]}"
                )
    return counts


def geometric_power_coefficient(
    exponent: FiniteMap,
    coeffs: Sequence[FiniteMap],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Coefficient of t^k of (1 + [X_1]t + [X_2]t^2 + ...)^[M -> N]: the
    orbit count of the sizes of M and the X_i, which are their classes."""
    return _orbit_counts(exponent.source_size, [x.source_size for x in coeffs], [k], budget)[0]


def oracle_coefficients(
    m_size: int, sizes: Sequence[int], order: int, budget: int = DEFAULT_BUDGET
) -> List[int]:
    """The _orbit_counts of t^1..t^order of (1 + |X_1|t + |X_2|t^2 + ...)^|M|,
    with its refusals and particle check, then checked against the closed-form
    integer power: a mismatch raises FiniteSeriesCheckError."""
    if m_size < 0:
        raise ValueError(f"m_size must be nonnegative, got {m_size}")
    if any(s < 0 for s in sizes):
        raise ValueError("coefficient sizes must be nonnegative")
    _check_order(order)
    counts = _orbit_counts(m_size, sizes, range(1, order + 1), budget)
    series = TruncatedSeries(INTEGERS, ([1, *sizes] + [0] * order)[: order + 1])
    formula = integer_power_formula(series, m_size).coefficients[1:]
    for k, (o, f) in enumerate(zip(counts, formula), start=1):
        if o != f:
            raise FiniteSeriesCheckError(
                f"at t^{k} the oracle counts {o} and the formula gives {f}"
            )
    return counts


def finite_series(f: FiniteMap, which: str, order: int) -> TruncatedSeries:
    """Generating series of S^k f (zeta) or B_k f (binomial) classes, over Z.

    The class of S^k f is the number of k-multisets of the source,
    binom(n + k - 1, k), and that of B_k f the number of k-subsets,
    binom(n, k), so no map is built.  Also checks the defining identity of
    the geometric power structure: the zeta series equals (1-t)^{-class},
    the binomial series (1+t)^{class}.
    """
    if which not in ("zeta", "binomial"):
        raise ValueError(f"unknown series kind {which!r}")
    n = class_of(f)
    if which == "zeta":
        # comb(n - 1, 0) would fail at n = 0, where S^0 f is still one point
        coeffs = [math.comb(n + k - 1, k) if k else 1 for k in range(order + 1)]
        base = TruncatedSeries.geometric(INTEGERS, order)
    else:
        coeffs = [math.comb(n, k) for k in range(order + 1)]
        base = TruncatedSeries.one_plus_t(INTEGERS, order)
    result = TruncatedSeries(INTEGERS, coeffs)
    expected = power(base, n, LambdaStructure("kapranov", INTEGERS))
    if result != expected:
        raise FiniteSeriesCheckError(f"{which} series disagrees with the power structure")
    return result
