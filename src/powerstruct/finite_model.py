"""Finite sets and maps: the desk-scale model of the Grothendieck ring of maps.

A FiniteMap is a total map {0..n-1} -> {0..q-1}.  Cut-and-paste relations
slice any such map into point-to-point pieces, each equivalent to the unit,
so the class of a map in the ring is its source size and the subring these
classes generate is Z.  On top of that model this module builds symmetric
powers S^k f, configuration maps B_k f, and the exhaustive enumeration oracle
for the geometric power structure (sum over charge profiles of orbit counts
of the blockwise symmetric-group action on off-diagonal tuples).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from . import kernels
from .lambdas import charge_profiles, LambdaStructure, power
from .rings import INTEGERS
from .series import TruncatedSeries

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """The exhaustive enumeration would exceed the configured budget."""


class EquivalenceCheckError(RuntimeError):
    """A constructed equivalence of finite maps failed its verification."""


class FiniteSeriesCheckError(RuntimeError):
    """A finite-model series disagrees with the algebraic power structure."""


class FiniteMap:
    """A map between explicit finite sets {0..n-1} -> {0..q-1}."""

    __slots__ = ("source_size", "target_size", "values")

    def __init__(self, source_size: int, target_size: int, values: Sequence[int]):
        values = tuple(values)
        if source_size < 0 or target_size < 0:
            raise ValueError("set sizes must be nonnegative")
        if len(values) != source_size:
            raise ValueError(f"expected {source_size} values, got {len(values)}")
        if any(not (0 <= v < target_size) for v in values):
            raise ValueError("map value out of range")
        object.__setattr__(self, "source_size", source_size)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteMap is immutable")

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


def _multiset_index(size: int, k: int) -> Dict[Tuple[int, ...], int]:
    return {
        ms: i
        for i, ms in enumerate(itertools.combinations_with_replacement(range(size), k))
    }


def symmetric_power_map(f: FiniteMap, k: int) -> FiniteMap:
    """S^k f: size-k multisets over the source mapped to image multisets."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    src = list(itertools.combinations_with_replacement(range(f.source_size), k))
    tgt_index = _multiset_index(f.target_size, k)
    fv = f.values
    values = [tgt_index[tuple(sorted([fv[x] for x in ms]))] for ms in src]
    return FiniteMap(len(src), len(tgt_index), values)


def config_space_map(f: FiniteMap, k: int) -> FiniteMap:
    """B_k f: k-element subsets of the source mapped to image multisets."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    src = list(itertools.combinations(range(f.source_size), k))
    tgt_index = _multiset_index(f.target_size, k)
    fv = f.values
    values = [tgt_index[tuple(sorted([fv[x] for x in sub]))] for sub in src]
    return FiniteMap(len(src), len(tgt_index), values)


# -- the geometric power structure oracle -------------------------------------


def particle_configuration_count(m_size: int, coeff_sizes: Sequence[int], k: int) -> int:
    """Count maps from the exponent source into the charged-state space.

    Each point carries charge 0 or a pair (charge i, internal state in X_i).
    The points are added one at a time, keeping for every total charge r <= k
    the number of configurations of the points so far; no orbit is
    enumerated, so this is a route independent of the orbit kernel.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    charges = list(enumerate(coeff_sizes[:k], start=1))
    ways = [1] + [0] * k  # ways[r]: configurations of total charge r
    for _point in range(m_size):
        ways = [
            ways[r] + sum(size * ways[r - i] for i, size in charges if i <= r)
            for r in range(k + 1)
        ]
    return ways[k]


def _profile_blocks(m_size: int, coeffs: Sequence[FiniteMap], k: int, budget: int):
    """(profile, kernel blocks) for every charge profile of t^k that can add orbits.

    A profile needs a nonempty coefficient set for each charge, so no part
    exceeds len(coeffs), and distinct points, so it has at most m_size
    parts.  Every profile is checked against the budget before the list is
    returned, so an over-budget profile is refused before any enumeration.
    """
    if k < 1:
        raise ValueError("k must be positive")
    plan = []
    for profile in charge_profiles(k, len(coeffs), m_size):
        reps = math.perm(m_size, sum(profile.values()))
        blocks = []
        for i, k_i in sorted(profile.items()):
            x = coeffs[i - 1]
            reps = reps * x.source_size**k_i // math.factorial(k_i)  # exact division
            blocks.append((k_i, x.source_size, x.values, x.target_size))
        if reps > budget:
            raise BudgetExceededError(
                f"profile {dict(sorted(profile.items()))} needs {reps} orbit "
                f"representatives (budget {budget})"
            )
        plan.append((profile, blocks))
    return plan


def check_budget(
    exponent: FiniteMap, coeffs: Sequence[FiniteMap], order: int, budget: int = DEFAULT_BUDGET
) -> None:
    """Refuse a run over t^1..t^order in which one charge profile needs more
    than `budget` orbit representatives, before anything is enumerated."""
    for k in range(1, order + 1):
        _profile_blocks(exponent.source_size, coeffs, k, budget)


def geometric_power_coefficient(
    exponent: FiniteMap,
    coeffs: Sequence[FiniteMap],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Coefficient of t^k of (1 + [X_1]t + [X_2]t^2 + ...)^[M -> N], by enumeration.

    Sums orbit counts over the charge profiles {k_i} with sum i*k_i = k.  The
    kernel, kernels.count_profile_orbits, visits one representative per orbit;
    it checks the well-definedness of the induced orbit map on every
    representative and the free action once per profile (orbit-stabiliser
    identity).  This function refuses, before enumerating any profile, one
    whose perm(m, s) * prod |X_i|^{k_i} / prod k_i! orbit representatives
    exceed the budget, rejects a negative orbit count and cross-checks the total
    against the particle-configuration count.  Every failed check raises
    kernels.OrbitCheckError.
    """
    m_size = exponent.source_size
    total = 0
    for profile, blocks in _profile_blocks(m_size, coeffs, k, budget):
        orbits = kernels.count_profile_orbits(m_size, exponent.values, blocks)
        if orbits < 0:
            raise kernels.OrbitCheckError(
                f"profile {dict(sorted(profile.items()))} has {orbits} orbits"
            )
        total += orbits
    particle = particle_configuration_count(
        m_size, [x.source_size for x in coeffs[:k]], k
    )
    if total != particle:
        raise kernels.OrbitCheckError(
            f"orbit total {total} != particle-configuration count {particle}"
        )
    return total


def finite_series(f: FiniteMap, which: str, order: int) -> TruncatedSeries:
    """Generating series of S^k f (zeta) or B_k f (binomial) classes, over Z.

    Also checks the defining identity of the geometric power structure:
    the zeta series equals (1-t)^{-class}, the binomial series (1+t)^{class}.
    """
    if which not in ("zeta", "binomial"):
        raise ValueError(f"unknown series kind {which!r}")
    build = symmetric_power_map if which == "zeta" else config_space_map
    coeffs = [class_of(build(f, k)) for k in range(order + 1)]
    result = TruncatedSeries(INTEGERS, coeffs)
    lam = LambdaStructure("kapranov", INTEGERS)
    base = (
        TruncatedSeries.geometric(INTEGERS, order)
        if which == "zeta"
        else TruncatedSeries.one_plus_t(INTEGERS, order)
    )
    expected = power(base, class_of(f), lam)
    if result != expected:
        raise FiniteSeriesCheckError(f"{which} series disagrees with the power structure")
    return result
