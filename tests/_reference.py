"""Slow reference routes that the fast series, lambda, Log/Exp and orbit paths must equal.

These are the tuple-keyed polynomial arithmetic, the dense convolution, the
term-pair convolution of packed-key maps (`convolve`, one fresh map per output
coefficient, sharing no loop with the library's in-place kernel), the
product and step kernels that rebuild every map they reach instead of
adding into it (`rebuild_multiply_into`, `rebuild_step_into`), the
operator-generic sparse product (one ring product and one ring sum per pair
of nonzero coefficients), the dense inverse, the generic lambda factor
(1 - x*t)^e built by ring multiplication, the per-kind lambda series (one
branch per lambda kind), the factor-by-factor Log/Exp that build every
factor lambda_b(t^k) to the full order N before rescaling and invert it for
Log, the Log/Exp that take one series product per lambda factor, the
Log/Exp over Z[x...] that multiply each whole lambda factor in place with
no two-term step, the integer power over Z as Log, a scaling of each b_i and Exp, the
general substitution homomorphism that the specializations once ran (one
ring power per variable and one ring sum per term), the punctual Hilbert series as a product of inverted binomials, the brute-force
orbit count that visits every element of every orbit, the orderly orbit
enumeration that visits one representative per orbit (the library now
counts them by their closed form), the orderly orbit count that checks
well-definedness again on every representative, the
multiset maps S^k f and B_k f that index one selected point at a time, the
two-stage parser that builds an AST, walks it once to infer the ring and
again to evaluate it, and the closed-form integer power summed one charge
profile at a time.  They are kept only so tests can compare the fast routes
against them.  They share no lambda code with the library but
charge_profiles and generalized_binomial, except the series-product Log/Exp,
which multiply the library's own lambda factors with `convolve_mul`, the
factor Log/Exp, which multiply them with the library's own kernel, and the
Log-Exp power, which composes the library's own Log and Exp; the parser
shares only the tokenizer.
"""

import itertools
import math
import sys
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from powerstruct.finite_model import FiniteMap, OrbitCheckError
from powerstruct.lambdas import (
    LambdaStructure,
    UnsupportedLambdaError,
    _check_domain,
    _factor,
    charge_profiles,
    exp_map,
    generalized_binomial,
    log_map,
)
from powerstruct.parsing import ParseError, _tokenize
from powerstruct.rings import (
    ArityError,
    ExponentVector,
    Ring,
    SparsePolynomial,
    UnboundVariableError,
    _check_degrees,
    _unpack,
)
from powerstruct.series import NonUnitError, TruncatedSeries, _check_order


def dense_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    ring = a.ring
    n = min(a.order, b.order)
    out: List = []
    for j in range(n + 1):
        acc = ring.zero
        for i in range(j + 1):
            ci, cj = a.coefficients[i], b.coefficients[j - i]
            if not ci or not cj:
                continue
            acc = acc + ci * cj
        out.append(acc)
    return TruncatedSeries(ring, out)


def sparse_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    ring = a.ring
    n = min(a.order, b.order)
    left = [(i, c) for i, c in enumerate(a.coefficients[: n + 1]) if c]
    right = [(j, c) for j, c in enumerate(b.coefficients[: n + 1]) if c]
    out: List = [None] * (n + 1)
    for i, ci in left:
        for j, cj in right:
            k = i + j
            if k > n:
                break
            p = ci * cj
            acc = out[k]
            out[k] = p if acc is None else acc + p
    return TruncatedSeries(ring, [ring.zero if c is None else c for c in out])


def convolve(ring: Ring, left: Sequence[Tuple[int, object]],
             right: Sequence[Tuple[int, object]], n: int) -> list:
    """Coefficients 0..n of the product of two coefficient sequences, each
    given as (index, nonzero element) pairs in ascending index order.

    Over Z[x...] every term pair of every coefficient pair is added into
    one packed-key map per output coefficient, with no intermediate
    polynomial.  Each map's keys are checked for a degree overflow before
    its zero coefficients are dropped, so a product raises
    DegreeOverflowError even where its overflowing monomials cancel.
    """
    if ring.is_integers:
        out = [0] * (n + 1)
        for i, ci in left:
            for j, cj in right:
                k = i + j
                if k > n:
                    break
                out[k] += ci * cj
        return out
    variables = ring.variables
    sums: List[Dict[int, int]] = [{} for _ in range(n + 1)]
    right_terms = [(j, list(cj._terms.items())) for j, cj in right]
    for i, ci in left:
        terms_i = list(ci._terms.items())
        for j, terms_j in right_terms:
            k = i + j
            if k > n:
                break
            acc = sums[k]
            get = acc.get
            for e1, c1 in terms_i:
                for e2, c2 in terms_j:
                    key = e1 + e2
                    acc[key] = get(key, 0) + c1 * c2
    raw = SparsePolynomial._raw
    out = []
    for acc in sums:
        _check_degrees(variables, acc)
        if 0 in acc.values():
            acc = {e: c for e, c in acc.items() if c}
        out.append(raw(variables, acc))
    return out


def convolve_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b by `convolve` over the nonzero coefficients: the series product
    as it was before series, lambda-factor and polynomial products shared one
    in-place kernel, with the same ring check and the same errors."""
    n = a._common(b)
    left = [(i, c) for i, c in enumerate(a.coefficients[: n + 1]) if c]
    right = [(j, c) for j, c in enumerate(b.coefficients[: n + 1]) if c]
    return TruncatedSeries._raw(a.ring, convolve(a.ring, left, right, n))


# -- the rebuild kernels -----------------------------------------------------

# Product and step kernels that give every degree they reach a new map, so
# that no map in `sums` is ever changed: the references that the library's
# in-place kernels, rings._multiply_into and rings._step_into, must equal.


def rebuild_multiply_into(variables: Tuple[str, ...], sums: List[Dict[int, int]],
                          factor: Sequence["SparsePolynomial"], low: int) -> None:
    """Multiply the series whose coefficient d has the packed terms sums[d]
    by the series factor[0] + factor[1]*t + factor[2]*t^2 + ..., in place,
    for the degrees `low`..N only; the caller knows the product leaves the
    degrees below unchanged (or, for a Log peel step, zero at `low` - 1).  A
    polynomial product is the case N = 0.  Zero factor coefficients are
    skipped, so a factor lambda_b(t^k) costs only its degrees j*k.

    This is the one loop that adds term pairs into packed-key maps.  Degrees
    are rebuilt from the top down, so every source d - j still holds its
    value from before the product, and a rebuilt degree gets a new map: no
    map in `sums` is ever changed.  Term pairs are added with the sources in
    ascending degree, each source term against every factor term.  When
    factor[0] is 1, a degree that no other source reaches keeps its map and
    a rebuilt degree adds its own terms last; otherwise a degree that no
    source reaches becomes empty.  The rebuilt maps are checked for a degree
    overflow in ascending degree, before their zero coefficients are
    dropped, so a product raises DegreeOverflowError even where its
    overflowing monomials cancel, and the same product always names the
    same exponent.
    """
    unit = factor[0]._terms == {0: 1}
    # descending j, so that the sources d - j come in ascending degree
    steps = [(j, list(f._terms.items()))
             for j, f in enumerate(factor) if f._terms and (j or not unit)]
    steps.reverse()
    rebuilt = []
    for d in range(len(sums) - 1, low - 1, -1):
        acc = None
        for j, terms_j in steps:
            if j > d:
                continue
            source = sums[d - j]
            if not source:
                continue
            if acc is None:
                acc = {}
                get = acc.get
            for e1, c1 in source.items():
                for e2, c2 in terms_j:
                    key = e1 + e2
                    acc[key] = get(key, 0) + c1 * c2
        if acc is not None:
            if unit:
                for key, c in sums[d].items():
                    acc[key] = get(key, 0) + c
            sums[d] = acc
            rebuilt.append(d)
        elif not unit:
            sums[d] = {}
    for d in reversed(rebuilt):
        acc = sums[d]
        _check_degrees(variables, acc)
        if 0 in acc.values():
            sums[d] = {e: c for e, c in acc.items() if c}


def rebuild_step_into(sums: List[Dict[int, int]], key: int, c: int, k: int,
                      ascending: bool) -> None:
    """c_d += c*x*c_{d-k} for the degrees d = k..N, in place, for the series
    whose coefficient d has the packed terms sums[d] and the monomial x with
    the packed key `key`.  In ascending degree every source c_{d-k} already
    holds its new value, which divides the series by 1 - c*x*t^k; in
    descending degree it still holds its old one, which multiplies it by
    1 + c*x*t^k.  A rebuilt degree gets a new map with its zero coefficients
    dropped, so no map in `sums` is ever changed.  No degree is checked: the
    caller bounds them first (Ring.steps_fit).
    """
    n = len(sums)
    for d in range(k, n) if ascending else range(n - 1, k - 1, -1):
        source = sums[d - k]
        if source:
            acc = dict(sums[d])
            get = acc.get
            for e, v in source.items():
                e += key
                acc[e] = get(e, 0) + c * v
            sums[d] = {e: v for e, v in acc.items() if v} if 0 in acc.values() else acc


def dense_invert(a: TruncatedSeries) -> TruncatedSeries:
    if not a.is_unit():
        raise NonUnitError("only unit series invert")
    ring = a.ring
    inv: List = [ring.one]
    for j in range(1, a.order + 1):
        acc = ring.zero
        for i in range(1, j + 1):
            ci = a.coefficients[i]
            if not ci:
                continue
            acc = acc + ci * inv[j - i]
        inv.append(-acc)
    return TruncatedSeries(ring, inv)


class TupleKeyedPolynomial:
    """SparsePolynomial arithmetic as it was with tuple keys: each exponent
    vector is a tuple, a product adds them componentwise, and no degree is
    limited.  Built from any (exponent tuple -> coefficient) map."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = {tuple(e): c for e, c in terms.items() if c}

    @classmethod
    def _raw(cls, variables, terms):
        return cls(variables, terms)

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    def _check_ring(self, other: "TupleKeyedPolynomial") -> None:
        if not isinstance(other, TupleKeyedPolynomial):
            raise TypeError(f"expected TupleKeyedPolynomial, got {type(other).__name__}")
        if self.variables != other.variables:
            raise ArityError(
                f"mismatched variable lists {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "TupleKeyedPolynomial") -> "TupleKeyedPolynomial":
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            elif exps in terms:
                del terms[exps]
        return TupleKeyedPolynomial._raw(self.variables, terms)

    def __neg__(self) -> "TupleKeyedPolynomial":
        return TupleKeyedPolynomial._raw(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "TupleKeyedPolynomial") -> "TupleKeyedPolynomial":
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) - coeff
            if acc:
                terms[exps] = acc
            elif exps in terms:
                del terms[exps]
        return TupleKeyedPolynomial._raw(self.variables, terms)

    def __mul__(self, other: "TupleKeyedPolynomial") -> "TupleKeyedPolynomial":
        self._check_ring(other)
        left, right = self.terms, other.terms
        if len(left) > len(right):
            left, right = right, left
        if len(left) == 1:
            # monomial factor: the exponent shift is injective, so no
            # like-term collection is needed
            ((e1, c1),) = left.items()
            if not any(e1):
                if c1 == 1:
                    return TupleKeyedPolynomial._raw(self.variables, dict(right))
                terms = {e2: c1 * c2 for e2, c2 in right.items()}
            else:
                terms = {
                    tuple(map(sum, zip(e1, e2))): c1 * c2
                    for e2, c2 in right.items()
                }
            return TupleKeyedPolynomial._raw(self.variables, terms)
        terms: Dict[ExponentVector, int] = {}
        get = terms.get
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = tuple(map(sum, zip(e1, e2)))
                terms[key] = get(key, 0) + c1 * c2
        return TupleKeyedPolynomial._raw(
            self.variables, {e: c for e, c in terms.items() if c}
        )

    def __pow__(self, n: int) -> "TupleKeyedPolynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = TupleKeyedPolynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def generic_one_minus_xt_power(ring: Ring, x, e: int, order: int) -> TruncatedSeries:
    """(1 - x*t)^e truncated, for any integer e: coefficient j is
    (-1)^j * binom(e, j) * x^j."""
    coeffs = [ring.one]
    xpow = ring.one
    for j in range(1, order + 1):
        xpow = xpow * x
        coeffs.append(ring.from_int((-1) ** j * generalized_binomial(e, j)) * xpow)
    return TruncatedSeries(ring, coeffs)


def _one_minus_xt_power(ring: Ring, x, e: int, order: int) -> TruncatedSeries:
    """(1 - x*t)^e truncated; binom(e, j) is the falling factorial e^(j) / j!."""
    coeffs = [ring.one]
    xpow = ring.one
    for j in range(1, order + 1):
        xpow = xpow * x
        binom = math.prod(range(e - j + 1, e + 1)) // math.factorial(j)
        coeffs.append(ring.from_int((-1) ** j * binom) * xpow)
    return TruncatedSeries(ring, coeffs)


def _poly_product_series(ring: Ring, a, order: int) -> TruncatedSeries:
    """prod over terms p*u^k of a of (1 - u^k t)^{-p}, truncated."""
    result = TruncatedSeries.one(ring, order)
    for exps, p in ring.terms(a):
        result = result * _one_minus_xt_power(ring, ring.monomial(exps), -p, order)
    return result


def _negate_odd(a: TruncatedSeries) -> TruncatedSeries:
    ring = a.ring
    return TruncatedSeries(
        ring,
        [c if j % 2 == 0 else -c for j, c in enumerate(a.coefficients)],
    )


def per_kind_lambda_series(lam: LambdaStructure, a, order: int) -> TruncatedSeries:
    """The series lambda_a truncated at `order`, one branch per lambda kind."""
    ring = lam.ring
    a = ring.coerce(a)
    if lam.kind == "poly-product":
        return _poly_product_series(ring, a, order)
    if lam.kind == "opposite":
        return _negate_odd(_poly_product_series(ring, -a, order))
    # kapranov and binomial need a constant (integer) exponent
    if not ring.is_constant(a):
        raise UnsupportedLambdaError(
            f"{lam.kind} lambda is defined for integer exponents only; "
            f"got {ring.format_element(a)} (use poly-product)"
        )
    n = sum(p for _, p in ring.terms(a))  # the constant term
    if lam.kind == "kapranov":
        return _one_minus_xt_power(ring, ring.one, -n, order)
    # binomial: (1 + t)^n = (1 - (-1)t)^n
    return _one_minus_xt_power(ring, ring.from_int(-1), n, order)


def full_order_decompose(A: TruncatedSeries, lam: LambdaStructure) -> List:
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")
    ring = A.ring
    residual = A
    bs: List = []
    for k in range(1, A.order + 1):
        b_k = residual.coefficients[k]
        bs.append(b_k)
        if b_k:
            factor = per_kind_lambda_series(lam, b_k, A.order).rescale(k)
            residual = dense_mul(residual, dense_invert(factor))
    return bs


def full_order_exp(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    ring = lam.ring
    result = TruncatedSeries.one(ring, order)
    for k, b in enumerate(B[:order], start=1):
        b = ring.coerce(b)
        if not b:
            continue
        result = dense_mul(result, per_kind_lambda_series(lam, b, order).rescale(k))
    return result


def full_order_power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    ring = lam.ring
    m = ring.coerce(m)
    bs = full_order_decompose(A, lam)
    return full_order_exp([m * b for b in bs], lam, A.order)


def series_product_decompose(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Log by one `convolve_mul` per peel step, residual * lambda_{-b_k}(t^k)."""
    if A.ring != lam.ring:
        raise ValueError(f"series over {A.ring.name}, lambda over {lam.ring.name}")
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")
    residual = A
    bs: List = []
    for k in range(1, A.order + 1):
        b_k = residual.coefficients[k]
        bs.append(b_k)
        if b_k:
            _check_domain(lam, b_k)  # before negating, so the error names b_k
            residual = convolve_mul(residual, _factor(lam, -b_k, k, A.order))
    return bs


def series_product_exp(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    """Exp by one `convolve_mul` per nonzero b_k, result * lambda_{b_k}(t^k)."""
    _check_order(order)
    ring = lam.ring
    result = TruncatedSeries.one(ring, order)
    for k, b in enumerate(B, start=1):
        if k > order:
            break
        b = ring.coerce(b)
        if not b:
            continue
        result = convolve_mul(result, _factor(lam, b, k, order))
    return result


def series_product_power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    m = lam.ring.coerce(m)
    bs = series_product_decompose(A, lam)
    return series_product_exp([m * b for b in bs], lam, A.order)


def factor_log(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Log over Z[x...] as the library took it before its two-term steps: the
    residual peeled in place by one `Ring.multiply_into` per factor
    lambda_{-b_k}(t^k), each built whole as a series, from degree k + 1 up."""
    if A.ring != lam.ring:
        raise ValueError(f"series over {A.ring.name}, lambda over {lam.ring.name}")
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")
    ring, order = A.ring, A.order
    residual = [dict(c) for c in ring.term_maps(A.coefficients)]
    bs: List = []
    for k in range(1, order + 1):
        b_k = ring.from_term_map(residual[k])
        bs.append(b_k)
        if b_k:
            _check_domain(lam, b_k)  # before negating, so the error names b_k
            ring.multiply_into(residual, _factor(lam, -b_k, k, order).coefficients, k + 1)
            residual[k] = {}  # b_k keeps its own map
    return bs


def factor_exp(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    """Exp over Z[x...] by one `Ring.multiply_into` per factor lambda_{b_k}(t^k),
    each built whole as a series, from degree k up."""
    _check_order(order)
    ring = lam.ring
    result = [dict(c) for c in ring.term_maps(TruncatedSeries.one(ring, order).coefficients)]
    for k, b in enumerate(B[:order], start=1):
        b = ring.coerce(b)
        if b:
            ring.multiply_into(result, _factor(lam, b, k, order).coefficients, k)
    return TruncatedSeries(ring, [ring.from_term_map(c) for c in result])


def factor_power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    m = lam.ring.coerce(m)
    return factor_exp([m * b for b in factor_log(A, lam)], lam, A.order)


def log_exp_integer_power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    """The power as the library once took it over Z: the library's own Log,
    each b_i times m, and its own Exp, two Newton passes and the Adams loops."""
    m = lam.ring.coerce(m)
    bs = log_map(A, lam)
    return exp_map([m * b for b in bs], lam, A.order)


def substitute(p: SparsePolynomial, target: Ring, bindings):
    """Image of p under the homomorphism sending each variable to its binding.

    Every variable of p's ring must be bound; binding images are elements
    of `target`.  Returns a `target` element (int for Z).  This is the
    general substitution the library's specializations once ran.
    """
    for v in p.variables:
        if v not in bindings:
            raise UnboundVariableError(v)
    images = [target.coerce(bindings[v]) for v in p.variables]
    arity = len(p.variables)
    acc = target.zero
    for key, coeff in p._terms.items():
        term = target.from_int(coeff)
        for image, e in zip(images, _unpack(key, arity)):
            term = term * image**e
        acc = acc + term
    return acc


def hand_rolled_hilb_local_surface(order: int) -> TruncatedSeries:
    """prod_{i>=1} (1 - L^{i-1} t^i)^{-1} over Z[L], one dense inverse per factor."""
    ring = Ring(("L",))
    result = TruncatedSeries.one(ring, order)
    for i in range(1, order + 1):
        coeffs = [ring.zero] * (order + 1)
        coeffs[0] = ring.one
        coeffs[i] = ring.monomial((i - 1,), -1)
        result = dense_mul(result, dense_invert(TruncatedSeries(ring, coeffs)))
    return result


# A block describes the k_i-fold factor attached to charge i:
#   (k, x_size, g_values, y_size)
# where g_values maps states 0..x_size-1 into 0..y_size-1.
Block = Tuple[int, int, Sequence[int], int]


def count_profile_orbits(m_size: int, f_values: Sequence[int], blocks: Sequence[Block]) -> int:
    """Orderly orbit enumeration for one charge profile of the geometric power.

    The group prod_i S_{k_i} acts on the off-diagonal tuples of exponent-source
    points times the coefficient state spaces by permuting within blocks.  Since
    the points of a tuple are distinct, every orbit holds exactly one element
    whose points increase within each block.  This visits those representatives
    one at a time and no other element: block by block it picks a k_i-subset of
    the points not used yet and one state per point.

    Two checks guard the count, and either failure raises OrbitCheckError:

    - well-definedness, before the enumeration, once per filling of a block
      (k_i increasing points, a state each): the target orbit is computed from
      the filling and again from its pairs reversed, reading g_values anew, and
      the two must agree.  A block's target orbit depends on its filling only,
      and each filling extends to a representative when s <= m and every X_i is
      nonempty (the other blocks take s - k_i of the m - k_i points left), so
      this covers every block of every representative.
    - freeness: once per profile, the count must satisfy the orbit-stabiliser
      identity orbits * prod k_i! == perm(m, s) * prod |X_i|^{k_i}.
    """
    s = sum(b[0] for b in blocks)
    if s == 0:
        raise ValueError("a charge profile must have at least one particle")
    if s > m_size or any(k > 0 and x_size == 0 for k, x_size, _, _ in blocks):
        return 0
    for k, x_size, g_values, _ in blocks:
        for points in combinations(range(m_size), k):
            backwards = points[::-1]
            for states in product(range(x_size), repeat=k):
                target = sorted([(f_values[p], g_values[x]) for p, x in zip(points, states)])
                other = sorted(
                    [(f_values[p], g_values[x]) for p, x in zip(backwards, states[::-1])]
                )
                if target != other:
                    raise OrbitCheckError(
                        "induced orbit map is not well defined: one source orbit "
                        "hits two target orbits"
                    )
    last = len(blocks) - 1

    def count_from(index: int, unused: Sequence[int]) -> int:
        """Representatives that fill blocks[index:] from the unused points."""
        k, x_size, _, _ = blocks[index]
        total = 0
        for points in combinations(unused, k):
            rest = [p for p in unused if p not in points] if index < last else ()
            for _states in product(range(x_size), repeat=k):
                total += 1 if index == last else count_from(index + 1, rest)
        return total

    orbits = count_from(0, range(m_size))
    stabiliser = math.prod(math.factorial(k) for k, _, _, _ in blocks)
    tuples = math.perm(m_size, s) * math.prod(x_size**k for k, x_size, _, _ in blocks)
    if orbits * stabiliser != tuples:
        raise OrbitCheckError(
            f"non-free action: {orbits} orbits of size {stabiliser} "
            f"do not cover {tuples} tuples"
        )
    return orbits


def brute_force_profile_orbits(m_size: int, f_values: Sequence[int], blocks: Sequence[Block]) -> int:
    """Orbit count of one charge profile by visiting every off-diagonal tuple.

    Canonicalizes each element under the blockwise symmetric-group action by
    sorting within blocks, counts distinct representatives, and verifies that
    every orbit has size prod k_i! and maps to a single target orbit.
    """
    s = sum(b[0] for b in blocks)
    if s == 0:
        raise ValueError("a charge profile must have at least one particle")
    if s > m_size:
        return 0
    if any(k > 0 and x_size == 0 for k, x_size, _, _ in blocks):
        return 0

    slot_ranges: List[range] = []
    for k, x_size, _, _ in blocks:
        slot_ranges.extend([range(x_size)] * k)
    orbit_size = math.prod(math.factorial(k) for k, _, _, _ in blocks)

    orbit_target = {}
    orbit_count = {}
    # Ordered tuples of distinct points = M^s minus the large diagonal.
    for m_tuple in itertools.permutations(range(m_size), s):
        for states in itertools.product(*slot_ranges):
            src_key: List[Tuple[int, int]] = []
            tgt_key: List[Tuple[int, int]] = []
            pos = 0
            for k, _, g_values, _ in blocks:
                src_block = sorted(zip(m_tuple[pos : pos + k], states[pos : pos + k]))
                tgt_block = sorted(
                    (f_values[m], g_values[x])
                    for m, x in zip(m_tuple[pos : pos + k], states[pos : pos + k])
                )
                src_key.append(tuple(src_block))
                tgt_key.append(tuple(tgt_block))
                pos += k
            src = tuple(src_key)
            tgt = tuple(tgt_key)
            prev = orbit_target.get(src)
            if prev is None:
                orbit_target[src] = tgt
                orbit_count[src] = 1
            else:
                if prev != tgt:
                    raise OrbitCheckError(
                        "induced orbit map is not well defined: one source orbit "
                        "hits two target orbits"
                    )
                orbit_count[src] += 1
    for src, count in orbit_count.items():
        if count != orbit_size:
            raise OrbitCheckError(
                f"non-free action: orbit of {src} has size {count}, expected {orbit_size}"
            )
    return len(orbit_target)


def per_representative_profile_orbits(
    m_size: int, f_values: Sequence[int], blocks: Sequence[Block]
) -> int:
    """The orderly orbit count that checks well-definedness on every block of
    every representative, once for each prefix that leaves its points free."""
    s = sum(b[0] for b in blocks)
    if s == 0:
        raise ValueError("a charge profile must have at least one particle")
    if s > m_size:
        return 0
    if any(k > 0 and x_size == 0 for k, x_size, _, _ in blocks):
        return 0
    last = len(blocks) - 1

    def count_from(index: int, unused: Sequence[int]) -> int:
        """Representatives that fill blocks[index:] from the unused points."""
        k, x_size, g_values, _ = blocks[index]
        total = 0
        for points in combinations(unused, k):
            rest = [p for p in unused if p not in points]
            backwards = points[::-1]
            for states in product(range(x_size), repeat=k):
                target = sorted([(f_values[p], g_values[x]) for p, x in zip(points, states)])
                other = sorted(
                    [(f_values[p], g_values[x]) for p, x in zip(backwards, states[::-1])]
                )
                if target != other:
                    raise OrbitCheckError(
                        "induced orbit map is not well defined: one source orbit "
                        "hits two target orbits"
                    )
                total += 1 if index == last else count_from(index + 1, rest)
        return total

    orbits = count_from(0, range(m_size))
    stabiliser = math.prod(math.factorial(k) for k, _, _, _ in blocks)
    tuples = math.perm(m_size, s) * math.prod(x_size**k for k, x_size, _, _ in blocks)
    if orbits * stabiliser != tuples:
        raise OrbitCheckError(
            f"non-free action: {orbits} orbits of size {stabiliser} "
            f"do not cover {tuples} tuples"
        )
    return orbits


def indexed_image_multiset_map(f: FiniteMap, k: int, choose) -> FiniteMap:
    """The k-element selections `choose(source, k)` mapped to image multisets,
    one Python-level lookup of every selected point."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    src = list(choose(range(f.source_size), k))
    tgt = itertools.combinations_with_replacement(range(f.target_size), k)
    tgt_index = {ms: i for i, ms in enumerate(tgt)}
    fv = f.values
    values = [tgt_index[tuple(sorted([fv[x] for x in sel]))] for sel in src]
    return FiniteMap(len(src), len(tgt_index), values)


class _Parser:
    """Recursive-descent parser producing a small AST with source offsets."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", offset)
        return node

    def expr(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node = ("neg", offset, self.term())
        else:
            node = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if value == "+" else "sub", offset, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = ("mul", offset, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, offset = self.advance()
        if kind == "int":
            return ("int", offset, int(value))
        if kind == "ident":
            exp = 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.advance()
                k3, v3, o3 = self.advance()
                if k3 != "int":
                    raise ParseError("expected a nonnegative integer exponent", o3)
                exp = int(v3)
            return ("var", offset, value, exp)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def _collect_variables(node, out: set) -> None:
    """Every identifier but 't', which _eval refuses outside a series."""
    kind = node[0]
    if kind == "var" and node[2] != "t":
        out.add(node[2])
    elif kind == "neg":
        _collect_variables(node[2], out)
    elif kind in ("add", "sub", "mul"):
        _collect_variables(node[2], out)
        _collect_variables(node[3], out)


def two_stage_parse_polynomial(text: str, ring: Optional[Ring] = None):
    """Parse a polynomial expression; the ring is inferred when not given.

    Inference collects the identifiers used and sorts them alphabetically;
    a variable-free expression lands in Z.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    ast = _Parser(text).parse()
    if ring is None:
        names: set = set()
        _collect_variables(ast, names)
        ring = Ring(tuple(sorted(names)))
    return _eval(ast, ring, series=False).get(0, ring.zero)


def _eval(node, ring: Ring, series: bool) -> Dict[int, object]:
    """Evaluate to a map t-degree -> ring element (no truncation yet).

    Outside a series 't' is refused, so every degree is 0.
    """
    kind = node[0]
    if kind == "int":
        return {0: ring.from_int(node[2])}
    if kind == "var":
        _, offset, name, exp = node
        if name == "t":
            if not series:
                raise ParseError("'t' is reserved for series", offset)
            return {exp: ring.one}
        try:
            return {0: ring.gen(name) ** exp}
        except UnboundVariableError:
            raise ParseError(f"variable {name!r} is not in the ring {ring.name}", offset)
    if kind == "neg":
        return {d: -c for d, c in _eval(node[2], ring, series).items()}
    a = _eval(node[2], ring, series)
    b = _eval(node[3], ring, series)
    out: Dict[int, object] = {}
    if kind in ("add", "sub"):
        for d, c in a.items():
            out[d] = c
        for d, c in b.items():
            c = -c if kind == "sub" else c
            out[d] = out[d] + c if d in out else c
    else:  # mul
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                d = d1 + d2
                p = c1 * c2
                out[d] = out[d] + p if d in out else p
    return {d: c for d, c in out.items() if c}


def two_stage_parse_series(
    text: str, ring: Ring, order: int, diagnostics=None
) -> TruncatedSeries:
    """Parse a series expression, truncating at `order`.

    Terms of degree above the order are discarded with a warning on the
    diagnostic stream (stderr by default).
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if diagnostics is None:
        diagnostics = sys.stderr
    ast = _Parser(text).parse()
    table = _eval(ast, ring, series=True)
    coeffs = [ring.zero] * (order + 1)
    for d, c in sorted(table.items()):
        if d > order:
            print(
                f"warning: degree-{d} term discarded (order {order})",
                file=diagnostics,
            )
            continue
        coeffs[d] = c
    return TruncatedSeries(ring, coeffs)


def profile_by_profile_integer_power(A: TruncatedSeries, m: int) -> TruncatedSeries:
    """Closed-form (1 + a_1 t + ...)^m, one charge profile at a time.

    Coefficient of t^k is the sum over charge profiles {k_i} with
    sum i*k_i = k of binom(m, s) * s!/(prod k_i!) * prod a_i^{k_i}, s = sum k_i;
    only profiles whose parts index nonzero a_i, with at most m parts when
    m >= 0, are visited.
    """
    if not A.is_unit():
        raise NonUnitError("the integer power formula needs constant term 1")
    ring = A.ring
    parts = [i for i, a in enumerate(A.coefficients) if i and a]
    max_parts = m if m >= 0 else None
    out = [ring.one] + [ring.zero] * A.order
    for k in range(1, A.order + 1):
        acc = ring.zero
        for profile in charge_profiles(k, max_parts=max_parts, parts=parts):
            s = sum(profile.values())
            factor = generalized_binomial(m, s) * math.factorial(s)
            term = None
            for i, k_i in sorted(profile.items()):
                factor //= math.factorial(k_i)
                p = A.coefficients[i] ** k_i
                term = p if term is None else term * p
            acc = acc + ring.from_int(factor) * term
        out[k] = acc
    return TruncatedSeries(ring, out)
