"""Lambda-structures, Exp/Log, and power structures on truncated series.

A lambda-structure assigns to each ring element a unit series
lambda_a(t) = 1 + a*t + ... with lambda_{a+b} = lambda_a * lambda_b.  Four are
provided:

  kapranov      lambda_a(t) = (1-t)^{-a}            (integer a)
  binomial      lambda_a(t) = (1+t)^a               (integer a)
  poly-product  lambda_P(t) = prod (1 - u^k t)^{-p_k} over the terms p_k*u^k
                of P; restricts to kapranov on constants
  opposite      lambda_a(t) = the poly-product series of -a with t -> -t

Every unit series factors uniquely as prod_i lambda_{b_i}(t^i); scaling each
b_i by a ring element m and recombining is the power structure attached to
the lambda-structure.  The closed-form integer power (partition sum over
charge profiles) is implemented independently as a cross-check.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple

from .rings import Ring
from .series import NonUnitError, TruncatedSeries

LAMBDA_KINDS = ("kapranov", "binomial", "opposite", "poly-product")


class UnsupportedLambdaError(ValueError):
    """The exponent is outside the domain of the chosen lambda-structure."""


class LambdaStructure:
    __slots__ = ("kind", "ring")

    def __init__(self, kind: str, ring: Ring):
        if kind not in LAMBDA_KINDS:
            raise ValueError(f"unknown lambda kind {kind!r}; choose from {LAMBDA_KINDS}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaStructure is immutable")

    def __repr__(self) -> str:
        return f"LambdaStructure({self.kind}, {self.ring.name})"

    def series(self, a, order: int) -> TruncatedSeries:
        return lambda_series(self, a, order)


def _one_minus_xt_power(ring: Ring, x, e: int, order: int) -> TruncatedSeries:
    """(1 - x*t)^e truncated, for any integer e: coefficient j is
    (-1)^j * binom(e, j) * x^j."""
    coeffs = [ring.one]
    xpow = ring.one
    for j in range(1, order + 1):
        xpow = ring.mul(xpow, x)
        c = (-1) ** j * generalized_binomial(e, j)
        coeffs.append(ring.mul(ring.from_int(c), xpow))
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
        [c if j % 2 == 0 else ring.neg(c) for j, c in enumerate(a.coefficients)],
    )


def lambda_series(lam: LambdaStructure, a, order: int) -> TruncatedSeries:
    """The series lambda_a truncated at `order`."""
    ring = lam.ring
    a = ring.coerce(a)
    if lam.kind == "poly-product":
        return _poly_product_series(ring, a, order)
    if lam.kind == "opposite":
        return _negate_odd(_poly_product_series(ring, ring.neg(a), order))
    # kapranov and binomial need a constant (integer) exponent
    if not ring.is_constant(a):
        raise UnsupportedLambdaError(
            f"{lam.kind} lambda is defined for integer exponents only; "
            f"got {ring.format_element(a)} (use poly-product)"
        )
    n = ring.as_int(a)
    if lam.kind == "kapranov":
        return _one_minus_xt_power(ring, ring.one, -n, order)
    # binomial: (1 + t)^n = (1 - (-1)t)^n
    return _one_minus_xt_power(ring, ring.from_int(-1), n, order)


def decompose_product(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Coefficients b_1..b_N of the unique factorization A = prod lambda_{b_i}(t^i).

    Peels degrees bottom-up: after dividing out prod_{i<k} lambda_{b_i}(t^i),
    the residual is 1 + b_k t^k + O(t^{k+1}).
    """
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")
    ring = A.ring
    residual = A
    bs: List = []
    for k in range(1, A.order + 1):
        b_k = residual.coefficients[k]
        bs.append(b_k)
        if not ring.is_zero(b_k):
            factor = lambda_series(lam, b_k, A.order // k).rescale(k, order=A.order)
            residual = residual * factor.invert()
    return bs


def exp_map(B: Sequence, lam: LambdaStructure, order: int | None = None) -> TruncatedSeries:
    """Exp(b_1 t + b_2 t^2 + ...) = prod_k lambda_{b_k}(t^k)."""
    ring = lam.ring
    if order is None:
        order = len(B)
    result = TruncatedSeries.one(ring, order)
    for k, b in enumerate(B, start=1):
        if k > order:
            break
        b = ring.coerce(b)
        if ring.is_zero(b):
            continue
        result = result * lambda_series(lam, b, order // k).rescale(k, order=order)
    return result


def log_map(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Inverse of exp_map: the factorization coefficients b_1..b_N."""
    return decompose_product(A, lam)


def power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    """(A(t))^m = prod_i lambda_{m*b_i}(t^i) where A = prod_i lambda_{b_i}(t^i)."""
    ring = lam.ring
    if A.ring != ring:
        raise ValueError(f"series over {A.ring.name}, lambda over {ring.name}")
    m = ring.coerce(m)
    bs = decompose_product(A, lam)
    return exp_map([ring.mul(m, b) for b in bs], lam, A.order)


# -- charge profiles and the closed-form integer power ----------------------


def charge_profiles(k: int) -> Iterator[Dict[int, int]]:
    """All partitions of k as multiplicity maps {charge i -> count k_i}.

    Deterministic (lexicographic in the descending-part representation) so
    summation order is reproducible.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")

    def rec(remaining: int, max_part: int, acc: Dict[int, int]):
        if remaining == 0:
            yield dict(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            yield from rec(remaining - part, part, acc)
            acc[part] -= 1
            if not acc[part]:
                del acc[part]

    yield from rec(k, k, {})


def generalized_binomial(m: int, s: int) -> int:
    """binom(m, s) for any integer m, nonnegative s."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if m >= 0:
        return math.comb(m, s)
    return (-1) ** s * math.comb(-m + s - 1, s)


def integer_power_formula(A: TruncatedSeries, m: int) -> TruncatedSeries:
    """Closed-form (1 + a_1 t + ...)^m for an integer exponent.

    Coefficient of t^k is the sum over charge profiles {k_i} with
    sum i*k_i = k of binom(m, s) * s!/(prod k_i!) * prod a_i^{k_i}, s = sum k_i.
    The combinatorial factor is assembled from integers only, so the result
    stays in the coefficient ring.
    """
    if not A.is_unit():
        raise NonUnitError("the integer power formula needs constant term 1")
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("the exponent of integer_power_formula must be an int")
    ring = A.ring
    out = [ring.one] + [ring.zero] * A.order
    for k in range(1, A.order + 1):
        acc = ring.zero
        for profile in charge_profiles(k):
            s = sum(profile.values())
            factor = generalized_binomial(m, s) * math.factorial(s)
            term = None
            skip = False
            for i, k_i in sorted(profile.items()):
                factor //= math.factorial(k_i)
                a_i = A.coefficients[i]
                if ring.is_zero(a_i):
                    skip = True
                    break
                p = ring.int_pow(a_i, k_i)
                term = p if term is None else ring.mul(term, p)
            if skip or factor == 0:
                continue
            acc = ring.add(acc, ring.mul(ring.from_int(factor), term))
        out[k] = acc
    return TruncatedSeries(ring, out)
