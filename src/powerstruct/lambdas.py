"""Lambda-structures, Exp/Log, and power structures on truncated series.

A lambda-structure assigns to each ring element a unit series
lambda_a(t) = 1 + a*t + ... with lambda_{a+b} = lambda_a * lambda_b.  The four
provided are one signed product over the terms p*x of a (x a monomial),

  lambda_a(t) = prod (1 - sigma*x*t)^{-sigma*p},

with sigma = +1 for kapranov and poly-product, and sigma = -1 for binomial and
opposite, which are the same structures with t -> -t.  Kapranov, (1-t)^{-a},
and binomial, (1+t)^a, take integer exponents only; poly-product and opposite
take any polynomial and restrict to them on constants.

Every unit series factors uniquely as prod_i lambda_{b_i}(t^i).  Exp builds
that product; Log peels it degree by degree, multiplying by
lambda_{-b_k}(t^k) = lambda_{b_k}(t^k)^{-1}, so it takes no series inverse.
Scaling each b_i by a ring element m and recombining is the power structure
attached to the lambda-structure.  The closed-form integer power (partition
sum over charge profiles) is implemented independently as a cross-check.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence

from .rings import Ring
from .series import NonUnitError, TruncatedSeries

LAMBDA_KINDS = ("kapranov", "binomial", "opposite", "poly-product")
_SIGN = {"kapranov": 1, "binomial": -1, "opposite": -1, "poly-product": 1}


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


def _one_minus_xt_power(ring: Ring, x, e: int, order: int) -> TruncatedSeries:
    """(1 - x*t)^e truncated, for any integer e: coefficient j is
    (-1)^j * binom(e, j) * x^j."""
    coeffs = [ring.one]
    xpow = ring.one
    for j in range(1, order + 1):
        xpow = xpow * x
        coeffs.append(ring.from_int((-1) ** j * generalized_binomial(e, j)) * xpow)
    return TruncatedSeries(ring, coeffs)


def _check_domain(lam: LambdaStructure, a) -> None:
    """kapranov and binomial need a constant (integer) exponent."""
    ring = lam.ring
    if lam.kind in ("kapranov", "binomial") and not ring.is_constant(a):
        raise UnsupportedLambdaError(
            f"{lam.kind} lambda is defined for integer exponents only; "
            f"got {ring.format_element(a)} (use poly-product)"
        )


def lambda_series(lam: LambdaStructure, a, order: int) -> TruncatedSeries:
    """The series lambda_a truncated at `order`."""
    ring = lam.ring
    a = ring.coerce(a)
    _check_domain(lam, a)
    sign = _SIGN[lam.kind]
    result = None
    for exps, p in ring.terms(a):
        factor = _one_minus_xt_power(ring, ring.monomial(exps, sign), -sign * p, order)
        result = factor if result is None else result * factor
    return TruncatedSeries.one(ring, order) if result is None else result


def _factor(lam: LambdaStructure, b, k: int, order: int) -> TruncatedSeries:
    """lambda_b(t^k) truncated at `order`; only lambda_b up to t^(order // k) survives."""
    return lambda_series(lam, b, order // k).rescale(k, order=order)


def decompose_product(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Coefficients b_1..b_N of the unique factorization A = prod lambda_{b_i}(t^i).

    Peels degrees bottom-up: after multiplying A by prod_{i<k} lambda_{-b_i}(t^i),
    the inverse of prod_{i<k} lambda_{b_i}(t^i), the residual is
    1 + b_k t^k + O(t^{k+1}).
    """
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
            residual = residual * _factor(lam, -b_k, k, A.order)
    return bs


def exp_map(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    """Exp(b_1 t + b_2 t^2 + ...) = prod_k lambda_{b_k}(t^k), truncated at `order`."""
    ring = lam.ring
    result = TruncatedSeries.one(ring, order)
    for k, b in enumerate(B, start=1):
        if k > order:
            break
        b = ring.coerce(b)
        if not b:
            continue
        result = result * _factor(lam, b, k, order)
    return result


def log_map(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Inverse of exp_map: the factorization coefficients b_1..b_N."""
    return decompose_product(A, lam)


def power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    """(A(t))^m = prod_i lambda_{m*b_i}(t^i) where A = prod_i lambda_{b_i}(t^i)."""
    m = lam.ring.coerce(m)
    bs = decompose_product(A, lam)
    return exp_map([m * b for b in bs], lam, A.order)


# -- charge profiles and the closed-form integer power ----------------------


def charge_profiles(
    k: int, max_part: int | None = None, max_parts: int | None = None
) -> Iterator[Dict[int, int]]:
    """Partitions of k as multiplicity maps {charge i -> count k_i}.

    Only partitions with every part at most `max_part` and at most
    `max_parts` parts are yielded (no bound when None); a branch that cannot
    meet the bounds is cut before it is explored.  Deterministic
    (lexicographic in the descending-part representation) so summation order
    is reproducible.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")

    def rec(remaining: int, largest: int, parts_left: int, acc: Dict[int, int]):
        if remaining == 0:
            yield dict(acc)
            return
        if remaining > largest * parts_left:
            return
        for part in range(min(remaining, largest), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            yield from rec(remaining - part, part, parts_left - 1, acc)
            acc[part] -= 1
            if not acc[part]:
                del acc[part]

    yield from rec(
        k, k if max_part is None else max_part, k if max_parts is None else max_parts, {}
    )


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
    # a profile with a part i where a_i = 0, or with s > m >= 0 parts, adds 0
    max_part = max((i for i, a in enumerate(A.coefficients) if i and a), default=0)
    max_parts = m if m >= 0 else None
    out = [ring.one] + [ring.zero] * A.order
    for k in range(1, A.order + 1):
        acc = ring.zero
        for profile in charge_profiles(k, max_part, max_parts):
            s = sum(profile.values())
            factor = generalized_binomial(m, s) * math.factorial(s)
            term = None
            skip = False
            for i, k_i in sorted(profile.items()):
                factor //= math.factorial(k_i)
                a_i = A.coefficients[i]
                if not a_i:
                    skip = True
                    break
                p = a_i**k_i
                term = p if term is None else term * p
            if skip or factor == 0:
                continue
            acc = acc + ring.from_int(factor) * term
        out[k] = acc
    return TruncatedSeries(ring, out)
