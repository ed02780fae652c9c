"""Slow reference routes that the fast series and Log/Exp paths must equal.

These are the dense convolution, the dense inverse and the factor-by-factor
Log/Exp that build every factor lambda_b(t^k) to the full order N before
rescaling.  They visit every index pair through the Ring methods and are
kept only so tests can compare the fast routes against them.
"""

from typing import List, Sequence

from powerstruct.lambdas import LambdaStructure, lambda_series
from powerstruct.series import NonUnitError, TruncatedSeries


def dense_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    ring = a.ring
    n = min(a.order, b.order)
    out: List = []
    for j in range(n + 1):
        acc = ring.zero
        for i in range(j + 1):
            ci, cj = a.coefficients[i], b.coefficients[j - i]
            if ring.is_zero(ci) or ring.is_zero(cj):
                continue
            acc = ring.add(acc, ring.mul(ci, cj))
        out.append(acc)
    return TruncatedSeries(ring, out)


def dense_invert(a: TruncatedSeries) -> TruncatedSeries:
    if not a.is_unit():
        raise NonUnitError("only unit series invert")
    ring = a.ring
    inv: List = [ring.one]
    for j in range(1, a.order + 1):
        acc = ring.zero
        for i in range(1, j + 1):
            ci = a.coefficients[i]
            if ring.is_zero(ci):
                continue
            acc = ring.add(acc, ring.mul(ci, inv[j - i]))
        inv.append(ring.neg(acc))
    return TruncatedSeries(ring, inv)


def full_order_decompose(A: TruncatedSeries, lam: LambdaStructure) -> List:
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")
    ring = A.ring
    residual = A
    bs: List = []
    for k in range(1, A.order + 1):
        b_k = residual.coefficients[k]
        bs.append(b_k)
        if not ring.is_zero(b_k):
            factor = lambda_series(lam, b_k, A.order).rescale(k)
            residual = dense_mul(residual, dense_invert(factor))
    return bs


def full_order_exp(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    ring = lam.ring
    result = TruncatedSeries.one(ring, order)
    for k, b in enumerate(B[:order], start=1):
        b = ring.coerce(b)
        if ring.is_zero(b):
            continue
        result = dense_mul(result, lambda_series(lam, b, order).rescale(k))
    return result


def full_order_power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    ring = lam.ring
    m = ring.coerce(m)
    bs = full_order_decompose(A, lam)
    return full_order_exp([ring.mul(m, b) for b in bs], lam, A.order)
