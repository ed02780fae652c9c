"""Slow reference routes that the fast series, Log/Exp and orbit paths must equal.

These are the dense convolution, the dense inverse, the factor-by-factor
Log/Exp that build every factor lambda_b(t^k) to the full order N before
rescaling, and the brute-force orbit count that visits every element of
every orbit.  They are kept only so tests can compare the fast routes
against them.
"""

import itertools
import math
from typing import List, Sequence, Tuple

from powerstruct.kernels import Block, OrbitCheckError
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
