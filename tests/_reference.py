"""Slow reference routes that the fast series, lambda, Log/Exp and orbit paths must equal.

These are the dense convolution, the dense inverse, the per-kind lambda
series (one branch per lambda kind), the factor-by-factor Log/Exp that build
every factor lambda_b(t^k) to the full order N before rescaling and invert
it for Log, the punctual Hilbert series as a product of inverted binomials,
and the brute-force orbit count that visits every element of every orbit.
They are kept only so tests can compare the fast routes against them, and
they share no lambda code with the library.
"""

import itertools
import math
from typing import List, Sequence, Tuple

from powerstruct.kernels import Block, OrbitCheckError
from powerstruct.lambdas import LambdaStructure, UnsupportedLambdaError
from powerstruct.rings import Ring
from powerstruct.series import NonUnitError, TruncatedSeries


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
