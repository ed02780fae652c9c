"""Generating-series applications: Hodge-level zeta and Hilbert-scheme series.

Realizations live in three concrete rings: Z[u,v] for Hodge-Deligne
polynomials, Z[L] for series built from the class of the affine line, and Z
for Euler characteristics.  Specialization homomorphisms (L -> uv, all
variables -> 1) connect them, each mapping a coefficient's terms directly,
and commute with the power structures.
"""

from __future__ import annotations

from .lambdas import LambdaStructure, exp_map, power
from .rings import INTEGERS, Ring, SparsePolynomial
from .series import TruncatedSeries

HODGE_RING = Ring(("u", "v"))
MOTIVIC_RING = Ring(("L",))


def hodge_zeta(e, order: int) -> TruncatedSeries:
    """(1-t)^{-e} over Z[u,v]: coefficient k is the e-polynomial of S^k X.

    The exponent e is the Hodge-Deligne polynomial of X.
    """
    lam = LambdaStructure("poly-product", HODGE_RING)
    return power(TruncatedSeries.geometric(HODGE_RING, order), HODGE_RING.coerce(e), lam)


def hilb_local_surface(order: int) -> TruncatedSeries:
    """prod_{i>=1} (1 - L^{i-1} t^i)^{-1} over Z[L], truncated.

    Coefficient k is the class of the punctual Hilbert scheme of length-k
    subschemes of a surface supported at one point: a sum of L-powers
    weighting partitions of k.  The product is Exp of sum_i L^{i-1} t^i for
    the poly-product lambda-structure, lambda_x(t) = (1 - x*t)^{-1} for a
    monomial x.
    """
    ring = MOTIVIC_RING
    lam = LambdaStructure("poly-product", ring)
    return exp_map([ring.monomial((i - 1,)) for i in range(1, order + 1)], lam, order)


def hilb_surface(e, order: int) -> TruncatedSeries:
    """Hilbert-scheme series of a surface with Hodge-Deligne polynomial e.

    The local series with L -> uv, raised to the exponent e by the
    polynomial-product power structure over Z[u,v].
    """
    local = specialize_series(hilb_local_surface(order), "hodge_from_L")
    lam = LambdaStructure("poly-product", HODGE_RING)
    return power(local, HODGE_RING.coerce(e), lam)


def specialize_series(A: TruncatedSeries, target: str) -> TruncatedSeries:
    """Coefficientwise image under a specialization homomorphism.

    "euler": every variable -> 1 (lands in Z; on Z[u,v] this is the
    compactly-supported Euler characteristic): a coefficient goes to the sum
    of its integer coefficients.
    "hodge_from_L": Z[L] -> Z[u,v] with L -> uv: p*L^d goes to p*u^d*v^d.
    """
    ring = A.ring
    if target == "euler":
        if ring.is_integers:
            raise ValueError("euler specialization needs a polynomial ring")
        return TruncatedSeries._raw(
            INTEGERS, [sum(terms.values()) for terms in ring.term_maps(A.coefficients)]
        )
    if target == "hodge_from_L":
        if ring != MOTIVIC_RING:
            raise ValueError(f"hodge_from_L specializes Z[L], not {ring.name}")
        return TruncatedSeries._raw(HODGE_RING, [
            SparsePolynomial(HODGE_RING.variables, {(d, d): p for (d,), p in c.terms.items()})
            for c in A.coefficients
        ])
    raise ValueError(f"unknown specialization {target!r}")
