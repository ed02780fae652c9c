"""Generating-series applications: Hodge-level zeta and Hilbert-scheme series.

Each series is one Exp of its coordinates, which are known in closed form.
Realizations live in three concrete rings: Z[u,v] for Hodge-Deligne
polynomials, Z[L] for series built from the class of the affine line, and Z
for Euler characteristics.  Specialization homomorphisms (L -> uv, all
variables -> 1) connect them, each mapping a coefficient's terms directly,
and commute with the power structures.
"""

from __future__ import annotations

from .lambdas import LambdaStructure, exp_map
from .rings import INTEGERS, Ring, SparsePolynomial
from .series import TruncatedSeries, _check_order

HODGE_RING = Ring(("u", "v"))
MOTIVIC_RING = Ring(("L",))
_HODGE_LAMBDA = LambdaStructure("poly-product", HODGE_RING)


def hodge_zeta(e, order: int) -> TruncatedSeries:
    """(1-t)^{-e} = Exp(e*t) over Z[u,v], for the Hodge-Deligne polynomial e
    of X: coefficient k is the e-polynomial of S^k X."""
    _check_order(order)  # before e is coerced
    return exp_map([HODGE_RING.coerce(e)], _HODGE_LAMBDA, order)


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

    The local series with L -> uv, raised to the power e: Exp of
    sum_k e*(uv)^{k-1} t^k for the poly-product lambda-structure over Z[u,v]."""
    _check_order(order)  # before e is coerced
    e = HODGE_RING.coerce(e)
    return exp_map([e * HODGE_RING.monomial((k - 1, k - 1)) for k in range(1, order + 1)],
                   _HODGE_LAMBDA, order)


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
