"""Seeded random generators and input grids shared by the test modules."""

import itertools
import random

from powerstruct.finite_model import FiniteMap
from powerstruct.rings import Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries


def random_element(rng: random.Random, ring: Ring, max_degree=2, max_terms=3, coeff_bound=3):
    if ring.is_integers:
        return rng.randint(-coeff_bound, coeff_bound)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in ring.variables)
        terms[exps] = terms.get(exps, 0) + rng.randint(-coeff_bound, coeff_bound)
    return SparsePolynomial(ring.variables, terms)


def random_unit_series(rng: random.Random, ring: Ring, order: int, **kw) -> TruncatedSeries:
    return TruncatedSeries(
        ring, [ring.one] + [random_element(rng, ring, **kw) for _ in range(order)]
    )


def random_series(rng: random.Random, ring: Ring, order: int, **kw) -> TruncatedSeries:
    return TruncatedSeries(
        ring, [random_element(rng, ring, **kw) for _ in range(order + 1)]
    )


def sparse_element(rng: random.Random, ring: Ring, nonzero_p=1.0, coeff_bound=1):
    """A 0- or 1-term element with small entries; keeps Log-side growth tame."""
    if ring.is_integers:
        return rng.randint(-coeff_bound, coeff_bound) if rng.random() <= nonzero_p else 0
    if rng.random() > nonzero_p:
        return ring.zero
    exps = tuple(rng.randint(0, 1) for _ in ring.variables)
    coeff = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
    return SparsePolynomial(ring.variables, {exps: coeff})


def sparse_unit_series(rng: random.Random, ring: Ring, order: int, nonzero_p=0.4):
    return TruncatedSeries(
        ring, [ring.one] + [sparse_element(rng, ring, nonzero_p) for _ in range(order)]
    )


def exponent_map_classes(max_m, max_n):
    """One map {0..n-1} -> {0..q-1} per equivalence class, n <= max_m, q <= max_n."""
    seen = {}
    for n in range(max_m + 1):
        for q in range(1, max_n + 1):
            for values in itertools.product(range(q), repeat=n):
                f = FiniteMap(n, q, values)
                key = (q, tuple(sorted(f.fiber_sizes())))
                seen.setdefault(key, f)
    return list(seen.values())
