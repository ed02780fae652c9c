"""Every product over Z[x...] runs one in-place term-pair kernel.  Series
products equal the `convolve` reference kept in the tests, or raise the same
error with the same message; no product changes a term map of an operand;
and a polynomial product names the same overflowing exponent as the series
product of order 0 over the same two polynomials."""

import random

import pytest

from powerstruct.rings import INTEGERS, MAX_EXPONENT, DegreeOverflowError, Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries

from _reference import convolve_mul

HALF = 1 << 30  # two exponents near HALF sum to about the limit
RINGS = [Ring(("u",)), Ring(("u", "v")), Ring(("a", "b", "c"))]


def exponent(rng, big_p):
    """Small, or with probability big_p near HALF or near MAX_EXPONENT."""
    if rng.random() >= big_p:
        return rng.randint(0, 3)
    if rng.random() < 0.7:
        return HALF + rng.randint(-4, 4)
    return MAX_EXPONENT - rng.randint(0, 6)


def element(rng, ring, big_p):
    """Zero about a third of the time, else 1-3 terms."""
    if ring.is_integers:
        return rng.randint(-3, 3)
    if rng.random() < 0.3:
        return ring.zero
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(exponent(rng, big_p) for _ in ring.variables)
        terms[exps] = rng.choice([-2, -1, 1, 2, 3])
    return SparsePolynomial(ring.variables, terms)


def series(rng, ring, order, big_p):
    """A series whose constant term is 1, 0, another integer or a polynomial."""
    constant = rng.choice([ring.one, ring.zero, ring.from_int(rng.choice([-1, 2, 3])),
                           element(rng, ring, big_p)])
    return TruncatedSeries(ring, [constant] + [element(rng, ring, big_p) for _ in range(order)])


def outcome(compute):
    """The result, or the class and message of the error raised."""
    try:
        return compute()
    except DegreeOverflowError as e:
        return type(e), str(e)


def term_maps(*operands):
    """Each coefficient's term map, by identity and by its items in order."""
    return [(id(c._terms), list(c._terms.items()))
            for s in operands for c in s.coefficients if not isinstance(c, int)]


@pytest.mark.parametrize("ring", [INTEGERS] + RINGS, ids=lambda r: r.name)
def test_series_products_equal_the_convolve_reference(ring):
    rng = random.Random(f"one kernel {ring.name}")
    kept = refused = 0
    for order in range(17):
        for _ in range(6):
            big_p = rng.choice([0.0, 0.05, 0.3])
            a = series(rng, ring, order, big_p)
            b = series(rng, ring, rng.randint(order, 16), big_p)
            before = term_maps(a, b)
            for x, y in ((a, b), (b, a), (a, a)):
                expected = outcome(lambda: convolve_mul(x, y))
                got = outcome(lambda: x * y)
                assert got == expected, (x, y)
                assert term_maps(a, b) == before
                if isinstance(expected, tuple):
                    refused += 1
                else:
                    assert got.order == order
                    kept += 1
    assert kept > 150
    assert ring.is_integers or refused > 50  # both sides of the limit were exercised


def cancelling_pair(rng, ring):
    """p = c1*x^A + c2*x^(A+1) and q = c3*x^(B+1) + c4*x^B in the first
    variable x, with A + B = MAX_EXPONENT and c1*c3 + c2*c4 = 0: the term
    pairs (A, B+1) and (A+1, B) both exceed the limit by one and cancel.
    The other variables have one small exponent per polynomial, the terms
    come in a random order, and p sometimes has a small third term."""
    A = HALF + rng.randint(-8, 8)
    B = MAX_EXPONENT - A
    c1, c3 = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2])
    c2 = rng.choice([-1, 1])
    c4 = -c1 * c3 * c2
    rest_p, rest_q = ([rng.randint(0, 3) for _ in ring.variables[1:]] for _ in range(2))
    p_terms = [((A, *rest_p), c1), ((A + 1, *rest_p), c2)]
    q_terms = [((B + 1, *rest_q), c3), ((B, *rest_q), c4)]
    if rng.random() < 0.5:
        p_terms.append(((rng.randint(0, 3),) * len(ring.variables), rng.choice([-1, 1])))
    rng.shuffle(p_terms)
    rng.shuffle(q_terms)
    return (SparsePolynomial(ring.variables, dict(p_terms)),
            SparsePolynomial(ring.variables, dict(q_terms)))


def overflow(compute):
    with pytest.raises(DegreeOverflowError) as raised:
        compute()
    return raised.value.variable, raised.value.exponent


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_a_polynomial_product_overflows_as_its_series_product_does(ring):
    rng = random.Random(f"one overflow rule {ring.name}")
    u = ring.variables[0]
    # the term pair u^2^30 * u^(2^30+1) - u^(2^30+1) * u^2^30 cancels, and the
    # product names it, not u^(2^31+1), the first overflow that survives
    others = (0,) * (len(ring.variables) - 1)
    first = ring.monomial((HALF, *others)) + ring.monomial((HALF + 1, *others))
    second = ring.monomial((MAX_EXPONENT - HALF + 1, *others)) - ring.monomial((MAX_EXPONENT - HALF, *others))
    assert overflow(lambda: first * second) == (u, MAX_EXPONENT + 1)
    cases = [(first, second)] + [cancelling_pair(rng, ring) for _ in range(40)]
    for p, q in cases:
        for x, y in ((p, q), (q, p)):
            expected = overflow(lambda: TruncatedSeries(ring, [x]) * TruncatedSeries(ring, [y]))
            assert overflow(lambda: x * y) == expected
            assert expected[0] == u and expected[1] > MAX_EXPONENT
