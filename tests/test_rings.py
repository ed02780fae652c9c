import random

import pytest

from powerstruct.rings import (
    ArityError,
    INTEGERS,
    Ring,
    SparsePolynomial,
    UnboundVariableError,
)

from _gen import random_element

UV = Ring(("u", "v"))
L_RING = Ring(("L",))


def poly(text_terms):
    return SparsePolynomial(("u", "v"), text_terms)


def test_additive_cancellation():
    one_plus_uv = poly({(0, 0): 1, (1, 1): 1})
    minus_uv = poly({(1, 1): -1})
    assert one_plus_uv + minus_uv == poly({(0, 0): 1})


def test_difference_of_squares():
    one_plus_u = poly({(0, 0): 1, (1, 0): 1})
    one_minus_u = poly({(0, 0): 1, (1, 0): -1})
    assert one_plus_u * one_minus_u == poly({(0, 0): 1, (2, 0): -1})


def test_zero_absorbs():
    rng = random.Random(1)
    zero = SparsePolynomial.zero(("u", "v"))
    for _ in range(10):
        p = random_element(rng, UV)
        assert zero * p == zero


def test_mismatched_variable_lists_raise():
    with pytest.raises(ArityError):
        poly({(0, 0): 1}) + SparsePolynomial(("u",), {(0,): 1})


def test_normalization_idempotent():
    p = poly({(1, 1): 2, (0, 0): 0})
    again = SparsePolynomial(p.variables, p.terms)
    assert again == p and again.terms == p.terms
    assert (0, 0) not in p.terms


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a = random_element(rng, UV, max_degree=4, coeff_bound=9)
        b = random_element(rng, UV, max_degree=4, coeff_bound=9)
        c = random_element(rng, UV, max_degree=4, coeff_bound=9)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_substitute_monomials():
    p = SparsePolynomial(("L",), {(0,): 1, (1,): 1, (2,): 1})  # 1 + L + L^2
    uv = SparsePolynomial.monomial(("u", "v"), (1, 1))
    image = p.substitute(UV, {"L": uv})
    assert image == poly({(0, 0): 1, (1, 1): 1, (2, 2): 1})


def test_substitute_evaluation_is_euler_characteristic():
    p = poly({(0, 0): 1, (1, 1): 1})  # e(P^1) = 1 + uv
    assert p.substitute(INTEGERS, {"u": 1, "v": 1}) == 2


def test_substitute_unbound_variable():
    p = poly({(1, 0): 1})
    with pytest.raises(UnboundVariableError):
        p.substitute(INTEGERS, {"u": 1})


def test_substitute_is_ring_homomorphism():
    # independent oracle: map each polynomial through substitution separately
    # and compare with the substituted product/sum
    rng = random.Random(11)
    uv = SparsePolynomial.monomial(("u", "v"), (1, 1))
    bindings_int = {"u": 2, "v": -1}
    for _ in range(50):
        a = random_element(rng, UV, max_degree=3, coeff_bound=5)
        b = random_element(rng, UV, max_degree=3, coeff_bound=5)
        for target, bindings in ((INTEGERS, bindings_int),):
            sa = a.substitute(target, bindings)
            sb = b.substitute(target, bindings)
            assert (a * b).substitute(target, bindings) == sa * sb
            assert (a + b).substitute(target, bindings) == sa + sb
    assert SparsePolynomial.constant(("u", "v"), 1).substitute(INTEGERS, bindings_int) == 1
    assert SparsePolynomial.zero(("u", "v")).substitute(INTEGERS, bindings_int) == 0
    # polynomial-valued bindings commute with arithmetic too
    for _ in range(20):
        a = random_element(rng, L_RING, max_degree=3, coeff_bound=5)
        b = random_element(rng, L_RING, max_degree=3, coeff_bound=5)
        sa = a.substitute(UV, {"L": uv})
        sb = b.substitute(UV, {"L": uv})
        assert (a * b).substitute(UV, {"L": uv}) == sa * sb


def test_grlex_formatting():
    p = SparsePolynomial(("u", "v"), {(2, 0): 1, (1, 1): 1, (0, 2): 1, (0, 0): 3})
    assert str(p) == "3 + u^2 + u*v + v^2"
    assert str(SparsePolynomial(("u", "v"), {(1, 1): -1, (2, 1): 1})) == "-u*v + u^2*v"
    assert str(SparsePolynomial.zero(("u", "v"))) == "0"


def test_ring_names_and_coercion():
    assert INTEGERS.name == "Z"
    assert UV.name == "Z[u,v]"
    assert INTEGERS.coerce(5) == 5
    with pytest.raises(ArityError):
        UV.coerce(SparsePolynomial(("u",), {(1,): 1}))
