import random
from collections.abc import Mapping
from fractions import Fraction

import pytest

from powerstruct.finite_model import FiniteMap
from powerstruct.lambdas import LambdaStructure
from powerstruct.parsing import parse_polynomial
from powerstruct.rings import (
    ArityError,
    DegreeOverflowError,
    INTEGERS,
    MAX_EXPONENT,
    Ring,
    SparsePolynomial,
    UnboundVariableError,
)
from powerstruct.series import TruncatedSeries

from conftest import assert_refuses
from _gen import random_element
from _reference import substitute

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
    zero = UV.zero
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
    uv = UV.monomial((1, 1))
    image = substitute(p, UV, {"L": uv})
    assert image == poly({(0, 0): 1, (1, 1): 1, (2, 2): 1})


def test_substitute_evaluation_is_euler_characteristic():
    p = poly({(0, 0): 1, (1, 1): 1})  # e(P^1) = 1 + uv
    assert substitute(p, INTEGERS, {"u": 1, "v": 1}) == 2


def test_substitute_unbound_variable():
    p = poly({(1, 0): 1})
    with pytest.raises(UnboundVariableError):
        substitute(p, INTEGERS, {"u": 1})


def test_substitute_is_ring_homomorphism():
    # independent oracle: map each polynomial through substitution separately
    # and compare with the substituted product/sum
    rng = random.Random(11)
    uv = UV.monomial((1, 1))
    bindings_int = {"u": 2, "v": -1}
    for _ in range(50):
        a = random_element(rng, UV, max_degree=3, coeff_bound=5)
        b = random_element(rng, UV, max_degree=3, coeff_bound=5)
        for target, bindings in ((INTEGERS, bindings_int),):
            sa = substitute(a, target, bindings)
            sb = substitute(b, target, bindings)
            assert substitute(a * b, target, bindings) == sa * sb
            assert substitute(a + b, target, bindings) == sa + sb
    assert substitute(SparsePolynomial.constant(("u", "v"), 1), INTEGERS, bindings_int) == 1
    assert substitute(UV.zero, INTEGERS, bindings_int) == 0
    # polynomial-valued bindings commute with arithmetic too
    for _ in range(20):
        a = random_element(rng, L_RING, max_degree=3, coeff_bound=5)
        b = random_element(rng, L_RING, max_degree=3, coeff_bound=5)
        sa = substitute(a, UV, {"L": uv})
        sb = substitute(b, UV, {"L": uv})
        assert substitute(a * b, UV, {"L": uv}) == sa * sb


def test_grlex_formatting():
    p = SparsePolynomial(("u", "v"), {(2, 0): 1, (1, 1): 1, (0, 2): 1, (0, 0): 3})
    assert str(p) == "3 + u^2 + u*v + v^2"
    assert str(SparsePolynomial(("u", "v"), {(1, 1): -1, (2, 1): 1})) == "-u*v + u^2*v"
    assert str(UV.zero) == "0"


def test_ring_names_and_coercion():
    assert INTEGERS.name == "Z"
    assert UV.name == "Z[u,v]"
    assert INTEGERS.coerce(5) == 5
    with pytest.raises(ArityError):
        UV.coerce(SparsePolynomial(("u",), {(1,): 1}))
    assert_refuses(lambda: INTEGERS.coerce(True), TypeError, "bool is not a ring element")
    assert_refuses(lambda: INTEGERS.coerce(UV.gen("u")), ArityError,
                   "SparsePolynomial(('u', 'v'), u) is not an element of Z")
    assert_refuses(lambda: INTEGERS.coerce(1.5), TypeError, "cannot interpret float as a Z element")


RINGS_REFUSALS = [
    pytest.param(lambda: Ring(("u", "u")), ValueError, "duplicate variables in ('u', 'u')",
                 id="duplicate-variables"),
    pytest.param(lambda: INTEGERS.monomial((1,)), ArityError, "Z has no variables",
                 id="monomial-of-Z"),
    pytest.param(lambda: UV.gen("u") ** -1, ValueError,
                 "negative polynomial powers are not defined", id="negative-power"),
    pytest.param(lambda: UV.gen("u") + 1, TypeError, "expected SparsePolynomial, got int",
                 id="plus-an-int"),
    pytest.param(lambda: SparsePolynomial(("u",), {(1, 2): 1}), ArityError,
                 "exponent vector (1, 2) has arity 2, expected 1", id="exponent-arity"),
    pytest.param(lambda: SparsePolynomial(("u",), {(-1,): 1}), ValueError,
                 "negative exponent in (-1,)", id="negative-exponent"),
    pytest.param(lambda: INTEGERS.monomial_powers((1,), [1]), ArityError, "Z has no variables",
                 id="monomial-powers-of-Z"),
]


@pytest.mark.parametrize("call, error, message", RINGS_REFUSALS)
def test_rings_refusals_name_their_cause(call, error, message):
    assert_refuses(call, error, message)


@pytest.mark.parametrize("coeff, message", [
    (1.5, "coefficient 1.5 is a float, not an int"),
    (True, "coefficient True is a bool, not an int"),
    (Fraction(1, 2), "coefficient Fraction(1, 2) is a Fraction, not an int"),
    ("3", "coefficient '3' is a str, not an int"),
], ids=["float", "bool", "fraction", "str"])
def test_a_coefficient_that_is_not_an_int_is_refused(coeff, message):
    u = Ring(("u",))
    for build in (lambda: SparsePolynomial(("u",), {(1,): 1, (0,): coeff}),
                  lambda: SparsePolynomial.constant(("u", "v"), coeff),
                  lambda: u.monomial((2,), coeff),
                  lambda: INTEGERS.monomial((), coeff)):
        assert_refuses(build, TypeError, message)
    # an int coefficient, zero included, builds as before
    assert str(SparsePolynomial(("u",), {(1,): 3, (0,): 0})) == "3*u"
    assert INTEGERS.monomial((), -4) == -4 and u.monomial((2,), 0) == u.zero


@pytest.mark.parametrize("ring", [Ring(("u",)), UV, Ring(("a", "b", "c"))], ids=lambda r: r.name)
def test_rebuild_from_terms_keeps_hash_and_equality(ring):
    rng = random.Random(f"rebuild {ring.name}")
    for _ in range(50):
        p = random_element(rng, ring, max_degree=5, max_terms=6, coeff_bound=4)
        again = SparsePolynomial(p.variables, p.terms)
        assert again == p and hash(again) == hash(p)
        plain = dict(p.terms)
        assert SparsePolynomial(p.variables, plain) == p
        assert hash(SparsePolynomial(p.variables, plain)) == hash(p)
        assert p.terms == plain and len(p.terms) == len(plain)


def test_terms_is_a_read_only_tuple_keyed_view():
    p = poly({(2, 0): 3, (0, 1): -1, (0, 0): 7})
    terms = p.terms
    assert isinstance(terms, Mapping)
    assert set(terms) == {(2, 0), (0, 1), (0, 0)}
    assert terms[(2, 0)] == 3 and (0, 1) in terms and (1, 1) not in terms
    assert sorted(terms.values()) == [-1, 3, 7]
    assert dict(terms.items()) == {(2, 0): 3, (0, 1): -1, (0, 0): 7}
    for missing in [(1, 1), (1,), (-1, 0), (MAX_EXPONENT + 1, 0), "uv"]:
        with pytest.raises(KeyError):
            terms[missing]
    with pytest.raises(TypeError):
        terms[(5, 5)] = 1
    assert list(p.sorted_terms()) == [((0, 0), 7), ((0, 1), -1), ((2, 0), 3)]


def test_equal_polynomials_hash_equal_however_they_are_built():
    u, v = UV.gen("u"), UV.gen("v")
    groups = [
        [u, UV.monomial((1, 0)), poly({(1, 0): 1}), (u + v) - v, u * UV.one, -(-u)],
        [UV.from_int(3), UV.monomial((0, 0), 3), SparsePolynomial.constant(UV.variables, 3),
         poly({(0, 0): 3}), UV.one + UV.one + UV.one, UV.coerce(3)],
        [UV.zero, UV.from_int(0), poly({}), poly({(1, 1): 0}), u - u, UV.monomial((2, 1), 0)],
        [u**2 * v, UV.monomial((2, 1)), poly({(2, 1): 1, (0, 0): 0}), u * v * u],
    ]
    for group in groups:
        for p in group:
            assert p == group[0] and hash(p) == hash(group[0])
        assert len(set(group)) == 1
    assert len({group[0] for group in groups}) == len(groups)


@pytest.mark.parametrize("ring, name", [(INTEGERS, "u"), (UV, "w"), (UV, "t"), (L_RING, "u")])
def test_gen_of_a_name_outside_the_ring_is_unbound(ring, name):
    with pytest.raises(UnboundVariableError):
        ring.gen(name)


IMMUTABLE = {
    "SparsePolynomial": lambda: UV.gen("u"),
    "TruncatedSeries": lambda: TruncatedSeries(UV, [1, UV.gen("v")]),
    "Ring": lambda: Ring(("u", "v")),
    "LambdaStructure": lambda: LambdaStructure("kapranov", INTEGERS),
    "FiniteMap": lambda: FiniteMap(2, 1, [0, 0]),
}


@pytest.mark.parametrize("build", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_setting_any_attribute_raises(build):
    value = build()
    slots = type(value).__slots__
    before = [getattr(value, name) for name in slots]
    for name in (*slots, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert [getattr(value, name) for name in slots] == before
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name", ["Ring", "FiniteMap", "TruncatedSeries"])
def test_equal_values_hash_equal(name):
    value, again = IMMUTABLE[name](), IMMUTABLE[name]()
    assert value == again and hash(value) == hash(again)


@pytest.mark.parametrize("build", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_deleting_any_attribute_raises(build):
    value = build()
    slots = type(value).__slots__
    before = [getattr(value, name) for name in slots]
    for name in (*slots, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)
    assert [getattr(value, name) for name in slots] == before
    assert repr(value) == repr(build())

def count_products(monkeypatch, cls):
    calls = []
    mul = cls.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


def test_power_squares_only_while_bits_of_n_remain(monkeypatch):
    x = UV.gen("u") + UV.gen("v")
    expected = {n: x**n for n in range(17)}
    calls = count_products(monkeypatch, SparsePolynomial)
    # bit_length(n) - 1 squarings and popcount(n) - 1 products into the result
    for n, count in [(0, 0), (1, 0), (2, 1), (3, 2), (2**4, 4), (2**4 - 1, 6), (2**5 - 1, 8)]:
        calls.clear()
        p = x**n
        assert len(calls) == count, n
        if n in expected:
            assert p == expected[n]
    assert x**2 == x * x and x**3 == x * x * x


def test_degree_limit_per_variable():
    u, v = UV.gen("u"), UV.gen("v")
    top = u**MAX_EXPONENT
    assert top.terms == {(MAX_EXPONENT, 0): 1}
    assert str(parse_polynomial("u^2147483647")) == "u^2147483647" == str(top)
    assert MAX_EXPONENT == 2**31 - 1
    assert str(u ** (2**30) * u ** (2**30 - 1)) == "u^2147483647"
    cases = [
        lambda: u ** (MAX_EXPONENT + 1),
        lambda: u ** (2**30) * u ** (2**30),
        lambda: (u + v) * (u**MAX_EXPONENT + v),
        lambda: SparsePolynomial(("u", "v"), {(MAX_EXPONENT + 1, 0): 1}),
        lambda: UV.monomial((0, 2**31), 2),
    ]
    for build, (variable, exponent) in zip(
        cases, [("u", 2**31), ("u", 2**31), ("u", 2**31), ("u", 2**31), ("v", 2**31)]
    ):
        with pytest.raises(DegreeOverflowError) as got:
            build()
        assert (got.value.variable, got.value.exponent) == (variable, exponent)
        assert str(got.value) == (
            f"exponent {exponent} of variable {variable} exceeds the limit 2147483647"
        )
    # the guard bit of one slot never carries into the next variable
    assert (v**MAX_EXPONENT * u**MAX_EXPONENT).terms == {(MAX_EXPONENT, MAX_EXPONENT): 1}
