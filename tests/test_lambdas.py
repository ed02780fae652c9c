import random
from fractions import Fraction

import pytest

from powerstruct.lambdas import (
    LambdaStructure,
    UnsupportedLambdaError,
    _one_minus_xt_power,
    charge_profiles,
    exp_map,
    generalized_binomial,
    integer_power_formula,
    lambda_series,
    log_map,
    power,
)
from powerstruct.rings import INTEGERS, InexactDivisionError, Ring, SparsePolynomial
from powerstruct.series import NonUnitError, TruncatedSeries

from conftest import assert_refuses
from _gen import random_element, random_unit_series, sparse_element, sparse_unit_series

UV = Ring(("u", "v"))
U = Ring(("u",))
KAP_Z = LambdaStructure("kapranov", INTEGERS)
BIN_Z = LambdaStructure("binomial", INTEGERS)
PP_UV = LambdaStructure("poly-product", UV)
OPP_UV = LambdaStructure("opposite", UV)


def S(coeffs, ring=INTEGERS):
    return TruncatedSeries(ring, coeffs)


# -- lambda series ----------------------------------------------------------


def test_kapranov_integer():
    assert lambda_series(KAP_Z, 2, 3) == S([1, 2, 3, 4])


def test_poly_product_monomial():
    uv = UV.gen("u") * UV.gen("v")
    assert lambda_series(PP_UV, uv, 2) == S([UV.one, uv, uv * uv], ring=UV)


def test_opposite_single_variable():
    # independent oracle for P = u: expand prod (1 + u^k t)^{p_k} directly
    u = U.gen("u")
    lam = LambdaStructure("opposite", U)
    expanded = TruncatedSeries(U, [U.one, u, U.zero])  # (1 + u t) exactly
    assert lambda_series(lam, u, 2) == expanded


def test_lambda_constant_and_linear_terms():
    rng = random.Random(10)
    for lam, ring in ((KAP_Z, INTEGERS), (BIN_Z, INTEGERS), (PP_UV, UV), (OPP_UV, UV)):
        for _ in range(10):
            a = random_element(rng, ring)
            s = lambda_series(lam, a, 4)
            assert s.coefficients[0] == ring.one
            assert s.coefficients[1] == ring.coerce(a)


def test_lambda_additive_to_multiplicative():
    rng = random.Random(11)
    for lam, ring in ((KAP_Z, INTEGERS), (BIN_Z, INTEGERS), (PP_UV, UV), (OPP_UV, UV)):
        for _ in range(10):
            a = random_element(rng, ring)
            b = random_element(rng, ring)
            lhs = lambda_series(lam, a + b, 6)
            assert lhs == lambda_series(lam, a, 6) * lambda_series(lam, b, 6)


def test_kapranov_rejects_nonconstant():
    lam = LambdaStructure("kapranov", UV)
    with pytest.raises(UnsupportedLambdaError):
        lambda_series(lam, UV.gen("u"), 3)
    with pytest.raises(UnsupportedLambdaError):
        lambda_series(LambdaStructure("binomial", UV), UV.gen("u"), 3)


# -- decomposition, Exp, Log -------------------------------------------------


def test_decompose_single_factor():
    assert log_map(S([1, -1, 0, 0]), KAP_Z) == [-1, 0, 0]


def test_decompose_one_plus_t():
    # (1-t)^{-1} (1-t^2) = 1+t exactly
    assert log_map(S([1, 1, 0, 0, 0]), KAP_Z) == [1, -1, 0, 0]


def test_decompose_geometric():
    assert log_map(TruncatedSeries.geometric(INTEGERS, 4), KAP_Z) == [1, 0, 0, 0]


def test_decompose_reconstructs():
    rng = random.Random(12)
    for _ in range(10):
        a = random_unit_series(rng, INTEGERS, 8)
        bs = log_map(a, KAP_Z)
        assert exp_map(bs, KAP_Z, 8) == a
    for lam in (PP_UV, OPP_UV):
        for _ in range(10):
            a = sparse_unit_series(rng, UV, 8)
            bs = log_map(a, lam)
            assert exp_map(bs, lam, 8) == a


def test_decompose_nonunit():
    with pytest.raises(NonUnitError):
        log_map(S([2, 1]), KAP_Z)


def test_exp_examples():
    assert exp_map([1, 0, 0], KAP_Z, 3) == TruncatedSeries.geometric(INTEGERS, 3)
    assert exp_map([0, 0, 0], KAP_Z, 3) == TruncatedSeries.one(INTEGERS, 3)


def test_exp_is_additive_to_multiplicative():
    rng = random.Random(13)
    for lam, ring in ((KAP_Z, INTEGERS), (PP_UV, UV)):
        for _ in range(10):
            b1 = [random_element(rng, ring) for _ in range(8)]
            b2 = [random_element(rng, ring) for _ in range(8)]
            both = [x + y for x, y in zip(b1, b2)]
            assert exp_map(both, lam, 8) == exp_map(b1, lam, 8) * exp_map(b2, lam, 8)


def test_log_examples_and_round_trip():
    assert log_map(TruncatedSeries.one(INTEGERS, 5), KAP_Z) == [0] * 5
    assert log_map(S([1, 1, 0, 0, 0]), KAP_Z) == [1, -1, 0, 0]
    rng = random.Random(14)
    for _ in range(10):
        a = random_unit_series(rng, INTEGERS, 8)
        b = random_unit_series(rng, INTEGERS, 8)
        la = log_map(a, KAP_Z)
        lb = log_map(b, KAP_Z)
        assert log_map(a * b, KAP_Z) == [x + y for x, y in zip(la, lb)]
        assert exp_map(log_map(a, KAP_Z), KAP_Z, 8) == a
        bs = [random_element(rng, INTEGERS) for _ in range(8)]
        assert log_map(exp_map(bs, KAP_Z, 8), KAP_Z) == bs


# -- power -------------------------------------------------------------------


def test_power_identity_exponent():
    rng = random.Random(15)
    for lam, ring in ((KAP_Z, INTEGERS), (BIN_Z, INTEGERS), (PP_UV, UV), (OPP_UV, UV)):
        a = random_unit_series(rng, ring, 6)
        assert power(a, ring.one, lam) == a
        assert power(a, ring.zero, lam) == TruncatedSeries.one(ring, 6)


def test_power_cube_matches_binomial():
    assert power(S([1, 1, 0, 0]), 3, KAP_Z) == S([1, 3, 3, 1])


def test_power_polynomial_exponent():
    uv = UV.gen("u") * UV.gen("v")
    expected = lambda_series(PP_UV, uv, 2) * lambda_series(PP_UV, -uv, 2).rescale(2)
    got = power(TruncatedSeries.one_plus_t(UV, 2), uv, PP_UV)
    assert got == expected
    assert got.coefficients[2] == uv * uv - uv


def test_poly_product_and_opposite_disagree():
    # regression witness: the two polynomial-ring power structures differ
    u = U.gen("u")
    a = TruncatedSeries.one_plus_t(U, 2)
    pp = power(a, u, LambdaStructure("poly-product", U))
    opp = power(a, u, LambdaStructure("opposite", U))
    assert pp.coefficients[2] == u * u - u
    assert opp.coefficients[2] == U.zero
    assert pp != opp


def test_log_and_power_refuse_a_ring_mismatch_alike():
    for series_ring, lam in [(INTEGERS, PP_UV), (UV, KAP_Z)]:
        A = TruncatedSeries.geometric(series_ring, 3)
        with pytest.raises(ValueError) as from_log:
            log_map(A, lam)
        with pytest.raises(ValueError) as from_power:
            power(A, 2, lam)
        expected = f"series over {series_ring.name}, lambda over {lam.ring.name}"
        for exc in (from_log, from_power):
            assert (exc.type, str(exc.value)) == (ValueError, expected)


# -- integer power formula ----------------------------------------------------


LAMBDAS_REFUSALS = [
    pytest.param(
        lambda: LambdaStructure("sigma", INTEGERS), ValueError,
        "unknown lambda kind 'sigma'; choose from ('kapranov', 'binomial', 'opposite', 'poly-product')",
        id="unknown-kind",
    ),
    pytest.param(lambda: list(charge_profiles(-1)), ValueError, "k must be nonnegative",
                 id="negative-charge"),
    pytest.param(lambda: integer_power_formula(S([2, 1]), 2), NonUnitError,
                 "the integer power formula needs constant term 1", id="non-unit"),
    pytest.param(lambda: integer_power_formula(S([1, 1]), 2.0), TypeError,
                 "the exponent of integer_power_formula must be an int", id="float-exponent"),
    pytest.param(lambda: generalized_binomial(3, -1), ValueError, "s must be nonnegative",
                 id="negative-binomial-index"),
]


@pytest.mark.parametrize("call, error, message", LAMBDAS_REFUSALS)
def test_lambdas_refusals_name_their_cause(call, error, message):
    assert_refuses(call, error, message)


def test_charge_profiles():
    profiles = list(charge_profiles(4))
    assert {tuple(sorted(p.items())) for p in profiles} == {
        ((4, 1),),
        ((1, 1), (3, 1)),
        ((2, 2),),
        ((1, 2), (2, 1)),
        ((1, 4),),
    }
    assert list(charge_profiles(0)) == [{}]


def test_bounded_charge_profiles_are_the_filtered_unbounded_ones():
    part_sets = [None, [], [1], [2, 5], [3, 1, 3], [4, 6, 7], list(range(1, 30, 3)), [0, 2, 40]]
    for k in range(21):
        every = list(charge_profiles(k))
        bounds = [None, *sorted({0, 1, 2, 3, k // 2, max(k - 1, 0), k, k + 1})]
        for max_part in bounds:
            for max_parts in bounds:
                for parts in part_sets:
                    expected = [
                        p for p in every
                        if (max_part is None or max(p, default=0) <= max_part)
                        and (max_parts is None or sum(p.values()) <= max_parts)
                        and (parts is None or set(p) <= set(parts))
                    ]
                    # the largest-part bound is given as a restriction of the parts
                    bounded = parts
                    if max_part is not None:
                        candidates = range(1, k + 1) if parts is None else parts
                        bounded = [p for p in candidates if p <= max_part]
                    got = list(charge_profiles(k, max_parts, parts=bounded))
                    assert got == expected


def test_generalized_binomial():
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(2, 5) == 0
    assert generalized_binomial(-1, 3) == -1
    assert generalized_binomial(-2, 3) == -4


def test_integer_power_formula_examples():
    assert integer_power_formula(S([1, 2, 0, 0]), 3) == S([1, 6, 12, 8])
    assert integer_power_formula(S([1, 1, 0, 0]), -1) == S([1, -1, 1, -1])
    ab = Ring(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    sq = integer_power_formula(TruncatedSeries(ab, [ab.one, a, b]), 2)
    assert sq.coefficients[2] == a * a + ab.from_int(2) * b


def test_integer_power_formula_matches_repeated_multiplication():
    rng = random.Random(16)
    for _ in range(25):
        a = random_unit_series(rng, INTEGERS, 8)
        m = rng.randint(-5, 5)
        assert integer_power_formula(a, m) == a.int_pow(m)


def test_integer_power_formula_stops_at_x_to_the_m_and_at_the_first_zero_power(monkeypatch):
    # a profile with a part i where a_i = 0, or with more than m >= 0 parts,
    # adds 0: the binomial sum stops at the first power X^s of X = A - 1 that
    # is zero, and forms none above X^m
    ring = Ring(("a",))
    a = ring.gen("a")
    sparse = TruncatedSeries(ring, [ring.one] + [ring.zero] * 39 + [a])  # 1 + a*t^40
    sparse_expected = sparse.int_pow(-2)
    rng = random.Random(254)
    dense = TruncatedSeries(
        ring, [ring.one] + [ring.from_int(rng.choice([-2, -1, 1, 2])) * a for _ in range(16)]
    )
    expected = {m: dense.int_pow(m) for m in (0, 1, 2, 3, 5)}

    degrees = []  # the degree in a of every polynomial and every series product

    def degree(p):
        return max((e for (e,) in p.terms), default=0)

    mul, series_mul = SparsePolynomial.__mul__, TruncatedSeries.__mul__

    def recording(self, other):
        product = mul(self, other)
        degrees.append(degree(product))
        return product

    def recording_series(self, other):
        product = series_mul(self, other)
        degrees.append(max(map(degree, product.coefficients), default=0))
        return product

    monkeypatch.setattr(SparsePolynomial, "__mul__", recording)
    monkeypatch.setattr(TruncatedSeries, "__mul__", recording_series)
    assert integer_power_formula(sparse, -2) == sparse_expected
    # X = a*t^40 and X^2 = 0 ends the sum: the series products 1*X and X*X
    # and one weight times a; a sum that ran on to s = 40 would add 38 more
    assert len(degrees) <= 5
    # every a_i is a multiple of a, so X^s has degree s in a: no product
    # above degree m means no power of X above X^m
    for m, want in expected.items():
        degrees.clear()
        assert integer_power_formula(dense, m) == want
        assert max(degrees, default=0) == m


def test_an_inexact_factor_coefficient_raises_a_named_error():
    # (1 - t)^(1/2) has the coefficient -binom(1/2, 1) = -1/2 at t^1, so the
    # division that is exact for integer exponents leaves a remainder
    with pytest.raises(InexactDivisionError, match="leaves the remainder 1/2"):
        _one_minus_xt_power(INTEGERS, (), 1, Fraction(1, 2), 2)
