"""The packed-key polynomial arithmetic, the fused series product, the sparse
series inverse, the direct lambda factors, the lambda series of order <= 1,
the signed-product lambda series, the short-factor Log/Exp, the Newton-identity
Log/Exp over Z, the power over Z by scaled ghost sums and the prefix-grouped
integer power formula equal the slow reference routes of tests/_reference.py
exactly."""

import random

import pytest

from powerstruct import lambdas
from powerstruct.lambdas import (
    LAMBDA_KINDS,
    LambdaStructure,
    UnsupportedLambdaError,
    _one_minus_xt_power,
    exp_map,
    integer_power_formula,
    lambda_series,
    log_map,
    power,
)
from powerstruct.rings import (
    INTEGERS,
    MAX_EXPONENT,
    ArityError,
    DegreeOverflowError,
    InexactDivisionError,
    Ring,
    SparsePolynomial,
)
from powerstruct.series import NonUnitError, TruncatedSeries

from conftest import assert_refuses
from _gen import (
    random_element,
    random_series,
    random_unit_series,
    sparse_element,
    sparse_unit_series,
)
from _reference import (
    TupleKeyedPolynomial,
    dense_invert,
    dense_mul,
    full_order_decompose,
    full_order_exp,
    full_order_power,
    generic_one_minus_xt_power,
    log_exp_integer_power,
    per_kind_lambda_series,
    profile_by_profile_integer_power,
    sparse_mul,
)

UV = Ring(("u", "v"))
RINGS = {"Z": INTEGERS, "Z[u,v]": UV}
SERIES_RINGS = [INTEGERS, UV, Ring(("L",)), Ring(("a", "b", "c"))]


def operands(rng, ring):
    """Series of mixed orders: unit and dense, with zero coefficients, sparse
    in t^k, and the inverse of the first, whose products with it cancel."""
    n = rng.randint(0, 9)
    k = rng.randint(2, 4)
    out = [
        random_unit_series(rng, ring, n, max_degree=1, max_terms=2),
        random_series(rng, ring, rng.randint(0, 9), max_degree=1, max_terms=2),
        sparse_unit_series(rng, ring, rng.randint(0, 12), nonzero_p=0.3),
        sparse_unit_series(rng, ring, n // k).rescale(k, order=n),
        TruncatedSeries.one(ring, n),
    ]
    return out + [out[0].invert()]


@pytest.mark.parametrize("ring", SERIES_RINGS, ids=lambda r: r.name)
def test_mul_and_invert_equal_the_dense_routes(ring):
    rng = random.Random(40)
    for _ in range(25):
        series = operands(rng, ring)
        for a in series:
            if a.is_unit():
                assert a.invert() == dense_invert(a)
            for b in series:
                product = a * b
                assert product == dense_mul(a, b) == sparse_mul(a, b)
                assert product.order == min(a.order, b.order)
        assert series[0] * series[-1] == TruncatedSeries.one(ring, series[0].order)


def test_zero_polynomial_coefficients_are_skipped_exactly():
    u, v = UV.gen("u"), UV.gen("v")
    a = TruncatedSeries(UV, [UV.one, UV.zero, u - u, v, UV.zero])
    b = TruncatedSeries(UV, [UV.one, u, UV.zero, UV.zero, u * v])
    assert a * b == dense_mul(a, b)
    assert a.invert() == dense_invert(a)
    assert (a * b).coefficients[1] == u and (a * b).coefficients[2] == UV.zero


def lambda_exponents(rng, ring):
    """Zero, constants of both signs, and random (mostly multi-term) elements."""
    out = [ring.zero, ring.one, ring.from_int(-1), ring.from_int(rng.randint(2, 5)),
           ring.from_int(-rng.randint(2, 5))]
    out += [random_element(rng, ring, max_degree=2, max_terms=4) for _ in range(4)]
    if not ring.is_integers:
        x = ring.gen(ring.variables[-1])
        out += [ring.one - x, -(x * x) - ring.gen(ring.variables[0]) + ring.from_int(3)]
    return out


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
@pytest.mark.parametrize("ring", [INTEGERS, UV, Ring(("a", "b", "c"))], ids=lambda r: r.name)
def test_lambda_series_equals_the_per_kind_route(kind, ring):
    lam = LambdaStructure(kind, ring)
    rng = random.Random(f"{kind} {ring.name}")
    refused = 0
    for order in range(17):
        for a in lambda_exponents(rng, ring):
            try:
                expected = per_kind_lambda_series(lam, a, order)
            except UnsupportedLambdaError as e:
                with pytest.raises(UnsupportedLambdaError) as got:
                    lambda_series(lam, a, order)
                assert str(got.value) == str(e)
                refused += 1
                continue
            got = lambda_series(lam, a, order)
            assert got == expected
            assert got.order == order
            assert lambda_series(lam, -a, order) * got == TruncatedSeries.one(ring, order)
    integer_only = kind in ("kapranov", "binomial") and not ring.is_integers
    assert bool(refused) == integer_only


def sparse_coefficients(rng, ring, order):
    return [sparse_element(rng, ring, nonzero_p=0.3) for _ in range(order)]


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
@pytest.mark.parametrize("order", [1, 2, 5, 8, 16, 24, 32])
def test_log_exp_power_equal_the_full_order_routes(kind, order):
    # kapranov and binomial take integer exponents, so they run over Z.  Over
    # Z[u,v] the series is Exp of sparse monomials: a dense random series of
    # order 32 makes the full-order reference take minutes.
    ring = UV if kind in ("poly-product", "opposite") else INTEGERS
    lam = LambdaStructure(kind, ring)
    rng = random.Random(1000 * order + LAMBDA_KINDS.index(kind))
    for _ in range(3):
        bs = sparse_coefficients(rng, ring, order)
        A = exp_map(bs, lam, order)
        assert A == full_order_exp(bs, lam, order)
        assert log_map(A, lam) == full_order_decompose(A, lam) == [ring.coerce(b) for b in bs]
        m = ring.one + sparse_element(rng, ring)
        assert power(A, m, lam) == full_order_power(A, m, lam)
        if ring.is_integers:
            A = sparse_unit_series(rng, ring, order, nonzero_p=0.5)
            assert log_map(A, lam) == full_order_decompose(A, lam)
            assert power(A, m, lam) == full_order_power(A, m, lam)


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
def test_log_and_power_of_dense_polynomial_series(kind):
    lam = LambdaStructure(kind, UV)
    rng = random.Random(41)
    for order in (3, 6, 9):
        A = random_unit_series(rng, UV, order, max_degree=1, max_terms=2, coeff_bound=1)
        assert log_map(A, lam) == full_order_decompose(A, lam)
        m = UV.one + UV.gen(rng.choice(["u", "v"]))
        assert power(A, m, lam) == full_order_power(A, m, lam)


X = Ring(("x",))


def to_int(p):
    """The int of a constant of Z[x]."""
    terms = dict(X.terms(p))
    assert set(terms) <= {(0,)}, p
    return terms.get((0,), 0)


def factor_route_log(A, kind):
    """Log over Z by the lambda-factor route: the constants of Z[x] decompose
    as prod lambda_{b_i}(t^i) exactly as the integers do."""
    return [to_int(b) for b in log_map(TruncatedSeries(X, A.coefficients), LambdaStructure(kind, X))]


def factor_route_exp(B, kind, order):
    return [to_int(c) for c in exp_map(B, LambdaStructure(kind, X), order).coefficients]


def factor_route_power(A, m, kind):
    A = TruncatedSeries(X, A.coefficients)
    return [to_int(c) for c in power(A, X.from_int(m), LambdaStructure(kind, X)).coefficients]


def b_sequences(rng, order):
    """B dense, with one nonzero entry, all zero, and longer than the order."""
    single = [0] * order
    if order:
        single[rng.randrange(order)] = rng.choice([-3, -1, 1, 2])
    return [
        [rng.randint(-3, 3) for _ in range(order)],
        single,
        [0] * order,
        [rng.randint(-3, 3) for _ in range(order + rng.randint(1, 3))],
    ]


def assert_exp_equals_both_references(kind, B, order):
    lam = LambdaStructure(kind, INTEGERS)
    got = exp_map(B, lam, order)
    assert got == full_order_exp(B, lam, order), (kind, order, B)
    assert list(got.coefficients) == factor_route_exp(B, kind, order)
    assert log_map(got, lam) == list(B[:order])


def assert_log_and_power_equal_both_references(kind, A, m):
    lam = LambdaStructure(kind, INTEGERS)
    assert log_map(A, lam) == full_order_decompose(A, lam) == factor_route_log(A, kind)
    got = power(A, m, lam)
    assert got == full_order_power(A, m, lam), (kind, A, m)
    assert list(got.coefficients) == factor_route_power(A, m, kind)
    assert got == A.int_pow(m)  # over Z every lambda-structure gives the ordinary power


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_newton_route_over_z_equals_both_references(kind):
    # Every kind of B comes at every order.  A comes as the geometric series,
    # 1 + t and a dense random unit in turn, so the dense A, the costly case
    # for the references, comes at every third order.
    rng = random.Random(f"newton {kind}")
    for order in range(65):
        for B in b_sequences(rng, order):
            assert_exp_equals_both_references(kind, B, order)
        A = [TruncatedSeries.geometric(INTEGERS, order), TruncatedSeries.one_plus_t(INTEGERS, order),
             random_unit_series(rng, INTEGERS, order)][order % 3]
        assert_log_and_power_equal_both_references(kind, A, rng.randint(-7, 7))
    # one case each at orders 128 and 256: A = Exp(B) for a B with four
    # nonzero entries, so the references build four factors
    for order in (128, 256):
        B = [0] * order
        for i in rng.sample(range(1, order), 3) + [0]:
            B[i] = rng.choice([-2, -1, 1, 3])
        assert_exp_equals_both_references(kind, B, order)
        A = exp_map(B, LambdaStructure(kind, INTEGERS), order)
        assert_log_and_power_equal_both_references(kind, A, rng.choice([-7, -3, 2, 5]))


def test_newton_route_over_z_builds_no_lambda_factor(monkeypatch):
    def no_factor(*args):
        pytest.fail("a lambda factor was built over Z")

    monkeypatch.setattr(lambdas, "lambda_series", no_factor)
    A = TruncatedSeries(INTEGERS, [1, 2, -1, 3, 0, 5])
    for kind in LAMBDA_KINDS:
        lam = LambdaStructure(kind, INTEGERS)
        assert exp_map(log_map(A, lam), lam, 5) == A
        assert power(A, -2, lam) == A.int_pow(-2)


def test_a_ghost_sum_not_divisible_by_n_raises():
    # t*C'/C = t forces 2*c_2 = s_1*c_1 + s_2*c_0 = 1: no integer c_2
    with pytest.raises(InexactDivisionError, match="1 / 2 leaves the remainder 1"):
        lambdas._from_ghosts([0, 1, 0])
    assert lambdas._from_ghosts([0, 1, 1]) == [1, 1, 1]  # (1 - t)^-1


def ghost_power_bases(rng, order):
    """A dense unit series, a sparse one, a single term c*t^k, and one with
    coefficients of up to 80 bits."""
    single = [1] + [0] * order
    if order:
        single[rng.randint(1, order)] = rng.choice([-5, -1, 1, 4])
    return [
        random_unit_series(rng, INTEGERS, order),
        sparse_unit_series(rng, INTEGERS, order, nonzero_p=0.15),
        TruncatedSeries(INTEGERS, single),
        TruncatedSeries(INTEGERS, [1] + [rng.randint(-2**80, 2**80) for _ in range(order)]),
    ]


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_power_over_z_equals_the_log_exp_route_and_int_pow(kind):
    # every exponent in -12..12 at every order 0..64, each base in turn
    rng = random.Random(f"ghost power {kind}")
    lam = LambdaStructure(kind, INTEGERS)
    for order in range(65):
        bases = ghost_power_bases(rng, order)
        for m in range(-12, 13):
            A = bases[(order + m) % len(bases)]
            got = power(A, m, lam)
            assert got == log_exp_integer_power(A, m, lam) == A.int_pow(m), (kind, order, m, A)


def test_power_over_z_runs_no_log_or_exp(monkeypatch):
    class Called(Exception):
        pass

    def refuse(*args):
        raise Called

    monkeypatch.setattr(lambdas, "log_map", refuse)
    monkeypatch.setattr(lambdas, "exp_map", refuse)
    A = TruncatedSeries(INTEGERS, [1, 2, -1, 3, 0, 5])
    for kind in LAMBDA_KINDS:
        for m in (-3, 0, 1, 4):
            assert power(A, m, LambdaStructure(kind, INTEGERS)) == A.int_pow(m)
    # the patch is seen: over Z[u,v] power still takes Log and Exp
    with pytest.raises(Called):
        power(TruncatedSeries(UV, [1, UV.gen("u")]), 2, LambdaStructure("poly-product", UV))


def test_power_over_z_raises_as_the_log_exp_route_does():
    u = UV.gen("u")
    unit = TruncatedSeries(INTEGERS, [1, 2, 3])
    non_unit = TruncatedSeries(INTEGERS, [2, 1, 0])
    non_unit_error = NonUnitError, "only series with constant term 1 decompose"
    mismatch = ValueError, "series over Z[u,v], lambda over Z"
    not_in_z = ArityError, f"{u!r} is not an element of Z"
    no_bool = TypeError, "bool is not a ring element"
    # the exponent is checked first, then the ring, then the constant term
    cases = [
        (non_unit, 3, non_unit_error),
        (TruncatedSeries(INTEGERS, [0, 1]), -1, non_unit_error),
        (TruncatedSeries(UV, [1, u]), 3, mismatch),
        (TruncatedSeries(UV, [2, u]), 3, mismatch),
        (unit, u, not_in_z),
        (non_unit, u, not_in_z),
        (unit, True, no_bool),
        (unit, False, no_bool),
        (TruncatedSeries(UV, [2, u]), True, no_bool),
    ]
    for kind in LAMBDA_KINDS:
        lam = LambdaStructure(kind, INTEGERS)
        for A, m, (error, message) in cases:
            assert_refuses(lambda: power(A, m, lam), error, message)
            assert_refuses(lambda: log_exp_integer_power(A, m, lam), error, message)


def formula_bases(rng, ring, order):
    """Unit series whose a_i are all positive, all nonzero of mixed signs,
    mostly zero, and random (zero, multi-term or of either sign)."""

    def nonzero(signs):
        c = rng.randint(1, 3) * rng.choice(signs)
        return c if ring.is_integers else ring.monomial((rng.randint(0, 1), rng.randint(0, 1)), c)

    return [
        TruncatedSeries(ring, [1] + [nonzero([1]) for _ in range(order)]),
        TruncatedSeries(ring, [1] + [nonzero([1, -1]) for _ in range(order)]),
        sparse_unit_series(rng, ring, order, nonzero_p=0.25),
        random_unit_series(rng, ring, order, max_degree=1, max_terms=2, coeff_bound=2),
    ]


@pytest.mark.parametrize("ring_name", RINGS)
def test_integer_power_formula_equals_the_profile_by_profile_route(ring_name):
    ring = RINGS[ring_name]
    rng = random.Random(f"formula {ring_name}")
    for order in range(17):
        for m in range(-7, 8):  # m = 0, and m > order for every order below 7
            for A in formula_bases(rng, ring, order):
                got = integer_power_formula(A, m)
                assert got == profile_by_profile_integer_power(A, m), (order, m, A)
                assert got.order == order
    # an exponent far above the order: every profile has at most `order` parts
    A = formula_bases(rng, ring, 5)[1]
    assert integer_power_formula(A, 40) == profile_by_profile_integer_power(A, 40)


@pytest.mark.parametrize("m", [-3, 5])
def test_integer_power_formula_at_order_64(m):
    rng = random.Random(64 + m)
    for A in formula_bases(rng, INTEGERS, 64)[:3]:
        assert integer_power_formula(A, m) == A.int_pow(m)


def test_rescale_to_a_target_order():
    a = TruncatedSeries(INTEGERS, [1, 2, 3])  # k * order = 6 for k = 2
    assert a.rescale(2, order=4) == TruncatedSeries(INTEGERS, [1, 0, 2, 0, 3])
    assert a.rescale(2, order=6) == TruncatedSeries(INTEGERS, [1, 0, 2, 0, 3, 0, 0])
    assert a.rescale(2, order=9) == TruncatedSeries(INTEGERS, [1, 0, 2, 0, 3, 0, 0, 0, 0, 0])
    assert a.rescale(2, order=0) == TruncatedSeries(INTEGERS, [1])
    assert a.rescale(3) == a.rescale(3, order=a.order) == TruncatedSeries(INTEGERS, [1, 0, 0])
    with pytest.raises(ValueError):
        a.rescale(2, order=-1)


def test_bool_of_polynomials():
    u = UV.gen("u")
    assert not UV.zero
    assert not (u - u)
    assert not SparsePolynomial(("u", "v"), {(1, 0): 0})
    assert u and UV.one and -u
    assert SparsePolynomial.constant(("u", "v"), -3)


# -- packed monomial keys against the tuple-keyed reference ------------------

NEAR_LIMIT = (MAX_EXPONENT // 2 - 2, MAX_EXPONENT // 2 + 1, MAX_EXPONENT - 1, MAX_EXPONENT)


def packed_operands(rng, variables):
    """Zero, constants, monomials, and general polynomials whose exponents
    are small or near the degree limit."""
    arity = len(variables)

    def exps(big):
        return tuple(
            rng.choice(NEAR_LIMIT) if big and rng.random() < 0.5 else rng.randint(0, 3)
            for _ in range(arity)
        )

    def poly(n_terms, big):
        return SparsePolynomial(
            variables, {exps(big): rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(n_terms)}
        )

    out = [
        SparsePolynomial(variables, {}),
        SparsePolynomial.constant(variables, rng.randint(2, 9)),
        SparsePolynomial.constant(variables, 1),
        SparsePolynomial.constant(variables, -1),
    ]
    for big in (False, True):
        out += [poly(1, big), poly(1, big), poly(rng.randint(2, 5), big)]
    general = poly(4, False)
    out += [general, -general, general + poly(1, False)]  # a - a cancels to zero
    return out


def reference(p):
    return TupleKeyedPolynomial(p.variables, dict(p.terms.items()))


def same_or_refused(compute, expected):
    """`compute()` equals the reference result, or raises DegreeOverflowError
    exactly when the reference holds an exponent above the limit."""
    if any(e > MAX_EXPONENT for exps in expected.terms for e in exps):
        with pytest.raises(DegreeOverflowError):
            compute()
        return 0
    got = compute()
    assert dict(got.terms.items()) == expected.terms
    assert len(got.terms) == len(expected.terms)
    assert sorted(got.terms.values()) == sorted(expected.terms.values())
    return 1


@pytest.mark.parametrize("variables", [("u",), ("u", "v"), ("a", "b", "c")], ids=len)
def test_packed_arithmetic_equals_the_tuple_keyed_reference(variables):
    rng = random.Random(f"packed {variables}")
    kept = refused = 0
    for _ in range(6):
        polys = packed_operands(rng, variables)
        for a in polys:
            ra = reference(a)
            assert dict((-a).terms.items()) == (-ra).terms
            for n in range(4):
                kept_now = same_or_refused(lambda: a**n, ra**n)
                kept, refused = kept + kept_now, refused + 1 - kept_now
            for b in polys:
                rb = reference(b)
                same_or_refused(lambda: a + b, ra + rb)
                same_or_refused(lambda: a - b, ra - rb)
                kept_now = same_or_refused(lambda: a * b, ra * rb)
                kept, refused = kept + kept_now, refused + 1 - kept_now
            assert not (a - a) and (a - a).terms == {}
    assert kept and refused  # both sides of the degree limit were exercised


@pytest.mark.parametrize("variables", [("u",), ("u", "v"), ("a", "b", "c")], ids=len)
def test_series_products_near_the_degree_limit_equal_the_sparse_reference(variables):
    """A fused product equals the coefficient-pair reference, or raises
    DegreeOverflowError exactly where one of the reference's pair products does."""
    rng = random.Random(f"series near limit {variables}")
    ring = Ring(variables)
    kept = refused = 0
    for _ in range(40):
        polys = packed_operands(rng, variables)
        a, b = (TruncatedSeries(ring, [ring.one] + rng.sample(polys, 3)) for _ in range(2))
        try:
            expected = sparse_mul(a, b)
        except DegreeOverflowError:
            with pytest.raises(DegreeOverflowError):
                a * b
            refused += 1
            continue
        assert a * b == expected
        kept += 1
    assert kept and refused


def test_a_product_whose_overflowing_monomials_cancel_still_raises():
    ring = Ring(("u",))
    M = MAX_EXPONENT
    a = TruncatedSeries(ring, [ring.one, ring.monomial((M - 1,)), ring.monomial((M,)), ring.zero])
    b = TruncatedSeries(ring, [ring.one, ring.gen("u"), ring.monomial((2,), -1), ring.zero])
    # t^3: u^(M-1) * -u^2 + u^M * u = 0, but both pair products exceed the limit
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DegreeOverflowError) as got:
            x * y
        assert (got.value.variable, got.value.exponent) == ("u", M + 1)
        with pytest.raises(DegreeOverflowError):
            sparse_mul(x, y)
        assert x.truncate(2) * y == sparse_mul(x.truncate(2), y)


@pytest.mark.parametrize("ring", [INTEGERS, UV, Ring(("a", "b", "c"))], ids=lambda r: r.name)
def test_lambda_series_of_order_at_most_one_builds_no_factor(ring, monkeypatch):
    def no_factor(*args):
        pytest.fail("a lambda factor was built for order <= 1")

    monkeypatch.setattr(lambdas, "_one_minus_xt_power", no_factor)
    rng = random.Random(f"order <= 1 {ring.name}")
    for kind in LAMBDA_KINDS:
        lam = LambdaStructure(kind, ring)
        for a in lambda_exponents(rng, ring):
            for order in (0, 1):
                if kind in ("kapranov", "binomial") and not ring.is_constant(a):
                    with pytest.raises(UnsupportedLambdaError) as got:
                        lambda_series(lam, a, order)
                    assert str(got.value) == (
                        f"{kind} lambda is defined for integer exponents only; "
                        f"got {ring.format_element(a)} (use poly-product)"
                    )
                    continue
                got = lambda_series(lam, a, order)
                assert got == per_kind_lambda_series(lam, a, order)
                assert got.coefficients == (ring.one, a)[: order + 1]
        with pytest.raises(ValueError, match="order must be nonnegative"):
            lambda_series(lam, ring.one, -1)


@pytest.mark.parametrize("ring", [INTEGERS, Ring(("u",)), UV, Ring(("a", "b", "c"))], ids=lambda r: r.name)
def test_direct_lambda_factor_equals_the_generic_route(ring):
    rng = random.Random(f"factor {ring.name}")
    for _ in range(120):
        exps = tuple(rng.randint(0, 3) for _ in ring.variables)
        c = rng.choice([1, -1, 2, -3])
        e = rng.randint(-6, 6)
        order = rng.randint(0, 9)
        expected = generic_one_minus_xt_power(ring, ring.monomial(exps, c), e, order)
        assert _one_minus_xt_power(ring, exps, c, e, order) == expected
    if ring.is_integers:
        return
    # near the degree limit: x^order just fits, and x^(order+1) is refused
    # unless its binomial coefficient vanishes
    top = (MAX_EXPONENT // 3,) + (0,) * (len(ring.variables) - 1)
    x = ring.monomial(top, -1)
    assert _one_minus_xt_power(ring, top, -1, -2, 3) == generic_one_minus_xt_power(ring, x, -2, 3)
    with pytest.raises(DegreeOverflowError):
        _one_minus_xt_power(ring, top, 1, -2, 4)
    half = (0,) * (len(ring.variables) - 1) + (2**30,)
    with pytest.raises(DegreeOverflowError) as got:
        _one_minus_xt_power(ring, half, 1, -1, 2)  # x^2 has exponent 2^31
    assert (got.value.variable, got.value.exponent) == (ring.variables[-1], 2**31)
    below = (0,) * (len(ring.variables) - 1) + (2**30 - 1,)
    x = ring.monomial(below)
    assert _one_minus_xt_power(ring, below, 1, -1, 2) == generic_one_minus_xt_power(ring, x, -1, 2)
    assert _one_minus_xt_power(ring, top, 1, 3, 4).coefficients[4] == ring.zero


def assert_ring_elements(series):
    ring = series.ring
    for c in series.coefficients:
        if ring.is_integers:
            assert type(c) is int
        else:
            assert type(c) is SparsePolynomial and c.variables == ring.variables


@pytest.mark.parametrize("ring", [INTEGERS, Ring(("u",)), UV, Ring(("a", "b", "c"))], ids=lambda r: r.name)
def test_arithmetic_results_hold_elements_of_the_series_ring(ring):
    rng = random.Random(f"elements {ring.name}")
    for order in range(6):
        for build in (TruncatedSeries.one, TruncatedSeries.zero, TruncatedSeries.geometric,
                      TruncatedSeries.one_plus_t):
            assert_ring_elements(build(ring, order))
        a = random_unit_series(rng, ring, order)
        b = random_series(rng, ring, order)
        for result in (a * b, a * a, a.invert(), a.rescale(2), a.rescale(3, order=order + 4),
                       a.int_pow(3), a.int_pow(-2)):
            assert_ring_elements(result)
        for kind in LAMBDA_KINDS:
            lam = LambdaStructure(kind, ring)
            for x in lambda_exponents(rng, ring):
                try:
                    assert_ring_elements(lambda_series(lam, x, order))
                except UnsupportedLambdaError:
                    assert not ring.is_constant(x)
