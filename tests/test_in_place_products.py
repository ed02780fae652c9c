"""Log, Exp and power over Z[x...] multiply the lambda factors into one list of
packed term maps in place, by two-term steps (Ring.step_into) or as series
(Ring.multiply_into).  They equal the whole-factor, series-product and
full-order references, take the route the cost rule and the degree bound
pick, raise the same errors near the degree limit, hand out no shared term
map and run no series product where no factor needs one."""

import random

import pytest

from powerstruct import lambdas, rings, series
from powerstruct.lambdas import (
    LAMBDA_KINDS,
    LambdaStructure,
    UnsupportedLambdaError,
    exp_map,
    log_map,
    power,
)
from powerstruct.motivic import (
    HODGE_RING,
    MOTIVIC_RING,
    hilb_local_surface,
    hilb_surface,
    hodge_zeta,
    specialize_series,
)
from powerstruct.parsing import parse_polynomial
from powerstruct.rings import MAX_EXPONENT, DegreeOverflowError, Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries

from _gen import random_element, sparse_element, sparse_unit_series
from _reference import (
    factor_exp,
    factor_log,
    factor_power,
    full_order_decompose,
    full_order_exp,
    full_order_power,
    series_product_decompose,
    series_product_exp,
    series_product_power,
)

U = Ring(("u",))
UV = Ring(("u", "v"))
ABC = Ring(("a", "b", "c"))
# each ring with the highest order of the grid
GRID = [(U, 32), (UV, 32), (ABC, 16)]
# a dense Log over Z[u,v] by the full-order reference takes seconds from about here
FULL_ORDER_LOG_LIMIT = 10


def full_order_checked(order):
    """The orders at which the grid also runs the slow full-order routes."""
    return order <= 16 or order % 8 == 0


def constants_only(kind):
    return kind in ("kapranov", "binomial")


def coefficient(rng, ring, constant):
    """Zero about half the time; else a small constant, or a monomial or a
    short polynomial where the lambda kind takes them."""
    if rng.random() < 0.5:
        return ring.zero
    if constant:
        return ring.from_int(rng.choice([-2, -1, 1, 2, 3]))
    if rng.random() < 0.8:
        return sparse_element(rng, ring, coeff_bound=2)
    return random_element(rng, ring, max_degree=1, max_terms=2, coeff_bound=1)


def exponents(rng, ring, constant):
    """Zero, an integer, and (where the kind takes them) two polynomials."""
    out = [ring.zero, ring.from_int(rng.choice([-3, -1, 2, 3]))]
    if not constant:
        out += [ring.one + sparse_element(rng, ring), random_element(rng, ring, max_degree=1, max_terms=2)]
    return out


def unit_series(rng, ring, order, constant):
    if constant:
        return TruncatedSeries(ring, [1] + [rng.randint(-2, 2) for _ in range(order)])
    return sparse_unit_series(rng, ring, order, nonzero_p=0.3)


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
@pytest.mark.parametrize("ring,top", GRID, ids=[r.name for r, _ in GRID])
def test_log_exp_power_equal_the_series_product_and_full_order_routes(kind, ring, top):
    lam = LambdaStructure(kind, ring)
    constant = constants_only(kind)
    rng = random.Random(f"in place {kind} {ring.name}")
    for order in range(top + 1):
        full = full_order_checked(order)
        B = [coefficient(rng, ring, constant) for _ in range(order)]
        A = exp_map(B, lam, order)
        assert A == series_product_exp(B, lam, order)
        assert A.order == order
        assert log_map(A, lam) == series_product_decompose(A, lam) == B
        if full:
            assert A == full_order_exp(B, lam, order)
            assert full_order_decompose(A, lam) == B
        other = unit_series(rng, ring, order, constant)
        assert log_map(other, lam) == series_product_decompose(other, lam)
        if order <= FULL_ORDER_LOG_LIMIT:
            assert log_map(other, lam) == full_order_decompose(other, lam)
        for m in exponents(rng, ring, constant):
            got = power(A, m, lam)
            assert got == series_product_power(A, m, lam)
            if full:
                assert got == full_order_power(A, m, lam)
            if not m or ring.is_constant(m) or order <= FULL_ORDER_LOG_LIMIT:
                assert power(other, m, lam) == series_product_power(other, m, lam)


@pytest.mark.parametrize("kind", ["kapranov", "binomial"])
def test_integer_only_kinds_refuse_a_polynomial_exponent_as_the_reference_does(kind):
    lam = LambdaStructure(kind, UV)
    u, v = UV.gen("u"), UV.gen("v")
    A = TruncatedSeries(UV, [UV.one, UV.from_int(2), u - v, UV.zero, u])
    B = [UV.from_int(-1), UV.zero, u * v]
    for route, reference in ((lambda: log_map(A, lam), lambda: series_product_decompose(A, lam)),
                             (lambda: exp_map(B, lam, 4), lambda: series_product_exp(B, lam, 4)),
                             (lambda: power(A.truncate(1), u, lam),
                              lambda: series_product_power(A.truncate(1), u, lam))):
        with pytest.raises(UnsupportedLambdaError) as expected:
            reference()
        with pytest.raises(UnsupportedLambdaError) as got:
            route()
        assert str(got.value) == str(expected.value)


HODGE_POLYNOMIALS = ["1 + u*v", "1 + u*v + u^2*v^2", "1 + u^2 + 20*u*v + v^2 + u^2*v^2",
                     "1 - u - v + u*v", "2 - 3*u*v"]


def test_zeta_and_hilbert_series_equal_the_series_product_route():
    lam_l = LambdaStructure("poly-product", MOTIVIC_RING)
    lam = LambdaStructure("poly-product", HODGE_RING)
    for order in range(17):
        local = series_product_exp([MOTIVIC_RING.monomial((i - 1,)) for i in range(1, order + 1)],
                                   lam_l, order)
        assert hilb_local_surface(order) == local
        geometric = TruncatedSeries.geometric(HODGE_RING, order)
        specialized = specialize_series(local, "hodge_from_L")
        for text in HODGE_POLYNOMIALS if order in (0, 1, 5, 12, 16) else HODGE_POLYNOMIALS[:2]:
            e = parse_polynomial(text, HODGE_RING)
            assert hodge_zeta(e, order) == series_product_power(geometric, e, lam)
            assert hilb_surface(e, order) == series_product_power(specialized, e, lam)


# -- two-term steps against whole factors ------------------------------------------

# |p| of a term: steps take |p| = 1 always and |p| <= (N - k) / 2k, so 24 is
# past the cost rule at every order up to 32, and the rest are grouped at low orders
MULTIPLICITIES = [1, 1, 1, 2, 3, 5, 9, 16, 24]
STEP_GRID_ORDERS = list(range(13)) + [16, 20, 24, 32]


def stepped_coefficient(rng, ring, constant):
    """Zero about 60% of the time; else an integer, or 1-2 terms of degree at
    most 1 per variable where the lambda kind takes them, each |p| drawn
    from MULTIPLICITIES."""
    if rng.random() < 0.6:
        return ring.zero
    if constant:
        return ring.from_int(rng.choice([-1, 1]) * rng.choice(MULTIPLICITIES))
    terms = {tuple(rng.randint(0, 1) for _ in ring.variables): rng.choice([-1, 1]) * rng.choice(MULTIPLICITIES)
             for _ in range(rng.randint(1, 2))}
    return SparsePolynomial(ring.variables, terms)


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
@pytest.mark.parametrize("ring", [U, UV, ABC], ids=lambda r: r.name)
def test_steps_and_grouped_factors_equal_the_whole_factor_route(kind, ring):
    lam = LambdaStructure(kind, ring)
    constant = constants_only(kind)
    rng = random.Random(f"steps {kind} {ring.name}")
    for order in STEP_GRID_ORDERS:
        B = [stepped_coefficient(rng, ring, constant) for _ in range(order)]
        A = exp_map(B, lam, order)
        assert A == factor_exp(B, lam, order)
        assert log_map(A, lam) == factor_log(A, lam) == B
        other = unit_series(rng, ring, min(order, 12), constant)
        assert log_map(other, lam) == factor_log(other, lam)
        for m in exponents(rng, ring, constant)[1:]:
            assert power(A, m, lam) == factor_power(A, m, lam)
            assert power(other, m, lam) == factor_power(other, m, lam)


@pytest.fixture
def routes(monkeypatch):
    """The route each factor takes: "step" per two-term step, and
    "lambda_series" then "rescale" per factor built as a series."""
    taken = []
    step, lambda_series, rescale = rings._step_into, lambdas.lambda_series, TruncatedSeries.rescale

    def noting(name, call):
        def noted(*args, **kwargs):
            taken.append(name)
            return call(*args, **kwargs)
        return noted

    monkeypatch.setattr(rings, "_step_into", noting("step", step))
    monkeypatch.setattr(lambdas, "lambda_series", noting("lambda_series", lambda_series))
    monkeypatch.setattr(TruncatedSeries, "rescale", noting("rescale", rescale))
    return taken


def test_the_hilbert_series_of_a_k3_takes_steps(routes):
    e = parse_polynomial("1 + u^2 + v^2 + 20*u*v + u^2*v^2", HODGE_RING)
    H = hilb_surface(e, 16)
    assert "step" in routes and "lambda_series" in routes
    assert H == series_product_power(specialize_series(hilb_local_surface(16), "hodge_from_L"), e,
                                     LambdaStructure("poly-product", HODGE_RING))


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
def test_a_factor_with_2k_past_the_order_is_one_series_factor(kind, routes):
    lam = LambdaStructure(kind, UV)
    u, v = UV.gen("u"), UV.gen("v")
    B = [UV.zero, UV.zero, u - v]  # 1 + (u - v) t^3 at order 5
    A = exp_map(B, lam, 5)
    assert routes == ["lambda_series", "rescale"]
    assert A == factor_exp(B, lam, 5)


# an exponent of 2^(b-1) .. 2^b - 1 counts as 2^b - 1 in the degree bound
INSIDE, OUTSIDE = (1 << 29) - 1, 1 << 29


@pytest.mark.parametrize("ring", [U, UV], ids=lambda r: r.name)
@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
def test_exp_steps_just_inside_the_degree_bound_and_raises_as_the_reference_just_outside(kind, ring, routes):
    lam = LambdaStructure(kind, ring)
    n, sigma = len(ring.variables), lam.sign
    # b_1 = sigma*x, lambda_{b_1}(t) = 1/(1 - x t) at order 4: steps reach
    # x^4, and 4*(2^29 - 1) < 2^31 = MAX_EXPONENT + 1
    inside = [ring.monomial((INSIDE,) + (1,) * (n - 1), sigma)]
    A = exp_map(inside, lam, 4)
    assert routes == ["step"]
    assert A == factor_exp(inside, lam, 4) == series_product_exp(inside, lam, 4)
    del routes[:]
    outside = [ring.monomial((OUTSIDE,) + (1,) * (n - 1), sigma)]
    message = f"exponent {MAX_EXPONENT + 1} of variable u exceeds the limit {MAX_EXPONENT}"
    assert outcome(lambda: factor_exp(outside, lam, 4)) == (DegreeOverflowError, message)
    del routes[:]
    assert outcome(lambda: exp_map(outside, lam, 4)) == (DegreeOverflowError, message)
    assert routes == ["lambda_series"]  # no step: the series route raised
    del routes[:]
    assert exp_map(outside, lam, 3) == factor_exp(outside, lam, 3)  # outside, but no overflow
    assert "step" not in routes


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
def test_log_steps_only_where_the_residual_and_the_factor_fit_the_bound(kind, routes):
    lam = LambdaStructure(kind, UV)
    # A = lambda_{sigma*x}(t) = 1/(1 - x t) at order 4 holds u^(4a), and the
    # peel of b_1 = sigma*x adds up to u^(4a) more.  For a = 2^28 - 1 the
    # bound counts them as 2^30 - 1 and 4*(2^28 - 1); for a = 2^28 as
    # 2^31 - 1 and 4*(2^29 - 1), which is past MAX_EXPONENT.
    for a, stepped in [((1 << 28) - 1, True), (1 << 28, False)]:
        x = UV.monomial((a, 3), lam.sign)
        A = factor_exp([x], lam, 4)
        del routes[:]
        assert log_map(A, lam) == factor_log(A, lam) == [x, UV.zero, UV.zero, UV.zero]
        assert ("step" in routes) == stepped


# -- the degree limit ------------------------------------------------------------


def outcome(compute):
    """The result, or the class and message of the error raised."""
    try:
        return compute()
    except (DegreeOverflowError, UnsupportedLambdaError) as e:
        return type(e), str(e)


def near_limit(rng, ring):
    """1-2 terms whose exponents are small, near 2^30 or near MAX_EXPONENT."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(
            rng.choice([rng.randint(0, 12), (1 << 30) + rng.randint(-8, 8), MAX_EXPONENT - rng.randint(0, 40)])
            for _ in ring.variables
        )
        terms[exps] = rng.choice([-2, -1, 1, 2])
    return SparsePolynomial(ring.variables, terms)


def cancelling_series(ring, kind, s, r, c):
    """A = 1 + 2x t + 2c*y t^2 + w*c*x*y t^3 + 0 t^4 with x = z^s, y = z^(M-s-r)
    for each variable z and r < s.  Its Log peels b_1 = 2x with a factor
    1 - 2x t + w x^2 t^2 + ... (w = 1 for poly-product, 3 for opposite), so the
    t^4 coefficient of the first product is -2x * w*c*x*y + w*x^2 * 2c*y = 0:
    both term pairs exceed the limit by s - r and cancel."""
    n = len(ring.variables)
    w = 1 if kind == "poly-product" else 3
    x = ring.monomial((s,) * n)
    y = ring.monomial((MAX_EXPONENT - s - r,) * n)
    coeffs = [ring.one, ring.from_int(2) * x, ring.from_int(2 * c) * y, ring.from_int(w * c) * x * y, ring.zero]
    return TruncatedSeries(ring, coeffs)


@pytest.mark.parametrize("ring", [U, UV], ids=lambda r: r.name)
def test_errors_near_the_degree_limit_equal_the_series_product_route(ring):
    rng = random.Random(f"degree limit {ring.name}")
    kept = refused = 0
    for _ in range(150):
        lam = LambdaStructure(rng.choice(["poly-product", "opposite"]), ring)
        order = rng.randint(2, 6)
        coeffs = [near_limit(rng, ring) if rng.random() < 0.7 else ring.zero for _ in range(order)]
        A = TruncatedSeries(ring, [ring.one] + coeffs)
        m = near_limit(rng, ring) if rng.random() < 0.5 else ring.from_int(rng.choice([-3, 0, 2]))
        for route, reference in ((lambda: log_map(A, lam), lambda: series_product_decompose(A, lam)),
                                 (lambda: exp_map(coeffs, lam, order), lambda: series_product_exp(coeffs, lam, order)),
                                 (lambda: power(A, m, lam), lambda: series_product_power(A, m, lam))):
            expected = outcome(reference)
            assert outcome(route) == expected, (lam.kind, A, m)
            if isinstance(expected, tuple):
                refused += 1
            else:
                kept += 1
    assert kept > 50 and refused > 150  # both sides of the limit were exercised


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
@pytest.mark.parametrize("ring", [U, UV], ids=lambda r: r.name)
def test_an_overflow_that_cancels_still_raises_as_the_reference_does(ring, kind, monkeypatch):
    lam = LambdaStructure(kind, ring)
    cancelled = []
    check = rings._check_degrees

    def noting_check(variables, terms):
        guards = rings._guards(len(variables))
        over = [c for key, c in terms.items() if key & guards]
        if over and not any(over):
            cancelled.append(terms)
        check(variables, terms)

    monkeypatch.setattr(rings, "_check_degrees", noting_check)
    for s, r, c in [(10, 3, 1), (5, 0, -2), (7, 6, 3)]:
        A = cancelling_series(ring, kind, s, r, c)
        message = f"exponent {MAX_EXPONENT + s - r} of variable u exceeds the limit {MAX_EXPONENT}"
        for route, reference in ((log_map, series_product_decompose),
                                 (lambda A, lam: power(A, ring.from_int(2), lam),
                                  lambda A, lam: series_product_power(A, ring.from_int(2), lam))):
            assert outcome(lambda: reference(A, lam)) == (DegreeOverflowError, message)
            del cancelled[:]
            assert outcome(lambda: route(A, lam)) == (DegreeOverflowError, message)
            assert cancelled  # the in-place route met the cancelled term pairs too
        assert log_map(A.truncate(3), lam) == series_product_decompose(A.truncate(3), lam)


# -- no shared term maps -----------------------------------------------------------


def term_maps(polynomials):
    return [id(p._terms) for p in polynomials]


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
def test_results_share_no_term_map_and_keep_their_values(kind):
    lam = LambdaStructure(kind, UV)
    u, v = UV.gen("u"), UV.gen("v")
    geometric = TruncatedSeries.geometric(UV, 6)  # one polynomial object in every slot
    dense = TruncatedSeries(UV, [UV.one, u, u - v, UV.zero, u * v, v, UV.from_int(2)])
    B = [UV.zero, u, UV.zero, UV.zero, v - u]  # odd degrees stay zero in Exp(B)
    m = UV.one - v

    def results():
        out = []
        for A in (geometric, dense):
            out += log_map(A, lam)
            out += power(A, m, lam).coefficients
        out += exp_map(B, lam, 6).coefficients
        out += exp_map([UV.zero] * 6, lam, 6).coefficients
        return out

    def snapshot(polynomials):
        return [(p, hash(p), dict(p._terms)) for p in polynomials]

    inputs = list(geometric.coefficients) + list(dense.coefficients) + B
    first = results()
    kept = snapshot(inputs + first)
    for _ in range(3):
        outputs = results()
        assert outputs == first
        ids = term_maps(outputs)
        assert len(set(ids)) == len(ids)
        assert not set(ids) & set(term_maps(inputs + first))
    assert snapshot(p for p, _, _ in kept) == kept
    assert log_map(dense, lam) == series_product_decompose(dense, lam)
    assert exp_map(B, lam, 6) == series_product_exp(B, lam, 6)


# -- no series product where no factor needs one ---------------------------------------------


def test_monomial_factors_run_no_series_product(monkeypatch):
    lam = LambdaStructure("poly-product", UV)
    u, v = UV.gen("u"), UV.gen("v")
    B = [u, UV.zero, UV.from_int(-2) * u * v, v * v, UV.from_int(3)]
    geometric_u = TruncatedSeries(UV, [u**j for j in range(7)])  # 1/(1 - u t)
    expected = (hilb_local_surface(16), exp_map(B, lam, 8))

    def no_product(*args):
        pytest.fail("a series product ran")

    monkeypatch.setattr(series, "_nonzero_terms", no_product)
    monkeypatch.setattr(TruncatedSeries, "__mul__", no_product)
    assert (hilb_local_surface(16), exp_map(B, lam, 8)) == expected
    assert log_map(geometric_u, lam) == [u] + [UV.zero] * 5
