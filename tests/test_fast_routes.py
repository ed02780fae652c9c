"""The sparse series arithmetic, the signed-product lambda series and the
short-factor Log/Exp equal the slow reference routes of tests/_reference.py
exactly."""

import random

import pytest

from powerstruct.lambdas import (
    LAMBDA_KINDS,
    LambdaStructure,
    UnsupportedLambdaError,
    decompose_product,
    exp_map,
    lambda_series,
    power,
)
from powerstruct.rings import INTEGERS, Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries

from _gen import (
    random_element,
    random_series,
    random_unit_series,
    sparse_element,
    sparse_unit_series,
)
from _reference import (
    dense_invert,
    dense_mul,
    full_order_decompose,
    full_order_exp,
    full_order_power,
    per_kind_lambda_series,
)

UV = Ring(("u", "v"))
RINGS = {"Z": INTEGERS, "Z[u,v]": UV}


def operands(rng, ring):
    """Unit series of mixed orders: dense, with zero coefficients, and rescaled."""
    n = rng.randint(0, 9)
    k = rng.randint(2, 4)
    return [
        random_unit_series(rng, ring, n, max_degree=1, max_terms=2),
        random_series(rng, ring, rng.randint(0, 9), max_degree=1, max_terms=2),
        sparse_unit_series(rng, ring, rng.randint(0, 12), nonzero_p=0.3),
        sparse_unit_series(rng, ring, n // k).rescale(k, order=n),
        TruncatedSeries.one(ring, n),
    ]


@pytest.mark.parametrize("ring_name", RINGS)
def test_mul_and_invert_equal_the_dense_routes(ring_name):
    ring = RINGS[ring_name]
    rng = random.Random(40)
    for _ in range(25):
        series = operands(rng, ring)
        for a in series:
            if a.is_unit():
                assert a.invert() == dense_invert(a)
            for b in series:
                product = a * b
                assert product == dense_mul(a, b)
                assert product.order == min(a.order, b.order)


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
        assert decompose_product(A, lam) == full_order_decompose(A, lam) == [ring.coerce(b) for b in bs]
        m = ring.one + sparse_element(rng, ring)
        assert power(A, m, lam) == full_order_power(A, m, lam)
        if ring.is_integers:
            A = sparse_unit_series(rng, ring, order, nonzero_p=0.5)
            assert decompose_product(A, lam) == full_order_decompose(A, lam)
            assert power(A, m, lam) == full_order_power(A, m, lam)


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
def test_log_and_power_of_dense_polynomial_series(kind):
    lam = LambdaStructure(kind, UV)
    rng = random.Random(41)
    for order in (3, 6, 9):
        A = random_unit_series(rng, UV, order, max_degree=1, max_terms=2, coeff_bound=1)
        assert decompose_product(A, lam) == full_order_decompose(A, lam)
        m = UV.one + UV.gen(rng.choice(["u", "v"]))
        assert power(A, m, lam) == full_order_power(A, m, lam)


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
