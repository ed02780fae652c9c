import random

import pytest

from conftest import assert_refuses
from _reference import hand_rolled_hilb_local_surface, substitute
from powerstruct import lambdas, motivic
from powerstruct.lambdas import LambdaStructure, power
from powerstruct.motivic import (
    HODGE_RING,
    MOTIVIC_RING,
    hilb_local_surface,
    hilb_surface,
    hodge_zeta,
    specialize_series,
)
from powerstruct.rings import INTEGERS, MAX_EXPONENT, Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries


def _uv(i, j):
    return SparsePolynomial(HODGE_RING.variables, {(i, j): 1})


def test_hodge_zeta_point():
    z = hodge_zeta(HODGE_RING.one, 4)
    assert all(c == HODGE_RING.one for c in z.coefficients)


def test_hodge_zeta_p1():
    # e = 1 + uv: coefficient of t^k is sum_{i<=k} (uv)^i
    z = hodge_zeta(HODGE_RING.one + _uv(1, 1), 3)
    for k in range(4):
        expected = HODGE_RING.zero
        for i in range(k + 1):
            expected = expected + _uv(i, i)
        assert z.coefficients[k] == expected


def test_hodge_zeta_curve_genus_counts():
    # for e = 1 - g(u+v) + uv with u=v=1 the t^k coefficient counts
    # the symmetric power classes, here just checked against the integer path
    g = 2
    e = HODGE_RING.coerce(SparsePolynomial(("u", "v"), {(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1}))
    z = hodge_zeta(e, 5)
    euler = specialize_series(z, "euler")
    lam = LambdaStructure("kapranov", INTEGERS)
    direct = power(TruncatedSeries.geometric(INTEGERS, 5), 2 - 2 * g, lam)
    assert euler == direct


def _partition_count(k):
    # independent partition-number oracle via direct recursion
    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(1, min(remaining, largest) + 1)
        )

    return count(k, k)


def test_hilb_local_surface_small():
    z = hilb_local_surface(3)
    L = MOTIVIC_RING.gen("L")
    one = MOTIVIC_RING.one
    assert z.coefficients[0] == one
    assert z.coefficients[1] == one
    assert z.coefficients[2] == one + L
    assert z.coefficients[3] == one + L + L * L


def test_hilb_local_surface_partition_numbers():
    # setting L = 1 turns each coefficient into the number of partitions
    z = hilb_local_surface(12)
    for k, coeff in enumerate(z.coefficients):
        total = sum(c for _, c in MOTIVIC_RING.terms(coeff))
        assert total == _partition_count(k)


def test_hilb_local_surface_equals_the_hand_rolled_product():
    for order in range(25):
        z = hilb_local_surface(order)
        assert z == hand_rolled_hilb_local_surface(order)
        assert z.order == order


def test_hilb_surface_point():
    # |X| a point: Hilbert scheme of k points on a 0-dimensional X is trivial,
    # but the formula still has the local punctual factors; sanity-check the
    # leading coefficients for e = 1 instead
    z = hilb_surface(HODGE_RING.one, 4)
    local = hilb_local_surface(4)
    expected = TruncatedSeries(
        HODGE_RING,
        [
            substitute(c, HODGE_RING, {"L": SparsePolynomial(("u", "v"), {(1, 1): 1})})
            for c in local.coefficients
        ],
    )
    assert z == expected


def test_hilb_surface_additive_in_e():
    a = _uv(1, 0)
    b = _uv(0, 1)
    za = hilb_surface(a, 5)
    zb = hilb_surface(b, 5)
    zab = hilb_surface(a + b, 5)
    assert zab == za * zb


def test_specialize_euler():
    z = hodge_zeta(HODGE_RING.one + _uv(1, 1), 4)
    e = specialize_series(z, "euler")
    assert e == TruncatedSeries(INTEGERS, [1, 2, 3, 4, 5])


def test_specialize_hodge_from_l():
    z = hilb_local_surface(4)
    h = specialize_series(z, "hodge_from_L")
    assert h.ring.variables == ("u", "v")
    assert h.coefficients[2] == SparsePolynomial(("u", "v"), {(0, 0): 1, (1, 1): 1})


def test_specialize_unknown():
    z = hilb_local_surface(2)
    with pytest.raises(ValueError):
        specialize_series(z, "rank")
    assert_refuses(lambda: specialize_series(TruncatedSeries(INTEGERS, [1, 1]), "euler"),
                   ValueError, "euler specialization needs a polynomial ring")
    assert_refuses(lambda: specialize_series(hodge_zeta(HODGE_RING.one, 1), "hodge_from_L"),
                   ValueError, "hodge_from_L specializes Z[L], not Z[u,v]")


def _specialization_input(rng, ring):
    """A coefficient with negative entries and exponents up to MAX_EXPONENT;
    one in four is c*x - c*y, which every variable -> 1 sends to 0."""
    def exps():
        return tuple(rng.choice([0, 1, 2, 7, MAX_EXPONENT - 1, MAX_EXPONENT])
                     for _ in ring.variables)
    if rng.random() < 0.25:
        x, y, c = exps(), exps(), rng.choice([-3, -1, 1, 2])
        return SparsePolynomial(ring.variables, {x: c, y: -c} if x != y else {})
    return SparsePolynomial(ring.variables,
                            {exps(): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))})


@pytest.mark.parametrize("variables, target", [
    (("u",), "euler"), (("u", "v"), "euler"), (("a", "b", "c"), "euler"), (("L",), "euler"),
    (("L",), "hodge_from_L"),
], ids=lambda x: ",".join(x) if isinstance(x, tuple) else x)
def test_specialize_series_equals_the_general_substitution(variables, target):
    ring = Ring(variables)
    rng = random.Random(f"specialize {ring.name} {target}")
    if target == "euler":
        out_ring, bindings = INTEGERS, {v: 1 for v in variables}
    else:
        out_ring, bindings = HODGE_RING, {"L": _uv(1, 1)}
    cancelled = 0
    for order in range(25):
        A = TruncatedSeries(ring, [_specialization_input(rng, ring) for _ in range(order + 1)])
        before = [dict(c.terms) for c in A.coefficients]
        image = specialize_series(A, target)
        assert image.ring == out_ring and image.order == order
        for c, d in zip(A.coefficients, image.coefficients):
            assert d == substitute(c, out_ring, bindings)
            cancelled += bool(c) and not d
        assert [dict(c.terms) for c in A.coefficients] == before
    assert cancelled or target == "hodge_from_L"


def test_specialization_commutes_with_power():
    # L -> uv before or after taking a power gives the same series
    rng = random.Random(7)
    lamL = LambdaStructure("poly-product", MOTIVIC_RING)
    lamH = LambdaStructure("poly-product", HODGE_RING)
    uv = SparsePolynomial(("u", "v"), {(1, 1): 1})
    for _ in range(20):
        coeffs = [MOTIVIC_RING.one]
        for _ in range(5):
            coeffs.append(
                SparsePolynomial(
                    ("L",),
                    {(rng.randrange(3),): rng.choice([-1, 1])},
                )
                if rng.random() < 0.6
                else MOTIVIC_RING.zero
            )
        series = TruncatedSeries(MOTIVIC_RING, coeffs)
        m = SparsePolynomial(("L",), {(rng.randrange(2),): rng.choice([-1, 1, 2])})
        powered = power(series, m, lamL)
        after = specialize_series(powered, "hodge_from_L")
        mapped = specialize_series(series, "hodge_from_L")
        m_mapped = substitute(m, HODGE_RING, {"L": uv})
        before = power(mapped, m_mapped, lamH)
        assert after == before


# -- zeta and Hilbert series as one Exp ---------------------------------------

LAM_UV = LambdaStructure("poly-product", HODGE_RING)


def composed_zeta(e, order):
    """(1 - t)^(-e) as the power of the geometric series: its Log, then an Exp."""
    return power(TruncatedSeries.geometric(HODGE_RING, order), HODGE_RING.coerce(e), LAM_UV)


def composed_hilb(e, order):
    """The local series over Z[L], mapped by L -> uv, raised to e by its Log and an Exp."""
    local = specialize_series(hilb_local_surface(order), "hodge_from_L")
    return power(local, HODGE_RING.coerce(e), LAM_UV)


def test_zeta_and_hilbert_series_are_one_exp_each(monkeypatch):
    e = SparsePolynomial(HODGE_RING.variables, {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3})
    expected = {hodge_zeta: composed_zeta(e, 6), hilb_surface: composed_hilb(e, 6)}
    calls = []

    def counting_exp_map(B, lam, order):
        calls.append(order)
        return lambdas.exp_map(B, lam, order)

    def refusing(*args, **kwargs):
        pytest.fail("a zeta or Hilbert series took a Log, a power or a specialization")

    monkeypatch.setattr(motivic, "exp_map", counting_exp_map)
    for module, name in [(lambdas, "log_map"), (lambdas, "power"), (motivic, "log_map"),
                         (motivic, "power"), (motivic, "hilb_local_surface"),
                         (motivic, "specialize_series")]:
        monkeypatch.setattr(module, name, refusing, raising=False)
    for function, series in expected.items():
        calls.clear()
        assert function(e, 6) == series
        assert calls == [6]


def random_hodge_polynomial(rng):
    """Up to 6 terms of degree at most 3 per variable, with coefficients of
    either sign up to 2^40; a zero polynomial about one time in 20."""
    return SparsePolynomial(HODGE_RING.variables, {
        (rng.randint(0, 3), rng.randint(0, 3)): rng.choice([-1, 1]) * rng.choice([1, 2, 3, 7, 24, 2**40])
        for _ in range(0 if rng.random() < 0.05 else rng.randint(1, 6))
    })


def test_zeta_and_hilbert_series_equal_the_composed_route_on_random_exponents():
    rng = random.Random(29)
    for order in range(21):
        for _ in range(4):
            e = random_hodge_polynomial(rng)
            assert hodge_zeta(e, order) == composed_zeta(e, order), (e, order)
            assert hilb_surface(e, order) == composed_hilb(e, order), (e, order)


def outcome(function, e, order):
    try:
        return function(e, order)
    except Exception as error:  # the class and message are compared
        return type(error), str(error)


@pytest.mark.parametrize(
    "e, order",
    [
        # e*(uv)^(k-1) passes the limit in u at k = 4, and e^2 does in zeta
        (_uv(MAX_EXPONENT - 2, 0), 5),
        (SparsePolynomial(("u", "v"), {(0, MAX_EXPONENT - 1): 3, (1, 1): -1}), 4),
        # the order is checked before e
        ("1 + u", -1),
        (SparsePolynomial(("a",), {(1,): 1}), -2),
        # an e from another ring, at order 0 too
        (SparsePolynomial(("a",), {(1,): 1}), 0),
        (SparsePolynomial(("u",), {(1,): 2}), 3),
        (MOTIVIC_RING.gen("L"), 2),
    ],
    ids=["u-overflow", "v-overflow", "str-negative-order", "other-ring-negative-order",
         "other-ring-order-0", "Z[u]", "Z[L]"],
)
def test_zeta_and_hilbert_series_refuse_as_the_composed_route_does(e, order):
    for function, composed in [(hodge_zeta, composed_zeta), (hilb_surface, composed_hilb)]:
        refusal = outcome(composed, e, order)
        assert isinstance(refusal, tuple), (function.__name__, refusal)
        assert outcome(function, e, order) == refusal
