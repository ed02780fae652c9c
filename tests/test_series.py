import random

import pytest

from powerstruct.rings import INTEGERS, Ring
from powerstruct.series import NonUnitError, RingMismatchError, TruncatedSeries

from conftest import assert_refuses
from _gen import random_series, random_unit_series

UV = Ring(("u", "v"))


def S(coeffs, ring=INTEGERS):
    return TruncatedSeries(ring, coeffs)


def test_product_difference_of_squares():
    assert S([1, 1, 0, 0]) * S([1, -1, 0, 0]) == S([1, 0, -1, 0])


def test_an_empty_iterable_is_refused_as_an_empty_list_is():
    for empty in ([], (), iter([]), (c for c in [1] if c > 1)):
        assert_refuses(lambda: TruncatedSeries(INTEGERS, empty), ValueError,
                       "a truncated series needs at least the t^0 coefficient")
    assert TruncatedSeries(UV, iter([1, UV.gen("u")])) == S([1, UV.gen("u")], UV)


def test_additive_identity():
    rng = random.Random(2)
    a = random_series(rng, INTEGERS, 5)
    assert a + TruncatedSeries.zero(INTEGERS, 5) == a


@pytest.mark.parametrize(
    "build",
    [
        lambda order: TruncatedSeries.one(INTEGERS, order),
        lambda order: TruncatedSeries.zero(UV, order),
        lambda order: TruncatedSeries.geometric(INTEGERS, order),
        lambda order: TruncatedSeries.one_plus_t(UV, order),
        lambda order: S([1, 2, 3]).truncate(order),
    ],
    ids=["one", "zero", "geometric", "one_plus_t", "truncate"],
)
def test_negative_order_is_refused(build):
    assert build(0).order == 0
    for order in (-1, -2):
        with pytest.raises(ValueError, match=f"^order must be nonnegative, got {order}$"):
            build(order)


SERIES_REFUSALS = [
    pytest.param(lambda: TruncatedSeries(INTEGERS, []), ValueError,
                 "a truncated series needs at least the t^0 coefficient", id="no-coefficients"),
    pytest.param(lambda: S([1, 1]) * 1, TypeError, "expected TruncatedSeries, got int",
                 id="times-an-int"),
    pytest.param(lambda: S([1, 1]).rescale(0), ValueError, "rescale factor must be >= 1, got 0",
                 id="rescale-by-0"),
    pytest.param(lambda: S([1, 1]).eq_mod(S([1, 1]), -1), ValueError, "k must be nonnegative",
                 id="negative-eq-mod"),
    pytest.param(lambda: S([1, 1]).eq_mod(S([1, 1]), 3), ValueError, "k=3 exceeds the stored order",
                 id="eq-mod-past-the-order"),
    pytest.param(lambda: S([1, 1]).eq_mod(S([1, 1], Ring(("u",))), 1), RingMismatchError,
                 "series over Z and Z[u]", id="eq-mod-across-rings"),
    pytest.param(lambda: S([1, 1]).eq_mod(5, 1), TypeError, "expected TruncatedSeries, got int",
                 id="eq-mod-an-int"),
]


@pytest.mark.parametrize("call, error, message", SERIES_REFUSALS)
def test_series_refusals_name_their_cause(call, error, message):
    assert_refuses(call, error, message)


def test_hand_convolution():
    assert S([1, 1, 1]) * S([1, 1, 0]) == S([1, 2, 2])


def test_mixed_orders_truncate_to_minimum():
    assert (S([1, 1, 1, 1]) * S([1, 1])).order == 1


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        S([1, 1]) * S([1, 1], ring=UV)


def test_invert_geometric():
    assert S([1, -1, 0, 0]).invert() == S([1, 1, 1, 1])
    assert S([1, 1, 0, 0]).invert() == S([1, -1, 1, -1])


def test_invert_nonunit():
    with pytest.raises(NonUnitError):
        S([2, 1]).invert()


def test_invert_involution():
    rng = random.Random(3)
    for _ in range(20):
        a = random_unit_series(rng, INTEGERS, 8)
        inv = a.invert()
        assert a * inv == TruncatedSeries.one(INTEGERS, 8)
        assert inv.invert() == a


def test_rescale():
    assert S([1, 1, 0, 0, 0, 0]).rescale(2) == S([1, 0, 1, 0, 0, 0])
    assert S([1, 1, 1, 0, 0, 0, 0]).rescale(3) == S([1, 0, 0, 1, 0, 0, 1])
    rng = random.Random(4)
    a = random_series(rng, INTEGERS, 6)
    assert a.rescale(1) == a


def test_int_pow_examples():
    assert S([1, 1, 0, 0]).int_pow(3) == S([1, 3, 3, 1])
    assert S([1, 5, -2]).int_pow(0) == TruncatedSeries.one(INTEGERS, 2)
    assert S([1, -1, 0, 0]).int_pow(-2) == S([1, 2, 3, 4])


def test_int_pow_additive_in_exponent():
    rng = random.Random(5)
    for _ in range(15):
        a = random_unit_series(rng, INTEGERS, 8)
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert a.int_pow(m + n) == a.int_pow(m) * a.int_pow(n)


def test_mul_commutative_associative():
    rng = random.Random(6)
    for _ in range(20):
        a = random_series(rng, INTEGERS, 7)
        b = random_series(rng, INTEGERS, 7)
        c = random_series(rng, INTEGERS, 7)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_rescale_distributes_over_mul():
    rng = random.Random(8)
    for _ in range(15):
        a = random_series(rng, UV, 6, max_degree=1, coeff_bound=2)
        b = random_series(rng, UV, 6, max_degree=1, coeff_bound=2)
        k = rng.randint(1, 3)
        assert (a * b).rescale(k) == a.rescale(k) * b.rescale(k)


def test_eq_mod():
    assert S([1, 1, 0, 5]).eq_mod(S([1, 1, 0, 0]), 3)
    assert not S([1, 1]).eq_mod(S([1, 2]), 2)
    rng = random.Random(9)
    a = random_series(rng, INTEGERS, 6)
    for k in range(7):
        assert a.eq_mod(a, k)


def test_int_pow_squares_only_while_bits_of_n_remain(monkeypatch):
    a = S([1, 2, -1, 3, 0, 1])
    expected = {n: a.int_pow(n) for n in range(-9, 17)}
    calls = []
    mul = TruncatedSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    # bit_length(|n|) - 1 squarings and popcount(|n|) - 1 products into the result
    for n, count in [(0, 0), (1, 0), (2, 1), (3, 2), (2**3, 3), (2**4, 4), (2**4 - 1, 6),
                     (-1, 0), (-2**3, 3), (-(2**3 - 1), 4)]:
        calls.clear()
        assert a.int_pow(n) == expected[n]
        assert len(calls) == count, n
    one = product = TruncatedSeries.one(INTEGERS, a.order)
    for n in range(17):
        assert expected[n] == product
        if n <= 9:
            assert mul(expected[-n], product) == one
        product = mul(product, a)
