"""The product and step kernels update the caller's term maps in place.  They
equal the rebuild kernels kept in the tests, which give every degree they
reach a new map; no route over Z[x...] changes a term map of its input or
hands out two polynomials that share one; and a degree overflow is named by
the smallest packed key with a set guard bit, whatever order a map holds its
keys in."""

import random

import pytest

from powerstruct.lambdas import (
    LAMBDA_KINDS,
    LambdaStructure,
    exp_map,
    integer_power_formula,
    lambda_series,
    log_map,
    power,
)
from powerstruct.motivic import HODGE_RING, hilb_surface, hodge_zeta, specialize_series
from powerstruct.parsing import parse_polynomial
from powerstruct.rings import (
    MAX_EXPONENT,
    DegreeOverflowError,
    Ring,
    SparsePolynomial,
    _check_degrees,
    _multiply_into,
    _step_into,
)
from powerstruct.series import TruncatedSeries

from _reference import (
    convolve_mul,
    dense_invert,
    dense_mul,
    hand_rolled_hilb_local_surface,
    per_kind_lambda_series,
    profile_by_profile_integer_power,
    rebuild_multiply_into,
    rebuild_step_into,
    series_product_decompose,
    series_product_exp,
    series_product_power,
)
from test_in_place_products import cancelling_series
from test_products import HALF, cancelling_pair

U = Ring(("u",))
UV = Ring(("u", "v"))
ABC = Ring(("a", "b", "c"))
RINGS = [U, UV, ABC]


def overflow(compute):
    """None, or the class, variable and exponent of the overflow raised."""
    try:
        compute()
    except DegreeOverflowError as e:
        return type(e), e.variable, e.exponent
    return None


# -- the in-place kernels against the rebuild kernels -------------------------------


def exponent(rng, near_limit):
    """0 or 1, so that term pairs collide and cancel, or, where near_limit,
    half the time near 2^30 or near MAX_EXPONENT."""
    if near_limit and rng.random() < 0.5:
        return rng.choice([HALF + rng.randint(-3, 3), MAX_EXPONENT - rng.randint(0, 3)])
    return rng.randint(0, 1)


def polynomial(rng, ring, near_limit, zero_p):
    """Zero with probability zero_p, else 1-4 terms with coefficients -2..2."""
    if rng.random() < zero_p:
        return ring.zero
    terms = {tuple(exponent(rng, near_limit) for _ in ring.variables): rng.choice([-2, -1, 1, 2])
             for _ in range(rng.randint(1, 4))}
    return SparsePolynomial(ring.variables, terms)


def owned_maps(rng, ring, n, near_limit):
    """N + 1 term maps, each its own, about a third of them empty."""
    return [dict(polynomial(rng, ring, near_limit, 0.3)._terms) for _ in range(n + 1)]


def cancelled_terms(before, after, degrees):
    """Whether a term held before at one of the degrees is gone after."""
    return any(key not in after[d] for d in degrees for key in before[d])


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_the_in_place_product_kernel_equals_the_rebuild_kernel(ring):
    rng = random.Random(f"product kernel {ring.name}")
    variables = ring.variables
    kept = refused = cancelled = 0
    for n in range(9):
        for _ in range(10):
            near_limit = rng.random() < 0.3
            sums = owned_maps(rng, ring, n, near_limit)
            for unit in (True, False):
                first = ring.one if unit else polynomial(rng, ring, near_limit, 0.3)
                factor = [first] + [polynomial(rng, ring, near_limit, 0.4)
                                    for _ in range(rng.randint(0, n))]
                for low in range(n + 1):
                    got, expected = [dict(m) for m in sums], [dict(m) for m in sums]
                    ids = [id(m) for m in got]
                    outcome = overflow(lambda: _multiply_into(variables, got, factor, low))
                    assert outcome == overflow(
                        lambda: rebuild_multiply_into(variables, expected, factor, low))
                    if outcome:
                        refused += 1
                        continue
                    kept += 1
                    assert got == expected
                    assert all(all(m.values()) for m in got)  # no zero coefficient is kept
                    assert got[:low] == sums[:low]
                    if unit:
                        assert [id(m) for m in got] == ids  # every map updated in place
                        cancelled += cancelled_terms(sums, got, range(low, n + 1))
    assert kept > 500 and refused > 100 and cancelled > 40


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_the_in_place_step_kernel_equals_the_rebuild_kernel(ring):
    rng = random.Random(f"step kernel {ring.name}")
    steps = cancelled = 0
    for n in range(1, 13):
        for _ in range(6):
            near_limit = rng.random() < 0.3
            sums = owned_maps(rng, ring, n, near_limit)
            if rng.random() < 0.5:
                sums[0] = {0: 1}  # a unit series, as Log and Exp step
            monomial = ring.monomial(tuple(exponent(rng, near_limit) for _ in ring.variables))
            (key,) = monomial._terms
            c = rng.choice([-2, -1, 1, 1, 2])
            for k in range(1, n + 1):
                for ascending in (True, False):
                    got, expected = [dict(m) for m in sums], [dict(m) for m in sums]
                    ids = [id(m) for m in got]
                    _step_into(got, key, c, k, ascending)
                    rebuild_step_into(expected, key, c, k, ascending)
                    assert got == expected, (n, k, ascending)
                    assert all(all(m.values()) for m in got)
                    assert [id(m) for m in got] == ids
                    steps += 1
                    cancelled += cancelled_terms(sums, got, range(k, n + 1))
    assert steps > 500 and cancelled > 50


# -- no input is changed and no output shares a map ----------------------------------


def polynomials(result):
    """The polynomials a route returned: a series' coefficients, a list or one."""
    if isinstance(result, TruncatedSeries):
        return list(result.coefficients)
    if isinstance(result, list):
        return result
    return [result]


def maps(elements):
    """Each polynomial's term map, by identity and by its items in order."""
    return [(id(p._terms), list(p._terms.items())) for p in elements]


def routes():
    """(name, route, reference, inputs) for every route over Z[x...]."""
    u, v = UV.gen("u"), UV.gen("v")
    one, two = UV.one, UV.from_int(2)
    geometric = TruncatedSeries.geometric(UV, 6)  # one polynomial object in every slot
    # b_1 = u has the coefficient 1, so Log peels it by a two-term step
    A = TruncatedSeries(UV, [one, u, u - v, UV.zero, u * v, -v, two])
    B = TruncatedSeries(UV, [two + u, v, UV.zero, u * v - one, u, v * v, -u])
    bs = [u, UV.zero, v - u, two, UV.zero, u * v]
    p, q = u + v + one, u * v - u
    m = one - v
    e = parse_polynomial("1 + u^2 + v^2 + 20*u*v + u^2*v^2", HODGE_RING)
    out = [
        ("A * B", lambda: A * B, lambda: convolve_mul(A, B), [A, B]),
        ("B * A", lambda: B * A, lambda: convolve_mul(B, A), [A, B]),
        ("G * A", lambda: geometric * A, lambda: convolve_mul(geometric, A), [geometric, A]),
        ("A * G", lambda: A * geometric, lambda: convolve_mul(A, geometric), [geometric, A]),
        ("A * A", lambda: A * A, lambda: convolve_mul(A, A), [A]),
        ("invert", lambda: A.invert(), lambda: dense_invert(A), [A]),
        ("invert G", lambda: geometric.invert(), lambda: dense_invert(geometric), [geometric]),
        ("int_pow", lambda: A.int_pow(3), lambda: dense_mul(dense_mul(A, A), A), [A]),
        ("int_pow G", lambda: geometric.int_pow(-2),
         lambda: dense_invert(dense_mul(geometric, geometric)), [geometric]),
        ("formula", lambda: integer_power_formula(A, 3),
         lambda: profile_by_profile_integer_power(A, 3), [A]),
        ("formula G", lambda: integer_power_formula(geometric, -2),
         lambda: profile_by_profile_integer_power(geometric, -2), [geometric]),
        ("p * q", lambda: p * q,
         lambda: convolve_mul(TruncatedSeries(UV, [p]), TruncatedSeries(UV, [q])).coefficients[0],
         [p, q]),
        ("p ** 3", lambda: p**3, lambda: convolve_mul(
            convolve_mul(TruncatedSeries(UV, [p]), TruncatedSeries(UV, [p])),
            TruncatedSeries(UV, [p])).coefficients[0], [p]),
        ("hodge_zeta", lambda: hodge_zeta(e, 6),
         lambda: series_product_power(TruncatedSeries.geometric(UV, 6), e,
                                      LambdaStructure("poly-product", UV)), [e]),
        ("hilb_surface", lambda: hilb_surface(e, 6),
         lambda: series_product_power(
             specialize_series(hand_rolled_hilb_local_surface(6), "hodge_from_L"), e,
             LambdaStructure("poly-product", UV)), [e]),
    ]
    # the kinds for integer exponents only take integer data
    C = TruncatedSeries(UV, [one, two, -one, UV.zero, UV.from_int(3), one, -two])
    int_bs = [two, UV.zero, -one, UV.from_int(3), UV.zero, one]
    for kind in LAMBDA_KINDS:
        lam = LambdaStructure(kind, UV)
        x, b, S, n = (two, int_bs, C, -two) if lam.integers_only else (p, bs, A, m)
        out += [
            (f"lambda_series {kind}", lambda lam=lam, x=x: lambda_series(lam, x, 6),
             lambda lam=lam, x=x: per_kind_lambda_series(lam, x, 6), [x]),
            (f"exp_map {kind}", lambda lam=lam, b=b: exp_map(b, lam, 6),
             lambda lam=lam, b=b: series_product_exp(b, lam, 6), b),
        ]
        for series in (S, geometric):
            out += [
                (f"log_map {kind}", lambda lam=lam, S=series: log_map(S, lam),
                 lambda lam=lam, S=series: series_product_decompose(S, lam), [series]),
                (f"power {kind}", lambda lam=lam, S=series, n=n: power(S, n, lam),
                 lambda lam=lam, S=series, n=n: series_product_power(S, n, lam), [series, n]),
            ]
    return out


def test_no_route_changes_an_input_map_or_hands_out_a_shared_one():
    cases = routes()
    inputs = [c for _, _, _, operands in cases for x in operands for c in polynomials(x)]
    before = maps(inputs)
    first = []
    for name, route, reference, _ in cases:
        got = route()
        assert got == reference(), name
        assert maps(inputs) == before, name
        first += polynomials(got)
    handed_out = maps(first)
    again = [c for _, route, _, _ in cases for c in polynomials(route())]
    assert maps(inputs) == before and maps(first) == handed_out
    # one polynomial may fill several slots, but two polynomials never share a map
    owners = {}
    for c in inputs + first + again:
        owners.setdefault(id(c._terms), set()).add(id(c))
    assert all(len(objects) == 1 for objects in owners.values())


# -- the overflow naming rule ----------------------------------------------------------


def test_check_degrees_names_the_smallest_overflowing_key():
    top = MAX_EXPONENT + 1
    (key_u,) = UV.monomial((top - 1, 0))._terms
    (key_v,) = UV.monomial((0, top - 1))._terms
    (one_u,) = UV.gen("u")._terms
    (one_v,) = UV.gen("v")._terms
    over_u, over_v, over_both = key_u + one_u, key_v + one_v, key_u + one_u + key_v + one_v
    cases = [([over_v, over_u], ("u", top)),  # u's slot holds the low bits
             ([over_both, over_v], ("v", top)),
             ([over_both], ("u", top)),  # both overflow: the first variable is named
             ([over_both, over_u + one_u], ("u", top + 1)),
             ([over_u + one_u, 0, over_u], ("u", top))]
    for keys, named in cases:
        for order in (keys, keys[::-1]):
            with pytest.raises(DegreeOverflowError) as raised:
                _check_degrees(UV.variables, {key: 1 for key in order})
            assert (raised.value.variable, raised.value.exponent) == named
    _check_degrees(UV.variables, {key_u: 1, key_v: -1, 0: 0})  # no guard bit is set


def reordered(p, rng):
    """p rebuilt with its terms inserted in reversed and in shuffled order."""
    items = list(p.terms.items())
    shuffled = rng.sample(items, len(items))
    return [SparsePolynomial(p.variables, dict(reversed(items))),
            SparsePolynomial(p.variables, dict(shuffled))]


def reordered_series(A, rng):
    """A with every coefficient reordered as `reordered` does, both ways."""
    rebuilt = list(zip(*(reordered(c, rng) for c in A.coefficients)))
    return [TruncatedSeries(A.ring, coefficients) for coefficients in rebuilt]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_a_product_names_the_same_overflow_whatever_order_its_operands_hold(ring):
    rng = random.Random(f"overflow order {ring.name}")
    others = (0,) * (len(ring.variables) - 1)
    first = ring.monomial((HALF, *others)) + ring.monomial((HALF + 1, *others))
    second = ring.monomial((MAX_EXPONENT - HALF + 1, *others)) - ring.monomial((MAX_EXPONENT - HALF, *others))
    changed = 0
    for p, q in [(first, second)] + [cancelling_pair(rng, ring) for _ in range(40)]:
        expected = overflow(lambda: p * q)
        assert expected[1] == ring.variables[0] and expected[2] > MAX_EXPONENT
        for x in [p] + reordered(p, rng):
            for y in [q] + reordered(q, rng):
                changed += list(x._terms) != list(p._terms) or list(y._terms) != list(q._terms)
                assert overflow(lambda: x * y) == expected
                assert overflow(lambda: y * x) == expected
                assert overflow(lambda: TruncatedSeries(ring, [x]) * TruncatedSeries(ring, [y])) == expected
                assert overflow(lambda: TruncatedSeries(ring, [y]) * TruncatedSeries(ring, [x])) == expected
    assert changed > 100  # the insertion order did change


@pytest.mark.parametrize("kind", ["poly-product", "opposite"])
@pytest.mark.parametrize("ring", [U, UV], ids=lambda r: r.name)
def test_log_exp_and_power_name_the_same_overflow_whatever_order_their_input_holds(ring, kind):
    lam = LambdaStructure(kind, ring)
    rng = random.Random(f"overflow order {kind} {ring.name}")
    u = ring.gen("u")
    for s, r, c in [(10, 3, 1), (5, 0, -2), (7, 6, 3)]:
        pinned = (DegreeOverflowError, "u", MAX_EXPONENT + s - r)
        A = cancelling_series(ring, kind, s, r, c)
        # the same series with terms that do not cancel, so that its coefficients
        # and its exponents have more than one term to reorder
        extra = TruncatedSeries(ring, [ring.one] + [x + ring.from_int(j) * u if x else x
                                                    for j, x in enumerate(A.coefficients[1:], 1)])
        for series, named in [(A, pinned), (extra, None)]:
            expected = {
                "log": overflow(lambda: log_map(series, lam)),
                "exp": overflow(lambda: exp_map(series.coefficients[1:], lam, series.order)),
                "power": overflow(lambda: power(series, ring.from_int(2) + u, lam)),
            }
            assert all(expected.values())
            if named:
                assert expected["log"] == named
            for B, m in zip([series] + reordered_series(series, rng),
                            [ring.from_int(2) + u] + reordered(ring.from_int(2) + u, rng)):
                assert overflow(lambda: log_map(B, lam)) == expected["log"]
                assert overflow(lambda: exp_map(B.coefficients[1:], lam, B.order)) == expected["exp"]
                assert overflow(lambda: power(B, m, lam)) == expected["power"]
