import itertools
import math
import io
import random
from collections.abc import Sequence
from types import SimpleNamespace

import pytest

from conftest import assert_refuses
import _reference
from _gen import exponent_map_classes
from _reference import (
    brute_force_profile_orbits,
    count_profile_orbits,
    indexed_image_multiset_map,
    per_representative_profile_orbits,
)
from powerstruct import cli, finite_model
from powerstruct.finite_model import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EquivalenceCheckError,
    FiniteMap,
    FiniteSeriesCheckError,
    OrbitCheckError,
    class_of,
    combine,
    config_space_map,
    find_equivalence,
    finite_series,
    geometric_power_coefficient,
    oracle_coefficients,
    particle_configuration_count,
    symmetric_power_map,
)
from powerstruct.lambdas import integer_power_formula
from powerstruct.rings import INTEGERS, InexactDivisionError
from powerstruct.series import TruncatedSeries


def test_class_of():
    assert class_of(FiniteMap.constant(3)) == 3
    assert class_of(FiniteMap.identity(0)) == 0
    f = FiniteMap(2, 2, [0, 1])
    g = FiniteMap(3, 1, [0, 0, 0])
    assert class_of(combine(f, g, "disjoint_union")) == class_of(f) + class_of(g)


def test_combine():
    f = FiniteMap.constant(2)
    g = FiniteMap.constant(3)
    assert class_of(combine(f, g, "disjoint_union")) == 5
    assert class_of(combine(f, g, "cartesian_product")) == 6
    h = FiniteMap(2, 3, [0, 2])
    assert find_equivalence(combine(h, FiniteMap.unit(), "cartesian_product"), h) is not None


def test_find_equivalence():
    f = FiniteMap(3, 2, [0, 0, 1])
    g = FiniteMap(3, 2, [1, 1, 0])
    pair = find_equivalence(f, g)
    assert pair is not None
    h1, h2 = pair
    assert all(h2[f(x)] == g(h1[x]) for x in range(3))
    assert find_equivalence(f, FiniteMap(3, 2, [0, 1, 1])) is not None
    assert find_equivalence(f, FiniteMap(3, 1, [0, 0, 0])) is None
    # equal sizes, fibers of sizes (1, 3) against (2, 2)
    assert find_equivalence(FiniteMap(4, 2, [0, 0, 0, 1]), FiniteMap(4, 2, [0, 0, 1, 1])) is None


def test_symmetric_power_sizes():
    f = FiniteMap(2, 2, [0, 1])
    assert symmetric_power_map(f, 2).source_size == 3
    any_f = FiniteMap(3, 2, [0, 1, 1])
    unit = symmetric_power_map(any_f, 0)
    assert (unit.source_size, unit.target_size) == (1, 1)


def test_finite_map_values_must_lie_in_the_target():
    for values in ([0, -1], [2, 0]):
        with pytest.raises(ValueError, match="^map value out of range$"):
            FiniteMap(2, 2, values)
    with pytest.raises(ValueError, match="^map value out of range$"):
        FiniteMap(1, 0, [0])
    empty = FiniteMap(0, 0, [])
    assert (empty.source_size, empty.target_size, empty.values) == (0, 0, ())


def test_multiset_maps_equal_the_indexed_reference():
    # S^k f and B_k f against the construction that looks up every selected
    # point and sorts its images in a Python loop: same sizes, same values
    rng = random.Random(13)
    maps = [FiniteMap.identity(0)]
    for n in range(8):
        for q in range(1 if n else 0, 5):
            maps += [FiniteMap(n, q, [rng.randrange(q) for _ in range(n)]) for _ in range(3)]
    assert any(f.target_size == 0 for f in maps)
    for f in maps:
        for k in range(5):
            for build, choose in (
                (symmetric_power_map, itertools.combinations_with_replacement),
                (config_space_map, itertools.combinations),
            ):
                # FiniteMap equality compares source size, target size and values
                assert build(f, k) == indexed_image_multiset_map(f, k, choose), (f, k)


def test_config_space_sizes():
    f = FiniteMap(4, 2, [0, 0, 1, 1])
    assert config_space_map(f, 2).source_size == 6
    assert config_space_map(f, 5).source_size == 0
    assert class_of(config_space_map(f, 5)) == 0


def _all_maps(n, q):
    for values in itertools.product(range(q), repeat=n):
        yield FiniteMap(n, q, values)


@pytest.mark.parametrize("builder", [symmetric_power_map, config_space_map])
def test_disjoint_union_decomposition(builder):
    # S^k (f1 u f2) = u_i S^i f1 x S^{k-i} f2, and the B_k analogue, as an
    # explicit equivalence of finite maps
    for n1, n2 in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        for f1 in _all_maps(n1, 2):
            for f2 in _all_maps(n2, 2):
                union = combine(f1, f2, "disjoint_union")
                for k in range(5):
                    lhs = builder(union, k)
                    pieces = None
                    for i in range(k + 1):
                        piece = combine(
                            builder(f1, i), builder(f2, k - i), "cartesian_product"
                        )
                        pieces = (
                            piece
                            if pieces is None
                            else combine(pieces, piece, "disjoint_union")
                        )
                    assert find_equivalence(lhs, pieces) is not None


FINITE_MODEL_REFUSALS = [
    pytest.param(lambda: FiniteMap(-1, 1, []), ValueError, "set sizes must be nonnegative",
                 id="negative-size"),
    pytest.param(lambda: FiniteMap(2, 2, [0]), ValueError, "expected 2 values, got 1",
                 id="too-few-values"),
    pytest.param(lambda: combine(FiniteMap.unit(), FiniteMap.unit(), "meet"), ValueError,
                 "unknown op 'meet'", id="unknown-op"),
    pytest.param(lambda: symmetric_power_map(FiniteMap.unit(), -1), ValueError,
                 "k must be nonnegative", id="negative-power"),
    pytest.param(lambda: finite_series(FiniteMap.unit(), "gamma", 2), ValueError,
                 "unknown series kind 'gamma'", id="unknown-series"),
    pytest.param(lambda: geometric_power_coefficient(FiniteMap.unit(), [FiniteMap.unit()], -1),
                 ValueError, "k must be nonnegative", id="negative-coefficient-degree"),
    # the size checks run before the order check, and before any count
    pytest.param(lambda: finite_model.oracle_coefficients(3, [-1], -1), ValueError,
                 "coefficient sizes must be nonnegative", id="oracle-negative-set"),
    pytest.param(lambda: finite_model.oracle_coefficients(-1, [1], -1), ValueError,
                 "m_size must be nonnegative, got -1", id="oracle-negative-exponent"),
]


@pytest.mark.parametrize("call, error, message", FINITE_MODEL_REFUSALS)
def test_finite_model_refusals_name_their_cause(call, error, message):
    assert_refuses(call, error, message)


def test_geometric_power_coefficient_example():
    # |M|=3, one coefficient set of size 2, k=2: coefficient of t^2 in (1+2t)^3
    assert geometric_power_coefficient(
        FiniteMap.constant(3), [FiniteMap.constant(2)], 2
    ) == 12


def test_geometric_power_empty_exponent():
    assert geometric_power_coefficient(
        FiniteMap.constant(0, 1), [FiniteMap.constant(2)], 1
    ) == 0


@pytest.mark.parametrize("m_size", [0, 3])
def test_geometric_power_constant_term(m_size):
    # t^0 has one configuration, every point at charge 0
    assert geometric_power_coefficient(
        FiniteMap.constant(m_size, 1), [FiniteMap.constant(2)], 0
    ) == 1


def test_geometric_power_linear_term():
    for a in range(4):
        assert geometric_power_coefficient(
            FiniteMap.unit(), [FiniteMap.constant(a)], 1
        ) == a


def test_geometric_power_budget():
    with pytest.raises(BudgetExceededError):
        geometric_power_coefficient(
            FiniteMap.constant(4), [FiniteMap.constant(3)], 4, budget=10
        )
    # an exponent over the budget, with no profile to refuse first
    assert_refuses(
        lambda: geometric_power_coefficient(FiniteMap.constant(3), [FiniteMap.constant(0)], 1, budget=2),
        BudgetExceededError,
        "the exponent map has 3 source points (budget 2)",
    )


def test_a_negative_budget_is_refused_before_any_count():
    for budget in (-1, -5):
        message = f"budget must be nonnegative, got {budget}"
        assert_refuses(lambda: oracle_coefficients(3, [2], 2, budget), ValueError, message)
        assert_refuses(lambda: oracle_coefficients(0, [], 0, budget), ValueError, message)
        assert_refuses(
            lambda: geometric_power_coefficient(FiniteMap.constant(3), [FiniteMap.constant(2)], 2, budget),
            ValueError, message,
        )
    # a budget of 0 refuses what it refused before
    assert_refuses(lambda: oracle_coefficients(3, [2], 2, 0), BudgetExceededError,
                   "profile {1: 1} needs 6 orbit representatives (budget 0)")
    assert oracle_coefficients(0, [2], 2, 0) == [0, 0]


def test_particle_configuration_count():
    # |M|=2, |X_1|=2: maps with total charge 1 pick one point and one state
    assert particle_configuration_count(2, [2], 1)[1] == 4
    assert particle_configuration_count(3, [], 2)[2] == 0
    assert particle_configuration_count(0, [5], 0)[0] == 1
    assert_refuses(lambda: particle_configuration_count(1, [1], -1), ValueError, "k must be nonnegative")


def test_particle_count_is_a_coefficient_of_the_integer_power():
    # configurations of total charge k are the t^k coefficient of (1 + sum |X_i| t^i)^m
    def expected(m, sizes, k):
        series = TruncatedSeries(INTEGERS, [1, *sizes, *[0] * k])
        return series.int_pow(m).coefficients[k]

    for m in range(7):
        for n in range(4):
            for sizes in itertools.product(range(4), repeat=n):
                for k in range(7):
                    assert particle_configuration_count(m, sizes, k)[k] == expected(m, sizes, k)
    sizes = [3, 1, 4, 1, 5, 9]
    assert particle_configuration_count(12, sizes, 6)[6] == expected(12, sizes, 6)
    # one count to t^6 holds every lower coefficient too
    assert particle_configuration_count(12, sizes, 6) == [expected(12, sizes, k) for k in range(7)]


# The three cases that open every perfbench oracle run, as blocks of one profile.
BENCHMARK_CASES = [
    (6, [x % 2 for x in range(6)], [(3, 4, [0, 1, 0, 1], 2)]),
    (7, [x % 3 for x in range(7)], [(4, 4, [0, 1, 2, 0], 3)]),
    (8, [x % 2 for x in range(8)], [(3, 3, [0, 0, 1], 2), (2, 3, [1, 0, 1], 2)]),
]


def _random_profile(rng):
    """Blocks with m 0-6 and 1-3 blocks, including k_i = 0, |X_i| = 0 and s > m."""
    while True:
        m_size = rng.randint(0, 6)
        q = rng.randint(1, 3)
        f_values = [rng.randrange(q) for _ in range(m_size)]
        blocks = []
        for _ in range(rng.randint(1, 3)):
            k, x_size, y_size = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3)
            blocks.append((k, x_size, [rng.randrange(y_size) for _ in range(x_size)], y_size))
        s = sum(k for k, _, _, _ in blocks)
        raw = math.perm(m_size, s) * math.prod(x**k for k, x, _, _ in blocks)
        if s > 0 and raw <= 5000:  # keeps the brute force cheap
            return m_size, f_values, blocks


def _closed_form(m_size, blocks):
    """The library's orbit count for blocks read as the profile {i: k_i} of
    t^(sum i*k_i), block i having charge i; 0 for a profile _profiles skips."""
    profile = {i: k for i, (k, _, _, _) in enumerate(blocks, 1) if k}
    sizes = [x_size for _, x_size, _, _ in blocks]
    k = sum(i * k_i for i, k_i in profile.items())
    counts = [reps for p, reps in finite_model._profiles(m_size, sizes, k, DEFAULT_BUDGET) if p == profile]
    return counts[0] if counts else 0


def _routes_agree(m_size, f_values, blocks):
    """The count on which the closed form and the three enumerations agree."""
    expected = brute_force_profile_orbits(m_size, f_values, blocks)
    assert per_representative_profile_orbits(m_size, f_values, blocks) == expected
    assert count_profile_orbits(m_size, f_values, blocks) == expected
    assert _closed_form(m_size, blocks) == expected
    return expected


def test_backends_agree():
    # the closed form against the orderly enumeration and the brute-force
    # reference that visits every tuple
    rng = random.Random(3)
    cases = [_random_profile(rng) for _ in range(500)]
    assert any(sum(b[0] for b in blocks) > m for m, _, blocks in cases)
    assert any(k == 0 for _, _, blocks in cases for k, _, _, _ in blocks)
    assert any(k > 0 and x == 0 for _, _, blocks in cases for k, x, _, _ in blocks)
    cases += [
        (4, [0, 1, 0, 1], [(2, 2, [0, 1], 2)]),
        (5, [0, 0, 1, 1, 2], [(1, 3, [0, 1, 1], 2), (2, 2, [1, 0], 2)]),
        (3, [0, 0, 0], [(3, 2, [0, 0], 1)]),
    ]
    for m_size, f_values, blocks in cases:
        _routes_agree(m_size, f_values, blocks)

    # every profile count that the criterion-3 grid sums
    profiles = 0
    for f in exponent_map_classes(4, 3):
        for sizes in itertools.product(range(4), repeat=3):
            coeffs = [FiniteMap.constant(s) for s in sizes]
            for k in range(1, 6):
                counted = finite_model._profiles(f.source_size, sizes, k, DEFAULT_BUDGET)
                for profile, reps in counted:
                    blocks = [(k_i, sizes[i - 1], coeffs[i - 1].values, 1) for i, k_i in sorted(profile.items())]
                    assert _routes_agree(f.source_size, f.values, blocks) == reps
                assert geometric_power_coefficient(f, coeffs, k) == sum(reps for _, reps in counted)
                profiles += len(counted)
    assert profiles > 1000


@pytest.mark.parametrize("case", range(len(BENCHMARK_CASES)))
def test_benchmark_cases_match_brute_force(case):
    _routes_agree(*BENCHMARK_CASES[case])


def _nonconstant(rng, n, q):
    """Values of a map {0..n-1} -> {0..q-1} that take at least two values."""
    while True:
        values = [rng.randrange(q) for _ in range(n)]
        if len(set(values)) > 1:
            return values


def test_map_values_never_change_an_orbit_count():
    # non-constant f and g with the same sizes give the closed form's count
    rng = random.Random(19)
    for _ in range(60):
        m_size = rng.randint(2, 6)
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
        ks = [rng.randint(1, 2) for _ in sizes]
        if math.perm(m_size, sum(ks)) * math.prod(x**k for k, x in zip(ks, sizes)) > 5000:
            continue
        counts = set()
        for _draw in range(3):
            q = rng.randint(2, 3)
            f_values = _nonconstant(rng, m_size, q)
            targets = [rng.randint(2, 3) for _ in sizes]
            blocks = [(k, x, _nonconstant(rng, x, y), y) for k, x, y in zip(ks, sizes, targets)]
            counts.add(_routes_agree(m_size, f_values, blocks))
            exponent = FiniteMap(m_size, q, f_values)
            coeffs = [FiniteMap(x, y, values) for _k, x, values, y in blocks]
            total = sum(i * k for i, k in enumerate(ks, 1))
            constant = [FiniteMap.constant(x) for x in sizes]
            assert geometric_power_coefficient(exponent, coeffs, total) == geometric_power_coefficient(
                FiniteMap.constant(m_size), constant, total
            )
        assert len(counts) == 1


def test_nonconstant_coefficient_maps():
    # target structure on the coefficient maps exercises the induced orbit map
    exponent = FiniteMap(3, 2, [0, 1, 0])
    coeffs = [FiniteMap(3, 3, [2, 0, 1]), FiniteMap(2, 2, [1, 1])]
    for k in range(1, 5):
        got = geometric_power_coefficient(exponent, coeffs, k)
        series = TruncatedSeries(INTEGERS, [1, 3, 2, 0, 0])
        assert got == integer_power_formula(series, 3).coefficients[k]


def test_finite_series_zeta():
    assert finite_series(FiniteMap.constant(2), "zeta", 3) == TruncatedSeries(
        INTEGERS, [1, 2, 3, 4]
    )


def test_finite_series_binomial():
    assert finite_series(FiniteMap.constant(4, 2, 1), "binomial", 5) == TruncatedSeries(
        INTEGERS, [1, 4, 6, 4, 1, 0]
    )


def test_finite_series_empty_source():
    for which in ("zeta", "binomial"):
        assert finite_series(FiniteMap.identity(0), which, 3) == TruncatedSeries.one(
            INTEGERS, 3
        )


def test_finite_series_counts_equal_the_built_maps():
    # binom(n + k - 1, k) and binom(n, k) against the classes of S^k f and
    # B_k f built on random maps, n = 0 included
    rng = random.Random(29)
    for n in range(13):
        q = rng.randint(1, 4)
        f = FiniteMap(n, q, [rng.randrange(q) for _ in range(n)])
        zeta = finite_series(f, "zeta", 10).coefficients
        binomial = finite_series(f, "binomial", 10).coefficients
        for k in range(11):
            assert zeta[k] == class_of(symmetric_power_map(f, k)), (n, k)
            assert binomial[k] == class_of(config_space_map(f, k)), (n, k)


def test_finite_series_builds_no_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("finite_series built a map")

    monkeypatch.setattr(finite_model, "_image_multiset_map", refuse)
    f = FiniteMap(12, 3, [x % 3 for x in range(12)])
    assert finite_series(f, "zeta", 10).coefficients[10] == math.comb(21, 10)
    assert finite_series(f, "binomial", 10).coefficients[10] == math.comb(12, 10)
    with pytest.raises(AssertionError, match="built a map"):
        symmetric_power_map(f, 2)


def test_finite_series_multiplicative_under_disjoint_union():
    for which in ("zeta", "binomial"):
        for n1 in range(4):
            for n2 in range(4):
                f1 = FiniteMap.constant(n1, 2, 0) if n1 else FiniteMap.identity(0)
                f2 = FiniteMap(n2, 2, [x % 2 for x in range(n2)]) if n2 else FiniteMap.identity(0)
                lhs = finite_series(combine(f1, f2, "disjoint_union"), which, 5)
                assert lhs == finite_series(f1, which, 5) * finite_series(f2, which, 5)


class _DriftingMap(FiniteMap):
    """Answers the first source_size queries truthfully, then shifts them."""

    __slots__ = ("queries",)

    def __init__(self, *args):
        super().__init__(*args)
        object.__setattr__(self, "queries", itertools.count())

    def __call__(self, x: int) -> int:
        shift = next(self.queries) >= self.source_size
        return (self.values[x] + shift) % self.target_size


class _DriftingValues(Sequence):
    """g_values that answer the first query truthfully, then shift every later one."""

    def __init__(self, values, target_size):
        self.values, self.target_size = list(values), target_size
        self.queries = itertools.count()

    def __len__(self):
        return len(self.values)

    def __getitem__(self, x):
        shift = next(self.queries) >= 1
        return (self.values[x] + shift) % self.target_size


def test_kernel_checks_well_definedness():
    # the reference enumeration's check; a FiniteMap's values cannot drift
    blocks = [(2, 2, _DriftingValues([0, 1], 2), 2)]
    with pytest.raises(OrbitCheckError, match="not well defined"):
        count_profile_orbits(3, [0, 0, 0], blocks)
    # the same input with honest values passes
    assert count_profile_orbits(3, [0, 0, 0], [(2, 2, [0, 1], 2)]) == 12


def test_kernel_checks_well_definedness_of_every_block():
    # the first block is honest and the second drifts: checking only the
    # fillings of the first block would miss it
    blocks = [(1, 1, [0], 1), (2, 2, _DriftingValues([0, 1], 2), 2)]
    with pytest.raises(OrbitCheckError, match="not well defined"):
        count_profile_orbits(4, [0, 1, 0, 1], blocks)
    honest = [(1, 1, [0], 1), (2, 2, [0, 1], 2)]
    expected = brute_force_profile_orbits(4, [0, 1, 0, 1], honest)
    assert count_profile_orbits(4, [0, 1, 0, 1], honest) == expected == 48


def test_kernel_checks_freeness(monkeypatch):
    # an enumeration that misses one point subset no longer covers every tuple
    monkeypatch.setattr(
        _reference, "combinations", lambda pool, r: list(itertools.combinations(pool, r))[:-1]
    )
    with pytest.raises(OrbitCheckError, match="non-free action"):
        count_profile_orbits(4, [0, 0, 0, 0], [(2, 1, [0], 1)])


def test_failed_cross_checks_raise_named_errors(monkeypatch):
    with pytest.raises(EquivalenceCheckError):
        find_equivalence(_DriftingMap(2, 2, [0, 1]), FiniteMap.identity(2))
    monkeypatch.setattr(finite_model, "particle_configuration_count", lambda *args: [1, -1])
    with pytest.raises(OrbitCheckError, match="^orbit total 2 != particle-configuration count -1$"):
        geometric_power_coefficient(FiniteMap.constant(2), [FiniteMap.constant(1)], 1)
    monkeypatch.setattr(finite_model, "power", lambda base, m, lam: base)
    with pytest.raises(FiniteSeriesCheckError):
        finite_series(FiniteMap.constant(2), "zeta", 3)


def test_an_inexact_representative_count_raises_a_named_error(monkeypatch):
    # with perm(m, s) forced to 1, the profile {1: 2} needs 1 * 1^2 / 2! representatives
    monkeypatch.setattr(
        finite_model, "math", SimpleNamespace(perm=lambda m, s: 1, factorial=math.factorial)
    )
    with pytest.raises(InexactDivisionError, match="1 / 2 leaves the remainder 1"):
        finite_model.oracle_coefficients(3, [1], 2)
    err = io.StringIO()
    argv = ["oracle", "--m-size", "3", "--target-size", "1", "--coeff-sizes", "1", "--order", "2"]
    assert cli.main(argv, out=io.StringIO(), err=err) == 2
    assert err.getvalue() == "error: 1 / 2 leaves the remainder 1\n"
