"""Property tests: the parser round trip and the power-structure axioms."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from powerstruct.lambdas import LAMBDA_KINDS, LambdaStructure, power
from powerstruct.parsing import parse_polynomial
from powerstruct.rings import INTEGERS, Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries

UV = Ring(("u", "v"))
FAST = settings(max_examples=100, deadline=None)


def polynomials(ring, max_degree=3, max_terms=5, coeff_bound=10**6):
    if ring.is_integers:
        return st.integers(-coeff_bound, coeff_bound)
    exps = st.tuples(*[st.integers(0, max_degree)] * len(ring.variables))
    terms = st.dictionaries(exps, st.integers(-coeff_bound, coeff_bound), max_size=max_terms)
    return terms.map(lambda t: SparsePolynomial(ring.variables, t))


@pytest.mark.parametrize("ring", [INTEGERS, UV], ids=lambda r: r.name)
def test_parser_round_trip(ring):
    @FAST
    @given(polynomials(ring))
    def check(x):
        assert parse_polynomial(str(x), ring) == x

    check()


def lambda_ring(kind):
    # kapranov and binomial take integer exponents only
    return UV if kind in ("poly-product", "opposite") else INTEGERS


@st.composite
def power_cases(draw, ring, max_order):
    order = draw(st.integers(0, max_order))
    small = polynomials(ring, max_degree=1, max_terms=2, coeff_bound=2)
    unit = st.lists(small, min_size=order, max_size=order).map(
        lambda cs: TruncatedSeries(ring, [ring.one] + cs)
    )
    return draw(unit), draw(unit), draw(small), draw(small)


def check_power_axioms(lam, max_order):
    @FAST
    @given(power_cases(lam.ring, max_order))
    def check(case):
        A, B, m, n = case
        assert power(A, m + n, lam) == power(A, m, lam) * power(A, n, lam)
        assert power(A * B, m, lam) == power(A, m, lam) * power(B, m, lam)

    check()


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_power_axioms(kind):
    check_power_axioms(LambdaStructure(kind, lambda_ring(kind)), 5)


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_power_axioms_over_integers(kind):
    # Log and Exp over Z solve Newton's identities; the orders reach 40
    check_power_axioms(LambdaStructure(kind, INTEGERS), 40)
