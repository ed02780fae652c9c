import random

import pytest

from _gen import random_element
from powerstruct.parsing import ParseError, parse_polynomial, parse_ring, parse_series
from powerstruct.rings import INTEGERS, Ring, SparsePolynomial
from powerstruct.series import TruncatedSeries


def test_parse_ring():
    assert parse_ring("Z") is INTEGERS or parse_ring("Z").variables == ()
    assert parse_ring("Z[u,v]").variables == ("u", "v")
    assert parse_ring("Z[L]").variables == ("L",)
    assert parse_ring("Z[a,b,c]").variables == ("a", "b", "c")
    with pytest.raises(ValueError):
        parse_ring("Q")
    with pytest.raises(ValueError):
        parse_ring("Z[]")


def test_parse_polynomial_basic():
    ring = parse_ring("Z[u,v]")
    p = parse_polynomial("1 + u*v - 2*v^2", ring)
    assert p == SparsePolynomial(("u", "v"), {(0, 0): 1, (1, 1): 1, (0, 2): -2})


def test_parse_polynomial_infers_ring():
    p = parse_polynomial("3*L^2 - L")
    assert p == SparsePolynomial(("L",), {(2,): 3, (1,): -1})
    assert parse_polynomial("-7") == -7


def test_parse_polynomial_parens_and_unary():
    ring = parse_ring("Z[u,v]")
    p = parse_polynomial("-(u - v)*(u + v)", ring)
    assert p == SparsePolynomial(("u", "v"), {(2, 0): -1, (0, 2): 1})


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("1 + + u")
    assert "offset 4" in str(exc.value)


def test_parse_error_unbound_variable():
    ring = parse_ring("Z[u,v]")
    with pytest.raises(ParseError):
        parse_polynomial("1 + w", ring)


def test_t_reserved_in_polynomial_context():
    with pytest.raises(ParseError):
        parse_polynomial("1 + t", parse_ring("Z[u,v]"))


def test_parse_series_basic():
    ring = parse_ring("Z")
    s = parse_series("1 + 2*t + 3*t^2", ring, 4)
    assert s == TruncatedSeries(INTEGERS, [1, 2, 3, 0, 0])


def test_parse_series_polynomial_coefficients():
    ring = parse_ring("Z[u,v]")
    s = parse_series("1 + (u + v)*t - u*v*t^3", ring, 3)
    assert s.coefficients[1] == SparsePolynomial(("u", "v"), {(1, 0): 1, (0, 1): 1})
    assert s.coefficients[2] == ring.zero
    assert s.coefficients[3] == SparsePolynomial(("u", "v"), {(1, 1): -1})


def test_parse_series_truncation_warning():
    import io

    diagnostics = io.StringIO()
    s = parse_series("1 + t^9", parse_ring("Z"), 3, diagnostics=diagnostics)
    assert s == TruncatedSeries.one(INTEGERS, 3)
    assert "discarded" in diagnostics.getvalue()


def test_format_parse_roundtrip_polynomials():
    rng = random.Random(11)
    for ring_name in ("Z", "Z[u,v]", "Z[L]", "Z[a,b,c]"):
        ring = parse_ring(ring_name)
        for _ in range(25):
            x = random_element(rng, ring)
            text = ring.format_element(x)
            back = parse_polynomial(text, ring)
            assert back == x, (ring_name, text)


def test_format_parse_roundtrip_series():
    rng = random.Random(12)
    for ring_name in ("Z", "Z[u,v]"):
        ring = parse_ring(ring_name)
        for _ in range(25):
            coeffs = [random_element(rng, ring) for _ in range(6)]
            s = TruncatedSeries(ring, coeffs)
            back = parse_series(str(s), ring, 5)
            assert back == s, str(s)
