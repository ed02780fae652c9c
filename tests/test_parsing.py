import io
import random
import re

import pytest

import _reference
from _gen import random_element
from conftest import assert_refuses
from powerstruct.parsing import ParseError, parse_polynomial, parse_ring, parse_series
from powerstruct.rings import INTEGERS, MAX_EXPONENT, DegreeOverflowError, Ring, SparsePolynomial
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
    with pytest.raises(ValueError, match="^'t' is reserved for series$"):
        parse_ring("Z[t]")


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


def test_syntax_error_wins_over_an_earlier_name_error():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("w + + u", parse_ring("Z[u,v]"))
    assert str(exc.value) == "unexpected '+' at offset 4"


def test_long_sums_parse_without_deep_recursion():
    ring = parse_ring("Z[u,v]")
    assert parse_polynomial(" + ".join(["u"] * 5000), ring) == ring.from_int(5000) * ring.gen("u")


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
    # one warning per discarded degree, in ascending order
    diagnostics = io.StringIO()
    ring = parse_ring("Z[u,v]")
    s = parse_series("t^9 + 1 + u*t^7 - t^9*v + t^7 + u*t", ring, 3, diagnostics)
    assert s == TruncatedSeries(ring, [1, ring.gen("u"), 0, 0])
    assert diagnostics.getvalue() == (
        "warning: degree-7 term discarded (order 3)\n"
        "warning: degree-9 term discarded (order 3)\n"
    )


def test_t_has_the_degree_limit_of_every_variable():
    # the top exponent still parses, and is discarded above the order
    diagnostics = io.StringIO()
    s = parse_series("1 + t + t^2147483647", INTEGERS, 2, diagnostics)
    assert s == TruncatedSeries(INTEGERS, [1, 1, 0])
    assert diagnostics.getvalue() == "warning: degree-2147483647 term discarded (order 2)\n"
    for text, exponent in [("1 + t^2147483648", 2147483648),
                           ("1 + t^3000000000", 2147483648),
                           ("t^2000000000*t^2000000000", 4000000000)]:
        for ring in [INTEGERS, parse_ring("Z[u,v]")]:
            assert_refuses(
                lambda: parse_series(text, ring, 2, io.StringIO()), DegreeOverflowError,
                f"exponent {exponent} of variable t exceeds the limit {MAX_EXPONENT}",
            )


def test_an_exponent_over_the_limit_comes_after_syntax_and_name_errors():
    u = Ring(("u",))
    assert_refuses(lambda: parse_polynomial("u^3000000000 + + 1", u), ParseError,
                   "unexpected '+' at offset 15")
    assert_refuses(lambda: parse_polynomial("u^3000000000 + w", u), ParseError,
                   "variable 'w' is not in the ring Z[u] at offset 15")
    # a product over the limit, then a syntax error
    assert_refuses(lambda: parse_polynomial("u^2000000000*u^2000000000 + + 1", u), ParseError,
                   "unexpected '+' at offset 28")
    assert_refuses(lambda: parse_series("1 + t^3000000000 + (", INTEGERS, 2, io.StringIO()),
                   ParseError, "unexpected end of input at offset 20")
    # the overflow alone, and the first of two, raises as it did
    for text, exponent in [("u^3000000000", 2147483648),
                           ("1 + u^2000000000*u^2000000000", 4000000000),
                           ("(u^2000000000*u^2000000000)*u^3000000000", 4000000000),
                           ("u^3000000000*(1 + u^2000000000*u^2000000000)", 2147483648)]:
        assert_refuses(lambda: parse_polynomial(text, u), DegreeOverflowError,
                       f"exponent {exponent} of variable u exceeds the limit {MAX_EXPONENT}")


def test_t_is_reserved_in_a_ring_that_has_it():
    # only the library can build such a ring; parse_ring refuses one
    for ring in [Ring(("t",)), Ring(("u", "t"))]:
        assert_refuses(lambda: parse_series("1 + t", ring, 2), ValueError, "'t' is reserved for series")
        assert_refuses(lambda: parse_polynomial("t + 1", ring), ParseError,
                       "'t' is reserved for series at offset 0")


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


_ATOMS = ["0", "1", "2", "7", "12", "300", "u", "v", "w", "L", "a", "b", "c", "t", "x1"]
_OPS = ["+", "-", "*", "^", "(", ")"]
_STRAY = ["$", ".", "/", "é", "\t"]
_CONTEXTS = [None, "Z", "Z[u,v]", "Z[L]", "Z[a,b,c]"]


def _random_expr(rng, depth):
    """A syntactically valid expression; its names may lie outside the ring."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        atom = rng.choice(_ATOMS)
        if atom[0].isalpha() and rng.random() < 0.3:
            atom += "^" + rng.choice(["0", "1", "2", "3"])
        return atom
    if roll < 0.45:
        return "(" + _random_expr(rng, depth - 1) + ")"
    if roll < 0.55:
        return "-" + _random_expr(rng, depth - 1)
    op = rng.choice(["+", "-", "*", "*"])
    return _random_expr(rng, depth - 1) + op + _random_expr(rng, depth - 1)


def _random_text(rng):
    """Valid expressions, the same with one token changed, and token soup."""
    if rng.random() < 0.15:
        pieces = rng.choices(_ATOMS + _OPS + _STRAY[:1], k=rng.randint(0, 8))
    else:
        pieces = [tok for tok in re.split(r"([-+*^()])", _random_expr(rng, 4)) if tok]
        if rng.random() < 0.5:
            at = rng.randrange(len(pieces) + 1)
            edit = rng.choice(["drop", "insert", "replace"])
            new = [rng.choice(_ATOMS + _OPS + _STRAY)]
            if edit == "insert" or not pieces:
                pieces[at:at] = new
            else:
                at = min(at, len(pieces) - 1)
                pieces[at : at + 1] = [] if edit == "drop" else new
    return "".join(piece + rng.choice(["", "", " "]) for piece in pieces)


def _outcome(parse, *args, **kwargs):
    diagnostics = io.StringIO()
    if "order" in kwargs:
        kwargs["diagnostics"] = diagnostics
    try:
        value = parse(*args, **kwargs)
    except Exception as exc:  # any exception is part of the behaviour compared
        return "raised", type(exc), str(exc)
    return "value", repr(value), diagnostics.getvalue()


def test_one_pass_parser_matches_the_two_stage_reference():
    rng = random.Random(2024)
    seen = []
    for case in range(20000):
        text = _random_text(rng)
        ring_name = _CONTEXTS[case % len(_CONTEXTS)]
        ring = None if ring_name is None else parse_ring(ring_name)
        new = _outcome(parse_polynomial, text, ring)
        assert new == _outcome(_reference.two_stage_parse_polynomial, text, ring), (text, ring_name)
        seen.append(new)
        ring = ring or INTEGERS
        order = rng.randint(-1, 6)
        new = _outcome(parse_series, text, ring, order=order)
        old = _outcome(_reference.two_stage_parse_series, text, ring, order=order)
        assert new == old, (text, ring_name, order)
        seen.append(new)
    # the inputs reach values, truncation warnings and every error message
    assert any(kind == "value" and not warned for kind, _, warned in seen)
    assert any(kind == "value" and "discarded" in warned for kind, _, warned in seen)
    messages = " | ".join(message for kind, _, message in seen if kind == "raised")
    for message in [
        "empty expression", "unknown character", "unexpected '", "unexpected end of input",
        "expected ')'", "nonnegative integer exponent", "'t' is reserved for series",
        "is not in the ring", "order must be nonnegative",
    ]:
        assert message in messages, message
