"""Expression parsing for polynomials and truncated series.

One recursive descent over the token list parses and evaluates at once
with the ring's own operators; a series is a polynomial in the ring with
't' appended, split by its degree in t.  Errors come in a fixed order: an
unknown character first, then the first syntax error, then the first name
outside the ring (or 't' outside a series), each at its byte offset, then
the first exponent over the degree limit (DegreeOverflowError).

Grammar (whitespace-insensitive; offsets in error messages are byte offsets):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := integer | identifier ('^' nonneg-integer)? | '(' expr ')'

Identifiers match [A-Za-z][A-Za-z0-9_]*.  In polynomial context 't' is
reserved; in series context 't' is the series variable and every other
identifier must belong to the coefficient ring.
"""

from __future__ import annotations

import re
import sys
from typing import List, Optional, Tuple

from .rings import DegreeOverflowError, Ring, UnboundVariableError
from .series import TruncatedSeries, _check_order


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unknown character {stripped[0]!r}", off)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _evaluate(tokens: List[Tuple[str, str, int]], ring: Ring,
              series_ring: Optional[Ring] = None):
    """Parse and evaluate in one pass to an element of `ring`, or for a
    series of `series_ring`, which is `ring` with 't' appended.

    Outside a series 't' is refused.  A name outside the ring, or 't'
    outside a series, is kept until the whole text has parsed, so any
    syntax error is raised first; an exponent over the degree limit, from a
    power or a product, is kept the same way and raised after the names.
    Each kept error's subexpression evaluates to zero.
    """
    target = series_ring or ring
    pos = 0
    name_errors: List[ParseError] = []
    overflows: List[DegreeOverflowError] = []

    def take(ops: str) -> Optional[str]:
        """Consume the next token if it is one of the operators in `ops`."""
        nonlocal pos
        kind, value, _ = tokens[pos]
        if kind == "op" and value in ops:
            pos += 1
            return value
        return None

    def expr():
        out = -term() if take("-") else term()
        while True:
            op = take("+-")
            if op is None:
                return out
            out = out - term() if op == "-" else out + term()

    def term():
        out = factor()
        while take("*"):
            right = factor()
            try:
                out = out * right
            except DegreeOverflowError as error:
                overflows.append(error)
                out = target.zero
        return out

    def factor():
        nonlocal pos
        kind, value, offset = tokens[pos]
        pos += 1
        if kind == "int":
            return target.from_int(int(value))
        if kind == "ident":
            exp = 1
            if take("^"):
                k2, v2, o2 = tokens[pos]
                pos += 1
                if k2 != "int":
                    raise ParseError("expected a nonnegative integer exponent", o2)
                exp = int(v2)
            if value == "t" and series_ring is None:
                name_errors.append(ParseError("'t' is reserved for series", offset))
                return target.zero
            try:
                return target.gen(value) ** exp
            except UnboundVariableError:
                message = f"variable {value!r} is not in the ring {ring.name}"
                name_errors.append(ParseError(message, offset))
                return target.zero
            except DegreeOverflowError as error:
                overflows.append(error)
                return target.zero
        if kind == "op" and value == "(":
            out = expr()
            if not take(")"):
                raise ParseError("expected ')'", tokens[pos][2])
            return out
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)

    out = expr()
    kind, value, offset = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", offset)
    if name_errors or overflows:
        raise (name_errors or overflows)[0]
    return out


def parse_polynomial(text: str, ring: Optional[Ring] = None):
    """Parse a polynomial expression; the ring is inferred when not given.

    Inference collects the identifiers used but 't' and sorts them
    alphabetically; a variable-free expression lands in Z.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    if ring is None:
        ring = Ring(sorted({v for kind, v, _ in tokens if kind == "ident" and v != "t"}))
    return _evaluate(tokens, ring)


def parse_series(
    text: str, ring: Ring, order: int, diagnostics=None
) -> TruncatedSeries:
    """Parse a series expression, truncating at `order`.

    The text is evaluated as a polynomial in the ring with 't' appended, so
    't' has the degree limit of every variable.  Terms of degree above the
    order are discarded with a warning on the diagnostic stream (stderr by
    default), one per degree.  A ring that has a variable 't' is refused.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    _check_order(order)
    if "t" in ring.variables:
        raise ValueError("'t' is reserved for series")
    if diagnostics is None:
        diagnostics = sys.stderr
    with_t = Ring(ring.variables + ("t",))
    coeffs = [ring.zero] * (order + 1)
    discarded = set()
    for exps, c in with_t.terms(_evaluate(_tokenize(text), ring, with_t)):
        *x, d = exps
        if d > order:
            discarded.add(d)
        else:
            coeffs[d] += ring.monomial(x, c)
    for d in sorted(discarded):
        print(f"warning: degree-{d} term discarded (order {order})", file=diagnostics)
    return TruncatedSeries(ring, coeffs)


def parse_ring(name: str) -> Ring:
    """Ring names as used on the CLI: Z, Z[u,v], Z[L], Z[a,b,c], ..."""
    name = name.strip()
    if name == "Z":
        return Ring(())
    m = re.fullmatch(r"Z\[([A-Za-z][A-Za-z0-9_]*(?:\s*,\s*[A-Za-z][A-Za-z0-9_]*)*)\]", name)
    if m is None:
        raise ValueError(f"unrecognized ring {name!r} (expected Z or Z[v1,...,vr])")
    variables = tuple(v.strip() for v in m.group(1).split(","))
    if "t" in variables:
        raise ValueError("'t' is reserved for series")
    return Ring(variables)
