"""Expression parsing for polynomials and truncated series.

One recursive descent over the token list parses and evaluates at once,
returning a map t-degree -> ring element.  Errors come in a fixed order:
an unknown character first, then the first syntax error, then the first
name outside the ring (or 't' outside a series), each at its byte offset.

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
from typing import Dict, List, Optional, Tuple

from .rings import Ring, UnboundVariableError
from .series import TruncatedSeries


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


def _evaluate(tokens: List[Tuple[str, str, int]], ring: Ring, series: bool) -> Dict[int, object]:
    """Parse and evaluate in one pass to a map t-degree -> ring element.

    No truncation happens here.  Outside a series 't' is refused, so every
    degree is 0.  A name outside the ring, or 't' outside a series, is kept
    until the whole text has parsed, so any syntax error is raised first.
    """
    pos = 0
    name_errors: List[ParseError] = []

    def take(ops: str) -> Optional[str]:
        """Consume the next token if it is one of the operators in `ops`."""
        nonlocal pos
        kind, value, _ = tokens[pos]
        if kind == "op" and value in ops:
            pos += 1
            return value
        return None

    def expr() -> Dict[int, object]:
        negate = take("-")
        out = term()
        if negate:
            out = {d: -c for d, c in out.items()}
        while True:
            op = take("+-")
            if op is None:
                return out
            for d, c in term().items():
                c = -c if op == "-" else c
                out[d] = out[d] + c if d in out else c
            out = {d: c for d, c in out.items() if c}

    def term() -> Dict[int, object]:
        out = factor()
        while take("*"):
            a, b, out = out, factor(), {}
            for d1, c1 in a.items():
                for d2, c2 in b.items():
                    d = d1 + d2
                    p = c1 * c2
                    out[d] = out[d] + p if d in out else p
            out = {d: c for d, c in out.items() if c}
        return out

    def factor() -> Dict[int, object]:
        nonlocal pos
        kind, value, offset = tokens[pos]
        pos += 1
        if kind == "int":
            return {0: ring.from_int(int(value))}
        if kind == "ident":
            exp = 1
            if take("^"):
                k2, v2, o2 = tokens[pos]
                pos += 1
                if k2 != "int":
                    raise ParseError("expected a nonnegative integer exponent", o2)
                exp = int(v2)
            if value == "t":
                if series:
                    return {exp: ring.one}
                name_errors.append(ParseError("'t' is reserved for series", offset))
                return {}
            try:
                return {0: ring.gen(value) ** exp}
            except UnboundVariableError:
                message = f"variable {value!r} is not in the ring {ring.name}"
                name_errors.append(ParseError(message, offset))
                return {}
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
    if name_errors:
        raise name_errors[0]
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
    return _evaluate(tokens, ring, series=False).get(0, ring.zero)


def parse_series(
    text: str, ring: Ring, order: int, diagnostics=None
) -> TruncatedSeries:
    """Parse a series expression, truncating at `order`.

    Terms of degree above the order are discarded with a warning on the
    diagnostic stream (stderr by default).
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if diagnostics is None:
        diagnostics = sys.stderr
    table = _evaluate(_tokenize(text), ring, series=True)
    coeffs = [ring.zero] * (order + 1)
    for d, c in sorted(table.items()):
        if d > order:
            print(
                f"warning: degree-{d} term discarded (order {order})",
                file=diagnostics,
            )
            continue
        coeffs[d] = c
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
