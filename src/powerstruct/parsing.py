"""Expression parsing for polynomials and truncated series.

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


class _Parser:
    """Recursive-descent parser producing a small AST with source offsets."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", offset)
        return node

    def expr(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node = ("neg", offset, self.term())
        else:
            node = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if value == "+" else "sub", offset, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = ("mul", offset, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, offset = self.advance()
        if kind == "int":
            return ("int", offset, int(value))
        if kind == "ident":
            exp = 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.advance()
                k3, v3, o3 = self.advance()
                if k3 != "int":
                    raise ParseError("expected a nonnegative integer exponent", o3)
                exp = int(v3)
            return ("var", offset, value, exp)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def _collect_variables(node, out: set) -> None:
    """Every identifier but 't', which _eval refuses outside a series."""
    kind = node[0]
    if kind == "var" and node[2] != "t":
        out.add(node[2])
    elif kind == "neg":
        _collect_variables(node[2], out)
    elif kind in ("add", "sub", "mul"):
        _collect_variables(node[2], out)
        _collect_variables(node[3], out)


def parse_polynomial(text: str, ring: Optional[Ring] = None):
    """Parse a polynomial expression; the ring is inferred when not given.

    Inference collects the identifiers used and sorts them alphabetically;
    a variable-free expression lands in Z.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    ast = _Parser(text).parse()
    if ring is None:
        names: set = set()
        _collect_variables(ast, names)
        ring = Ring(tuple(sorted(names)))
    return _eval(ast, ring, series=False).get(0, ring.zero)


def _eval(node, ring: Ring, series: bool) -> Dict[int, object]:
    """Evaluate to a map t-degree -> ring element (no truncation yet).

    Outside a series 't' is refused, so every degree is 0.
    """
    kind = node[0]
    if kind == "int":
        return {0: ring.from_int(node[2])}
    if kind == "var":
        _, offset, name, exp = node
        if name == "t":
            if not series:
                raise ParseError("'t' is reserved for series", offset)
            return {exp: ring.one}
        try:
            return {0: ring.gen(name) ** exp}
        except UnboundVariableError:
            raise ParseError(f"variable {name!r} is not in the ring {ring.name}", offset)
    if kind == "neg":
        return {d: -c for d, c in _eval(node[2], ring, series).items()}
    a = _eval(node[2], ring, series)
    b = _eval(node[3], ring, series)
    out: Dict[int, object] = {}
    if kind in ("add", "sub"):
        for d, c in a.items():
            out[d] = c
        for d, c in b.items():
            c = -c if kind == "sub" else c
            out[d] = out[d] + c if d in out else c
    else:  # mul
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                d = d1 + d2
                p = c1 * c2
                out[d] = out[d] + p if d in out else p
    return {d: c for d, c in out.items() if c}


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
    ast = _Parser(text).parse()
    table = _eval(ast, ring, series=True)
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
