"""Slow reference routes that the fast series, lambda, Log/Exp and orbit paths must equal.

These are the dense convolution, the dense inverse, the per-kind lambda
series (one branch per lambda kind), the factor-by-factor Log/Exp that build
every factor lambda_b(t^k) to the full order N before rescaling and invert
it for Log, the punctual Hilbert series as a product of inverted binomials,
the brute-force orbit count that visits every element of every orbit, and
the two-stage parser that builds an AST, walks it once to infer the ring and
again to evaluate it.  They are kept only so tests can compare the fast
routes against them; they share no lambda code with the library, and the
parser shares only the tokenizer.
"""

import itertools
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from powerstruct.kernels import Block, OrbitCheckError
from powerstruct.lambdas import LambdaStructure, UnsupportedLambdaError
from powerstruct.parsing import ParseError, _tokenize
from powerstruct.rings import Ring, UnboundVariableError
from powerstruct.series import NonUnitError, TruncatedSeries


def dense_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    ring = a.ring
    n = min(a.order, b.order)
    out: List = []
    for j in range(n + 1):
        acc = ring.zero
        for i in range(j + 1):
            ci, cj = a.coefficients[i], b.coefficients[j - i]
            if not ci or not cj:
                continue
            acc = acc + ci * cj
        out.append(acc)
    return TruncatedSeries(ring, out)


def dense_invert(a: TruncatedSeries) -> TruncatedSeries:
    if not a.is_unit():
        raise NonUnitError("only unit series invert")
    ring = a.ring
    inv: List = [ring.one]
    for j in range(1, a.order + 1):
        acc = ring.zero
        for i in range(1, j + 1):
            ci = a.coefficients[i]
            if not ci:
                continue
            acc = acc + ci * inv[j - i]
        inv.append(-acc)
    return TruncatedSeries(ring, inv)


def _one_minus_xt_power(ring: Ring, x, e: int, order: int) -> TruncatedSeries:
    """(1 - x*t)^e truncated; binom(e, j) is the falling factorial e^(j) / j!."""
    coeffs = [ring.one]
    xpow = ring.one
    for j in range(1, order + 1):
        xpow = xpow * x
        binom = math.prod(range(e - j + 1, e + 1)) // math.factorial(j)
        coeffs.append(ring.from_int((-1) ** j * binom) * xpow)
    return TruncatedSeries(ring, coeffs)


def _poly_product_series(ring: Ring, a, order: int) -> TruncatedSeries:
    """prod over terms p*u^k of a of (1 - u^k t)^{-p}, truncated."""
    result = TruncatedSeries.one(ring, order)
    for exps, p in ring.terms(a):
        result = result * _one_minus_xt_power(ring, ring.monomial(exps), -p, order)
    return result


def _negate_odd(a: TruncatedSeries) -> TruncatedSeries:
    ring = a.ring
    return TruncatedSeries(
        ring,
        [c if j % 2 == 0 else -c for j, c in enumerate(a.coefficients)],
    )


def per_kind_lambda_series(lam: LambdaStructure, a, order: int) -> TruncatedSeries:
    """The series lambda_a truncated at `order`, one branch per lambda kind."""
    ring = lam.ring
    a = ring.coerce(a)
    if lam.kind == "poly-product":
        return _poly_product_series(ring, a, order)
    if lam.kind == "opposite":
        return _negate_odd(_poly_product_series(ring, -a, order))
    # kapranov and binomial need a constant (integer) exponent
    if not ring.is_constant(a):
        raise UnsupportedLambdaError(
            f"{lam.kind} lambda is defined for integer exponents only; "
            f"got {ring.format_element(a)} (use poly-product)"
        )
    n = sum(p for _, p in ring.terms(a))  # the constant term
    if lam.kind == "kapranov":
        return _one_minus_xt_power(ring, ring.one, -n, order)
    # binomial: (1 + t)^n = (1 - (-1)t)^n
    return _one_minus_xt_power(ring, ring.from_int(-1), n, order)


def full_order_decompose(A: TruncatedSeries, lam: LambdaStructure) -> List:
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")
    ring = A.ring
    residual = A
    bs: List = []
    for k in range(1, A.order + 1):
        b_k = residual.coefficients[k]
        bs.append(b_k)
        if b_k:
            factor = per_kind_lambda_series(lam, b_k, A.order).rescale(k)
            residual = dense_mul(residual, dense_invert(factor))
    return bs


def full_order_exp(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    ring = lam.ring
    result = TruncatedSeries.one(ring, order)
    for k, b in enumerate(B[:order], start=1):
        b = ring.coerce(b)
        if not b:
            continue
        result = dense_mul(result, per_kind_lambda_series(lam, b, order).rescale(k))
    return result


def full_order_power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    ring = lam.ring
    m = ring.coerce(m)
    bs = full_order_decompose(A, lam)
    return full_order_exp([m * b for b in bs], lam, A.order)


def hand_rolled_hilb_local_surface(order: int) -> TruncatedSeries:
    """prod_{i>=1} (1 - L^{i-1} t^i)^{-1} over Z[L], one dense inverse per factor."""
    ring = Ring(("L",))
    result = TruncatedSeries.one(ring, order)
    for i in range(1, order + 1):
        coeffs = [ring.zero] * (order + 1)
        coeffs[0] = ring.one
        coeffs[i] = ring.monomial((i - 1,), -1)
        result = dense_mul(result, dense_invert(TruncatedSeries(ring, coeffs)))
    return result


def brute_force_profile_orbits(m_size: int, f_values: Sequence[int], blocks: Sequence[Block]) -> int:
    """Orbit count of one charge profile by visiting every off-diagonal tuple.

    Canonicalizes each element under the blockwise symmetric-group action by
    sorting within blocks, counts distinct representatives, and verifies that
    every orbit has size prod k_i! and maps to a single target orbit.
    """
    s = sum(b[0] for b in blocks)
    if s == 0:
        raise ValueError("a charge profile must have at least one particle")
    if s > m_size:
        return 0
    if any(k > 0 and x_size == 0 for k, x_size, _, _ in blocks):
        return 0

    slot_ranges: List[range] = []
    for k, x_size, _, _ in blocks:
        slot_ranges.extend([range(x_size)] * k)
    orbit_size = math.prod(math.factorial(k) for k, _, _, _ in blocks)

    orbit_target = {}
    orbit_count = {}
    # Ordered tuples of distinct points = M^s minus the large diagonal.
    for m_tuple in itertools.permutations(range(m_size), s):
        for states in itertools.product(*slot_ranges):
            src_key: List[Tuple[int, int]] = []
            tgt_key: List[Tuple[int, int]] = []
            pos = 0
            for k, _, g_values, _ in blocks:
                src_block = sorted(zip(m_tuple[pos : pos + k], states[pos : pos + k]))
                tgt_block = sorted(
                    (f_values[m], g_values[x])
                    for m, x in zip(m_tuple[pos : pos + k], states[pos : pos + k])
                )
                src_key.append(tuple(src_block))
                tgt_key.append(tuple(tgt_block))
                pos += k
            src = tuple(src_key)
            tgt = tuple(tgt_key)
            prev = orbit_target.get(src)
            if prev is None:
                orbit_target[src] = tgt
                orbit_count[src] = 1
            else:
                if prev != tgt:
                    raise OrbitCheckError(
                        "induced orbit map is not well defined: one source orbit "
                        "hits two target orbits"
                    )
                orbit_count[src] += 1
    for src, count in orbit_count.items():
        if count != orbit_size:
            raise OrbitCheckError(
                f"non-free action: orbit of {src} has size {count}, expected {orbit_size}"
            )
    return len(orbit_target)


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


def two_stage_parse_polynomial(text: str, ring: Optional[Ring] = None):
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


def two_stage_parse_series(
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
