"""Exact arithmetic for the coefficient and exponent rings.

Two rings are supported: the integers Z (elements are plain Python ints,
arbitrary precision) and polynomial rings Z[x1,...,xr] (elements are
SparsePolynomial values).  Rings with different variable lists are distinct:
no operation mixes them, and the library's maps between them (the
specializations of `motivic`) read and build coefficients directly.

Every product over Z[x1,...,xr] (of two polynomials, of two series, or of
a series and a lambda factor) runs one kernel, `_multiply_into`, which adds
term pairs into packed-key maps and checks their degrees once, before zero
coefficients are dropped.  The one exception is the two-term factor
1 - c*x*t^k of a series and its inverse: `_step_into` multiplies or divides
by it with one pass over the terms from degree k up, and checks no degree;
its caller first bounds every degree it can reach (Ring.steps_fit).  An
overflow is named by the smallest packed key with a set guard bit, so a
product names the same exponent whatever order its maps hold their keys in.

All values are immutable after construction and every operation but two is
a pure function, so everything here is safe for unrestricted concurrent
reads.  Ring.multiply_into and Ring.step_into change the term maps that
their caller passes in, in place, so the caller must own each of those maps:
a copy, never the map of a polynomial, and no map twice in one list.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache, reduce
from itertools import chain
from operator import or_
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

ExponentVector = Tuple[int, ...]

# A monomial's exponent vector is stored as one int: variable i owns bits
# [SLOT_BITS*i, SLOT_BITS*(i+1)).  The top bit of each slot is a guard, so an
# exponent is at most MAX_EXPONENT, and the sum of two packed keys is the
# packed key of the product with no carry between slots; a set guard bit
# marks a product whose degree in that variable overflowed.
SLOT_BITS = 32
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1
_SLOT_MASK = (1 << SLOT_BITS) - 1


class ComputationError(Exception):
    """A computation refused its input or failed a check; the CLI exits 2."""


class ArityError(ValueError):
    """Operands live in rings with different variable lists."""


class UnboundVariableError(KeyError):
    """A name is not a variable of the ring."""


class InexactDivisionError(ComputationError, ArithmeticError):
    """A division that must be exact left a remainder."""


class DegreeOverflowError(ComputationError, ValueError):
    """An exponent of some variable exceeds MAX_EXPONENT."""

    def __init__(self, variable: str, exponent: int):
        super().__init__(
            f"exponent {exponent} of variable {variable} exceeds the limit {MAX_EXPONENT}"
        )
        self.variable = variable
        self.exponent = exponent


@lru_cache(maxsize=None)
def _guards(arity: int) -> int:
    return sum(1 << (SLOT_BITS * i + SLOT_BITS - 1) for i in range(arity))


def _unpack(key: int, arity: int) -> ExponentVector:
    return tuple((key >> (SLOT_BITS * i)) & _SLOT_MASK for i in range(arity))


def _pack(variables: Tuple[str, ...], exps: ExponentVector) -> int:
    """The packed key of an exponent vector, checked against the ring."""
    if len(exps) != len(variables):
        raise ArityError(
            f"exponent vector {exps} has arity {len(exps)}, expected {len(variables)}"
        )
    key = 0
    for i, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"negative exponent in {exps}")
        if e > MAX_EXPONENT:
            raise DegreeOverflowError(variables[i], e)
        key |= e << (SLOT_BITS * i)
    return key


def _check_degrees(variables: Tuple[str, ...], terms: Dict[int, int]) -> None:
    """Raise DegreeOverflowError if a sum of packed keys set a guard bit.

    The error names the smallest packed key with a set guard bit, and in it
    the first variable past MAX_EXPONENT, so the same set of keys names the
    same exponent whatever order the map holds them in."""
    guards = _guards(len(variables))
    if reduce(or_, terms, 0) & guards:
        key = min(key for key in terms if key & guards)
        for v, e in zip(variables, _unpack(key, len(variables))):
            if e > MAX_EXPONENT:
                raise DegreeOverflowError(v, e)


def _multiply_into(variables: Tuple[str, ...], sums: List[Dict[int, int]],
                   factor: Sequence["SparsePolynomial"], low: int) -> None:
    """Multiply the series whose coefficient d has the packed terms sums[d]
    by the series factor[0] + factor[1]*t + factor[2]*t^2 + ..., in place,
    for the degrees `low`..N only; the caller knows the product leaves the
    degrees below unchanged (or, for a Log peel step, zero at `low` - 1).  A
    polynomial product is the case N = 0.  Zero factor coefficients are
    skipped, so a factor lambda_b(t^k) costs only its degrees j*k.

    This is the one loop that adds term pairs into packed-key maps.  Degrees
    are updated from the top down, so every source d - j still holds its
    value from before the product.  Term pairs are added with the sources in
    ascending degree, each source term against every factor term.  When
    factor[0] is 1 (every lambda factor) the pairs are added straight into
    sums[d], which therefore changes in place: the caller must own every map
    in `sums`, and no two of them may be one map.  Otherwise a degree gets a
    new map, and a degree that no source reaches becomes empty.  The updated
    maps are checked for a degree overflow in ascending degree, before their
    zero coefficients are deleted, so a product raises DegreeOverflowError
    even where its overflowing monomials cancel, and names the exponent by
    the rule of `_check_degrees`.
    """
    unit = factor[0]._terms == {0: 1}
    # descending j, so that the sources d - j come in ascending degree
    steps = [(j, list(f._terms.items()))
             for j, f in enumerate(factor) if f._terms and (j or not unit)]
    steps.reverse()
    updated = []
    for d in range(len(sums) - 1, low - 1, -1):
        acc = sums[d] if unit else {}
        get = acc.get
        reached = False
        for j, terms_j in steps:
            if j > d:
                continue
            source = sums[d - j]
            if not source:
                continue
            reached = True
            for e1, c1 in source.items():
                for e2, c2 in terms_j:
                    key = e1 + e2
                    acc[key] = get(key, 0) + c1 * c2
        if reached:
            updated.append(d)
        if not unit:
            sums[d] = acc
    for d in reversed(updated):
        acc = sums[d]
        _check_degrees(variables, acc)
        if 0 in acc.values():
            for key in [key for key, c in acc.items() if not c]:
                del acc[key]


def _step_into(sums: List[Dict[int, int]], key: int, c: int, k: int,
               ascending: bool) -> None:
    """c_d += c*x*c_{d-k} for the degrees d = k..N, in place, for the series
    whose coefficient d has the packed terms sums[d] and the monomial x with
    the packed key `key`.  In ascending degree every source c_{d-k} already
    holds its new value, which divides the series by 1 - c*x*t^k; in
    descending degree it still holds its old one, which multiplies it by
    1 + c*x*t^k.  Each term is added straight into sums[d], and a term that
    cancels is deleted at once, so the caller must own every map in `sums`,
    and no two of them may be one map.  No degree is checked: the caller
    bounds them first (Ring.steps_fit).
    """
    n = len(sums)
    for d in range(k, n) if ascending else range(n - 1, k - 1, -1):
        source = sums[d - k]
        if source:
            acc = sums[d]
            get = acc.get
            for e, v in source.items():
                e += key
                v = get(e, 0) + c * v
                if v:
                    acc[e] = v
                else:
                    del acc[e]


def _check_coefficient(coeff) -> None:
    """A coefficient must be an int, and not a bool."""
    if isinstance(coeff, bool) or not isinstance(coeff, int):
        raise TypeError(f"coefficient {coeff!r} is a {type(coeff).__name__}, not an int")


def exact_quotient(n: int, d: int) -> int:
    """n / d where d must divide n; a remainder raises InexactDivisionError."""
    q, r = divmod(n, d)
    if r:
        raise InexactDivisionError(f"{n} / {d} leaves the remainder {r}")
    return q


def _grlex_key(exps: ExponentVector):
    # Graded lexicographic: ascending total degree, then descending lex
    # within a degree (so u^2 prints before u*v before v^2).
    return (sum(exps), tuple(-e for e in exps))


def power_by_squaring(base, n: int):
    """base**n for n >= 1, with the operand's `*`.

    Squares only while bits of n remain: one squaring past the top bit would
    be wasted, and could overflow a degree the result fits in.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


class Immutable:
    """Base of the value classes: setting or deleting any attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class SparsePolynomial(Immutable):
    """A multivariate integer polynomial in normalized sparse form.

    `terms` maps exponent vectors to nonzero integer coefficients; the zero
    polynomial has an empty term map.  Normalization (dropping zero
    coefficients) happens on construction, so equality of polynomials is
    equality of term maps.  Internally each exponent vector is one packed
    int key (see SLOT_BITS); an exponent above MAX_EXPONENT, given or
    produced by a product, raises DegreeOverflowError.
    """

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[ExponentVector, int]):
        variables = tuple(variables)
        normalized: Dict[int, int] = {}
        for exps, coeff in terms.items():
            _check_coefficient(coeff)
            # distinct tuples pack to distinct keys, so no two terms collide
            key = _pack(variables, tuple(exps))
            if coeff:
                normalized[key] = coeff
        _set_variables(self, variables)
        _set_terms(self, normalized)

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: Dict[int, int]):
        # Fast path for arithmetic: packed keys, no zero coefficients.
        self = object.__new__(cls)
        _set_variables(self, variables)
        _set_terms(self, terms)
        return self

    @property
    def terms(self) -> Mapping[ExponentVector, int]:
        """A read-only map from exponent tuples to coefficients."""
        arity = len(self.variables)
        return MappingProxyType({_unpack(key, arity): c for key, c in self._terms.items()})

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> "SparsePolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other: "SparsePolynomial") -> None:
        if not isinstance(other, SparsePolynomial):
            raise TypeError(f"expected SparsePolynomial, got {type(other).__name__}")
        if self.variables != other.variables:
            raise ArityError(
                f"mismatched variable lists {self.variables} vs {other.variables}"
            )

    def _plus(self, other: "SparsePolynomial", sign: int) -> "SparsePolynomial":
        """self + sign * other, for sign = 1 or -1."""
        self._check_ring(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = terms.get(key, 0) + sign * coeff
            if acc:
                terms[key] = acc
            elif key in terms:
                del terms[key]
        return SparsePolynomial._raw(self.variables, terms)

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self._plus(other, 1)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._raw(
            self.variables, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self._plus(other, -1)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_ring(other)
        left, right = self._terms, other._terms
        if len(left) > len(right):
            left, right = right, left
        if len(left) == 1:
            # monomial factor: the exponent shift is injective, so no
            # like-term collection is needed
            ((e1, c1),) = left.items()
            if not e1:
                if c1 == 1:
                    return SparsePolynomial._raw(self.variables, dict(right))
                terms = {e2: c1 * c2 for e2, c2 in right.items()}
            else:
                terms = {e1 + e2: c1 * c2 for e2, c2 in right.items()}
                _check_degrees(self.variables, terms)
            return SparsePolynomial._raw(self.variables, terms)
        # self outer and other inner, as in a series product of order 0
        sums = [self._terms]
        _multiply_into(self.variables, sums, (other,), 0)
        return SparsePolynomial._raw(self.variables, sums[0])

    def __pow__(self, n: int) -> "SparsePolynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        if n == 0:
            return SparsePolynomial._raw(self.variables, {0: 1})
        return power_by_squaring(self, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.variables == other.variables
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self._terms.items())))

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self) -> Iterator[Tuple[ExponentVector, int]]:
        arity = len(self.variables)
        items = [(_unpack(key, arity), coeff) for key, coeff in self._terms.items()]
        items.sort(key=lambda item: _grlex_key(item[0]))
        return iter(items)

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.variables!r}, {self})"


# Slot setters for the constructors: they write past Immutable.__setattr__
# without the name lookup that object.__setattr__ does on every call.
_set_variables = SparsePolynomial.__dict__["variables"].__set__
_set_terms = SparsePolynomial.__dict__["_terms"].__set__


class Ring(Immutable):
    """Z (empty variable list) or Z[x1,...,xr].

    Z is semantically the arity-0 polynomial ring but its elements are plain
    ints for convenience and speed.  Elements of either kind do arithmetic
    with the Python operators + - * ** == and truth testing (nonzero is
    true); a Ring only builds, coerces, lists the terms of and formats them.
    """

    __slots__ = ("variables",)

    def __init__(self, variables: Iterable[str] = ()):
        object.__setattr__(self, "variables", tuple(variables))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")

    @property
    def is_integers(self) -> bool:
        return not self.variables

    @property
    def name(self) -> str:
        if self.is_integers:
            return "Z"
        return "Z[" + ",".join(self.variables) + "]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(("Ring", self.variables))

    def __repr__(self) -> str:
        return f"Ring({self.name})"

    # -- element construction -------------------------------------------

    @property
    def zero(self):
        return 0 if self.is_integers else SparsePolynomial._raw(self.variables, {})

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.is_integers:
            return int(n)
        return SparsePolynomial._raw(self.variables, {0: n} if n else {})

    def gen(self, name: str):
        if name not in self.variables:
            raise UnboundVariableError(name)
        key = 1 << (SLOT_BITS * self.variables.index(name))
        return SparsePolynomial._raw(self.variables, {key: 1})

    def monomial(self, exps: ExponentVector, coeff: int = 1):
        if self.is_integers:
            if exps:
                raise ArityError("Z has no variables")
            _check_coefficient(coeff)
            return int(coeff)
        return SparsePolynomial(self.variables, {tuple(exps): coeff})

    def monomial_powers(self, exps: ExponentVector, coeffs: Sequence[int]) -> list:
        """[c_0, c_1*x, c_2*x^2, ...] for the monomial x with exponents `exps`
        and the integers c_j = coeffs[j]."""
        if self.is_integers:
            if exps:
                raise ArityError("Z has no variables")
            return list(coeffs)
        variables = self.variables
        key = _pack(variables, tuple(exps))
        top = max((j for j, c in enumerate(coeffs) if c), default=0)
        for v, e in zip(variables, exps):
            if e * top > MAX_EXPONENT:
                raise DegreeOverflowError(v, e * top)
        raw = SparsePolynomial._raw
        return [raw(variables, {j * key: c} if c else {}) for j, c in enumerate(coeffs)]

    # -- in-place products over Z[x...] -------------------------------------

    def term_maps(self, elements: Iterable["SparsePolynomial"]) -> List[Dict[int, int]]:
        """Each polynomial's own packed term map, not a copy: read it only.
        multiply_into and step_into change maps in place, so hand them
        copies (dict(m) for m in ...)."""
        return [c._terms for c in elements]

    def from_term_map(self, terms: Dict[int, int]) -> "SparsePolynomial":
        """The polynomial whose packed terms are `terms`, with no zero
        coefficient; the caller must not change the map afterwards."""
        return SparsePolynomial._raw(self.variables, terms)

    def multiply_into(self, sums: List[Dict[int, int]],
                      factor: Sequence["SparsePolynomial"], low: int) -> None:
        """Multiply the series of packed term maps `sums` in place by the
        series factor[0] + factor[1]*t + ..., for the degrees `low`..N: the
        kernel `_multiply_into` over this ring's variables.  When factor[0]
        is 1 it adds into the maps of `sums`, so the caller must own each
        of them."""
        _multiply_into(self.variables, sums, factor, low)

    def step_into(self, sums: List[Dict[int, int]], key: int, c: int, k: int,
                  ascending: bool) -> None:
        """Divide the series of packed term maps `sums` in place by
        1 - c*x*t^k (ascending) or multiply it by 1 + c*x*t^k, for the
        monomial x with the packed key `key`: the kernel `_step_into`.  It
        adds into the maps of `sums`, so the caller must own each of them,
        and must first bound the degrees with steps_fit."""
        _step_into(sums, key, c, k, ascending)

    def steps_fit(self, sums: Sequence[Dict[int, int]], terms: Dict[int, int],
                  times: int) -> bool:
        """Whether every product of a term of `sums` and `times` terms of the
        packed term map `terms` keeps each exponent within MAX_EXPONENT.
        Judged per variable from the bit length of the OR of its exponents:
        (2^bits - 1) bounds the largest, so a True needs no degree check."""
        top = reduce(or_, chain.from_iterable(sums), 0)
        step = reduce(or_, terms, 0)
        for i in range(len(self.variables)):
            shift = SLOT_BITS * i
            held = (1 << ((top >> shift) & _SLOT_MASK).bit_length()) - 1
            added = (1 << ((step >> shift) & _SLOT_MASK).bit_length()) - 1
            if held + times * added > MAX_EXPONENT:
                return False
        return True

    def coerce(self, x):
        """Accept ints always; polynomials only from this exact ring."""
        if isinstance(x, bool):
            raise TypeError("bool is not a ring element")
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, SparsePolynomial):
            if self.is_integers:
                raise ArityError(f"{x!r} is not an element of Z")
            if x.variables != self.variables:
                raise ArityError(
                    f"polynomial in {x.variables} is not an element of {self.name}"
                )
            return x
        raise TypeError(f"cannot interpret {type(x).__name__} as a {self.name} element")

    # -- structure queries ---------------------------------------------------

    def terms(self, a) -> Iterator[Tuple[ExponentVector, int]]:
        """Yield (exponent vector, integer coefficient) pairs of an element."""
        a = self.coerce(a)
        if self.is_integers:
            if a:
                yield (), a
            return
        yield from a.sorted_terms()

    def is_constant(self, a) -> bool:
        a = self.coerce(a)
        return self.is_integers or not any(a._terms)

    def format_element(self, a) -> str:
        return str(self.coerce(a))


INTEGERS = Ring(())
