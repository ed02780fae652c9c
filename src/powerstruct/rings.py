"""Exact arithmetic for the coefficient and exponent rings.

Two rings are supported: the integers Z (elements are plain Python ints,
arbitrary precision) and polynomial rings Z[x1,...,xr] (elements are
SparsePolynomial values).  Rings with different variable lists are distinct;
the only bridge between them is `substitute`, which realizes a ring
homomorphism by mapping every variable to an element of the target ring.

All values are immutable after construction and every operation is a pure
function, so everything here is safe for unrestricted concurrent reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

ExponentVector = Tuple[int, ...]


class ArityError(ValueError):
    """Operands live in rings with different variable lists."""


class UnboundVariableError(KeyError):
    """A substitution did not bind every variable of the polynomial."""


def _grlex_key(exps: ExponentVector):
    # Graded lexicographic: ascending total degree, then descending lex
    # within a degree (so u^2 prints before u*v before v^2).
    return (sum(exps), tuple(-e for e in exps))


class SparsePolynomial:
    """A multivariate integer polynomial in normalized sparse form.

    `terms` maps exponent vectors to nonzero integer coefficients; the zero
    polynomial has an empty term map.  Normalization (dropping zero
    coefficients) happens on construction, so equality of polynomials is
    equality of term maps.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[ExponentVector, int]):
        variables = tuple(variables)
        arity = len(variables)
        normalized: Dict[ExponentVector, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ArityError(
                    f"exponent vector {exps} has arity {len(exps)}, expected {arity}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                normalized[exps] = normalized.get(exps, 0) + coeff
                if normalized[exps] == 0:
                    del normalized[exps]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", normalized)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: Dict[ExponentVector, int]):
        # Fast path for arithmetic: inputs are already normalized.
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "SparsePolynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> "SparsePolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def monomial(
        cls, variables: Iterable[str], exps: ExponentVector, coeff: int = 1
    ) -> "SparsePolynomial":
        return cls(variables, {tuple(exps): coeff})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "SparsePolynomial":
        variables = tuple(variables)
        if name not in variables:
            raise UnboundVariableError(name)
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other: "SparsePolynomial") -> None:
        if not isinstance(other, SparsePolynomial):
            raise TypeError(f"expected SparsePolynomial, got {type(other).__name__}")
        if self.variables != other.variables:
            raise ArityError(
                f"mismatched variable lists {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            elif exps in terms:
                del terms[exps]
        return SparsePolynomial._raw(self.variables, terms)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._raw(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) - coeff
            if acc:
                terms[exps] = acc
            elif exps in terms:
                del terms[exps]
        return SparsePolynomial._raw(self.variables, terms)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_ring(other)
        left, right = self.terms, other.terms
        if len(left) > len(right):
            left, right = right, left
        if len(left) == 1:
            # monomial factor: the exponent shift is injective, so no
            # like-term collection is needed
            ((e1, c1),) = left.items()
            if not any(e1):
                if c1 == 1:
                    return SparsePolynomial._raw(self.variables, dict(right))
                terms = {e2: c1 * c2 for e2, c2 in right.items()}
            else:
                terms = {
                    tuple(map(sum, zip(e1, e2))): c1 * c2
                    for e2, c2 in right.items()
                }
            return SparsePolynomial._raw(self.variables, terms)
        terms: Dict[ExponentVector, int] = {}
        get = terms.get
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = tuple(map(sum, zip(e1, e2)))
                terms[key] = get(key, 0) + c1 * c2
        return SparsePolynomial._raw(
            self.variables, {e: c for e, c in terms.items() if c}
        )

    def __pow__(self, n: int) -> "SparsePolynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = SparsePolynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def sorted_terms(self) -> Iterator[Tuple[ExponentVector, int]]:
        for exps in sorted(self.terms, key=_grlex_key):
            yield exps, self.terms[exps]

    # -- substitution homomorphism --------------------------------------

    def substitute(self, target: "Ring", bindings: Mapping[str, object]):
        """Image under the homomorphism sending each variable to its binding.

        Every variable of this ring must be bound; binding images are elements
        of `target`.  Returns a `target` element (int for Z).
        """
        for v in self.variables:
            if v not in bindings:
                raise UnboundVariableError(v)
        images = [target.coerce(bindings[v]) for v in self.variables]
        acc = target.zero
        for exps, coeff in self.terms.items():
            term = target.from_int(coeff)
            for image, e in zip(images, exps):
                term = term * image**e
            acc = acc + term
        return acc

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
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


class Ring:
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

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

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
        return 0 if self.is_integers else SparsePolynomial.zero(self.variables)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.is_integers:
            return int(n)
        return SparsePolynomial.constant(self.variables, n)

    def gen(self, name: str):
        if self.is_integers:
            raise UnboundVariableError(name)
        return SparsePolynomial.variable(self.variables, name)

    def monomial(self, exps: ExponentVector, coeff: int = 1):
        if self.is_integers:
            if exps:
                raise ArityError("Z has no variables")
            return int(coeff)
        return SparsePolynomial.monomial(self.variables, exps, coeff)

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
        return True if self.is_integers else a.is_constant()

    def format_element(self, a) -> str:
        return str(self.coerce(a))


INTEGERS = Ring(())
