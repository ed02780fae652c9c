"""Truncated formal power series over a chosen ring.

A TruncatedSeries of order N stores the coefficients of t^0..t^N exactly;
binary operations between series of different orders truncate to the smaller
order, so the finitely-determined property can be exercised directly.
Storage is dense: orders stay small (<= ~64) at the scales this engine
targets.  Products and inverses visit only the nonzero coefficients.  Over
Z a product is an int double loop; over Z[x...] it is one Ring.multiply_into
call, the kernel that every polynomial product runs: it adds every term pair
into one packed-key map per output coefficient, without an intermediate
polynomial, and checks each map's degrees once, before its zero coefficients
are dropped.  The kernel adds into the maps it is given, so a product hands
it copies of its left operand's maps.  Log and Exp over Z[x...] run the same
kernel once per lambda factor, in place (see lambdas).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .rings import ComputationError, Immutable, Ring, power_by_squaring


class RingMismatchError(ComputationError, ValueError):
    """Binary operation on series over different rings."""


class NonUnitError(ComputationError, ValueError):
    """Inversion or decomposition of a series whose constant term is not 1."""


def _nonzero_terms(coefficients: Sequence, order: int) -> List[Tuple[int, object]]:
    """(index, coefficient) pairs of the nonzero coefficients up to `order`."""
    return [(j, c) for j, c in enumerate(coefficients[: order + 1]) if c]


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


class TruncatedSeries(Immutable):
    __slots__ = ("ring", "coefficients")

    def __init__(self, ring: Ring, coefficients: Iterable):
        # tuple() of a list allocates the tuple at its final size; from a
        # generator it grows one in place, which strands short tuples on
        # the interpreter's per-size free lists and raises peak memory
        coefficients = [ring.coerce(c) for c in coefficients]
        if not coefficients:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        _set_ring(self, ring)
        _set_coefficients(self, tuple(coefficients))

    @classmethod
    def _raw(cls, ring: Ring, coefficients: Sequence) -> "TruncatedSeries":
        # Fast path for results whose coefficients are already elements of
        # `ring`: no per-coefficient coerce.
        self = object.__new__(cls)
        _set_ring(self, ring)
        _set_coefficients(self, tuple(coefficients))
        return self

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, ring: Ring, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls._raw(ring, [ring.one] + [ring.zero] * order)

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls._raw(ring, [ring.zero] * (order + 1))

    @classmethod
    def geometric(cls, ring: Ring, order: int) -> "TruncatedSeries":
        """(1 - t)^{-1} = 1 + t + t^2 + ..."""
        _check_order(order)
        return cls._raw(ring, [ring.one] * (order + 1))

    @classmethod
    def one_plus_t(cls, ring: Ring, order: int) -> "TruncatedSeries":
        _check_order(order)
        coeffs = [ring.one] + [ring.zero] * order
        if order >= 1:
            coeffs[1] = ring.one
        return cls._raw(ring, coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        _check_order(order)
        if order >= self.order:
            return self
        return TruncatedSeries._raw(self.ring, self.coefficients[: order + 1])

    def is_unit(self) -> bool:
        return self.coefficients[0] == self.ring.one

    # -- arithmetic -----------------------------------------------------

    def _common(self, other: "TruncatedSeries") -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatchError(
                f"series over {self.ring.name} and {other.ring.name}"
            )
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._common(other)
        return TruncatedSeries._raw(
            self.ring, [a + b for a, b in zip(self.coefficients, other.coefficients)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._common(other)
        return TruncatedSeries._raw(
            self.ring, [a - b for a, b in zip(self.coefficients, other.coefficients)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common(other)
        ring = self.ring
        if ring.is_integers:
            out = [0] * (n + 1)
            right = _nonzero_terms(other.coefficients, n)
            for i, ci in _nonzero_terms(self.coefficients, n):
                for j, cj in right:
                    k = i + j
                    if k > n:
                        break
                    out[k] += ci * cj
            return TruncatedSeries._raw(ring, out)
        # copies: the kernel adds into these maps when other starts with 1
        sums = [dict(c) for c in ring.term_maps(self.coefficients[: n + 1])]
        ring.multiply_into(sums, other.coefficients[: n + 1], 0)
        return TruncatedSeries._raw(ring, [ring.from_term_map(c) for c in sums])

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with constant term 1."""
        if not self.is_unit():
            raise NonUnitError(
                f"cannot invert a series with constant term {self.ring.format_element(self.coefficients[0])}"
            )
        ring = self.ring
        zero = ring.zero
        terms = _nonzero_terms(self.coefficients, self.order)[1:]
        inv: List = [ring.one]
        for j in range(1, self.order + 1):
            acc = None
            for i, ci in terms:
                if i > j:
                    break
                cj = inv[j - i]
                if not cj:
                    continue
                p = ci * cj
                acc = p if acc is None else acc + p
            inv.append(zero if acc is None else -acc)
        return TruncatedSeries._raw(ring, inv)

    def rescale(self, k: int, order: int | None = None) -> "TruncatedSeries":
        """Substitute t -> t^k, truncated at `order` (default: this series' order).

        A target order above k * self.order pads with zeros, so a factor
        lambda_b(t^k) of order N needs lambda_b built to order N // k only.
        """
        if k < 1:
            raise ValueError(f"rescale factor must be >= 1, got {k}")
        if order is None:
            order = self.order
        _check_order(order)
        ring = self.ring
        out = [ring.zero] * (order + 1)
        for j, c in enumerate(self.coefficients):
            if j * k > order:
                break
            out[j * k] = c
        return TruncatedSeries._raw(ring, out)

    def int_pow(self, n: int) -> "TruncatedSeries":
        """Integer power: repeated multiplication, inverting first if n < 0."""
        if n < 0:
            base = self.invert()
            n = -n
        else:
            base = self
        if n == 0:
            return TruncatedSeries.one(self.ring, self.order)
        return power_by_squaring(base, n)

    def eq_mod(self, other: "TruncatedSeries", k: int) -> bool:
        """True iff the coefficients of t^0..t^{k-1} agree."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k > self._common(other) + 1:
            raise ValueError(f"k={k} exceeds the stored order")
        return self.coefficients[:k] == other.coefficients[:k]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.coefficients))

    def __str__(self) -> str:
        ring = self.ring
        pieces = []
        for j, c in enumerate(self.coefficients):
            if not c:
                continue
            cs = ring.format_element(c)
            if j == 0:
                pieces.append(cs)
                continue
            tpow = "t" if j == 1 else f"t^{j}"
            if cs == "1":
                pieces.append(tpow)
            elif " " in cs or cs.startswith("-"):
                pieces.append(f"({cs})*{tpow}")
            else:
                pieces.append(f"{cs}*{tpow}")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.ring.name}, N={self.order}, {self})"


# The slot setters write past Immutable.__setattr__, for the constructors.
_set_ring = TruncatedSeries.__dict__["ring"].__set__
_set_coefficients = TruncatedSeries.__dict__["coefficients"].__set__
