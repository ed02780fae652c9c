"""Lambda-structures, Exp/Log, and power structures on truncated series.

A lambda-structure assigns to each ring element a unit series
lambda_a(t) = 1 + a*t + ... with lambda_{a+b} = lambda_a * lambda_b.  The four
provided are one signed product over the terms p*x of a (x a monomial),

  lambda_a(t) = prod (1 - sigma*x*t)^{-sigma*p},

with sigma = +1 for kapranov and poly-product, and sigma = -1 for binomial and
opposite, which are the same structures with t -> -t.  Kapranov, (1-t)^{-a},
and binomial, (1+t)^a, take integer exponents only; poly-product and opposite
take any polynomial and restrict to them on constants.

Every unit series factors uniquely as prod_i lambda_{b_i}(t^i).  Scaling
each b_i by a ring element m and recombining is the power structure attached
to the lambda-structure.  Log and Exp take one route per ring:

- Over Z[x...] Exp multiplies the factors lambda_{b_k}(t^k) into one list
  of packed term maps in place, and Log peels A the same way, degree by
  degree, multiplying the residual by
  lambda_{-b_k}(t^k) = lambda_{b_k}(t^k)^{-1}, so it takes no series
  inverse.  Both kernels below add into the maps of that list, so the
  list is built from copies, and Log hands each b_k a copy of its residual
  map.  A term p*x of b_k is the factor (1 - sigma*x*t^k)^{-sigma*p}: |p|
  two-term steps (Ring.step_into), each one pass over the terms from
  degree k up, with no convolution.  The cost rule: a term takes steps when
  |p| = 1 or 2k*|p| <= N - k; the other terms of b_k form one factor,
  built as a series and multiplied by the kernel of every product
  (Ring.multiply_into), which skips its zero coefficients; when 2k > N the
  whole factor is 1 + b_k*t^k and goes that way.  Steps check no degree,
  so the degrees a factor can reach are bounded before its first step
  (Ring.steps_fit); a factor that could pass MAX_EXPONENT goes the series
  way, which raises DegreeOverflowError as a series product does.  A
  coefficient becomes a polynomial once, when it is handed out.  The
  factors stay short, where a ghost sum would convolve every Adams term
  with the full dense result.
- Over Z they run Newton's identities on int lists.  With t*A'/A =
  sum_n s_n t^n and the Adams operations psi^r(b) = sigma^(r+1)*b, the ghost
  sums are s_n = sum_{i | n} i*psi^(n/i)(b_i) and n*a_n = sum_{k<=n} s_k*a_{n-k},
  so Log and Exp each cost one triangular int convolution, about N^2/2
  multiply-adds, against sum_k N^2/k for the factor products.

Power over Z is the ordinary power A^m for every lambda-structure: psi^r is
linear over Z, so the ghost sums of A^m are m times those of A.  `power`
takes them from A in one ghost pass, scales them and runs one Newton pass,
about N^2 multiply-adds in all, with no Log, Exp or Adams terms; over
Z[x...] it is Exp of m times Log.

The closed-form integer power, a check by a separate route, is the binomial
theorem (1 + X)^m = sum_s binom(m, s) * X^s with X = A - 1: at most N series
products at order N, about N^3/6 multiply-adds over Z, and no Log or Exp.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import mul
from typing import Dict, Iterable, Iterator, List, Sequence

from .rings import ComputationError, Immutable, Ring, exact_quotient
from .series import NonUnitError, TruncatedSeries, _check_order

# kind -> (sigma, whether it takes integer exponents only)
_KINDS = {"kapranov": (1, True), "binomial": (-1, True),
          "opposite": (-1, False), "poly-product": (1, False)}
LAMBDA_KINDS = tuple(_KINDS)


class UnsupportedLambdaError(ComputationError, ValueError):
    """The exponent is outside the domain of the chosen lambda-structure."""


class LambdaStructure(Immutable):
    __slots__ = ("kind", "ring", "sign", "integers_only")

    def __init__(self, kind: str, ring: Ring):
        if kind not in _KINDS:
            raise ValueError(f"unknown lambda kind {kind!r}; choose from {LAMBDA_KINDS}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "sign", _KINDS[kind][0])
        object.__setattr__(self, "integers_only", _KINDS[kind][1])

    def __repr__(self) -> str:
        return f"LambdaStructure({self.kind}, {self.ring.name})"


def _one_minus_xt_power(ring: Ring, exps, c: int, e: int, order: int) -> TruncatedSeries:
    """(1 - c*x*t)^e truncated, for the monomial x with exponents `exps`, an
    integer c and any integer e: coefficient j is the single monomial
    (-c)^j * binom(e, j) * x^j."""
    coeffs = [1]
    for j in range(1, order + 1):
        # (-c)^j binom(e, j) = (-c)^(j-1) binom(e, j-1) * (-c)(e-j+1) / j, exactly
        coeffs.append(exact_quotient(coeffs[-1] * -c * (e - j + 1), j))
    return TruncatedSeries._raw(ring, ring.monomial_powers(exps, coeffs))


def _check_domain(lam: LambdaStructure, a) -> None:
    """A kind for integer exponents only (kapranov, binomial) needs a constant."""
    ring = lam.ring
    if lam.integers_only and not ring.is_constant(a):
        raise UnsupportedLambdaError(
            f"{lam.kind} lambda is defined for integer exponents only; "
            f"got {ring.format_element(a)} (use poly-product)"
        )


def lambda_series(lam: LambdaStructure, a, order: int) -> TruncatedSeries:
    """The series lambda_a truncated at `order`."""
    ring = lam.ring
    a = ring.coerce(a)
    _check_domain(lam, a)
    if order <= 1:
        _check_order(order)
        # every lambda-structure has lambda_a(t) = 1 + a*t + O(t^2)
        return TruncatedSeries._raw(ring, [ring.one, a][: order + 1])
    sign = lam.sign
    result = None
    for exps, p in ring.terms(a):
        factor = _one_minus_xt_power(ring, exps, sign, -sign * p, order)
        result = factor if result is None else result * factor
    return TruncatedSeries.one(ring, order) if result is None else result


def _factor(lam: LambdaStructure, b, k: int, order: int) -> TruncatedSeries:
    """lambda_b(t^k) truncated at `order`; only lambda_b up to t^(order // k) survives."""
    return lambda_series(lam, b, order // k).rescale(k, order=order)


def _multiply_factor_into(lam: LambdaStructure, sums: List[Dict[int, int]], b, k: int,
                          low: int) -> None:
    """Multiply the series of packed term maps `sums` in place by
    lambda_b(t^k): the terms of b that the cost rule picks by steps, the
    others as one series factor, first.  A factor that takes no step is
    multiplied from degree `low` up; steps run from degree k up, and so
    does the series factor before them, since a step reads the value it
    leaves at degree k."""
    ring, order = lam.ring, len(sums) - 1
    _check_domain(lam, b)
    (terms,) = ring.term_maps((b,))
    stepped = {}
    if 2 * k <= order:
        stepped = {key: p for key, p in terms.items()
                   if p in (1, -1) or 2 * k * abs(p) <= order - k}
        if stepped and not ring.steps_fit(sums, terms, order // k):
            stepped = {}
    if len(stepped) < len(terms):
        rest = b if not stepped else ring.from_term_map(
            {key: p for key, p in terms.items() if key not in stepped})
        ring.multiply_into(sums, _factor(lam, rest, k, order).coefficients,
                           k if stepped else low)
    sign = lam.sign
    for key, p in stepped.items():
        # (1 - sigma*x*t^k)^(-sigma*p): |p| steps with c the sign of p, each
        # a division by 1 - c*x*t^k when sigma*p > 0, else a product by 1 + c*x*t^k
        c = 1 if p > 0 else -1
        for _ in range(abs(p)):
            ring.step_into(sums, key, c, k, sign * p > 0)


def _check_decomposable(A: TruncatedSeries, lam: LambdaStructure) -> None:
    """A must be a unit series over the ring of the lambda-structure."""
    if A.ring != lam.ring:
        raise ValueError(f"series over {A.ring.name}, lambda over {lam.ring.name}")
    if not A.is_unit():
        raise NonUnitError("only series with constant term 1 decompose")


def log_map(A: TruncatedSeries, lam: LambdaStructure) -> List:
    """Log, the inverse of exp_map: the b_1..b_N of the unique A = prod lambda_{b_i}(t^i).

    Over Z[x...] this peels degrees bottom-up: after multiplying A by
    prod_{i<k} lambda_{-b_i}(t^i), the inverse of prod_{i<k} lambda_{b_i}(t^i),
    the residual is 1 + b_k t^k + O(t^{k+1}).  The residual is a list of
    packed term maps, a copy of A's, that each factor multiplies in place
    from degree k + 1 up, or from degree k when it takes steps; degree k
    cancels to 0, so b_k gets a copy of its map.  Over Z it solves
    Newton's identities instead (`_int_log`), one int convolution in all.
    """
    _check_decomposable(A, lam)
    ring, order = A.ring, A.order
    if ring.is_integers:
        return _int_log(A.coefficients, lam.sign)
    # copies, so that no b_k handed out shares a map with A
    residual = [dict(c) for c in ring.term_maps(A.coefficients)]
    bs: List = []
    for k in range(1, order + 1):
        # a copy: a factor that takes steps writes into residual[k]
        b_k = ring.from_term_map(dict(residual[k]))
        bs.append(b_k)
        if b_k:
            _check_domain(lam, b_k)  # before negating, so the error names b_k
            # lambda_{-b_k}(t^k) = 1 - b_k t^k + ... cancels degree k exactly
            _multiply_factor_into(lam, residual, -b_k, k, k + 1)
            residual[k] = {}  # a factor multiplied from degree k + 1 leaves b_k there
    return bs


def exp_map(B: Sequence, lam: LambdaStructure, order: int) -> TruncatedSeries:
    """Exp(b_1 t + b_2 t^2 + ...) = prod_k lambda_{b_k}(t^k), truncated at `order`.

    Over Z[x...] this multiplies the factors lambda_{b_k}(t^k) into one list
    of packed term maps in place, each from degree k up (by steps or as a
    series, see the module docstring), and makes the
    polynomials at the end; over Z it solves Newton's identities instead
    (`_int_exp`), one int convolution in all.
    """
    _check_order(order)
    ring = lam.ring
    if ring.is_integers:
        bs = [ring.coerce(b) for b in islice(B, order)]
        return TruncatedSeries._raw(ring, _int_exp(bs, lam.sign, order))
    result = [dict(c) for c in ring.term_maps(TruncatedSeries.one(ring, order).coefficients)]
    for k, b in enumerate(B, start=1):
        if k > order:
            break
        b = ring.coerce(b)
        if not b:
            continue
        _multiply_factor_into(lam, result, b, k, k)
    return TruncatedSeries._raw(ring, [ring.from_term_map(c) for c in result])


def power(A: TruncatedSeries, m, lam: LambdaStructure) -> TruncatedSeries:
    """(A(t))^m = prod_i lambda_{m*b_i}(t^i) where A = prod_i lambda_{b_i}(t^i).

    Over Z this is the ordinary power for every lambda-structure: psi^r is
    linear, so the ghost sums of A^m are m times those of A, and one ghost
    pass and one Newton pass give it, with no Log or Exp.
    """
    m = lam.ring.coerce(m)
    _check_decomposable(A, lam)
    if A.ring.is_integers:
        ghosts = _int_ghosts(A.coefficients)
        return TruncatedSeries._raw(A.ring, _from_ghosts([m * s for s in ghosts]))
    return exp_map([m * b for b in log_map(A, lam)], lam, A.order)


# -- Log and Exp over Z by Newton's identities ------------------------------


def _add_adams_terms(ghosts: List[int], i: int, b: int, sign: int) -> None:
    """Add i*psi^r(b) = i * sign^(r+1) * b to ghosts[i*r] for every r >= 1."""
    ib = i * b
    step = i if sign > 0 else 2 * i
    for j in range(i, len(ghosts), step):
        ghosts[j] += ib
    if sign < 0:
        for j in range(step, len(ghosts), step):
            ghosts[j] -= ib


def _from_ghosts(ghosts: Sequence[int]) -> List[int]:
    """The unit series C with t*C'/C = sum_n ghosts[n]*t^n:
    n*c_n = sum_{k<=n} s_k*c_{n-k}, an exact division by n."""
    c = [1]
    for n in range(1, len(ghosts)):
        c.append(exact_quotient(sum(map(mul, ghosts[1 : n + 1], reversed(c))), n))
    return c


def _int_exp(bs: Sequence[int], sign: int, order: int) -> List[int]:
    """Exp over Z: the ghost sums s_n = sum_{i | n} i*psi^(n/i)(b_i), each
    b_i's Adams terms scattered forward to the multiples of i."""
    ghosts = [0] * (order + 1)
    for i, b in enumerate(bs, start=1):
        if b:
            _add_adams_terms(ghosts, i, b, sign)
    return _from_ghosts(ghosts)


def _int_ghosts(a: Sequence[int]) -> List[int]:
    """The ghost sums of the unit series A over Z, t*A'/A = sum_n s_n*t^n:
    s_n = n*a_n - sum_{k<n} s_k*a_{n-k}, with s_0 = 0."""
    ghosts = [0] * len(a)
    for n in range(1, len(a)):
        ghosts[n] = n * a[n] - sum(map(mul, ghosts[1:n], a[n - 1 : 0 : -1]))
    return ghosts


def _int_log(a: Sequence[int], sign: int) -> List[int]:
    """Log over Z: the ghost sums s_n of A, then
    n*b_n = s_n - sum_{i | n, i < n} i*psi^(n/i)(b_i), an exact division by n."""
    ghosts = _int_ghosts(a)
    adams = [0] * len(a)  # the Adams terms of the b_i found so far
    bs: List[int] = []
    for n in range(1, len(a)):
        b = exact_quotient(ghosts[n] - adams[n], n)
        bs.append(b)
        if b:
            _add_adams_terms(adams, n, b, sign)
    return bs


# -- charge profiles and the closed-form integer power ----------------------


def charge_profiles(
    k: int, max_parts: int | None = None, parts: Iterable[int] | None = None
) -> Iterator[Dict[int, int]]:
    """Partitions of k as multiplicity maps {charge i -> count k_i}.

    Only partitions with at most `max_parts` parts and (when given) every
    part in `parts` are yielded (no bound when None); a branch that cannot
    meet the bounds is cut before it is explored.  Deterministic
    (lexicographic in the descending-part representation) so summation
    order is reproducible.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    allowed = sorted(
        {p for p in (range(1, k + 1) if parts is None else parts) if 1 <= p <= k},
        reverse=True,
    )
    top = allowed[0] if allowed else 0
    # the allowed parts at most r, largest first, for each bound r
    below = [[p for p in allowed if p <= r] for r in range(top + 1)]

    def rec(remaining: int, largest: int, parts_left: int, acc: Dict[int, int]):
        if remaining == 0:
            yield dict(acc)
            return
        if remaining > largest * parts_left:
            return
        for part in below[min(remaining, largest)]:
            acc[part] = acc.get(part, 0) + 1
            yield from rec(remaining - part, part, parts_left - 1, acc)
            acc[part] -= 1
            if not acc[part]:
                del acc[part]

    yield from rec(k, top, k if max_parts is None else max_parts, {})


def generalized_binomial(m: int, s: int) -> int:
    """binom(m, s) for any integer m, nonnegative s."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if m >= 0:
        return math.comb(m, s)
    return (-1) ** s * math.comb(-m + s - 1, s)


def integer_power_formula(A: TruncatedSeries, m: int) -> TruncatedSeries:
    """Closed-form (1 + a_1 t + ...)^m for an integer exponent m.

    The sum over charge profiles {k_i} with sum i*k_i = k of binom(m, s) *
    s!/(prod k_i!) * prod a_i^{k_i}, s = sum k_i, is by the multinomial theorem
    the binomial theorem (1 + X)^m = sum_s binom(m, s) * X^s, X = A - 1, here
    summed with the series product.  X^s starts at t^s, so s stops at the
    order, at m when m >= 0 and at the first X^s that is zero.
    """
    if not A.is_unit():
        raise NonUnitError("the integer power formula needs constant term 1")
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("the exponent of integer_power_formula must be an int")
    ring, order = A.ring, A.order
    x_s = TruncatedSeries.one(ring, order)  # X^0
    x, out = A - x_s, list(x_s.coefficients)
    for s in range(1, (order if m < 0 else min(m, order)) + 1):
        x_s = x_s * x
        if not any(x_s.coefficients):
            break
        weight = ring.from_int(generalized_binomial(m, s))
        out = [c + weight * e if e else c for c, e in zip(out, x_s.coefficients)]
    return TruncatedSeries._raw(ring, out)
