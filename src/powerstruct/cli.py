"""Command-line interface.

Subcommands: power, exp, log, zeta, hilb, oracle.  Output is deterministic
text (one line per coefficient) or JSON with the schema
{"ring": str, "order": int, "coefficients": [str]}; coefficients are printed
in graded-lexicographic normal form.  Exit codes: 0 success, 1 usage or parse
error, 2 computation error (non-unit series, enumeration budget exceeded, a
failed internal cross-check).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .finite_model import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    EquivalenceCheckError,
    FiniteMap,
    FiniteSeriesCheckError,
    check_budget,
    geometric_power_coefficient,
)
from .kernels import OrbitCheckError
from .lambdas import (
    LAMBDA_KINDS,
    LambdaStructure,
    UnsupportedLambdaError,
    exp_map,
    integer_power_formula,
    log_map,
    power,
)
from .motivic import HODGE_RING, hilb_local_surface, hilb_surface, hodge_zeta, specialize_series
from .parsing import ParseError, parse_polynomial, parse_ring, parse_series
from .rings import ArityError, INTEGERS, Ring
from .series import NonUnitError, RingMismatchError, TruncatedSeries


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="powerstruct")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ring=True):
        if ring:
            p.add_argument("--ring", default="Z", help="Z, Z[u,v], Z[L], Z[a,b,c], ...")
        p.add_argument("--order", type=int, required=True, metavar="N")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("power", help="raise a unit series to a ring-element exponent")
    add_common(p)
    p.add_argument("--lambda", dest="lam", choices=LAMBDA_KINDS, required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--exponent", required=True)

    p = sub.add_parser("exp", help="Exp: coefficient list b_1.. -> prod lambda_{b_k}(t^k)")
    add_common(p)
    p.add_argument("--lambda", dest="lam", choices=LAMBDA_KINDS, required=True)
    p.add_argument("--coeffs", required=True, help="comma-separated b_1,b_2,...")

    p = sub.add_parser("log", help="Log: unit series -> factorization coefficients")
    add_common(p)
    p.add_argument("--lambda", dest="lam", choices=LAMBDA_KINDS, required=True)
    p.add_argument("--series", required=True)

    p = sub.add_parser("zeta", help="(1-t)^{-e} over Z[u,v] for a Hodge polynomial e")
    add_common(p, ring=False)
    p.add_argument("--hodge", required=True)
    p.add_argument("--euler", action="store_true", help="specialize u,v -> 1")

    p = sub.add_parser("hilb", help="Hilbert-scheme generating series of a surface")
    add_common(p, ring=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hodge")
    group.add_argument("--local", action="store_true")
    p.add_argument("--euler", action="store_true", help="specialize all variables -> 1")

    p = sub.add_parser("oracle", help="geometric enumeration vs the integer power formula")
    p.add_argument("--m-size", type=int, required=True)
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--coeff-sizes", required=True, help="comma-separated |X_1|,|X_2|,...")
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="most orbit representatives one charge profile may need",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _emit(ring: Ring, coefficients: Sequence, first: int, fmt: str, out) -> None:
    """Print the coefficients of t^first, t^(first+1), ... as text or JSON."""
    if fmt == "json":
        payload = {
            "ring": ring.name,
            "order": first + len(coefficients) - 1,
            "coefficients": [ring.format_element(c) for c in coefficients],
        }
        print(json.dumps(payload), file=out)
    else:
        for j, c in enumerate(coefficients, start=first):
            print(f"t^{j}: {ring.format_element(c)}", file=out)


def _cmd_power(args, out) -> int:
    ring = parse_ring(args.ring)
    series = parse_series(args.series, ring, args.order)
    exponent = parse_polynomial(args.exponent, ring)
    lam = LambdaStructure(args.lam, ring)
    _emit(ring, power(series, exponent, lam).coefficients, 0, args.format, out)
    return 0


def _cmd_exp(args, out) -> int:
    ring = parse_ring(args.ring)
    bs = [parse_polynomial(piece, ring) for piece in args.coeffs.split(",")]
    lam = LambdaStructure(args.lam, ring)
    _emit(ring, exp_map(bs, lam, args.order).coefficients, 0, args.format, out)
    return 0


def _cmd_log(args, out) -> int:
    ring = parse_ring(args.ring)
    series = parse_series(args.series, ring, args.order)
    lam = LambdaStructure(args.lam, ring)
    _emit(ring, log_map(series, lam), 1, args.format, out)
    return 0


def _cmd_zeta(args, out) -> int:
    e = parse_polynomial(args.hodge, HODGE_RING)
    series = hodge_zeta(e, args.order)
    if args.euler:
        series = specialize_series(series, "euler")
    _emit(series.ring, series.coefficients, 0, args.format, out)
    return 0


def _cmd_hilb(args, out) -> int:
    if args.local:
        series = hilb_local_surface(args.order)
    else:
        e = parse_polynomial(args.hodge, HODGE_RING)
        series = hilb_surface(e, args.order)
    if args.euler:
        series = specialize_series(series, "euler")
    _emit(series.ring, series.coefficients, 0, args.format, out)
    return 0


def _cmd_oracle(args, out) -> int:
    if args.m_size < 0 or args.target_size < 1:
        raise _UsageError("--m-size must be >= 0 and --target-size >= 1")
    try:
        sizes = [int(s) for s in args.coeff_sizes.split(",")]
    except ValueError:
        raise _UsageError(f"bad --coeff-sizes {args.coeff_sizes!r}")
    if any(s < 0 for s in sizes):
        raise _UsageError("coefficient sizes must be nonnegative")
    exponent = FiniteMap(
        args.m_size, args.target_size, [x % args.target_size for x in range(args.m_size)]
    )
    coeffs = [FiniteMap.constant(s) for s in sizes]
    series = TruncatedSeries(
        INTEGERS, [1] + sizes + [0] * max(0, args.order - len(sizes))
    ).truncate(args.order)
    formula = integer_power_formula(series, args.m_size)
    check_budget(exponent, coeffs, args.order, args.budget)
    oracle_values = [
        geometric_power_coefficient(exponent, coeffs, k, budget=args.budget)
        for k in range(1, args.order + 1)
    ]
    formula_values = [formula.coefficients[k] for k in range(1, args.order + 1)]
    verdict = "agree" if oracle_values == formula_values else "disagree"
    if args.format == "json":
        payload = {
            "ring": "Z",
            "order": args.order,
            "coefficients": [str(v) for v in oracle_values],
            "formula": [str(v) for v in formula_values],
            "verdict": verdict,
        }
        print(json.dumps(payload), file=out)
    else:
        for k, (o, f) in enumerate(zip(oracle_values, formula_values), start=1):
            print(f"t^{k}: oracle={o} formula={f}", file=out)
        print(f"verdict: {verdict}", file=out)
    return 0


_COMMANDS = {
    "power": _cmd_power,
    "exp": _cmd_exp,
    "log": _cmd_log,
    "zeta": _cmd_zeta,
    "hilb": _cmd_hilb,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except (_UsageError, ParseError) as e:
        print(f"error: {e}", file=err)
        return 1
    except (
        NonUnitError,
        RingMismatchError,
        UnsupportedLambdaError,
        BudgetExceededError,
        OrbitCheckError,
        EquivalenceCheckError,
        FiniteSeriesCheckError,
    ) as e:
        print(f"error: {e}", file=err)
        return 2
    except (ValueError, ArityError, TypeError) as e:
        print(f"error: {e}", file=err)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
