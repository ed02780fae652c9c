"""Command-line interface.

Subcommands: power, exp, log, zeta, hilb, oracle.  Output is deterministic
text (one line per coefficient) or JSON with the schema
{"ring": str, "order": int, "coefficients": [str]}; coefficients are printed
in graded-lexicographic normal form.  Exit codes: 0 success, 1 usage or parse
error (any ValueError or TypeError), 2 computation error (any
rings.ComputationError: a non-unit series, an oracle budget exceeded, an
exponent above the per-variable degree limit, a failed internal cross-check
or exact division).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .finite_model import DEFAULT_BUDGET, oracle_coefficients
from .lambdas import LAMBDA_KINDS, LambdaStructure, exp_map, log_map, power
from .motivic import HODGE_RING, hilb_local_surface, hilb_surface, hodge_zeta, specialize_series
from .parsing import parse_polynomial, parse_ring, parse_series
from .rings import ComputationError, Ring


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    # It catches only ArgumentError, so this ValueError reaches main.
    def error(self, message):
        raise ValueError(message)


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

    p = sub.add_parser("oracle", help="geometric orbit count vs the integer power formula")
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


# The options of each subcommand that take a series or polynomial text.
# argparse reads a following "-..." that is not a plain negative number as
# an option, so _join_minus_values joins such a value to its option with "=".
_TEXT_OPTIONS = {"power": ("--series", "--exponent"), "exp": ("--coeffs",),
                 "log": ("--series",), "zeta": ("--hodge",), "hilb": ("--hodge",)}


def _join_minus_values(argv: Sequence[str]) -> list:
    """argv with each text option whose value starts with a single "-" written
    as --option=value.  A following "--..." or "-h" stays an option, so a
    missing value and -h behave as they do in argparse."""
    options = _TEXT_OPTIONS.get(argv[0], ()) if argv else ()
    joined = []
    for arg in argv:
        if (joined and joined[-1] in options and arg.startswith("-")
                and not arg.startswith("--") and arg != "-h"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


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


def _cmd_power(args, out, err) -> int:
    ring = parse_ring(args.ring)
    series = parse_series(args.series, ring, args.order, err)
    exponent = parse_polynomial(args.exponent, ring)
    lam = LambdaStructure(args.lam, ring)
    _emit(ring, power(series, exponent, lam).coefficients, 0, args.format, out)
    return 0


def _cmd_exp(args, out, err) -> int:
    ring = parse_ring(args.ring)
    bs = [parse_polynomial(piece, ring) for piece in args.coeffs.split(",")]
    lam = LambdaStructure(args.lam, ring)
    _emit(ring, exp_map(bs, lam, args.order).coefficients, 0, args.format, out)
    return 0


def _cmd_log(args, out, err) -> int:
    ring = parse_ring(args.ring)
    series = parse_series(args.series, ring, args.order, err)
    lam = LambdaStructure(args.lam, ring)
    _emit(ring, log_map(series, lam), 1, args.format, out)
    return 0


def _cmd_zeta(args, out, err) -> int:
    e = parse_polynomial(args.hodge, HODGE_RING)
    series = hodge_zeta(e, args.order)
    if args.euler:
        series = specialize_series(series, "euler")
    _emit(series.ring, series.coefficients, 0, args.format, out)
    return 0


def _cmd_hilb(args, out, err) -> int:
    if args.local:
        series = hilb_local_surface(args.order)
    else:
        e = parse_polynomial(args.hodge, HODGE_RING)
        series = hilb_surface(e, args.order)
    if args.euler:
        series = specialize_series(series, "euler")
    _emit(series.ring, series.coefficients, 0, args.format, out)
    return 0


def _cmd_oracle(args, out, err) -> int:
    if args.m_size < 0 or args.target_size < 1:
        raise ValueError("--m-size must be >= 0 and --target-size >= 1")
    try:
        sizes = [int(s) for s in args.coeff_sizes.split(",")]
    except ValueError:
        raise ValueError(f"bad --coeff-sizes {args.coeff_sizes!r}")
    # the counts equal the formula's coefficients, or oracle_coefficients raises
    values = [str(v) for v in oracle_coefficients(args.m_size, sizes, args.order, args.budget)]
    if args.format == "json":
        payload = {
            "ring": "Z",
            "order": args.order,
            "coefficients": values,
            "formula": values,
            "verdict": "agree",
        }
        print(json.dumps(payload), file=out)
    else:
        for k, v in enumerate(values, start=1):
            print(f"t^{k}: oracle={v} formula={v}", file=out)
        print("verdict: agree", file=out)
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
        args = parser.parse_args(_join_minus_values(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args, out, err)
    except ComputationError as e:
        print(f"error: {e}", file=err)
        return 2
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=err)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
