import importlib
import inspect
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import powerstruct
from powerstruct import cli, finite_model
from powerstruct.cli import main
from powerstruct.finite_model import (
    BudgetExceededError,
    EquivalenceCheckError,
    FiniteSeriesCheckError,
    OrbitCheckError,
)
from powerstruct.lambdas import UnsupportedLambdaError
from powerstruct.parsing import ParseError
from powerstruct.rings import (
    INTEGERS,
    ArityError,
    ComputationError,
    DegreeOverflowError,
    InexactDivisionError,
    UnboundVariableError,
)
from powerstruct.series import NonUnitError, RingMismatchError, TruncatedSeries


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    rc = main(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def test_power_text_golden():
    rc, out, err = run(
        ["power", "--ring", "Z", "--lambda", "kapranov", "--order", "3",
         "--series", "1 - t", "--exponent", "2"]
    )
    assert rc == 0
    assert out == "t^0: 1\nt^1: -2\nt^2: 1\nt^3: 0\n"


def test_power_json_golden():
    rc, out, err = run(
        ["power", "--ring", "Z[u,v]", "--lambda", "poly-product", "--order", "2",
         "--series", "1 + t", "--exponent", "u*v", "--format", "json"]
    )
    assert rc == 0
    assert out == (
        '{"ring": "Z[u,v]", "order": 2,'
        ' "coefficients": ["1", "u*v", "-u*v + u^2*v^2"]}\n'
    )
    payload = json.loads(out)
    assert payload["coefficients"][2] == "-u*v + u^2*v^2"


def test_exp_golden():
    rc, out, err = run(
        ["exp", "--ring", "Z", "--lambda", "kapranov", "--order", "4",
         "--coeffs", "2,1"]
    )
    assert rc == 0
    assert out == "t^0: 1\nt^1: 2\nt^2: 4\nt^3: 6\nt^4: 9\n"


def test_log_golden():
    rc, out, err = run(
        ["log", "--ring", "Z", "--lambda", "kapranov", "--order", "4",
         "--series", "1 + 2*t + 3*t^2 + 4*t^3 + 5*t^4"]
    )
    assert rc == 0
    assert out == "t^1: 2\nt^2: 0\nt^3: 0\nt^4: 0\n"
    rc, out, err = run(
        ["log", "--ring", "Z", "--lambda", "kapranov", "--order", "4",
         "--series", "1 + 2*t + 3*t^2 + 4*t^3 + 5*t^4", "--format", "json"]
    )
    assert rc == 0
    assert out == '{"ring": "Z", "order": 4, "coefficients": ["2", "0", "0", "0"]}\n'


def test_exp_log_roundtrip():
    rc, logged, _ = run(
        ["log", "--ring", "Z", "--lambda", "binomial", "--order", "5",
         "--series", "1 + 3*t + 3*t^2 + t^3"]
    )
    assert rc == 0
    coeffs = ",".join(line.split(": ")[1] for line in logged.splitlines())
    rc, out, _ = run(
        ["exp", "--ring", "Z", "--lambda", "binomial", "--order", "5",
         "--coeffs", coeffs]
    )
    assert rc == 0
    assert out == "t^0: 1\nt^1: 3\nt^2: 3\nt^3: 1\nt^4: 0\nt^5: 0\n"


def test_power_over_z_at_order_128_is_the_integer_power():
    rng = random.Random(128)
    A = TruncatedSeries(INTEGERS, [1] + [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(128)])
    expected = [INTEGERS.format_element(c) for c in A.int_pow(-7).coefficients]
    argv = ["power", "--ring", "Z", "--lambda", "binomial", "--order", "128",
            "--series", str(A), "--exponent", "-7"]
    rc, out, err = run(argv)
    assert (rc, err) == (0, "")
    assert out == "".join(f"t^{j}: {c}\n" for j, c in enumerate(expected))
    rc, out, err = run(argv + ["--format", "json"])
    assert rc == 0
    assert json.loads(out) == {"ring": "Z", "order": 128, "coefficients": expected}


def test_exp_log_roundtrip_over_z_at_order_64():
    rng = random.Random(64)
    A = TruncatedSeries(INTEGERS, [1] + [rng.randint(-4, 4) for _ in range(64)])
    for kind in ("kapranov", "binomial", "opposite", "poly-product"):
        rc, logged, _ = run(["log", "--ring", "Z", "--lambda", kind, "--order", "64",
                             "--series", str(A), "--format", "json"])
        assert rc == 0
        bs = json.loads(logged)["coefficients"]
        assert len(bs) == 64
        rc, out, _ = run(["exp", "--ring", "Z", "--lambda", kind, "--order", "64",
                          "--coeffs", ",".join(bs), "--format", "json"])
        assert rc == 0
        assert json.loads(out)["coefficients"] == [str(c) for c in A.coefficients]


def test_zeta_text_golden():
    rc, out, err = run(["zeta", "--order", "2", "--hodge", "1 + u*v"])
    assert rc == 0
    assert out == "t^0: 1\nt^1: 1 + u*v\nt^2: 1 + u*v + u^2*v^2\n"


def test_zeta_euler_json_golden():
    rc, out, err = run(
        ["zeta", "--order", "3", "--hodge", "2", "--euler", "--format", "json"]
    )
    assert rc == 0
    assert out == '{"ring": "Z", "order": 3, "coefficients": ["1", "2", "3", "4"]}\n'


def test_hilb_local_json_golden():
    rc, out, err = run(["hilb", "--local", "--order", "3", "--format", "json"])
    assert rc == 0
    assert out == (
        '{"ring": "Z[L]", "order": 3,'
        ' "coefficients": ["1", "1", "1 + L", "1 + L + L^2"]}\n'
    )


def test_hilb_surface_golden():
    rc, out, err = run(["hilb", "--order", "2", "--hodge", "1 + u*v"])
    assert rc == 0
    assert out == "t^0: 1\nt^1: 1 + u*v\nt^2: 1 + 2*u*v + 2*u^2*v^2\n"


def test_oracle_text_golden():
    rc, out, err = run(
        ["oracle", "--m-size", "3", "--target-size", "1", "--coeff-sizes", "2",
         "--order", "2"]
    )
    assert rc == 0
    assert out == "t^1: oracle=6 formula=6\nt^2: oracle=12 formula=12\nverdict: agree\n"


def test_oracle_json_golden():
    rc, out, err = run(
        ["oracle", "--m-size", "2", "--target-size", "2", "--coeff-sizes", "1,1",
         "--order", "3", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "ring": "Z",
        "order": 3,
        "coefficients": ["2", "3", "2"],
        "formula": ["2", "3", "2"],
        "verdict": "agree",
    }


def test_determinism():
    argv = ["power", "--ring", "Z[u,v]", "--lambda", "kapranov", "--order", "4",
            "--series", "1 + u*t - v*t^2", "--exponent", "u + v"]
    first = run(argv)
    for _ in range(3):
        assert run(argv) == first


def test_parse_error_exit_code():
    rc, out, err = run(
        ["power", "--ring", "Z", "--lambda", "kapranov", "--order", "2",
         "--series", "1 + + t", "--exponent", "1"]
    )
    assert rc == 1
    assert err == "error: unexpected '+' at offset 4\n"
    assert out == ""


def test_usage_error_exit_code():
    rc, out, err = run(["bogus"])
    assert rc == 1
    rc, out, err = run(["zeta", "--order", "3"])
    assert rc == 1


def test_computation_error_exit_code():
    rc, out, err = run(
        ["power", "--ring", "Z", "--lambda", "kapranov", "--order", "2",
         "--series", "2 + t", "--exponent", "1"]
    )
    assert rc == 2
    assert err == "error: only series with constant term 1 decompose\n"

    rc, out, err = run(
        ["power", "--ring", "Z[u,v]", "--lambda", "binomial", "--order", "2",
         "--series", "1 + t", "--exponent", "u"]
    )
    assert rc == 2

    rc, out, err = run(
        ["log", "--ring", "Z[u,v]", "--lambda", "kapranov", "--order", "2",
         "--series", "1+u*t"]
    )
    assert rc == 2
    assert err == (
        "error: kapranov lambda is defined for integer exponents only; "
        "got u (use poly-product)\n"
    )

    rc, out, err = run(
        ["oracle", "--m-size", "5", "--target-size", "1", "--coeff-sizes", "4,4",
         "--order", "6", "--budget", "100"]
    )
    assert rc == 2
    assert err == "error: profile {1: 2} needs 160 orbit representatives (budget 100)\n"


def test_degree_overflow_exit_code():
    rc, out, err = run(
        ["power", "--ring", "Z[u]", "--lambda", "poly-product", "--series",
         "1+u^2147483648*t", "--exponent", "2", "--order", "2"]
    )
    assert (rc, out) == (2, "")
    assert err == "error: exponent 2147483648 of variable u exceeds the limit 2147483647\n"

    rc, out, err = run(
        ["power", "--ring", "Z[u]", "--lambda", "poly-product", "--series",
         "1+u^2147483647*t", "--exponent", "2", "--order", "1"]
    )
    assert (rc, out, err) == (0, "t^0: 1\nt^1: 2*u^2147483647\n", "")


@pytest.mark.parametrize("series, exponent", [
    ("1 + t + t^3000000000", 2147483648),
    ("1 + t + t^2147483648", 2147483648),
    ("1 + t^2000000000*t^2000000000", 4000000000),
])
def test_a_t_exponent_over_the_limit_exits_2(series, exponent):
    # t is a variable of the series ring, with the degree limit of every other
    assert run(["power", "--ring", "Z", "--lambda", "kapranov", "--order", "2",
                "--series", series, "--exponent", "2"]) == (
        2, "", f"error: exponent {exponent} of variable t exceeds the limit 2147483647\n"
    )


@pytest.mark.parametrize("series, message", [
    ("1 + u^3000000000*t + + 1", "unexpected '+' at offset 21"),
    ("1 + u^3000000000*t + w", "variable 'w' is not in the ring Z[u] at offset 21"),
])
def test_a_usage_error_wins_over_an_earlier_exponent_over_the_limit(series, message):
    assert run(["power", "--ring", "Z[u]", "--lambda", "poly-product", "--order", "2",
                "--series", series, "--exponent", "2"]) == (1, "", f"error: {message}\n")


def test_parse_warnings_go_to_the_error_stream_of_main():
    assert run(["power", "--order", "2", "--lambda", "kapranov", "--series", "1 + t + t^5",
                "--exponent", "2"]) == (
        0, "t^0: 1\nt^1: 2\nt^2: 1\n", "warning: degree-5 term discarded (order 2)\n"
    )
    assert run(["log", "--order", "1", "--lambda", "kapranov", "--series", "1 + 2*t + t^2147483647"]) == (
        0, "t^1: 2\n", "warning: degree-2147483647 term discarded (order 1)\n"
    )


def test_log_names_the_overflow_of_the_lowest_degree():
    # peeling b_1 overflows t^2 (u^2^31), t^3 and t^4 at once; the error
    # names t^2's exponent, as the series product that checks degrees
    # bottom-up does
    rc, out, err = run(
        ["log", "--ring", "Z[u]", "--lambda", "poly-product", "--order", "4", "--series",
         "1+u^1073741824*t+u^1073741829*t^2+u^1073741830*t^3"]
    )
    assert (rc, out) == (2, "")
    assert err == "error: exponent 2147483648 of variable u exceeds the limit 2147483647\n"


def test_a_polynomial_product_names_the_exponent_its_series_product_names():
    # m * b_1 = (u^2^30 - u^(2^30-1)) * (u^2^30 + u^(2^30+1)): the first term
    # pair above the limit, u^2^31, cancels; the product is checked before its
    # zero coefficients are dropped, as a series product of order 0 is
    rc, out, err = run(
        ["power", "--ring", "Z[u]", "--lambda", "poly-product", "--order", "1", "--series",
         "1 + (u^1073741824 + u^1073741825)*t", "--exponent", "u^1073741824 - u^1073741823"]
    )
    assert (rc, out) == (2, "")
    assert err == "error: exponent 2147483648 of variable u exceeds the limit 2147483647\n"


def test_budget_counts_orbit_representatives(monkeypatch):
    # {1: 3} spans 6^3 * 3^3 = 5832 tuples of points and states, above the
    # budget, but only perm(6, 3) * 3^3 / 3! = 540 orbit representatives;
    # the profiles of each of the four coefficients are walked once, and one
    # particle count to t^4 checks them all
    walked = []  # the order k of every walk of the charge profiles
    real = finite_model._profiles

    def walk(*args):
        walked.append(args[2])
        return real(*args)

    monkeypatch.setattr(finite_model, "_profiles", walk)
    calls = counting_particle_counts(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "6", "--target-size", "2", "--coeff-sizes", "3",
         "--order", "4", "--budget", "2000"]
    )
    assert (rc, err) == (0, "")
    assert out == (
        "t^1: oracle=18 formula=18\nt^2: oracle=135 formula=135\n"
        "t^3: oracle=540 formula=540\nt^4: oracle=1215 formula=1215\nverdict: agree\n"
    )
    assert walked == [1, 2, 3, 4]
    assert [args[2] for args in calls] == [4]


def test_failed_orbit_check_exit_code(monkeypatch):
    monkeypatch.setattr(finite_model, "particle_configuration_count", lambda *args: [1, 3])
    rc, out, err = run(
        ["oracle", "--m-size", "2", "--target-size", "1", "--coeff-sizes", "1",
         "--order", "1"]
    )
    assert (rc, out) == (2, "")
    assert err == "error: orbit total 2 != particle-configuration count 3\n"


def counting_particle_counts(monkeypatch):
    """Record every particle count the oracle runs, its O(|M|) step."""
    calls = []
    real = finite_model.particle_configuration_count

    def count(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(finite_model, "particle_configuration_count", count)
    return calls


def refusing_maps(monkeypatch):
    """Make every FiniteMap construction fail, so a run that succeeds or is
    refused by name provably built none."""
    def refuse(self, *args):
        raise AssertionError("the oracle built a finite map")

    monkeypatch.setattr(finite_model.FiniteMap, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a finite map"):
        finite_model.FiniteMap.constant(1)


def counting_profiles(monkeypatch):
    """Record every (charge profile, orbit count) pair admitted by the walk
    that counts each coefficient."""
    calls = []
    real = finite_model._profiles

    def profiles(*args):
        counted = real(*args)
        calls.extend(counted)
        return counted

    monkeypatch.setattr(finite_model, "_profiles", profiles)
    return calls


def test_over_budget_run_is_refused_before_any_enumeration(monkeypatch):
    # every profile up to t^8 fits the budget; the first too large is at t^9,
    # and no particle count runs before the refusal
    calls = counting_particle_counts(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "9", "--target-size", "1", "--coeff-sizes",
         "2,2,2,2,2,2,2,2,2", "--order", "9", "--budget", "100000"]
    )
    assert (rc, out, len(calls)) == (2, "", 0)
    assert err == (
        "error: profile {1: 2, 2: 2, 3: 1} needs 120960 orbit representatives "
        "(budget 100000)\n"
    )


def test_over_budget_oracle_is_refused_before_the_formula_runs(monkeypatch):
    def formula(*args):
        pytest.fail("integer_power_formula ran before the budget refused the run")

    monkeypatch.setattr(finite_model, "integer_power_formula", formula)
    calls = counting_particle_counts(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "12", "--target-size", "1", "--coeff-sizes",
         ",".join(["1"] * 60), "--order", "60", "--budget", "10"]
    )
    assert (rc, out, len(calls)) == (2, "", 0)
    assert err == "error: profile {1: 1} needs 12 orbit representatives (budget 10)\n"


def test_an_oversized_exponent_is_refused_before_its_map_is_built(monkeypatch):
    # every X_i up to t^1 is empty, so no profile needs a representative; the
    # source size alone is over the budget, and a map of 10^12 points is
    # never allocated, and no particle count runs
    calls = counting_particle_counts(monkeypatch)
    for fmt in ("text", "json"):
        rc, out, err = run(
            ["oracle", "--m-size", str(10**12), "--target-size", "1", "--coeff-sizes",
             "0", "--order", "1", "--format", fmt]
        )
        assert (rc, out, len(calls)) == (2, "", 0)
        assert err == (
            "error: the exponent map has 1000000000000 source points (budget 10000000)\n"
        )


def test_oversized_coefficient_sets_are_refused_before_their_maps_are_built(monkeypatch):
    # the budget walk needs the sizes only; a set of 10^12 points is never
    # built, and no particle count runs
    refusing_maps(monkeypatch)
    calls = counting_particle_counts(monkeypatch)
    for fmt in ("text", "json"):
        rc, out, err = run(
            ["oracle", "--m-size", "1", "--target-size", "1", "--coeff-sizes",
             str(10**12), "--order", "1", "--budget", "10", "--format", fmt]
        )
        assert (rc, out, len(calls)) == (2, "", 0)
        assert err == (
            "error: profile {1: 1} needs 1000000000000 orbit representatives (budget 10)\n"
        )


@pytest.mark.parametrize(
    "m_size, coeff_sizes, argv, value",
    [
        # m = 0: no profile has a part, so the budget walk never sees the set
        ("0", "1000000000000", ["--budget", "10"], 0),
        # X_3 lies past the order, so the budget walk never sees it
        ("3", "1,1,1000000000000", [], 3),
    ],
    ids=["empty-exponent", "set-past-the-order"],
)
def test_sets_the_budget_walk_skips_are_never_built(monkeypatch, m_size, coeff_sizes, argv, value):
    # a map of 10^12 points would not fit in memory; the answer needs only sizes
    refusing_maps(monkeypatch)
    base = ["oracle", "--m-size", m_size, "--target-size", "1", "--coeff-sizes",
            coeff_sizes, "--order", "1", *argv]
    assert run(base) == (0, f"t^1: oracle={value} formula={value}\nverdict: agree\n", "")
    payload = {"ring": "Z", "order": 1, "coefficients": [str(value)],
               "formula": [str(value)], "verdict": "agree"}
    assert run(base + ["--format", "json"]) == (0, json.dumps(payload) + "\n", "")


def test_a_failed_formula_cross_check_exits_2(monkeypatch):
    real = finite_model.integer_power_formula

    def off_at_t2(series, m):
        coefficients = list(real(series, m).coefficients)
        coefficients[2] += 1
        return TruncatedSeries(INTEGERS, coefficients)

    monkeypatch.setattr(finite_model, "integer_power_formula", off_at_t2)
    for fmt in ("text", "json"):
        rc, out, err = run(
            ["oracle", "--m-size", "3", "--target-size", "1", "--coeff-sizes", "2",
             "--order", "2", "--format", fmt]
        )
        assert (rc, out) == (2, "")
        assert err == "error: at t^2 the oracle counts 12 and the formula gives 13\n"


def test_oracle_enumerates_only_profiles_that_can_contribute(monkeypatch):
    # (1 + t)^2: only {1: 1} and {1: 2} have at most two parts, all of charge 1;
    # the walk of each order admits each once, and counts it
    calls = counting_profiles(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "2", "--target-size", "1", "--coeff-sizes", "1",
         "--order", "60"]
    )
    assert (rc, err) == (0, "")
    assert calls == [({1: 1}, 2), ({1: 2}, 1)]
    lines = out.splitlines()
    assert lines[:3] == ["t^1: oracle=2 formula=2", "t^2: oracle=1 formula=1", "t^3: oracle=0 formula=0"]
    assert lines[60:] == ["verdict: agree"]


def test_oracle_skips_profiles_with_an_empty_coefficient_set(monkeypatch):
    # X_2 is empty, so every profile with a part 2 adds 0 orbits
    calls = counting_profiles(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "3", "--target-size", "2", "--coeff-sizes", "2,0,1",
         "--order", "5"]
    )
    assert (rc, err, len(calls)) == (0, "", 6)
    assert out == (
        "t^1: oracle=6 formula=6\nt^2: oracle=12 formula=12\n"
        "t^3: oracle=11 formula=11\nt^4: oracle=12 formula=12\n"
        "t^5: oracle=12 formula=12\nverdict: agree\n"
    )
    assert all(i != 2 for profile, _reps in calls for i in profile)


def test_an_oracle_of_order_0_runs_no_particle_count(monkeypatch):
    # M has as many points as the budget allows, so a particle count would
    # take 10^7 steps; with no order to check none runs
    def refuse(*args):
        pytest.fail("the oracle ran a particle count with no order to check")

    monkeypatch.setattr(finite_model, "particle_configuration_count", refuse)
    base = ["oracle", "--m-size", "10000000", "--target-size", "1", "--coeff-sizes", "1",
            "--order", "0"]
    assert run(base) == (0, "verdict: agree\n", "")
    payload = {"ring": "Z", "order": 0, "coefficients": [], "formula": [], "verdict": "agree"}
    assert run(base + ["--format", "json"]) == (0, json.dumps(payload) + "\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m-size", "-1", "--target-size", "1", "--coeff-sizes", "2"],
         "--m-size must be >= 0 and --target-size >= 1"),
        (["--m-size", "3", "--target-size", "0", "--coeff-sizes", "2"],
         "--m-size must be >= 0 and --target-size >= 1"),
        (["--m-size", "3", "--target-size", "1", "--coeff-sizes", "1,"], "bad --coeff-sizes '1,'"),
        (["--m-size", "3", "--target-size", "1", "--coeff-sizes", "1,-2"],
         "coefficient sizes must be nonnegative"),
    ],
    ids=["negative-m", "empty-target", "bad-sizes", "negative-size"],
)
def test_oracle_input_refusals_are_usage_errors(argv, message):
    assert run(["oracle", "--order", "2", *argv]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("module", ["powerstruct", "powerstruct.cli"])
def test_python_m_runs_the_cli(module):
    src = str(Path(powerstruct.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    proc = python_m("power", "--ring", "Z", "--lambda", "kapranov", "--order", "3",
                    "--series", "1 - t", "--exponent", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "t^0: 1\nt^1: -2\nt^2: 1\nt^3: 0\n", "")
    proc = python_m("bogus")
    assert proc.returncode == 1 and proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--ring", "Z", "--lambda", "kapranov", "--series", "1 + t", "--exponent", "2"],
        ["exp", "--ring", "Z", "--lambda", "kapranov", "--coeffs", "1"],
        ["log", "--ring", "Z", "--lambda", "kapranov", "--series", "1 + t"],
        ["zeta", "--hodge", "1 + u*v"],
        ["hilb", "--local"],
        ["oracle", "--m-size", "3", "--target-size", "1", "--coeff-sizes", "2"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("order", [-1, -2])
def test_negative_order_is_a_usage_error(argv, order):
    rc, out, err = run(argv + ["--order", str(order)])
    assert (rc, out, err) == (1, "", f"error: order must be nonnegative, got {order}\n")


POWER_ARGV = ["power", "--ring", "Z", "--lambda", "kapranov", "--order", "1",
              "--series", "1", "--exponent", "1"]


# each ends in a text option and a value that begins with a minus sign
MINUS_VALUES = [
    ["power", "--ring", "Z[u]", "--lambda", "poly-product", "--order", "2", "--series", "1 + t",
     "--exponent", "-u"],
    ["log", "--ring", "Z", "--lambda", "kapranov", "--order", "2", "--series", "-t+1"],
    ["zeta", "--order", "1", "--hodge", "-u*v"],
    ["hilb", "--order", "3", "--euler", "--hodge", "-1+u*v"],
    ["exp", "--ring", "Z[u]", "--lambda", "poly-product", "--order", "2", "--coeffs", "-u,1"],
    ["exp", "--ring", "Z", "--lambda", "kapranov", "--order", "2", "--coeffs", "-1,2"],
]


@pytest.mark.parametrize("argv", MINUS_VALUES, ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_a_value_that_begins_with_a_minus_sign_prints_what_its_equals_form_prints(monkeypatch, argv):
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    rc, out, err = run(joined)
    assert (rc, err) == (0, "") and out
    assert run(argv) == (rc, out, err)
    # and when main reads sys.argv
    monkeypatch.setattr(sys, "argv", ["powerstruct", *argv])
    out_stream, err_stream = io.StringIO(), io.StringIO()
    assert (main(None, out=out_stream, err=err_stream), out_stream.getvalue()) == (0, out)


ZETA_ARGV = ["zeta", "--order", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # a missing value followed by the next option
        (ZETA_ARGV + ["--hodge", "--format", "json"], "argument --hodge: expected one argument"),
        (POWER_ARGV[:-1] + ["--format", "json"], "argument --exponent: expected one argument"),
        (ZETA_ARGV + ["--hodge", "--euler"], "argument --hodge: expected one argument"),
        # -h after a text option stays an option
        (ZETA_ARGV + ["--hodge", "-h"], "argument --hodge: expected one argument"),
        # an unknown option, and a text option of another subcommand
        (ZETA_ARGV + ["--hodge", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (ZETA_ARGV + ["--series", "-t", "--hodge", "1"], "unrecognized arguments: --series -t"),
        (ZETA_ARGV + ["--hodge", "1", "-x"], "unrecognized arguments: -x"),
    ],
)
def test_options_around_minus_values_are_refused_as_argparse_refuses_them(argv, message):
    assert run(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["zeta", "-h"], ZETA_ARGV + ["--hodge", "-u", "-h"],
                                  POWER_ARGV[:-1] + ["-u", "--help"]])
def test_help_is_still_printed_after_a_minus_value(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        run(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: powerstruct")


ORACLE_ARGV = ["oracle", "--m-size", "3", "--target-size", "1", "--coeff-sizes", "2", "--order", "2"]


def test_a_negative_budget_is_a_usage_error():
    assert run(ORACLE_ARGV + ["--budget", "-5"]) == (1, "", "error: budget must be nonnegative, got -5\n")
    assert run(ORACLE_ARGV + ["--budget", "0"]) == (
        2, "", "error: profile {1: 1} needs 6 orbit representatives (budget 0)\n"
    )


EXIT_2_ERRORS = [
    (DegreeOverflowError("u", 2**31), "exponent 2147483648 of variable u exceeds the limit 2147483647"),
    (InexactDivisionError("7 / 2 leaves 1"), "7 / 2 leaves 1"),
    (NonUnitError("not a unit"), "not a unit"),
    (RingMismatchError("Z against Z[u]"), "Z against Z[u]"),
    (UnsupportedLambdaError("u is no integer"), "u is no integer"),
    (BudgetExceededError("over budget"), "over budget"),
    (OrbitCheckError("orbits disagree"), "orbits disagree"),
    (EquivalenceCheckError("not an equivalence"), "not an equivalence"),
    (FiniteSeriesCheckError("series disagree"), "series disagree"),
]

EXIT_1_ERRORS = [
    (ValueError("bad value"), "bad value"),
    (TypeError("bad type"), "bad type"),
    (ParseError("unexpected '+'", 4), "unexpected '+' at offset 4"),
    (ArityError("Z[u] against Z[v]"), "Z[u] against Z[v]"),
]

# the only exceptions of the package that are not computation errors
NOT_COMPUTATION_ERRORS = {ArityError, UnboundVariableError, ParseError}


def raising(error):
    def command(args, out, err):
        raise error
    return command


@pytest.mark.parametrize(
    "error, code, message",
    [pytest.param(e, 2, m, id=type(e).__name__) for e, m in EXIT_2_ERRORS]
    + [pytest.param(e, 1, m, id=type(e).__name__) for e, m in EXIT_1_ERRORS],
)
def test_an_error_class_decides_the_exit_code(monkeypatch, error, code, message):
    monkeypatch.setitem(cli._COMMANDS, "power", raising(error))
    assert run(POWER_ARGV) == (code, "", f"error: {message}\n")


def test_every_check_error_of_the_package_exits_2():
    classes = set()
    for info in pkgutil.iter_modules(powerstruct.__path__, "powerstruct."):
        module = importlib.import_module(info.name)
        classes.update(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        )
    computation = {c for c in classes if issubclass(c, ComputationError)}
    assert classes - computation == NOT_COMPUTATION_ERRORS
    # each one is also in the exit-code test above
    assert computation == {ComputationError} | {type(e) for e, _ in EXIT_2_ERRORS}
