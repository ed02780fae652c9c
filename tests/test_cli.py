import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerstruct
from powerstruct import kernels
from powerstruct.cli import main


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


def test_budget_counts_orbit_representatives():
    # {1: 3} spans 6^3 * 3^3 = 5832 tuples of points and states, above the
    # budget, but only perm(6, 3) * 3^3 / 3! = 540 orbit representatives
    rc, out, err = run(
        ["oracle", "--m-size", "6", "--target-size", "2", "--coeff-sizes", "3",
         "--order", "4", "--budget", "2000"]
    )
    assert (rc, err) == (0, "")
    assert out == (
        "t^1: oracle=18 formula=18\nt^2: oracle=135 formula=135\n"
        "t^3: oracle=540 formula=540\nt^4: oracle=1215 formula=1215\nverdict: agree\n"
    )


def test_failed_orbit_check_exit_code(monkeypatch):
    monkeypatch.setattr(kernels, "count_profile_orbits", lambda *args: -1)
    rc, out, err = run(
        ["oracle", "--m-size", "2", "--target-size", "1", "--coeff-sizes", "1",
         "--order", "1"]
    )
    assert rc == 2
    assert err == "error: profile {1: 1} has -1 orbits\n"


def counting_kernel(monkeypatch):
    calls = []
    real = kernels.count_profile_orbits

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "count_profile_orbits", count)
    return calls


def test_over_budget_run_is_refused_before_any_enumeration(monkeypatch):
    # every profile up to t^8 fits the budget; the first too large is at t^9
    calls = counting_kernel(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "9", "--target-size", "1", "--coeff-sizes",
         "2,2,2,2,2,2,2,2,2", "--order", "9", "--budget", "100000"]
    )
    assert (rc, out, len(calls)) == (2, "", 0)
    assert err == (
        "error: profile {1: 2, 2: 2, 3: 1} needs 120960 orbit representatives "
        "(budget 100000)\n"
    )


def test_oracle_enumerates_only_profiles_that_can_contribute(monkeypatch):
    # (1 + t)^2: only {1: 1} and {1: 2} have at most two parts, all of charge 1
    calls = counting_kernel(monkeypatch)
    rc, out, err = run(
        ["oracle", "--m-size", "2", "--target-size", "1", "--coeff-sizes", "1",
         "--order", "60"]
    )
    assert (rc, err, len(calls)) == (0, "", 2)
    lines = out.splitlines()
    assert lines[:3] == ["t^1: oracle=2 formula=2", "t^2: oracle=1 formula=1", "t^3: oracle=0 formula=0"]
    assert lines[60:] == ["verdict: agree"]


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
