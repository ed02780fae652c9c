"""Tests of the benchmark itself: input generation, checks and trace arithmetic."""

import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import powerstruct as ps  # noqa: E402
import powerstruct.cli  # noqa: E402,F401  (makes ps.cli available)
from perfbench import layers, workloads  # noqa: E402
from perfbench.run import tail  # noqa: E402
from perfbench.speed import Speed  # noqa: E402
from perfbench.tracing import Target, Tracer, self_times  # noqa: E402


def in_process_cli(argv):
    """What the child process would report, without starting one."""
    out, err = io.StringIO(), io.StringIO()
    return ps.cli.main(argv, out=out, err=err), out.getvalue()


def build(name, seed):
    runner = workloads.CliRunner(ROOT)
    runner.hook = in_process_cli
    return workloads.build(name, ps, seed, ROOT, runner)


def inputs(name, seed):
    first_round = next(build(name, seed).rounds())
    return [(job.kind, job.size) for job in first_round]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert inputs(name, 1) == inputs(name, 1)
    assert inputs(name, 1) != inputs(name, 2)


def test_lambda_uv_inputs_are_distinct():
    rounds = build("lambda-uv", 3).rounds()
    seen = [(job.kind, job.size["lambda"], job.size["order"], job.size["input"])
            for _ in range(3) for job in next(rounds) if job.kind != "hilb_local"]
    assert len(seen) == len(set(seen))


def corrupt(result):
    if isinstance(result, tuple):  # (exit code, stdout) of a CLI job
        code, out = result
        return code, out + "x"
    if isinstance(result, int):
        return result + 1
    if isinstance(result, list):
        first = result[0]
        one = 1 if isinstance(first, int) else ps.SparsePolynomial.constant(first.variables, 1)
        return [first + one] + result[1:]
    coeffs = list(result.coefficients)
    coeffs[1] = coeffs[1] + result.ring.one
    return ps.TruncatedSeries(result.ring, coeffs)


def small_jobs(name):
    """The warm-up jobs cover every job kind; the CLI round is small enough."""
    wl = build(name, 5)
    return wl.warmups + (next(wl.rounds()) if name == "cli" else [])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_check_accepts_the_result_and_flags_a_corrupted_one(name):
    jobs = small_jobs(name)
    assert {job.kind for job in jobs} >= {job.kind for job in next(build(name, 5).rounds())}
    for job in jobs:
        result = job.run()
        assert job.check(result), (job.kind, job.size)
        assert not job.check(corrupt(result)), (job.kind, job.size)


def test_cli_check_flags_a_wrong_exit_code():
    for job in small_jobs("cli"):
        code, out = job.run()
        assert not job.check((code + 1, out)), job.kind


def test_self_times_on_a_synthetic_span_tree():
    # name, start, end, parent, job, excluded
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0.0],
        ["a", 1.0, 4.0, 0, 0, 0.5],
        ["b", 3.0, 6.0, 0, 0, 0.0],  # overlaps a: the union counts once
        ["a.child", 2.0, 3.0, 1, 0, 0.0],
        ["late", 9.5, 11.0, 0, 0, 0.0],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5, 3 - 1 - 0.5, 3.0, 1.0, 1.5])


def test_missing_traced_names_are_reported_absent():
    tracer = Tracer()
    original = ps.lambdas.power
    absent = tracer.install([
        Target("powerstruct.rings:Ring.no_such_method", "rings.gone"),
        Target("powerstruct.no_such_module:count", "finite_model.kernel"),
        Target("powerstruct.lambdas:power", "lambdas.power"),
    ])
    try:
        assert absent == ["powerstruct.rings:Ring.no_such_method", "powerstruct.no_such_module:count"]
        assert ps.lambdas.power is not original and ps.power is ps.lambdas.power
    finally:
        tracer.uninstall()
    assert ps.lambdas.power is original and ps.power is original
    missing = layers.absent_metrics({"finite_model.kernel"})
    assert "finite_model.kernel.calls" in missing and "finite_model.orbits" not in missing


def test_traced_job_counts_layers_and_adds_up():
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        job = small_jobs("lambda-uv")[4]  # power, poly-product
        run = tracer.open("harness.run")
        span = tracer.open("harness.job", job=0)
        tracer.active = True
        job.run()
        tracer.active = False
        tracer.close(span)
        tracer.end_job()
        tracer.close(run)
    finally:
        tracer.uninstall()
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    metrics = layers.per_layer(tracer, wall, 1.0, [])
    assert job.kind == "power"
    assert metrics["rings.mul.calls"] > 0 and metrics["finite_model.kernel.calls"] == 0
    assert 0 < metrics["lambdas.lambda_series.useful_ratio"] < 1
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_tail_has_ten_jobs_beyond_it():
    value, pct, beyond = tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_speed_scales_each_time_by_the_reference_around_it():
    speed = Speed("loop")
    # the reference took the nominal time until t=20, then twice as long
    for t in range(40):
        speed.at.append(float(t))
        speed.took.append(speed.nominal * (1 if t < 20 else 2))
    assert speed.scale([5.5, 30.5], [1.0, 1.0]) == [1.0, 0.5]
    # a job at the switch sees five samples of each speed
    assert speed.factor(20.0) == pytest.approx(1 / 1.5)
