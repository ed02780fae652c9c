"""Run one seeded powerstruct workload and print its metrics.

    python3 perfbench/run.py --workload lambda-uv --seed 1 --seconds 25 --trace 0

`--workload all` runs the four workloads one after another, each in its own
process, and ends with one summary line.  Run it from the root of a checkout; it imports powerstruct from `src/` of
that checkout and nothing else.  Workloads (closed loop: one client, one job
in flight, the `cli` workload runs one child process at a time):

  lambda-uv  Log/Exp/power over Z[u,v] (poly-product, opposite), orders
             6-12, plus hodge_zeta, hilb_surface, hilb_local_surface and
             specialize_series at orders 8-16
  lambda-z   Log/Exp/power over Z (kapranov, binomial), orders 16-64, each
             base raised to several exponents; integer_power_formula 12-24
  oracle     geometric_power_coefficient (including the three cases of
             benchmarks/bench_orbit_kernel.py) and finite_series
  cli        the six subcommands as child processes, text and json, plus
             invocations that must exit 1 (parse error) or 2 (non-unit
             series, exceeded --budget)

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics: jobs_per_s (jobs / summed job latency; checks and input
generation are outside the timed spans), job_p50_ms, job_tail_ms (the
latency with exactly ten jobs above it), peak_rss_mb (of this process; of
the largest child for cli) and setup_s (median of several set-ups, each an
import of powerstruct, input generation and one warm-up job per job kind).
Every time among them is scaled to a nominal machine speed by a reference
task timed next to each job and set-up (perfbench/speed.py); the plain wall
times and fail_ratio are printed on the lines above it.  With `--trace 1` the same
jobs run with every layer wrapped (perfbench/layers.py) and the JSON holds
the per-layer metrics.  Either way a record with the environment, every
job's input size and a per-order latency table is written to
`.perfbench/<workload>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = {"cli": 5}
DEFAULT_SETUP_REPS = 11
# the reference task of perfbench/speed.py that each workload is scaled by
REFERENCE = {"cli": "spawn"}
DEFAULT_REFERENCE = "loop"


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """A fresh import of powerstruct from this checkout's src/."""
    for name in [n for n in sys.modules if n == "powerstruct" or n.startswith("powerstruct.")]:
        del sys.modules[name]
    ps = importlib.import_module("powerstruct")
    importlib.import_module("powerstruct.cli")
    if not Path(ps.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"powerstruct was imported from {ps.__file__}, not from this checkout")
    return ps


# -- environment ------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (no search upwards)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    try:
        kernels = importlib.import_module("powerstruct.kernels")
    except ImportError:
        kernels = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "kernel_backend": getattr(kernels, "BACKEND", "absent"),
    }


# -- measuring ---------------------------------------------------------------------


def safe_check(job, result) -> bool:
    try:
        return bool(job.check(result))
    except Exception:  # a check that raises is a failed job, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return False


def setup(name: str, seed: int, reps: int, speed):
    """Set up `reps` times from a fresh import, with a speed sample before
    each; returns the last set-up, the start and wall time of each."""
    from perfbench import workloads

    starts, times, warm_ok = [], [], True
    for _ in range(reps):
        speed.sample()
        t0 = clock()
        ps = import_library()
        wl = workloads.build(name, ps, seed, ROOT)
        results = [job.run() for job in wl.warmups]
        starts.append(t0)
        times.append(clock() - t0)
        warm_ok &= all(safe_check(job, r) for job, r in zip(wl.warmups, results))
    speed.sample()
    return ps, wl, starts, times, warm_ok


class Rows:
    """Per-job results in flat arrays, so that a run with more (faster) jobs
    adds little to the process's own memory, which peak_rss_mb reports."""

    def __init__(self):
        self.cells = {}  # input size without the input itself -> cell id
        self.cell, self.round = array("i"), array("i")
        self.start, self.latency, self.ok = array("d"), array("d"), array("b")
        self.scaled = self.latency  # until a run scales them by its speed samples

    def add(self, job, start: float, latency: float, ok: bool, round_: int) -> None:
        size = tuple((k, v) for k, v in job.size.items() if k not in ("input", "argv"))
        self.cell.append(self.cells.setdefault((job.kind,) + size, len(self.cells)))
        self.start.append(start)
        self.latency.append(latency)
        self.ok.append(ok)
        self.round.append(round_)

    def __len__(self) -> int:
        return len(self.latency)

    def record(self) -> dict:
        sizes = [{"kind": key[0], **dict(key[1:])} for key in self.cells]
        return {"cells": sizes, "cell": list(self.cell), "latency_s": list(self.latency),
                "scaled_latency_s": list(self.scaled), "ok": list(self.ok), "round": list(self.round)}


def measure(wl, seconds: float, tracer=None, max_rounds=None, speed=None) -> Rows:
    """Run whole rounds until `seconds` have passed.  With `speed`, the
    reference task is timed before each job and after the last, and the
    rows carry the scaled latencies."""
    rows = Rows()
    start = clock()
    run_span = tracer.open("harness.run") if tracer else None
    for index, jobs in enumerate(wl.rounds()):
        for job in jobs:
            if speed:
                speed.sample()
            if tracer:
                span = tracer.open("harness.job", job=len(rows))
                tracer.active = True
            t0 = clock()
            try:
                result, error = job.run(), None
            except Exception as exc:  # counted as a failed job
                result, error = None, exc
            t1 = clock()
            if tracer:
                tracer.active = False
                tracer.close(span)
                tracer.end_job()
                check_span = tracer.open("harness.check")
            ok = error is None and safe_check(job, result)
            if tracer:
                tracer.close(check_span)
            if error is not None:
                print(f"perfbench: {job.kind} {job.size} raised {error!r}", file=sys.stderr)
            rows.add(job, t0, t1 - t0, ok, index)
        if clock() - start >= seconds or (max_rounds and index + 1 >= max_rounds):
            break
    if tracer:
        tracer.close(run_span)
    if speed:
        speed.sample()
        rows.scaled = speed.scale(rows.start, rows.latency)
    return rows


def tail(latencies):
    """(value, percentile, jobs beyond): the highest percentile with >= 10 jobs above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def times(latencies, setup_times, done):
    """The time metrics of one set of job latencies and set-up times."""
    value, pct, beyond = tail(latencies)
    metrics = {
        "jobs_per_s": (done / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (value * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, f"p{pct:.2f} of {len(latencies)} jobs, {beyond} beyond it"


def end_to_end(rows, setup_scaled, name, speed):
    metrics, tail_note = times(rows.scaled, setup_scaled, sum(rows.ok))
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    notes = {
        "jobs_per_s": f"times scaled to a {speed.kind} reference of {speed.nominal * 1e3:g} ms",
        "job_tail_ms": tail_note,
        "peak_rss_mb": "largest child" if name == "cli" else "this process",
        "setup_s": f"median of {len(setup_scaled)} set-ups",
    }
    return metrics, notes


def per_order_table(rows):
    """Median latency in ms per (kind, ring, order): the scaling view."""
    groups = {}
    for cell, latency in zip(rows.cell, rows.latency):
        groups.setdefault(cell, []).append(latency)
    table = {}
    for key, cell in rows.cells.items():
        size = dict(key[1:])
        table.setdefault((key[0], size["ring"], size["order"]), []).extend(groups[cell])
    return [
        {"kind": kind, "ring": ring, "order": order, "jobs": len(v), "median_ms": statistics.median(v) * 1e3}
        for (kind, ring, order), v in sorted(table.items(), key=lambda item: str(item[0]))
    ]


# -- traced run ---------------------------------------------------------------------


class ChildTrace:
    """CliRunner hook for the traced run: starts the child with tracing on
    and merges its spans under the current job span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.path = OUT_DIR / "child-trace.json"
        self.startup_ms = []

    def __call__(self, argv):
        from perfbench.workloads import spawn

        spawned = clock()
        result = spawn(ROOT, argv, dict(os.environ, PERFBENCH_TRACE_OUT=str(self.path)))
        with open(self.path) as fh:
            child = json.load(fh)
        self.path.unlink()
        self.tracer.merge(child)
        main_start = next((span[1] for span in child["spans"] if span[0] == "cli.main"), None)
        if main_start is not None:
            # the child's tracer set-up sits between start-up and main
            ready = main_start - child["setup_s"]
            self.tracer.add_span("cli.startup", spawned, ready)
            self.tracer.exclude(child["setup_s"])
            self.startup_ms.append((ready - spawned) * 1e3)
        return result


def traced_run(name, ps, wl, seed, seconds):
    from perfbench import layers, workloads
    from perfbench.tracing import Tracer

    tracer = Tracer()
    targets = layers.targets()
    absent_paths = tracer.install(targets)
    present = {t.name for t in targets if t.path not in absent_paths}
    missing = {t.name for t in targets} - present
    hook = None
    if name == "cli":
        hook = ChildTrace(tracer)
        runner = workloads.CliRunner(ROOT)
        runner.hook = hook
        wl = workloads.build(name, ps, seed, ROOT, runner)
    try:
        rows = measure(wl, seconds, tracer)
    finally:
        tracer.uninstall()
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    # tracing overhead: the first round again, untraced, same inputs
    first = sum(t for t, r in zip(rows.latency, rows.round) if r == 0)
    replay = measure(workloads.build(name, ps, seed, ROOT), 0, max_rounds=1)
    overhead = first / sum(replay.latency)
    metrics = layers.per_layer(tracer, wall, overhead, hook.startup_ms if hook else [])
    absent = layers.absent_metrics(missing)
    return rows, metrics, {
        "absent_names": sorted(missing),
        "absent_metrics": absent,
        "broken_hooks": sorted(tracer.broken_hooks),
        "spans": len(tracer.spans),
        "span_log": tracer.spans,
        "job_calls": tracer.job_calls,
    }


# -- main -----------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in turn, each in its own process; then one summary line."""
    import subprocess

    from perfbench.workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "powerstruct" / "__init__.py").is_file():
        fail(f"no powerstruct sources under {ROOT / 'src'}; run from the root of a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads
    from perfbench.speed import Speed

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from all, {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)

    reps = SETUP_REPS.get(args.workload, DEFAULT_SETUP_REPS)
    speed = Speed(REFERENCE.get(args.workload, DEFAULT_REFERENCE))
    ps, wl, setup_starts, setup_times, warm_ok = setup(args.workload, args.seed, reps, speed)
    setup_scaled = speed.scale(setup_starts, setup_times)
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, "env": env,
              "setup_times_s": setup_times, "setup_scaled_s": setup_scaled}

    if args.trace:
        rows, values, extra = traced_run(args.workload, ps, wl, args.seed, args.seconds)
        metrics = {k: (values[k], layers.PER_LAYER[k][0]) for k in layers.PER_LAYER}
        notes = {k: "absent" for k in extra["absent_metrics"]}
        record.update(extra)
    else:
        rows = measure(wl, args.seconds, speed=speed)
        metrics, notes = end_to_end(rows, setup_scaled, args.workload, speed)
        wall, _ = times(rows.latency, setup_times, sum(rows.ok))
        record["wall"] = {k: {"value": v, "unit": u} for k, (v, u) in wall.items()}
    record["speed"] = {"reference": speed.kind, "nominal_s": speed.nominal,
                       "samples": len(speed.took), "median_s": statistics.median(speed.took)}

    failed = len(rows) - sum(rows.ok)
    table = per_order_table(rows)
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  jobs=rows.record(), per_order=table, failed=failed, warmups_ok=warm_ok,
                  input_reuse_epochs=wl.draws.reuse_epochs)
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, default=str)

    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}  nproc {env['nproc']}  "
          f"cpu {env['cpu']}  commit {env['commit'][:12]}  kernel backend {env['kernel_backend']}")
    print(f"rounds {rows.round[-1] + 1}  jobs {len(rows)}")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:36s} {value:14.4f} {unit}{note}")
    if not args.trace:
        print("  unscaled wall times: " + ", ".join(
            f"{k} {v['value']:.4f} {v['unit']}" for k, v in record["wall"].items()))
    print(f"  speed reference {speed.kind}: median {record['speed']['median_s'] * 1e3:.3f} ms "
          f"over {len(speed.took)} samples, nominal {speed.nominal * 1e3:g} ms")
    print(f"  {'fail_ratio':36s} {failed / len(rows):14.4f} 1  ({failed} of {len(rows)} jobs)")
    if args.trace:
        print(f"  absent: {', '.join(extra['absent_names']) or 'none'}")
    print("  median latency per order (ms): " + "; ".join(
        f"{t['kind']} {t['ring']} N={t['order']}: {t['median_ms']:.2f}" for t in table))
    result = {
        "correct": failed == 0 and warm_ok,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
