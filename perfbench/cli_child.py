"""Start `powerstruct.cli.main` the way the console script does.

    python3 perfbench/cli_child.py power --ring=Z --lambda=kapranov ...

With PERFBENCH_TRACE_OUT set, the same wrappers as in the traced in-process
run are installed first, and the spans, aggregated calls, counters and the
time taken to set up tracing are written to that JSON file when main returns.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from powerstruct import cli

        return cli.main(sys.argv[1:])

    from time import perf_counter

    import powerstruct.cli  # noqa: F401  (loads every module the wrappers rebind)

    started = perf_counter()
    import json

    from perfbench.layers import targets
    from perfbench.tracing import Tracer

    tracer = Tracer()
    absent = tracer.install(targets())
    # importing the tracer is not part of the CLI's own start-up
    setup_s = perf_counter() - started
    tracer.active = True
    try:
        code = sys.modules["powerstruct.cli"].main(sys.argv[1:])
    finally:
        tracer.active = False
        tracer.end_job()
        payload = {
            "spans": tracer.spans,
            "job_calls": tracer.job_calls,
            "totals": tracer.totals,
            "counters": tracer.counters,
            "maxima": tracer.maxima,
            "bookkeeping_s": tracer.bookkeeping_s,
            "setup_s": setup_s,
            "absent": absent,
            "broken_hooks": sorted(tracer.broken_hooks),
        }
        with open(trace_out, "w") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
