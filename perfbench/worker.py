"""One timed repetition of one workload, in a fresh interpreter.

Started by run.py with `src` on PYTHONPATH, so every memo cache starts cold,
as it does for each `brauer` or pytest invocation.  Prints one JSON object:
the wall time, the operation latencies, the host speed samples (untraced;
see speed.py), peak RSS, the exact-check counts and, when traced, the
per-layer metrics.  The wall time leaves out the time of the speed samples.

    python3 perfbench/worker.py WORKLOAD SEED SIZE [--trace SPANS_FILE]
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    name, seed, size = argv[0], int(argv[1]), argv[2]
    spans_file = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
    sys.path.insert(0, HERE)
    import brauer
    import workloads

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(brauer.__file__))) != src:
        print(f"brauer imported from {brauer.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(name, seed, size)
    tracer = None
    if spans_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(workloads)
    run = workloads.Run(tracer)
    t0 = time.perf_counter()
    workloads.run_workload(name, inputs, run)
    wall = time.perf_counter() - t0 - run.calibration_s
    if tracer is None:
        run.sample_speed()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "wall_s": wall,
        "latencies_s": run.latencies,
        "loop_s": run.loop_s,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "backend": brauer.KERNEL_BACKEND,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(spans_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
