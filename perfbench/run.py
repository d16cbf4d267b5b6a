"""The brauer benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload rep_sweep [--seed 7031995]
                             [--seconds 10] [--trace 0|1] [--size full|smoke]

Run from anywhere; the package is imported from `src` next to this
directory, so no install is needed.  The workloads and their inputs are in
workloads.py; every output is checked exactly.

--trace 0 measures the end-to-end metrics.  It repeats the workload, each
time in a fresh interpreter with cold memo caches, for about --seconds, and
reports the median wall time, the 50th and 90th percentiles of the operation
latencies pooled over all repetitions, and the median peak RSS.  Before each
repetition it times `import brauer` (with numpy and scipy) in a fresh
interpreter, at least SETUP_REPEATS times in all, and reports the median as
setup_s.  Every time is first brought to nominal host speed with the speed
samples taken in the same process (speed.py), so that other load on a shared
host does not show as a change of brauer's speed.

--trace 1 runs the workload untraced and traced, in turn, for about
--seconds.  It reports the per-layer metrics of tracing.py (counts from the
first traced run, times as medians) and the tracing overhead: traced minus
untraced wall time.  The spans of the last traced run go to
.perfbench/spans-<workload>-<seed>.json.

Every run prints a table of all its metrics with units, the machine, and as
the last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
The full result is also written to .perfbench/.  Exit code: 0 when every
check passed, 1 when a check failed or a repetition crashed, 2 when the
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("tensor_grid", "rep_sweep", "affine_words", "brauer_products")
DEFAULT_SEED = 7_031_995
SETUP_REPEATS = 7
MIN_REPS = 2
MAX_REPS = 40
MAX_TRACED_PAIRS = 5
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# one process uses at most one core: no BLAS or OpenMP worker threads
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

# argv[1] is this directory, for speed.py
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
loops = [speed.loop_s() for _ in range(5)]
t0 = time.perf_counter()
import brauer
elapsed = time.perf_counter() - t0
loops += [speed.loop_s() for _ in range(5)]
import json, numpy, scipy
print(json.dumps({"setup_s": elapsed * speed.factor(loops), "file": brauer.__file__, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "backend": brauer.KERNEL_BACKEND}))
"""


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed string hashing, so that set and dict orders, and with them the
    # traced counts, repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict[str, str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args[0]} timed out after {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_once(env: dict[str, str]) -> dict:
    res = run_child(["-c", SETUP_SNIPPET, HERE], env)
    expect = os.path.join(SRC, "brauer", "__init__.py")
    if os.path.abspath(res["file"]) != expect:
        raise ChildFailed(f"brauer imported from {res['file']}, not from {expect}")
    return res


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info(versions: dict, seed: int) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "kernel_backend": versions["backend"],
        "commit": git_commit(),
        "seed": seed,
        "threads_pinned": SINGLE_THREAD,
    }


def repeat(seconds: float, min_count: int, max_count: int, once) -> list:
    """Call `once` at least `min_count` times, then while the next call is
    expected to end within `seconds` of the start."""
    start = time.perf_counter()
    results, took = [], []
    while len(results) < max_count:
        t0 = time.perf_counter()
        results.append(once())
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= min_count and elapsed + statistics.median(took) > seconds:
            break
    return results


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def end_to_end(reps: list[dict], setup_s: float) -> dict[str, float]:
    """Each repetition's times, brought to nominal host speed (speed.py)."""
    walls, latencies_ms = [], []
    for r in reps:
        f = speed.factor(r["loop_s"])
        walls.append(f * r["wall_s"])
        latencies_ms += [1000 * f * x for x in r["latencies_s"]]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict[str, float], list[str]]:
    traced = [t["layers"] for _, t in pairs]
    out, unsteady = {}, []
    for name, first in traced[0].items():
        if unit_of(name) == "s":
            out[name] = statistics.median(t[name] for t in traced)
        else:
            out[name] = first
            if any(t[name] != first for t in traced[1:]):
                unsteady.append(name)
    out["trace.wall_s"] = statistics.median(t["wall_s"] for _, t in pairs)
    out["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    return out, unsteady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "brauer", "__init__.py")):
        print(f"perfbench: no brauer source tree at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-{args.seed}"
    worker = [WORKER, args.workload, str(args.seed), args.size]

    # set-up is timed before each repetition, so that set-up times and
    # repetitions both sample the whole run
    setups: list[float] = []
    spans = os.path.join(OUT, f"spans-{tag}.json")

    def once():
        setups.append(import_once(env)["setup_s"])
        if args.trace:
            return run_child(worker, env), run_child(worker + ["--trace", spans], env)
        return run_child(worker, env)

    try:
        # the first import also writes the bytecode caches; it is not timed
        machine = machine_info(import_once(env), args.seed)
        if args.trace:
            pairs = repeat(args.seconds, 1, MAX_TRACED_PAIRS, once)
            untraced = [u for u, _ in pairs]
            reps = [r for pair in pairs for r in pair]
        else:
            untraced = reps = repeat(args.seconds, MIN_REPS, MAX_REPS, once)
        while len(setups) < SETUP_REPEATS:
            setups.append(import_once(env)["setup_s"])
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    fail_ratio = failed / attempted if attempted else 1.0
    correct = failed == 0 and attempted > 0
    metrics = end_to_end(untraced, statistics.median(setups))
    tables = [("end-to-end" + (" (untraced repetitions)" if args.trace else ""), metrics)]
    if args.trace:
        metrics, unsteady = per_layer(pairs)
        metrics["fail_ratio"] = fail_ratio
        tables.append(("per-layer (traced repetitions)", metrics))
        for name in unsteady:
            print(f"warning: count {name} differs between traced repetitions", file=sys.stderr)

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items() if k != "threads_pinned"))
    print(f"repetitions: {len(reps)}, raw wall_s each: {[round(r['wall_s'], 3) for r in reps]}")
    print(f"speed factor each: {[round(speed.factor(r['loop_s']), 3) for r in untraced]}")
    print(f"operations: {sum(len(r['latencies_s']) for r in reps)} ({len(reps[0]['latencies_s'])} per repetition)")
    for r in reps:
        for line in r["failures"]:
            print(f"FAILED: {line}")
    print(f"checks: {attempted} attempted, {failed} failed")
    for title, table in tables:
        print(title + ":")
        for name, value in table.items():
            print(f"  {name:32s} {value:>14.6g}  {unit_of(name)}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {fail_ratio:>14.6g}  ratio")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({"machine": machine, "size": args.size, "reps": reps, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
