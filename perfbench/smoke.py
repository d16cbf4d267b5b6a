"""Smoke check of the benchmark at a small input size.

Runs every workload declared in BENCHMARK.json at `--size smoke`, untraced
and traced, at the default seed and at one held-out seed.  It fails unless
every run exits 0, emits exactly the declared end-to-end (untraced) or
per-layer (traced) metrics with their declared units, and reports no failed
check (fail_ratio 0).

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (7_031_995, 20_240_402)  # the default seed and a held-out one


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
                where = f"{workload} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(units))
                    extra = sorted(set(units) - set(declared[trace]))
                    wrong = sorted(k for k in units if k in declared[trace] and units[k] != declared[trace][k])
                    problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{where}: {result['failed']} of {result['attempted']} checks failed")
                print(f"ok  {where}: {result['attempted']} checks, {len(units)} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
