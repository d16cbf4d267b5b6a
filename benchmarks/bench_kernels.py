"""Benchmark the compiled composition kernel against the pure-Python twin.

Diagram composition with loop counting is the inner loop of every algebra
product, so it is the one piece worth compiling.  Two workloads:

  * raw kernel calls on random diagram pairs (cache bypassed);
  * a real multiply workload: powers of Jucys-Murphy elements in B(n, N)
    with N symbolic, run once per backend in a fresh interpreter so that
    import-time backend selection applies.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)


def bench_raw(repeats: int) -> dict[str, float]:
    from brauer import _purekernel
    from brauer.diagrams import random_diagram

    try:
        from brauer import _corekernel  # type: ignore[attr-defined]
    except ImportError:
        _corekernel = None

    rng = random.Random(13)
    pairs = {}
    for n in (3, 6, 12):
        pairs[n] = [
            (random_diagram(n, rng).pairing, random_diagram(n, rng).pairing)
            for _ in range(200)
        ]

    out = {}
    for name, kernel in [("python", _purekernel), ("cython", _corekernel)]:
        if kernel is None:
            continue
        for n, work in pairs.items():
            t0 = time.perf_counter()
            for _ in range(repeats):
                for p1, p2 in work:
                    kernel.compose_pairings(p1, p2, n)
            out[f"{name} raw n={n}"] = time.perf_counter() - t0
    return out


MULTIPLY_SNIPPET = """
import random, time
from brauer.diagrams import AlgebraElement, jucys_murphy, multiply, random_diagram, KERNEL_BACKEND
n = {n}
rng = random.Random(99)
# dense random elements: most diagram pairs are distinct, so the compose
# cache cannot hide the kernel
a = AlgebraElement(n, {{random_diagram(n, rng): 1 for _ in range({terms})}})
b = AlgebraElement(n, {{random_diagram(n, rng): 1 for _ in range({terms})}})
t0 = time.perf_counter()
for _ in range({repeats}):
    multiply(a, b)
elapsed = time.perf_counter() - t0
t0 = time.perf_counter()
x = jucys_murphy({n}, {n})
acc = x
for _ in range({power} - 1):
    acc = multiply(acc, x)
jm = time.perf_counter() - t0
print(KERNEL_BACKEND, elapsed, jm)
"""


def bench_multiply(n: int, terms: int, repeats: int, power: int) -> dict[str, float]:
    out = {}
    for env_flag in ("", "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        if env_flag:
            env["BRAUER_PURE_PYTHON"] = "1"
        else:
            env.pop("BRAUER_PURE_PYTHON", None)
        code = MULTIPLY_SNIPPET.format(n=n, terms=terms, repeats=repeats, power=power)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        backend, elapsed, jm = proc.stdout.split()
        out[f"{backend} multiply random {terms}x{terms} in B({n})"] = float(elapsed)
        out[f"{backend} multiply x_{n}^{power} in B({n})"] = float(jm)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    results = bench_raw(repeats=5 if args.quick else 25)
    results.update(
        bench_multiply(
            n=8,
            terms=30 if args.quick else 60,
            repeats=2 if args.quick else 5,
            power=3 if args.quick else 5,
        )
    )

    if args.json:
        print(json.dumps(results, indent=2))
        return 0
    width = max(len(k) for k in results)
    print(f"{'workload':{width}s}  seconds")
    for key, val in results.items():
        print(f"{key:{width}s}  {val:8.4f}")
    pairs = {}
    for key, val in results.items():
        backend, _, rest = key.partition(" ")
        pairs.setdefault(rest, {})[backend] = val
    print()
    for rest, vals in pairs.items():
        if "python" in vals and "cython" in vals and vals["cython"] > 0:
            print(f"speedup {rest}: {vals['python'] / vals['cython']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
