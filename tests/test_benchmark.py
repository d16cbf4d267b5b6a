"""The benchmark's workloads, run in-process at smoke size.

`perfbench/workloads.py` checks every action matrix through the CSR API
(`nnz`, `data`, sparse products), so `tensor_grid` guards the matrices' form
as the benchmark reads it; every workload guards that each operation it runs
still succeeds.  The benchmark files are only imported, never changed.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEEDS = [7031995, 20240402]


def _smoke_run(name, seed, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports its sibling `speed`
    import workloads

    run = workloads.Run()
    workloads.run_workload(name, workloads.make_inputs(name, seed, "smoke"), run)
    return run


@pytest.mark.parametrize("seed", SEEDS)
def test_tensor_grid_smoke(seed, monkeypatch):
    run = _smoke_run("tensor_grid", seed, monkeypatch)
    assert (run.attempted, run.failed) == (160, 0), run.failures


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, expected", [("affine_words", (18, 0)), ("rep_sweep", (84, 0)), ("brauer_products", (28, 0))])
def test_workload_smoke(name, expected, seed, monkeypatch):
    run = _smoke_run(name, seed, monkeypatch)
    assert (run.attempted, run.failed) == expected, run.failures


def test_traced_names_resolve(monkeypatch):
    # the tracer skips a name it cannot find and reads its metrics as 0, so a
    # renamed traced function would pass the benchmark silently
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    from brauer import diagrams

    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing._FUNCTIONS if not hasattr(owner, attr)]
    missing += [
        f"{owner.__name__}.{attr}"
        for owner, attr in tracing.CACHES.values()
        if not hasattr(getattr(owner, attr, None), "cache_info")
    ]
    assert not missing
    assert callable(diagrams._kernel.compose_pairings)
