"""The benchmark's tensor_grid workload, run in-process at smoke size.

`perfbench/workloads.py` checks every action matrix through the CSR API
(`nnz`, `data`, sparse products), so this guards the matrices' form as the
benchmark reads it.  The benchmark files are only imported, never changed.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("seed", [7031995, 20240402])
def test_tensor_grid_smoke(seed, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports its sibling `speed`
    import workloads

    run = workloads.Run()
    workloads.run_workload("tensor_grid", workloads.make_inputs("tensor_grid", seed, "smoke"), run)
    assert (run.attempted, run.failed) == (160, 0), run.failures
