import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import brauer
from brauer import affine, cli, shapes, verify
from brauer.cli import main
from brauer.diagrams import AlgebraElement, relation_count


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_relations(capsys):
    code, out = run(capsys, "relations", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] and data["checked"] == 13


def test_mult(capsys):
    code, out = run(capsys, "mult", "--n", "2", "--word", "sbar1 sbar1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["coeff"] == "N"


def test_mult_rejects_non_generators(capsys):
    for word in ("y1", "s1 y1"):
        with pytest.raises(SystemExit) as exc:
            main(["mult", "--n", "2", "--word", word])
        assert exc.value.code == 2
        assert "generators only" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "1/0", "2/"])
def test_bad_rational_is_usage_error(capsys, value):
    for argv in (
        ["shapes", "--n", "2", "--N", value],
        ["rep", "--lambda", "", "--n", "2", "--N", value],
        ["central", "--mu", "", "--N", value],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "bad rational" in capsys.readouterr().err


def test_shapes(capsys):
    code, out = run(capsys, "shapes", "--n", "3", "--N", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [{"diagram": [1], "paths": 3}, {"diagram": [3], "paths": 1}]


@pytest.mark.parametrize("command", [["shapes"], ["paths", "--lambda", "1"]])
def test_non_integer_N_is_usage_error_for_shapes_and_paths(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--n", "3", "--N", "7/2"])
    assert exc.value.code == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["0", "-1", "0/3"])
@pytest.mark.parametrize("command", [["shapes"], ["paths", "--lambda", ""]])
def test_N_below_1_is_usage_error_for_shapes_and_paths(capsys, command, N):
    # N = 0 used to list () as a member of O(2, 0) with 0 paths and exit 0
    with pytest.raises(SystemExit) as exc:
        main(command + ["--n", "2", "--N", N])
    assert exc.value.code == 2
    assert "argument --N: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["0", "-1"])
def test_rep_N_below_1_is_usage_error(capsys, N):
    # N = 0 used to print a 0-dimensional representation and exit 0
    code = main(["rep", "--lambda", "", "--n", "2", "--N", N])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"integer N must be at least 1, got {N}" in captured.err


def test_paths(capsys):
    code, out = run(capsys, "paths", "--lambda", "1", "--n", "3", "--N", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_central_example(capsys):
    # Z coefficients are N((N-1)/2)^i at mu = empty
    code, out = run(capsys, "central", "--mu", "", "--N", "3", "--order", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["Z"] == ["3", "3", "3"]
    code, out = run(capsys, "central", "--mu", "0", "--N", "5", "--order", "2", "--format", "json")
    assert json.loads(out)["Z"] == ["5", "10", "20"]


def test_rep(capsys):
    code, out = run(capsys, "rep", "--lambda", "", "--n", "2", "--N", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matrices"]["sbar1"] == [[[[1, "3"]]]]
    assert data["matrices"]["s1"] == [[[[1, "1"]]]]


def test_rep_rational_N(capsys):
    code, out = run(capsys, "rep", "--lambda", "1", "--n", "3", "--N", "7/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["N"] == "7/2"


# sha256 of `rep --format json`, pinned so that a change to how the
# orthogonal form is built cannot change the printed matrices unnoticed;
# V((1), 3) at N = 3 has a path with x_2 = 0, where the s_2 diagonal is 1/2
REP_JSON_SHA256 = {
    ("2,1", "5", "4"): "7d965f71623ead820ae932bd6f3bc44495272c0cb778af6b8e479f657ae6d5f3",
    ("1", "5", "9"): "d10a056d4b9720bf77ac2271f084a999bdeb7305438f7726915e6b94b98804b9",
    ("3", "5", "7/2"): "ad8a3058c5626ab745a80d3cf01c3264185b5f4eebbe1a76800c6038a617a6f6",
    ("1", "3", "3"): "aed727e41fe0f989b6aa9751c2eb32021f6500f28fabb3bdfd0c1a8a8b600f4f",
    ("2,2", "6", "4"): "aa9e1e99005da943437f5f0b152c36eb5dd2607cd992bb0bca97caa4af971866",
}


@pytest.mark.parametrize("lam, n, N", list(REP_JSON_SHA256))
def test_rep_json_digest(capsys, lam, n, N):
    code, out = run(capsys, "rep", "--lambda", lam, "--n", n, "--N", N, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REP_JSON_SHA256[lam, n, N]


@pytest.mark.parametrize("lam", ["1", "3"])
def test_rep_unreachable_diagram_names_the_given_N(capsys, lam):
    # the message used to name the internal path bound: O(2, 5) or O(2, 7)
    code = main(["rep", "--lambda", lam, "--n", "2", "--N", "7/2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"({lam},) not in O(2, 7/2)" in captured.err


def test_affine_nf(capsys):
    code, out = run(
        capsys, "affine", "nf", "--n", "2", "--word", "sbar1 y1 sbar1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["coeff"] == "1/2*N^2 - 1/2*N"


@pytest.mark.parametrize("word", ["y0", "s3", "sbar2", "y3", "s1 y0"])
def test_affine_nf_out_of_range_index_is_usage_error(capsys, word):
    code = main(["affine", "nf", "--n", "2", "--word", word])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "out of range for n=2" in captured.err


@pytest.mark.parametrize("index", [affine.W_MAX_INDEX + 1, 1001, 10**18])
def test_w_index_past_its_bound_is_usage_error_without_a_traceback(index):
    # an odd w_i expands through every odd index below it: w1001 ended in a
    # RecursionError, and w10^18 built a tuple of 5*10^17 entries
    src = str(pathlib.Path(brauer.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "brauer.cli", "affine", "nf", "--n", "1", "--word", f"w{index}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: w index must be at most {affine.W_MAX_INDEX}, got w{index}\n"


def test_w_index_bound_is_inclusive():
    affine._check_atom(("w", affine.W_MAX_INDEX), 1)
    for check in (lambda i: affine._check_atom(("w", i), 1), lambda i: affine.w_elem(i, 1)):
        with pytest.raises(ValueError, match=f"w index must be at most {affine.W_MAX_INDEX}, got w"):
            check(affine.W_MAX_INDEX + 1)


def test_oracle(capsys):
    code, out = run(
        capsys,
        "oracle",
        "--n",
        "2",
        "--N",
        "3",
        "--suite",
        "rank",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)[0]["ok"]


def test_oracle_all_suites(capsys):
    code, out = run(capsys, "oracle", "--n", "3", "--N", "2", "--suite", "all", "--trials", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [e["suite"] for e in report] == ["hom", "rank", "casimir", "spectrum"]
    assert all(e["ok"] for e in report)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--N", "2", "--n", "0"], "argument --n: must be at least 1, got 0"),
        (["--N", "2", "--n", "x"], "argument --n: expected an integer, got 'x'"),
        (["--N", "2", "--n", "2", "--trials", "-1"], "argument --trials: must be at least 0, got -1"),
        (["--n", "2", "--N", "0"], "argument --N: must be at least 1, got 0"),
        (["--n", "2", "--N", "-1"], "argument --N: must be at least 1, got -1"),
        (["--n", "2", "--N", "x"], "argument --N: expected an integer, got 'x'"),
    ],
)
def test_oracle_bad_sizes_are_usage_errors(capsys, extra, message):
    with pytest.raises(SystemExit) as exc:
        main(["oracle"] + extra)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mult", "--n", "-1", "--word", "s1"], "argument --n: must be at least 0, got -1"),
        (["relations", "--n", "1"], "argument --n: must be at least 2, got 1"),
        (["shapes", "--n", "-1", "--N", "3"], "argument --n: must be at least 0, got -1"),
        (["paths", "--lambda", "1", "--n", "-1", "--N", "3"], "argument --n: must be at least 0, got -1"),
        (["rep", "--lambda", "1", "--n", "-1", "--N", "3"], "argument --n: must be at least 0, got -1"),
        (["affine", "nf", "--n", "-1", "--word", "y1"], "argument --n: must be at least 0, got -1"),
    ],
)
def test_bad_n_is_usage_error_naming_the_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mult", "--n", "0", "--word", ""],
        ["shapes", "--n", "0", "--N", "3"],
        ["paths", "--lambda", "", "--n", "0", "--N", "3"],
        ["rep", "--lambda", "", "--n", "0", "--N", "3"],
        ["affine", "nf", "--n", "0", "--word", ""],
    ],
)
def test_zero_n_is_allowed(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)


def test_oracle_zero_trials_is_allowed(capsys):
    code, out = run(
        capsys, "oracle", "--n", "2", "--N", "2", "--suite", "hom", "--trials", "0", "--format", "json"
    )
    assert code == 0 and json.loads(out)[0]["ok"]


def test_oracle_casimir_checks_every_basis_vector(capsys):
    # the Casimir suite is a matrix identity: --trials draws nothing for it,
    # and every column of the identity counts as checked
    code, out = run(
        capsys, "oracle", "--n", "4", "--N", "3", "--suite", "casimir", "--trials", "0", "--format", "json"
    )
    [entry] = json.loads(out)
    assert code == 0 and entry["ok"] and entry["checked"] == 81


@pytest.mark.parametrize("n, N", [(1, 1), (1, 4), (3, 1), (4, 1)])
def test_oracle_one_strand_or_one_dimension_passes_every_suite(capsys, n, N):
    code, out = run(capsys, "oracle", "--n", str(n), "--N", str(N), "--suite", "all", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert [e["suite"] for e in report] == ["hom", "rank", "casimir", "spectrum"]
    assert all(e["ok"] for e in report)


_AXES = "(numpy arrays have at most 64 axes)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "8", "--N", "8", "--suite", "casimir"], "oracle takes N^n <= 4096, got n=8, N=8"),
        (["--n", "7", "--N", "9", "--suite", "hom", "--trials", "0"], "oracle takes N^n <= 4096, got n=7, N=9"),
        (["--n", "40", "--N", "40", "--suite", "hom", "--trials", "1"], "oracle takes N^n <= 4096, got n=40, N=40"),
        (["--n", "5", "--N", "5", "--suite", "rank"], "the rank suite takes (2n-1)!! N^n <= 1000000, got n=5, N=5"),
        (["--n", "8", "--N", "1"], "the rank suite takes (2n-1)!! N^n <= 1000000, got n=8, N=1"),
        # at N = 1 only the bound on n stops numpy's own "maximum supported dimension" error
        (["--n", "64", "--N", "1", "--suite", "hom"], f"oracle takes n <= 63 {_AXES}, got n=64"),
        (["--n", "64", "--N", "1", "--suite", "casimir"], f"oracle takes n <= 63 {_AXES}, got n=64"),
        (["--n", "65", "--N", "1", "--suite", "spectrum"], f"oracle takes n <= 63 {_AXES}, got n=65"),
    ],
)
def test_oracle_refuses_a_size_past_its_bounds_at_once(capsys, monkeypatch, argv, message):
    # refused before the tensor module, hence numpy, is loaded: importing it would fail here
    monkeypatch.setitem(sys.modules, "brauer.tensor", None)
    monkeypatch.delattr(brauer, "tensor", raising=False)
    code = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_bounds_are_inclusive():
    refusal = cli._exceeds_bounds
    assert refusal(12, 2, False) is None and refusal(2, 64, False) is None and refusal(1, 4096, False) is None
    assert refusal(13, 2, False) and refusal(2, 65, False) and refusal(1, 4097, False)
    # 945 * 4^5 = 967,680 and 10,395 * 2^6 = 665,280 ones; 945 * 5^5 and 135,135 * 2^7 are past the bound
    assert refusal(5, 4, True) is None and refusal(6, 2, True) is None and refusal(7, 1, True) is None
    assert refusal(5, 5, True) and refusal(7, 2, True) and refusal(8, 1, True) and refusal(5, 5, False) is None
    # N = 1 is a one-dimensional space for every n, but numpy's arrays take n <= 63; a huge n with
    # N >= 2 is refused without its power
    assert refusal(63, 1, False) is None and refusal(64, 1, False) and refusal(10**9, 1, False)
    assert refusal(10**9, 2, False) and refusal(10**9, 1, True)


def test_oracle_product_that_could_pass_int64_is_exit_2(capsys, monkeypatch):
    from brauer import tensor

    monkeypatch.setattr(tensor, "_PRODUCT_BOUND", 100.0)
    code = main(["oracle", "--n", "3", "--N", "3", "--suite", "spectrum"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "could pass int64" in captured.err


def test_oracle_spectrum_at_the_largest_n(capsys):
    # at N = 1 the branching walk has one diagram per level, so the predicted
    # spectra of all 63 levels cost little
    code, out = run(capsys, "oracle", "--n", "63", "--N", "1", "--suite", "spectrum", "--format", "json")
    [entry] = json.loads(out)
    assert code == 0 and entry["ok"] is True


def test_rep_refuses_a_negative_sbar_diagonal(capsys):
    # the level-2 fiber of V((1), 3) over (1) has an all-negative sbar
    # diagonal at N = -5/2, which positive roots cannot make rank one
    code = main(["rep", "--lambda", "1", "--n", "3", "--N=-5/2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: degenerate N=-5/2: negative sbar diagonal on fiber over (1,)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["paths", "--lambda", "", "--n", "20", "--N", "40"],
            "paths takes P n(n+1)/2 <= 20000000 for P paths, got P=654729075, n=20",
        ),
        (["rep", "--lambda", "2,1", "--n", "9", "--N", "18"], "rep takes (3n-2) d^2 <= 10000000 for d paths, got d=2520, n=9"),
        # a non-integer N counts the unconstrained paths
        (["rep", "--lambda", "2,1", "--n", "9", "--N", "5/2"], "rep takes (3n-2) d^2 <= 10000000 for d paths, got d=2520, n=9"),
    ],
)
def test_paths_and_rep_refuse_a_size_past_their_bounds_at_once(capsys, monkeypatch, argv, message):
    # refused from the path count, before a path is enumerated
    def refuse(*args):
        raise AssertionError("paths were enumerated")

    monkeypatch.setattr(shapes, "enumerate_paths", refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_rep_refuses_to_verify_past_its_relation_bound_at_once(capsys, monkeypatch):
    # refused from the relation count, before a path is counted or enumerated
    def refuse(*args):
        raise AssertionError("paths were walked")

    monkeypatch.setattr(shapes, "path_counts", refuse)
    monkeypatch.setattr(shapes, "enumerate_paths", refuse)
    start = time.perf_counter()
    code = main(["rep", "--lambda", "", "--n", "100000", "--N", "1"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: rep verifies at most 3500000 relations (--no-verify skips them), got 34999949995 at n=100000\n"
    )


def test_rep_relation_bound_is_inclusive():
    assert relation_count(1000) <= cli.REP_MAX_RELATIONS < relation_count(1001)


def test_rep_without_verification_keeps_only_the_size_bounds(capsys):
    code, out = run(capsys, "rep", "--lambda", "", "--n", "1002", "--N", "1", "--no-verify", "--format", "json")
    assert code == 0 and len(json.loads(out)["matrices"]) == 3 * 1002 - 2


def test_rep_verifies_past_n_500(capsys):
    # each relation is checked as it is generated, so n no longer has a bound
    code, out = run(capsys, "rep", "--lambda", "", "--n", "502", "--N", "1", "--format", "json")
    assert code == 0 and len(json.loads(out)["matrices"]) == 3 * 502 - 2


@pytest.mark.parametrize(
    "lam, n, code, err",
    [
        ("1", "3", 0, ""),
        ("2,1", "5", 2, "has a cofactor past 1000000^3 with no prime factor up to 1000000\n"),
    ],
)
def test_rep_at_a_large_integer_N_finishes_in_seconds(capsys, lam, n, code, err):
    # products of squarefree radicands reduce through a gcd; a lone radicand
    # that trial division to 10^6 does not settle is refused, naming it
    start = time.perf_counter()
    got = main(["rep", "--lambda", lam, "--n", n, "--N", str(10**12), "--format", "json"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 10
    assert got == code and captured.err.endswith(err)
    if code == 2:
        assert captured.err.startswith("error: radicand ") and captured.out == ""


def test_central_order_past_its_bound_is_usage_error(capsys):
    bound = cli.CENTRAL_MAX_ORDER
    code, out = run(capsys, "central", "--mu", "", "--N", "3", "--order", str(bound), "--format", "json")
    assert code == 0 and len(json.loads(out)["Q"]) == bound + 1
    code = main(["central", "--mu", "3,2,1", "--N", "7", "--order", str(10**9)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: central takes --order <= {bound}, got {10**9}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relations", "--n", "2", "--max-cases", "-1"], "argument --max-cases: must be at least 0, got -1"),
        (["central", "--mu", "2,1", "--N", "5", "--order", "-1"], "argument --order: must be at least 0, got -1"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv, message):
    # --max-cases -1 used to slice off the last relation and report success;
    # --order -1 used to fail with an unrelated series message
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_zero_counts_are_allowed(capsys):
    code, out = run(capsys, "relations", "--n", "2", "--max-cases", "0", "--format", "json")
    assert code == 0 and json.loads(out)["checked"] == 0
    code, out = run(capsys, "central", "--mu", "2,1", "--N", "5", "--order", "0", "--format", "json")
    assert code == 0 and json.loads(out)["Z"] == ["5"]


def test_non_integer_brauer_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BRAUER_SEED", "abc")
    code = main(["affine", "check", "--suite", "hecke"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: BRAUER_SEED must be an integer\n"


def test_seed_flag_beats_environment(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "run_all", lambda seed=None, stats=False: seen.append(seed) or [])
    monkeypatch.setenv("BRAUER_SEED", "9")
    assert main(["verify-all", "--seed", "5"]) == 0
    assert main(["verify-all"]) == 0
    monkeypatch.delenv("BRAUER_SEED")
    assert main(["verify-all"]) == 0
    assert seen == [5, 9, verify.DEFAULT_SEED]


def test_memos_name_every_memo_of_the_package():
    found = set()
    for info in pkgutil.iter_modules(brauer.__path__):
        module = importlib.import_module(f"brauer.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == set(verify.MEMOS)


def test_every_memo_is_bounded():
    for name in verify.MEMOS:
        module, attr = name.split(".")
        memo = getattr(importlib.import_module(f"brauer.{module}"), attr)
        assert memo.cache_info().maxsize is not None, name


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--lambda", "1", "--n", "5", "--N", "3"],
        ["rep", "--lambda", "2", "--n", "4", "--N", "3"],
        ["relations", "--n", "3"],
        ["shapes", "--n", "5", "--N", "3"],
        ["mult", "--n", "3", "--word", "sbar1 s2 sbar1"],
    ],
)
def test_json_is_written_in_chunks_with_the_one_shot_bytes(capsys, monkeypatch, argv):
    emitted = []
    dump = json.dump

    def spy(data, fp, **kwargs):
        emitted.append(data)
        dump(data, fp, **kwargs)

    def whole_text(*args, **kwargs):
        raise AssertionError("the whole JSON text was built")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", spy)
        patch.setattr(json, "dumps", whole_text)
        code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(emitted) == 1
    assert out == json.dumps(emitted[0], indent=2, default=str) + "\n"


def test_verify_all_stats_reports_each_criterion_s_memo_deltas(capsys, monkeypatch):
    from brauer import diagrams

    g, g2 = diagrams.s_diagram(1, 3), diagrams.transposition(1, 3, 3)

    def composes():
        t0 = verify.time.perf_counter()
        diagrams.compose(g, g2)
        diagrams.compose(g, g2)
        return verify._result("composes", True, t0)

    monkeypatch.setattr(verify, "ALL_CRITERIA", [("0 composes", composes)])
    diagrams._compose_cached.cache_clear()
    code, out = run(capsys, "verify-all", "--stats", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 0 and rep["memos"] == {"diagrams._compose_cached": {"hits": 1, "misses": 1}}
    assert rep["peak_rss_mb"] > 0
    code, out = run(capsys, "verify-all", "--stats")
    assert code == 0 and out.splitlines()[1].split() == ["diagrams._compose_cached", "hits", "2", "misses", "0"]
    head = out.splitlines()[0].split()
    assert head[-4:-2] == ["peak", "RSS"] and float(head[-2]) > 0 and head[-1] == "MB"
    # without --stats the output keeps its shape
    code, out = run(capsys, "verify-all", "--format", "json")
    assert code == 0 and set(json.loads(out)[0]) == {"name", "ok", "seconds", "details", "criterion"}
    code, out = run(capsys, "verify-all")
    assert code == 0 and len(out.splitlines()) == 1


_TOKENS = st.sampled_from(
    [head + digit for head in ("s", "sbar", "y", "w") for digit in "0123456789"]
    + ["s", "sbar", "x1", "y-1", "w1.5", "S1", "sbars2", "1"]
)


@settings(max_examples=50, deadline=None)
@given(
    command=st.sampled_from([["affine", "nf"], ["mult"]]),
    n=st.integers(1, 4),
    tokens=st.lists(_TOKENS, max_size=4),
)
def test_word_parsers_exit_0_or_2(command, n, tokens):
    argv = command + ["--n", str(n), "--word", " ".join(tokens)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 2), argv


@st.composite
def _cli_argv(draw) -> list[str]:
    """Random small argv for one subcommand, valid or not."""
    n = str(draw(st.integers(-1, 4)))
    N = draw(st.sampled_from(["1", "2", "3", "4", "5/2", "0", "-1", "x", "99"]))
    lam = draw(st.sampled_from(["", "0", "1", "2", "1,1", "2,1", "3", "1,2", "x"]))
    word = " ".join(draw(st.lists(st.sampled_from(["s1", "s2", "sbar1", "sbar3", "y1", "y2", "w2", "w3", "x1"]), max_size=4)))
    count = str(draw(st.integers(-1, 6)))
    commands = [
        ["mult", "--n", n, "--word", word],
        ["relations", "--n", n, "--max-cases", count],
        ["shapes", "--n", n, "--N", N],
        ["paths", "--lambda", lam, "--n", n, "--N", N],
        ["rep", "--lambda", lam, "--n", n, "--N", N] + draw(st.sampled_from([[], ["--no-verify"]])),
        ["central", "--mu", lam, "--N", N, "--order", count],
        ["oracle", "--n", n, "--N", N, "--trials", count, "--suite", draw(st.sampled_from(["all", *cli.ORACLE_SUITES]))],
        ["affine", "nf", "--n", n, "--word", word],
        ["affine", "check", "--suite", draw(st.sampled_from(["all", *verify.AFFINE_SUITES]))],
        ["verify-all"] + draw(st.sampled_from([[], ["--stats"]])),
    ]
    argv = draw(st.sampled_from(commands))
    return argv + ["--format", draw(st.sampled_from(["json", "table"])), "--seed", count]


def _reports_failure(out: str) -> bool:
    """A FAIL line of verify-all's table, or JSON with "ok" or "all_ok" false at any depth."""
    if any(line.startswith("FAIL") for line in out.splitlines()):
        return True

    def failing(x) -> bool:
        if isinstance(x, dict):
            return x.get("ok") is False or x.get("all_ok") is False or any(map(failing, x.values()))
        return isinstance(x, list) and any(map(failing, x))

    return failing(json.loads(out))


@settings(max_examples=100, deadline=None)
@given(argv=_cli_argv())
def test_cli_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    # verify-all runs one cheap criterion here; tests/test_acceptance.py runs each
    with mock.patch.object(verify, "ALL_CRITERIA", [("7 separation", verify.criterion_7_separation)]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert _reports_failure(out.getvalue()), argv


def test_bad_partition_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paths", "--lambda", "1,2", "--n", "3", "--N", "3"])
    assert exc.value.code == 2
    assert "argument --lambda: parts must be weakly decreasing" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x", "1,,1", "1,2"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rep", "--n", "3", "--N", "3", "--lambda"], "--lambda"),
        (["paths", "--n", "3", "--N", "3", "--lambda"], "--lambda"),
        (["central", "--N", "3", "--mu"], "--mu"),
    ],
)
def test_bad_partition_names_the_flag(capsys, argv, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(argv + [text])
    assert exc.value.code == 2
    assert f"argument {flag}: parts must be" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "0"])
def test_empty_partition_spellings(capsys, text):
    code, out = run(capsys, "central", "--mu", text, "--N", "3", "--order", "2", "--format", "json")
    assert code == 0 and json.loads(out)["mu"] == []
    code, out = run(capsys, "paths", "--lambda", text, "--n", "2", "--N", "3", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _readme_commands():
    """The `brauer ...` lines of the README's "Command line" block, split as a shell would."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("brauer ")]


def test_readme_command_lines_exit_0(capsys):
    commands = _readme_commands()
    # verify-all's criteria run one by one in tests/test_acceptance.py
    skipped = {argv[0] for argv in commands if argv[0] == "verify-all"}
    assert skipped == {"verify-all"}
    for argv in commands:
        if argv[0] not in skipped:
            assert main(argv) == 0, argv
    capsys.readouterr()


def test_affine_check_runs_only_the_named_suite(capsys, monkeypatch):
    monkeypatch.setattr(affine, "pi_m", lambda a, m: AlgebraElement.zero(a.n + m))
    code, out = run(capsys, "affine", "check", "--suite", "hecke", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ok"] and set(data) == {"ok", "seconds", "hecke_checks"}
    code, out = run(capsys, "affine", "check", "--suite", "pi", "--format", "json")
    data = json.loads(out)
    assert code == 1 and not data["ok"] and set(data) == {"ok", "seconds", "words", "faithful_monomials"}
    # every suite of verify.AFFINE_SUITES is a --suite choice
    code, out = run(capsys, "affine", "check", "--suite", "series", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ok"] and set(data) == {"ok", "seconds", "series_checks"}


_PROBE = """
import sys
import brauer
from brauer.cli import main
argv = sys.argv[1:]
if argv:
    assert main(argv) == 0, argv
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["mult", "--n", "2", "--word", "s1"], []),
        (["rep", "--lambda", "2,1", "--n", "5", "--N", "3"], []),
        (["central", "--mu", "1", "--N", "3", "--order", "2"], []),
        (["affine", "nf", "--n", "2", "--word", "y1"], []),
        (["oracle", "--n", "2", "--N", "2", "--trials", "1"], ["numpy", "scipy"]),
    ],
    ids=["import", "mult", "rep", "central", "affine-nf", "oracle"],
)
def test_numpy_and_scipy_load_only_with_the_oracle(argv, loaded):
    src = str(pathlib.Path(brauer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_import_leaves_dataclasses_unloaded():
    # diagrams and regular monomials are tuples, so neither the package nor
    # the affine engine needs the dataclasses machinery
    src = str(pathlib.Path(brauer.__file__).resolve().parents[1])
    probe = "import sys, brauer, brauer.affine; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
