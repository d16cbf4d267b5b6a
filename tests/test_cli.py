import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from brauer import verify
from brauer.cli import main
from brauer.diagrams import element_from_json, jucys_murphy, element_to_json


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


def test_oracle_zero_trials_is_allowed(capsys):
    code, out = run(
        capsys, "oracle", "--n", "2", "--N", "2", "--suite", "hom", "--trials", "0", "--format", "json"
    )
    assert code == 0 and json.loads(out)[0]["ok"]


def test_non_integer_brauer_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BRAUER_SEED", "abc")
    code = main(["affine", "check", "--suite", "hecke"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: BRAUER_SEED must be an integer\n"


def test_seed_flag_beats_environment(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "run_all", lambda seed=None: seen.append(seed) or [])
    monkeypatch.setenv("BRAUER_SEED", "9")
    assert main(["verify-all", "--seed", "5"]) == 0
    assert main(["verify-all"]) == 0
    monkeypatch.delenv("BRAUER_SEED")
    assert main(["verify-all"]) == 0
    assert seen == [5, 9, verify.DEFAULT_SEED]


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


def test_bad_partition_is_usage_error(capsys):
    code = main(["paths", "--lambda", "1,2", "--n", "3", "--N", "3"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_element_json_roundtrip_through_cli_format():
    e = jucys_murphy(2, 2)
    assert element_from_json(json.loads(json.dumps(element_to_json(e))), 2) == e
