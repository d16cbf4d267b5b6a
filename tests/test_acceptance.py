"""The acceptance gate: one test per criterion, everything exact.

Every check is an exact identity in Fraction / NPoly / SurdSum arithmetic,
so every stated tolerance is zero; a criterion passes only if each of its
instances holds on the nose.  Run with `pytest -s` to see the summary lines.
"""

import random

import pytest

from brauer import affine, cli, repform, verify
from brauer.coeffs import SurdSum


def _report(rep):
    status = "PASS" if rep["ok"] else "FAIL"
    print(f"\n{status}  criterion {rep['name']:16s} ({rep['seconds']}s)  {rep['details']}")
    assert rep["ok"], rep


def test_criterion_1_presentation():
    # the defining relations, exact polynomial identities, n <= 6
    _report(verify.criterion_1_presentation())


def test_criterion_2_jucys_murphy():
    # commutativity, mixed relations, odd central power sums (i <= 5),
    # conditional-expectation recurrence (odd i <= 5, k <= 4), N symbolic
    _report(verify.criterion_2_jucys_murphy())


def test_criterion_3_representations():
    # all V(lam, n), n <= 5, N in {2,3,4,5,7,9}: relations, diagonal
    # eigenvalues, scalar central sum; exact surd arithmetic
    _report(verify.criterion_3_representations())


def test_criterion_3_fails_on_an_off_diagonal_x_entry_or_a_wrong_central_value(monkeypatch):
    monkeypatch.setattr(verify, "REP_SWEEP_N", (2, 3))
    monkeypatch.setattr(verify, "REP_SWEEP_VALUES", (3,))
    assert verify.criterion_3_representations()["ok"]
    build = repform.build_representation

    def off_diagonal(lam, n, N):
        rep = build(lam, n, N)
        x1 = repform.RepMatrix([dict(row) for row in rep.matrices["x1"].rows])
        x1.set(0, x1.dim - 1, SurdSum.one())
        return repform.Representation(rep.basis, {**rep.matrices, "x1": x1})

    monkeypatch.setattr(repform, "build_representation", off_diagonal)
    assert not verify.criterion_3_representations()["ok"]
    monkeypatch.setattr(repform, "build_representation", build)
    content = repform.central_content_eigenvalue
    monkeypatch.setattr(repform, "central_content_eigenvalue", lambda lam, n, N: content(lam, n, N) + 1)
    assert not verify.criterion_3_representations()["ok"]


def test_criterion_4_rank1_traceN():
    # equal-endpoint sbar blocks: symmetric PSD rank 1, trace exactly N
    _report(verify.criterion_4_rank_trace())


def test_criterion_4_counts_a_fiber_report_error_as_a_failure(monkeypatch):
    # a block that fits no diagonal gauge fails the criterion (exit 1), as a
    # representation that fails to build fails criterion 3
    def broken(basis, k):
        raise repform.RepresentationError("entry (0, 1) of sbar1 does not fit a diagonal gauge")

    monkeypatch.setattr(repform, "sbar_fiber_report", broken)
    result = verify.criterion_4_rank_trace()
    assert not result["ok"] and result["details"]["blocks"] == 0
    monkeypatch.setattr(verify, "ALL_CRITERIA", [("4 rank1-traceN", verify.criterion_4_rank_trace)])
    assert cli.main(["verify-all", "--format", "json"]) == 1


def test_criterion_5_series():
    # Z(mu, u) against the diagram-side conditional expectation (i <= 6,
    # k <= 4, N in {3,5}); box-product form and path-product form to order
    # 10 at 5 rational N values
    _report(verify.criterion_5_series())


def test_criterion_6_tensor_oracle():
    # homomorphism property over the full N^n <= 4096 grid, centralizer
    # ranks versus path counts, and 2C == 2(x_1 + ... + x_n) as integer
    # matrices at n <= 3, N <= 3
    _report(verify.criterion_6_tensor())


def test_criterion_7_separation():
    # eigenvalue tuples pairwise distinct when N odd or N >= 2n-1 (n <= 5),
    # plus an explicit even-N counterexample
    rep = verify.criterion_7_separation()
    assert rep["details"]["counterexample"] is not None
    _report(rep)


def test_criterion_8_affine():
    # associativity (200 triples), shift-homomorphism consistency,
    # desk-scale faithfulness, Hecke relation kill, W_k series cross-check
    _report(verify.criterion_8_affine())


def test_affine_hecke_catches_a_dropped_trailing_y(monkeypatch):
    # a normal form that loses a word's last y breaks the table's relations
    from_word = affine.from_word

    def dropped(atoms, n):
        return from_word(atoms[:-1] if atoms and atoms[-1][0] == "y" else atoms, n)

    monkeypatch.setattr(affine, "from_word", dropped)
    ok, counts = verify._affine_hecke(random.Random(0))
    assert not ok and counts == {"hecke_checks": 28}


def test_affine_hecke_catches_a_lost_weight(monkeypatch):
    # a quotient map that sends every w_i to 1 breaks only w_i s_1 = f_i s_1
    quotient = affine.hecke_quotient
    monkeypatch.setattr(affine, "hecke_quotient", lambda a, f: quotient(a, {i: 1 for i in f}))
    ok, counts = verify._affine_hecke(random.Random(0))
    assert not ok and counts == {"hecke_checks": 28}
