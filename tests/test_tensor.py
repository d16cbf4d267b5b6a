import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from brauer import shapes, tensor, verify
from brauer.cli import main
from brauer.diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    bar_transposition,
    compose,
    factor_diagram,
    from_permutation,
    jucys_murphy,
    partial_closure,
    random_diagram,
    s_diagram,
    sbar_diagram,
    transposition,
    _token_diagram,
)
from brauer.repform import jm_eigenvalue
from brauer.tensor import (
    TensorVector,
    casimir_apply,
    casimir_check,
    centralizer_rank,
    diagram_matrix,
    jm_sum_apply,
    spectrum_annihilation_check,
    verify_homomorphism,
)


def _delta_matrix(g, N):
    """Reference action matrix, independent of the index arithmetic: rows and
    columns are the multi-indices in `itertools.product` order, and the entry
    between output j and input i is the product over the edges of the delta
    of the two incident indices, top vertices reading j and bottom vertices
    reading i."""
    n = g.n
    tuples = list(itertools.product(range(N), repeat=n))
    m = np.zeros((len(tuples), len(tuples)), dtype=np.int64)
    for r, j in enumerate(tuples):
        for c, i in enumerate(tuples):
            index = j + i
            m[r, c] = all(index[v] == index[w] for v, w in g.edges())
    return m


def _column(m, t, N):
    """The column of a dense matrix m at the basis vector of t."""
    return m[:, TensorVector.basis_vector(t, N).amps.index(1)]


def _basis_column(t, N):
    return np.array(TensorVector.basis_vector(t, N).amps, dtype=np.int64)


def test_index_arithmetic():
    # basis vectors are numbered in itertools.product order, i_1 most significant
    for pos, t in enumerate(itertools.product(range(3), repeat=3)):
        v = TensorVector.basis_vector(t, 3)
        assert (v.n, v.N) == (3, 3)
        assert v.amps == [Fraction(int(i == pos)) for i in range(27)]
    with pytest.raises(ValueError):
        TensorVector.basis_vector((0, 2), 2)


def test_action_examples():
    bar = diagram_matrix(bar_transposition(1, 2, 2), 2).toarray()
    swap = diagram_matrix(transposition(1, 2, 2), 2).toarray()
    # bar(1,2) on u(1,1) -> u(1,1) + u(2,2)
    assert (_column(bar, (0, 0), 2) == _basis_column((0, 0), 2) + _basis_column((1, 1), 2)).all()
    # transposition swaps
    assert (_column(swap, (0, 1), 2) == _basis_column((1, 0), 2)).all()
    # delta kills mixed indices
    assert not _column(bar, (0, 1), 2).any()


def test_act_diagram_against_factorizations():
    # the delta-product rule agrees with generator factorizations on all of B(3)
    n, N = 3, 2
    for g in all_diagrams(n):
        acc = sparse.identity(N**n, dtype=np.int64, format="csr")
        for t in factor_diagram(g):
            acc = acc @ diagram_matrix(_token_diagram(t, n), N)
        assert (acc.toarray() == diagram_matrix(g, N).toarray()).all()
        assert (acc.toarray() == _delta_matrix(g, N)).all()


def test_identity_and_permutation_actions():
    assert (diagram_matrix(BrauerDiagram.identity(3), 2).toarray() == np.eye(8, dtype=np.int64)).all()
    p = (1, 2, 0)
    m = diagram_matrix(from_permutation(p), 2).toarray()
    for t in itertools.product(range(2), repeat=3):
        # the permutation diagram sends u(i_1,i_2,i_3) to u(i_{p^-1(k)})
        expect = tuple(t[p.index(k)] for k in range(3))
        assert (_column(m, t, 2) == _basis_column(expect, 2)).all()


def test_sparse_matrix_matches_functional():
    # the index-arithmetic matrices against the delta-product reference, on
    # every (n, N) with N^n <= 64, N = 1 and n = 1 included
    rng = random.Random(4)
    grid = [(n, N) for n in range(1, 7) for N in range(1, 65) if N**n <= 64]
    for n, N in grid:
        for g in {random_diagram(n, rng) for _ in range(5)}:
            m = diagram_matrix(g, N)
            assert m.dtype == np.int64 and m.nnz == N**n
            assert (m.toarray() == _delta_matrix(g, N)).all()


def _coo_matrix(g, N):
    """Reference CSR of the action, built through scipy's COO path, which
    sorts the pairs itself."""
    rows, cols = tensor._entry_indices(g, N)
    dim = N**g.n
    data = np.ones(len(rows), dtype=np.int64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim), dtype=np.int64)


def _assert_same_csr(m, ref):
    assert m.format == "csr" and m.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(m, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # rows sorted, no duplicates: canonical by construction
    dim = m.shape[0]
    rows = np.repeat(np.arange(dim, dtype=np.int64), np.diff(m.indptr))
    assert (np.diff(rows * dim + m.indices) > 0).all()
    assert m.has_canonical_format


def test_diagram_matrix_is_canonical_csr():
    # every diagram with n <= 4 and N <= 3, N = 1 included
    for n in range(1, 5):
        for g in all_diagrams(n):
            for N in (1, 2, 3):
                _assert_same_csr(diagram_matrix(g, N), _coo_matrix(g, N))
    # random draws across the homomorphism grid, N^n <= 4096
    rng = random.Random(23)
    grid = [(n, N) for n in range(1, 13) for N in range(1, 65) if N**n <= 4096]
    for n, N in grid:
        for _ in range(3):
            g = random_diagram(n, rng)
            _assert_same_csr(diagram_matrix(g, N), _coo_matrix(g, N))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_partial_closure_is_the_partial_trace(k):
    # tracing out the last tensor factor of d's action gives c(N) d' for
    # partial_closure(d) = c d'; the last factor is the least significant digit
    for N in (1, 2, 3):
        low = N ** (k - 1)
        for d in all_diagrams(k):
            ((d2, c),) = partial_closure(AlgebraElement.from_diagram(d)).terms.items()
            traced = np.einsum("iaja->ij", diagram_matrix(d, N).toarray().reshape(low, N, low, N))
            assert (traced == int(c.eval(N)) * diagram_matrix(d2, N).toarray()).all(), (d, N)


def test_homomorphism_pair_check_catches_wrong_composites(monkeypatch):
    # the structural check must see a wrong composite and a wrong loop count
    rng = random.Random(29)
    pairs = [
        (random_diagram(n, rng), random_diagram(n, rng), N)
        for n, N in [(2, 2), (3, 3), (4, 4), (3, 5)]
        for _ in range(10)
    ]
    assert all(tensor._homomorphism_pair_ok(g1, g2, N) for g1, g2, N in pairs)

    def wrong_diagram(g1, g2):
        prod, loops = compose(g1, g2)
        other = next(d for d in all_diagrams(g1.n) if d != prod)
        return other, loops

    monkeypatch.setattr(tensor, "compose", wrong_diagram)
    assert not any(tensor._homomorphism_pair_ok(g1, g2, N) for g1, g2, N in pairs)

    def wrong_loops(g1, g2):
        prod, loops = compose(g1, g2)
        return prod, loops + 1

    monkeypatch.setattr(tensor, "compose", wrong_loops)
    assert not any(tensor._homomorphism_pair_ok(g1, g2, N) for g1, g2, N in pairs)


def test_homomorphism():
    rng = random.Random(11)
    for n, N in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        assert verify_homomorphism(n, N, 100, rng)["ok"]


def test_homomorphism_answers_a_repeated_pair_by_its_first_check(monkeypatch):
    # B(2) has 9 pairs, so 100 draws repeat many; the action is broken on
    # one pair that no generator pair covers, and every draw of it fails
    n, N, trials = 2, 2, 100
    one = BrauerDiagram.identity(n)
    bad = (one, one)
    draws = random.Random(5)
    drawn = [(random_diagram(n, draws), random_diagram(n, draws)) for _ in range(trials)]
    assert drawn.count(bad) > 1

    def broken(g1, g2):
        prod, loops = compose(g1, g2)
        return prod, loops + ((g1, g2) == bad)

    ok = tensor._homomorphism_pair_ok
    checks = []

    def counted(g1, g2, N):
        checks.append((g1, g2))
        return ok(g1, g2, N)

    monkeypatch.setattr(tensor, "compose", broken)
    monkeypatch.setattr(tensor, "_homomorphism_pair_ok", counted)
    rng = random.Random(5)
    rep = verify_homomorphism(n, N, trials, rng)
    assert not rep["ok"] and rep["failures"] == [bad] * drawn.count(bad)
    assert rep["checked"] == 4 + trials
    assert sorted(checks) == sorted(set(checks)) and len(checks) == 9
    # every pair was still drawn from the stream
    assert rng.random() == draws.random()
    # and criterion 6 fails on a grid of that one point
    monkeypatch.setattr(verify, "_tensor_grid", lambda: [(n, N)])
    assert not verify.criterion_6_tensor(seed=5)["ok"]


@pytest.mark.parametrize("n, N", [(12, 2), (6, 4), (2, 64)])
def test_generator_pairs_build_each_generator_matrix_once(monkeypatch, n, N):
    # the bounded memo holds every generator matrix through the generator
    # pairs, so each is built once, and it never holds more than 64 matrices
    built = Counter()
    entry_indices = tensor._entry_indices

    def counted(g, N):
        built[g] += 1
        return entry_indices(g, N)

    monkeypatch.setattr(tensor, "_entry_indices", counted)
    diagram_matrix.cache_clear()
    assert verify_homomorphism(n, N, 0, random.Random(3))["ok"]
    gens = [f(k, n) for k in range(1, n) for f in (s_diagram, sbar_diagram)]
    assert all(built[g] == 1 for g in gens)
    assert diagram_matrix.cache_info().currsize <= 64


def test_digits_are_shared_read_only():
    for n, N in [(1, 5), (3, 2), (2, 3), (4, 1)]:
        d = tensor._digits(n, N)
        assert d.shape == (n, N**n) and d.dtype == np.int64
        # column j is the multi-index that flattens to j
        assert (np.ravel_multi_index(tuple(d), (N,) * n) == np.arange(N**n)).all()
        assert tensor._digits(n, N) is d
        with pytest.raises(ValueError):
            d[0, 0] = 1


def test_verify_all_stats_reports_a_non_decreasing_peak_rss(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_tensor_grid", lambda: [(2, 2), (3, 3)])
    assert main(["verify-all", "--stats", "--format", "json"]) == 0
    peaks = [r["peak_rss_mb"] for r in json.loads(capsys.readouterr().out)]
    assert len(peaks) == len(verify.ALL_CRITERIA)
    assert peaks[0] > 0 and peaks == sorted(peaks)


def test_homomorphism_example_pair():
    # (sbar_1, sbar_1) at n=2: q=1, and sbar o sbar = N sbar on the whole space
    g = sbar_diagram(1, 2)
    _, loops = compose(g, g)
    assert loops == 1
    m = diagram_matrix(g, 3)
    assert ((m @ m).toarray() == 3 * m.toarray()).all()


def test_centralizer_ranks():
    assert centralizer_rank(2, 2) == 3
    assert centralizer_rank(2, 3) == 3
    # N < n loses faithfulness: rank drops below (2n-1)!!
    assert centralizer_rank(3, 2) == 10 < 15
    assert centralizer_rank(3, 3) == 15
    assert centralizer_rank(3, 4) == 15
    # faithful once N >= n: (2n - 1)!! = 7 * 5 * 3
    assert centralizer_rank(4, 4) == 105
    # rank of the span of the diagram actions = dim of the centralizer
    for n in (1, 2, 3, 4):
        for N in (1, 2, 3, 4):
            expect = sum(c * c for c in shapes.path_counts(n, N).values())
            assert centralizer_rank(n, N) == expect


def _dense_doubled_casimir(n, N):
    """2C = -sum_{i<j} A_ij^2 from Kronecker products, A_ij the sum over the
    tensor positions of E_ij - E_ji acting on that factor alone."""
    out = np.zeros((N**n, N**n), dtype=np.int64)
    for i in range(N):
        for j in range(i + 1, N):
            a = np.zeros((N, N), dtype=np.int64)
            a[i, j], a[j, i] = 1, -1
            big = sum(
                np.kron(np.kron(np.eye(N**p, dtype=np.int64), a), np.eye(N ** (n - 1 - p), dtype=np.int64))
                for p in range(n)
            )
            out -= big @ big
    return out


def test_casimir():
    for n, N in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)]:
        rep = casimir_check(n, N)
        assert rep["ok"] and rep["checked"] == N**n
        # the index arithmetic of 2C against Kronecker products
        assert (tensor._casimir_matrix(n, N).toarray() == _dense_doubled_casimir(n, N)).all()
    # sum_i u(i,i) is killed by every E_ij - E_ji, hence by both operators
    v2 = TensorVector(2, 2, [Fraction(1), Fraction(0), Fraction(0), Fraction(1)])
    zero = TensorVector(2, 2, [Fraction(0)] * 4)
    assert casimir_apply(v2) == jm_sum_apply(v2) == zero
    # amplitudes with denominators come back exact
    rng = random.Random(13)
    v = TensorVector(3, 3, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(27)])
    expect = _dense_doubled_casimir(3, 3) @ np.array(v.amps, dtype=object)
    assert casimir_apply(v) == jm_sum_apply(v) == TensorVector(3, 3, [x / 2 for x in expect])


def test_casimir_check_fails_without_one_bar_term(monkeypatch):
    n, N = 3, 2
    jm_sum = sum(jucys_murphy(k, n) for k in range(1, n + 1))
    broken = jm_sum + AlgebraElement.from_diagram(bar_transposition(1, 3, n))
    monkeypatch.setattr(tensor, "_jm_sum_matrix", lambda n, N: tensor._doubled_action(broken, N))
    assert not casimir_check(n, N)["ok"]


def test_spectrum_annihilation():
    for n, N in [(3, 2), (3, 3), (2, 4), (2, 1), (4, 2)]:
        for k in range(1, n + 1):
            rep = spectrum_annihilation_check(k, n, N)
            assert rep["ok"] and rep["eigenvalues"] == sorted(tensor.predicted_jm_spectrum(k, N))


def test_predicted_spectrum_is_the_all_paths_spectrum():
    # the walk's edges into level k against x_k on every path to level k
    for k in range(1, 9):
        for N in range(1, 10):
            every_path = {
                jm_eigenvalue(path, k, N)
                for lam in shapes.enumerate_O(k, N)
                for path in shapes.enumerate_paths(lam, k, N)
            }
            assert tensor.predicted_jm_spectrum(k, N) == every_path, (k, N)


def test_spectrum_product_fails_without_one_eigenvalue(monkeypatch):
    predicted = tensor.predicted_jm_spectrum
    for n, N in [(3, 2), (3, 3), (2, 4)]:
        for k in range(2, n + 1):
            values = predicted(k, N)
            for e in values:
                monkeypatch.setattr(tensor, "predicted_jm_spectrum", lambda k, N: values - {e})
                assert not spectrum_annihilation_check(k, n, N)["ok"], (k, n, N, e)


def test_integer_products_refuse_to_wrap():
    big = sparse.csr_matrix(np.array([[2**32]], dtype=np.int64))
    with pytest.raises(ValueError, match="could pass int64"):
        tensor._matmul(big, big)
    with pytest.raises(ValueError, match="could pass int64"):
        tensor._matmul(big, np.array([2**32], dtype=np.int64))
    # a row sum, not one entry, sets the bound
    row = sparse.csr_matrix(np.array([[2**30, 2**30, 2**30, 2**30]], dtype=np.int64))
    with pytest.raises(ValueError, match="could pass int64"):
        tensor._matmul(row, np.full(4, 2**30, dtype=np.int64))
    small = sparse.csr_matrix(np.array([[2**30]], dtype=np.int64))
    assert tensor._matmul(small, small).toarray()[0, 0] == 2**60


def test_act_element_matches_sum():
    # 2 x_3 = (N - 1) + 2 sum_{l<3} (s_l3 - sbar_l3) on the whole space
    N = 2
    direct = (N - 1) * np.eye(N**3, dtype=np.int64)
    for l in (1, 2):
        direct = direct + 2 * diagram_matrix(transposition(l, 3, 3), N).toarray()
        direct = direct - 2 * diagram_matrix(bar_transposition(l, 3, 3), N).toarray()
    assert (tensor._doubled_action(jucys_murphy(3, 3), N).toarray() == direct).all()
