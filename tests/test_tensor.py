import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from brauer import shapes, tensor
from brauer.diagrams import (
    all_diagrams,
    bar_transposition,
    compose,
    factor_diagram,
    random_diagram,
    transposition,
    _token_diagram,
)
from brauer.tensor import (
    TensorVector,
    apply_diagram,
    apply_element,
    casimir_apply,
    casimir_check,
    centralizer_rank,
    diagram_matrix,
    jm_sum_apply,
    spectrum_annihilation_check,
    tuple_to_index,
    index_to_tuple,
    verify_homomorphism,
)


def _delta_action(g, N, v):
    """Reference action, independent of the index arithmetic: the entry
    between output tuple j and input tuple i is the product over edges of the
    delta of the two incident indices, top vertices reading j and bottom
    vertices reading i."""
    n = g.n
    tops = [(a - 1, b - 1) for a, b in g.top_edges()]
    bottoms = [(a - 1, b - 1) for a, b in g.bottom_edges()]
    throughs = [(t - 1, b - 1) for t, b in g.through_edges()]
    out = TensorVector.zero(n, N)
    for idx, amp in enumerate(v.amps):
        if not amp:
            continue
        i = index_to_tuple(idx, n, N)
        if any(i[a] != i[b] for a, b in bottoms):
            continue
        base = [0] * n
        for t, b in throughs:
            base[t] = i[b]
        # each top edge sums over one free index
        for assign in itertools.product(range(N), repeat=len(tops)):
            for (a, b), val in zip(tops, assign):
                base[a] = base[b] = val
            out.amps[tuple_to_index(tuple(base), N)] += amp
    return out


def test_index_arithmetic():
    for t in itertools.product(range(3), repeat=3):
        assert index_to_tuple(tuple_to_index(t, 3), 3, 3) == t


def test_action_examples():
    # bar(1,2) on u(1,1) -> u(1,1) + u(2,2)
    bar, swap = bar_transposition(1, 2, 2), transposition(1, 2, 2)
    v = TensorVector.basis_vector((0, 0), 2)
    out = apply_diagram(bar, 2, v)
    assert out == TensorVector.basis_vector((0, 0), 2) + TensorVector.basis_vector((1, 1), 2)
    # transposition swaps
    v = TensorVector.basis_vector((0, 1), 2)
    assert apply_diagram(swap, 2, v) == TensorVector.basis_vector((1, 0), 2)
    # delta kills mixed indices
    assert apply_diagram(bar, 2, v).is_zero()
    with pytest.raises(ValueError):
        apply_diagram(bar, 3, v)


def test_vector_arithmetic_rejects_mismatched_shapes():
    v = TensorVector.basis_vector((0, 1), 2)
    for other in (TensorVector.basis_vector((1, 1, 1), 2), TensorVector.basis_vector((1, 1), 3)):
        with pytest.raises(ValueError):
            v + other
        with pytest.raises(ValueError):
            v - other
    assert (v - v).is_zero() and (v + v) == v.scale(Fraction(2))


def test_act_diagram_against_factorizations():
    # the delta-product rule agrees with generator factorizations on all of B(3)
    n, N = 3, 2
    for g in all_diagrams(n):
        factors = [_token_diagram(t, n) for t in factor_diagram(g)]
        for t in itertools.product(range(N), repeat=n):
            e = TensorVector.basis_vector(t, N)
            acc = e
            for f in reversed(factors):
                acc = apply_diagram(f, N, acc)
            assert acc == apply_diagram(g, N, e) == _delta_action(g, N, e)


def test_identity_and_permutation_actions():
    from brauer.diagrams import BrauerDiagram, from_permutation

    v = TensorVector.random(3, 2, random.Random(0))
    assert apply_diagram(BrauerDiagram.identity(3), 2, v) == v
    p = (1, 2, 0)
    g = from_permutation(p)
    for t in itertools.product(range(2), repeat=3):
        out = apply_diagram(g, 2, TensorVector.basis_vector(t, 2))
        # the permutation diagram sends u(i_1,i_2,i_3) to u(i_{p^-1(k)})
        expect = tuple(t[p.index(k)] for k in range(3))
        assert out == TensorVector.basis_vector(expect, 2)


def test_linearity_spot_check():
    rng = random.Random(2)
    g = random_diagram(3, rng)
    a, b = TensorVector.random(3, 2, rng), TensorVector.random(3, 2, rng)
    assert apply_diagram(g, 2, a + b) == apply_diagram(g, 2, a) + apply_diagram(g, 2, b)
    assert apply_diagram(g, 2, a.scale(Fraction(3, 7))) == apply_diagram(g, 2, a).scale(Fraction(3, 7))


def test_sparse_matrix_matches_functional():
    # the index-arithmetic matrices and vector action against the functional
    # reference action, on every (n, N) with N^n <= 64, N = 1 and n = 1 included
    rng = random.Random(4)
    grid = [(n, N) for n in range(1, 7) for N in range(1, 65) if N**n <= 64]
    for n, N in grid:
        for g in {random_diagram(n, rng) for _ in range(5)}:
            m = diagram_matrix(g, N)
            dense = np.zeros((N**n, N**n), dtype=int)
            for col in range(N**n):
                e = TensorVector.basis_vector(index_to_tuple(col, n, N), N)
                out = _delta_action(g, N, e)
                assert apply_diagram(g, N, e) == out
                for row, amp in enumerate(out.amps):
                    dense[row, col] = int(amp)
            assert m.dtype == np.int64 and m.nnz == N**n
            assert (m.toarray() == dense).all()


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


def test_homomorphism_example_pair():
    # (sbar_1, sbar_1) at n=2: q=1 and the identity holds
    from brauer.diagrams import sbar_diagram

    g = sbar_diagram(1, 2)
    _, loops = compose(g, g)
    assert loops == 1
    for t in itertools.product(range(3), repeat=2):
        e = TensorVector.basis_vector(t, 3)
        once = apply_diagram(g, 3, e)
        assert apply_diagram(g, 3, once) == once.scale(Fraction(3))


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


def test_casimir():
    rng = random.Random(13)
    for n, N in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        assert casimir_check(n, N, 3, rng)["ok"]
    # sum_i u(i,i) is killed by every E_ij - E_ji, hence by both operators
    v2 = TensorVector.zero(2, 2)
    v2.amps[tuple_to_index((0, 0), 2)] = Fraction(1)
    v2.amps[tuple_to_index((1, 1), 2)] = Fraction(1)
    assert casimir_apply(v2).is_zero()
    assert jm_sum_apply(v2).is_zero()


def test_spectrum_annihilation():
    rng = random.Random(17)
    for n, N in [(3, 2), (3, 3), (2, 4)]:
        for k in range(1, n + 1):
            assert spectrum_annihilation_check(k, n, N, 2, rng)["ok"]


def test_act_element_matches_sum():
    from brauer.diagrams import jucys_murphy

    rng = random.Random(19)
    v = TensorVector.random(3, 2, rng)
    direct = v.scale(Fraction(1, 2))
    for l in (1, 2):
        direct = direct + apply_diagram(transposition(l, 3, 3), 2, v)
        direct = direct - apply_diagram(bar_transposition(l, 3, 3), 2, v)
    assert apply_element(jucys_murphy(3, 3), 2, v) == direct
