import itertools
import random
from fractions import Fraction

from brauer import shapes
from brauer.diagrams import all_diagrams, compose, factor_diagram, random_diagram, _token_diagram
from brauer.tensor import (
    TensorVector,
    act_bar,
    act_diagram,
    act_element,
    act_transposition,
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


def test_index_arithmetic():
    for t in itertools.product(range(3), repeat=3):
        assert index_to_tuple(tuple_to_index(t, 3), 3, 3) == t


def test_action_examples():
    # bar(1,2) on u(1,1) -> u(1,1) + u(2,2)
    v = TensorVector.basis_vector((0, 0), 2)
    out = act_bar(1, 2, 2, 2)(v)
    assert out == TensorVector.basis_vector((0, 0), 2) + TensorVector.basis_vector((1, 1), 2)
    # transposition swaps
    v = TensorVector.basis_vector((0, 1), 2)
    assert act_transposition(1, 2, 2, 2)(v) == TensorVector.basis_vector((1, 0), 2)
    # delta kills mixed indices
    assert act_bar(1, 2, 2, 2)(v).is_zero()


def test_act_diagram_against_factorizations():
    # the delta-product rule agrees with generator factorizations on all of B(3)
    n, N = 3, 2
    for g in all_diagrams(n):
        ops = [act_diagram(_token_diagram(t, n), N) for t in factor_diagram(g)]
        direct = act_diagram(g, N)
        for t in itertools.product(range(N), repeat=n):
            e = TensorVector.basis_vector(t, N)
            acc = e
            for op in reversed(ops):
                acc = op(acc)
            assert acc == direct(e)


def test_identity_and_permutation_actions():
    from brauer.diagrams import BrauerDiagram, from_permutation

    v = TensorVector.random(3, 2, random.Random(0))
    assert act_diagram(BrauerDiagram.identity(3), 2)(v) == v
    p = (1, 2, 0)
    op = act_diagram(from_permutation(p), 2)
    for t in itertools.product(range(2), repeat=3):
        out = op(TensorVector.basis_vector(t, 2))
        # the permutation diagram sends u(i_1,i_2,i_3) to u(i_{p^-1(k)})
        expect = tuple(t[p.index(k)] for k in range(3))
        assert out == TensorVector.basis_vector(expect, 2)


def test_linearity_spot_check():
    rng = random.Random(2)
    op = act_diagram(random_diagram(3, rng), 2)
    a, b = TensorVector.random(3, 2, rng), TensorVector.random(3, 2, rng)
    assert op(a + b) == op(a) + op(b)
    assert op(a.scale(Fraction(3, 7))) == op(a).scale(Fraction(3, 7))


def test_sparse_matrix_matches_functional():
    # the index-arithmetic matrices against the functional reference action,
    # on every (n, N) with N^n <= 64, N = 1 and n = 1 included
    import numpy as np

    rng = random.Random(4)
    grid = [(n, N) for n in range(1, 7) for N in range(1, 65) if N**n <= 64]
    for n, N in grid:
        for g in {random_diagram(n, rng) for _ in range(5)}:
            m = diagram_matrix(g, N)
            op = act_diagram(g, N)
            dense = np.zeros((N**n, N**n), dtype=int)
            for col in range(N**n):
                e = TensorVector.basis_vector(index_to_tuple(col, n, N), N)
                out = op(e)
                for row, amp in enumerate(out.amps):
                    dense[row, col] = int(amp)
            assert m.dtype == np.int64 and m.nnz == N**n
            assert (m.toarray() == dense).all()


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
    op = act_diagram(g, 3)
    for t in itertools.product(range(3), repeat=2):
        e = TensorVector.basis_vector(t, 3)
        assert op(op(e)) == op(e).scale(Fraction(3))


def test_centralizer_ranks():
    assert centralizer_rank(2, 2) == 3
    assert centralizer_rank(2, 3) == 3
    # N < n loses faithfulness: rank drops below (2n-1)!!
    assert centralizer_rank(3, 2) == 10 < 15
    assert centralizer_rank(3, 3) == 15
    assert centralizer_rank(3, 4) == 15
    # rank of the span of the diagram actions = dim of the centralizer
    for n in (1, 2, 3):
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
    op = act_element(jucys_murphy(3, 3), 2)
    direct = v.scale(Fraction(1, 2))
    direct = direct + act_transposition(1, 3, 3, 2)(v) - act_bar(1, 3, 3, 2)(v)
    direct = direct + act_transposition(2, 3, 3, 2)(v) - act_bar(2, 3, 3, 2)(v)
    assert op(v) == direct
