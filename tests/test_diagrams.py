import random

import pytest

from brauer.coeffs import NPoly, n_minus_1_half
from brauer.diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    bar_transposition,
    compose,
    compose_chain,
    diagram_from_json,
    diagram_to_json,
    element_from_json,
    element_to_json,
    factor_diagram,
    from_permutation,
    jucys_murphy,
    multiply,
    partial_closure,
    perm_word,
    random_diagram,
    restrict,
    s_diagram,
    s_elem,
    sbar_diagram,
    sbar_elem,
    transposition,
    verify_jm_relations,
    verify_presentation,
    z_element,
    _token_diagram,
)

N = NPoly.N()


def test_compose_examples():
    # sbar_1 * sbar_1 = N sbar_1 in B(2)
    sb = sbar_diagram(1, 2)
    d, loops = compose(sb, sb)
    assert d == sb and loops == 1
    # identity absorbs
    for g in all_diagrams(2):
        assert compose(BrauerDiagram.identity(2), g) == (g, 0)
    # sbar_1 sbar_2 sbar_1 = sbar_1 with no loops
    d, loops = compose_chain([sbar_diagram(1, 3), sbar_diagram(2, 3), sbar_diagram(1, 3)], 3)
    assert d == sbar_diagram(1, 3) and loops == 0


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(BrauerDiagram.identity(2), BrauerDiagram.identity(3))


def test_multiply_examples():
    one = AlgebraElement.one(2)
    assert multiply(s_elem(1, 2), s_elem(1, 2)) == one
    assert multiply(sbar_elem(1, 2), sbar_elem(1, 2)) == sbar_elem(1, 2).scale(N)
    x2, x3 = jucys_murphy(2, 3), jucys_murphy(3, 3)
    assert multiply(x2, x3) - multiply(x3, x2) == AlgebraElement.zero(3)


def test_distinguished_diagrams():
    assert from_permutation((0, 1, 2)) == BrauerDiagram.identity(3)
    assert transposition(1, 2, 2) == s_diagram(1, 2)
    d = bar_transposition(1, 3, 3)
    assert set(d.edges()) == {(0, 2), (3, 5), (1, 4)}
    with pytest.raises(ValueError):
        transposition(2, 2, 3)
    with pytest.raises(ValueError):
        bar_transposition(1, 4, 3)


def test_dimension_is_double_factorial():
    import math

    for n in range(1, 5):
        assert len(list(all_diagrams(n))) == math.prod(range(1, 2 * n, 2))


def test_presentation_sweep():
    for n in (2, 3, 4):
        assert verify_presentation(n)["all_ok"]


def test_presentation_mutation_sensitivity():
    # a corrupted product rule must be caught
    def corrupted(a, b):
        return multiply(a, b).scale(N)

    report = verify_presentation(2, product=corrupted)
    assert not report["all_ok"]


def test_jucys_murphy_examples():
    x1 = jucys_murphy(1, 1)
    assert x1 == AlgebraElement.one(1).scale(n_minus_1_half())
    x2 = jucys_murphy(2, 2)
    expect = AlgebraElement.one(2).scale(n_minus_1_half())
    expect = expect + AlgebraElement.from_diagram(transposition(1, 2, 2))
    expect = expect - AlgebraElement.from_diagram(bar_transposition(1, 2, 2))
    assert x2 == expect
    # x_3 commutes with sbar_1 in B(3)
    x3 = jucys_murphy(3, 3)
    sb = sbar_elem(1, 3)
    assert multiply(x3, sb) == multiply(sb, x3)


def test_jm_relations_sweep():
    for n in (2, 3):
        assert verify_jm_relations(n)["all_ok"]


def test_partial_closure_examples():
    # closing the identity of B(1) gives N in B(0)
    closed = partial_closure(AlgebraElement.one(1))
    assert closed.n == 0 and list(closed.terms.values())[0] == N
    # closure of x_1 = (N-1)/2 gives N(N-1)/2
    closed = partial_closure(jucys_murphy(1, 1))
    assert list(closed.terms.values())[0] == N * n_minus_1_half()
    # closure of sbar_1 in B(2) is the identity of B(1)
    closed = partial_closure(sbar_elem(1, 2))
    assert closed == AlgebraElement.one(1)


def test_partial_closure_bimodule_property():
    # closure(a b c) = a closure(b) c for a, c in B(k-1)
    rng = random.Random(3)
    k = 3
    for _ in range(20):
        a = AlgebraElement.from_diagram(random_diagram(k - 1, rng)).embed(k)
        c = AlgebraElement.from_diagram(random_diagram(k - 1, rng)).embed(k)
        b = AlgebraElement.from_diagram(random_diagram(k, rng))
        lhs = partial_closure(multiply(multiply(a, b), c))
        rhs = multiply(
            multiply(restrict(a, k - 1), partial_closure(b)), restrict(c, k - 1)
        )
        assert lhs == rhs


def test_restrict_rejects_unsupported():
    with pytest.raises(ValueError):
        restrict(sbar_elem(2, 3), 2)


def test_z_elements():
    # z_1^(i) = N ((N-1)/2)^i
    h = n_minus_1_half()
    for i in range(4):
        z = z_element(1, i)
        assert z.n == 0 and list(z.terms.values())[0] == N * h**i
    assert list(z_element(2, 0).terms.values())[0] == N
    assert list(z_element(2, 1).terms.values())[0] == N * h
    # z_k^(i) is central in B(k-1)
    for k, i in [(2, 1), (3, 2), (3, 3)]:
        z = z_element(k, i)
        for g in all_diagrams(k - 1):
            ge = AlgebraElement.from_diagram(g)
            assert multiply(z, ge) == multiply(ge, z)


def test_z_recurrence():
    # -2 z^(i) = z^(i-1) + sum_j (-1)^j z^(i-j) z^(j-1) for odd i
    for k in (1, 2, 3):
        zs = [z_element(k, i) for i in range(6)]
        for i in (1, 3, 5):
            rhs = zs[i - 1]
            for j in range(1, i + 1):
                t = multiply(zs[i - j], zs[j - 1])
                rhs = rhs + (t.scale(-1) if j % 2 else t)
            assert zs[i].scale(-2) == rhs


def test_factor_diagram_roundtrip():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            d = random_diagram(n, rng)
            word = factor_diagram(d)
            back, loops = compose_chain([_token_diagram(t, n) for t in word], n)
            assert back == d and loops == 0


def test_perm_word():
    rng = random.Random(6)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            p = list(range(n))
            rng.shuffle(p)
            word = perm_word(tuple(p))
            d, loops = compose_chain([s_diagram(k, n) for k in word], n)
            assert loops == 0 and d == from_permutation(tuple(p))


def test_json_roundtrip():
    rng = random.Random(8)
    for n in (1, 2, 3):
        for _ in range(10):
            d = random_diagram(n, rng)
            assert diagram_from_json(diagram_to_json(d)) == d
    e = jucys_murphy(3, 3)
    assert element_from_json(element_to_json(e), 3) == e
