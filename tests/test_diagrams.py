import random
import time
from fractions import Fraction
from itertools import chain

import pytest

from brauer import _kernel, diagrams
from brauer.coeffs import NPoly, n_minus_1_half
from brauer.diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    bar_transposition,
    compose,
    compose_chain,
    diagram_to_json,
    element_to_json,
    factor_diagram,
    from_permutation,
    jm_relations,
    jucys_murphy,
    multiply,
    partial_closure,
    perm_word,
    presentation_relations,
    random_diagram,
    relation_count,
    s_diagram,
    s_elem,
    sbar_diagram,
    sbar_elem,
    transposition,
    verify_jm_relations,
    verify_presentation,
    z_element,
    _cap,
    _compose_cached,
    _generator_of,
    _generator_product,
    _swap,
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


def _reference_compose(p1: tuple[int, ...], p2: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """The composition read off the stacked graph on 3n vertices, with no
    call to the kernel: p1's vertex v is vertex v, p2's vertex v is n + v,
    so n..2n-1 is the glued row.  A union-find joins each edge's ends; a
    component with two outer vertices is an edge of the result, one with
    none is a closed loop."""
    parent = list(range(3 * n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for shift, p in ((0, p1), (n, p2)):
        for v, w in enumerate(p):
            parent[find(shift + v)] = find(shift + w)
    components: dict[int, list[int]] = {}
    for v in range(3 * n):
        components.setdefault(find(v), []).append(v)
    result = [-1] * (2 * n)
    loops = 0
    for vs in components.values():
        ends = [v if v < n else v - n for v in vs if not n <= v < 2 * n]
        if not ends:
            loops += 1
            continue
        a, b = ends
        result[a], result[b] = b, a
    return tuple(result), loops


def test_kernel_matches_reference_composition():
    pairs = [(a, b) for n in range(4) for a in all_diagrams(n) for b in all_diagrams(n)]
    rng = random.Random(2026)
    pairs += [(random_diagram(n, rng), random_diagram(n, rng)) for n in range(4, 9) for _ in range(2000)]
    for a, b in pairs:
        want = _reference_compose(a.pairing, b.pairing, a.n)
        assert _kernel.compose_pairings(a.pairing, b.pairing, a.n) == want, (a, b)
        # the memo holds the kernel's plain tuples, keyed by the pairings and n
        pairing, loops = _compose_cached(a.pairing, b.pairing, a.n)
        assert type(pairing) is tuple and (pairing, loops) == want


def test_kernel_diagrams_are_their_tuples():
    # compose, _swap, _cap and multiply wrap their output without
    # validation; it must still equal, and hash like, the validated diagram
    # and the plain (n, pairing)
    def outputs(n):
        x = jucys_murphy(n, n)
        for g in all_diagrams(n):
            yield compose(g, sbar_diagram(1, n))[0]
            yield from multiply(x, AlgebraElement.from_diagram(g)).terms
            for u in (*range(n - 1), *range(n, 2 * n - 1)):
                yield _swap(g, u)
                yield _cap(g, u)[0]

    for n in range(2, 5):
        for d in outputs(n):
            assert type(d) is BrauerDiagram and d.n == n
            for same in (BrauerDiagram(n, d.pairing), (n, d.pairing)):
                assert d == same and hash(d) == hash(same)


def test_multiply_examples():
    one = AlgebraElement.one(2)
    assert multiply(s_elem(1, 2), s_elem(1, 2)) == one
    assert multiply(sbar_elem(1, 2), sbar_elem(1, 2)) == sbar_elem(1, 2).scale(N)
    x2, x3 = jucys_murphy(2, 3), jucys_murphy(3, 3)
    assert multiply(x2, x3) - multiply(x3, x2) == AlgebraElement.zero(3)


def _random_element(n: int, terms: int, rng: random.Random) -> AlgebraElement:
    coeffs = (Fraction(-3, 2), Fraction(-1, 2), 0, Fraction(1, 3), 1, 2)
    out = {}
    while len(out) < terms:
        c = NPoly({0: rng.choice(coeffs), 1: rng.choice(coeffs)})
        if c:
            out[random_diagram(n, rng)] = c
    return AlgebraElement(n, out)


def _reference_product(a: AlgebraElement, b: AlgebraElement) -> dict:
    """The product straight from the kernel, summed in plain NPoly arithmetic."""
    out = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            pairing, loops = _kernel.compose_pairings(d1.pairing, d2.pairing, a.n)
            d = BrauerDiagram(a.n, pairing)
            out[d] = out.get(d, NPoly()) + c1 * c2 * N**loops
    return {d: c for d, c in out.items() if c}


def test_multiply_does_not_depend_on_memo_state():
    rng = random.Random(12)
    a, b = _random_element(5, 100, rng), _random_element(5, 100, rng)
    want = _reference_product(a, b)
    _compose_cached.cache_clear()
    cold = multiply(a, b)
    info = _compose_cached.cache_info()
    # one product makes more compositions than the memo holds, so it evicts
    assert info.hits + info.misses == 10_000 > info.maxsize == info.currsize
    warm = multiply(a, b)
    assert _compose_cached.cache_info().misses > info.misses
    for got in (cold, warm):
        assert got.terms == want
        _assert_normal_form(got)
    assert cold == warm


def test_products_above_the_memo_range_leave_the_memo_alone():
    # B(n > COMPOSE_MEMO_MAX_N) calls the kernel directly: no lookup, no insert
    assert diagrams.COMPOSE_MEMO_MAX_N == 5
    rng = random.Random(13)
    for n in (6, 8):
        a, b = _random_element(n, 12, rng), _random_element(n, 12, rng)
        g, g2 = random_diagram(n, rng), random_diagram(n, rng)
        info = _compose_cached.cache_info()
        got = multiply(a, b)
        d, loops = compose(g, g2)
        assert _compose_cached.cache_info() == info
        assert got.terms == _reference_product(a, b)
        _assert_normal_form(got)
        pairing, want_loops = _kernel.compose_pairings(g.pairing, g2.pairing, n)
        assert (d, loops) == (BrauerDiagram(n, pairing), want_loops) and type(d) is BrauerDiagram


def _assert_normal_form(e: AlgebraElement) -> None:
    # no zero coefficient, an int wherever it is integral
    assert all(c and type(c) is NPoly for c in e.terms.values())
    assert all(type(x) is int for c in e.terms.values() for x in c.coeffs.values() if x.denominator == 1)


def _generators(n: int) -> dict[tuple[bool, int], BrauerDiagram]:
    """(bar, k) -> the diagram of sbar_k (bar True) or s_k, for B(n)."""
    return {(bar, k): sbar_diagram(k, n) if bar else s_diagram(k, n) for bar in (False, True) for k in range(1, n)}


def test_generator_products_match_kernel():
    # the local two-vertex rule, on both sides, against the composition
    # kernel: same diagram, same loop count, for every diagram of B(n <= 5)
    for n in range(1, 6):
        for g, gd in _generators(n).items():
            for d in all_diagrams(n):
                e = AlgebraElement.from_diagram(d)
                for left in (False, True):
                    top, bottom = (gd, d) if left else (d, gd)
                    pairing, loops = _kernel.compose_pairings(top.pairing, bottom.pairing, n)
                    got = _generator_product(e, g, NPoly.one(), left)
                    assert got.terms == {BrauerDiagram(n, pairing): N**loops}, (g, d, left)


def test_generator_of_recognises_exactly_the_generators():
    for n in range(0, 6):
        found = {d: g for d in all_diagrams(n) if (g := _generator_of(d)) is not None}
        want = {gd: g for g, gd in _generators(n).items()}
        assert found == want
    # the identity and the non-adjacent terms of a Jucys-Murphy element
    assert _generator_of(BrauerDiagram.identity(4)) is None
    assert _generator_of(transposition(1, 3, 4)) is None
    assert _generator_of(bar_transposition(2, 4, 4)) is None


def test_multiply_by_one_term_factor_matches_reference():
    # a one-term factor on either side, generator or not, against the
    # product straight from the kernel
    rng = random.Random(17)
    n = 6
    coeffs = (NPoly.one(), NPoly.const(-2), N, n_minus_1_half())
    others = [_random_element(n, terms, rng) for terms in (1, 7, 100)]
    diagrams = list(_generators(n).values())
    diagrams += [BrauerDiagram.identity(n), transposition(2, 5, n), random_diagram(n, rng)]
    for d in diagrams:
        for c in coeffs:
            g = AlgebraElement.from_diagram(d, c)
            for e in others:
                for a, b in ((e, g), (g, e)):
                    got = multiply(a, b)
                    assert got.terms == _reference_product(a, b), (d, c, a.n)
                    _assert_normal_form(got)


def test_multiply_with_fractional_coefficients_matches_reference():
    # the general path multiplies integer numerators and divides once per
    # output coefficient; sums that become integral or cancel must come out
    # in NPoly's normal form
    rng = random.Random(18)
    fractional = (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6), 1, -2)
    integral = (1, -2, 3)

    def element(n, terms, choices):
        out = {}
        while len(out) < terms:
            c = NPoly({0: rng.choice(choices), 1: rng.choice(choices), 2: rng.choice((0, *choices))})
            out[random_diagram(n, rng)] = c
        return AlgebraElement(n, out)

    for n in (4, 5):
        for terms in (2, 6, 30):
            a = element(n, terms, fractional)
            b = element(n, terms, fractional)
            c = element(n, terms, integral)
            halves = a.scale(6)  # integral, with the same diagrams as a
            for x, y in ((a, b), (b, a), (a, a), (a, c), (c, a), (c, c), (halves, a), (a, -a)):
                got = multiply(x, y)
                assert got.terms == _reference_product(x, y)
                _assert_normal_form(got)
    # (1 - s_1)/2 * (1 + s_1) = 0: every output coefficient cancels
    one, s1 = BrauerDiagram.identity(3), s_diagram(1, 3)
    half = NPoly.const(Fraction(1, 2))
    assert multiply(AlgebraElement(3, {one: half, s1: -half}), AlgebraElement(3, {one: 1, s1: 1})).terms == {}


def test_power():
    x = jucys_murphy(2, 3)
    with pytest.raises(ValueError):
        x.power(-1)
    assert x.power(0) == AlgebraElement.one(3)
    assert x.power(1) == x
    assert x.power(3) == multiply(multiply(x, x), x)


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


def test_presentation_max_cases():
    total = verify_presentation(3)["checked"]
    assert verify_presentation(3, max_cases=total - 1)["checked"] == total - 1
    assert verify_presentation(3, max_cases=0)["checked"] == 0
    with pytest.raises(ValueError, match="max_cases"):
        verify_presentation(3, max_cases=-1)


def test_relation_tables_are_generated():
    # a relation comes without the ~3.5 n^2 others being built first
    t0 = time.perf_counter()
    assert next(presentation_relations(10**6))[0] == "involution k=1"
    assert next(jm_relations(10**6))[0] == "x-commute-s k=1 l=3"
    report = verify_presentation(400, max_cases=3)
    assert time.perf_counter() - t0 < 1.0
    assert report["checked"] == 3 and report["all_ok"]
    assert [r["relation"] for r in report["results"]] == ["involution k=1", "bar-square k=1", "absorb-left k=1"]


def test_relation_count_is_what_the_tables_yield():
    for n in range(12):
        assert relation_count(n) == sum(1 for _ in chain(presentation_relations(n), jm_relations(n)))


def test_presentation_mutation_sensitivity(monkeypatch):
    # a corrupted product rule must be caught
    def corrupted(a, b):
        return multiply(a, b).scale(N)

    monkeypatch.setattr(diagrams, "multiply", corrupted)
    report = verify_presentation(2)
    assert not report["all_ok"]


def test_relation_table_coefficients_are_plain():
    # every coefficient is the int 1 or -1, except the N of bar-square
    for n in (2, 3, 4):
        for name, lhs, rhs in chain(presentation_relations(n), jm_relations(n)):
            coeffs = [c for c, _ in lhs + rhs]
            if name.startswith("bar-square"):
                assert coeffs == [1, N] and type(coeffs[0]) is int and type(coeffs[1]) is NPoly
            else:
                assert all(type(c) is int and c in (1, -1) for c in coeffs), name


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
        a = AlgebraElement.from_diagram(random_diagram(k - 1, rng))
        c = AlgebraElement.from_diagram(random_diagram(k - 1, rng))
        b = AlgebraElement.from_diagram(random_diagram(k, rng))
        lhs = partial_closure(multiply(multiply(a.embed(k), b), c.embed(k)))
        rhs = multiply(multiply(a, partial_closure(b)), c)
        assert lhs == rhs


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


def test_json_forms():
    # the exact form `brauer mult --format json` prints
    e = jucys_murphy(3, 3)
    edges = [
        [["1", "3"], ["2", "2b"], ["1b", "3b"]],
        [["1", "1b"], ["2", "3"], ["2b", "3b"]],
        [["1", "1b"], ["2", "2b"], ["3", "3b"]],
        [["1", "1b"], ["2", "3b"], ["3", "2b"]],
        [["1", "3b"], ["2", "2b"], ["3", "1b"]],
    ]
    assert [diagram_to_json(d) for d in sorted(e.terms)] == [{"n": 3, "edges": x} for x in edges]
    assert element_to_json(e) == [
        {"coeff": c, "diagram": {"n": 3, "edges": x}}
        for c, x in zip(["-1", "-1", "1/2*N - 1/2", "1", "1"], edges)
    ]
