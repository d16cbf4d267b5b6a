import copy
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brauer.affine import (
    AffineElement,
    HeckeElement,
    RegularMonomial,
    _check_regular,
    _element,
    _mul_term_atom,
    _normalize_into,
    _odd_w_expansion,
    _raw,
    _times_atom,
    _w_unit,
    cap_series,
    element_to_json,
    from_word,
    hecke_quotient,
    parse_word,
    pi_m,
    pi_word,
    regular_monomials as monomials_up_to,
    s_elem,
    sbar_elem,
    w_elem,
    y_elem,
)
from brauer.coeffs import NPoly, add_term, n_minus_1_half
from brauer.diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    compose,
    factor_diagram,
    from_permutation,
    jucys_murphy,
    multiply,
    perm_word,
    random_diagram,
    s_diagram,
    sbar_diagram,
    z_element,
)
from brauer.elimination import integer_rank

N = NPoly.N()
H = n_minus_1_half()


def random_monomial(n, rng, maxdeg=2):
    d = random_diagram(n, rng)
    top_bad = {b for _, b in d.top_edges()}
    bot_ok = {b for _, b in d.bottom_edges()}
    left, right = [0] * n, [0] * n
    for _ in range(rng.randint(0, maxdeg)):
        if rng.random() < 0.5:
            left[rng.choice([m for m in range(1, n + 1) if m not in top_bad]) - 1] += 1
        elif bot_ok:
            right[rng.choice(sorted(bot_ok)) - 1] += 1
    w = (1,) if rng.random() < 0.3 else ()
    return AffineElement.from_monomial(RegularMonomial(n, tuple(left), d, tuple(right), w))


def test_parse_word():
    assert parse_word("s1 y2 sbar1 w2") == [("s", 1), ("y", 2), ("sbar", 1), ("w", 2)]
    with pytest.raises(ValueError):
        parse_word("q3")


def test_from_word_rejects_out_of_range_atoms():
    n = 3
    for atom in [("s", 0), ("s", 3), ("sbar", 0), ("sbar", 3), ("y", 0), ("y", 4), ("y", -1), ("w", -2)]:
        with pytest.raises(ValueError, match="out of range"):
            from_word([("s", 1), atom], n)
    with pytest.raises(ValueError, match="unknown atom"):
        from_word([("t", 1)], n)
    # the extreme legal indices still multiply
    assert from_word([("s", 2), ("sbar", 2), ("y", 1), ("y", 3), ("w", 0), ("w", 3)], n)


def test_regularity_enforced():
    with pytest.raises(ValueError):
        # left exponent on the right end of a top edge
        RegularMonomial(2, (0, 1), sbar_diagram(1, 2), (0, 0), ())
    with pytest.raises(ValueError):
        # right exponent on a strand that is not a bottom-edge right end
        RegularMonomial(2, (0, 0), sbar_diagram(1, 2), (1, 0), ())


def _all_atoms(n):
    return (
        [("s", k) for k in range(1, n)]
        + [("sbar", k) for k in range(1, n)]
        + [("y", k) for k in range(1, n + 1)]
        + [("w", i) for i in range(4)]
    )


@pytest.mark.parametrize("n", [2, 3])
def test_trusted_monomials_are_regular(n):
    # the engine builds monomials without validation; every one that reaches
    # a caller must survive the validating constructor unchanged
    atoms = _all_atoms(n)
    for length in range(4):
        for word in itertools.product(atoms, repeat=length):
            for t in from_word(list(word), n).terms:
                assert RegularMonomial(t.n, t.left, t.diagram, t.right, t.w) == t, word


def test_check_regular_catches_bad_trusted_monomials():
    # the engine's keys are plain (left, diagram, right, w) tuples
    zero = (0, 0)
    # left exponent on the right end of a top edge
    with pytest.raises(ValueError, match="top-edge right end 2"):
        _check_regular(2, ((0, 1), sbar_diagram(1, 2), zero, ()))
    # right exponent on a strand that is not a bottom-edge right end
    with pytest.raises(ValueError, match="illegal strand 1"):
        _check_regular(2, (zero, sbar_diagram(1, 2), (1, 0), ()))
    with pytest.raises(ValueError, match="illegal strand 2"):
        _check_regular(2, (zero, s_diagram(1, 2), (0, 1), ()))
    with pytest.raises(ValueError, match="not trimmed"):
        _check_regular(2, (zero, s_diagram(1, 2), zero, (1, 0)))
    _check_regular(2, ((1, 0), sbar_diagram(1, 2), (0, 1), (0, 1)))


def test_monomial_rejects_a_diagram_of_another_size():
    with pytest.raises(ValueError, match="size-2 diagram in a size-1 monomial"):
        RegularMonomial(1, (0,), BrauerDiagram.identity(2), (0,), ())
    with pytest.raises(ValueError, match="size-2 diagram in a size-3 monomial"):
        RegularMonomial(3, (0, 0, 0), BrauerDiagram.identity(2), (0, 0, 0), ())


def test_engine_keys_are_their_monomials():
    # a raw engine key equals, and hashes like, the RegularMonomial it stands for
    atoms = parse_word("y1 s1 sbar2 y3 y3 w2 s2")
    partial = _raw(AffineElement.one(3))
    for atom in atoms:
        partial = _times_atom(partial, 3, atom)
    nf = from_word(atoms, 3)
    assert len(partial) == len(nf.terms) > 1
    for key, c in partial.items():
        t = RegularMonomial(3, *key)
        assert type(key) is tuple and key == t and hash(key) == hash(t)
        assert nf.terms[key].coeffs == c
    # an element's keys are built unchecked from engine keys, after the
    # regularity check; they are still monomials, equal to the validated ones
    b = from_word(parse_word("s2 y2 sbar1"), 3).scale(NPoly({0: Fraction(1, 2), 1: 1}))
    for e in (nf, nf * nf, nf * b):
        assert e.terms
        for t in e.terms:
            same = RegularMonomial(t.n, *t)
            assert type(t) is RegularMonomial and t.n == 3
            assert t == same and hash(t) == hash(same)
    # the validating constructor trims w; the tuple holds the trimmed one
    t = RegularMonomial(2, (1, 0), sbar_diagram(1, 2), (0, 1), (0, 1, 0))
    assert tuple(t) == ((1, 0), sbar_diagram(1, 2), (0, 1), (0, 1)) and t.n == 2
    # copies go back through the validating constructor, which takes n first
    assert copy.deepcopy(t) == t and type(copy.copy(t)) is RegularMonomial


def test_cached_generator_diagrams_still_reject_bad_indices():
    assert s_diagram(1, 3) is s_diagram(1, 3)
    assert sbar_diagram(2, 3) is sbar_diagram(2, 3)
    for _ in range(2):
        with pytest.raises(ValueError):
            s_diagram(0, 3)
        with pytest.raises(ValueError):
            sbar_diagram(3, 3)


# ---------------------------------------------------------------------------
# the engine's shortcuts against the passes they replace

# (c, sign, q) leaf arguments: unit and non-unit coefficients, both signs, N-shifts
_LEAF_ARGS = [
    (c, sign, q)
    for c in ({0: 1}, {0: Fraction(-1, 2), 1: 3})
    for sign in (1, -1)
    for q in (0, 2)
]


def _all_regular_keys(n, max_degree):
    """Every regular (left, diagram, right, w) of A(n) with y-degree <= max_degree."""
    for d in _diagrams(n):
        for left in itertools.product(range(max_degree + 1), repeat=n):
            for right in itertools.product(range(max_degree + 1), repeat=n):
                if sum(left) + sum(right) > max_degree:
                    continue
                for w in ((), (0, 1)):
                    try:
                        yield tuple(RegularMonomial(n, left, d, right, w))
                    except ValueError:
                        pass


def _assert_swap_path_exact(n, key, k):
    left, d, right, w = key
    for c, sign, q in _LEAF_ARGS:
        got: dict = {}
        _mul_term_atom(got, n, key, c, sign, q, ("s", k))
        want: dict = {}
        d2, loops = compose(d, s_diagram(k, n))
        _normalize_into(want, n, c, sign, q + loops, left, d2, right, w)
        assert got == want, (key, k, c, sign, q)


def test_s_atom_swap_path_matches_compose_and_normalize():
    # a term with no right y on strands k, k+1 times s_k is one term with the
    # bottom vertices k, k+1 swapped: the pass it replaces gives the same map
    seen = 0
    for key in _all_regular_keys(3, 2):
        for k in (1, 2):
            if not (key[2][k - 1] or key[2][k]):
                _assert_swap_path_exact(3, key, k)
                seen += 1
    assert seen == 504
    rng = random.Random(180)
    seen = 0
    while seen < 500:
        t = next(iter(random_monomial(4, rng, maxdeg=3).terms))
        k = rng.randint(1, 3)
        if not (t.right[k - 1] or t.right[k]):
            _assert_swap_path_exact(4, tuple(t), k)
            seen += 1


def _atomwise_product(a, b):
    """a * b as the sum over the terms c t of b of c * (a x_1 ... x_L), where
    x_1 ... x_L spells t out with one atom per even w."""
    n = a.n
    out = AffineElement.zero(n)
    for t, c in b.terms.items():
        word = [("y", m + 1) for m in range(n) for _ in range(t.left[m])]
        word += factor_diagram(t.diagram)
        word += [("y", m + 1) for m in range(n) for _ in range(t.right[m])]
        word += [("w", 2 * (s + 1)) for s, h in enumerate(t.w) for _ in range(h)]
        partial = _raw(a)
        for atom in word:
            partial = _times_atom(partial, n, atom)
        out = out + _element(n, partial).scale(c)
    return out


def test_product_merges_right_w_into_shared_partials():
    # terms of the right factor that differ only in w share one partial
    # product; the result must be the atom-by-atom one, with unit and
    # non-unit coefficients on both factors
    rng = random.Random(181)
    coeffs = (NPoly.one(), NPoly({0: Fraction(-1, 2), 1: 3}), -N)
    for n in (2, 3, 4):
        for _ in range(12):
            a = random_monomial(n, rng) + random_monomial(n, rng).scale(rng.choice(coeffs))
            t = next(iter(random_monomial(n, rng).terms))
            b = AffineElement.zero(n)
            for w in ((), (1,), (0, 1), (2, 1)):
                b = b + AffineElement.from_monomial(t._replace(w=w), rng.choice(coeffs))
            b = b + random_monomial(n, rng)
            snapshot = copy.deepcopy((a, b))
            assert a * b == _atomwise_product(a, b)
            # the leaves copy what they add: neither factor was written
            assert (a, b) == snapshot and all(c.coeffs for c in a.terms.values())


def _pi_m_from_identity(a, m):
    """pi_m as sum_t c * (1 * x^left * b * x^right * z...), in NPoly sums."""
    total = m + a.n
    out = AlgebraElement.zero(total)
    for t, c in a.terms.items():
        acc = AlgebraElement.one(total)
        for s, e in enumerate(t.left):
            acc = multiply(acc, jucys_murphy(m + s + 1, total).power(e))
        acc = multiply(acc, AlgebraElement.from_diagram(t.diagram.shift(m, total)))
        for s, e in enumerate(t.right):
            acc = multiply(acc, jucys_murphy(m + s + 1, total).power(e))
        for s, h in enumerate(t.w):
            for _ in range(h):
                acc = multiply(acc, z_element(m + 1, 2 * (s + 1)).embed(total))
        out = out + acc.scale(c)
    return out


def test_pi_m_matches_identity_start_sum():
    rng = random.Random(182)
    for n in (2, 3):
        for _ in range(10):
            a = random_monomial(n, rng) * random_monomial(n, rng)
            a = a + random_monomial(n, rng).scale(NPoly({0: Fraction(2, 3), 1: -1}))
            assert len(a.terms) > 1
            for m in (0, 1, 2):
                assert pi_m(a, m) == _pi_m_from_identity(a, m)


def test_commuting_generators():
    n = 2
    assert from_word([("y", 1), ("y", 2)], n) == from_word([("y", 2), ("y", 1)], n)
    a = from_word([("y", 1), ("y", 1)], n)
    assert a and a.y_degree() == 2


def test_defining_relation_43():
    n = 2
    lhs = from_word([("s", 1), ("y", 1)], n)
    rhs = from_word([("y", 2), ("s", 1)], n) + sbar_elem(1, n) - AffineElement.one(n)
    assert lhs == rhs


def test_defining_relation_44():
    n = 2
    assert not from_word([("sbar", 1), ("y", 1)], n) + from_word([("sbar", 1), ("y", 2)], n)
    assert not from_word([("y", 1), ("sbar", 1)], n) + from_word([("y", 2), ("sbar", 1)], n)


def test_cap_collapse():
    n = 2
    e = from_word([("sbar", 1), ("y", 1), ("sbar", 1)], n)
    assert e == sbar_elem(1, n).scale(N * H)


def test_w_values():
    # w_1 = N(N-1)/2 after odd elimination
    n = 2
    assert w_elem(1, n) == AffineElement.one(n).scale(N * H)
    assert w_elem(0, n) == AffineElement.one(n).scale(N)
    series = cap_series(n, 1, 3)
    assert series[0] == AffineElement.one(n).scale(N)
    assert series[1] == AffineElement.one(n).scale(N * H)


def test_generators_are_their_monomial_sums():
    # w_0 = N, an even w_i is one monomial and an odd one its expansion in
    # N and the even w's; y_k is the monomial with left exponent 1 at k
    for n in range(1, 5):
        zero, ident = (0,) * n, BrauerDiagram.identity(n)
        for i in range(16):
            if i == 0:
                expect = AffineElement.one(n).scale(N)
            elif i % 2 == 0:
                expect = AffineElement.from_monomial(RegularMonomial(n, zero, ident, zero, _w_unit(i)))
            else:
                expect = AffineElement.zero(n)
                for key, c in _odd_w_expansion(i):
                    expect = expect + AffineElement.from_monomial(RegularMonomial(n, zero, ident, zero, key), c)
            got = w_elem(i, n)
            assert got == expect and repr(got) == repr(expect), (i, n)
        for k in range(1, n + 1):
            left = tuple(int(m == k - 1) for m in range(n))
            expect = AffineElement.from_monomial(RegularMonomial(n, left, ident, zero, ()))
            assert y_elem(k, n) == expect and repr(y_elem(k, n)) == repr(expect), (k, n)
    for make, atom in ((y_elem, "y0"), (y_elem, "y3"), (w_elem, "w-1")):
        with pytest.raises(ValueError, match=f"^atom {atom} is out of range for n=2$"):
            make(int(atom[1:]), 2)


def test_cap_series_against_conditional_expectation():
    # pi maps w_k^(i) to z_k^(i); check against the diagram-side closure,
    # symbolically in N
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for i in range(8):
                img = pi_m(cap_series(n, k, i)[i], 0)
                assert img == z_element(k, i).embed(n), (n, k, i)


def test_cap_series_degree_bound():
    for n in (2, 3):
        for k in (1, 2, 3):
            series = cap_series(n, k, 5)
            for i, elem in enumerate(series):
                assert elem.y_degree() <= max(i - 1, 0)


def test_sbar_sandwich_cross_check():
    # normal_form(sbar_k y_k^i sbar_k) = normal_form(w_k^(i) sbar_k)
    n = 3
    for k in (1, 2):
        for i in range(4):
            lhs = from_word([("sbar", k)] + [("y", k)] * i + [("sbar", k)], n)
            rhs = cap_series(n, k, i)[i] * sbar_elem(k, n)
            assert lhs == rhs


def test_associativity_random():
    rng = random.Random(20240229)
    for n in (2, 3):
        for _ in range(100):
            a, b, c = (random_monomial(n, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def _assert_npoly_normal_form(e):
    """Every coefficient of e: non-empty, no zero, non-negative exponents, an
    int wherever integral; returns how many proper fractions it holds."""
    fractions = 0
    for t, c in e.terms.items():
        assert c.coeffs, t
        for exp, x in c.coeffs.items():
            assert exp >= 0 and x, (t, c.coeffs)
            if type(x) is Fraction:
                assert x.denominator != 1, (t, c.coeffs)
                fractions += 1
            else:
                assert type(x) is int, (t, c.coeffs)
    return fractions


def test_engine_results_in_npoly_normal_form():
    # the odd w's and the sbar collapses bring in halves; sums of halves that
    # become integral must come back as ints (e.g. s1 y1 w1 sbar1 at n = 2)
    fractions = 0
    for n, length in ((2, 4), (3, 2)):
        atoms = [a for a in _all_atoms(n) if a[0] != "w"] + [("w", 1), ("w", 3)]
        for word in itertools.product(atoms, repeat=length):
            fractions += _assert_npoly_normal_form(from_word(list(word), n))
    collapses = [from_word([("sbar", k)] + [("y", k)] * i + [("sbar", k)], 3) for k in (1, 2) for i in range(1, 5)]
    for e in collapses:
        fractions += _assert_npoly_normal_form(e)
    odd = [w_elem(1, 3), w_elem(3, 3), from_word([("s", 1), ("y", 1), ("w", 1), ("sbar", 1)], 3)]
    for a in odd + collapses[:3]:
        for b in collapses[3:] + odd:
            fractions += _assert_npoly_normal_form(a * b)
    assert fractions > 0


def test_prefix_sharing_matches_termwise_products():
    # __mul__ shares partial products between terms of the right factor whose
    # atom words agree in a prefix; summing one-term products shares nothing
    rng = random.Random(20261018)
    for n in (2, 3):
        for _ in range(4):
            a = random_monomial(n, rng).scale(NPoly({0: Fraction(rng.randint(-3, 3) or 1, 2), 1: 1}))
            b = random_monomial(n, rng, 3) * random_monomial(n, rng, 3)
            for _ in range(6):
                word = [rng.choice(_all_atoms(n)) for _ in range(rng.randint(3, 6))]
                b = b + from_word(word, n).scale(NPoly({0: rng.randint(1, 3), 1: rng.randint(-1, 1)}))
            assert len(b.terms) >= 6
            expect = sum(a * AffineElement.from_monomial(t, c) for t, c in b.terms.items())
            assert a * b == expect


def test_pi_m_consistency():
    rng = random.Random(515151)
    pool = lambda n: (
        [("s", k) for k in range(1, n)]
        + [("sbar", k) for k in range(1, n)]
        + [("y", k) for k in range(1, n + 1)]
        + [("w", 1), ("w", 2)]
    )
    for n in (2, 3):
        for m in (0, 1, 2):
            for _ in range(10):
                atoms = [rng.choice(pool(n)) for _ in range(rng.randint(1, 6))]
                nf = from_word(atoms, n)
                assert pi_m(nf, m) == pi_word(atoms, n, m), (n, m, atoms)


def test_pi_images_of_generators():
    n = 2
    assert pi_m(y_elem(1, n), 0) == jucys_murphy(1, n)
    assert pi_m(w_elem(2, n), 0) == z_element(1, 2).embed(n)
    # pi_m respects products
    rng = random.Random(31)
    for m in (0, 1):
        for _ in range(10):
            a, b = random_monomial(2, rng), random_monomial(2, rng)
            assert pi_m(a * b, m) == multiply(pi_m(a, m), pi_m(b, m))


def weight_le(n, bound):
    out = []
    for d in all_diagrams(n):
        top_bad = {b for _, b in d.top_edges()}
        bot_ok = {b for _, b in d.bottom_edges()}
        for left in itertools.product(range(bound + 1), repeat=n):
            if any(left[m - 1] and m in top_bad for m in range(1, n + 1)):
                continue
            for right in itertools.product(range(bound + 1), repeat=n):
                if any(right[m - 1] and m not in bot_ok for m in range(1, n + 1)):
                    continue
                for w in [(), (1,)]:
                    t = RegularMonomial(n, left, d, right, w)
                    if t.weight() <= bound:
                        out.append(t)
    return out


def test_faithfulness_desk_scale():
    monos = weight_le(2, 3)
    assert len(monos) == 39
    for t in monos:
        e = AffineElement.from_monomial(t)
        assert pi_m(e, t.weight())
    # zero really maps to zero, built along two different rewrite paths
    n = 2
    z = from_word([("y", 1), ("s", 1), ("s", 1)], n) - from_word([("y", 1)], n)
    assert not z and not pi_m(z, z.weight())
    rng = random.Random(77)
    for _ in range(15):
        picks = rng.sample(monos, 3)
        e = AffineElement(2, {t: NPoly.const(rng.randint(1, 4)) for t in picks})
        assert pi_m(e, e.weight())


@pytest.mark.parametrize("n, bound", [(0, 3), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_regular_monomials_match_a_filtered_enumeration(n, bound):
    # below weight 4 the only w's are 1 and w_2, which weight_le covers
    got = list(monomials_up_to(n, bound))
    assert len(got) == len(set(got)) and set(got) == set(weight_le(n, bound))


def _pi_rank(n, bound, m, N=101):
    """Rank of the pi_m images at N of every regular monomial of weight <= bound."""

    def rows():
        for t in monomials_up_to(n, bound):
            values = {d: c.eval(N) for d, c in pi_m(AffineElement.from_monomial(t), m).terms.items()}
            scale = math.lcm(*(v.denominator for v in values.values()))
            yield {d: int(v * scale) for d, v in values.items() if v}

    return integer_rank(rows())


@pytest.mark.slow
def test_normal_forms_are_unique_at_small_weight():
    # the certificate of the `affine` docstring: the pi_m images of all
    # regular monomials of weight <= w are linearly independent
    assert len(list(monomials_up_to(2, 4))) == 69 and _pi_rank(2, 4, 4) == 69
    assert len(list(monomials_up_to(3, 3))) == 360 and _pi_rank(3, 3, 3) == 360
    # negative control: pi_2 is not injective at weight 3
    assert _pi_rank(2, 3, 2) == 33 < 39


def test_nonzero_monomial_example():
    # a single regular monomial with a y is nonzero under pi_1
    n = 2
    d = list(all_diagrams(2))[0]
    e = y_elem(1, n)
    assert pi_m(e, e.weight())


def test_centrality():
    for n in (2, 3):
        gens = (
            [s_elem(k, n) for k in range(1, n)]
            + [sbar_elem(k, n) for k in range(1, n)]
            + [y_elem(k, n) for k in range(1, n + 1)]
        )
        for i in (1, 3):
            p = AffineElement.zero(n)
            for k in range(1, n + 1):
                acc = AffineElement.one(n)
                for _ in range(i):
                    acc = acc * y_elem(k, n)
                p = p + acc
            for g in gens:
                assert not p * g - g * p
        for g in gens:
            assert not w_elem(2, n) * g - g * w_elem(2, n)


def test_maximal_commutativity_witness():
    # any regular monomial with a nontrivial diagram part moves some y
    n = 2
    y1 = y_elem(1, n)
    for e in (s_elem(1, n), sbar_elem(1, n)):
        assert e * y1 - y1 * e


def test_degree_filtration():
    rng = random.Random(909)
    for n in (2, 3):
        for _ in range(40):
            a, b = random_monomial(n, rng), random_monomial(n, rng)
            assert (a * b).y_degree() <= a.y_degree() + b.y_degree()


F_WEIGHTS = {2: Fraction(5), 4: Fraction(-3), 6: Fraction(1, 2)}


def test_hecke_images():
    n = 2
    assert not hecke_quotient(sbar_elem(1, n), F_WEIGHTS)
    img = hecke_quotient(from_word([("s", 1), ("y", 1)], n), F_WEIGHTS)
    expected = HeckeElement(
        n,
        {
            ((0, 1), s_diagram(1, n)): NPoly.one(),
            ((0, 0), BrauerDiagram.identity(n)): NPoly.const(-1),
        },
    )
    assert img == expected
    # the same product taken in H(n): s_1 v_1 = v_2 s_1 - 1
    assert hecke_quotient(s_elem(1, n), F_WEIGHTS) * hecke_quotient(y_elem(1, n), F_WEIGHTS) == expected


def test_hecke_center():
    n = 2
    p = from_word([("y", 1)], n) + from_word([("y", 2)], n)
    hp = hecke_quotient(p, F_WEIGHTS)
    hs = hecke_quotient(s_elem(1, n), F_WEIGHTS)
    assert hp * hs == hs * hp


def test_hecke_kills_relations():
    for n in (2, 3):
        one_img = hecke_quotient(AffineElement.one(n), F_WEIGHTS)

        def hq(atoms):
            return hecke_quotient(from_word(atoms, n), F_WEIGHTS)

        for k in range(1, n):
            for l in range(1, n + 1):
                if l in (k, k + 1):
                    continue
                assert hq([("s", k), ("y", l)]) == hq([("y", l), ("s", k)])
                assert hq([("sbar", k), ("y", l)]) == hq([("y", l), ("sbar", k)])
            assert hq([("s", k), ("y", k)]) - hq([("y", k + 1), ("s", k)]) == hq(
                [("sbar", k)]
            ) - one_img
            assert hq([("s", k), ("y", k + 1)]) - hq([("y", k), ("s", k)]) == one_img - hq(
                [("sbar", k)]
            )
            assert not hq([("sbar", k), ("y", k)]) + hq([("sbar", k), ("y", k + 1)])
            assert not hq([("y", k), ("sbar", k)]) + hq([("y", k + 1), ("sbar", k)])
        for i in (1, 2, 3):
            lhs = hq([("sbar", 1)] + [("y", 1)] * i + [("sbar", 1)])
            rhs = hecke_quotient(w_elem(i, n) * sbar_elem(1, n), F_WEIGHTS)
            assert lhs == rhs and not lhs


def test_hecke_associativity():
    rng = random.Random(5)

    def rand_hecke(n):
        terms = {}
        for _ in range(2):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            p = list(range(n))
            rng.shuffle(p)
            terms[(v, from_permutation(tuple(p)))] = NPoly.const(rng.randint(-3, 3))
        return HeckeElement(n, terms)

    for _ in range(30):
        a, b, c = (rand_hecke(3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def _reference_push_v(perm, m):
    """perm * v_m in H(n) as [(sign, arrival strand or None, permutation)],
    on 0-based one-line permutations, by s_k v_k = v_{k+1} s_k - 1 and
    s_k v_{k+1} = v_k s_k + 1 along `perm_word`; entries with arrival None
    lost the v.  Independent of the rewriting engine's `_route_y`."""
    word = perm_word(perm)
    pos = m
    results = []
    for idx in range(len(word) - 1, -1, -1):
        c = word[idx]
        if pos == c:
            results.append((-1, word[:idx] + word[idx + 1 :]))
            pos = c + 1
        elif pos == c + 1:
            results.append((1, word[:idx] + word[idx + 1 :]))
            pos = c
    out = [(1, pos, perm)]
    for sign, toks in results:
        arr = list(range(len(perm)))
        for k in toks:
            arr[k - 1], arr[k] = arr[k], arr[k - 1]
        out.append((sign, None, tuple(arr)))
    return out


def _reference_hecke_mul(a, b, n):
    """a * b on one-line keys {(v exponents, permutation): NPoly}: each v of
    a right key is pushed through the partial by `_reference_push_v`, then
    each letter of the right permutation's reduced word swaps two entries."""
    out = {}
    for (vexp, perm), c in b.items():
        partial = dict(a)
        for m in range(n):
            for _ in range(vexp[m]):
                pushed = {}
                for (v2, p2), x in partial.items():
                    for sign, arrival, p3 in _reference_push_v(p2, m + 1):
                        v3 = list(v2)
                        if arrival is not None:
                            v3[arrival - 1] += 1
                        add_term(pushed, (tuple(v3), p3), x if sign > 0 else -x)
                partial = pushed
        for k in perm_word(perm):
            swapped = {}
            for (v2, p2), x in partial.items():
                arr = list(p2)
                arr[k - 1], arr[k] = arr[k], arr[k - 1]
                add_term(swapped, (v2, tuple(arr)), x)
            partial = swapped
        for key, x in partial.items():
            add_term(out, key, x * c)
    return out


def test_hecke_product_matches_one_line_reference():
    rng = random.Random(40)

    def rand_hecke(n):
        terms = {}
        for _ in range(3):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            terms[(v, from_permutation(tuple(rng.sample(range(n), n))))] = rng.randint(-3, 3)
        return HeckeElement(n, terms)

    def one_line(e):
        # bottom i of a permutation diagram meets top p[i]
        return {(v, tuple(d.pairing[d.n + i] for i in range(d.n))): c for (v, d), c in e.terms.items()}

    for n in (1, 2, 3, 4):
        for _ in range(15):
            a, b = rand_hecke(n), rand_hecke(n)
            assert one_line(a * b) == _reference_hecke_mul(one_line(a), one_line(b), n)


def test_json_output():
    n = 2
    e = from_word([("sbar", 1), ("y", 1), ("sbar", 1)], n)
    data = element_to_json(e)
    assert data[0]["coeff"] == "1/2*N^2 - 1/2*N"


# ---------------------------------------------------------------------------
# element arithmetic shared by B(n, N), A(n, N) and H(n)


def test_mixed_size_affine_sum_raises():
    with pytest.raises(ValueError, match="size mismatch"):
        AffineElement.one(2) + AffineElement.one(3)
    with pytest.raises(ValueError, match="size mismatch"):
        AffineElement.one(2) - AffineElement.one(3)
    with pytest.raises(ValueError, match="size-3 basis element"):
        AffineElement(2, {next(iter(AffineElement.one(3).terms)): 1})


def test_mixed_size_hecke_arithmetic_raises():
    a, b = HeckeElement.one(2), HeckeElement.one(3)
    with pytest.raises(ValueError, match="size mismatch"):
        a + b
    with pytest.raises(ValueError, match="size mismatch"):
        a * b
    with pytest.raises(ValueError, match="wrong size"):
        HeckeElement(2, {((0, 0, 0), BrauerDiagram.identity(2)): 1})
    with pytest.raises(ValueError, match="wrong size"):
        HeckeElement(2, {((0, 0), BrauerDiagram.identity(3)): 1})


def test_hecke_key_must_hold_exponents_and_a_permutation_diagram():
    one, bar = BrauerDiagram.identity(2), sbar_diagram(1, 2)
    for key in (((0, 0), bar), ((0, 0), (1, 0)), ((0, 0),), "key", 3, ((-1, 0), one), ((0, "1"), one)):
        with pytest.raises(ValueError, match="H\\(2\\) key"):
            HeckeElement(2, {key: 1})


def test_mixed_type_arithmetic_raises():
    b, a = AlgebraElement.one(2), AffineElement.one(2)
    with pytest.raises(TypeError):
        b + a
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b
    assert AlgebraElement.zero(2) != AffineElement.zero(2)


def test_builtin_sum_of_elements():
    for parts in (
        [AlgebraElement.one(2), AlgebraElement.from_diagram(random_diagram(2, random.Random(1)), 3)],
        [AffineElement.one(3), y_elem(2, 3), s_elem(1, 3)],
        [HeckeElement.one(2), HeckeElement(2, {((1, 0), s_diagram(1, 2)): N})],
    ):
        total = sum(parts)
        assert total == parts[0] + sum(parts[1:], type(parts[0]).zero(parts[0].n))
        assert total - parts[0] == sum(parts[1:])
    assert sum([AffineElement.one(2)]) == AffineElement.one(2)


@functools.cache
def _diagrams(n):
    """Every diagram of B(n), listed on first use."""
    return list(all_diagrams(n))


def _pairings(n):
    """A diagram of B(n): consecutive vertices of a permutation of its 2n
    vertices are paired.  Every integer this draws is below 2n.  Hypothesis
    swaps some draws for integer literals (|x| >= 100) that it collects from
    the source of every loaded non-test module, even under derandomize=True,
    so a draw over a larger range, such as an index into the 10,395 diagrams
    of B(6), would change with the modules a run imports and their text."""
    return st.permutations(range(2 * n)).map(
        lambda p: BrauerDiagram.from_edges(n, [(p[2 * i], p[2 * i + 1]) for i in range(n)])
    )


_coefficients = st.builds(
    lambda a, b: NPoly({0: Fraction(a), 1: Fraction(b)}),
    st.integers(-3, 3),
    st.integers(-2, 2),
)


@st.composite
def regular_monomials(draw, n, max_degree):
    """A regular monomial of A(n, N) with y-degree at most max_degree."""
    d = draw(_pairings(n))
    top_bad = {b for _, b in d.top_edges()}
    left_ok = [m for m in range(1, n + 1) if m not in top_bad]  # never empty: strand 1
    right_ok = sorted({b for _, b in d.bottom_edges()})
    left, right = [0] * n, [0] * n
    for _ in range(draw(st.integers(0, max_degree))):
        if right_ok and draw(st.booleans()):
            right[draw(st.sampled_from(right_ok)) - 1] += 1
        else:
            left[draw(st.sampled_from(left_ok)) - 1] += 1
    w = draw(st.sampled_from([(), (1,), (0, 1)]))
    return RegularMonomial(n, tuple(left), d, tuple(right), w)


@st.composite
def element_pairs(draw):
    """Two elements of one class (diagram, affine or Hecke) and one size."""
    kind = draw(st.sampled_from(["diagram", "affine", "hecke"]))
    n = draw(st.integers(1, 3))
    if kind == "diagram":
        keys = st.sampled_from(_diagrams(n))
        make = AlgebraElement
    elif kind == "affine":
        keys = regular_monomials(n, 2)
        make = AffineElement
    else:
        keys = st.tuples(
            st.tuples(*[st.integers(0, 2)] * n), st.permutations(range(n)).map(lambda p: from_permutation(tuple(p)))
        )
        make = HeckeElement
    terms = st.dictionaries(keys, _coefficients, max_size=4)
    return make(n, draw(terms)), make(n, draw(terms))


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_element_sum_laws(pair):
    a, b = pair
    assert a + b == b + a
    assert hash(a + b) == hash(b + a)
    assert not a - a
    assert not a.scale(0)
    assert (a + b) - b == a
    assert all((a + b).terms.values())


# ---------------------------------------------------------------------------
# widened confluence evidence (python -m pytest -m slow)


@st.composite
def monomial_triples(draw):
    """Three regular monomials of one A(n, N), n <= 4, each of y-degree <= 4."""
    n = draw(st.integers(2, 4))
    return [AffineElement.from_monomial(draw(regular_monomials(n, 4))) for _ in range(3)]


@pytest.mark.slow
@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_triples())
def test_associativity_hypothesis(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@st.composite
def monomial_triples_n6(draw):
    """Three regular monomials of A(6, N), each of y-degree <= 3."""
    return [AffineElement.from_monomial(draw(regular_monomials(6, 3))) for _ in range(3)]


# measured: 60 examples take about 13 s and 200 about 56 s on a 2-vCPU VM
@pytest.mark.slow
@settings(max_examples=60, deadline=None, derandomize=True)
@given(monomial_triples_n6())
def test_associativity_n6_hypothesis(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@st.composite
def monomial_triples_n5(draw):
    """Three regular monomials of A(5, N), each of y-degree <= 4."""
    return [AffineElement.from_monomial(draw(regular_monomials(5, 4))) for _ in range(3)]


# measured over six runs of 100 examples on a 2-vCPU VM: a median example
# takes 2-3 ms, but the y-degree tail costs up to 44 s for one triple, so 100
# examples took 13-120 s (0.7 s an example on average) and 40 are kept
@pytest.mark.slow
@settings(max_examples=40, deadline=None, derandomize=True)
@given(monomial_triples_n5())
def test_associativity_n5_hypothesis(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@pytest.mark.slow
def test_associativity_many_term_right_factor():
    # b * c has 39 terms, so a * (b * c) rewrites far more monomials than
    # (a * b) * c; the two must still agree
    n = 4
    zero = (0,) * n
    da = BrauerDiagram.from_edges(n, [(0, 7), (1, 3), (2, 5), (4, 6)])
    db = BrauerDiagram.from_edges(n, [(0, 6), (1, 4), (2, 3), (5, 7)])
    a = AffineElement.from_monomial(RegularMonomial(n, (0, 1, 0, 0), da, zero, (1,)))
    b = AffineElement.from_monomial(RegularMonomial(n, (0, 2, 2, 0), db, zero, (0, 1)))
    c = b
    left = (a * b) * c
    assert len(left.terms) == 352
    assert left == a * (b * c)


def _atoms(n):
    return st.sampled_from(_all_atoms(n))


@pytest.mark.slow
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(_atoms(n), max_size=6))), st.integers(0, 2))
def test_pi_m_matches_pi_word_hypothesis(n_word, m):
    n, word = n_word
    assert pi_m(from_word(word, n), m) == pi_word(word, n, m)


# measured: 500 examples take about 5 s on a 2-vCPU VM
@pytest.mark.slow
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_atoms(5), max_size=6), st.integers(0, 2))
def test_pi_m_matches_pi_word_n5_hypothesis(word, m):
    assert pi_m(from_word(word, 5), m) == pi_word(word, 5, m)


# a weight for every even w that a product of at most 12 atoms can reach
_HECKE_WEIGHTS_12 = {2 * i: Fraction(7 - 3 * i, i) for i in range(1, 7)}


# measured: 1,000 examples take 2.3-3.8 s on a 2-vCPU VM
@pytest.mark.slow
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(_atoms(5), max_size=6), st.lists(_atoms(5), max_size=6))
def test_hecke_quotient_is_multiplicative_n5(u, v):
    def hq(word):
        return hecke_quotient(from_word(word, 5), _HECKE_WEIGHTS_12)

    assert hq(u + v) == hq(u) * hq(v)
