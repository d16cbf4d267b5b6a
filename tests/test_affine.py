import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brauer.affine import (
    AffineElement,
    HeckeElement,
    RegularMonomial,
    cap_series,
    cap_series_coefficient,
    element_to_json,
    from_word,
    hecke_quotient,
    is_zero_via_faithfulness,
    parse_word,
    pi_m,
    pi_word,
    s_elem,
    sbar_elem,
    w_elem,
    w_series,
    y_elem,
)
from brauer.coeffs import NPoly, n_minus_1_half
from brauer.diagrams import (
    AlgebraElement,
    all_diagrams,
    jucys_murphy,
    multiply,
    random_diagram,
    z_element,
)

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
    assert not from_word([("s", 2), ("sbar", 2), ("y", 1), ("y", 3), ("w", 0), ("w", 3)], n).is_zero()


def test_regularity_enforced():
    from brauer.diagrams import sbar_diagram

    with pytest.raises(ValueError):
        # left exponent on the right end of a top edge
        RegularMonomial(2, (0, 1), sbar_diagram(1, 2), (0, 0), ())
    with pytest.raises(ValueError):
        # right exponent on a strand that is not a bottom-edge right end
        RegularMonomial(2, (0, 0), sbar_diagram(1, 2), (1, 0), ())


def test_commuting_generators():
    n = 2
    assert from_word([("y", 1), ("y", 2)], n) == from_word([("y", 2), ("y", 1)], n)
    a = from_word([("y", 1), ("y", 1)], n)
    assert not a.is_zero() and a.y_degree() == 2


def test_defining_relation_43():
    n = 2
    lhs = from_word([("s", 1), ("y", 1)], n)
    rhs = from_word([("y", 2), ("s", 1)], n) + sbar_elem(1, n) - AffineElement.one(n)
    assert lhs == rhs


def test_defining_relation_44():
    n = 2
    assert (from_word([("sbar", 1), ("y", 1)], n) + from_word([("sbar", 1), ("y", 2)], n)).is_zero()
    assert (from_word([("y", 1), ("sbar", 1)], n) + from_word([("y", 2), ("sbar", 1)], n)).is_zero()


def test_cap_collapse():
    n = 2
    e = from_word([("sbar", 1), ("y", 1), ("sbar", 1)], n)
    assert e == sbar_elem(1, n).scale(N * H)


def test_w_values():
    # w_1 = N(N-1)/2 after odd elimination
    n = 2
    assert w_elem(1, n) == AffineElement.one(n).scale(N * H)
    assert w_elem(0, n) == AffineElement.one(n).scale(N)
    series = w_series(1, 3, n)
    assert series.coeffs[0] == AffineElement.one(n).scale(N)
    assert series.coeffs[1] == AffineElement.one(n).scale(N * H)


def test_cap_series_against_conditional_expectation():
    # pi maps w_k^(i) to z_k^(i); check against the diagram-side closure,
    # symbolically in N
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            if k > n:
                continue
            for i in range(5):
                img = pi_m(cap_series_coefficient(n, k, i), 0)
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
            rhs = cap_series_coefficient(n, k, i) * sbar_elem(k, n)
            assert lhs == rhs


def test_associativity_random():
    rng = random.Random(20240229)
    for n in (2, 3):
        for _ in range(100):
            a, b, c = (random_monomial(n, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)


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
        assert not pi_m(e, t.weight()).is_zero()
    # zero really maps to zero, built along two different rewrite paths
    n = 2
    z = from_word([("y", 1), ("s", 1), ("s", 1)], n) - from_word([("y", 1)], n)
    assert z.is_zero() and is_zero_via_faithfulness(z)
    rng = random.Random(77)
    for _ in range(15):
        picks = rng.sample(monos, 3)
        e = AffineElement(2, {t: NPoly.const(rng.randint(1, 4)) for t in picks})
        assert not is_zero_via_faithfulness(e)


def test_nonzero_monomial_example():
    # a single regular monomial with a y is nonzero under pi_1
    n = 2
    d = list(all_diagrams(2))[0]
    e = y_elem(1, n)
    assert not is_zero_via_faithfulness(e)


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
                assert (p * g - g * p).is_zero()
        for g in gens:
            assert (w_elem(2, n) * g - g * w_elem(2, n)).is_zero()


def test_maximal_commutativity_witness():
    # any regular monomial with a nontrivial diagram part moves some y
    n = 2
    y1 = y_elem(1, n)
    for e in (s_elem(1, n), sbar_elem(1, n)):
        assert not (e * y1 - y1 * e).is_zero()


def test_degree_filtration():
    rng = random.Random(909)
    for n in (2, 3):
        for _ in range(40):
            a, b = random_monomial(n, rng), random_monomial(n, rng)
            assert (a * b).y_degree() <= a.y_degree() + b.y_degree()


F_WEIGHTS = {2: Fraction(5), 4: Fraction(-3), 6: Fraction(1, 2)}


def test_hecke_images():
    n = 2
    assert hecke_quotient(sbar_elem(1, n), F_WEIGHTS).is_zero()
    img = hecke_quotient(from_word([("s", 1), ("y", 1)], n), F_WEIGHTS)
    expected = HeckeElement(
        n,
        {
            ((0, 1), (1, 0)): NPoly.one(),
            ((0, 0), (0, 1)): NPoly.const(-1),
        },
    )
    assert img == expected


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
            assert (hq([("sbar", k), ("y", k)]) + hq([("sbar", k), ("y", k + 1)])).is_zero()
            assert (hq([("y", k), ("sbar", k)]) + hq([("y", k + 1), ("sbar", k)])).is_zero()
        for i in (1, 2, 3):
            lhs = hq([("sbar", 1)] + [("y", 1)] * i + [("sbar", 1)])
            rhs = hecke_quotient(w_elem(i, n) * sbar_elem(1, n), F_WEIGHTS)
            assert lhs == rhs and lhs.is_zero()


def test_hecke_associativity():
    rng = random.Random(5)

    def rand_hecke(n):
        terms = {}
        for _ in range(2):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            p = list(range(n))
            rng.shuffle(p)
            terms[(v, tuple(p))] = NPoly.const(rng.randint(-3, 3))
        return HeckeElement(n, terms)

    for _ in range(30):
        a, b, c = (rand_hecke(3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


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
        HeckeElement(2, {((0, 0, 0), (0, 1, 2)): 1})


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
        [HeckeElement.one(2), HeckeElement(2, {((1, 0), (1, 0)): N})],
    ):
        total = sum(parts)
        assert total == parts[0] + sum(parts[1:], type(parts[0]).zero(parts[0].n))
        assert total - parts[0] == sum(parts[1:])
    assert sum([AffineElement.one(2)]) == AffineElement.one(2)


_DIAGRAMS = {n: list(all_diagrams(n)) for n in (1, 2, 3, 4)}
_coefficients = st.builds(
    lambda a, b: NPoly({0: Fraction(a), 1: Fraction(b)}),
    st.integers(-3, 3),
    st.integers(-2, 2),
)


@st.composite
def regular_monomials(draw, n, max_degree):
    """A regular monomial of A(n, N) with y-degree at most max_degree."""
    d = draw(st.sampled_from(_DIAGRAMS[n]))
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
        keys = st.sampled_from(_DIAGRAMS[n])
        make = AlgebraElement
    elif kind == "affine":
        keys = regular_monomials(n, 2)
        make = AffineElement
    else:
        keys = st.tuples(
            st.tuples(*[st.integers(0, 2)] * n), st.permutations(range(n)).map(tuple)
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
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert (a + b) - b == a
    assert not any(c.is_zero() for c in (a + b).terms.values())


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


def _atoms(n):
    return st.sampled_from(
        [("s", k) for k in range(1, n)]
        + [("sbar", k) for k in range(1, n)]
        + [("y", k) for k in range(1, n + 1)]
        + [("w", i) for i in range(4)]
    )


@pytest.mark.slow
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(_atoms(n), max_size=6))), st.integers(0, 2))
def test_pi_m_matches_pi_word_hypothesis(n_word, m):
    n, word = n_word
    assert pi_m(from_word(word, n), m) == pi_word(word, n, m)
