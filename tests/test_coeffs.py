import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from brauer.coeffs import (
    NPoly,
    SurdSum,
    box_factor,
    linear_fraction_series,
    monic_product,
    n_minus_1_half,
    sqrt_of_rational,
    squarefree_decomposition,
    _mul_into,
)

rationals = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=20)
)


def test_squarefree_decomposition():
    assert squarefree_decomposition(60) == (2, 15)
    assert squarefree_decomposition(1) == (1, 1)
    assert squarefree_decomposition(49) == (7, 1)
    assert squarefree_decomposition(18) == (3, 2)


def test_surd_mul_examples():
    root2 = SurdSum(1, 2)
    assert root2 * root2 == SurdSum.rational(2)
    x = SurdSum(Fraction(1, 2), 3)
    assert SurdSum.one() * x == x
    # sqrt(6)*sqrt(10) = 2*sqrt(15), and sqrt(12) = 2*sqrt(3) on construction
    assert SurdSum(1, 6) * SurdSum(1, 10) == SurdSum(2, 15)
    assert SurdSum(1, 12) == SurdSum(2, 3) and (SurdSum(1, 12).num, SurdSum(1, 12).rad) == (2, 3)


def test_surd_mul_matches_generic_reduction():
    # every radicand pair up to 60, squarefree or not, against the
    # constructor's reduction of the product radicand
    rng = random.Random(60)
    for r1 in range(1, 61):
        for r2 in range(1, 61):
            c1 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            c2 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            a, b = SurdSum(c1, r1), SurdSum(c2, r2)
            assert a * b == SurdSum(c1 * c2, r1 * r2), (r1, r2)
    # sums on one radicand each: the product distributes over them and
    # cancels to the normal form
    for _ in range(300):
        r1, r2 = rng.randint(1, 60), rng.randint(1, 60)
        xs = [SurdSum(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), r1 * m * m) for m in (1, 2, 3)]
        ys = [SurdSum(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), r2 * m * m) for m in (1, 2, 3)]
        expect = SurdSum.zero()
        for x in xs:
            for y in ys:
                expect = expect + x * y
        product = sum(xs, SurdSum.zero()) * sum(ys, SurdSum.zero())
        assert product == expect
        assert_surd_normal_form(product)
    assert SurdSum(1, 2) * 3 == SurdSum(3, 2)
    assert 3 * SurdSum(1, 2) == SurdSum(3, 2)


def test_surd_sum_over_two_radicands_raises():
    root2, root3 = SurdSum(1, 2), SurdSum(1, 3)
    for a, b in ((root2, root3), (root2, 1), (Fraction(1, 2), root3), (SurdSum(1, 8), SurdSum(1, 18) * root3)):
        with pytest.raises(ValueError, match="two radicands"):
            a + b
    # a zero, on any radicand, adds to everything
    assert root2 + SurdSum.zero() == root2 == 0 + root2
    assert root2 + (root3 + root3 * -1) == root2
    assert SurdSum(1, 8) + SurdSum(1, 18) == SurdSum(5, 2)


def test_sqrt_of_rational_examples():
    assert sqrt_of_rational(Fraction(9, 4)) == SurdSum.rational(Fraction(3, 2))
    assert sqrt_of_rational(0) == SurdSum.zero()
    assert sqrt_of_rational(Fraction(3, 4)) == SurdSum(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        sqrt_of_rational(Fraction(-1, 2))


def test_sqrt_squares_back():
    rng = random.Random(1234)
    for _ in range(1000):
        q = Fraction(rng.randint(0, 400), rng.randint(1, 60))
        s = sqrt_of_rational(q)
        assert s * s == SurdSum.rational(q)


radicands = st.integers(min_value=1, max_value=30)


@settings(max_examples=200, deadline=None)
@given(radicands, radicands, rationals, rationals, rationals, rationals)
def test_surd_ring_axioms(r, t, ca, cb, cc, cd):
    # a, b and d on one radicand, c on any
    a, b, c, d = SurdSum(ca, r), SurdSum(cb, r), SurdSum(cc, t), SurdSum(cd, r)
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a + b) + d == a + (b + d)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + a * -1 == SurdSum.zero()


def test_surd_rational_hashes_like_its_value():
    assert Fraction(3, 2) in {SurdSum.rational(Fraction(3, 2))}
    assert 0 in {SurdSum.zero()}
    root3 = SurdSum(1, 3)
    for x, value in (
        (SurdSum.rational(Fraction(3, 2)), Fraction(3, 2)),
        (SurdSum.zero(), 0),
        (SurdSum.one(), 1),
        (SurdSum.rational(Fraction(-6, 3)), -2),
        (SurdSum(Fraction(1, 2), 4), 1),
        # rational values that arithmetic produces
        (root3 * (root3 * Fraction(1, 6)), Fraction(1, 2)),
        (root3 + root3 * -1, 0),
        (SurdSum.rational(Fraction(1, 2)) + Fraction(1, 2), 1),
    ):
        assert x == value and x == Fraction(value)
        assert hash(x) == hash(value) == hash(Fraction(value))
    assert len({SurdSum.rational(2), 2, Fraction(2), SurdSum(1, 4)}) == 1
    assert root3 != 3 and hash(root3 * 2) == hash(SurdSum(1, 12))


def test_npoly_basics():
    N = NPoly.N()
    p = (N - 1) * Fraction(1, 2)
    assert p == n_minus_1_half()
    assert p.eval(3) == 1
    assert (p**2).eval(5) == 4
    # the coefficient strings the CLI prints
    assert (p**3 - N + 2).to_string() == "1/8*N^3 - 3/8*N^2 - 5/8*N + 15/8"
    assert NPoly().to_string() == "0"
    assert (-(N**2) + Fraction(1, 2)).to_string() == "-N^2 + 1/2"


def test_npoly_constant_hashes_like_its_value():
    half = NPoly.const(Fraction(1, 2))
    for p, value in (
        (NPoly.const(0), 0),
        (NPoly.const(1), 1),
        (NPoly.const(-3), -3),
        (NPoly.const(Fraction(2, 7)), Fraction(2, 7)),
        (NPoly.const(Fraction(-6, 3)), -2),
        # constants that arithmetic produces, integral or not
        (half * 2, 1),
        (half + half, 1),
        (half - half, 0),
        (half * half, Fraction(1, 4)),
        (-half, Fraction(-1, 2)),
    ):
        assert p == value and p == Fraction(value)
        assert hash(p) == hash(value) == hash(Fraction(value))
    assert hash(NPoly()) == hash(0)
    assert len({NPoly.const(1), half * 2, 1, Fraction(1)}) == 1
    assert NPoly.N() != 1
    N = NPoly.N()
    assert hash((N + half) * 2) == hash(2 * N + 1)


# ints and Fractions (some of them integral) mixed, as callers pass them
mixed_coeffs = st.one_of(st.integers(min_value=-30, max_value=30), rationals)
raw_npoly = st.dictionaries(st.integers(min_value=0, max_value=4), mixed_coeffs, max_size=4)
npoly_strategy = raw_npoly.map(NPoly)


@settings(max_examples=200, deadline=None)
@given(npoly_strategy, npoly_strategy, mixed_coeffs)
def test_npoly_specialization_is_homomorphism(p, q, v):
    assert (p + q).eval(v) == p.eval(v) + q.eval(v)
    assert (p * q).eval(v) == p.eval(v) * q.eval(v)
    assert (p - q).eval(v) == p.eval(v) - q.eval(v)


# the reference: plain dict[int, Fraction] arithmetic, zeros dropped


def ref_clean(d):
    return {e: Fraction(c) for e, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return ref_clean(out)


def assert_normal_form(p):
    for e, c in p.coeffs.items():
        assert type(c) in (int, Fraction) and c != 0, (e, c)
        assert type(c) is int or c.denominator != 1, (e, c)


@settings(max_examples=300, deadline=None)
@given(raw_npoly, raw_npoly, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=5))
def test_npoly_matches_reference(da, db, k, q):
    a, b = ref_clean(da), ref_clean(db)
    p, r = NPoly(da), NPoly(db)
    power = {0: Fraction(1)}
    for _ in range(k):
        power = ref_mul(power, a)
    results = {
        "+": (p + r, ref_add(a, b)),
        "-": (p - r, ref_add(a, {e: -c for e, c in b.items()})),
        "*": (p * r, ref_mul(a, b)),
        "neg": (-p, {e: -c for e, c in a.items()}),
        "**": (p**k, power),
        "shift": (p.shift(q), {e + q: c for e, c in a.items()}),
    }
    for x in (3, Fraction(3), Fraction(-5, 6)):
        results[f"p*{x}"] = (p * x, ref_mul(a, {0: Fraction(x)}))
        results[f"{x}*p"] = (x * p, ref_mul(a, {0: Fraction(x)}))
        results[f"p+{x}"] = (p + x, ref_add(a, {0: Fraction(x)}))
        results[f"{x}-p"] = (x - p, ref_add({0: Fraction(x)}, {e: -c for e, c in a.items()}))
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        assert_normal_form(got)


# the reference for SurdSum: dict[int, Fraction] on squarefree radicands


def ref_surd(d):
    out = {}
    for r, c in d.items():
        m, s = squarefree_decomposition(r)
        out[s] = out.get(s, Fraction(0)) + m * Fraction(c)
    return ref_clean(out)


def ref_surd_sum(parts):
    out = {}
    for part in parts:
        for r, c in ref_surd(part).items():
            out[r] = out.get(r, Fraction(0)) + c
    return ref_clean(out)


def ref_surd_mul(a, b):
    return ref_surd_sum([{r1 * r2: c1 * c2} for r1, c1 in a.items() for r2, c2 in b.items()])


def assert_surd_normal_form(x):
    assert all(type(v) is int for v in (x.num, x.den, x.rad)), (x.num, x.den, x.rad)
    assert x.den > 0 and gcd(x.num, x.den) == 1, (x.num, x.den)
    assert x.rad > 0 and squarefree_decomposition(x.rad)[0] == 1, x.rad
    assert x.num or (x.den, x.rad) == (1, 1), (x.num, x.den, x.rad)


upto_60 = st.integers(min_value=1, max_value=60)
small = st.integers(min_value=1, max_value=4)
nonzero_rationals = st.one_of(st.integers(min_value=-30, max_value=30), rationals).filter(bool)


@settings(max_examples=300, deadline=None)
@given(upto_60, small, small, mixed_coeffs, mixed_coeffs, upto_60, mixed_coeffs, nonzero_rationals)
def test_surd_matches_reference(r, mx, my, cx, cy, rz, cz, q):
    # x and y on one squarefree radicand, given as r times different squares;
    # z on any radicand
    dx, dy, dz = {r * mx * mx: cx}, {r * my * my: cy}, {rz: cz}
    a, b, e = ref_surd(dx), ref_surd(dy), ref_surd(dz)
    x, y, z = SurdSum(cx, r * mx * mx), SurdSum(cy, r * my * my), SurdSum(cz, rz)
    neg = lambda d: {t: -c for t, c in d.items()}
    results = {
        "x": (x, a),
        "y": (y, b),
        "z": (z, e),
        "+": (x + y, ref_surd_sum([a, b])),
        "-": (x + y * -1, ref_surd_sum([a, neg(b)])),
        "*": (x * z, ref_surd_mul(a, e)),
        "neg": (x * -1, neg(a)),
        "/q": (x * (1 / Fraction(q)), {t: c / Fraction(q) for t, c in a.items()}),
    }
    for c in (3, Fraction(3), Fraction(-5, 6), q):
        results[f"x*{c!r}"] = (x * c, ref_surd_mul(a, {1: Fraction(c)}))
        results[f"{c!r}*x"] = (c * x, ref_surd_mul(a, {1: Fraction(c)}))
        if a.keys() <= {1}:
            results[f"x+{c!r}"] = (x + c, ref_surd_sum([a, {1: Fraction(c)}]))
            results[f"x-{c!r}"] = (x + -c, ref_surd_sum([a, {1: -Fraction(c)}]))
            results[f"{c!r}-x"] = (c + x * -1, ref_surd_sum([{1: Fraction(c)}, neg(a)]))
        else:
            with pytest.raises(ValueError, match="two radicands"):
                x + c
    for op, (got, want) in results.items():
        assert dict(got.terms) == want, op
        assert_surd_normal_form(got)
        [(radicand, coefficient)] = want.items() or [(1, 0)]
        rebuilt = SurdSum(coefficient, radicand)
        assert got == rebuilt and hash(got) == hash(rebuilt), op
        if want.keys() <= {1}:
            value = want.get(1, Fraction(0))
            assert got == value and hash(got) == hash(value), op
        else:
            assert got != want.get(1, Fraction(0)), op
    assert (x == y) == (a == b)
    assert (x + y * -1 == 0) == (a == b)


# sums that cancel to zero and sums that turn integral, at each end of q
@example(NPoly({0: Fraction(1, 2), 1: 3, 2: 1}), NPoly({0: Fraction(1, 2), 1: -3}), 0)
@example(NPoly({2: Fraction(-1, 3), 3: 1}), NPoly({0: Fraction(4, 3), 1: -1, 4: Fraction(2, 5)}), 2)
@settings(max_examples=300, deadline=None)
@given(npoly_strategy.filter(bool), npoly_strategy, st.integers(min_value=0, max_value=2))
def test_mul_into_unit_is_the_general_loop(out, a, q):
    # b == {0: 1} adds a with no products; the general double loop computes
    # the same map as out + (-a) * (-1) * N^q (its b is not the unit)
    before = dict(a.coeffs)
    got = dict(out.coeffs)
    _mul_into(got, a.coeffs, {0: 1}, q)
    want = dict(out.coeffs)
    _mul_into(want, {e: -c for e, c in a.coeffs.items()}, {0: -1}, q)
    assert got == want == ref_add(out.coeffs, {e + q: c for e, c in a.coeffs.items()})
    assert {e: type(c) for e, c in got.items()} == {e: type(c) for e, c in want.items()}
    assert_normal_form(NPoly._trusted(got))
    assert a.coeffs == before


def test_npoly_eq_checks_the_class_first():
    three, half = NPoly.const(3), n_minus_1_half()
    assert three == 3 and three == Fraction(6, 2) and 3 == three and three != 4
    assert NPoly.const(Fraction(1, 2)) == Fraction(1, 2) and NPoly.const(True) == 1
    # equal NPolys built different ways; unequal ones of the same degree
    assert half == NPoly({0: Fraction(-2, 4), 1: Fraction(3, 6)}) == (NPoly.N() - 1) * Fraction(1, 2)
    assert half != NPoly({1: Fraction(1, 2), 0: Fraction(1, 2)}) and half != Fraction(-1, 2)
    assert NPoly.one().__eq__("1") is NotImplemented
    assert NPoly.one() != "1" and not (NPoly.one() == "1")


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=9), mixed_coeffs, max_size=5), mixed_coeffs)
def test_npoly_eval_matches_reference(d, v):
    want = sum((Fraction(c) * Fraction(v) ** e for e, c in d.items()), Fraction(0))
    got = NPoly(d).eval(v)
    assert type(got) is Fraction and got == want


def test_npoly_normal_form_examples():
    half = n_minus_1_half()
    assert half.coeffs == {1: Fraction(1, 2), 0: Fraction(-1, 2)}
    # integral results of Fraction arithmetic are stored as ints
    assert (half * 2).coeffs == {1: 1, 0: -1}
    assert (half + half).coeffs == {1: 1, 0: -1}
    assert (half * half * 4).coeffs == {2: 1, 1: -2, 0: 1}
    assert (half - half).coeffs == {}
    assert NPoly({0: Fraction(4, 2), 3: Fraction(0)}).coeffs == {0: 2}
    assert NPoly.const(True).coeffs == {0: 1}
    assert NPoly({1: Fraction(2, 2), 0: Fraction(-4, 2)}).coeffs == {1: 1, 0: -2}
    for p in (half * 2, half + half, half * half * 4, NPoly({0: Fraction(4, 2)}), NPoly.const(True),
              NPoly({1: Fraction(2, 2), 0: Fraction(-4, 2)})):
        assert all(type(c) is int for c in p.coeffs.values()), p.coeffs
    # a product whose Fraction terms sum to ints and to zero
    p = NPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})
    for q, coeffs, text in (
        (NPoly({0: 1, 1: 1}), {0: Fraction(1, 2), 1: 1, 2: Fraction(1, 2)}, "1/2*N^2 + N + 1/2"),
        (NPoly({0: 2, 1: -2}), {0: 1, 2: -1}, "-N^2 + 1"),
        (NPoly.const(2), {0: 1, 1: 1}, "N + 1"),
    ):
        got = p * q
        assert got.coeffs == coeffs
        assert all(type(c) is int for c in got.coeffs.values() if c.denominator == 1), got.coeffs
        assert got.to_string() == text and got == NPoly(coeffs) and hash(got) == hash(NPoly(coeffs))
    for got, value in ((NPoly.const(Fraction(1, 2)) * 2, 1), (p * 0, 0)):
        assert got == value and hash(got) == hash(value)
        assert all(type(c) is int for c in got.coeffs.values())
    with pytest.raises(TypeError):
        NPoly({0: 0.5})
    with pytest.raises(ValueError):
        NPoly({-1: 1})
    with pytest.raises(ValueError):
        NPoly.N().shift(-1)


@settings(max_examples=200, deadline=None)
@given(npoly_strategy, st.integers(min_value=0, max_value=6))
def test_npoly_shift_is_multiplication_by_n_power(p, q):
    assert p.shift(q) == p * NPoly.N() ** q
    assert p.shift(0) is p


def test_series_from_fraction_examples():
    # (u+b)/(u-b) = 1 + 2b/u + 2b^2/u^2 + ...; b = 0 gives the constant series 1
    s = linear_fraction_series(Fraction(0), Fraction(0), 5)
    assert s == (0, 0, 0, 0, 0)
    # symbolic b = (N-1)/2, order 2: 1 + (N-1)/u + ((N-1)^2/2)/u^2
    h = n_minus_1_half()
    s = linear_fraction_series(h, h, 2)
    N = NPoly.N()
    assert s == (N - 1, (N - 1) ** 2 * Fraction(1, 2))
    # factors at b = 1 and b = -1 cancel
    prod = monic_product(
        linear_fraction_series(Fraction(1), Fraction(1), 4), linear_fraction_series(Fraction(-1), Fraction(-1), 4)
    )
    assert prod == (0, 0, 0, 0)


def _dense_product(a, b):
    """[1, *a] times [1, *b] as plain coefficient lists, truncated to the shorter."""
    x, y = [1, *a], [1, *b]
    full = [sum(x[s] * y[i - s] for s in range(i + 1)) for i in range(min(len(x), len(y)))]
    return tuple(full[1:])


small_ints = st.integers(min_value=-99, max_value=99)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_ints, max_size=6),
    st.lists(small_ints, max_size=6),
    st.lists(small_ints, min_size=6, max_size=6),
)
def test_monic_product_against_dense_reference(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert monic_product(a, b) == _dense_product(a, b)
    assert monic_product(a, b) == monic_product(b, a)
    assert monic_product(monic_product(a, b), c) == monic_product(a, monic_product(b, c))


def test_box_factor_at_zero_is_one():
    # the fact behind q_k_series skipping a zero eigenvalue
    for K in range(6):
        assert box_factor(0, K) == (0,) * K
        assert box_factor(Fraction(0), K) == (0,) * K


def test_linear_fraction_series():
    # (u+3)/(u-2) = 1 + 5/u + 10/u^2 + 20/u^3 ...
    s = linear_fraction_series(Fraction(3), Fraction(2), 3)
    assert s == (5, 10, 20)
