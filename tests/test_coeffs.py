import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brauer.coeffs import (
    NPoly,
    SurdSum,
    USeries,
    linear_fraction_series,
    n_minus_1_half,
    sqrt_of_rational,
    squarefree_decomposition,
)

rationals = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=20)
)


def surd(terms):
    return SurdSum({r: Fraction(c) for r, c in terms})


def test_squarefree_decomposition():
    assert squarefree_decomposition(60) == (2, 15)
    assert squarefree_decomposition(1) == (1, 1)
    assert squarefree_decomposition(49) == (7, 1)
    assert squarefree_decomposition(18) == (3, 2)


def test_surd_mul_examples():
    root2 = surd([(2, 1)])
    assert root2 * root2 == SurdSum.rational(2)
    x = surd([(3, Fraction(1, 2)), (1, 5)])
    assert SurdSum.one() * x == x
    # sqrt(6)*sqrt(10) = 2*sqrt(15)
    assert surd([(6, 1)]) * surd([(10, 1)]) == surd([(15, 2)])


def test_surd_mul_matches_generic_reduction():
    # every radicand pair up to 60, squarefree or not, against the
    # constructor's reduction of the product radicand
    rng = random.Random(60)
    for r1 in range(1, 61):
        for r2 in range(1, 61):
            c1 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            c2 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            a, b = SurdSum({r1: c1}), SurdSum({r2: c2})
            assert a * b == SurdSum({r1 * r2: c1 * c2}), (r1, r2)
    # sums: the product expands termwise and cancels to the normal form
    for _ in range(300):
        xs = {rng.randint(1, 60): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
        ys = {rng.randint(1, 60): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
        expect = SurdSum.zero()
        for r1, c1 in xs.items():
            for r2, c2 in ys.items():
                expect = expect + SurdSum({r1 * r2: c1 * c2})
        product = SurdSum(xs) * SurdSum(ys)
        assert product == expect
        assert all(product.terms.values())
        assert all(squarefree_decomposition(r)[0] == 1 for r in product.terms)
    assert SurdSum({2: 1}) * 3 == SurdSum({2: 3})
    assert 3 * SurdSum({2: 1}) == SurdSum({2: 3})


def test_sqrt_of_rational_examples():
    assert sqrt_of_rational(Fraction(9, 4)) == SurdSum.rational(Fraction(3, 2))
    assert sqrt_of_rational(0) == SurdSum.zero()
    assert sqrt_of_rational(Fraction(3, 4)) == surd([(3, Fraction(1, 2))])
    with pytest.raises(ValueError):
        sqrt_of_rational(Fraction(-1, 2))


def test_sqrt_squares_back():
    rng = random.Random(1234)
    for _ in range(1000):
        q = Fraction(rng.randint(0, 400), rng.randint(1, 60))
        s = sqrt_of_rational(q)
        assert s * s == SurdSum.rational(q)


surd_strategy = st.builds(
    lambda pairs: SurdSum({r: c for r, c in pairs}),
    st.lists(st.tuples(st.integers(min_value=1, max_value=30), rationals), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(surd_strategy, surd_strategy, surd_strategy)
def test_surd_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == SurdSum.zero()


def test_npoly_basics():
    N = NPoly.N()
    p = (N - 1) * Fraction(1, 2)
    assert p == n_minus_1_half()
    assert p.eval(3) == 1
    assert (p**2).eval(5) == 4
    assert NPoly.from_string((p**3 - N + 2).to_string()) == p**3 - N + 2
    assert NPoly.from_string("0") == NPoly.zero()
    assert NPoly.from_string("-N^2 + 1/2") == -(N**2) + Fraction(1, 2)


def test_npoly_constant_hashes_like_its_value():
    for c in (0, 1, -3, Fraction(2, 7)):
        p = NPoly.const(c)
        assert p == c and hash(p) == hash(c) == hash(Fraction(c))
    assert hash(NPoly.zero()) == hash(0)
    assert len({NPoly.const(1), 1, Fraction(1)}) == 1
    assert NPoly.N() != 1


npoly_strategy = st.builds(
    lambda pairs: NPoly({e: c for e, c in pairs}),
    st.lists(st.tuples(st.integers(min_value=0, max_value=4), rationals), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(npoly_strategy, npoly_strategy, rationals)
def test_npoly_specialization_is_homomorphism(p, q, v):
    assert (p + q).eval(v) == p.eval(v) + q.eval(v)
    assert (p * q).eval(v) == p.eval(v) * q.eval(v)
    assert (p - q).eval(v) == p.eval(v) - q.eval(v)


def test_series_from_fraction_examples():
    # (u+b)/(u-b) = 1 + 2b/u + 2b^2/u^2 + ...; b = 0 gives the constant series 1
    s = linear_fraction_series(Fraction(0), Fraction(0), 5)
    assert list(s.coeffs) == [1, 0, 0, 0, 0, 0]
    # symbolic b = (N-1)/2, order 2: 1 + (N-1)/u + ((N-1)^2/2)/u^2
    h = n_minus_1_half()
    s = linear_fraction_series(h, h, 2)
    N = NPoly.N()
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == N - 1
    assert s.coeffs[2] == (N - 1) ** 2 * Fraction(1, 2)
    # factors at b = 1 and b = -1 cancel
    prod = linear_fraction_series(Fraction(1), Fraction(1), 4) * linear_fraction_series(
        Fraction(-1), Fraction(-1), 4
    )
    assert prod == USeries.constant(Fraction(1), 4) or all(
        prod.coeffs[i] == (1 if i == 0 else 0) for i in range(5)
    )


def test_useries_u_term_handling():
    # (u + 1/2) * (1 + 2/u) = u + 5/2 + 1/u
    q = USeries([Fraction(1), Fraction(2), Fraction(0)])
    upl = USeries([Fraction(1, 2), Fraction(0), Fraction(0)], u_coeff=Fraction(1))
    z = upl * q
    assert z.u_coeff == 1
    assert z.coeffs[0] == Fraction(5, 2)
    assert z.coeffs[1] == Fraction(1)
    with pytest.raises(ValueError):
        upl * upl


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
)
def test_useries_ring_up_to_truncation(a, b, c):
    A, B, C = USeries(a), USeries(b), USeries(c)
    assert A * B == B * A
    assert (A * B) * C == A * (B * C)
    assert (A + B) * C == A * C + B * C


def test_linear_fraction_series():
    # (u+3)/(u-2) = 1 + 5/u + 10/u^2 + 20/u^3 ...
    s = linear_fraction_series(Fraction(3), Fraction(2), 3)
    assert list(s.coeffs) == [1, 5, 10, 20]
