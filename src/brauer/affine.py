"""The affine Brauer algebra A(n, N) in regular-monomial normal form.

A(n, N) extends the diagram algebra by pairwise commuting generators
y_1..y_n and central generators w_1, w_2, ... subject to

    s_k y_k - y_{k+1} s_k = sbar_k - 1      (and its mirror)
    sbar_k (y_k + y_{k+1}) = 0 = (y_k + y_{k+1}) sbar_k
    sbar_1 y_1^i sbar_1 = w_i sbar_1,       w_0 = N

with w_i for odd i eliminated through the recursion
-2 w_i = w_{i-1} + sum_j (-1)^j w_{i-j} w_{j-1}, so normal forms carry only
even w's.  The normal form of an element is a combination of regular
monomials

    y^(left) * b(diagram) * y^(right) * w_2^{h_2} w_4^{h_4} ...

where a left exponent vanishes on every strand whose top vertex is the right
end of a top horizontal edge, and a right exponent lives only on strands
whose bottom vertex is the right end of a bottom horizontal edge.

The rewriting engine moves y's by exact relation applications only:

  * across a permutation layer via the s-relations (corrections drop the
    moved y, so they strictly lower the degree);
  * across a horizontal edge by the sign flip coming from the kill rules;
  * a y trapped between a bottom edge {k, k+1} and a following sbar_k
    collapses through the central series of the conditional expectation:
    sbar_k y_k^i sbar_k = w_k^(i) sbar_k, where the w_k^(i) are computed
    from the multiplicative series recursion

      (W_{k+1}(u) + u - 1/2) = (W_k(u) + u - 1/2)
                               * ((u+y_k)^2 - 1)(u-y_k)^2
                               / ((u-y_k)^2 - 1)(u+y_k)^2

    whose u^{-i} coefficient has y-degree at most i-1.  `cap_series` runs
    it on coefficient lists over A(n, N), with the u-term written out, and
    takes the factor from `coeffs.box_factor`, the same one the product
    forms of Q(mu, u) and Q_k(u) in `repform` use.  Every rewrite either
    lowers the total y-degree or settles a y into its final block, so the
    reduction terminates.

The engine works on raw data.  A term travels down the recursion as the
incoming NPoly's exponent map, an int sign and an int N-shift: a correction
term multiplies the sign by its own and adds its loops to the shift, and only
the two real products, by a cap-series coefficient in the sbar collapse and
by an odd w's expansion, build a new map (`coeffs._mul_into`).  Results are
summed into `{(left, diagram, right, w): {exponent: coefficient}}`, kept in
NPoly's normal form, and partial products stay in that form across a whole
atom word.  A `RegularMonomial` is the tuple (left, diagram, right, w), so a
plain key equals and hashes like its monomial.  `from_word` and
`AffineElement.__mul__` check each result term once with `_check_regular`,
the rule `RegularMonomial(...)` itself applies, and wrap it through the
trusted constructors `tuple.__new__(RegularMonomial, key)` (called as
`diagrams._tuple_new`) and `NPoly._trusted`, so no caller receives an
irregular monomial.

`AffineElement.__mul__` multiplies a by each term c * t of the right factor
as ((a * x_1) * x_2) ... * x_L, where x_1 ... x_L is the atom word of t
(`_term_word`), and then scales by c.  It visits the words in sorted order
and keeps the partial products of the previous word on a stack, so a word
that shares its first j atoms with the previous one starts from that
word's partial after j atoms.  The sharing is exact: the partial after j
atoms is a function of a and those j atoms alone, so the stored one is the
very map that recomputing it would produce, rewrite for rewrite.  Only the
order in which the scaled partials are summed changes, and exact sums do
not depend on it.  Nothing here assumes confluence.

Four passes are skipped because their output is known before they run.  Each
shortcut adds the very map the pass would build, so no rewrite is reordered
and, again, nothing assumes confluence:

  * A term with no y.  Both loops of `_normalize_into` find nothing to move,
    and the pass ends in `_add_raw` of the same key; it goes there at once.
  * s_k on a term with no right y on strands k, k+1.  y_j commutes with s_k
    for j not in {k, k+1}, so the product is y^left b(d s_k) y^right w, and
    that monomial is already regular.  d s_k is d with its bottom vertices
    k, k+1 swapped (`diagrams._swap`).  The swap closes no loop and keeps
    every top edge, so the left exponents stay legal.  A right y sits on a
    strand j outside {k, k+1}, at the right end of a bottom edge {i, j} with
    i < j.  The swap moves i only when i is k or k+1, then j >= k+2, and it
    moves i only to the other one, so i < j still holds.  The pass it replaces,
    compose and then `_normalize_into`, moves nothing in a regular term and
    adds this one key with the same coefficient and shift.
  * The even w's of a right-factor term.  The engine's atom w_i (i even)
    only relabels each key's w and keeps its coefficient map.  Relabelling
    by a fixed w is injective, so after t's w atoms the partial is the one
    before them with every key relabelled.  `__mul__` therefore spells t
    without its w's and merges t's w into each key as it scales by c.  Terms
    that differ only in w then have equal words and share their whole
    partial.
  * A unit right coefficient {0: 1}.  This rule lives in `coeffs._mul_into`:
    a unit second map forms no product, and the first map's values are added
    as they are.  c belongs to a stored partial or to a factor and is only
    read.

`pi_m` starts each term's image from its first factor.  A product by the
identity diagram returns the other factor's terms unchanged, so the start
from 1 that it replaces only added a product.

`hecke_quotient` maps A(n, N) onto the degenerate affine Hecke algebra H(n)
by killing every sbar.  An H(n) key is (v exponents, permutation diagram),
and `HeckeElement.times_v` moves a v up through a permutation by `_route_y`,
keeping the corrections whose diagram is a permutation.  That is exactly the
quotient by sbar: a correction word that holds an sbar composes to a diagram
with a horizontal edge, and one without to a loop-free permutation.  The kept
signs are s_k v_k = v_{k+1} s_k - 1 and s_k v_{k+1} = v_k s_k + 1.  The v^a w
form a basis of H(n), so the result does not depend on the reduced word walked.

Confluence is not proved in general; the associativity and
shift-homomorphism consistency suites test it on samples.  In a bounded
range it is certified instead.  Let S be the regular monomials of weight at
most w at a given n (`regular_monomials(n, w)`), and suppose the `pi_m`
images of S are linearly independent at one integer N = N0.  A linear
relation among the images over Q(N) can be scaled to polynomial
coefficients, not all divisible by N - N0, and then stays a non-trivial
relation at N = N0; so the images are independent over Q(N), and `pi_m` is
injective on the span of S.  Every rewrite applies a relation of A(n, N),
so a normal form NF(x) of x equals x in A(n, N), and pi_m(NF(x)) =
pi_word(x) by whatever path the rewriting took (the consistency suite tests
this).  So the normal forms of an input x that lie in the span of S,
however they were reached (a word read left to right, (a b) c or a (b c)),
are one and the same element.  The certificate covers exactly those
inputs: every operand and every result of weight at most w.  It holds for
n = 2, w <= 4 with m = 4 (69 monomials) and for n = 3, w <= 3 with m = 3
(360 monomials), at N0 = 101; `tests/test_affine.py` checks both by exact
integer elimination (`elimination.integer_rank`).  m = w is needed: at
n = 2, w = 3 the `pi_2` images have rank 33 of 39.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterator, NamedTuple

from .coeffs import Combination, NPoly, _mul_into, add_term, as_fraction, box_factor
from .diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    compose,
    compose_chain,
    diagram_to_json,
    factor_diagram,
    jucys_murphy,
    multiply,
    s_diagram,
    sbar_diagram,
    z_element,
    _cap,
    _swap,
    _token_diagram,
    _tuple_new,
)

Atom = tuple[str, int]
WTuple = tuple[int, ...]  # exponents of w_2, w_4, ...; trailing zeros trimmed
# the engine's regular monomial y^left b(diagram) y^right w, as a plain tuple
Key = tuple[tuple[int, ...], BrauerDiagram, tuple[int, ...], WTuple]
# the engine's element: Key -> raw NPoly coefficient map {exponent: coefficient}
Raw = dict[Key, dict[int, "int | Fraction"]]


def _trim(t: tuple[int, ...]) -> tuple[int, ...]:
    out = list(t)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _w_merge(a: WTuple, b: WTuple) -> WTuple:
    size = max(len(a), len(b))
    return _trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)))


def _w_unit(i: int) -> WTuple:
    """The w tuple of the even generator w_i, i >= 2."""
    return tuple(1 if t == i // 2 - 1 else 0 for t in range(i // 2))


def w_weight(w: WTuple) -> int:
    return sum(2 * (t + 1) * h for t, h in enumerate(w))


class _MonomialFields(NamedTuple):
    left: tuple[int, ...]
    diagram: BrauerDiagram
    right: tuple[int, ...]
    w: WTuple


class RegularMonomial(_MonomialFields):
    """y^left * b(diagram) * y^right * (even w's); the basis of A(n, N).

    ``RegularMonomial(n, left, diagram, right, w)`` trims w and validates;
    ``_tuple_new(RegularMonomial, (left, diagram, right, w))`` trusts its input."""

    __slots__ = ()

    def __new__(cls, n: int, left: tuple[int, ...], diagram: BrauerDiagram, right: tuple[int, ...], w: WTuple):
        t = tuple.__new__(cls, (left, diagram, right, _trim(w)))
        _check_regular(n, t)
        return t

    def __getnewargs__(self):
        return (self.n, *self)

    @property
    def n(self) -> int:
        return self.diagram.n

    def y_degree(self) -> int:
        return sum(self.left) + sum(self.right)

    def weight(self) -> int:
        return self.y_degree() + w_weight(self.w)

    def sort_key(self) -> tuple:
        return (self.weight(), self)


def _check_regular(n: int, t: Key) -> None:
    """Raise ValueError unless t = (left, diagram, right, w) is regular in A(n, N).

    Top strand m is the right end of a top edge when its partner is a top
    vertex left of it; bottom strand m is the right end of a bottom edge when
    its partner is a bottom vertex left of it."""
    left, d, right, w = t
    if d.n != n:
        raise ValueError(f"size-{d.n} diagram in a size-{n} monomial")
    if len(left) != n or len(right) != n:
        raise ValueError("exponent vectors must have length n")
    if w and w[-1] == 0:
        raise ValueError(f"w exponents not trimmed: {w}")
    p = d.pairing
    for m in range(1, n + 1):
        if left[m - 1] and p[m - 1] < m - 1:
            raise ValueError(f"left exponent on top-edge right end {m}")
    for m in range(1, n + 1):
        if right[m - 1] and not n <= p[n + m - 1] < n + m - 1:
            raise ValueError(f"right exponent on illegal strand {m}")


def regular_monomials(n: int, max_weight: int) -> Iterator[RegularMonomial]:
    """Every regular monomial of A(n, N) of weight <= max_weight, diagram by
    diagram: y exponents on the strands where `_check_regular` allows them,
    times a product of even w's, with y-degree plus w weight at most
    max_weight."""
    ws = [
        _trim(h)
        for h in product(*(range(max_weight // (2 * t) + 1) for t in range(1, max_weight // 2 + 1)))
        if w_weight(h) <= max_weight
    ]
    for d in all_diagrams(n):
        p = d.pairing
        lefts = [m for m in range(n) if p[m] > m]
        rights = [m for m in range(n) if n <= p[n + m] < n + m]
        for w in ws:
            budget = max_weight - w_weight(w)
            for e in product(range(budget + 1), repeat=len(lefts) + len(rights)):
                if sum(e) > budget:
                    continue
                left, right = [0] * n, [0] * n
                for m, x in zip(lefts, e):
                    left[m] = x
                for m, x in zip(rights, e[len(lefts) :]):
                    right[m] = x
                yield _tuple_new(RegularMonomial, (tuple(left), d, tuple(right), w))


class AffineElement(Combination):
    """Finite NPoly-linear combination of regular monomials."""

    __slots__ = ()

    # -- constructors

    @staticmethod
    def one(n: int) -> AffineElement:
        return AffineElement.from_diagram(BrauerDiagram.identity(n))

    @staticmethod
    def from_diagram(d: BrauerDiagram, coeff=1) -> AffineElement:
        zero = (0,) * d.n
        return AffineElement(d.n, {RegularMonomial(d.n, zero, d, zero, ()): NPoly.coerce(coeff)})

    @staticmethod
    def from_monomial(t: RegularMonomial, coeff=1) -> AffineElement:
        return AffineElement(t.n, {t: NPoly.coerce(coeff)})

    # -- ring structure (sums and scaling come from Combination)

    def __mul__(self, other: AffineElement) -> AffineElement:
        self._check_compatible(other)
        n = self.n
        words = sorted(((_term_word(t), t.w, c.coeffs) for t, c in other.terms.items()), key=itemgetter(0))
        # stack[j] is self times the first j atoms of the previous word; the
        # words are sorted, so each one shares its longest prefix with it
        stack = [_raw(self)]
        prev: tuple[Atom, ...] = ()
        out: Raw = {}
        for word, w2, c2 in words:
            j = 0
            while j < len(prev) and j < len(word) and prev[j] == word[j]:
                j += 1
            del stack[j + 1 :]
            for atom in word[j:]:
                stack.append(_times_atom(stack[-1], n, atom))
            prev = word
            for key, c in stack[-1].items():
                if not c:
                    continue
                if w2:
                    left, d, right, w = key
                    key = (left, d, right, _w_merge(w, w2))
                acc = out.get(key)
                if acc is None:
                    out[key] = acc = {}
                _mul_into(acc, c, c2)
        return _element(n, out)

    def y_degree(self) -> int:
        return max((t.y_degree() for t in self.terms), default=0)

    def weight(self) -> int:
        return max((t.weight() for t in self.terms), default=0)

    _sort_key = staticmethod(RegularMonomial.sort_key)

    @staticmethod
    def _format_key(t: RegularMonomial) -> str:
        return format_monomial(t)


# ---------------------------------------------------------------------------
# generators


def y_elem(k: int, n: int) -> AffineElement:
    return from_word([("y", k)], n)


def s_elem(k: int, n: int) -> AffineElement:
    return AffineElement.from_diagram(s_diagram(k, n))


def sbar_elem(k: int, n: int) -> AffineElement:
    return AffineElement.from_diagram(sbar_diagram(k, n))


@lru_cache(maxsize=16)
def _odd_w_expansion(i: int) -> tuple[tuple[WTuple, NPoly], ...]:
    """w_i as a polynomial in w_0=N and the even w's, for odd i >= 1.

    -2 w_i = w_{i-1} + sum_{j=1}^{i} (-1)^j w_{i-j} w_{j-1}.
    """
    if i % 2 != 1:
        raise AssertionError(f"w_{i} is not an odd generator")

    def as_dict(idx: int) -> dict[WTuple, NPoly]:
        if idx == 0:
            return {(): NPoly.N()}
        if idx % 2 == 0:
            return {_w_unit(idx): NPoly.one()}
        return dict(_odd_w_expansion(idx))

    acc = as_dict(i - 1)
    for j in range(1, i + 1):
        a, b = as_dict(i - j), as_dict(j - 1)
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                v = v1 * v2
                add_term(acc, _w_merge(k1, k2), -v if j % 2 else v)
    half = NPoly.const(Fraction(-1, 2))
    return tuple((k, v * half) for k, v in acc.items())


# The largest w index taken: an odd w_i expands through every odd index below
# it, and the time doubles with each odd index, 2.2 s at w_33, 4.7 s at w_35
# and 9.5 s at w_37 (README).
W_MAX_INDEX = 33


def w_elem(i: int, n: int) -> AffineElement:
    """The central generator w_i, with odd indices eliminated."""
    return from_word([("w", i)], n)


# ---------------------------------------------------------------------------
# the rewriting engine


@lru_cache(maxsize=1 << 13)
def _route_y(d: BrauerDiagram, m: int, from_right: bool):
    """Move one y through d along its strand, by exact relation applications.

    ``from_right`` starts the y at bottom strand m (product b(d) * y_m),
    otherwise at top strand m (product y_m * b(d)).  The y crosses
    permutation layers through the s-relations, whose correction terms lose
    the y, and flips with a sign across the single adjacent bar its strand
    meets in the three-layer factorization.  Returns

        (ends_left, position, sign, corrections)

    with corrections a tuple of (sign, loops, diagram): pure diagram terms.
    The kill rule (y_k + y_{k+1}) sbar_k = 0 holds for adjacent bars only,
    which is why non-adjacent horizontal edges must be routed this way.
    """
    n = d.n
    word = factor_diagram(d)
    length = len(word)
    pos = m
    sign = 1
    direction = -1 if from_right else 1
    idx = length - 1 if from_right else 0
    corrections: list[tuple[int, tuple[Atom, ...]]] = []
    while 0 <= idx < length:
        kind, c = word[idx]
        if kind == "s":
            # crossing either way: corrections are +/-(sbar_c - 1) with the
            # moved y gone
            if pos == c:
                pre, post = word[:idx], word[idx + 1 :]
                corrections.append((sign, pre + (("sbar", c),) + post))
                corrections.append((-sign, pre + post))
                pos = c + 1
            elif pos == c + 1:
                pre, post = word[:idx], word[idx + 1 :]
                corrections.append((-sign, pre + (("sbar", c),) + post))
                corrections.append((sign, pre + post))
                pos = c
        else:
            if pos in (c, c + 1):
                # adjacent kill rule: flip across the bar and reverse course
                sign = -sign
                pos = c + 1 if pos == c else c
                direction = -direction
        idx += direction
    ends_left = idx < 0
    compiled = []
    for csign, toks in corrections:
        dd, loops = compose_chain([_token_diagram(t, n) for t in toks], n)
        compiled.append((csign, loops, dd))
    # the walk must land where the diagram's strand does
    start = n + m - 1 if from_right else m - 1
    partner = d.pairing[start]
    expect_left = partner < n
    expect_pos = partner + 1 if expect_left else partner - n + 1
    if (ends_left, pos) != (expect_left, expect_pos):
        raise AssertionError("strand tracing inconsistent with the diagram")
    return ends_left, pos, sign, tuple(compiled)


def _bottom_partner(d: BrauerDiagram, m: int) -> tuple[str, int]:
    """Classify bottom strand m: ("through", top), ("left", partner) when m is
    the left end of a bottom edge, ("right", partner) when the right end."""
    n = d.n
    w = d.pairing[n + m - 1]
    if w < n:
        return ("through", w + 1)
    partner = w - n + 1
    return ("left", partner) if m < partner else ("right", partner)


def _top_right_flip(d: BrauerDiagram, m: int) -> int | None:
    """If top strand m is the right end of a top edge, its left end."""
    w = d.pairing[m - 1]
    if w < d.n and w < m - 1:
        return w + 1
    return None


def _add_raw(out: Raw, key: Key, c: dict, sign: int, q: int) -> None:
    """``out[key] += sign * N^q * c`` on raw coefficient maps, in NPoly's
    normal form: the engine's one leaf step.  ``c`` is only read."""
    acc = out.get(key)
    if acc is None:
        if sign < 0:
            out[key] = {e + q: -x for e, x in c.items()}
        else:
            out[key] = {e + q: x for e, x in c.items()} if q else dict(c)
        return
    # add_term inlined (the hot loop), keeping integral sums as ints
    for e, x in c.items():
        e += q
        if e in acc:
            x = acc[e] + x if sign > 0 else acc[e] - x
            if not x:
                del acc[e]
                continue
            if x.__class__ is Fraction and x.denominator == 1:
                x = x.numerator
        elif sign < 0:
            x = -x
        acc[e] = x


def _normalize_into(
    out: Raw,
    n: int,
    c: dict,
    sign: int,
    q: int,
    left: tuple[int, ...],
    d: BrauerDiagram,
    right: tuple[int, ...],
    w: WTuple,
):
    """Normalize sign * N^q * c * y^left b(d) y^right w^w into `out`."""
    if not (any(left) or any(right)):
        _add_raw(out, (left, d, right, w), c, sign, q)
        return
    lft = list(left)
    m = 1
    while m <= n:
        cnt = lft[m - 1]
        if cnt:
            l = _top_right_flip(d, m)
            if l is not None:
                if l == m - 1:
                    # adjacent top edge: exact sign flip
                    if cnt % 2:
                        sign = -sign
                    lft[l - 1] += cnt
                    lft[m - 1] = 0
                else:
                    # one y at a time along the strand, with corrections
                    lft[m - 1] -= 1
                    ends_left, pos, rsign, corrections = _route_y(d, m, False)
                    for csign, loops, dd in corrections:
                        _normalize_into(out, n, c, sign * csign, q + loops, tuple(lft), dd, right, w)
                    if not (ends_left and pos == l):
                        raise AssertionError("y routed off a top edge did not reach its left end")
                    lft[pos - 1] += 1
                    if rsign < 0:
                        sign = -sign
                    continue
        m += 1
    rgt = list(right)
    m = 1
    while m <= n:
        cnt = rgt[m - 1]
        if cnt:
            kind, p = _bottom_partner(d, m)
            if kind == "left" and p == m + 1:
                # adjacent bottom edge: exact sign flip to the right end
                if cnt % 2:
                    sign = -sign
                rgt[p - 1] += cnt
                rgt[m - 1] = 0
            elif kind != "right":
                # through strand or non-adjacent edge: route one y
                rgt[m - 1] -= 1
                ends_left, pos, rsign, corrections = _route_y(d, m, True)
                for csign, loops, dd in corrections:
                    _normalize_into(out, n, c, sign * csign, q + loops, tuple(lft), dd, tuple(rgt), w)
                if ends_left:
                    lft[pos - 1] += 1
                else:
                    rgt[pos - 1] += 1
                if rsign < 0:
                    sign = -sign
                continue
        m += 1
    _add_raw(out, (tuple(lft), d, tuple(rgt), w), c, sign, q)


def _mul_term_atom(out: Raw, n: int, key: Key, c: dict, sign: int, q: int, atom: Atom):
    """Accumulate (sign * N^q * c * key) * atom into out, in normal form."""
    left, d, right, w = key
    kind, k = atom
    if kind == "y":
        rgt = list(right)
        rgt[k - 1] += 1
        _normalize_into(out, n, c, sign, q, left, d, tuple(rgt), w)
        return
    if kind == "w":
        if k == 0:
            _add_raw(out, key, c, sign, q + 1)
        elif k % 2 == 0:
            _add_raw(out, (left, d, right, _w_merge(w, _w_unit(k))), c, sign, q)
        else:
            for wkey, v in _odd_w_expansion(k):
                prod: dict = {}
                _mul_into(prod, v.coeffs, c, q)
                _add_raw(out, (left, d, right, _w_merge(w, wkey)), prod, sign, 0)
        return
    if kind == "s":
        rgt = list(right)
        if rgt[k - 1] or rgt[k]:
            # y_k s_k = s_k y_{k+1} + sbar_k - 1 and
            # y_{k+1} s_k = s_k y_k - sbar_k + 1: the sbar term has sign f
            f, moved, to = (1, k - 1, k + 1) if rgt[k - 1] else (-1, k, k)
            rgt[moved] -= 1
            key2 = (left, d, tuple(rgt), w)
            tmp: Raw = {}
            _mul_term_atom(tmp, n, key2, c, sign, q, ("s", k))
            for kk, cc in tmp.items():
                if cc:
                    _mul_term_atom(out, n, kk, cc, 1, 0, ("y", to))
            _mul_term_atom(out, n, key2, c, f * sign, q, ("sbar", k))
            _normalize_into(out, n, c, -f * sign, q, *key2)
            return
        # no y on strands k, k+1: the term is already regular with d s_k
        _add_raw(out, (left, _swap(d, n + k - 1), right, w), c, sign, q)
        return
    if kind == "sbar":
        _sandwich_sbar(out, n, c, sign, q, left, d, list(right), w, k)
        return
    raise ValueError(f"unknown atom {atom}")


def _sandwich_sbar(
    out: Raw,
    n: int,
    c: dict,
    sign: int,
    q: int,
    left: tuple[int, ...],
    d: BrauerDiagram,
    right: list[int],
    w: WTuple,
    k: int,
):
    """Reduce sign * N^q * c * y^left b(d) y^right sbar_k w^w; `right` may be
    mid-rewrite state.

    Y's away from strands k, k+1 commute past the bar.  A y trapped against
    the cap either collapses through the w_k series (when d carries the
    bottom edge {k, k+1}) or is routed along its strand out of the way.
    """
    left_list = list(left)
    while right[k - 1] or right[k]:
        if d.pairing[n + k - 1] == n + k:
            # bottom edge {k, k+1} of d meets the cap: flip everything onto
            # strand k (adjacent, exact) and collapse:
            #   b(d) y_k^c sbar_k = b(d') sbar_k y_k^c sbar_k
            #                     = b(d') w_k^(c) sbar_k  ->  b(d) * w_k^(c)
            # (d' the loop-free splitting of the cup off d, d' o sbar_k = d;
            # the w_k^(c) coefficients commute past the bar and reattach as
            # right exponents below strand k)
            a, b = right[k - 1], right[k]
            right[k - 1] = right[k] = 0
            if b % 2:
                sign = -sign
            wk = cap_series(n, k, a + b)[a + b]
            base_right = tuple(right)
            for wt, wc in wk.terms.items():
                prod: dict = {}
                _mul_into(prod, c, wc.coeffs, q)
                new_right = tuple(x + y for x, y in zip(base_right, wt.left))
                _normalize_into(out, n, prod, sign, 0, tuple(left_list), d, new_right, _w_merge(w, wt.w))
            return
        m = k if right[k - 1] else k + 1
        right[m - 1] -= 1
        ends_left, pos, rsign, corrections = _route_y(d, m, True)
        for csign, loops, dd in corrections:
            _sandwich_sbar(out, n, c, sign * csign, q + loops, tuple(left_list), dd, list(right), w, k)
        if ends_left:
            left_list[pos - 1] += 1
        else:
            right[pos - 1] += 1
        if rsign < 0:
            sign = -sign
    d2, loops = _cap(d, n + k - 1)
    _normalize_into(out, n, c, sign, q + loops, tuple(left_list), d2, tuple(right), w)


def _raw(e: AffineElement) -> Raw:
    """The engine's view of an element; the maps are shared, never written."""
    return {t: c.coeffs for t, c in e.terms.items()}


def _times_atom(partial: Raw, n: int, atom: Atom) -> Raw:
    out: Raw = {}
    for key, c in partial.items():
        if c:
            _mul_term_atom(out, n, key, c, 1, 0, atom)
    return out


def _element(n: int, raw: Raw) -> AffineElement:
    """Wrap an engine result once, checking every term regular."""
    terms = {}
    for key, c in raw.items():
        if c:
            _check_regular(n, key)
            terms[_tuple_new(RegularMonomial, key)] = NPoly._trusted(c)
    return AffineElement._trusted(n, terms)


def _term_word(t: RegularMonomial) -> tuple[Atom, ...]:
    """An atom word whose product is the monomial's y's and diagram; its w's
    and coefficient are left out."""
    word: list[Atom] = []
    for m in range(t.n):
        word += [("y", m + 1)] * t.left[m]
    word += factor_diagram(t.diagram)
    for m in range(t.n):
        word += [("y", m + 1)] * t.right[m]
    return tuple(word)


def _check_atom(atom: Atom, n: int) -> None:
    """Reject an atom whose kind or index does not exist in A(n, N)."""
    kind, k = atom
    if kind in ("s", "sbar"):
        ok = 1 <= k <= n - 1
    elif kind == "y":
        ok = 1 <= k <= n
    elif kind == "w":
        if k > W_MAX_INDEX:
            raise ValueError(f"w index must be at most {W_MAX_INDEX}, got w{k}")
        ok = k >= 0
    else:
        raise ValueError(f"unknown atom {atom}")
    if not ok:
        raise ValueError(f"atom {kind}{k} is out of range for n={n}")


def from_word(atoms: list[Atom], n: int) -> AffineElement:
    """Normal form of a product of generator atoms.

    The atoms are checked against n here, once; the rewriting engine trusts
    its input, and every term of the result is checked regular once."""
    for atom in atoms:
        _check_atom(atom, n)
    partial = _raw(AffineElement.one(n))
    for atom in atoms:
        partial = _times_atom(partial, n, atom)
    return _element(n, partial)


# ---------------------------------------------------------------------------
# the central series w_k^(i)


@lru_cache(maxsize=16)
def _cap_series(n: int, k: int) -> list[AffineElement]:
    """The longest w_k series computed so far at n; `cap_series` fills it in
    place."""
    return []


def cap_series(n: int, k: int, order: int) -> list[AffineElement]:
    """[w_k^(0), ..., w_k^(order)]: sbar_k y_k^i sbar_k = w_k^(i) sbar_k.

    w_1^(i) = w_i; higher k by the multiplicative recursion
    T_k(u) = T_{k-1}(u) * F(u) on T_k(u) = W_k(u) + u - 1/2, where
    F = 1 + f_1/u + ... is `box_factor(y_{k-1})`.  Writing T_{k-1} as
    u + c_0 + c_1/u + ..., the u-term of the product is u again and
    t_i = c_i + f_{i+1} + sum_{s<i} c_s f_{i-s}.
    """
    if k < 1:
        raise ValueError("strand index must be positive")
    known = _cap_series(n, k)
    if len(known) > order:
        return known[: order + 1]
    if k == 1:
        series = [w_elem(i, n) for i in range(order + 1)]
    else:
        one = AffineElement.one(n)
        half = one.scale(Fraction(1, 2))
        prev = cap_series(n, k - 1, order)
        f = box_factor(y_elem(k - 1, n), order + 1, one)
        c = [prev[0] - half, *prev[1:]]
        series = []
        for i in range(order + 1):
            t = c[i] + f[i]
            for s in range(i):
                t = t + c[s] * f[i - 1 - s]
            series.append(t)
        series[0] = series[0] + half
    for i, elem in enumerate(series):
        if elem.y_degree() > max(i - 1, 0):
            raise AssertionError("cap series degree bound violated")
    known[:] = series
    return series


# ---------------------------------------------------------------------------
# homomorphisms to the diagram algebras


def atom_image(atom: Atom, n: int, m: int) -> AlgebraElement:
    """Image of one generator under the index-shift map into B(m+n, N)."""
    total = m + n
    kind, k = atom
    if kind == "s":
        return AlgebraElement.from_diagram(s_diagram(m + k, total))
    if kind == "sbar":
        return AlgebraElement.from_diagram(sbar_diagram(m + k, total))
    if kind == "y":
        return jucys_murphy(m + k, total)
    if kind == "w":
        return z_element(m + 1, k).embed(total)
    raise ValueError(f"unknown atom {atom}")


@lru_cache(maxsize=64)
def _jm_power(k: int, total: int, exp: int) -> AlgebraElement:
    return jucys_murphy(k, total).power(exp)


def pi_m(a: AffineElement, m: int) -> AlgebraElement:
    """The shift homomorphism A(n, N) -> B(m+n, N) on normal forms."""
    n = a.n
    total = m + n
    raw: dict[BrauerDiagram, dict] = {}
    for t, c in a.terms.items():
        factors = [_jm_power(m + s + 1, total, e) for s, e in enumerate(t.left) if e]
        factors.append(AlgebraElement.from_diagram(t.diagram.shift(m, total)))
        factors += [_jm_power(m + s + 1, total, e) for s, e in enumerate(t.right) if e]
        for s, h in enumerate(t.w):
            if h:
                factors += [z_element(m + 1, 2 * (s + 1)).embed(total)] * h
        acc = factors[0]
        for f in factors[1:]:
            acc = multiply(acc, f)
        for d, x in acc.terms.items():
            r = raw.get(d)
            if r is None:
                r = raw[d] = {}
            _mul_into(r, x.coeffs, c.coeffs)
    return AlgebraElement._trusted(total, {d: NPoly._trusted(r) for d, r in raw.items() if r})


def pi_word(atoms: list[Atom], n: int, m: int) -> AlgebraElement:
    """Image of a raw generator word, computed directly in B(m+n, N).

    Independent of the rewriting engine; the oracle for its soundness.
    """
    total = m + n
    acc = AlgebraElement.one(total)
    for atom in atoms:
        acc = multiply(acc, atom_image(atom, n, m))
    return acc


# ---------------------------------------------------------------------------
# the degenerate affine Hecke quotient


class HeckeElement(Combination):
    """Element of H(n): v-monomials to the left of permutations.

    A basis key is (v exponents, permutation diagram)."""

    __slots__ = ()

    def _check_key(self, key) -> None:
        vexp, d = key if isinstance(key, tuple) and len(key) == 2 else ((), None)
        ok = all(e.__class__ is int and e >= 0 for e in vexp)
        if not (ok and isinstance(d, BrauerDiagram) and d.is_permutation() and len(vexp) == d.n == self.n):
            raise ValueError(f"H({self.n}) key of the wrong size, or not (exponents >= 0, permutation): {key!r}")

    @staticmethod
    def one(n: int) -> HeckeElement:
        return HeckeElement(n, {((0,) * n, BrauerDiagram.identity(n)): NPoly.one()})

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        self._check_compatible(other)
        out: dict = {}
        for (vexp, p), c in other.terms.items():
            partial = self
            for m in range(self.n):
                for _ in range(vexp[m]):
                    partial = partial.times_v(m + 1)
            for (vexp2, d), x in partial.terms.items():
                add_term(out, (vexp2, compose(d, p)[0]), x * c)
        return HeckeElement._trusted(self.n, out)

    def times_v(self, m: int) -> HeckeElement:
        """self * v_m, keeping the sbar-free corrections of `_route_y`."""
        out: dict = {}
        for (vexp, d), c in self.terms.items():
            _, pos, _, corrections = _route_y(d, m, True)
            lst = list(vexp)
            lst[pos - 1] += 1
            add_term(out, (tuple(lst), d), c)
            for csign, _, dd in corrections:
                if dd.is_permutation():
                    add_term(out, (vexp, dd), c if csign > 0 else -c)
        return HeckeElement._trusted(self.n, out)

    @staticmethod
    def _format_key(key) -> str:
        vexp, d = key
        return f"v^{list(vexp)}*b{list(d.edges())}"


def hecke_quotient(a: AffineElement, f: dict[int, Fraction]) -> HeckeElement:
    """The quotient map killing every sbar: s_k -> s_k, y_k -> v_k, w_i -> f_i."""
    out: dict = {}
    for t, c in a.terms.items():
        # a permutation diagram has no bottom edges, so no right exponents
        if not t.diagram.is_permutation():
            continue
        coeff = c
        for s, h in enumerate(t.w):
            if h:
                fi = f.get(2 * (s + 1))
                if fi is None:
                    raise ValueError(f"no weight supplied for w_{2*(s+1)}")
                coeff = coeff * as_fraction(fi) ** h
        add_term(out, (t.left, t.diagram), coeff)
    return HeckeElement._trusted(a.n, out)


# ---------------------------------------------------------------------------
# parsing and printing


_ATOM_RE = re.compile(r"^(sbar|s|y|w)(\d+)$")


def parse_word(text: str) -> list[Atom]:
    """Whitespace word over tokens s<k>, sbar<k>, y<k>, w<i>."""
    atoms = []
    for tok in text.split():
        m = _ATOM_RE.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        atoms.append((m.group(1), int(m.group(2))))
    return atoms


def format_monomial(t: RegularMonomial) -> str:
    bits = []
    for m in range(t.n):
        if t.left[m]:
            bits.append(f"y{m+1}^{t.left[m]}" if t.left[m] > 1 else f"y{m+1}")
    bits.append(f"b{list(t.diagram.edges())}")
    for m in range(t.n):
        if t.right[m]:
            bits.append(f"y{m+1}^{t.right[m]}" if t.right[m] > 1 else f"y{m+1}")
    for s, h in enumerate(t.w):
        if h:
            bits.append(f"w{2*(s+1)}^{h}" if h > 1 else f"w{2*(s+1)}")
    return "*".join(bits)


def monomial_to_json(t: RegularMonomial) -> dict:
    return {
        "left": list(t.left),
        "diagram": diagram_to_json(t.diagram),
        "right": list(t.right),
        "w": {str(2 * (s + 1)): h for s, h in enumerate(t.w) if h},
    }


def element_to_json(a: AffineElement) -> list[dict]:
    out = []
    for t in sorted(a.terms, key=RegularMonomial.sort_key):
        out.append({"coeff": a.terms[t].to_string(), "monomial": monomial_to_json(t)})
    return out
