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

    whose u^{-i} coefficient has y-degree at most i-1.  Every rewrite either
    lowers the total y-degree or settles a y into its final block, so the
    reduction terminates.

Confluence is not proved; it is enforced empirically by the associativity
and shift-homomorphism consistency suites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeffs import Combination, NPoly, add_term, as_fraction
from .diagrams import (
    AlgebraElement,
    BrauerDiagram,
    compose,
    compose_chain,
    factor_diagram,
    jucys_murphy,
    multiply,
    perm_word,
    s_diagram,
    sbar_diagram,
    z_element,
    _token_diagram,
)

Atom = tuple[str, int]
WTuple = tuple[int, ...]  # exponents of w_2, w_4, ...; trailing zeros trimmed


def _trim(t: tuple[int, ...]) -> tuple[int, ...]:
    out = list(t)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _w_merge(a: WTuple, b: WTuple) -> WTuple:
    size = max(len(a), len(b))
    return _trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)))


def w_weight(w: WTuple) -> int:
    return sum(2 * (t + 1) * h for t, h in enumerate(w))


@dataclass(frozen=True)
class RegularMonomial:
    """y^left * b(diagram) * y^right * (even w's); the basis of A(n, N)."""

    n: int
    left: tuple[int, ...]
    diagram: BrauerDiagram
    right: tuple[int, ...]
    w: WTuple

    def __post_init__(self):
        if len(self.left) != self.n or len(self.right) != self.n:
            raise ValueError("exponent vectors must have length n")
        if self.w and self.w[-1] == 0:
            object.__setattr__(self, "w", _trim(self.w))
        for a, b in self.diagram.top_edges():
            if self.left[b - 1]:
                raise ValueError(f"left exponent on top-edge right end {b}")
        right_ok = {b for _, b in self.diagram.bottom_edges()}
        for m in range(1, self.n + 1):
            if self.right[m - 1] and m not in right_ok:
                raise ValueError(f"right exponent on illegal strand {m}")

    def y_degree(self) -> int:
        return sum(self.left) + sum(self.right)

    def weight(self) -> int:
        return self.y_degree() + w_weight(self.w)

    def sort_key(self) -> tuple:
        return (self.weight(), self.left, self.diagram.pairing, self.right, self.w)


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
        out = AffineElement.zero(self.n)
        for t2, c2 in other.terms.items():
            partial = self
            for atom in _term_word(t2):
                partial = _elem_times_atom(partial, atom)
            out = out + partial.scale(c2)
        return out

    def y_degree(self) -> int:
        return max((t.y_degree() for t in self.terms), default=0)

    def weight(self) -> int:
        return max((t.weight() for t in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t in sorted(self.terms, key=RegularMonomial.sort_key):
            bits.append(f"({self.terms[t].to_string()})*{format_monomial(t)}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# generators


def y_elem(k: int, n: int) -> AffineElement:
    if not 1 <= k <= n:
        raise ValueError("y index out of range")
    zero = (0,) * n
    left = tuple(1 if i == k - 1 else 0 for i in range(n))
    return AffineElement.from_monomial(
        RegularMonomial(n, left, BrauerDiagram.identity(n), zero, ())
    )


def s_elem(k: int, n: int) -> AffineElement:
    return AffineElement.from_diagram(s_diagram(k, n))


def sbar_elem(k: int, n: int) -> AffineElement:
    return AffineElement.from_diagram(sbar_diagram(k, n))


@lru_cache(maxsize=None)
def _odd_w_expansion(i: int) -> tuple[tuple[WTuple, NPoly], ...]:
    """w_i as a polynomial in w_0=N and the even w's, for odd i >= 1.

    -2 w_i = w_{i-1} + sum_{j=1}^{i} (-1)^j w_{i-j} w_{j-1}.
    """
    assert i % 2 == 1

    def as_dict(idx: int) -> dict[WTuple, NPoly]:
        if idx == 0:
            return {(): NPoly.N()}
        if idx % 2 == 0:
            key = tuple(1 if t == idx // 2 - 1 else 0 for t in range(idx // 2))
            return {key: NPoly.one()}
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


def w_elem(i: int, n: int) -> AffineElement:
    """The central generator w_i, with odd indices eliminated."""
    if i < 0:
        raise ValueError("w index must be non-negative")
    zero = (0,) * n
    ident = BrauerDiagram.identity(n)
    if i == 0:
        return AffineElement.one(n).scale(NPoly.N())
    if i % 2 == 0:
        key = tuple(1 if t == i // 2 - 1 else 0 for t in range(i // 2))
        return AffineElement.from_monomial(RegularMonomial(n, zero, ident, zero, key))
    out = AffineElement.zero(n)
    for key, c in _odd_w_expansion(i):
        out = out + AffineElement.from_monomial(RegularMonomial(n, zero, ident, zero, key), c)
    return out


# ---------------------------------------------------------------------------
# the rewriting engine


@lru_cache(maxsize=None)
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


_N_POWERS: dict[int, NPoly] = {}


def _n_power(q: int) -> NPoly:
    if q not in _N_POWERS:
        _N_POWERS[q] = NPoly.N() ** q
    return _N_POWERS[q]


def _normalize_into(
    out: dict[RegularMonomial, NPoly],
    n: int,
    coeff: NPoly,
    left: tuple[int, ...],
    d: BrauerDiagram,
    right: tuple[int, ...],
    w: WTuple,
):
    """Normalize y^left b(d) y^right w^w into regular monomials, into `out`."""
    sign = 1
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
                        c2 = coeff * Fraction(sign * csign)
                        if loops:
                            c2 = c2 * _n_power(loops)
                        _normalize_into(out, n, c2, tuple(lft), dd, right, w)
                    assert ends_left and pos == l
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
                    c2 = coeff * Fraction(sign * csign)
                    if loops:
                        c2 = c2 * _n_power(loops)
                    _normalize_into(out, n, c2, tuple(lft), dd, tuple(rgt), w)
                if ends_left:
                    lft[pos - 1] += 1
                else:
                    rgt[pos - 1] += 1
                if rsign < 0:
                    sign = -sign
                continue
        m += 1
    c = coeff if sign == 1 else coeff * Fraction(-1)
    add_term(out, RegularMonomial(n, tuple(lft), d, tuple(rgt), w), c)


def _mul_term_atom(out: dict[RegularMonomial, NPoly], t: RegularMonomial, coeff: NPoly, atom: Atom):
    """Accumulate (coeff * t) * atom into out, in normal form."""
    n = t.n
    kind, k = atom
    if kind == "y":
        right = list(t.right)
        right[k - 1] += 1
        _normalize_into(out, n, coeff, t.left, t.diagram, tuple(right), t.w)
        return
    if kind == "w":
        if k % 2 == 0 and k > 0:
            key = tuple(1 if s == k // 2 - 1 else 0 for s in range(k // 2))
            add_term(out, RegularMonomial(n, t.left, t.diagram, t.right, _w_merge(t.w, key)), coeff)
        elif k == 0:
            add_term(out, t, coeff * NPoly.N())
        else:
            for key, c in _odd_w_expansion(k):
                add_term(out, RegularMonomial(n, t.left, t.diagram, t.right, _w_merge(t.w, key)), coeff * c)
        return
    if kind == "s":
        right = list(t.right)
        if right[k - 1] > 0:
            # y_k s_k = s_k y_{k+1} + sbar_k - 1
            right[k - 1] -= 1
            t2 = RegularMonomial(n, t.left, t.diagram, tuple(right), t.w)
            tmp: dict[RegularMonomial, NPoly] = {}
            _mul_term_atom(tmp, t2, coeff, ("s", k))
            for tt, cc in tmp.items():
                _mul_term_atom(out, tt, cc, ("y", k + 1))
            _mul_term_atom(out, t2, coeff, ("sbar", k))
            _normalize_into(out, n, coeff * Fraction(-1), t2.left, t2.diagram, t2.right, t2.w)
            return
        if right[k] > 0:
            # y_{k+1} s_k = s_k y_k - sbar_k + 1
            right[k] -= 1
            t2 = RegularMonomial(n, t.left, t.diagram, tuple(right), t.w)
            tmp = {}
            _mul_term_atom(tmp, t2, coeff, ("s", k))
            for tt, cc in tmp.items():
                _mul_term_atom(out, tt, cc, ("y", k))
            _mul_term_atom(out, t2, coeff * Fraction(-1), ("sbar", k))
            _normalize_into(out, n, coeff, t2.left, t2.diagram, t2.right, t2.w)
            return
        d2, loops = compose(t.diagram, s_diagram(k, n))
        c = coeff if not loops else coeff * _n_power(loops)
        _normalize_into(out, n, c, t.left, d2, t.right, t.w)
        return
    if kind == "sbar":
        _sandwich_sbar(out, n, coeff, t.left, t.diagram, list(t.right), t.w, k)
        return
    raise ValueError(f"unknown atom {atom}")


def _sandwich_sbar(
    out: dict[RegularMonomial, NPoly],
    n: int,
    coeff: NPoly,
    left: tuple[int, ...],
    d: BrauerDiagram,
    right: list[int],
    w: WTuple,
    k: int,
):
    """Reduce y^left b(d) y^right sbar_k w^w; `right` may be mid-rewrite state.

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
            c_exp = a + b
            flip_sign = Fraction((-1) ** b)
            right[k - 1] = right[k] = 0
            wk = cap_series_coefficient(n, k, c_exp)
            base_right = tuple(right)
            for wt, wc in wk.terms.items():
                new_right = tuple(x + y for x, y in zip(base_right, wt.left))
                _normalize_into(
                    out,
                    n,
                    coeff * flip_sign * wc,
                    tuple(left_list),
                    d,
                    new_right,
                    _w_merge(w, wt.w),
                )
            return
        m = k if right[k - 1] else k + 1
        right[m - 1] -= 1
        ends_left, pos, rsign, corrections = _route_y(d, m, True)
        for csign, loops, dd in corrections:
            c2 = coeff * Fraction(csign)
            if loops:
                c2 = c2 * _n_power(loops)
            _sandwich_sbar(out, n, c2, tuple(left_list), dd, list(right), w, k)
        if ends_left:
            left_list[pos - 1] += 1
        else:
            right[pos - 1] += 1
        if rsign < 0:
            coeff = coeff * Fraction(-1)
    d2, loops = compose(d, sbar_diagram(k, n))
    c = coeff if not loops else coeff * _n_power(loops)
    _normalize_into(out, n, c, tuple(left_list), d2, tuple(right), w)


def _elem_times_atom(e: AffineElement, atom: Atom) -> AffineElement:
    out: dict[RegularMonomial, NPoly] = {}
    for t, c in e.terms.items():
        _mul_term_atom(out, t, c, atom)
    return AffineElement._trusted(e.n, out)


def _term_word(t: RegularMonomial) -> list[Atom]:
    """An atom word whose product is the monomial (coefficient excluded)."""
    word: list[Atom] = []
    for m in range(t.n):
        word += [("y", m + 1)] * t.left[m]
    word += list(factor_diagram(t.diagram))
    for m in range(t.n):
        word += [("y", m + 1)] * t.right[m]
    for s, h in enumerate(t.w):
        word += [("w", 2 * (s + 1))] * h
    return word


def _check_atom(atom: Atom, n: int) -> None:
    """Reject an atom whose kind or index does not exist in A(n, N)."""
    kind, k = atom
    if kind in ("s", "sbar"):
        ok = 1 <= k <= n - 1
    elif kind == "y":
        ok = 1 <= k <= n
    elif kind == "w":
        ok = k >= 0
    else:
        raise ValueError(f"unknown atom {atom}")
    if not ok:
        raise ValueError(f"atom {kind}{k} is out of range for n={n}")


def from_word(atoms: list[Atom], n: int) -> AffineElement:
    """Normal form of a product of generator atoms.

    The atoms are checked against n here, once; the rewriting engine trusts
    its input."""
    for atom in atoms:
        _check_atom(atom, n)
    e = AffineElement.one(n)
    for atom in atoms:
        e = _elem_times_atom(e, atom)
    return e


# ---------------------------------------------------------------------------
# the central series w_k^(i)


_CAP_SERIES: dict[tuple[int, int], list[AffineElement]] = {}


def _series_mul(a: list, b: list, order: int) -> list:
    """Convolution of coefficient lists (index = power of 1/u)."""
    out = []
    for i in range(order + 1):
        acc = None
        for s in range(max(0, i - (len(b) - 1)), min(i, len(a) - 1) + 1):
            term = a[s] * b[i - s]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _r_series(n: int, k: int, order: int) -> list[AffineElement]:
    """((u+y_k)^2 - 1)/((u-y_k)^2 - 1) * (u-y_k)^2/(u+y_k)^2 as a series.

    Equal to (1 - (u+y_k)^{-2}) / (1 - (u-y_k)^{-2}); the u^{-i} coefficient
    is a polynomial in y_k of degree <= i - 2.
    """
    y = y_elem(k, n)
    zero = AffineElement.zero(n)
    one = AffineElement.one(n)
    ypow = [one]
    for _ in range(order):
        ypow.append(ypow[-1] * y)
    s_plus = [zero] * (order + 1)
    s_minus = [zero] * (order + 1)
    for s in range(order - 1):
        s_plus[s + 2] = ypow[s].scale(Fraction((s + 1) * (-1) ** s))
        s_minus[s + 2] = ypow[s].scale(Fraction(s + 1))
    # geometric inverse of (1 - s_minus)
    inv = [zero] * (order + 1)
    inv[0] = one
    power = [one] + [zero] * order
    while True:
        power = _series_mul(power, s_minus, order)
        if all(p.is_zero() for p in power):
            break
        inv = [a + b for a, b in zip(inv, power)]
    top = [one] + [zero] * order
    top = [a - b for a, b in zip(top, s_plus)]
    return _series_mul(top, inv, order)


def cap_series(n: int, k: int, order: int) -> list[AffineElement]:
    """[w_k^(0), ..., w_k^(order)]: sbar_k y_k^i sbar_k = w_k^(i) sbar_k.

    w_1^(i) = w_i; higher k by the multiplicative recursion on
    T_k(u) = W_k(u) + u - 1/2 (the u-coefficient stays 1 throughout).
    """
    if k < 1:
        raise ValueError("strand index must be positive")
    cached = _CAP_SERIES.get((n, k))
    if cached is not None and len(cached) > order:
        return cached[: order + 1]
    half = NPoly.const(Fraction(1, 2))
    if k == 1:
        series = [w_elem(i, n) for i in range(order + 1)]
    else:
        prev = cap_series(n, k - 1, order + 1)
        t_prev = [prev[0] - AffineElement.one(n).scale(half)] + prev[1 : order + 2]
        r = _r_series(n, k - 1, order + 2)
        t_new = _series_mul(t_prev, r, order + 1)
        # the u * R(u) contribution shifts R down by one power
        t_new = [t_new[i] + r[i + 1] for i in range(order + 1)]
        series = [t_new[0] + AffineElement.one(n).scale(half)] + t_new[1 : order + 1]
    for i, elem in enumerate(series):
        if elem.y_degree() > max(i - 1, 0):
            raise AssertionError("cap series degree bound violated")
    _CAP_SERIES[(n, k)] = series
    return series


def cap_series_coefficient(n: int, k: int, i: int) -> AffineElement:
    return cap_series(n, k, i)[i]


def w_series(k: int, order: int, n: int):
    """The generating series W_k(u) truncated at the given order.

    Returns a USeries whose coefficients are AffineElements of A(n, N).
    """
    from .coeffs import USeries

    return USeries(cap_series(n, k, order))


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


@lru_cache(maxsize=None)
def _jm_power(k: int, total: int, exp: int) -> AlgebraElement:
    return jucys_murphy(k, total).power(exp)


def pi_m(a: AffineElement, m: int) -> AlgebraElement:
    """The shift homomorphism A(n, N) -> B(m+n, N) on normal forms."""
    n = a.n
    total = m + n
    out = AlgebraElement.zero(total)
    for t, c in a.terms.items():
        acc = AlgebraElement.one(total)
        for s in range(n):
            if t.left[s]:
                acc = multiply(acc, _jm_power(m + s + 1, total, t.left[s]))
        acc = multiply(acc, AlgebraElement.from_diagram(t.diagram.shift(m, total)))
        for s in range(n):
            if t.right[s]:
                acc = multiply(acc, _jm_power(m + s + 1, total, t.right[s]))
        for s, h in enumerate(t.w):
            if h:
                z = z_element(m + 1, 2 * (s + 1)).embed(total)
                for _ in range(h):
                    acc = multiply(acc, z)
        out = out + acc.scale(c)
    return out


def pi_word(atoms: list[Atom], n: int, m: int) -> AlgebraElement:
    """Image of a raw generator word, computed directly in B(m+n, N).

    Independent of the rewriting engine; the oracle for its soundness.
    """
    total = m + n
    acc = AlgebraElement.one(total)
    for atom in atoms:
        acc = multiply(acc, atom_image(atom, n, m))
    return acc


def is_zero_via_faithfulness(a: AffineElement) -> bool:
    """Zero test through the shift homomorphism of the maximal weight."""
    return pi_m(a, a.weight()).is_zero()


# ---------------------------------------------------------------------------
# the degenerate affine Hecke quotient


class HeckeElement(Combination):
    """Element of H(n): v-monomials to the left of permutations.

    A basis key is (v exponents, permutation in 0-based one-line form)."""

    __slots__ = ()

    def _check_key(self, key) -> None:
        vexp, perm = key
        if len(vexp) != self.n or len(perm) != self.n:
            raise ValueError(f"H({self.n}) key of the wrong size: {key}")

    @staticmethod
    def one(n: int) -> HeckeElement:
        return HeckeElement(n, {((0,) * n, tuple(range(n))): NPoly.one()})

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        self._check_compatible(other)
        out = HeckeElement.zero(self.n)
        for (vexp, perm), c in other.terms.items():
            partial = self
            for m in range(self.n):
                for _ in range(vexp[m]):
                    partial = partial.times_v(m + 1)
            for k in perm_word(perm):
                partial = partial.times_s(k)
            out = out + partial.scale(c)
        return out

    def times_s(self, k: int) -> HeckeElement:
        out: dict = {}
        for (vexp, perm), c in self.terms.items():
            arr = list(perm)
            arr[k - 1], arr[k] = arr[k], arr[k - 1]
            add_term(out, (vexp, tuple(arr)), c)
        return HeckeElement._trusted(self.n, out)

    def times_v(self, m: int) -> HeckeElement:
        out: dict = {}
        for (vexp, perm), c in self.terms.items():
            for sign, vshift, perm2 in _hecke_push_v(perm, m):
                if vshift is None:
                    key = (vexp, perm2)
                else:
                    lst = list(vexp)
                    lst[vshift - 1] += 1
                    key = (tuple(lst), perm2)
                add_term(out, key, c if sign > 0 else -c)
        return HeckeElement._trusted(self.n, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (vexp, perm) in sorted(self.terms):
            bits.append(f"({self.terms[(vexp,perm)].to_string()})*v^{list(vexp)}*perm{list(perm)}")
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _hecke_push_v(perm: tuple[int, ...], m: int) -> tuple[tuple[int, int | None, tuple[int, ...]], ...]:
    """perm * v_m as [(sign, arrival strand or None, permutation)].

    Uses s_k v_k = v_{k+1} s_k - 1 and s_k v_{k+1} = v_k s_k + 1; entries
    with arrival None lost the v.
    """
    word = perm_word(perm)
    pos = m
    results: list[tuple[int, int | None, tuple[Atom, ...]]] = []
    for idx in range(len(word) - 1, -1, -1):
        c = word[idx]
        if pos == c:
            results.append((-1, None, word[:idx] + word[idx + 1 :]))
            pos = c + 1
        elif pos == c + 1:
            results.append((1, None, word[:idx] + word[idx + 1 :]))
            pos = c

    def word_to_perm(toks) -> tuple[int, ...]:
        arr = list(range(len(perm)))
        for k in toks:
            arr[k - 1], arr[k] = arr[k], arr[k - 1]
        return tuple(arr)

    out = [(1, pos, perm)]
    for sign, _, toks in results:
        out.append((sign, None, word_to_perm(toks)))
    return tuple(out)


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
        add_term(out, (t.left, t.diagram.permutation()), coeff)
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
    from .diagrams import diagram_to_json

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
