"""The Brauer algebra B(n, N) on its diagram basis.

A basis diagram is a perfect matching of 2n points: strands 1..n appear twice,
as a top row and a bottom row.  Vertices are numbered 0..2n-1 with top strand
k at vertex k-1 and bottom strand k at vertex n+k-1.  The matching is stored
as a fixed-point-free involution ``pairing`` of 0..2n-1.  A diagram is the
tuple ``(n, pairing)``: it hashes, compares and, within one n, sorts as that
tuple.  ``BrauerDiagram(n, pairing)`` validates;
``_tuple_new(BrauerDiagram, (n, pairing))`` trusts its input.

Products follow the diagram calculus: stack the left factor on top of the
right one, contract, and pick up one factor of the formal parameter N per
closed loop.  Algebra elements carry NPoly coefficients so every identity in
this module can be checked with N symbolic.

A product by one generator takes a local rule instead of the kernel.
``d * s_k`` swaps the bottom vertices of strands k and k+1 of d.  ``d * sbar_k``
caps them: a loop if d already pairs them, otherwise their two partners are
joined and the cap {k-bar, (k+1)-bar} is added.  ``s_k * d`` and ``sbar_k * d``
do the same on the top row.  ``multiply`` takes this rule whenever one factor
is a single generator diagram.  Every other product runs the composition
inner loop.  That loop lives in the pure-Python module ``_kernel`` and is
always called as ``_kernel.compose_pairings``, so a profiler can wrap it there.
It walks the strands from the top row, then the unmatched bottom vertices, and
the closed loops only if some glued vertex is left unvisited.
When a factor has a non-integral coefficient, such as the (N-1)/2 of x_k, the
loop multiplies its maps scaled by the lcm of its denominators, in ints, and
divides each output coefficient once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from . import _kernel
from .coeffs import Combination, NPoly, _mul_into, add_term, n_minus_1_half

KERNEL_BACKEND = "python"  # the only backend; benchmark reports print it
# the trusted constructor of BrauerDiagram and RegularMonomial, a C call (_make is Python)
_tuple_new = tuple.__new__


class _DiagramFields(NamedTuple):
    n: int
    pairing: tuple[int, ...]


class BrauerDiagram(_DiagramFields):
    """A perfect matching on 2n labelled vertices."""

    __slots__ = ()

    def __new__(cls, n: int, pairing: tuple[int, ...]) -> BrauerDiagram:
        if len(pairing) != 2 * n:
            raise ValueError("pairing length must be 2n")
        for v, w in enumerate(pairing):
            if w == v or not 0 <= w < 2 * n or pairing[w] != v:
                raise ValueError(f"not a fixed-point-free involution: {pairing}")
        return tuple.__new__(cls, (n, pairing))

    # -- constructors

    @staticmethod
    def from_edges(n: int, edges: list[tuple[int, int]]) -> BrauerDiagram:
        pairing = [-1] * (2 * n)
        for v, w in edges:
            pairing[v], pairing[w] = w, v
        return BrauerDiagram(n, tuple(pairing))

    @staticmethod
    def identity(n: int) -> BrauerDiagram:
        return BrauerDiagram(n, tuple(range(n, 2 * n)) + tuple(range(n)))

    # -- canonical views

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((v, w) for v, w in enumerate(self.pairing) if v < w))

    def top_edges(self) -> list[tuple[int, int]]:
        """Horizontal edges in the top row, as 1-based strand pairs (a < b)."""
        n = self.n
        return [(v + 1, w + 1) for v, w in self.edges() if v < n and w < n]

    def bottom_edges(self) -> list[tuple[int, int]]:
        n = self.n
        return [(v - n + 1, w - n + 1) for v, w in self.edges() if v >= n and w >= n]

    def through_edges(self) -> list[tuple[int, int]]:
        """Edges joining the rows, as (top strand, bottom strand), sorted by top."""
        n = self.n
        return sorted((v + 1, w - n + 1) for v, w in self.edges() if v < n and w >= n)

    def is_permutation(self) -> bool:
        return all(w >= self.n for w in self.pairing[: self.n])

    def permutation(self) -> tuple[int, ...]:
        """One-line form (0-based): position i maps to p[i]; requires no horizontal edges."""
        if not self.is_permutation():
            raise ValueError("diagram has horizontal edges")
        n = self.n
        out = [-1] * n
        for bottom in range(n):
            out[bottom] = self.pairing[n + bottom]
        return tuple(out)

    def shift(self, m: int, n2: int) -> BrauerDiagram:
        """Place this diagram on strands m+1..m+n inside B(n2), verticals elsewhere."""
        n = self.n
        if m + n > n2:
            raise ValueError("shifted diagram does not fit")
        pairing = [-1] * (2 * n2)
        move = lambda v: v + m if v < n else v + m + (n2 - n)
        for v, w in self.edges():
            a, b = move(v), move(w)
            pairing[a], pairing[b] = b, a
        for t in list(range(m)) + list(range(m + n, n2)):
            pairing[t], pairing[n2 + t] = n2 + t, t
        return BrauerDiagram(n2, tuple(pairing))

    def __repr__(self) -> str:
        return f"BrauerDiagram({self.n}, edges={list(self.edges())})"


# The memo of pair compositions serves B(n <= COMPOSE_MEMO_MAX_N), where pairs
# repeat; it holds only ints.  Hits per n at seed 7031995, one memo for all n:
# affine_words 11,156/12,146 at n = 4, 1,990/4,688 at n = 5; brauer_products
# 291/2,092 at n = 6, 461/3,990 at n = 7, 0/31,304 at n = 8.  A miss at n = 8
# costs 2.6-2.9 us, the bare kernel 2.0 us.  1 << 13 holds B(5) x 8 generators.
COMPOSE_MEMO_MAX_N = 5


@lru_cache(maxsize=1 << 13)
def _compose_cached(p1: tuple[int, ...], p2: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    return _kernel.compose_pairings(p1, p2, n)


def compose(g: BrauerDiagram, g2: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Diagram product: returns (reduced matching, number of removed loops)."""
    if g.n != g2.n:
        raise ValueError(f"size mismatch: {g.n} vs {g2.n}")
    compose_pair = _compose_cached if g.n <= COMPOSE_MEMO_MAX_N else _kernel.compose_pairings
    pairing, loops = compose_pair(g.pairing, g2.pairing, g.n)
    return _tuple_new(BrauerDiagram, (g.n, pairing)), loops


def compose_chain(diagrams: list[BrauerDiagram], n: int) -> tuple[BrauerDiagram, int]:
    """Product of a list of diagrams (identity if empty), with total loop count."""
    acc = BrauerDiagram.identity(n)
    loops = 0
    for d in diagrams:
        acc, q = compose(acc, d)
        loops += q
    return acc, loops


# ---------------------------------------------------------------------------
# distinguished diagrams


def from_permutation(p: tuple[int, ...]) -> BrauerDiagram:
    """Diagram of a permutation given in 0-based one-line form (i -> p[i])."""
    n = len(p)
    pairing = [-1] * (2 * n)
    for i in range(n):
        pairing[p[i]], pairing[n + i] = n + i, p[i]
    return BrauerDiagram(n, tuple(pairing))


def transposition(k: int, l: int, n: int) -> BrauerDiagram:
    """The permutation diagram of (k, l), 1-based, k < l <= n."""
    if not 1 <= k < l <= n:
        raise ValueError(f"bad transposition indices ({k}, {l}) for n={n}")
    p = list(range(n))
    p[k - 1], p[l - 1] = p[l - 1], p[k - 1]
    return from_permutation(tuple(p))


def bar_transposition(k: int, l: int, n: int) -> BrauerDiagram:
    """The diagram whose only non-vertical edges are {k, l} and {k-bar, l-bar}."""
    if not 1 <= k < l <= n:
        raise ValueError(f"bad bar-transposition indices ({k}, {l}) for n={n}")
    pairing = list(BrauerDiagram.identity(n).pairing)
    a, b = k - 1, l - 1
    pairing[a], pairing[b] = b, a
    pairing[n + a], pairing[n + b] = n + b, n + a
    return BrauerDiagram(n, tuple(pairing))


@lru_cache(maxsize=128)
def s_diagram(k: int, n: int) -> BrauerDiagram:
    return transposition(k, k + 1, n)


@lru_cache(maxsize=128)
def sbar_diagram(k: int, n: int) -> BrauerDiagram:
    return bar_transposition(k, k + 1, n)


def all_diagrams(n: int) -> Iterator[BrauerDiagram]:
    """All (2n-1)!! perfect matchings, in a deterministic order."""

    def matchings(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not free:
            yield ()
            return
        v = free[0]
        for i in range(1, len(free)):
            w = free[i]
            rest = free[1:i] + free[i + 1 :]
            for tail in matchings(rest):
                yield ((v, w),) + tail

    for edges in matchings(tuple(range(2 * n))):
        yield BrauerDiagram.from_edges(n, list(edges))


def random_diagram(n: int, rng) -> BrauerDiagram:
    verts = list(range(2 * n))
    rng.shuffle(verts)
    return BrauerDiagram.from_edges(n, [(verts[2 * i], verts[2 * i + 1]) for i in range(n)])


# ---------------------------------------------------------------------------
# algebra elements


class AlgebraElement(Combination):
    """Finite NPoly-linear combination of Brauer diagrams of one size."""

    __slots__ = ()

    @staticmethod
    def one(n: int) -> AlgebraElement:
        return AlgebraElement(n, {BrauerDiagram.identity(n): NPoly.one()})

    @staticmethod
    def from_diagram(d: BrauerDiagram, coeff=1) -> AlgebraElement:
        return AlgebraElement(d.n, {d: NPoly.coerce(coeff)})

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        return multiply(self, other)

    def embed(self, n2: int) -> AlgebraElement:
        return AlgebraElement(n2, {d.shift(0, n2): c for d, c in self.terms.items()})

    def power(self, k: int) -> AlgebraElement:
        if k < 0:
            raise ValueError("negative power of an AlgebraElement")
        if k == 0:
            return AlgebraElement.one(self.n)
        result = self
        for _ in range(k - 1):
            result = multiply(result, self)
        return result

    @staticmethod
    def _format_key(d: BrauerDiagram) -> str:
        return str(list(d.edges()))


def _generator_of(d: BrauerDiagram) -> tuple[bool, int] | None:
    """``(bar, k)`` if d is s_k (bar False) or sbar_k (bar True), else None."""
    n, p = d
    # k is the first top strand that is not vertical; if strands 1..n-1 all
    # are, strand n is too and d is the identity
    for k in range(1, n):
        if p[k - 1] != n + k - 1:
            break
    else:
        return None
    if p == s_diagram(k, n).pairing:
        return False, k
    if p == sbar_diagram(k, n).pairing:
        return True, k
    return None


def _swap(d: BrauerDiagram, u: int) -> BrauerDiagram:
    """d with vertices u and u + 1 exchanged: d * s_k on the bottom row, s_k * d
    on the top row."""
    p = d.pairing
    w = u + 1
    x, y = p[u], p[w]
    if x == w:
        return d
    q = list(p)
    q[u], q[w], q[x], q[y] = y, x, w, u
    return _tuple_new(BrauerDiagram, (d.n, tuple(q)))


def _cap(d: BrauerDiagram, u: int) -> tuple[BrauerDiagram, int]:
    """d with vertices u and u + 1 capped, and its loop count: d * sbar_k on
    the bottom row, sbar_k * d on the top row."""
    p = d.pairing
    w = u + 1
    x, y = p[u], p[w]
    if x == w:
        return d, 1
    q = list(p)
    q[x], q[y], q[u], q[w] = y, x, w, u
    return _tuple_new(BrauerDiagram, (d.n, tuple(q))), 0


def _generator_product(e: AlgebraElement, g: tuple[bool, int], c: NPoly, left: bool) -> AlgebraElement:
    """c g e if left, else e g c, for g = (bar, k): one local rewrite per term
    of e, on the row of e that g touches."""
    n = e.n
    bar, k = g
    u = k - 1 if left else n + k - 1
    if not bar:
        # d -> d s_k is a bijection with no loops: each image is one term
        if c.coeffs == {0: 1}:
            return AlgebraElement._trusted(n, {_swap(d, u): x for d, x in e.terms.items()})
        return AlgebraElement._trusted(n, {_swap(d, u): x * c for d, x in e.terms.items()})
    m = c.coeffs
    raw: dict[BrauerDiagram, dict] = {}
    for d, x in e.terms.items():
        d2, loops = _cap(d, u)
        acc = raw.get(d2)
        if acc is None:
            acc = raw[d2] = {}
        _mul_into(acc, x.coeffs, m, loops)
    return AlgebraElement._trusted(n, {d: NPoly._trusted(acc) for d, acc in raw.items() if acc})


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product; each loop contributes N."""
    a._check_compatible(b)
    n = a.n
    # a one-term factor that is a generator takes the local rule
    if len(b.terms) == 1:
        ((d, c),) = b.terms.items()
        g = _generator_of(d)
        if g is not None:
            return _generator_product(a, g, c, False)
    if len(a.terms) == 1:
        ((d, c),) = a.terms.items()
        g = _generator_of(d)
        if g is not None:
            return _generator_product(b, g, c, True)
    left, da = _numerators(a)
    right, db = _numerators(b)
    right = [(d2.pairing, m2) for d2, m2 in right]
    compose_pair = _compose_cached if n <= COMPOSE_MEMO_MAX_N else _kernel.compose_pairings
    # one raw coefficient map per output pairing; each diagram is made once, at the end
    raw: dict[tuple[int, ...], dict] = {}
    for d1, m1 in left:
        p1 = d1.pairing
        for p2, m2 in right:
            p, loops = compose_pair(p1, p2, n)
            acc = raw.get(p)
            if acc is None:
                acc = raw[p] = {}
            _mul_into(acc, m1, m2, loops)
    if (den := da * db) > 1:
        for m in raw.values():
            for e, x in m.items():
                m[e] = x // den if x % den == 0 else Fraction(x, den)
    return AlgebraElement._trusted(n, {_tuple_new(BrauerDiagram, (n, p)): NPoly._trusted(m) for p, m in raw.items() if m})


def _numerators(e: AlgebraElement) -> tuple[Iterator, int]:
    """e's terms with their coefficient maps scaled to ints, one map at a
    time, by the lcm of e's denominators; and that lcm."""
    den = lcm(*{x.denominator for c in e.terms.values() for x in c.coeffs.values()})
    if den == 1:
        return ((d, c.coeffs) for d, c in e.terms.items()), 1
    return ((d, {k: x.numerator * (den // x.denominator) for k, x in c.coeffs.items()}) for d, c in e.terms.items()), den


def s_elem(k: int, n: int) -> AlgebraElement:
    return AlgebraElement.from_diagram(s_diagram(k, n))


def sbar_elem(k: int, n: int) -> AlgebraElement:
    return AlgebraElement.from_diagram(sbar_diagram(k, n))


# ---------------------------------------------------------------------------
# Jucys-Murphy elements and the conditional expectation


@lru_cache(maxsize=32)
def jucys_murphy(k: int, n: int) -> AlgebraElement:
    """x_k = (N-1)/2 + sum_{l<k} [(k,l) - bar(k,l)], embedded in B(n, N)."""
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range for B({n})")
    terms: dict[BrauerDiagram, NPoly] = {BrauerDiagram.identity(n): n_minus_1_half()}
    one = NPoly.one()
    for l in range(1, k):
        terms[transposition(l, k, n)] = one
        terms[bar_transposition(l, k, n)] = -one
    return AlgebraElement(n, terms)


def partial_closure(b: AlgebraElement) -> AlgebraElement:
    """The conditional expectation B(k) -> B(k-1) with k = b.n: close strand k.

    Joining top k to bottom k-bar of each diagram either creates a loop
    (factor N) or joins the partners of the two vertices; then both vertices
    are dropped.  The map commutes with multiplication by B(k-1) on both
    sides.
    """
    k = b.n
    if k < 1:
        raise ValueError("nothing to close")
    top, bottom = k - 1, 2 * k - 1
    out: dict[BrauerDiagram, NPoly] = {}
    for d, c in b.terms.items():
        p = list(d.pairing)
        a, z = p[top], p[bottom]
        if a == bottom:
            c = c.shift(1)
        else:
            p[a], p[z] = z, a
        pairing = tuple(w - (w > top) for v, w in enumerate(p) if v != top and v != bottom)
        add_term(out, _tuple_new(BrauerDiagram, (k - 1, pairing)), c)
    return AlgebraElement._trusted(k - 1, out)


@lru_cache(maxsize=32)
def z_element(k: int, i: int) -> AlgebraElement:
    """The central element z_k^(i) of B(k-1, N): closure of x_k^i."""
    if k < 1 or i < 0:
        raise ValueError("bad z-element indices")
    x = jucys_murphy(k, k)
    return partial_closure(x.power(i))


# ---------------------------------------------------------------------------
# factorization into generators


def perm_word(p: tuple[int, ...]) -> list[int]:
    """Reduced word for a permutation (0-based one-line form).

    Returns 1-based adjacent-transposition indices k1..kL such that the
    diagram chain s_{k1} ... s_{kL} composes to the permutation diagram.
    """
    arr = list(p)
    swaps: list[int] = []
    while (descent := next((i for i in range(len(arr) - 1) if arr[i] > arr[i + 1]), None)) is not None:
        arr[descent], arr[descent + 1] = arr[descent + 1], arr[descent]
        swaps.append(descent + 1)
    return list(reversed(swaps))


@lru_cache(maxsize=1 << 16)
def factor_diagram(d: BrauerDiagram) -> tuple[tuple[str, int], ...]:
    """Factor a diagram into generator tokens ("s", k) / ("sbar", k).

    Uses the three-layer form (permutation) * (sbar_1 sbar_3 ...) *
    (permutation), which composes back to the diagram with no loops and
    routes every through strand past the middle layer on an untouched
    position.  The chain is verified before being returned.
    """
    n = d.n
    tops = d.top_edges()
    bottoms = d.bottom_edges()
    throughs = d.through_edges()
    r = len(tops)
    sigma = [-1] * n
    tau_inv = [-1] * n
    for t, (a, b) in enumerate(tops):
        sigma[2 * t], sigma[2 * t + 1] = a - 1, b - 1
    for t, (c, e) in enumerate(bottoms):
        tau_inv[2 * t], tau_inv[2 * t + 1] = c - 1, e - 1
    for s, (p, q) in enumerate(throughs):
        sigma[2 * r + s], tau_inv[2 * r + s] = p - 1, q - 1
    tau = [-1] * n
    for i, v in enumerate(tau_inv):
        tau[v] = i
    word: list[tuple[str, int]] = [("s", k) for k in perm_word(tuple(sigma))]
    word += [("sbar", 2 * t + 1) for t in range(r)]
    word += [("s", k) for k in perm_word(tuple(tau))]
    check, loops = compose_chain([_token_diagram(tok, n) for tok in word], n)
    if check != d or loops:
        raise AssertionError(f"factorization failed for {d}")
    return tuple(word)


def _token_diagram(token: tuple[str, int], n: int) -> BrauerDiagram:
    kind, k = token
    return s_diagram(k, n) if kind == "s" else sbar_diagram(k, n)


# ---------------------------------------------------------------------------
# presentations


Word = tuple[tuple[str, int], ...]
Side = list[tuple[int | NPoly, Word]]
Relation = tuple[str, Side, Side]


def presentation_relations(n: int) -> Iterator[Relation]:
    """All generator-indexed instances of the defining relations of B(n, N).

    Each side is a list of (coefficient, word) pairs, words over tokens
    ("s", k) and ("sbar", k); the empty word is the identity.  A coefficient
    is the int 1 or -1, except the N of bar-square, an NPoly.  This table and
    `jm_relations` are the one copy of the relations that every check reads.
    Both are generated, one relation at a time: a check takes each as it
    comes, so no check holds the table, which grows as n^2.
    """
    N = NPoly.N()
    for k in range(1, n):
        s, sb = ("s", k), ("sbar", k)
        yield (f"involution k={k}", [(1, (s, s))], [(1, ())])
        yield (f"bar-square k={k}", [(1, (sb, sb))], [(N, (sb,))])
        yield (f"absorb-left k={k}", [(1, (s, sb))], [(1, (sb,))])
        yield (f"absorb-right k={k}", [(1, (sb, s))], [(1, (sb,))])
    for k in range(1, n - 1):
        s, s1 = ("s", k), ("s", k + 1)
        sb, sb1 = ("sbar", k), ("sbar", k + 1)
        yield (f"braid k={k}", [(1, (s, s1, s))], [(1, (s1, s, s1))])
        yield (f"bar-contract-up k={k}", [(1, (sb, sb1, sb))], [(1, (sb,))])
        yield (f"bar-contract-down k={k}", [(1, (sb1, sb, sb1))], [(1, (sb1,))])
        yield (f"slide-a k={k}", [(1, (s, sb1, sb))], [(1, (s1, sb))])
        yield (f"slide-b k={k}", [(1, (sb1, sb, s1))], [(1, (sb1, s))])
    for k in range(1, n):
        for l in range(k + 2, n):
            s, t = ("s", k), ("s", l)
            sb, tb = ("sbar", k), ("sbar", l)
            yield (f"commute-ss k={k} l={l}", [(1, (s, t))], [(1, (t, s))])
            yield (f"commute-bar-s k={k} l={l}", [(1, (sb, t))], [(1, (t, sb))])
            yield (f"commute-bar-bar k={k} l={l}", [(1, (sb, tb))], [(1, (tb, sb))])


def jm_relations(n: int) -> Iterator[Relation]:
    """Instances of the mixed relations between generators and the x_k, in
    the format of `presentation_relations`; read with x_k as y_k, they are
    relations of the affine algebra."""
    for k in range(1, n):
        s, sb = ("s", k), ("sbar", k)
        xk, xk1 = ("x", k), ("x", k + 1)
        for l in range(1, n + 1):
            if l in (k, k + 1):
                continue
            xl = ("x", l)
            yield (f"x-commute-s k={k} l={l}", [(1, (s, xl))], [(1, (xl, s))])
            yield (f"x-commute-bar k={k} l={l}", [(1, (sb, xl))], [(1, (xl, sb))])
        yield (f"x-cross-a k={k}", [(1, (s, xk)), (-1, (xk1, s))], [(1, (sb,)), (-1, ())])
        yield (f"x-cross-b k={k}", [(1, (s, xk1)), (-1, (xk, s))], [(1, ()), (-1, (sb,))])
        yield (f"x-kill-left k={k}", [(1, (sb, xk)), (1, (sb, xk1))], [])
        yield (f"x-kill-right k={k}", [(1, (xk, sb)), (1, (xk1, sb))], [])


def relation_count(n: int) -> int:
    """How many relations `presentation_relations(n)` and `jm_relations(n)`
    yield together, about 3.5 n^2, counted without generating them."""
    if n < 2:
        return 0
    return 4 * (n - 1) + 5 * (n - 2) + 3 * (n - 2) * (n - 3) // 2 + 2 * n * (n - 1)


def generator_element(token: tuple[str, int], n: int) -> AlgebraElement:
    kind, k = token
    if kind == "s":
        return s_elem(k, n)
    if kind == "sbar":
        return sbar_elem(k, n)
    if kind == "x":
        return jucys_murphy(k, n)
    raise ValueError(f"unknown generator token {token}")


def evaluate_side(side: Side, n: int) -> AlgebraElement:
    """The sum of c * (product of the word's generators) over a side's terms."""
    total: dict[BrauerDiagram, NPoly] = {}
    for coeff, word in side:
        acc = AlgebraElement.one(n)
        for token in word:
            acc = multiply(acc, generator_element(token, n))
        for d, x in acc.terms.items():
            add_term(total, d, x * coeff)
    return AlgebraElement._trusted(n, total)


def _report(n: int, relations: Iterable[Relation], extra: Iterable[tuple[str, bool]] = ()) -> dict:
    """Check each relation of a table with N symbolic, then take each
    (name, ok) of `extra` as it comes, into one report."""
    results = [{"relation": name, "ok": evaluate_side(lhs, n) == evaluate_side(rhs, n)} for name, lhs, rhs in relations]
    results += [{"relation": name, "ok": ok} for name, ok in extra]
    return {"n": n, "checked": len(results), "all_ok": all(r["ok"] for r in results), "results": results}


def verify_presentation(n: int, max_cases: int | None = None) -> dict:
    """Check every instance of the defining relations with N symbolic."""
    if n < 2:
        raise ValueError("need n >= 2 for generators")
    if max_cases is not None and max_cases < 0:
        raise ValueError(f"max_cases must be at least 0, got {max_cases}")
    return _report(n, islice(presentation_relations(n), max_cases))


def verify_jm_relations(n: int) -> dict:
    """Check every instance of `jm_relations(n)`, then that the x_i commute
    pairwise; those stay out of the table, which every representation checks."""
    xs = [jucys_murphy(k, n) for k in range(1, n + 1)]
    commute = ((f"x-pairwise-commute x{i + 1} x{j + 1}", multiply(xs[i], xs[j]) == multiply(xs[j], xs[i]))
               for i in range(n) for j in range(i + 1, n))
    return _report(n, jm_relations(n), commute)


# ---------------------------------------------------------------------------
# JSON forms


def _vertex_label(v: int, n: int) -> str:
    return str(v + 1) if v < n else f"{v - n + 1}b"


def diagram_to_json(d: BrauerDiagram) -> dict:
    return {"n": d.n, "edges": [[_vertex_label(v, d.n), _vertex_label(w, d.n)] for v, w in d.edges()]}


def element_to_json(e: AlgebraElement) -> list[dict]:
    return [{"coeff": e.terms[d].to_string(), "diagram": diagram_to_json(d)} for d in sorted(e.terms)]
