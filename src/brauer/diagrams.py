"""The Brauer algebra B(n, N) on its diagram basis.

A basis diagram is a perfect matching of 2n points: strands 1..n appear twice,
as a top row and a bottom row.  Vertices are numbered 0..2n-1 with top strand
k at vertex k-1 and bottom strand k at vertex n+k-1.  The matching is stored
as a fixed-point-free involution ``pairing`` of 0..2n-1.

Products follow the diagram calculus: stack the left factor on top of the
right one, contract, and pick up one factor of the formal parameter N per
closed loop.  Algebra elements carry NPoly coefficients so every identity in
this module can be checked with N symbolic.

The composition inner loop lives in the pure-Python module ``_kernel`` and is
always called as ``_kernel.compose_pairings``, so a profiler can wrap it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import _kernel
from .coeffs import Combination, NPoly, add_term, n_minus_1_half

KERNEL_BACKEND = "python"  # the only backend; benchmark reports print it


@dataclass(frozen=True)
class BrauerDiagram:
    """A perfect matching on 2n labelled vertices."""

    n: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        p = self.pairing
        if len(p) != 2 * self.n:
            raise ValueError("pairing length must be 2n")
        for v, w in enumerate(p):
            if w == v or not 0 <= w < 2 * self.n or p[w] != v:
                raise ValueError(f"not a fixed-point-free involution: {p}")

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

    def sort_key(self) -> tuple:
        return self.pairing

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

    def has_vertical(self, k: int) -> bool:
        """True if strand k (1-based) is the straight edge {k, k-bar}."""
        return self.pairing[k - 1] == self.n + k - 1

    def embed(self, n2: int) -> BrauerDiagram:
        """Include B(n) into B(n2) by appending vertical strands."""
        n = self.n
        if n2 < n:
            raise ValueError("cannot embed into a smaller algebra")
        pairing = [-1] * (2 * n2)
        shift = lambda v: v if v < n else v + (n2 - n)
        for v, w in self.edges():
            a, b = shift(v), shift(w)
            pairing[a], pairing[b] = b, a
        for t in range(n, n2):
            pairing[t], pairing[n2 + t] = n2 + t, t
        return BrauerDiagram(n2, tuple(pairing))

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


def _trusted_diagram(n: int, pairing: tuple[int, ...]) -> BrauerDiagram:
    """Construct without re-validating; for kernel output only."""
    d = object.__new__(BrauerDiagram)
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "pairing", pairing)
    return d


@lru_cache(maxsize=1 << 18)
def _compose_cached(p1: tuple[int, ...], p2: tuple[int, ...], n: int) -> tuple[BrauerDiagram, int]:
    pairing, loops = _kernel.compose_pairings(p1, p2, n)
    return _trusted_diagram(n, pairing), loops


def compose(g: BrauerDiagram, g2: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Diagram product: returns (reduced matching, number of removed loops)."""
    if g.n != g2.n:
        raise ValueError(f"size mismatch: {g.n} vs {g2.n}")
    return _compose_cached(g.pairing, g2.pairing, g.n)


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
        pairing[p[i]] = n + i
        pairing[n + i] = p[i]
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
    d = BrauerDiagram.identity(n)
    pairing = list(d.pairing)
    a, b = k - 1, l - 1
    pairing[a], pairing[b] = b, a
    pairing[n + a], pairing[n + b] = n + b, n + a
    return BrauerDiagram(n, tuple(pairing))


def s_diagram(k: int, n: int) -> BrauerDiagram:
    return transposition(k, k + 1, n)


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
        return AlgebraElement(n2, {d.embed(n2): c for d, c in self.terms.items()})

    def power(self, k: int) -> AlgebraElement:
        # repeated multiplication in the diagram basis; desk-scale sizes
        result = AlgebraElement.one(self.n)
        for _ in range(k):
            result = multiply(result, self)
        return result

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for d in sorted(self.terms, key=BrauerDiagram.sort_key):
            bits.append(f"({self.terms[d].to_string()})*{list(d.edges())}")
        return " + ".join(bits)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product; each loop contributes N."""
    a._check_compatible(b)
    n_sym = NPoly.N()
    out: dict[BrauerDiagram, NPoly] = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            d, loops = compose(d1, d2)
            c = c1 * c2
            if loops:
                c = c * n_sym**loops
            add_term(out, d, c)
    return AlgebraElement._trusted(a.n, out)


def s_elem(k: int, n: int) -> AlgebraElement:
    return AlgebraElement.from_diagram(s_diagram(k, n))


def sbar_elem(k: int, n: int) -> AlgebraElement:
    return AlgebraElement.from_diagram(sbar_diagram(k, n))


# ---------------------------------------------------------------------------
# Jucys-Murphy elements and the conditional expectation


@lru_cache(maxsize=None)
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


def restrict(b: AlgebraElement, m: int) -> AlgebraElement:
    """View an element of B(n) supported on B(m) as an element of B(m)."""
    n = b.n
    if m > n:
        raise ValueError("restriction target larger than source")
    out: dict[BrauerDiagram, NPoly] = {}
    for d, c in b.terms.items():
        for t in range(m + 1, n + 1):
            if not d.has_vertical(t):
                raise ValueError(f"element not supported in B({m}); strand {t} is not vertical")
        pairing = [-1] * (2 * m)
        relabel = lambda v: v if v < m else v - (n - m)
        for v, w in d.edges():
            if v < m or v >= n:
                a, bb = relabel(v), relabel(w)
                pairing[a], pairing[bb] = bb, a
        out[BrauerDiagram(m, tuple(pairing))] = c
    return AlgebraElement(m, out)


def partial_closure(b: AlgebraElement, k: int | None = None) -> AlgebraElement:
    """The conditional expectation B(k) -> B(k-1): close strand k.

    Joining top k to bottom k-bar of each diagram either creates a loop
    (factor N) or reroutes one edge; the map commutes with multiplication by
    B(k-1) on both sides.  An element of a larger algebra is accepted when
    it is supported in the embedded B(k) (vertical strands beyond k).
    """
    if k is not None and k != b.n:
        b = restrict(b, k)
    k = b.n
    if k < 1:
        raise ValueError("nothing to close")
    n_sym = NPoly.N()
    out: dict[BrauerDiagram, NPoly] = {}
    for d, c in b.terms.items():
        top, bottom = k - 1, 2 * k - 1
        relabel = lambda v: v if v < k - 1 else v - 1
        pairing = [-1] * (2 * (k - 1))
        if d.pairing[top] == bottom:
            coeff = c * n_sym
            for v, w in d.edges():
                if v == top:
                    continue
                a, bb = relabel(v), relabel(w)
                pairing[a], pairing[bb] = bb, a
        else:
            coeff = c
            a0, b0 = d.pairing[top], d.pairing[bottom]
            for v, w in d.edges():
                if top in (v, w) or bottom in (v, w):
                    continue
                a, bb = relabel(v), relabel(w)
                pairing[a], pairing[bb] = bb, a
            a, bb = relabel(a0), relabel(b0)
            pairing[a], pairing[bb] = bb, a
        add_term(out, BrauerDiagram(k - 1, tuple(pairing)), coeff)
    return AlgebraElement._trusted(k - 1, out)


@lru_cache(maxsize=None)
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
    while True:
        descent = next((i for i in range(len(arr) - 1) if arr[i] > arr[i + 1]), None)
        if descent is None:
            break
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
Side = list[tuple[NPoly, Word]]


def presentation_relations(n: int) -> list[tuple[str, Side, Side]]:
    """All generator-indexed instances of the defining relations of B(n, N).

    Each side is a list of (coefficient, word) pairs, words over tokens
    ("s", k) and ("sbar", k); the empty word is the identity.
    """
    one = NPoly.one()
    N = NPoly.N()
    rels: list[tuple[str, Side, Side]] = []
    for k in range(1, n):
        s, sb = ("s", k), ("sbar", k)
        rels.append((f"involution k={k}", [(one, (s, s))], [(one, ())]))
        rels.append((f"bar-square k={k}", [(one, (sb, sb))], [(N, (sb,))]))
        rels.append((f"absorb-left k={k}", [(one, (s, sb))], [(one, (sb,))]))
        rels.append((f"absorb-right k={k}", [(one, (sb, s))], [(one, (sb,))]))
    for k in range(1, n - 1):
        s, s1 = ("s", k), ("s", k + 1)
        sb, sb1 = ("sbar", k), ("sbar", k + 1)
        rels.append((f"braid k={k}", [(one, (s, s1, s))], [(one, (s1, s, s1))]))
        rels.append((f"bar-contract-up k={k}", [(one, (sb, sb1, sb))], [(one, (sb,))]))
        rels.append((f"bar-contract-down k={k}", [(one, (sb1, sb, sb1))], [(one, (sb1,))]))
        rels.append((f"slide-a k={k}", [(one, (s, sb1, sb))], [(one, (s1, sb))]))
        rels.append((f"slide-b k={k}", [(one, (sb1, sb, s1))], [(one, (sb1, s))]))
    for k in range(1, n):
        for l in range(k + 2, n):
            s, t = ("s", k), ("s", l)
            sb, tb = ("sbar", k), ("sbar", l)
            rels.append((f"commute-ss k={k} l={l}", [(one, (s, t))], [(one, (t, s))]))
            rels.append((f"commute-bar-s k={k} l={l}", [(one, (sb, t))], [(one, (t, sb))]))
            rels.append((f"commute-bar-bar k={k} l={l}", [(one, (sb, tb))], [(one, (tb, sb))]))
    return rels


def jm_relations(n: int) -> list[tuple[str, Side, Side]]:
    """Instances of the mixed relations between generators and the x_k."""
    one = NPoly.one()
    rels: list[tuple[str, Side, Side]] = []
    for k in range(1, n):
        s, sb = ("s", k), ("sbar", k)
        xk, xk1 = ("x", k), ("x", k + 1)
        for l in range(1, n + 1):
            if l in (k, k + 1):
                continue
            xl = ("x", l)
            rels.append((f"x-commute-s k={k} l={l}", [(one, (s, xl))], [(one, (xl, s))]))
            rels.append((f"x-commute-bar k={k} l={l}", [(one, (sb, xl))], [(one, (xl, sb))]))
        rels.append(
            (f"x-cross-a k={k}", [(one, (s, xk)), (-one, (xk1, s))], [(one, (sb,)), (-one, ())])
        )
        rels.append(
            (f"x-cross-b k={k}", [(one, (s, xk1)), (-one, (xk, s))], [(one, ()), (-one, (sb,))])
        )
        rels.append((f"x-kill-left k={k}", [(one, (sb, xk)), (one, (sb, xk1))], []))
        rels.append((f"x-kill-right k={k}", [(one, (xk, sb)), (one, (xk1, sb))], []))
    return rels


def generator_element(token: tuple[str, int], n: int) -> AlgebraElement:
    kind, k = token
    if kind == "s":
        return s_elem(k, n)
    if kind == "sbar":
        return sbar_elem(k, n)
    if kind == "x":
        return jucys_murphy(k, n)
    raise ValueError(f"unknown generator token {token}")


def evaluate_side(side: Side, n: int, product: Callable | None = None) -> AlgebraElement:
    product = product or multiply
    total = AlgebraElement.zero(n)
    for coeff, word in side:
        acc = AlgebraElement.one(n)
        for token in word:
            acc = product(acc, generator_element(token, n))
        total = total + acc.scale(coeff)
    return total


def verify_presentation(n: int, max_cases: int | None = None, product: Callable | None = None) -> dict:
    """Check every instance of the defining relations with N symbolic."""
    if n < 2:
        raise ValueError("need n >= 2 for generators")
    results = []
    for name, lhs, rhs in presentation_relations(n)[:max_cases]:
        ok = evaluate_side(lhs, n, product) == evaluate_side(rhs, n, product)
        results.append({"relation": name, "ok": ok})
    return {"n": n, "checked": len(results), "all_ok": all(r["ok"] for r in results), "results": results}


def verify_jm_relations(n: int) -> dict:
    results = []
    for name, lhs, rhs in jm_relations(n):
        ok = evaluate_side(lhs, n) == evaluate_side(rhs, n)
        results.append({"relation": name, "ok": ok})
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi, xj = jucys_murphy(i, n), jucys_murphy(j, n)
            ok = multiply(xi, xj) == multiply(xj, xi)
            results.append({"relation": f"x-pairwise-commute x{i} x{j}", "ok": ok})
    return {"n": n, "checked": len(results), "all_ok": all(r["ok"] for r in results), "results": results}


# ---------------------------------------------------------------------------
# JSON forms


def _vertex_label(v: int, n: int) -> str:
    return str(v + 1) if v < n else f"{v - n + 1}b"


def _vertex_from_label(label: str, n: int) -> int:
    if label.endswith("b"):
        return n + int(label[:-1]) - 1
    return int(label) - 1


def diagram_to_json(d: BrauerDiagram) -> dict:
    return {
        "n": d.n,
        "edges": [[_vertex_label(v, d.n), _vertex_label(w, d.n)] for v, w in d.edges()],
    }


def diagram_from_json(data: dict) -> BrauerDiagram:
    n = data["n"]
    edges = [(_vertex_from_label(a, n), _vertex_from_label(b, n)) for a, b in data["edges"]]
    return BrauerDiagram.from_edges(n, edges)


def element_to_json(e: AlgebraElement) -> list[dict]:
    out = []
    for d in sorted(e.terms, key=BrauerDiagram.sort_key):
        out.append({"coeff": e.terms[d].to_string(), "diagram": diagram_to_json(d)})
    return out


def element_from_json(data: list[dict], n: int) -> AlgebraElement:
    terms: dict[BrauerDiagram, NPoly] = {}
    for item in data:
        d = diagram_from_json(item["diagram"])
        terms[d] = NPoly.from_string(item["coeff"])
    return AlgebraElement(n, terms)
