"""Brute-force oracle: the diagram algebra acting on tensor space.

For integer N the algebra acts on the n-th tensor power of an N-dimensional
space: transpositions permute factors, bar elements contract-and-expand
(Kronecker delta in, full sum out).  A general diagram acts by the delta
product over its edges: top vertices read the output multi-index, bottom
vertices the input one.

Everything here is exact, and the action is defined once: `_entry_indices`
lists the (output, input) index pairs of the ones in a diagram's 0/1 matrix
by numpy index arithmetic, already in canonical CSR order (outputs
ascending, inputs ascending within each output, no duplicates).
`apply_diagram` sums Fraction amplitudes of a `TensorVector` along those
pairs; `diagram_matrix` wraps the same pairs as a scipy CSR int64 matrix
without a COO step or a sort (entries are 0/1 and products stay far below
2^63, so this is exact integer arithmetic).  The homomorphism sweep compares
the structure of a product with that of the composite's matrix.  numpy and
scipy are required; there is no Fraction fallback for the sweeps.
`centralizer_rank` reads the same index arrays and eliminates integer rows,
which gives the rank over Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import shapes
from .coeffs import add_term
from .diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    bar_transposition,
    compose,
    jucys_murphy,
    random_diagram,
    sbar_diagram,
    s_diagram,
    transposition,
)
from .repform import jm_eigenvalue


def tuple_to_index(t: tuple[int, ...], N: int) -> int:
    """Mixed-radix flattening, most significant digit first; digits 0..N-1."""
    idx = 0
    for d in t:
        idx = idx * N + d
    return idx


def index_to_tuple(idx: int, n: int, N: int) -> tuple[int, ...]:
    out = [0] * n
    for pos in range(n - 1, -1, -1):
        out[pos] = idx % N
        idx //= N
    return tuple(out)


@dataclass
class TensorVector:
    n: int
    N: int
    amps: list[Fraction]

    @staticmethod
    def zero(n: int, N: int) -> TensorVector:
        return TensorVector(n, N, [Fraction(0)] * N**n)

    @staticmethod
    def basis_vector(t: tuple[int, ...], N: int) -> TensorVector:
        v = TensorVector.zero(len(t), N)
        v.amps[tuple_to_index(t, N)] = Fraction(1)
        return v

    @staticmethod
    def random(n: int, N: int, rng) -> TensorVector:
        return TensorVector(n, N, [Fraction(rng.randint(-4, 4)) for _ in range(N**n)])

    def _same_shape(self, other: TensorVector) -> None:
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("vector shapes do not match")

    def __add__(self, other: TensorVector) -> TensorVector:
        self._same_shape(other)
        return TensorVector(self.n, self.N, [a + b for a, b in zip(self.amps, other.amps)])

    def __sub__(self, other: TensorVector) -> TensorVector:
        self._same_shape(other)
        return TensorVector(self.n, self.N, [a - b for a, b in zip(self.amps, other.amps)])

    def scale(self, c: Fraction) -> TensorVector:
        return TensorVector(self.n, self.N, [a * c for a in self.amps])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.amps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorVector)
            and (self.n, self.N) == (other.n, other.N)
            and self.amps == other.amps
        )


# ---------------------------------------------------------------------------
# the action: one list of index pairs per diagram


def _entry_indices(g: BrauerDiagram, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Output and input indices of the ones in the 0/1 action matrix of g.

    Each edge carries one free label in 0..N-1.  A label adds its value times
    a weight to the output index and times another weight to the input
    index, with stride[p] = N**(n-1-p): a through edge (t, b) has weights
    stride[t] and stride[b], a top edge (a, b) has stride[a] + stride[b] and
    0, a bottom edge 0 and stride[a] + stride[b].  Distinct label
    assignments give distinct (out, in) pairs, so there are exactly N**n.

    The label axes are ordered so that `np.indices` lists the pairs in
    canonical CSR order: through and top edges first, by their leftmost top
    vertex, then bottom edges, by their leftmost bottom vertex.  Every top
    position takes the label of one edge of the first group, so the output
    digits read left to right are those labels in axis order and the outputs
    ascend; for a fixed output the inputs ascend the same way with the
    bottom edges' labels.
    """
    n, pairing = g.n, g.pairing
    stride = [N ** (n - 1 - p) for p in range(n)]
    w_out, w_in = [], []
    for v in range(n):
        w = pairing[v]
        if w >= n:  # through edge
            w_out.append(stride[v])
            w_in.append(stride[w - n])
        elif w > v:  # top edge
            w_out.append(stride[v] + stride[w])
            w_in.append(0)
    for v in range(n, 2 * n):
        w = pairing[v]
        if w > v:  # bottom edge
            w_out.append(0)
            w_in.append(stride[v - n] + stride[w - n])
    labels = np.indices((N,) * n, dtype=np.int64).reshape(n, -1)
    return np.array(w_out, dtype=np.int64) @ labels, np.array(w_in, dtype=np.int64) @ labels


# One (n, N) point of the homomorphism sweep uses far fewer matrices than
# this, and a sweep never returns to an earlier point, so a larger memo only
# holds dead matrices.
@lru_cache(maxsize=1 << 10)
def diagram_matrix(g: BrauerDiagram, N: int):
    """scipy CSR int64 matrix of the diagram action (exact integers).

    `_entry_indices` lists the ones in canonical CSR order, so the row
    pointers are the cumulative row counts and no COO step or sort is needed.
    """
    dim = N**g.n
    rows, cols = _entry_indices(g, N)
    # scipy's own choice for this shape and nnz = dim; given up front, it
    # spares the constructor a scan of both arrays
    idx = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    data = np.ones(dim, dtype=np.int64)
    return sparse.csr_matrix((data, cols.astype(idx), indptr), shape=(dim, dim))


@lru_cache(maxsize=1024)
def _action_pairs(g: BrauerDiagram, N: int) -> tuple[tuple[int, int], ...]:
    """The (output, input) pairs of `_entry_indices` as plain ints."""
    out, inp = _entry_indices(g, N)
    return tuple(zip(out.tolist(), inp.tolist()))


def _act_into(out: list[Fraction], g: BrauerDiagram, N: int, amps: list[Fraction], sign: int = 1) -> None:
    """out += sign * (g acting on amps): each one (o, i) of g's 0/1 matrix
    adds amps[i] to out[o]."""
    for o, i in _action_pairs(g, N):
        a = amps[i]
        if a:
            out[o] += a if sign > 0 else -a


def apply_diagram(g: BrauerDiagram, N: int, v: TensorVector) -> TensorVector:
    """g acting on v, along the ones of g's 0/1 matrix."""
    if (v.n, v.N) != (g.n, N):
        raise ValueError("vector shape does not match the diagram")
    out = [Fraction(0)] * len(v.amps)
    _act_into(out, g, N, v.amps)
    return TensorVector(g.n, N, out)


def apply_element(e: AlgebraElement, N: int, v: TensorVector) -> TensorVector:
    """An algebra element acting on v, its coefficients specialized at N."""
    out = TensorVector.zero(e.n, N)
    for d, c in e.terms.items():
        out = out + apply_diagram(d, N, v).scale(c.eval(N))
    return out


# ---------------------------------------------------------------------------
# checks


def _homomorphism_pair_ok(g1: BrauerDiagram, g2: BrauerDiagram, N: int) -> bool:
    """act(g1) . act(g2) == N^q act(g1 o g2), exactly.

    Compared by structure: the product, summed to canonical form, must have
    the composite's canonical row pointers and column indices, and every
    entry must be N^q.  Entries are positive, so a product has no cancelled
    zeros and this is the matrix identity.
    """
    prod, loops = compose(g1, g2)
    p = diagram_matrix(g1, N) @ diagram_matrix(g2, N)
    p.sum_duplicates()
    c = diagram_matrix(prod, N)
    return (
        np.array_equal(p.indptr, c.indptr)
        and np.array_equal(p.indices, c.indices)
        and bool((p.data == N**loops).all())
    )


def verify_homomorphism(n: int, N: int, trials: int, rng) -> dict:
    """Generator pairs plus random diagram pairs through the tensor action."""
    gens = []
    for k in range(1, n):
        gens.append(s_diagram(k, n))
        gens.append(sbar_diagram(k, n))
    failures = []
    for g1 in gens:
        for g2 in gens:
            if not _homomorphism_pair_ok(g1, g2, N):
                failures.append((g1, g2))
    checked = len(gens) ** 2
    for _ in range(trials):
        g1, g2 = random_diagram(n, rng), random_diagram(n, rng)
        if not _homomorphism_pair_ok(g1, g2, N):
            failures.append((g1, g2))
        checked += 1
    return {"n": n, "N": N, "checked": checked, "failures": failures, "ok": not failures}


def centralizer_rank(n: int, N: int) -> int:
    """Rank over Q of the span of the diagram actions, by integer elimination.

    Against a pivot p with lead entry a, a row r becomes a*r - r[lead]*p and
    is divided by its content (the gcd of its entries); a != 0, so the span
    over Q, hence the rank, is unchanged.
    """
    dim = N**n
    pivots: dict[int, dict[int, int]] = {}
    for g in all_diagrams(n):
        out, inp = _entry_indices(g, N)
        row = dict.fromkeys((out * dim + inp).tolist(), 1)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                add_term(row, k, -b * v)
            content = math.gcd(*row.values())
            if content > 1:
                row = {k: v // content for k, v in row.items()}
    return len(pivots)


def _asym_generator_action(i: int, j: int, amps: list[Fraction], n: int, N: int, out: list[Fraction]) -> None:
    """out += (E_ij - E_ji) acting on amps as a derivation across the tensor
    factors."""
    for idx, a in enumerate(amps):
        if not a:
            continue
        t = index_to_tuple(idx, n, N)
        for pos in range(n):
            if t[pos] == j:
                s = t[:pos] + (i,) + t[pos + 1 :]
                out[tuple_to_index(s, N)] += a
            if t[pos] == i:
                s = t[:pos] + (j,) + t[pos + 1 :]
                out[tuple_to_index(s, N)] -= a


def casimir_apply(v: TensorVector) -> TensorVector:
    """-(1/2) sum_{i<j} (E_ij - E_ji)^2 acting on the tensor power.

    This is the usual -(1/4) sum over all i != j, because
    (E_ij - E_ji)^2 = (E_ji - E_ij)^2.
    """
    n, N = v.n, v.N
    out = [Fraction(0)] * len(v.amps)
    for i in range(N):
        for j in range(i + 1, N):
            once = [Fraction(0)] * len(v.amps)
            _asym_generator_action(i, j, v.amps, n, N, once)
            _asym_generator_action(i, j, once, n, N, out)
    return TensorVector(n, N, out).scale(Fraction(-1, 2))


def jm_sum_apply(v: TensorVector) -> TensorVector:
    """x_1 + ... + x_n through the diagram action."""
    n, N = v.n, v.N
    out = v.scale(Fraction(n * (N - 1), 2)).amps
    for k in range(2, n + 1):
        for l in range(1, k):
            _act_into(out, transposition(l, k, n), N, v.amps)
            _act_into(out, bar_transposition(l, k, n), N, v.amps, sign=-1)
    return TensorVector(n, N, out)


def casimir_check(n: int, N: int, trials: int, rng) -> dict:
    """The Jucys-Murphy sum acts as the orthogonal Casimir element."""
    failures = 0
    vectors = [TensorVector.random(n, N, rng) for _ in range(trials)]
    if N**n <= 64:
        vectors += [
            TensorVector.basis_vector(t, N) for t in itertools.product(range(N), repeat=n)
        ]
    for v in vectors:
        if casimir_apply(v) != jm_sum_apply(v):
            failures += 1
    return {"n": n, "N": N, "checked": len(vectors), "ok": failures == 0}


def predicted_jm_spectrum(k: int, n: int, N: int) -> set[Fraction]:
    """All +/-((N-1)/2 + content) values reachable at level k."""
    values: set[Fraction] = set()
    for lam in shapes.enumerate_O(k, N):
        for path in shapes.enumerate_paths(lam, k, N):
            values.add(jm_eigenvalue(path, k, N))
    return values


def spectrum_annihilation_check(k: int, n: int, N: int, trials: int, rng) -> dict:
    """prod over predicted eigenvalues e of (act(x_k) - e) kills the space."""
    xk = jucys_murphy(k, n)
    values = sorted(predicted_jm_spectrum(k, n, N))
    ok = True
    for _ in range(trials):
        v = TensorVector.random(n, N, rng)
        for e in values:
            v = apply_element(xk, N, v) - v.scale(e)
        if not v.is_zero():
            ok = False
            break
    return {"k": k, "n": n, "N": N, "eigenvalues": values, "ok": ok}
