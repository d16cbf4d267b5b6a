"""Brute-force oracle: the diagram algebra acting on tensor space.

For integer N the algebra acts on the n-th tensor power of an N-dimensional
space: transpositions permute factors, bar elements contract-and-expand
(Kronecker delta in, full sum out).  A general diagram acts by the delta
product over its edges: top vertices read the output multi-index, bottom
vertices the input one.

Everything here is exact, and the action is defined once: `_entry_indices`
lists the (output, input) index pairs of the ones in a diagram's 0/1 matrix
by numpy index arithmetic.  `apply_diagram` sums Fraction amplitudes of a
`TensorVector` along those pairs; the homomorphism sweeps use the same pairs
as scipy sparse int64 matrices (entries are 0/1 and products stay far below
2^63, so this is exact integer arithmetic).  numpy and scipy are required;
there is no Fraction fallback for the sweeps.  `centralizer_rank` reads the
same index arrays and eliminates exactly over Q with Fraction.
"""

from __future__ import annotations

import itertools
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
    """
    n = g.n
    stride = [N ** (n - 1 - p) for p in range(n)]
    w_out, w_in = [], []
    for t, b in g.through_edges():
        w_out.append(stride[t - 1])
        w_in.append(stride[b - 1])
    for a, b in g.top_edges():
        w_out.append(stride[a - 1] + stride[b - 1])
        w_in.append(0)
    for a, b in g.bottom_edges():
        w_out.append(0)
        w_in.append(stride[a - 1] + stride[b - 1])
    labels = np.indices((N,) * len(w_out), dtype=np.int64).reshape(len(w_out), -1)
    return np.array(w_out, dtype=np.int64) @ labels, np.array(w_in, dtype=np.int64) @ labels


@lru_cache(maxsize=4096)
def diagram_matrix(g: BrauerDiagram, N: int):
    """scipy CSR int64 matrix of the diagram action (exact integers)."""
    dim = N**g.n
    rows, cols = _entry_indices(g, N)
    data = np.ones(len(rows), dtype=np.int64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim), dtype=np.int64)


@lru_cache(maxsize=1024)
def _action_pairs(g: BrauerDiagram, N: int) -> tuple[tuple[int, int], ...]:
    """The (output, input) pairs of `_entry_indices` as plain ints."""
    out, inp = _entry_indices(g, N)
    return tuple(zip(out.tolist(), inp.tolist()))


def apply_diagram(g: BrauerDiagram, N: int, v: TensorVector) -> TensorVector:
    """g acting on v: each one (o, i) of g's 0/1 matrix adds v[i] to out[o]."""
    if (v.n, v.N) != (g.n, N):
        raise ValueError("vector shape does not match the diagram")
    amps = v.amps
    out = [Fraction(0)] * len(amps)
    for o, i in _action_pairs(g, N):
        a = amps[i]
        if a:
            out[o] += a
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
    """act(g1) . act(g2) == N^q act(g1 o g2), exactly."""
    prod, loops = compose(g1, g2)
    diff = diagram_matrix(g1, N) @ diagram_matrix(g2, N) - N**loops * diagram_matrix(prod, N)
    return not diff.data.any()


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
    """Rank over Q of the span of the diagram actions, by exact elimination."""
    dim = N**n
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for g in all_diagrams(n):
        out, inp = _entry_indices(g, N)
        row = {key: Fraction(1) for key in (out * dim + inp).tolist()}
        # eliminate against existing pivots
        while row:
            lead = min(row)
            if lead in pivots:
                pivot_row = pivots[lead]
                factor = row[lead] / pivot_row[lead]
                for k, v in pivot_row.items():
                    add_term(row, k, -factor * v)
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def _asym_generator_action(i: int, j: int, v: TensorVector) -> TensorVector:
    """(E_ij - E_ji) acting as a derivation across the tensor factors."""
    n, N = v.n, v.N
    out = TensorVector.zero(n, N)
    for idx, a in enumerate(v.amps):
        if not a:
            continue
        t = index_to_tuple(idx, n, N)
        for pos in range(n):
            if t[pos] == j:
                s = t[:pos] + (i,) + t[pos + 1 :]
                out.amps[tuple_to_index(s, N)] += a
            if t[pos] == i:
                s = t[:pos] + (j,) + t[pos + 1 :]
                out.amps[tuple_to_index(s, N)] -= a
    return out


def casimir_apply(v: TensorVector) -> TensorVector:
    """-(1/4) sum_{i,j} (E_ij - E_ji)^2 acting on the tensor power."""
    N = v.N
    out = TensorVector.zero(v.n, v.N)
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            out = out + _asym_generator_action(i, j, _asym_generator_action(i, j, v))
    return out.scale(Fraction(-1, 4))


def jm_sum_apply(v: TensorVector) -> TensorVector:
    """x_1 + ... + x_n through the diagram action."""
    n, N = v.n, v.N
    out = v.scale(Fraction(n * (N - 1), 2))
    for k in range(2, n + 1):
        for l in range(1, k):
            out = out + apply_diagram(transposition(l, k, n), N, v)
            out = out - apply_diagram(bar_transposition(l, k, n), N, v)
    return out


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
