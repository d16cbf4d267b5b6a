"""Brute-force oracle: the diagram algebra acting on tensor space.

For integer N the algebra acts on the n-th tensor power of an N-dimensional
space: transpositions permute factors, bar elements contract-and-expand
(Kronecker delta in, full sum out).  A general diagram acts by the delta
product over its edges: top vertices read the output multi-index, bottom
vertices the input one.

Everything here is exact.  Vectors carry Fraction amplitudes and operators
are applied functionally (`act_diagram` is the reference action).  The big
homomorphism sweeps use scipy sparse matrices over int64, built by numpy
index arithmetic (entries are 0/1 and products stay far below 2^63, so this
is exact integer arithmetic).  numpy and scipy are required; there is no
Fraction fallback for the sweeps.  `centralizer_rank` reads the same index
arrays and eliminates exactly over Q with Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import sparse

from . import shapes
from .diagrams import (
    AlgebraElement,
    BrauerDiagram,
    compose,
    jucys_murphy,
    random_diagram,
    sbar_diagram,
    s_diagram,
)


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

    def __add__(self, other: TensorVector) -> TensorVector:
        return TensorVector(self.n, self.N, [a + b for a, b in zip(self.amps, other.amps)])

    def __sub__(self, other: TensorVector) -> TensorVector:
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


@dataclass
class TensorOperator:
    """A linear map on tensor space, applied functionally."""

    n: int
    N: int
    description: str
    apply: Callable[[TensorVector], TensorVector] = field(repr=False)

    def __call__(self, v: TensorVector) -> TensorVector:
        if (v.n, v.N) != (self.n, self.N):
            raise ValueError("vector shape does not match the operator")
        return self.apply(v)


def act_transposition(k: int, l: int, n: int, N: int) -> TensorOperator:
    """Swap tensor positions k and l (1-based)."""
    if not 1 <= k < l <= n:
        raise ValueError("bad transposition indices")

    def apply(v: TensorVector) -> TensorVector:
        out = TensorVector.zero(n, N)
        for idx, a in enumerate(v.amps):
            if not a:
                continue
            t = list(index_to_tuple(idx, n, N))
            t[k - 1], t[l - 1] = t[l - 1], t[k - 1]
            out.amps[tuple_to_index(tuple(t), N)] += a
        return out

    return TensorOperator(n, N, f"({k},{l})", apply)


def act_bar(k: int, l: int, n: int, N: int) -> TensorOperator:
    """u(..i_k..i_l..) -> delta(i_k, i_l) * sum_i u(..i..i..)."""
    if not 1 <= k < l <= n:
        raise ValueError("bad bar indices")

    def apply(v: TensorVector) -> TensorVector:
        out = TensorVector.zero(n, N)
        for idx, a in enumerate(v.amps):
            if not a:
                continue
            t = list(index_to_tuple(idx, n, N))
            if t[k - 1] != t[l - 1]:
                continue
            for i in range(N):
                t[k - 1] = t[l - 1] = i
                out.amps[tuple_to_index(tuple(t), N)] += a
        return out

    return TensorOperator(n, N, f"bar({k},{l})", apply)


def act_diagram(g: BrauerDiagram, N: int) -> TensorOperator:
    """Delta-product action of an arbitrary diagram.

    The matrix entry between output tuple j and input tuple i is the product
    over edges of the delta of the two incident indices, top vertices reading
    j and bottom vertices reading i.
    """
    n = g.n
    tops = [(a - 1, b - 1) for a, b in g.top_edges()]
    bottoms = [(a - 1, b - 1) for a, b in g.bottom_edges()]
    throughs = [(t - 1, b - 1) for t, b in g.through_edges()]

    def apply(v: TensorVector) -> TensorVector:
        out = TensorVector.zero(n, N)
        for idx, amp in enumerate(v.amps):
            if not amp:
                continue
            i = index_to_tuple(idx, n, N)
            if any(i[a] != i[b] for a, b in bottoms):
                continue
            base = [0] * n
            for t, b in throughs:
                base[t] = i[b]
            # each top edge sums over one free index
            for assign in itertools.product(range(N), repeat=len(tops)):
                for (a, b), val in zip(tops, assign):
                    base[a] = base[b] = val
                out.amps[tuple_to_index(tuple(base), N)] += amp
        return out

    return TensorOperator(n, N, f"diagram{list(g.edges())}", apply)


def act_element(e: AlgebraElement, N: int) -> TensorOperator:
    """Action of an algebra element with coefficients specialized at N."""
    parts = [(act_diagram(d, N), c.eval(N)) for d, c in e.terms.items()]

    def apply(v: TensorVector) -> TensorVector:
        out = TensorVector.zero(e.n, N)
        for op, c in parts:
            out = out + op(v).scale(c)
        return out

    return TensorOperator(e.n, N, "element", apply)


# ---------------------------------------------------------------------------
# sparse exact-integer matrices


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
    from .diagrams import all_diagrams

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
                    s = row.get(k, Fraction(0)) - factor * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
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
            out = out + act_transposition(l, k, n, N)(v)
            out = out - act_bar(l, k, n, N)(v)
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
    from .repform import jm_eigenvalue

    values: set[Fraction] = set()
    for lam in shapes.enumerate_O(k, N):
        for path in shapes.enumerate_paths(lam, k, N):
            values.add(jm_eigenvalue(path, k, N))
    return values


def spectrum_annihilation_check(k: int, n: int, N: int, trials: int, rng) -> dict:
    """prod over predicted eigenvalues e of (act(x_k) - e) kills the space."""
    xk = jucys_murphy(k, n)
    op = act_element(xk, N)
    values = sorted(predicted_jm_spectrum(k, n, N))
    ok = True
    for _ in range(trials):
        v = TensorVector.random(n, N, rng)
        for e in values:
            v = op(v) - v.scale(e)
        if not v.is_zero():
            ok = False
            break
    return {"k": k, "n": n, "N": N, "eigenvalues": values, "ok": ok}
