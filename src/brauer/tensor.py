"""Brute-force oracle: the diagram algebra acting on tensor space.

For integer N the algebra acts on the n-th tensor power of an N-dimensional
space: transpositions permute factors, bar elements contract-and-expand
(Kronecker delta in, full sum out).  A general diagram acts by the delta
product over its edges: top vertices read the output multi-index, bottom
vertices the input one.  A multi-index (i_1, ..., i_n) is flattened in mixed
radix N, i_1 most significant.

Everything here is exact integer arithmetic on scipy sparse int64 matrices,
and the action is defined once: `_entry_indices` lists the (output, input)
index pairs of the ones in a diagram's 0/1 matrix by numpy index arithmetic,
already in canonical CSR order (outputs ascending, inputs ascending within
each output, no duplicates).  It reads the base-N digits of every flat index
from `_digits`, computed once per (n, N).  `diagram_matrix` wraps those pairs
as a CSR matrix without a COO step or a sort, and the homomorphism sweep
compares the structure of a product with that of the composite's matrix.
Both memos are scoped to one (n, N) point: a sweep never returns to a point
it has left, so the first call at a new point drops the previous point's
digits and matrices, and `diagram_matrix` holds at most 64 matrices within
a point.  `centralizer_rank` reads the same index
arrays as integer rows, whose rank over Q `elimination.integer_rank` takes.

The Casimir and spectrum checks are full matrix identities, with both sides
doubled to clear the halves in x_k = (N-1)/2 + sum_{l<k} (s_lk - sbar_lk):
`_doubled_action` builds 2 act(b) of an algebra element b in one CSR
construction from the same index pairs, and `_casimir_matrix` builds the
other side of the Schur-Weyl duality, 2C = -sum_{i<j} (E_ij - E_ji)^2, by
index arithmetic on the multi-indices, without diagrams.  Every product of
integer matrices goes through `_matmul`, which refuses one that could pass
int64 rather than let it wrap.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import shapes
from .diagrams import (
    AlgebraElement,
    BrauerDiagram,
    all_diagrams,
    compose,
    jucys_murphy,
    random_diagram,
    sbar_diagram,
    s_diagram,
)
from .elimination import integer_rank
from .repform import jm_eigenvalue


class TensorVector(NamedTuple):
    """A vector of the n-th tensor power of an N-dimensional space, by its
    exact amplitudes in the flattened basis."""

    n: int
    N: int
    amps: list[Fraction]

    @staticmethod
    def basis_vector(t: tuple[int, ...], N: int) -> TensorVector:
        amps = [Fraction(0)] * N ** len(t)
        amps[int(np.ravel_multi_index(t, (N,) * len(t)))] = Fraction(1)
        return TensorVector(len(t), N, amps)


# ---------------------------------------------------------------------------
# the action: one list of index pairs per diagram


@lru_cache(maxsize=1)
def _digits(n: int, N: int) -> np.ndarray:
    """The base-N digits of every flat index, shape (n, N**n), i_1 first:
    column j holds the multi-index flattened to j.  Read-only, since every
    caller of one (n, N) shares it."""
    digits = np.indices((N,) * n, dtype=np.int64).reshape(n, -1)
    digits.flags.writeable = False
    return digits


def _entry_indices(g: BrauerDiagram, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Output and input indices of the ones in the 0/1 action matrix of g.

    Each edge carries one free label in 0..N-1.  A label adds its value times
    a weight to the output index and times another weight to the input
    index, with stride[p] = N**(n-1-p): a through edge (t, b) has weights
    stride[t] and stride[b], a top edge (a, b) has stride[a] + stride[b] and
    0, a bottom edge 0 and stride[a] + stride[b].  Distinct label
    assignments give distinct (out, in) pairs, so there are exactly N**n.

    The label axes are ordered so that `_digits` lists the pairs in
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
    labels = _digits(n, N)
    return np.array(w_out, dtype=np.int64) @ labels, np.array(w_in, dtype=np.int64) @ labels


def _point_memo(maxsize: int):
    """`lru_cache(maxsize)` for a function of (g, N) that holds one (g.n, N)
    point: the first call at another point drops every result held.
    `cache_info()` counts the hits and misses of the dropped points too, and
    `cache_clear()` drops everything, counts included."""

    def decorate(fn):
        memo = lru_cache(maxsize=maxsize)(fn)
        point = None
        hits = misses = 0  # of the points dropped

        @wraps(fn)
        def scoped(g: BrauerDiagram, N: int):
            nonlocal point, hits, misses
            if (g.n, N) != point:
                info = memo.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
                memo.cache_clear()
                point = (g.n, N)
            return memo(g, N)

        def cache_info():
            info = memo.cache_info()
            return info._replace(hits=hits + info.hits, misses=misses + info.misses)

        def cache_clear() -> None:
            nonlocal point, hits, misses
            memo.cache_clear()
            point, hits, misses = None, 0, 0

        scoped.cache_info, scoped.cache_clear = cache_info, cache_clear
        return scoped

    return decorate


# A sweep never returns to an earlier point, so matrices of a point it has
# left are dead (up to 64 KB each) and are dropped.  Measured working set
# within a point: `tensor_grid` (default seed) makes 439 hits in 936 lookups,
# every one within a single grid point, at any bound of 8 or more; criterion
# 6 keeps at most 22 generator matrices hot (at n = 12) while it walks the
# generator pairs, and makes 8,573 misses in 22,173 lookups at a bound of 64
# against 11,313 at a bound of 8.
@_point_memo(maxsize=64)
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


def _summed_csr(rows: list, cols: list, data: list, dim: int):
    """One CSR int64 matrix from lists of (row, column, value) arrays, with
    coincident entries summed and zeros dropped."""
    m = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim), dtype=np.int64
    )
    m.eliminate_zeros()
    return m


def _doubled_action(b: AlgebraElement, N: int):
    """2 act(b), its coefficients specialized at N, built from the index
    pairs of all of b's diagrams at once; each 2c must be an integer."""
    rows, cols, data = [], [], []
    for g, c in b.terms.items():
        twice = 2 * c.eval(N)
        if twice.denominator != 1:
            raise ValueError(f"2 * {c.eval(N)} is not an integer")
        out, inp = _entry_indices(g, N)
        rows.append(out)
        cols.append(inp)
        data.append(np.full(len(out), int(twice), dtype=np.int64))
    return _summed_csr(rows, cols, data, N**b.n)


# Half of int64's 2^63: the factor of two is far more than float64 can round
# the bound of `_matmul` by.
_PRODUCT_BOUND = 2.0**62


def _matmul(p, f):
    """p @ f for a CSR int64 p and a CSR or dense int64 f, exactly.

    Every entry and partial sum of the product is at most (max row sum of
    |p|) * (max |f|) in absolute value.  That bound is taken in float64 and
    must stay below `_PRODUCT_BOUND`; past it the product raises ValueError
    rather than wrap.
    """
    # a zero appended past the last entry keeps reduceat's start indices in
    # range; an empty row then reads the next row's first entry, which never
    # exceeds that row's sum, so the maximum is unchanged
    row_sums = np.add.reduceat(np.append(np.abs(p.data, dtype=np.float64), 0.0), p.indptr[:-1])
    entries = f.data if sparse.issparse(f) else f
    bound = float(row_sums.max()) * float(np.abs(entries, dtype=np.float64).max(initial=0.0))
    if bound >= _PRODUCT_BOUND:
        raise ValueError(f"an integer matrix product could pass int64 (entry bound {bound:.3g})")
    return p @ f


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
    """Generator pairs plus random diagram pairs through the tensor action.

    Every pair is drawn from `rng` and counted in `checked`, but a repeated
    pair is answered by its first check, so each distinct pair is checked
    once; a failing pair is listed each time it is drawn.
    """
    gens = []
    for k in range(1, n):
        gens.append(s_diagram(k, n))
        gens.append(sbar_diagram(k, n))
    draws = ((random_diagram(n, rng), random_diagram(n, rng)) for _ in range(trials))
    answers: dict[tuple[BrauerDiagram, BrauerDiagram], bool] = {}
    failures = []
    for pair in itertools.chain(itertools.product(gens, gens), draws):
        ok = answers.get(pair)
        if ok is None:
            ok = answers[pair] = _homomorphism_pair_ok(*pair, N)
        if not ok:
            failures.append(pair)
    return {"n": n, "N": N, "checked": len(gens) ** 2 + trials, "failures": failures, "ok": not failures}


def centralizer_rank(n: int, N: int) -> int:
    """Rank over Q of the span of the diagram actions: each diagram's 0/1
    matrix is one integer row, eliminated by `elimination.integer_rank`."""
    dim = N**n

    def rows():
        for g in all_diagrams(n):
            out, inp = _entry_indices(g, N)
            yield dict.fromkeys((out * dim + inp).tolist(), 1)

    return integer_rank(rows())


def rank_check(n: int, N: int) -> dict:
    """The centralizer rank against its expected value, the sum of the
    squared path counts, which in the injective regime N >= n is also
    dim B(n) = (2n-1)!!."""
    rank = centralizer_rank(n, N)
    expected = sum(c * c for c in shapes.path_counts(n, N).values())
    ok = rank == expected and (N < n or rank == math.prod(range(1, 2 * n, 2)))
    return {"n": n, "N": N, "rank": rank, "expected": expected, "ok": ok}


@lru_cache(maxsize=64)
def _casimir_matrix(n: int, N: int):
    """2C = -sum_{i<j} A_ij^2, A_ij = E_ij - E_ji acting on the tensor power
    as a derivation (the sum of its actions on each factor).

    E_ij - E_ji moves one digit of a multi-index between the values i and j,
    from c to d with sign(c - d).  A_ij^2 is two such moves on the pair
    {i, j}: a first at some position q from c to any d, then a second at some
    position p whose digit u is now c or d, to w = c + d - u.  The entry of
    that term is -sign(c - d) sign(u - w).
    """
    dim = N**n
    stride = N ** np.arange(n - 1, -1, -1, dtype=np.int64)[:, None, None]
    digits = _digits(n, N)[:, None, :]
    col = np.arange(dim, dtype=np.int64)
    rows, cols, data = [], [], []
    for q in range(n):
        c = digits[q]
        d = (c + np.arange(1, N)[:, None]) % N  # (N - 1, dim): every other value
        u = np.repeat(digits, N - 1, axis=1)  # (n, N - 1, dim): digits after the first move
        u[q] = d
        w = c + d - u
        hit = (u == c) | (u == d)
        rows.append((col + (d - c) * stride[q] + (w - u) * stride)[hit])
        cols.append(np.broadcast_to(col, u.shape)[hit])
        data.append((np.sign(d - c) * np.sign(u - w))[hit])
    return _summed_csr(rows, cols, data, dim)


@lru_cache(maxsize=64)
def _jm_sum_matrix(n: int, N: int):
    """2 (x_1 + ... + x_n) through the diagram action."""
    return _doubled_action(sum(jucys_murphy(k, n) for k in range(1, n + 1)), N)


def _halved_product(op, v: TensorVector) -> TensorVector:
    """(op / 2) v for a doubled integer operator op, on v's numerators over
    their common denominator."""
    den = math.lcm(*(a.denominator for a in v.amps))
    nums = np.array([a.numerator * (den // a.denominator) for a in v.amps], dtype=np.int64)
    out = _matmul(op, nums)
    return TensorVector(v.n, v.N, [Fraction(x, 2 * den) for x in out.tolist()])


def casimir_apply(v: TensorVector) -> TensorVector:
    """-(1/2) sum_{i<j} (E_ij - E_ji)^2 acting on the tensor power.

    This is the usual -(1/4) sum over all i != j, because
    (E_ij - E_ji)^2 = (E_ji - E_ij)^2.
    """
    return _halved_product(_casimir_matrix(v.n, v.N), v)


def jm_sum_apply(v: TensorVector) -> TensorVector:
    """x_1 + ... + x_n through the diagram action."""
    return _halved_product(_jm_sum_matrix(v.n, v.N), v)


def casimir_check(n: int, N: int) -> dict:
    """The Jucys-Murphy sum acts as the orthogonal Casimir element:
    2C == 2(x_1 + ... + x_n) as matrices, so on every basis vector."""
    ok = not (_casimir_matrix(n, N) - _jm_sum_matrix(n, N)).count_nonzero()
    return {"n": n, "N": N, "checked": N**n, "ok": ok}


def predicted_jm_spectrum(k: int, N: int) -> set[Fraction]:
    """All +/-((N-1)/2 + content) values of x_k over the paths to level k:
    the step eigenvalues of the branching walk's edges into level k, each of
    which lies on some path (`shapes` module docstring)."""
    return {
        jm_eigenvalue((mu, nu), 1, N)
        for mu in shapes.path_counts(k - 1, N)
        for nu in shapes.branch(mu, k, N)
    }


def spectrum_annihilation_check(k: int, n: int, N: int) -> dict:
    """prod over predicted eigenvalues e of (2 act(x_k) - 2e) == 0 as a
    matrix."""
    xk, one = jucys_murphy(k, n), AlgebraElement.one(n)
    values = sorted(predicted_jm_spectrum(k, N))
    prod = reduce(_matmul, (_doubled_action(xk - one.scale(e), N) for e in values))
    return {"k": k, "n": n, "N": N, "eigenvalues": values, "ok": not prod.count_nonzero()}
