"""The four workloads of the brauer benchmark.

Every workload makes its inputs here, from its seed, with its own generators:
nothing is drawn from ``brauer.verify``, so an edit there cannot change a
workload.  The inputs go through brauer's public API, and every output is
checked exactly (no tolerances), mostly against formulas computed here
independently of the program.

One operation is one call a user would make: one grid point of the tensor
oracle, one representation, one triple or word check, one product.

Why these four: each loads a different layer.
  tensor_grid      the tensor oracle builds 0/1 action matrices (`tensor`)
  rep_sweep        orthogonal-form matrices over SurdSum (`repform`, `coeffs`)
  affine_words     the affine rewriting engine and NPoly (`affine`, `coeffs`);
                   it re-uses few diagrams, so the compose cache mostly hits
  brauer_products  dense products at n=8, which mostly miss the compose
                   cache and so expose the compose kernel (`diagrams`)
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

from brauer import affine, repform, shapes, tensor
from brauer.diagrams import (
    AlgebraElement,
    BrauerDiagram,
    bar_transposition,
    compose,
    jucys_murphy,
    multiply,
    transposition,
    verify_presentation,
)
from brauer.coeffs import NPoly

import speed


class Run:
    """Operation latencies and exact-check counts of one workload run."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer
        # host speed samples (speed.py), taken between operations when untraced
        self.loop_s: list[float] = []
        self.calibration_s = 0.0
        self._next_sample = 0.0

    def sample_speed(self) -> None:
        t0 = time.perf_counter()
        self.loop_s.append(speed.loop_s())
        t1 = time.perf_counter()
        self.calibration_s += t1 - t0
        self._next_sample = t1 + speed.EVERY_S

    @contextlib.contextmanager
    def op(self):
        if self.tracer is None and time.perf_counter() >= self._next_sample:
            self.sample_speed()
        span = self.span("op", "bench")
        t0 = time.perf_counter()
        with span:
            yield
        self.latencies.append(time.perf_counter() - t0)

    def span(self, key: str, layer: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(key, layer)

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(str(what() if callable(what) else what))


# ---------------------------------------------------------------------------
# input generators


def random_diagram(n: int, rng: random.Random) -> BrauerDiagram:
    verts = list(range(2 * n))
    rng.shuffle(verts)
    return BrauerDiagram.from_edges(n, [(verts[2 * i], verts[2 * i + 1]) for i in range(n)])


def level_set(n: int, N: int) -> list[tuple[int, ...]]:
    """O(n, N): partitions of n - 2r with at most N boxes in the first two columns."""

    def parts(m: int, cap: int):
        if m == 0:
            yield ()
            return
        for first in range(min(m, cap), 0, -1):
            for rest in parts(m - first, first):
                yield (first,) + rest

    out = []
    for size in range(n % 2, n + 1, 2):
        for lam in parts(size, size):
            if len(lam) + sum(1 for p in lam if p >= 2) <= N:
                out.append(lam)
    return sorted(out)


def box_steps(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Diagrams one box away from lam (added or removed)."""
    out = []
    rows = list(lam) + [0]
    for i in range(len(rows)):
        if i == 0 or rows[i] < rows[i - 1]:
            new = rows[:]
            new[i] += 1
            out.append(tuple(p for p in new if p))
        if rows[i] and (i + 1 == len(rows) or rows[i] > rows[i + 1]):
            new = rows[:]
            new[i] -= 1
            out.append(tuple(p for p in new if p))
    return out


def path_count(lam: tuple[int, ...], n: int, N: int) -> int:
    """Number of up-down paths from () to lam inside O(0..n, N)."""
    ok = {k: set(level_set(k, N)) for k in range(n + 1)}
    counts = {(): 1}
    for k in range(1, n + 1):
        new: dict = {}
        for mu, c in counts.items():
            for nu in box_steps(mu):
                if nu in ok[k]:
                    new[nu] = new.get(nu, 0) + c
        counts = new
    return counts.get(lam, 0)


def step_eigenvalue(before, after, N: int) -> Fraction:
    """+/-((N-1)/2 + content) of the box by which the two diagrams differ."""
    big, small = (after, before) if sum(after) > sum(before) else (before, after)
    small = list(small) + [0] * (len(big) - len(small))
    row = next(i for i in range(len(big)) if big[i] != small[i])
    value = Fraction(N - 1, 2) + (big[row] - 1) - row
    return value if sum(after) > sum(before) else -value


def random_monomial(n: int, rng: random.Random, degree: int) -> affine.AffineElement:
    """A regular monomial with exactly `degree` y's on its legal strands."""
    d = random_diagram(n, rng)
    top_bad = {b for _, b in d.top_edges()}
    left_ok = [m for m in range(1, n + 1) if m not in top_bad]
    right_ok = sorted({b for _, b in d.bottom_edges()})
    left, right = [0] * n, [0] * n
    for _ in range(degree):
        if right_ok and rng.random() < 0.5:
            right[rng.choice(right_ok) - 1] += 1
        else:
            left[rng.choice(left_ok) - 1] += 1
    w = (1,) if rng.random() < 0.3 else ()
    return affine.AffineElement.from_monomial(
        affine.RegularMonomial(n, tuple(left), d, tuple(right), w)
    )


def random_word(n: int, length: int, rng: random.Random) -> list[tuple[str, int]]:
    pool = [(kind, k) for k in range(1, n) for kind in ("s", "sbar")]
    pool += [("y", k) for k in range(1, n + 1)] + [("w", 1), ("w", 2)]
    return [rng.choice(pool) for _ in range(length)]


def random_element(n: int, terms: int, rng: random.Random) -> AlgebraElement:
    """`terms` random diagrams with coefficients a + b*N, a, b small integers."""
    out = {}
    while len(out) < terms:
        a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-1, 1)
        out[random_diagram(n, rng)] = NPoly({0: Fraction(a), 1: Fraction(b)})
    return AlgebraElement(n, out)


# ---------------------------------------------------------------------------
# sizes; "smoke" runs every code path at a small input


SIZES = {
    "full": {
        "tensor_max_dim": 4096,
        "tensor_pairs": 3,
        "rep_n": (2, 3, 4, 5),
        "rep_N": (2, 3, 4, 5, 7, 9),
        "affine_triples": {2: 150, 3: 200, 4: 250},
        "affine_words": {(2, 0): 30, (2, 1): 30, (2, 2): 30, (3, 0): 30, (3, 1): 30, (3, 2): 30},
        "products_n": 8,
        "products_triples": 40,
        "products_terms": 7,
        "products_jm": (4, 5, 6, 7),
        "products_presentation": (2, 3, 4, 5, 6, 7),
    },
    "smoke": {
        "tensor_max_dim": 64,
        "tensor_pairs": 1,
        "rep_n": (2, 3),
        "rep_N": (2, 3),
        "affine_triples": {2: 5, 3: 5, 4: 2},
        "affine_words": {(2, 1): 3, (3, 0): 3},
        "products_n": 6,
        "products_triples": 3,
        "products_terms": 3,
        "products_jm": (3,),
        "products_presentation": (2, 3),
    },
}


# ---------------------------------------------------------------------------
# tensor_grid: the criterion-6 inputs


def tensor_grid_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    grid = [
        (n, N)
        for n in range(2, 13)
        for N in range(2, size["tensor_max_dim"] + 1)
        if N**n <= size["tensor_max_dim"]
    ]
    grid += [(n, 1) for n in range(2, 7)]
    points = []
    for n, N in grid:
        pairs = [(random_diagram(n, rng), random_diagram(n, rng)) for _ in range(size["tensor_pairs"])]
        points.append((n, N, pairs))
    casimir = []
    for n in (1, 2, 3):
        for N in (2, 3):
            vecs = [
                tensor.TensorVector(n, N, [Fraction(rng.randint(-4, 4)) for _ in range(N**n)])
                for _ in range(3)
            ]
            if N**n <= 64:
                vecs += [
                    tensor.TensorVector.basis_vector(t, N)
                    for t in itertools.product(range(N), repeat=n)
                ]
            casimir.append((n, N, vecs))
    return {"points": points, "casimir": casimir}


def _pair_check(g1: BrauerDiagram, g2: BrauerDiagram, N: int, run: Run) -> None:
    """act(g1) act(g2) == N^loops act(g1 o g2), and each action matrix is a
    0/1 matrix with exactly N^n ones (one per free index assignment)."""
    n = g1.n
    with run.span("tensor.pair_check", "tensor"):
        prod, loops = compose(g1, g2)
        mats = [tensor.diagram_matrix(g, N) for g in (g1, g2, prod)]
        for m in mats:
            run.check(m.nnz == N**n and bool((m.data == 1).all()), lambda: f"matrix of {g1} at N={N}")
        diff = mats[0] @ mats[1] - N**loops * mats[2]
        diff.eliminate_zeros()
        run.check(diff.nnz == 0, lambda: f"homomorphism {g1} {g2} at N={N}")


def tensor_grid(inputs: dict, run: Run) -> None:
    for n, N, pairs in inputs["points"]:
        with run.op():
            for g1, g2 in pairs:
                _pair_check(g1, g2, N, run)
    for n in (2, 3):
        for N in (2, 3, 4):
            with run.op():
                counts = {lam: c for lam in level_set(n, N) if (c := path_count(lam, n, N))}
                run.check(dict(shapes.path_counts(n, N)) == counts, f"path counts n={n} N={N}")
                rank = tensor.centralizer_rank(n, N)
                expect = sum(c * c for c in counts.values())
                run.check(rank == expect, lambda: f"rank n={n} N={N}: {rank} != {expect}")
                if N >= n:
                    run.check(rank == math.prod(range(1, 2 * n, 2)), f"full rank n={n}")
    for n, N, vecs in inputs["casimir"]:
        with run.op():
            for v in vecs:
                run.check(tensor.casimir_apply(v) == tensor.jm_sum_apply(v), f"casimir n={n} N={N}")


# ---------------------------------------------------------------------------
# rep_sweep: the criteria 3 and 4 inputs


def rep_sweep_inputs(seed: int, size: dict) -> dict:
    items = [(lam, n, N) for N in size["rep_N"] for n in size["rep_n"] for lam in level_set(n, N)]
    random.Random(seed).shuffle(items)
    return {"items": items}


def rep_sweep(inputs: dict, run: Run) -> None:
    for lam, n, N in inputs["items"]:
        with run.op():
            try:
                rep = repform.build_representation(lam, n, N)  # verifies the relations
            except repform.RepresentationError as exc:
                run.check(False, f"V({lam}, {n}) at N={N}: {exc}")
                continue
            run.check(True, "relations")
            basis = rep.basis
            dim = basis.dim
            run.check(dim == path_count(lam, n, N), lambda: f"dim V({lam}, {n}) at N={N}")
            central = Fraction(N - 1, 2) * sum(lam) + sum(
                j - i for i, row in enumerate(lam, start=1) for j in range(1, row + 1)
            )
            total = repform.RepMatrix.zero(dim)
            for k in range(1, n + 1):
                xm = rep.matrices[f"x{k}"]
                expect = [step_eigenvalue(p[k - 1], p[k], N) for p in basis.paths]
                run.check(
                    xm == repform.RepMatrix.diagonal(expect),
                    lambda: f"x{k} eigenvalues on V({lam}, {n}) at N={N}",
                )
                total = total + xm
            run.check(
                total == repform.RepMatrix.identity(dim).scale(central),
                lambda: f"central sum on V({lam}, {n}) at N={N}",
            )
            # x_k through its generator words must give the diagonal matrix;
            # k <= 3 keeps this cross-check cheap beside the relation checks
            k = min(n, 3)
            action = repform.representation_action(rep, jucys_murphy(k, n))
            run.check(action == rep.matrices[f"x{k}"], lambda: f"x{k} from generators on V({lam}, {n})")
            for k in range(1, n):
                for block in repform.sbar_fiber_report(basis, k):
                    trace = block["trace"]
                    run.check(
                        block["symmetric"]
                        and block["rank_le_1"]
                        and block["diag_nonneg"]
                        and trace.is_rational()
                        and trace.rational_value() == N,
                        lambda: f"sbar{k} block over {block['mu']} on V({lam}, {n}) at N={N}",
                    )


# ---------------------------------------------------------------------------
# affine_words: associativity triples and shift-homomorphism words


def affine_words_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    # every way to spread three y's over the three factors, and every word
    # length 1..6, in turn: the seed draws the monomials and words, while the
    # mix of degrees and lengths, which sets most of the work, stays the same
    spreads = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    triples = []
    for n, count in size["affine_triples"].items():
        for i in range(count):
            triples.append(tuple(random_monomial(n, rng, deg) for deg in spreads[i % len(spreads)]))
    words = []
    for (n, m), count in size["affine_words"].items():
        for i in range(count):
            words.append((n, m, random_word(n, 1 + i % 6, rng)))
    return {"triples": triples, "words": words}


def affine_words(inputs: dict, run: Run) -> None:
    for a, b, c in inputs["triples"]:
        with run.op():
            run.check((a * b) * c == a * (b * c), lambda: f"associativity {a} | {b} | {c}")
    for n, m, word in inputs["words"]:
        with run.op():
            nf = affine.from_word(word, n)
            run.check(affine.pi_m(nf, m) == affine.pi_word(word, n, m), lambda: f"pi_{m} of {word}")


# ---------------------------------------------------------------------------
# brauer_products: products in B(n, N) with N symbolic


def brauer_products_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    n, terms = size["products_n"], size["products_terms"]
    triples = [
        tuple(random_element(n, terms, rng) for _ in range(3)) for _ in range(size["products_triples"])
    ]
    return {"triples": triples, "jm": size["products_jm"], "presentation": size["products_presentation"]}


def _product(a: AlgebraElement, b: AlgebraElement, run: Run) -> AlgebraElement:
    with run.op():
        return multiply(a, b)


def brauer_products(inputs: dict, run: Run) -> None:
    for a, b, c in inputs["triples"]:
        left = _product(_product(a, b, run), c, run)
        right = _product(a, _product(b, c, run), run)
        run.check(left == right, "associativity in B(n, N)")
    # odd power sums of Jucys-Murphy elements are central: p s_k = s_k p
    for n in inputs["jm"]:
        for i in (1, 3):
            p = AlgebraElement.zero(n)
            for k in range(1, n + 1):
                x = jucys_murphy(k, n)
                acc = x
                for _ in range(i - 1):
                    acc = _product(acc, x, run)
                p = p + acc
            for k in range(1, n):
                for g in (transposition(k, k + 1, n), bar_transposition(k, k + 1, n)):
                    ge = AlgebraElement.from_diagram(g)
                    run.check(
                        _product(p, ge, run) == _product(ge, p, run),
                        lambda: f"p_{i} central in B({n}) against {g}",
                    )
    for n in inputs["presentation"]:
        with run.op():
            report = verify_presentation(n)
        for r in report["results"]:
            run.check(r["ok"], f"relation {r['relation']} in B({n})")


# ---------------------------------------------------------------------------


WORKLOADS = {
    "tensor_grid": (tensor_grid_inputs, tensor_grid),
    "rep_sweep": (rep_sweep_inputs, rep_sweep),
    "affine_words": (affine_words_inputs, affine_words),
    "brauer_products": (brauer_products_inputs, brauer_products),
}


def make_inputs(name: str, seed: int, size: str) -> dict:
    return WORKLOADS[name][0](seed, SIZES[size])


def run_workload(name: str, inputs: dict, run: Run) -> None:
    WORKLOADS[name][1](inputs, run)
