"""The acceptance suites, shared by the test suite and `brauer verify-all`.

Each criterion function returns {"name", "ok", "seconds", "details"}; every
check inside is exact (no tolerances anywhere).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import affine, repform, shapes
from .diagrams import (
    AlgebraElement,
    all_diagrams,
    jm_relations,
    jucys_murphy,
    multiply,
    random_diagram,
    s_elem,
    sbar_elem,
    verify_jm_relations,
    verify_presentation,
    z_element,
)

DEFAULT_SEED = 7_031_995


def _seed(seed: int | None) -> int:
    """An explicit seed wins, then the BRAUER_SEED variable, then DEFAULT_SEED."""
    if seed is not None:
        return seed
    env = os.environ.get("BRAUER_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError("BRAUER_SEED must be an integer") from None


def _result(name: str, ok: bool, t0: float, **details) -> dict:
    return {"name": name, "ok": ok, "seconds": round(time.perf_counter() - t0, 3), "details": details}


def criterion_1_presentation() -> dict:
    """The defining relations as exact polynomial identities, n <= 6."""
    t0 = time.perf_counter()
    max_n = 6
    checked = 0
    ok = True
    for n in range(2, max_n + 1):
        rep = verify_presentation(n)
        checked += rep["checked"]
        ok = ok and rep["all_ok"]
    return _result("presentation", ok, t0, instances=checked, max_n=max_n)


def criterion_2_jucys_murphy() -> dict:
    """Commutativity, the mixed relations, odd central power sums, and the
    conditional-expectation recurrence, all with N symbolic; n <= 4."""
    t0 = time.perf_counter()
    max_n = 4
    ok = True
    checked = 0
    for n in range(2, max_n + 1):
        rep = verify_jm_relations(n)
        ok = ok and rep["all_ok"]
        checked += rep["checked"]
    # odd power sums are central (i = 1, 3, 5)
    for n in range(2, max_n + 1):
        xs = [jucys_murphy(k, n) for k in range(1, n + 1)]
        for i in (1, 3, 5):
            p = AlgebraElement.zero(n)
            for x in xs:
                p = p + x.power(i)
            for k in range(1, n):
                for g in (s_elem(k, n), sbar_elem(k, n)):
                    if multiply(p, g) != multiply(g, p):
                        ok = False
                    checked += 1
    # -2 z^(i) = z^(i-1) + sum_j (-1)^j z^(i-j) z^(j-1), odd i <= 5
    for k in range(1, max_n + 1):
        zs = [z_element(k, i) for i in range(6)]
        for i in (1, 3, 5):
            lhs = zs[i].scale(-2)
            rhs = zs[i - 1]
            for j in range(1, i + 1):
                term = multiply(zs[i - j], zs[j - 1])
                rhs = rhs + (term.scale(-1) if j % 2 else term)
            if lhs != rhs:
                ok = False
            checked += 1
    return _result("jucys-murphy", ok, t0, instances=checked, max_n=max_n)


REP_SWEEP_N = (2, 3, 4, 5)
REP_SWEEP_VALUES = (2, 3, 4, 5, 7, 9)


def _rep_sweep():
    """(lam, n, N) for every V(lam, n) of the criteria 3-4 sweep."""
    for N in REP_SWEEP_VALUES:
        for n in REP_SWEEP_N:
            for lam in shapes.enumerate_O(n, N):
                yield lam, n, N


def _rational_diagonal(m: repform.RepMatrix) -> list[Fraction] | None:
    """The diagonal of m in Fractions, or None if m has an entry off its
    diagonal or an irrational one."""
    out = []
    for i, row in enumerate(m.rows):
        x = row.get(i)
        if row.keys() - {i} or (x is not None and not x.is_rational()):
            return None
        out.append(Fraction(0) if x is None else x.rational_value())
    return out


def criterion_3_representations() -> dict:
    """Every V(lam, n), n <= 5, N in {2,3,4,5,7,9}: exact relations, diagonal
    x-action with the content eigenvalues, scalar central sum."""
    t0 = time.perf_counter()
    ok = True
    built = 0
    for lam, n, N in _rep_sweep():
        try:
            rep = repform.build_representation(lam, n, N)  # verifies
        except repform.RepresentationError:
            ok = False
            continue
        built += 1
        basis = rep.basis
        eigenvalues = [basis.eigenvalues(k) for k in range(1, n + 1)]
        for k, expect in enumerate(eigenvalues, 1):
            if _rational_diagonal(rep.matrices[f"x{k}"]) != list(expect):
                ok = False
        # with every x_k diagonal, the sum is c times the identity when each path's eigenvalues add to c
        c = repform.central_content_eigenvalue(lam, n, basis.N)
        if any(sum(values) != c for values in zip(*eigenvalues)):
            ok = False
    return _result("representations", ok, t0, built=built)


def criterion_4_rank_trace() -> dict:
    """Every equal-endpoint sbar fiber block: symmetric PSD rank one with
    trace exactly N."""
    t0 = time.perf_counter()
    ok = True
    blocks = 0
    for lam, n, N in _rep_sweep():
        basis = repform.PathBasis.build(lam, n, N)
        for k in range(1, n):
            try:
                report = repform.sbar_fiber_report(basis, k)
            except repform.RepresentationError:
                ok = False
                continue
            for block in report:
                blocks += 1
                if not (
                    block["symmetric"]
                    and block["rank_le_1"]
                    and block["diag_nonneg"]
                    and block["trace"].is_rational()
                    and block["trace"].rational_value() == N
                ):
                    ok = False
    return _result("rank1-traceN", ok, t0, blocks=blocks)


SERIES_RATIONAL_VALUES = (
    Fraction(2),
    Fraction(3),
    Fraction(7, 2),
    Fraction(5),
    Fraction(9, 4),
)


def criterion_5_series() -> dict:
    """The central-series identity against the diagram-side conditional expectation, the
    box-product form of Q, and the path-product form of Q_k."""
    t0 = time.perf_counter()
    ok = True
    checks = 0
    for N in (3, 5):
        for k in (1, 2, 3, 4):
            zk = [z_element(k, i) for i in range(7)]
            for mu in shapes.enumerate_O(k - 1, N):
                zs = repform.z_series(mu, N, 6)
                rep = repform.build_representation(mu, k - 1, N, verify=False)
                for i in range(7):
                    scal = repform.scalar_of(repform.representation_action(rep, zk[i]))
                    ok = ok and scal == zs[i]
                    checks += 1
    mus = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (1, 1, 1), (3, 2)]
    for N in SERIES_RATIONAL_VALUES:
        for mu in mus:
            ok = ok and repform.q_series(mu, N, 10) == repform.q_series_alt(mu, N, 10)
            checks += 1
        for k in (1, 2, 3, 4):
            for mu in shapes.enumerate_O(k - 1, 12):
                for path in shapes.enumerate_paths(mu, k - 1, 12):
                    jm = [repform.jm_eigenvalue(path, l, N) for l in range(1, k)]
                    ok = ok and repform.q_k_series(k, N, 10, jm) == repform.q_series(mu, N, 10)
                    checks += 1
    return _result("central-series", ok, t0, checks=checks)


def _tensor_grid() -> list[tuple[int, int]]:
    grid = []
    for n in range(2, 13):
        for N in range(2, 4097):
            if N**n > 4096:
                break
            grid.append((n, N))
    grid += [(n, 1) for n in range(2, 7)]
    return grid


def criterion_6_tensor(seed: int | None = None) -> dict:
    """Homomorphism property over the whole sandbox-sized grid, centralizer
    ranks against path counts, and the Casimir identity as a full matrix
    identity at n <= 3, N <= 3 (it draws nothing from the random stream)."""
    from . import tensor  # numpy and scipy load only where the oracle runs

    t0 = time.perf_counter()
    rng = random.Random(_seed(seed))
    ok = True
    pairs = 0
    for n, N in _tensor_grid():
        rep = tensor.verify_homomorphism(n, N, 100, rng)  # 100 random pairs
        ok = ok and rep["ok"]
        pairs += rep["checked"]
    ranks = {}
    for n in (2, 3):
        for N in (2, 3, 4):
            rank = tensor.centralizer_rank(n, N)
            expect = sum(c * c for c in shapes.path_counts(n, N).values())
            ranks[f"{n},{N}"] = rank
            ok = ok and rank == expect
            # the injective regime reaches the full dimension
            if N >= n:
                ok = ok and rank == math.prod(range(1, 2 * n, 2))
    for n in (1, 2, 3):
        for N in (2, 3):
            ok = ok and tensor.casimir_check(n, N)["ok"]
    return _result("tensor-oracle", ok, t0, pairs=pairs, ranks=ranks)


def criterion_7_separation() -> dict:
    """Eigenvalue tuples separate paths when N is odd or N >= 2n-1 (n <= 5),
    and an explicit even-N counterexample exhibits the failure."""
    t0 = time.perf_counter()
    max_n = 5

    def separates(lam, n, N) -> bool:
        tuples = repform.eigenvalue_tuples(lam, n, N)
        return len(set(tuples)) == len(tuples)

    ok = True
    checked = 0
    for n in range(2, max_n + 1):
        for N in range(2, 2 * n + 2):
            if not (N % 2 == 1 or N >= 2 * n - 1):
                continue
            for lam in shapes.enumerate_O(n, N):
                ok = ok and separates(lam, n, N)
                checked += 1
    counterexample = next(
        (
            {"n": n, "N": N, "lam": list(lam)}
            for n in range(2, max_n + 1)
            for N in range(2, 2 * n - 1, 2)
            for lam in shapes.enumerate_O(n, N)
            if not separates(lam, n, N)
        ),
        None,
    )
    ok = ok and counterexample is not None
    return _result("separation", ok, t0, checked=checked, counterexample=counterexample)


def _random_regular_monomial(n: int, rng) -> affine.AffineElement:
    """A regular monomial of y-degree at most 2, w_1 with probability 0.3."""
    d = random_diagram(n, rng)
    top_bad = {b for _, b in d.top_edges()}
    bot_ok = {b for _, b in d.bottom_edges()}
    left, right = [0] * n, [0] * n
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            left[rng.choice([m for m in range(1, n + 1) if m not in top_bad]) - 1] += 1
        elif bot_ok:
            right[rng.choice(sorted(bot_ok)) - 1] += 1
    w = (1,) if rng.random() < 0.3 else ()
    return affine.AffineElement.from_monomial(
        affine.RegularMonomial(n, tuple(left), d, tuple(right), w)
    )


def _random_atoms(n: int, length: int, rng) -> list[affine.Atom]:
    pool: list[affine.Atom] = []
    for k in range(1, n):
        pool += [("s", k), ("sbar", k)]
    for k in range(1, n + 1):
        pool.append(("y", k))
    pool += [("w", 1), ("w", 2)]
    return [pool[rng.randrange(len(pool))] for _ in range(length)]


def _affine_assoc(rng) -> tuple[bool, dict]:
    """(a*b)*c == a*(b*c) on 100 random regular-monomial triples at n = 2, 3."""
    ok = True
    triples = 0
    for n in (2, 3):
        for _ in range(100):
            a, b, c = (_random_regular_monomial(n, rng) for _ in range(3))
            if (a * b) * c != a * (b * c):
                ok = False
            triples += 1
    return ok, {"triples": triples}


def _affine_pi(rng) -> tuple[bool, dict]:
    """pi_m of a word's normal form against the word's direct image, and
    desk-scale faithfulness: no monomial of weight <= 3 at n = 2 dies under pi_3."""
    ok = True
    words = 0
    for n in (2, 3):
        for m in (0, 1, 2):
            for _ in range(10):
                atoms = _random_atoms(n, rng.randint(1, 6), rng)
                nf = affine.from_word(atoms, n)
                if affine.pi_m(nf, m) != affine.pi_word(atoms, n, m):
                    ok = False
                words += 1

    monos = 0
    for d in all_diagrams(2):
        top_bad = {b for _, b in d.top_edges()}
        bot_ok = {b for _, b in d.bottom_edges()}
        for left in itertools.product(range(4), repeat=2):
            if any(left[m - 1] and m in top_bad for m in (1, 2)):
                continue
            for right in itertools.product(range(4), repeat=2):
                if any(right[m - 1] and m not in bot_ok for m in (1, 2)):
                    continue
                for w in [(), (1,)]:
                    t = affine.RegularMonomial(2, left, d, right, w)
                    if t.weight() > 3:
                        continue
                    e = affine.AffineElement.from_monomial(t)
                    if not affine.pi_m(e, 3):
                        ok = False
                    monos += 1
    return ok, {"words": words, "faithful_monomials": monos}


def _affine_hecke(rng) -> tuple[bool, dict]:
    """The relations of `jm_relations`, read with x_k as y_k,
    sbar_1 y_1^i sbar_1 = w_i sbar_1, and w_i s_1 = f_i s_1 (the weights,
    which no other term reaches: every term with a w also has an sbar) hold
    in the degenerate affine Hecke quotient."""
    ok = True
    f = {2: Fraction(5), 4: Fraction(-3), 6: Fraction(1, 2)}
    hecke_checks = 0
    for n in (2, 3):

        def hq(atoms):
            return affine.hecke_quotient(affine.from_word(atoms, n), f)

        def side(terms):
            total = affine.HeckeElement.zero(n)
            for c, word in terms:
                total = total + hq([("y", k) if kind == "x" else (kind, k) for kind, k in word]).scale(c)
            return total

        for _, lhs, rhs in jm_relations(n):
            ok = ok and side(lhs) == side(rhs)
            hecke_checks += 1
        for i in (1, 2, 3):
            lhs = hq([("sbar", 1)] + [("y", 1)] * i + [("sbar", 1)])
            rhs = affine.hecke_quotient(affine.w_elem(i, n) * affine.sbar_elem(1, n), f)
            ok = ok and lhs == rhs
            hecke_checks += 1
        for i in (2, 4, 6):
            ok = ok and hq([("w", i), ("s", 1)]) == hq([("s", 1)]).scale(f[i])
            hecke_checks += 1
    return ok, {"hecke_checks": hecke_checks}


def _affine_series(rng) -> tuple[bool, dict]:
    """sbar_k y_k^i sbar_k == W_k^(i) sbar_k at n = 3 for k <= 2, i <= 3."""
    ok = True
    series_checks = 0
    n = 3
    for k in (1, 2):
        for i in range(0, 4):
            lhs = affine.from_word([("sbar", k)] + [("y", k)] * i + [("sbar", k)], n)
            rhs = affine.cap_series(n, k, i)[i] * affine.sbar_elem(k, n)
            ok = ok and lhs == rhs
            series_checks += 1
    return ok, {"series_checks": series_checks}


# criterion 8's order: assoc draws its triples from the shared rng before pi draws its words
AFFINE_SUITES = {
    "assoc": _affine_assoc,
    "pi": _affine_pi,
    "hecke": _affine_hecke,
    "series": _affine_series,
}


def criterion_8_affine(seed: int | None = None, suites=tuple(AFFINE_SUITES)) -> dict:
    """Associativity, shift-homomorphism consistency, desk-scale
    faithfulness, the Hecke-quotient relation kill, and the conditional-
    expectation series cross-check; `suites` names the AFFINE_SUITES to run,
    in order."""
    t0 = time.perf_counter()
    rng = random.Random(_seed(seed))
    ok = True
    details = {}
    for name in suites:
        suite_ok, counts = AFFINE_SUITES[name](rng)
        ok = ok and suite_ok
        details.update(counts)
    return _result("affine", ok, t0, **details)


ALL_CRITERIA = [
    ("1 presentation", criterion_1_presentation),
    ("2 jucys-murphy", criterion_2_jucys_murphy),
    ("3 representations", criterion_3_representations),
    ("4 rank1-traceN", criterion_4_rank_trace),
    ("5 central-series", criterion_5_series),
    ("6 tensor-oracle", criterion_6_tensor),
    ("7 separation", criterion_7_separation),
    ("8 affine", criterion_8_affine),
]


# Every memo of the package, as module.function: `verify-all --stats` reports
# the hits and misses each criterion adds to their `cache_info()`.
MEMOS = (
    "affine._hecke_push_v",
    "affine._jm_power",
    "affine._odd_w_expansion",
    "affine._route_y",
    "coeffs.squarefree_decomposition",
    "diagrams._compose_cached",
    "diagrams.factor_diagram",
    "diagrams.jucys_murphy",
    "diagrams.s_diagram",
    "diagrams.sbar_diagram",
    "diagrams.z_element",
    "repform._relations",
    "repform._s_block",
    "repform._sbar_block",
    "repform._step_eigenvalue",
    "shapes.branch",
    "shapes.enumerate_O",
    "shapes.enumerate_paths",
    "shapes.path_counts",
    "tensor._casimir_matrix",
    "tensor._jm_sum_matrix",
    "tensor.diagram_matrix",
)


def _memo_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each of MEMOS whose module is loaded; it loads none,
    so numpy and scipy still load only with `tensor`."""
    counts = {}
    for name in MEMOS:
        module, attr = name.split(".")
        owner = sys.modules.get(f"{__package__}.{module}")
        if owner is not None:
            info = getattr(owner, attr).cache_info()
            counts[name] = (info.hits, info.misses)
    return counts


def run_all(seed: int | None = None, stats: bool = False) -> list[dict]:
    """Every criterion's report; with stats, each also has "memos": the
    hits and misses it added to each memo it used."""
    out = []
    for label, fn in ALL_CRITERIA:
        before = _memo_counts() if stats else {}
        if fn in (criterion_6_tensor, criterion_8_affine):
            rep = fn(seed=seed)
        else:
            rep = fn()
        rep["criterion"] = label
        if stats:
            rep["memos"] = {}
            for name, (hits, misses) in _memo_counts().items():
                hits0, misses0 = before.get(name, (0, 0))
                if (hits, misses) != (hits0, misses0):
                    rep["memos"][name] = {"hits": hits - hits0, "misses": misses - misses0}
        out.append(rep)
    return out
