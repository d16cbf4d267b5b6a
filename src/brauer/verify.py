"""The acceptance suites, shared by the test suite and `brauer verify-all`.

Each criterion function returns {"name", "ok", "seconds", "details"}; every
check inside is exact (no tolerances anywhere).
"""

from __future__ import annotations

import os
import random
import resource
import sys
import time
from fractions import Fraction

from . import affine, repform, shapes
from .diagrams import (
    AlgebraElement,
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
            if rep.matrices[f"x{k}"] != repform.RepMatrix.diagonal(expect):
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
                rep = repform.build_representation(mu, k - 1, N)
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
            r = tensor.rank_check(n, N)
            ranks[f"{n},{N}"] = r["rank"]
            ok = ok and r["ok"]
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
    for t in affine.regular_monomials(2, 3):
        if not affine.pi_m(affine.AffineElement.from_monomial(t), 3):
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
# the hits and misses each criterion adds to their `cache_info()`, and the
# process's peak RSS after each criterion.
#
# Every memo is bounded.  A bound is at or above the memo's working set: the
# largest LRU stack distance (the smallest bound that adds no miss) over the
# four benchmark workloads, verify-all and each slow test.  Two memos are
# held below it, to one (n, N) point each.  `diagram_matrix` keeps at most 64
# matrices: at one point criterion 6 reuses a matrix after 313 others, and
# 64 costs it 1,180 misses against an unbounded memo (8 would cost 3,920).
# `_digits` keeps one point: the ten points revisited after the sweep, 104
# points later, are computed again.  (The slow suite run as one process
# reuses compose pairs 11,238 apart; each slow test alone, 6,722 apart.)
# Hits/misses at seed 7031995, each run in a fresh process; "-" is unused:
#
# | memo                            | bound  | work set | tensor_grid | rep_sweep  | affine_words | brauer_products | verify-all   |
# | ------------------------------- | ------ | -------- | ----------- | ---------- | ------------ | --------------- | ------------ |
# | affine._cap_series              | 16     | 6        | -           | -          | 1,312/6      | -               | 309/3        |
# | affine._jm_power                | 64     | 53       | -           | -          | 198/25       | -               | 85/21        |
# | affine._odd_w_expansion         | 16     | 4        | -           | -          | 96/2         | -               | 58/2         |
# | affine._route_y                 | 8,192  | 6,314    | -           | -          | 8,248/431    | -               | 1,767/40     |
# | coeffs.squarefree_decomposition | 4,096  | 16       | -           | 462/16     | -            | -               | 462/16       |
# | diagrams._compose_cached        | 8,192  | 6,722    | 187/92      | 9/29       | 14,460/3,813 | 256/1,090       | 16,304/6,147 |
# | diagrams.factor_diagram         | 65,536 | 3,067    | -           | 601/18     | 4,250/123    | -               | 1,657/20     |
# | diagrams.jucys_murphy           | 32     | 18       | 6/6         | 127/4      | 235/12       | 22/22           | 216/13       |
# | diagrams.s_diagram              | 128    | 66       | -           | 24/7       | 6,725/8      | 1,308/21        | 1,528/66     |
# | diagrams.sbar_diagram           | 128    | 66       | -           | 3/4        | 2,691/8      | 1,005/21        | 1,224/66     |
# | diagrams.z_element              | 32     | 28       | -           | -          | 240/6        | -               | 156/28       |
# | repform._s_block                | 1,024  | 193      | -           | 1,213/215  | -            | -               | 1,241/215    |
# | repform._sbar_block             | 256    | 40       | -           | 228/40     | -            | -               | 462/40       |
# | repform._step_eigenvalue        | 1,024  | 288      | -           | 3,091/189  | -            | -               | 6,026/323    |
# | shapes.branch                   | 512    | 147      | 6/15        | 681/137    | -            | -               | 1,057/290    |
# | shapes.enumerate_paths          | 256    | 178      | -           | 0/131      | -            | -               | 274/178      |
# | shapes.path_counts              | 64     | 32       | 0/6         | -          | -            | -               | 66/36        |
# | tensor._casimir_matrix          | 64     | 1        | 65/6        | -          | -            | -               | 0/6          |
# | tensor._digits                  | 1      | 104      | 463/116     | -          | -            | -               | 8,539/116    |
# | tensor._jm_sum_matrix           | 64     | 1        | 65/6        | -          | -            | -               | 0/6          |
# | tensor.diagram_matrix           | 64     | 313      | 439/497     | -          | -            | -               | 13,600/8,573 |
MEMOS = (
    "affine._cap_series",
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
    "repform._s_block",
    "repform._sbar_block",
    "repform._step_eigenvalue",
    "shapes.branch",
    "shapes.enumerate_paths",
    "shapes.path_counts",
    "tensor._casimir_matrix",
    "tensor._digits",
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
    hits and misses it added to each memo it used, "near_relations": the
    near relations its representation checks multiplied out and took by
    transposition, and the products those took (`repform.NEAR_COUNTS`), and
    "peak_rss_mb": the process's peak RSS once it has run."""
    out = []
    for label, fn in ALL_CRITERIA:
        before = _memo_counts() if stats else {}
        near_before = dict(repform.NEAR_COUNTS)
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
            rep["near_relations"] = {key: count - near_before[key] for key, count in repform.NEAR_COUNTS.items()}
            # the process's high-water mark so far; Linux gives ru_maxrss in KiB
            rep["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        out.append(rep)
    return out
