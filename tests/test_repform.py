import random
from fractions import Fraction

import pytest

from brauer import repform, shapes, verify
from brauer.coeffs import NPoly, SurdSum, sqrt_of_rational
from brauer.diagrams import (
    AlgebraElement,
    factor_diagram,
    jucys_murphy,
    random_diagram,
    s_elem,
    sbar_elem,
    z_element,
)
from brauer.repform import (
    IntMatrix,
    PathBasis,
    RepMatrix,
    Representation,
    RepresentationError,
    build_representation,
    build_sbar_matrix,
    central_content_eigenvalue,
    central_series,
    eigenvalue_tuples,
    jm_eigenvalue,
    q_k_series,
    q_series,
    q_series_alt,
    representation_action,
    sbar_fiber_report,
    scalar_of,
    surd_to_json,
    verify_representation,
    x_matrix,
    z_series,
)
from test_shapes import partitions

F = Fraction


def test_jm_eigenvalue_examples():
    assert jm_eigenvalue(((), (1,)), 1, 3) == 1  # (N-1)/2 at N=3
    assert jm_eigenvalue(((), (1,), (2,)), 2, 3) == 2
    assert jm_eigenvalue(((), (1,), ()), 2, 3) == -1


def test_jm_eigenvalue_rejects_a_step_outside_the_path():
    # k = 0 used to read the step from path[-1] to path[0] and give -1 here
    for k in (0, -1, 4):
        with pytest.raises(ValueError, match=f"step index {k} out of range 1..3"):
            jm_eigenvalue(((), (1,), (), (1,)), k, 3)


def test_x_index_outside_1_to_n_raises():
    # x_matrix(basis, 0) used to be a diagonal of -1s, cached as x_0's table
    basis = PathBasis.build((1,), 3, 3)
    for k in (0, 4):
        with pytest.raises(ValueError, match=f"Jucys-Murphy index {k} out of range"):
            basis.eigenvalues(k)
        with pytest.raises(ValueError, match=f"Jucys-Murphy index {k} out of range"):
            x_matrix(basis, k)
    assert basis._eigenvalues == {}
    assert x_matrix(basis, 3) == RepMatrix.diagonal(list(basis.eigenvalues(3)))


def test_central_content_examples():
    assert central_content_eigenvalue((1,), 1, 5) == 2
    assert central_content_eigenvalue((2,), 2, 3) == 3
    assert central_content_eigenvalue((), 2, 3) == 0
    # equals the sum of step eigenvalues along any path
    for lam, n, Nv in [((2,), 2, 3), ((1,), 3, 5), ((), 4, 3)]:
        c = central_content_eigenvalue(lam, n, Nv)
        for path in shapes.enumerate_paths(lam, n, Nv):
            assert sum(jm_eigenvalue(path, k, Nv) for k in range(1, n + 1)) == c


def test_one_dimensional_cases():
    # empty diagram, n=2: sbar = [N], s = [1]
    for Nv in (2, 3, 5):
        rep = build_representation((), 2, Nv)
        assert rep.matrices["sbar1"].entry(0, 0) == SurdSum.rational(Nv)
        assert rep.matrices["s1"].entry(0, 0) == SurdSum.one()
    # row/column two-box diagrams: symmetrizer and antisymmetrizer signs
    assert build_representation((2,), 2, 5).matrices["s1"].entry(0, 0) == SurdSum.one()
    assert build_representation((1, 1), 2, 5).matrices["s1"].entry(0, 0) == SurdSum.rational(-1)
    # fully trivial representation: single row
    rep = build_representation((3,), 3, 4)
    assert rep.matrices["s1"] == RepMatrix.identity(1)
    assert rep.matrices["sbar2"] == RepMatrix.zero(rep.basis.dim)


def test_rank_one_block_example():
    # V((1), 3) at N=3: the sbar_2 block is rank 1 with trace 3
    basis = PathBasis.build((1,), 3, 3)
    reports = sbar_fiber_report(basis, 2)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["size"] == 3 and rep["rank_le_1"] and rep["symmetric"]
    assert rep["trace"] == SurdSum.rational(3)
    # diagonals are the known dimension ratios 5/3, 1, 1/3
    m = build_sbar_matrix(basis, 2)
    assert sorted(m.entry(i, i).rational_value() for i in range(3)) == [
        F(1, 3),
        F(1),
        F(5, 3),
    ]


def test_zero_block_when_endpoints_differ():
    # any fiber with different endpoints kills sbar
    basis = PathBasis.build((2,), 2, 5)
    assert build_sbar_matrix(basis, 1) == RepMatrix.zero(basis.dim)


def test_associated_self_paired_branch():
    # V((1), 3) at N=3 has a path with x_2 = 0; the one diagonal formula
    # 1 - sum_{t != i} d_t/(b_i + b_t), pinned by s_k sbar_k = sbar_k, takes
    # it like any other path, and its value here is 1/2
    rep = build_representation((1,), 3, 3)
    basis = rep.basis
    idx = [i for i, p in enumerate(basis.paths) if p[2] == (1, 1)]
    assert len(idx) == 1
    assert rep.matrices["s2"].entry(idx[0], idx[0]) == SurdSum.rational(F(1, 2))


def test_equal_endpoint_guard_names_mu_and_N():
    # at N = 1 the steps (1) -> (1, 1) and (1) -> (2) have x_k = -1 and 1;
    # (1, 1) is not in O(2, 1), so no path basis builds this block, and a
    # direct call raises instead of dividing by zero
    with pytest.raises(RepresentationError) as info:
        repform._s_block((1,), ((1, 1), (2,)), (1,), F(1))
    assert str(info.value) == "two x_k eigenvalues sum to 0 on the fiber over (1,) at N=1"


@pytest.mark.parametrize("N", [*range(1, 13), F(7, 2), F(-5, 3), F(1, 4)])
def test_equal_endpoint_fibers_have_no_zero_sbar_diagonal(N):
    # the s_k diagonal divides by d_i; the module docstring shows that no
    # fiber of a path basis has d_i = 0 or b_i + b_j = 0 for two paths
    N = F(N)
    for mu in (lam for size in range(7) for lam in partitions(size)):
        if N.denominator == 1 and shapes.first_two_columns(mu) > N:
            continue
        middles = shapes.branch(mu, sum(mu) + 1, repform.walk_level(mu, sum(mu) + 1, N))
        bs = [repform._step_eigenvalue(mu, nu, N) for nu in middles]
        assert all(b + c for i, b in enumerate(bs) for c in bs[i + 1 :])
        try:
            diagonal = repform._sbar_block(mu, middles, N)[0]
        except RepresentationError:
            continue  # a mixed-sign diagonal at a degenerate rational N
        assert all(diagonal)


def test_full_sweep_small():
    for Nv in (2, 3, 4, 5):
        for n in (2, 3, 4):
            for lam in shapes.enumerate_O(n, Nv):
                rep = build_representation(lam, n, Nv)  # raises on any failure
                d = rep.basis.dim
                total = RepMatrix.zero(d)
                for k in range(1, n + 1):
                    total = total + rep.matrices[f"x{k}"]
                c = central_content_eigenvalue(lam, n, Nv)
                assert total == RepMatrix.identity(d).scale(c)


def test_matrices_symmetric_and_involutive():
    rep = build_representation((1,), 3, 5)
    for k in (1, 2):
        s = rep.matrices[f"s{k}"]
        sb = rep.matrices[f"sbar{k}"]
        assert s.is_symmetric() and sb.is_symmetric()
        gs = rep._gauged[1]["s", k]
        assert gs * gs == IntMatrix.identity(rep.basis.dim)


def test_non_integer_N_is_relations_checked():
    # formal specialization away from integer N: relations-checked only
    rep = build_representation((1,), 3, F(7, 2))
    assert rep.basis.dim == 3


def test_q_series_hand_values():
    q = q_series((1,), 3, 3)
    assert [q[i] for i in range(4)] == [1, 2, 2, 6]
    z = z_series((1,), 3, 2)
    assert [z[i] for i in range(3)] == [3, 3, 7]
    zs = z_series((), 3, 6)
    assert [zs[i] for i in range(7)] == [3] * 7  # N h^i with h = 1
    zs = z_series((), 5, 3)
    assert [zs[i] for i in range(4)] == [5, 10, 20, 40]


def test_central_series_invariant():
    pair = central_series((2, 1), 4, 6)
    # Z = (u + 1/2) Q - u + 1/2 coefficientwise: z_i = q_{i+1} + q_i/2 (+1/2 at i=0)
    q7 = q_series((2, 1), 4, 7)
    for i in range(7):
        expect = q7[i + 1] + q7[i] / 2 + (F(1, 2) if i == 0 else 0)
        assert pair.Z[i] == expect
    assert pair.Z[0] == 4


def test_box_product_form():
    for Nv in (F(2), F(3), F(7, 2), F(5), F(9, 4)):
        for mu in [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (1, 1, 1)]:
            assert q_series(mu, Nv, 10) == q_series_alt(mu, Nv, 10)


def test_q_k_series_matches_endpoint():
    assert q_k_series(1, 3, 5, []) == q_series((), 3, 5)
    # path (empty,(1),(2)): endpoint (2) at level 2, k=3
    path = ((), (1,), (2,))
    jm = [jm_eigenvalue(path, l, 3) for l in (1, 2)]
    assert q_k_series(3, 3, 8, jm) == q_series((2,), 3, 8)
    # a path returning to the empty diagram
    path = ((), (1,), ())
    jm = [jm_eigenvalue(path, l, 3) for l in (1, 2)]
    assert q_k_series(3, 3, 8, jm) == q_series((), 3, 8)
    # x_l = 0 factors are exactly 1: N=3 path through (1,1)
    path = ((), (1,), (1, 1))
    jm = [jm_eigenvalue(path, l, 3) for l in (1, 2)]
    assert jm[1] == 0
    assert q_k_series(3, 3, 8, jm) == q_series((1, 1), 3, 8)


def test_z_eigenvalues_against_diagram_side():
    for Nv in (3, 5):
        for k in (2, 3):
            for mu in shapes.enumerate_O(k - 1, Nv):
                zs = z_series(mu, Nv, 4)
                rep = build_representation(mu, k - 1, Nv, verify=False)
                for i in range(5):
                    acted = representation_action(rep, z_element(k, i))
                    assert scalar_of(acted) == zs[i]


def test_representation_action_general_element():
    rep = build_representation((1,), 3, 3, verify=False)
    img = representation_action(rep, jucys_murphy(2, 3))
    assert img == rep.matrices["x2"]


def test_eigenvalue_separation():
    # N odd or N >= 2n-1 separates
    for n, Nv in [(3, 3), (3, 5), (4, 7), (2, 3)]:
        for lam in shapes.enumerate_O(n, Nv):
            tuples = eigenvalue_tuples(lam, n, Nv)
            assert len(set(tuples)) == len(tuples)
    # the known failure at (n, N) = (3, 2), lam = (1)
    tuples = eigenvalue_tuples((1,), 3, 2)
    assert len(set(tuples)) < len(tuples)


def test_surd_json_form():
    # the entry forms `brauer rep --format json` prints: a zero, a rational
    # and an irrational entry
    assert surd_to_json(SurdSum.zero()) == []
    assert surd_to_json(SurdSum.rational(F(-2, 7))) == [[1, "-2/7"]]
    assert surd_to_json(sqrt_of_rational(F(3, 4)) * F(-4, 7)) == [[3, "-2/7"]]


def test_degenerate_N_raises():
    # a bad parameter must be rejected loudly rather than silently skipped
    with pytest.raises((ValueError, ZeroDivisionError)):
        build_representation((1,), 3, 0)
    # the empty diagram passes the O(n, N) test at N = 0, so only the level
    # check stops a 0-dimensional basis
    for Nv in (0, -1, F(-2)):
        with pytest.raises(ValueError, match="integer N must be at least 1"):
            PathBasis.build((), 2, Nv)


def _stores_no_zero(m: RepMatrix | IntMatrix) -> bool:
    return all(v for row in m.rows for v in row.values())


def test_built_matrices_store_no_zero():
    cases = [(lam, n, Nv) for Nv in (2, 3, 4, 5) for n in (2, 3, 4) for lam in shapes.enumerate_O(n, Nv)]
    cases += [((1,), 3, F(7, 2)), ((), 4, F(7, 2)), ((2,), 4, F(9, 4))]
    for lam, n, Nv in cases:
        rep = build_representation(lam, n, Nv)
        for name, m in rep.matrices.items():
            assert _stores_no_zero(m), (lam, n, Nv, name)
        s1 = rep.matrices["s1"]
        gs1 = rep._gauged[1]["s", 1]
        assert _stores_no_zero(gs1 * gs1)
        assert (s1 + s1.scale(-1)).rows == [{}] * rep.basis.dim


# the memos of the local pieces of the orthogonal form, and the path memos
# above shapes.branch, so that a cleared branch memo is called again
_LOCAL_MEMOS = (repform._step_eigenvalue, repform._sbar_block, repform._s_block, shapes.branch)
_PATH_MEMOS = (shapes.enumerate_paths, shapes.path_counts)


def _built_values(lam, n, Nv):
    """Every matrix's rows, in stored order."""
    rep = build_representation(lam, n, Nv)
    for name, m in rep.matrices.items():
        assert _stores_no_zero(m), (lam, n, Nv, name)
    return {name: [list(row.items()) for row in m.rows] for name, m in rep.matrices.items()}


def test_memoised_blocks_change_no_value():
    cases = list(verify._rep_sweep())
    for Nv in (F(7, 2), F(9, 4)):
        for n in (1, 2, 3, 4):
            for size in range(n % 2, n + 1, 2):
                cases += [(lam, n, Nv) for lam in partitions(size)]
    assert len(cases) == 131 + 32
    for memo in _LOCAL_MEMOS + _PATH_MEMOS:
        memo.cache_clear()
    forward = {case: _built_values(*case) for case in cases}
    for memo in _LOCAL_MEMOS + _PATH_MEMOS:
        memo.cache_clear()
    for case in reversed(cases):
        assert _built_values(*case) == forward[case], case
    assert all(memo.cache_info().currsize < memo.cache_info().maxsize for memo in _LOCAL_MEMOS)


def test_a_degenerate_N_is_never_memoised():
    for lam, n, Nv in (((1,), 3, F(-3, 2)), ((2,), 4, F(-7, 2))):
        messages = []
        for _ in range(2):
            with pytest.raises(RepresentationError) as info:
                build_representation(lam, n, Nv)
            messages.append(str(info.value))
        assert messages == [f"degenerate N={Nv}: negative product of sbar diagonals on fiber over {lam}"] * 2


def test_an_all_negative_sbar_diagonal_is_refused_after_every_build_guard():
    # V((1), 3) at N = -5/2: sbar_2's fiber over (1) has diagonal -2/5, -7/4, -7/20
    for check in (True, False):
        with pytest.raises(RepresentationError) as info:
            build_representation((1,), 3, F(-5, 2), verify=check)
        assert str(info.value) == "degenerate N=-5/2: negative sbar diagonal on fiber over (1,)"
    # V((2), 4) at N = -7/2 has such a fiber at level 2, yet keeps the mixed-sign
    # message of its level-3 fiber over (2) (test_a_degenerate_N_is_never_memoised)
    assert max(repform._sbar_block((1,), ((), (1, 1), (2,)), F(-7, 2))[0]) < 0


def _random_surd(rng: random.Random, radicand: int) -> SurdSum:
    # small coefficients, zero about half the time, so sums often cancel
    if rng.random() < 0.4:
        return SurdSum.zero()
    return SurdSum(F(rng.randint(-2, 2), rng.randint(1, 2)), radicand)


def _random_matrix(rng: random.Random, classes: list[int]) -> RepMatrix:
    # entry (i, j) on radicand squarefree(c_i c_j), as in a representation
    # whose gauge classes are c
    d = len(classes)
    m = RepMatrix.zero(d)
    for i in range(d):
        for j in range(d):
            m.set(i, j, _random_surd(rng, classes[i] * classes[j]))
    return m


def _dense(m: RepMatrix) -> list[list[SurdSum]]:
    return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]


def _random_int_matrix(rng: random.Random, d: int) -> IntMatrix:
    # small entries, half of them zero, so products often cancel
    rows = [{j: v for j in range(d) if (v := rng.choice((0, 0, 0, 1, -1, 2, -3)))} for _ in range(d)]
    return IntMatrix(rows, rng.randint(1, 4))


def _int_dense(m: IntMatrix) -> list[list[Fraction]]:
    return [[F(m.rows[i].get(j, 0), m.den) for j in range(m.dim)] for i in range(m.dim)]


def test_int_product_matches_dense_reference():
    rng = random.Random(20240402)
    for _ in range(150):
        d = rng.randint(1, 5)
        a, b = _random_int_matrix(rng, d), _random_int_matrix(rng, d)
        da, db = _int_dense(a), _int_dense(b)
        prod = a * b
        assert _stores_no_zero(prod) and prod.den == a.den * b.den
        assert _int_dense(prod) == [
            [sum(da[i][k] * db[k][j] for k in range(d)) for j in range(d)] for i in range(d)
        ]
        # equality compares values, whatever the denominators
        f = rng.randint(2, 5)
        assert a == IntMatrix([{j: v * f for j, v in row.items()} for row in a.rows], a.den * f)
        assert (a == b) == (da == db)
        assert a * IntMatrix.identity(d) == a == IntMatrix.identity(d) * a
        assert a.trace() == sum(da[i][i] for i in range(d))
        assert a.rank_at_most_one() == _minors_vanish(da)
        # an outer product u v^T has rank at most one, with a zero row
        # wherever u has a zero; an entry put into such a row can break it
        u = [rng.choice((0, 0, 1, -2, 3)) for _ in range(d)]
        v = [rng.choice((0, 1, -1, 2)) for _ in range(d)]
        outer = IntMatrix([{j: u[i] * v[j] for j in range(d) if u[i] * v[j]} for i in range(d)], rng.randint(1, 4))
        assert outer.rank_at_most_one()
        assert outer.trace() == sum(F(u[i] * v[i], outer.den) for i in range(d))
        zero_rows = [i for i in range(d) if not outer.rows[i]]
        if zero_rows:
            bumped = IntMatrix([dict(row) for row in outer.rows], outer.den)
            bumped.rows[zero_rows[0]][rng.randrange(d)] = rng.choice((1, -3))
            dense = _int_dense(bumped)
            assert bumped.rank_at_most_one() == _minors_vanish(dense)
            assert bumped.trace() == sum(dense[i][i] for i in range(d))


def _minors_vanish(dense) -> bool:
    d = len(dense)
    return all(
        dense[i][x] * dense[j][y] == dense[i][y] * dense[j][x]
        for i in range(d)
        for j in range(d)
        for x in range(d)
        for y in range(d)
    )


def test_sparse_arithmetic_matches_dense_reference():
    rng = random.Random(20240402)
    for _ in range(150):
        d = rng.randint(1, 5)
        classes = [rng.choice((1, 2, 3, 6)) for _ in range(d)]
        a, b = _random_matrix(rng, classes), _random_matrix(rng, classes)
        da, db = _dense(a), _dense(b)
        total = a + b
        c = _random_surd(rng, rng.choice((1, 2, 3, 6)))
        scaled = a.scale(c)
        assert _stores_no_zero(total) and _stores_no_zero(scaled)
        assert _dense(total) == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
        assert _dense(scaled) == [[x * c for x in row] for row in da]
        assert a.is_symmetric() == all(da[i][j] == da[j][i] for i in range(d) for j in range(d))
        assert (a == b) == (da == db)


def test_dimension_mismatch_raises():
    for d1, d2 in ((2, 3), (3, 2)):
        a, b = RepMatrix.identity(d1), RepMatrix.identity(d2)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            IntMatrix.identity(d1) * IntMatrix.identity(d2)
        assert IntMatrix.identity(d1) != IntMatrix.identity(d2)


def _perturbations(value: SurdSum) -> list[SurdSum]:
    """Four corruptions of one entry: two rational shifts of a rational entry
    or two rational rescales of an irrational one, then two moves onto other
    radicands."""
    if value.is_rational():
        changed = [value + 1, value + F(-2, 3)]
    else:
        changed = [value * 2, value * F(-2, 3)]
    base = value or SurdSum.one()
    return changed + [base * sqrt_of_rational(2), base * sqrt_of_rational(3)]


@pytest.mark.parametrize(
    "lam, n, Nv", [((1,), 3, 3), ((1,), 3, 5), ((), 4, 3), ((2,), 4, 5), ((1,), 3, F(7, 2)), ((2,), 4, F(9, 4))]
)
def test_single_entry_corruption_is_caught(lam, n, Nv):
    # every entry of every generator, zero or not; an off-diagonal entry of
    # s_k or sbar_k is also moved together with its mirror, so that the
    # symmetry check passes and the gauge or a relation must catch it
    rep = build_representation(lam, n, Nv)
    d = rep.basis.dim
    for name, good in rep.matrices.items():
        for i in range(d):
            for j in range(d):
                for value in _perturbations(good.entry(i, j)):
                    mirrored = [False] if i == j or name.startswith("x") else [False, True]
                    for mirror in mirrored:
                        bad = RepMatrix([dict(row) for row in good.rows])
                        bad.set(i, j, value)
                        if mirror:
                            bad.set(j, i, value)
                        with pytest.raises(RepresentationError):
                            verify_representation(Representation(rep.basis, {**rep.matrices, name: bad}))


def _with_entry(rep: Representation, name: str, cells, value: SurdSum) -> Representation:
    bad = RepMatrix([dict(row) for row in rep.matrices[name].rows])
    for i, j in cells:
        bad.set(i, j, value)
    return Representation(rep.basis, {**rep.matrices, name: bad})


def test_two_term_entry_and_asymmetry_raise():
    # an entry with two surd terms cannot be built
    with pytest.raises(ValueError, match="two radicands"):
        sqrt_of_rational(2) + sqrt_of_rational(3)
    rep = build_representation((1,), 3, 5)
    s2 = rep.matrices["s2"]
    # an irrational off-diagonal entry: it joins two paths of different classes
    i, j = next((i, j) for i, row in enumerate(s2.rows) for j, v in row.items() if not v.is_rational())
    with pytest.raises(RepresentationError, match="s2 is not symmetric"):
        verify_representation(_with_entry(rep, "s2", [(i, j)], s2.entry(i, j) * 2))
    with pytest.raises(RepresentationError, match="sbar1 is not symmetric"):
        verify_representation(_with_entry(rep, "sbar1", [(i, j)], SurdSum.one()))
    with pytest.raises(RepresentationError, match="does not fit a diagonal gauge"):
        verify_representation(_with_entry(rep, "s2", [(i, j), (j, i)], SurdSum.rational(F(1, 3))))


def test_gauge_exists_at_rational_N():
    # every representation at n <= 4 builds and verifies in the gauge
    for Nv in (F(5, 2), F(7, 2), F(9, 4), F(11, 3), F(17, 4), F(31, 7)):
        built = 0
        for n in (2, 3, 4):
            for size in range(n % 2, n + 1, 2):
                for lam in partitions(size):
                    rep = build_representation(lam, n, Nv)
                    classes, gens = rep._gauged
                    assert len(classes) == rep.basis.dim and all(c >= 1 for c in classes)
                    assert all(m.den >= 1 for m in gens.values())
                    built += 1
        assert built == 15


def _dense_product(a: list[list[SurdSum]], b: list[list[SurdSum]]) -> list[list[SurdSum]]:
    d = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(d)), SurdSum.zero()) for j in range(d)] for i in range(d)]


def _reference_action(rep: Representation, element: AlgebraElement) -> list[list[SurdSum]]:
    """Sum of coeff(N) * (product of the orthogonal-form generator matrices
    along the diagram's factorization), in dense SurdSum arithmetic."""
    d = rep.basis.dim
    total = [[SurdSum.zero()] * d for _ in range(d)]
    for diagram, coeff in element.terms.items():
        acc = _dense(RepMatrix.identity(d))
        for kind, k in factor_diagram(diagram):
            acc = _dense_product(acc, _dense(rep.matrices[f"{kind}{k}"]))
        c = coeff.eval(rep.basis.N)
        total = [[t + c * x for t, x in zip(rt, rx)] for rt, rx in zip(total, acc)]
    return total


@pytest.mark.parametrize("Nv", [3, 5, F(7, 2), F(9, 4)])
def test_representation_action_matches_dense_reference(Nv):
    rng = random.Random(20261018)
    for n in (2, 3, 4):
        for lam in shapes.enumerate_O(n, Nv) if F(Nv).denominator == 1 else [(), (1,), (2,), (1, 1)]:
            if (n - sum(lam)) % 2 or sum(lam) > n:
                continue
            rep = build_representation(lam, n, Nv)
            for _ in range(3):
                terms = {
                    random_diagram(n, rng): NPoly({0: F(rng.randint(-3, 3), rng.randint(1, 3)), 1: rng.randint(-2, 2)})
                    for _ in range(rng.randint(0, 4))
                }
                element = AlgebraElement(n, terms)
                acted = representation_action(rep, element)
                assert _stores_no_zero(acted)
                assert _dense(acted) == _reference_action(rep, element), (lam, n, Nv, element)


def test_action_of_a_generator_is_its_matrix():
    # the gauge and its inverse round-trip every generator exactly
    for lam, n, Nv in [((1,), 3, 5), ((2,), 4, F(9, 4)), ((1,), 5, 4)]:
        rep = build_representation(lam, n, Nv)
        for k in range(1, n):
            assert representation_action(rep, s_elem(k, n)) == rep.matrices[f"s{k}"]
            assert representation_action(rep, sbar_elem(k, n)) == rep.matrices[f"sbar{k}"]
        for k in range(1, n + 1):
            assert representation_action(rep, jucys_murphy(k, n)) == rep.matrices[f"x{k}"]
        assert representation_action(rep, AlgebraElement(n)) == RepMatrix.zero(rep.basis.dim)


def test_sbar_is_built_once_per_basis():
    rep = build_representation((1,), 3, 3)
    for k in (1, 2):
        assert build_sbar_matrix(rep.basis, k) is rep.matrices[f"sbar{k}"]
    reports = sbar_fiber_report(rep.basis, 2)
    assert reports == sbar_fiber_report(PathBasis.build((1,), 3, 3), 2)


def test_unreachable_diagram_at_rational_N_names_that_N():
    for lam in [(1,), (3,)]:
        with pytest.raises(ValueError, match=r"not in O\(2, 7/2\)"):
            PathBasis.build(lam, 2, F(7, 2))
    assert PathBasis.build((2,), 2, F(7, 2)).dim == 1


@pytest.mark.parametrize("Nv", [4, 7])
def test_every_level_6_representation_verifies(Nv):
    # n = 6 is beyond the acceptance sweep; build_representation checks every
    # defining and Jucys-Murphy relation exactly and raises on a failure
    for lam in shapes.enumerate_O(6, Nv):
        rep = build_representation(lam, 6, Nv)
        assert rep.basis.dim == shapes.path_counts(6, Nv)[lam]
        total = RepMatrix.zero(rep.basis.dim)
        for k in range(1, 7):
            total = total + rep.matrices[f"x{k}"]
        assert total == RepMatrix.identity(rep.basis.dim).scale(central_content_eigenvalue(lam, 6, Nv))


def _small_representations():
    """(lam, n, N) for n <= 4 at N in {2, 3, 5, 7} and every reachable lam
    at N = 7/2."""
    for Nv in (2, 3, 5, 7):
        for n in (1, 2, 3, 4):
            for lam in shapes.enumerate_O(n, Nv):
                yield lam, n, Nv
    for n in (1, 2, 3, 4):
        for size in range(n % 2, n + 1, 2):
            for lam in partitions(size):
                yield lam, n, F(7, 2)


def test_repform_adds_no_surd_sums(monkeypatch):
    # the build, the relation checks, the fiber reports, the actions and
    # scalar_of run on rationals and integers; SurdSums are only built and read
    def refuse(self, other):
        raise AssertionError("a SurdSum was added")

    monkeypatch.setattr(SurdSum, "__add__", refuse)
    monkeypatch.setattr(SurdSum, "__radd__", refuse)
    built = 0
    for lam, n, Nv in _small_representations():
        rep = build_representation(lam, n, Nv)
        for k in range(1, n):
            assert all(block["rank_le_1"] for block in sbar_fiber_report(rep.basis, k))
        element = jucys_murphy(n, n)
        if n >= 2:
            element = element + s_elem(1, n).scale(2) + sbar_elem(n - 1, n).scale(F(-1, 3))
        assert _stores_no_zero(representation_action(rep, element))
        built += 1
    assert built == 71
    # the z-actions of criterion 5 at k <= 3
    for Nv in (3, 5):
        for k in (1, 2, 3):
            for mu in shapes.enumerate_O(k - 1, Nv):
                zs = z_series(mu, Nv, 6)
                rep = build_representation(mu, k - 1, Nv, verify=False)
                for i in range(7):
                    assert scalar_of(representation_action(rep, z_element(k, i))) == zs[i]


def _reference_fiber_report(basis: PathBasis, k: int, matrix: RepMatrix) -> list[dict]:
    """`sbar_fiber_report` over the surd entries themselves: minors compared
    as surd products, the trace summed in SurdSum arithmetic."""
    out = []
    for fiber in basis.fibers(k):
        p0 = basis.paths[fiber[0]]
        if p0[k - 1] != p0[k + 1]:
            continue
        b = [[matrix.entry(i, j) for j in fiber] for i in fiber]
        d = len(fiber)
        out.append(
            {
                "mu": p0[k - 1],
                "size": d,
                "symmetric": all(b[x][y] == b[y][x] for x in range(d) for y in range(d)),
                "rank_le_1": all(
                    b[x][z] * b[y][w] == b[x][w] * b[y][z]
                    for x in range(d)
                    for y in range(d)
                    for z in range(d)
                    for w in range(d)
                ),
                "trace": sum((b[t][t] for t in range(d)), SurdSum.zero()),
                "diag_nonneg": all(b[t][t].is_rational() and b[t][t].rational_value() >= 0 for t in range(d)),
            }
        )
    return out


def _fiber_report_cases():
    for Nv in (2, 3, 4, 5, 7, 9):
        for n in (2, 3, 4):
            for lam in shapes.enumerate_O(n, Nv):
                yield lam, n, Nv
    for Nv in (F(7, 2), F(9, 4)):
        for n in (2, 3, 4):
            for size in range(n % 2, n + 1, 2):
                for lam in partitions(size):
                    yield lam, n, Nv


def test_sbar_fiber_report_matches_dense_surd_reference(monkeypatch):
    blocks = broken_blocks = 0
    for lam, n, Nv in _fiber_report_cases():
        basis = PathBasis.build(lam, n, Nv)
        for k in range(1, n):
            good = build_sbar_matrix(basis, k)
            report = sbar_fiber_report(basis, k)
            assert report == _reference_fiber_report(basis, k, good), (lam, n, Nv, k)
            # doubling a diagonal entry of a block keeps it rational, and so
            # in the block's gauge, but breaks rank one and moves the trace
            bad = RepMatrix([dict(row) for row in good.rows])
            for block in basis.fibers(k):
                if len(block) > 1 and bad.entry(block[0], block[0]):
                    bad.set(block[0], block[0], bad.entry(block[0], block[0]) * 2)
            with monkeypatch.context() as patch:
                patch.setattr(repform, "build_sbar_matrix", lambda basis, k: bad)
                broken = sbar_fiber_report(basis, k)
            assert broken == _reference_fiber_report(basis, k, bad), (lam, n, Nv, k)
            blocks += len(report)
            broken_blocks += sum(not block["rank_le_1"] for block in broken)
    assert (blocks, broken_blocks) == (96, 47)
