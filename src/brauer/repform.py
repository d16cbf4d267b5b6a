"""Irreducible representations in Young's orthogonal form.

The canonical basis of V(lambda, n) is indexed by up-down paths; the
commuting family x_1..x_n acts diagonally with eigenvalues read off the path
(+/- ((N-1)/2 + content) for an added/removed box).  Generator matrices are
assembled fiberwise:

  * on a fiber where the endpoints two levels apart differ, s_k has diagonal
    1/(x_{k+1}-x_k) with positive symmetric off-diagonal entries of square
    1 - (x_{k+1}-x_k)^{-2}, and sbar_k vanishes;
  * on a fiber with equal endpoints mu, sbar_k is the rank-one block with
    diagonal given by residues of the central series over the corner data of
    mu, positive square-root off-diagonal entries, and s_k is derived from it,
    with the special self-paired branch (N odd, associated diagrams) acting
    as +1.

Every constructed representation is re-verified against the defining
relations in exact surd arithmetic; a failure raises with the violated
relation named.

Matrices are stored as sparse rows (``RepMatrix.rows[i]`` maps a column to a
non-zero entry; ``entry(i, j)`` reads any entry).  s_k and sbar_k are
block-diagonal over the level-k fibers and x_k is diagonal, so products and
the relation checks cost time in proportion to the non-zeros.

N is specialized to a rational before any matrix is built (the formulas
divide by eigenvalue differences); all symbolic-N checks live in `diagrams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import shapes
from .coeffs import SurdSum, USeries, add_term, as_fraction, linear_fraction_series, sqrt_of_rational
from .diagrams import (
    AlgebraElement,
    factor_diagram,
    jm_relations,
    presentation_relations,
)
from .shapes import Diagram, Path


class RepresentationError(ValueError):
    """A constructed matrix violated a defining relation or a guard."""


def jm_eigenvalue(path: Path, k: int, N: int | Fraction) -> Fraction:
    """Eigenvalue of x_k on v(path): +/- ((N-1)/2 + content of the step-k box)."""
    N = as_fraction(N)
    before, after = path[k - 1], path[k]
    c = shapes.content_of_difference(after, before)
    value = (N - 1) / 2 + c
    return value if sum(after) > sum(before) else -value


def central_content_eigenvalue(lam: Diagram, n: int, N: int | Fraction) -> Fraction:
    """Eigenvalue of x_1 + ... + x_n on V(lam, n)."""
    N = as_fraction(N)
    return (N - 1) / 2 * sum(lam) + sum(shapes.contents(lam))


def are_associated(lam: Diagram, mu: Diagram, N: int) -> bool:
    """First columns summing to N, all other columns equal."""
    trim = lambda d: tuple(p - 1 for p in d if p >= 2)
    return trim(lam) == trim(mu) and len(lam) + len(mu) == N


# ---------------------------------------------------------------------------
# matrices over SurdSum


class RepMatrix:
    """Square matrix with exact SurdSum entries, stored as sparse rows.

    ``rows[i]`` maps a column index to the non-zero entry there; an absent
    column is zero.  No zero is ever stored, so equal matrices have equal
    row dicts and ``==`` is a plain row comparison.  Read single entries
    through ``entry(i, j)``.  The ``build_*`` functions fill a fresh matrix
    through ``set(i, j, value)``; after that a matrix is treated as immutable, and
    arithmetic may return an operand unchanged instead of a copy.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, rows: list[dict[int, SurdSum]]):
        self.rows = rows
        self.dim = len(rows)

    @staticmethod
    def zero(d: int) -> RepMatrix:
        return RepMatrix([{} for _ in range(d)])

    @staticmethod
    def identity(d: int) -> RepMatrix:
        one = SurdSum.one()
        return RepMatrix([{i: one} for i in range(d)])

    @staticmethod
    def diagonal(values: list[Fraction | SurdSum]) -> RepMatrix:
        m = RepMatrix.zero(len(values))
        for i, v in enumerate(values):
            m.set(i, i, SurdSum.coerce(v))
        return m

    def entry(self, i: int, j: int) -> SurdSum:
        return self.rows[i].get(j) or SurdSum.zero()

    def set(self, i: int, j: int, value: SurdSum) -> None:
        """Store value at (i, j); a zero value removes the entry."""
        if value:
            self.rows[i][j] = value
        else:
            self.rows[i].pop(j, None)

    def __add__(self, other: RepMatrix) -> RepMatrix:
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for j, b in rb.items():
                add_term(row, j, b)
            rows.append(row)
        return RepMatrix(rows)

    def __sub__(self, other: RepMatrix) -> RepMatrix:
        return self + (-other)

    def __neg__(self) -> RepMatrix:
        return RepMatrix([{j: -a for j, a in row.items()} for row in self.rows])

    def scale(self, c) -> RepMatrix:
        c = SurdSum.coerce(c)
        if not c:
            return RepMatrix.zero(self.dim)
        return RepMatrix([{j: a * c for j, a in row.items()} for row in self.rows])

    def __mul__(self, other: RepMatrix) -> RepMatrix:
        orows = other.rows
        out = []
        for srow in self.rows:
            acc: dict[int, SurdSum] = {}
            for k, a in srow.items():
                for j, b in orows[k].items():
                    if j in acc:
                        acc[j] = acc[j] + a * b
                    else:
                        acc[j] = a * b
            out.append({j: v for j, v in acc.items() if v})
        return RepMatrix(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(sorted(row.items())) for row in self.rows))

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_symmetric(self) -> bool:
        return all(a == self.rows[j].get(i) for i, row in enumerate(self.rows) for j, a in row.items())

    def trace(self) -> SurdSum:
        t = SurdSum.zero()
        for i, row in enumerate(self.rows):
            if i in row:
                t = t + row[i]
        return t

    def rank_at_most_one(self) -> bool:
        """All 2x2 minors vanish; only columns where one of the two rows is
        non-zero can give a non-zero minor."""
        rows = [row for row in self.rows if row]
        zero = SurdSum.zero()
        for t, ri in enumerate(rows):
            for rj in rows[t + 1 :]:
                cols = sorted(ri.keys() | rj.keys())
                for x, a in enumerate(cols):
                    for b in cols[x + 1 :]:
                        m = ri.get(a, zero) * rj.get(b, zero) - ri.get(b, zero) * rj.get(a, zero)
                        if m:
                            return False
        return True

    def __repr__(self) -> str:
        dense = ([repr(self.entry(i, j)) for j in range(self.dim)] for i in range(self.dim))
        return "RepMatrix([" + ",\n           ".join(str(r) for r in dense) + "])"


# ---------------------------------------------------------------------------
# path basis and fibers


@dataclass(frozen=True)
class PathBasis:
    """Ordered list of up-down paths indexing rows and columns of matrices."""

    lam: Diagram
    n: int
    N: Fraction
    paths: tuple[Path, ...]

    @staticmethod
    def build(lam: Diagram, n: int, N: int | Fraction) -> PathBasis:
        N = as_fraction(N)
        if N.denominator == 1 and not shapes.in_O(lam, n, int(N)):
            raise ValueError(f"{lam} not in O({n}, {N})")
        level = int(N) if N.denominator == 1 else None
        if level is None:
            # formal specialization: no column bound can be applied through a
            # non-integer N, so take the unconstrained (large-N) path set
            paths = shapes.enumerate_paths(lam, n, 2 * n + sum(lam))
        else:
            paths = shapes.enumerate_paths(lam, n, level)
        return PathBasis(lam, n, N, paths)

    @property
    def dim(self) -> int:
        return len(self.paths)

    def fibers(self, k: int) -> list[list[int]]:
        """Group path indices by everything away from level k."""
        groups: dict[tuple, list[int]] = {}
        for idx, p in enumerate(self.paths):
            key = (p[:k], p[k + 1 :])
            groups.setdefault(key, []).append(idx)
        return list(groups.values())


def _sbar_diagonal(mu: Diagram, b: Fraction, N: Fraction) -> Fraction:
    """Diagonal entry of sbar on a fiber over mu at eigenvalue b.

    Residues of Z(mu, u)/u at u=b over the corner data of mu: (2b+1) times
    the product of (b+b_j)/(b-b_j) over b_j != b, with the doubled-eigenvalue
    branch at b = -1/2.
    """
    values = shapes.b_list(mu, N)
    num = Fraction(1)
    den = Fraction(1)
    for bj in values:
        if bj == b:
            continue
        num *= b + bj
        den *= b - bj
    if den == 0:
        raise RepresentationError(
            f"degenerate N={N}: repeated corner value {b} for mu={mu} outside the -1/2 branch"
        )
    if b == Fraction(-1, 2):
        return -num / den
    return (2 * b + 1) * num / den


def build_sbar_matrix(basis: PathBasis, k: int) -> RepMatrix:
    """Matrix of sbar_k; nonzero only on fibers whose endpoints at levels
    k-1 and k+1 coincide, where it is the positive rank-one block."""
    if not 1 <= k <= basis.n - 1:
        raise ValueError(f"generator index {k} out of range")
    m = RepMatrix.zero(basis.dim)
    for fiber in basis.fibers(k):
        p0 = basis.paths[fiber[0]]
        if p0[k - 1] != p0[k + 1]:
            continue
        mu = p0[k - 1]
        diag = [_sbar_diagonal(mu, jm_eigenvalue(basis.paths[i], k, basis.N), basis.N) for i in fiber]
        for a, i in enumerate(fiber):
            m.set(i, i, SurdSum.rational(diag[a]))
            for b in range(a + 1, len(fiber)):
                j = fiber[b]
                prod = diag[a] * diag[b]
                if prod < 0:
                    raise RepresentationError(
                        f"degenerate N={basis.N}: negative product of sbar diagonals on fiber over {mu}"
                    )
                s = sqrt_of_rational(prod)
                m.set(i, j, s)
                m.set(j, i, s)
    return m


def build_s_matrix(basis: PathBasis, k: int) -> RepMatrix:
    """Matrix of s_k, assembled fiber by fiber (see the module docstring)."""
    if not 1 <= k <= basis.n - 1:
        raise ValueError(f"generator index {k} out of range")
    N = basis.N
    m = RepMatrix.zero(basis.dim)
    integer_N = N.denominator == 1
    for fiber in basis.fibers(k):
        p0 = basis.paths[fiber[0]]
        if p0[k - 1] != p0[k + 1]:
            if len(fiber) > 2:
                raise RepresentationError("fiber with distinct endpoints has dimension > 2")
            deltas = []
            for i in fiber:
                path = basis.paths[i]
                delta = jm_eigenvalue(path, k + 1, N) - jm_eigenvalue(path, k, N)
                if delta == 0:
                    raise RepresentationError(
                        f"x_k = x_(k+1) on a split fiber at N={N}; construction breaks"
                    )
                deltas.append(delta)
                m.set(i, i, SurdSum.rational(1 / delta))
            if len(fiber) == 2:
                radicand = 1 - deltas[0] ** -2
                if radicand < 0:
                    raise RepresentationError(
                        f"degenerate N={N}: negative off-diagonal square on a split fiber"
                    )
                s = sqrt_of_rational(radicand)
                i, j = fiber
                m.set(i, j, s)
                m.set(j, i, s)
        else:
            mu = p0[k - 1]
            bs = [jm_eigenvalue(basis.paths[i], k, N) for i in fiber]
            diag = [_sbar_diagonal(mu, b, N) for b in bs]
            for a, i in enumerate(fiber):
                for c, j in enumerate(fiber):
                    denom = bs[a] + bs[c]
                    if a == c:
                        sbar_entry = SurdSum.rational(diag[a])
                        delta = SurdSum.one()
                    else:
                        prod = diag[a] * diag[c]
                        if prod < 0:
                            raise RepresentationError("negative sbar product")
                        sbar_entry = sqrt_of_rational(prod)
                        delta = SurdSum.zero()
                    if denom != 0:
                        m.set(i, j, (sbar_entry - delta).divide_rational(denom))
                    else:
                        # x_k = 0 self-paired branch, legal only for odd
                        # integer N with associated step diagrams.  The
                        # diagonal value is forced by the diagonal entry of
                        # s_k sbar_k = sbar_k on the fiber:
                        #   s_k(L,L) = 1 - sum_{L'' != L} sbar(L'',L'')/x_k(L'')
                        path = basis.paths[i]
                        if not (
                            a == c
                            and integer_N
                            and int(N) % 2 == 1
                            and are_associated(path[k - 1], path[k], int(N))
                        ):
                            raise RepresentationError(
                                f"zero denominator outside the guarded branch (N={N}, mu={mu})"
                            )
                        if any(bs[t] == 0 for t in range(len(fiber)) if t != a):
                            raise RepresentationError(
                                f"repeated zero eigenvalue on fiber over {mu} at N={N}"
                            )
                        value = Fraction(1) - sum(
                            (diag[t] / bs[t] for t in range(len(fiber)) if t != a),
                            Fraction(0),
                        )
                        m.set(i, j, SurdSum.rational(value))
    return m


def x_matrix(basis: PathBasis, k: int) -> RepMatrix:
    return RepMatrix.diagonal([jm_eigenvalue(p, k, basis.N) for p in basis.paths])


# ---------------------------------------------------------------------------
# whole representations


@dataclass(frozen=True)
class Representation:
    basis: PathBasis
    matrices: dict[str, RepMatrix]

    def matrix(self, kind: str, k: int) -> RepMatrix:
        return self.matrices[f"{kind}{k}"]


def _relation_matrices(rep: Representation) -> dict[tuple[str, int], RepMatrix]:
    n = rep.basis.n
    out = {}
    for k in range(1, n):
        out[("s", k)] = rep.matrices[f"s{k}"]
        out[("sbar", k)] = rep.matrices[f"sbar{k}"]
    for k in range(1, n + 1):
        out[("x", k)] = rep.matrices[f"x{k}"]
    return out


def _combination(terms, gens: dict[tuple[str, int], RepMatrix], N: Fraction, d: int) -> RepMatrix:
    """Sum of coeff(N) * (product of the word's generator matrices) over
    (coeff, word) terms.

    A product starts from its first generator, so only the empty word uses
    the identity; coefficients 0, 1 and -1 skip the scaling.
    """
    total = None
    for coeff, word in terms:
        c = coeff.eval(N)
        if not c:
            continue
        if word:
            acc = gens[word[0]]
            for token in word[1:]:
                acc = acc * gens[token]
        else:
            acc = RepMatrix.identity(d)
        if c == -1:
            acc = -acc
        elif c != 1:
            acc = acc.scale(c)
        total = acc if total is None else total + acc
    return RepMatrix.zero(d) if total is None else total


def verify_representation(rep: Representation) -> None:
    """Check every defining and Jucys-Murphy relation on the matrices.

    Raises RepresentationError naming the first violated relation.
    """
    basis = rep.basis
    n, N, d = basis.n, basis.N, basis.dim
    gens = _relation_matrices(rep)
    for name, lhs, rhs in presentation_relations(n) + jm_relations(n):
        if _combination(lhs, gens, N, d) != _combination(rhs, gens, N, d):
            raise RepresentationError(
                f"relation {name} fails on V({basis.lam}, {n}) at N={N}"
            )


def build_representation(
    lam: Diagram, n: int, N: int | Fraction, verify: bool = True
) -> Representation:
    """Matrices for s_1..s_{n-1}, sbar_1..sbar_{n-1} and diagonal x_1..x_n."""
    basis = PathBasis.build(lam, n, N)
    matrices: dict[str, RepMatrix] = {}
    for k in range(1, n):
        matrices[f"s{k}"] = build_s_matrix(basis, k)
        matrices[f"sbar{k}"] = build_sbar_matrix(basis, k)
    for k in range(1, n + 1):
        matrices[f"x{k}"] = x_matrix(basis, k)
    rep = Representation(basis, matrices)
    if verify and n >= 2:
        verify_representation(rep)
    return rep


def representation_action(rep: Representation, element: AlgebraElement) -> RepMatrix:
    """Apply the representation to an arbitrary algebra element.

    Diagrams act through their generator factorization; coefficients are
    specialized at the basis parameter N.
    """
    basis = rep.basis
    if element.n != basis.n:
        raise ValueError("element size does not match the representation")
    terms = ((coeff, factor_diagram(d)) for d, coeff in element.terms.items())
    return _combination(terms, _relation_matrices(rep), basis.N, basis.dim)


def scalar_of(matrix: RepMatrix) -> Fraction:
    """The scalar c with matrix = c*I; raises if the matrix is not scalar."""
    c = matrix.entry(0, 0)
    if matrix != RepMatrix.identity(matrix.dim).scale(c):
        raise ValueError("matrix is not scalar")
    return c.rational_value()


# ---------------------------------------------------------------------------
# central series


@dataclass(frozen=True)
class CentralSeriesPair:
    """Q(mu, u) and Z(mu, u) = (u + 1/2) Q(mu, u) - u + 1/2, truncated."""

    mu: Diagram
    N: Fraction
    order: int
    Q: USeries
    Z: USeries


def q_series(mu: Diagram, N: int | Fraction, order: int) -> USeries:
    """Q(mu, u): product of (u+b)/(u-b) over the corner values of mu."""
    N = as_fraction(N)
    result = USeries.constant(Fraction(1), order)
    for b in shapes.b_list(mu, N):
        result = result * linear_fraction_series(b, b, order)
    return result


def z_series(mu: Diagram, N: int | Fraction, order: int) -> USeries:
    """Z(mu, u); its u^{-i} coefficient is the z^(i) eigenvalue on V(mu, .)."""
    N = as_fraction(N)
    q = q_series(mu, N, order + 1)
    u_plus_half = USeries([Fraction(1, 2)] + [Fraction(0)] * (order + 1), u_coeff=Fraction(1))
    z = u_plus_half * q - USeries([Fraction(-1, 2)] + [Fraction(0)] * order, u_coeff=Fraction(1))
    assert z.u_coeff == 0, "leading u terms must cancel"
    return z


def central_series(mu: Diagram, N: int | Fraction, order: int) -> CentralSeriesPair:
    N = as_fraction(N)
    return CentralSeriesPair(mu, N, order, q_series(mu, N, order), z_series(mu, N, order))


def _box_factor(a: Fraction, order: int) -> USeries:
    """((u+a)^2 - 1)/((u-a)^2 - 1) * (u-a)^2/(u+a)^2 as linear fractions."""
    f = linear_fraction_series(a + 1, a + 1, order)
    f = f * linear_fraction_series(a - 1, a - 1, order)
    g = linear_fraction_series(-a, -a, order)
    return f * g * g


def q_series_alt(mu: Diagram, N: int | Fraction, order: int) -> USeries:
    """The box-product form of Q(mu, u) over the contents of mu."""
    N = as_fraction(N)
    h = (N - 1) / 2
    result = linear_fraction_series(h, h, order)
    for a in shapes.a_list(mu, N):
        result = result * _box_factor(a, order)
    return result


def q_k_series(k: int, N: int | Fraction, order: int, jm_values: list[Fraction]) -> USeries:
    """The product form of Q_k(u) over the x_1..x_{k-1} eigenvalues of a path."""
    N = as_fraction(N)
    if len(jm_values) != k - 1:
        raise ValueError("need exactly the x_1..x_{k-1} eigenvalues")
    h = (N - 1) / 2
    result = linear_fraction_series(h, h, order)
    for x in jm_values:
        if x == 0:
            # the box factor degenerates to exactly 1
            continue
        result = result * _box_factor(as_fraction(x), order)
    return result


# ---------------------------------------------------------------------------
# invariant helpers used by the verification suites


def sbar_fiber_report(basis: PathBasis, k: int) -> list[dict]:
    """Per-fiber rank-1 / trace-N / PSD data for the sbar_k blocks."""
    matrix = build_sbar_matrix(basis, k)
    out = []
    for fiber in basis.fibers(k):
        p0 = basis.paths[fiber[0]]
        if p0[k - 1] != p0[k + 1]:
            continue
        block = RepMatrix(
            [{b: e for b, j in enumerate(fiber) if (e := matrix.entry(i, j))} for i in fiber]
        )
        diag_nonneg = all(
            block.entry(t, t).is_rational() and block.entry(t, t).rational_value() >= 0
            for t in range(block.dim)
        )
        out.append(
            {
                "mu": p0[k - 1],
                "size": block.dim,
                "symmetric": block.is_symmetric(),
                "rank_le_1": block.rank_at_most_one(),
                "trace": block.trace(),
                "diag_nonneg": diag_nonneg,
            }
        )
    return out


def eigenvalue_tuples(lam: Diagram, n: int, N: int | Fraction) -> list[tuple[Fraction, ...]]:
    basis = PathBasis.build(lam, n, N)
    return [tuple(jm_eigenvalue(p, k, basis.N) for k in range(1, n + 1)) for p in basis.paths]


# -- JSON forms


def surd_to_json(s: SurdSum) -> list[list]:
    from .coeffs import format_rational

    return [[r, format_rational(c)] for r, c in sorted(s.terms.items())]


def surd_from_json(data: list[list]) -> SurdSum:
    return SurdSum({int(r): Fraction(c) for r, c in data})


def matrix_to_json(m: RepMatrix) -> list[list]:
    return [[surd_to_json(m.entry(i, j)) for j in range(m.dim)] for i in range(m.dim)]


def representation_to_json(rep: Representation) -> dict:
    return {
        "lambda": list(rep.basis.lam),
        "n": rep.basis.n,
        "N": str(rep.basis.N),
        "basis": [shapes.path_to_json(p) for p in rep.basis.paths],
        "matrices": {name: matrix_to_json(m) for name, m in sorted(rep.matrices.items())},
    }
