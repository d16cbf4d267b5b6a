"""Irreducible representations in Young's orthogonal form.

The canonical basis of V(lambda, n) is indexed by up-down paths; the
commuting family x_1..x_n acts diagonally with eigenvalues read off the path
(+/- ((N-1)/2 + content) for an added/removed box).  Generator matrices are
assembled fiberwise:

  * on a fiber where the endpoints two levels apart differ, s_k has diagonal
    1/(x_{k+1}-x_k) with positive symmetric off-diagonal entries of square
    1 - (x_{k+1}-x_k)^{-2}, and sbar_k vanishes;
  * on a fiber with equal endpoints mu, sbar_k is the rank-one block with
    rational diagonal d given by residues of the central series over the
    corner data of mu and positive square-root off-diagonal entries
    sqrt(d_i d_j).  s_k is read off that block.  With b_i the x_k
    eigenvalue of path i (x_{k+1} is -b_i there), entry (i, j) of
    s_k x_k - x_{k+1} s_k = sbar_k - 1 pins s(i, j) = sbar(i, j)/(b_i + b_j)
    for i != j, and entry (i, i) of s_k sbar_k = sbar_k,
    d_i s(i, i) + sum_{t != i} s(i, t) sbar(t, i) = d_i, pins
    s(i, i) = 1 - sum_{t != i} d_t/(b_i + b_t) for every i, b_i = 0
    included.  So each sbar_k is built once per basis, its diagonal d is
    stored beside it, and the s_k block of a fiber reads the sbar_k block of
    the same fiber.

The diagonal formula divides by d_i, which no path basis makes 0.  d_i = 0
needs a corner value b_j = -b_i of mu other than b_i (the factor 2b+1 is
dropped at b = -1/2).  With h = (N-1)/2 and mu' the column lengths of mu,
an addable corner in column j has value h + c, c = j - 1 - mu'_j, and a
removable one -h - e, e = j - mu'_j.  Addable and removable contents
alternate along the rim, so a mixed pair sums to c - e != 0.  For j < j',
two addable corners sum to 0 at N = 1 - c - c' = 3 - j - j' + mu'_j + mu'_j'
and two removable ones at N = 1 - e - e' = 1 - j - j' + mu'_j + mu'_j':
never at a non-integer N, and at an integer N >= mu'_1 + mu'_2 (mu is in
its level set) only for the addable corners of columns 1 and 2 at
N = mu'_1 + mu'_2, whose steps leave O(k, N).  So also b_i + b_j != 0 for
two paths of a fiber: the one guard of an equal-endpoint fiber, a zero
b_i + b_j, fires only on a block that no path basis builds, and raises a
`RepresentationError` naming mu and N instead of dividing by zero.

Both bullets are local.  On a level-k fiber every quantity they use is read
off the diagram before it (level k-1), the diagram after it (level k+1), its
level-k diagrams in path order and N: the x_k and x_{k+1} eigenvalues of
its paths are those of the steps into and out of level k, each step's
eigenvalue is read off its two diagrams and N, and the corner values of mu
are `b_list(mu, N)`.  So the block of s_k on a fiber is a pure function of
(before, middles, after, N), `_s_block`, the block of sbar_k of (mu,
middles, N), `_sbar_block`, and a step eigenvalue of (before, after, N),
`_step_eigenvalue`.  Each is computed once per key in a bounded memo, and
the builders only place the cached entries.  `lru_cache` stores no
exception, so a degenerate N raises the same `RepresentationError`, whose
message names only mu and N, on every build.  The memo cannot hide a wrong
block either: every built representation is still checked relation by
relation.

Matrices are stored as sparse rows (``RepMatrix.rows[i]`` maps a column to a
non-zero ``SurdSum`` entry; ``entry(i, j)`` reads any entry).  s_k and
sbar_k are block-diagonal over the level-k fibers and x_k is diagonal.

Every constructed representation is re-verified against the defining and
Jucys-Murphy relations, exactly; a failure raises with the violated relation
named.  The check runs in a diagonal gauge (a seminormal form, as in Leduc
and Ram, Adv. Math. 125 (1997)), not on the surds themselves.  Each path
index i gets a squarefree class c_i: walking the non-zero entries of every
matrix, an entry a*sqrt(r)/e at (i, j) forces c_j = squarefree(c_i*r).
With D = diag(sqrt(c_i)), the entry of D^-1 M D at (i, j) is
a*sqrt(r*c_i*c_j)/(e*c_i), rational because r*c_i*c_j is a square.  So every
gauged generator is an `IntMatrix`: integer rows over one denominator.  A
class that clashes raises; there is no fallback to surd arithmetic.

One surd term per entry is enough.  A matrix M fits the gauge
exactly when its entry (i, j) lies in Q*sqrt(c_i*c_j).  Sums of such matrices
keep that form entry by entry, and so do products: the (i, j) entry of AB
sums terms of Q*sqrt(c_i*c_k)*sqrt(c_k*c_j) = Q*c_k*sqrt(c_i*c_j).  So every
matrix of one representation, its generators and everything built from them,
has one radicand, squarefree(c_i*c_j), per entry: a `SurdSum` holds one term
c*sqrt(r), and its ``+`` raises on two radicands, which here would mean a
matrix that fits no gauge.

Why the gauge is exact: M -> D^-1 M D is linear, multiplicative
(D^-1 A D D^-1 B D = D^-1 AB D), fixes the identity and is invertible.  A
relation is a polynomial identity in the generators with scalar (N-valued)
coefficients, so it holds for the gauged matrices exactly when it holds for
the orthogonal ones.  Symmetry of s_k and sbar_k is the one checked property
the gauge does not preserve, so it is checked on the orthogonal matrices.
`representation_action` also works in the gauge and maps its result back
once: entry q at (i, j) becomes q*sqrt(c_i*c_j)/c_j.  `sbar_fiber_report`
gauges each equal-endpoint sbar_k block on its own and reads rank, trace and
diagonal off the integer block, since D^-1 B D keeps all three; only its
symmetry is read off the surds.

No ``SurdSum`` is added here even so: entries are built (a rational, the
square root of a rational, or an entry scaled by a rational) and read
(``==``, the gauge walk, JSON), and every sum runs on rationals or integers.

N is specialized to a rational before any matrix is built (the formulas
divide by eigenvalue differences); all symbolic-N checks live in `diagrams`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm

from . import shapes
from .coeffs import (
    NPoly,
    SurdSum,
    add_term,
    as_fraction,
    box_factor,
    format_rational,
    linear_fraction_series,
    monic_product,
    sqrt_of_rational,
    squarefree_product,
)
from .diagrams import (
    AlgebraElement,
    factor_diagram,
    jm_relations,
    presentation_relations,
)
from .shapes import Diagram, Path


_ZERO = SurdSum.zero()  # shared: a SurdSum is never changed in place


class RepresentationError(ValueError):
    """A constructed matrix violated a defining relation or a guard."""


# rep_sweep (the inputs of criteria 3 and 4) leaves 189 entries here, the
# n = 6 levels at N = 4 and 7 leave 121
@lru_cache(maxsize=1024)
def _step_eigenvalue(before: Diagram, after: Diagram, N: Fraction) -> Fraction:
    """Eigenvalue of x_k on a path whose step k goes from before to after:
    +/- ((N-1)/2 + content of the box added or removed)."""
    value = (N - 1) / 2 + shapes.content_of_difference(after, before)
    return value if sum(after) > sum(before) else -value


def jm_eigenvalue(path: Path, k: int, N: int | Fraction) -> Fraction:
    """Eigenvalue of x_k on v(path): +/- ((N-1)/2 + content of the step-k box)."""
    if not 1 <= k <= len(path) - 1:
        raise ValueError(f"step index {k} out of range 1..{len(path) - 1}")
    return _step_eigenvalue(path[k - 1], path[k], as_fraction(N))


def central_content_eigenvalue(lam: Diagram, n: int, N: int | Fraction) -> Fraction:
    """Eigenvalue of x_1 + ... + x_n on V(lam, n)."""
    N = as_fraction(N)
    return (N - 1) / 2 * sum(lam) + sum(shapes.contents(lam))


# ---------------------------------------------------------------------------
# matrices over SurdSum


class RepMatrix:
    """Square matrix with exact SurdSum entries, stored as sparse rows.

    ``rows[i]`` maps a column index to the non-zero entry there; an absent
    column is zero.  No zero is ever stored, so equal matrices have equal
    row dicts and ``==`` is a plain row comparison.  Read single entries
    through ``entry(i, j)``.  The ``build_*`` functions fill a fresh matrix
    through ``set(i, j, value)``; after that a matrix is treated as immutable.
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
        return self.rows[i].get(j, _ZERO)

    def set(self, i: int, j: int, value: SurdSum) -> None:
        """Store value at (i, j); a zero value removes the entry."""
        if value:
            self.rows[i][j] = value
        else:
            self.rows[i].pop(j, None)

    def __add__(self, other: RepMatrix) -> RepMatrix:
        if other.dim != self.dim:
            raise ValueError(f"cannot add a {other.dim}x{other.dim} matrix to a {self.dim}x{self.dim} one")
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for j, b in rb.items():
                add_term(row, j, b)
            rows.append(row)
        return RepMatrix(rows)

    def scale(self, c) -> RepMatrix:
        c = SurdSum.coerce(c)
        if not c:
            return RepMatrix.zero(self.dim)
        return RepMatrix([{j: a * c for j, a in row.items()} for row in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return self.rows == other.rows

    def is_symmetric(self) -> bool:
        return all(a == self.rows[j].get(i) for i, row in enumerate(self.rows) for j, a in row.items())

    def __repr__(self) -> str:
        dense = ([repr(self.entry(i, j)) for j in range(self.dim)] for i in range(self.dim))
        return "RepMatrix([" + ",\n           ".join(str(r) for r in dense) + "])"


class IntMatrix:
    """Square matrix rows/den over the rationals: ``rows[i]`` maps a column to
    a non-zero ``int`` and ``den`` is a positive ``int``.

    The matrices of the diagonal gauge.  A product multiplies the rows as
    plain ints and the two denominators, with no gcd per entry, so a value
    has many forms; ``==`` compares values by cross-multiplying the
    denominators.  Treated as immutable, like `RepMatrix`.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: list[dict[int, int]], den: int = 1):
        self.rows = rows
        self.den = den

    @staticmethod
    def identity(d: int) -> IntMatrix:
        return IntMatrix([{i: 1} for i in range(d)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        orows = other.rows
        if len(orows) != len(self.rows):
            raise ValueError(f"cannot multiply a {self.dim}x{self.dim} matrix by a {other.dim}x{other.dim} one")
        out = []
        for srow in self.rows:
            acc: dict[int, int] = {}
            for k, a in srow.items():
                for j, b in orows[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if len(self.rows) != len(other.rows):
            return False
        da, db = self.den, other.den
        if da == db:
            return self.rows == other.rows
        for ra, rb in zip(self.rows, other.rows):
            if ra.keys() != rb.keys() or any(a * db != rb[j] * da for j, a in ra.items()):
                return False
        return True

    __hash__ = None  # equal values may store different rows

    def trace(self) -> Fraction:
        return Fraction(sum(row.get(i, 0) for i, row in enumerate(self.rows)), self.den)

    def rank_at_most_one(self) -> bool:
        """All 2x2 minors vanish; only columns where one of the two rows is
        non-zero can give a non-zero minor."""
        rows = [row for row in self.rows if row]
        for t, ri in enumerate(rows):
            for rj in rows[t + 1 :]:
                cols = sorted(ri.keys() | rj.keys())
                for x, a in enumerate(cols):
                    for b in cols[x + 1 :]:
                        if ri.get(a, 0) * rj.get(b, 0) != ri.get(b, 0) * rj.get(a, 0):
                            return False
        return True

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows!r}, {self.den})"


# ---------------------------------------------------------------------------
# path basis and fibers


def walk_level(lam: Diagram, n: int, N: Fraction) -> int:
    """The level of the branching walk whose paths to lam index V(lam, n) at
    N: N itself, or at a non-integer N, where no column bound applies,
    2n + |lam|, which bounds no diagram on a path of n steps."""
    return int(N) if N.denominator == 1 else 2 * n + sum(lam)


@dataclass(frozen=True)
class PathBasis:
    """Ordered list of up-down paths indexing rows and columns of matrices."""

    lam: Diagram
    n: int
    N: Fraction
    paths: tuple[Path, ...]
    # level k -> its fibers, k -> the eigenvalues of x_k, and k -> the matrix
    # of sbar_k, each built once per basis; not part of the value
    _fibers: dict[int, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _eigenvalues: dict[int, tuple[Fraction, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _sbar: dict[int, RepMatrix] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @staticmethod
    def build(lam: Diagram, n: int, N: int | Fraction) -> PathBasis:
        N = as_fraction(N)
        if N.denominator != 1:
            # only reachability is checked: see `walk_level`
            size = sum(lam)
            if size > n or (n - size) % 2:
                raise ValueError(f"{lam} not in O({n}, {N})")
        elif N < 1:
            raise ValueError(f"an integer N must be at least 1, got {N}")
        elif not shapes.in_O(lam, n, int(N)):
            raise ValueError(f"{lam} not in O({n}, {N})")
        return PathBasis(lam, n, N, shapes.enumerate_paths(lam, n, walk_level(lam, n, N)))

    @property
    def dim(self) -> int:
        return len(self.paths)

    def fibers(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Group path indices by everything away from level k."""
        cached = self._fibers.get(k)
        if cached is None:
            groups: dict[tuple, list[int]] = {}
            for idx, p in enumerate(self.paths):
                key = (p[:k], p[k + 1 :])
                groups.setdefault(key, []).append(idx)
            cached = self._fibers[k] = tuple(map(tuple, groups.values()))
        return cached

    def eigenvalues(self, k: int) -> tuple[Fraction, ...]:
        """The eigenvalue of x_k on each path, in path order."""
        cached = self._eigenvalues.get(k)
        if cached is None:
            if not 1 <= k <= self.n:
                raise ValueError(f"Jucys-Murphy index {k} out of range")
            N = self.N
            cached = self._eigenvalues[k] = tuple(_step_eigenvalue(p[k - 1], p[k], N) for p in self.paths)
        return cached


# rep_sweep leaves 40 entries here, the n = 6 levels at N = 4 and 7 leave 24
@lru_cache(maxsize=256)
def _sbar_block(
    mu: Diagram, middles: tuple[Diagram, ...], N: Fraction
) -> tuple[tuple[Fraction, ...], tuple[tuple[int, int, SurdSum], ...]]:
    """sbar_k on a fiber over mu whose level-k diagrams are middles, in fiber
    order: its rational diagonal and its (a, b, value) entries at fiber
    positions, in the order `build_sbar_matrix` writes them.

    The diagonal holds the residues of Z(mu, u)/u at u = b over the corner
    data of mu, one per x_k eigenvalue b: (2b+1) times the product of
    (b+b_j)/(b-b_j) over b_j != b, with the doubled-eigenvalue branch at
    b = -1/2.  Off the diagonal the entry is sqrt(d_a d_b).
    """
    values = shapes.b_list(mu, N)
    diagonal = []
    for middle in middles:
        b = _step_eigenvalue(mu, middle, N)
        num = Fraction(1)
        den = Fraction(1)
        for bj in values:
            if bj == b:
                continue
            num *= b + bj
            den *= b - bj
        diagonal.append(-num / den if b == Fraction(-1, 2) else (2 * b + 1) * num / den)
    entries = []
    for a, da in enumerate(diagonal):
        entries.append((a, a, SurdSum.rational(da)))
        for c in range(a + 1, len(diagonal)):
            prod = da * diagonal[c]
            if prod < 0:
                raise RepresentationError(
                    f"degenerate N={N}: negative product of sbar diagonals on fiber over {mu}"
                )
            s = sqrt_of_rational(prod)
            entries += ((a, c, s), (c, a, s))
    return tuple(diagonal), tuple(entries)


# rep_sweep leaves 215 entries here, the n = 6 levels at N = 4 and 7 leave 165
@lru_cache(maxsize=1024)
def _s_block(
    before: Diagram, middles: tuple[Diagram, ...], after: Diagram, N: Fraction
) -> tuple[tuple[int, int, SurdSum], ...]:
    """s_k on a fiber from before (level k-1) through middles (level k, in
    fiber order) to after (level k+1): its (a, c, value) entries at fiber
    positions, in the order `build_s_matrix` writes them.  The two kinds of
    fiber are those of the module docstring."""
    entries = []
    if before != after:
        if len(middles) > 2:
            raise RepresentationError("fiber with distinct endpoints has dimension > 2")
        deltas = []
        for a, middle in enumerate(middles):
            delta = _step_eigenvalue(middle, after, N) - _step_eigenvalue(before, middle, N)
            if delta == 0:
                raise RepresentationError(
                    f"x_k = x_(k+1) on a split fiber at N={N}; construction breaks"
                )
            deltas.append(delta)
            entries.append((a, a, SurdSum.rational(1 / delta)))
        if len(middles) == 2:
            radicand = 1 - deltas[0] ** -2
            if radicand < 0:
                raise RepresentationError(
                    f"degenerate N={N}: negative off-diagonal square on a split fiber"
                )
            s = sqrt_of_rational(radicand)
            entries += ((0, 1, s), (1, 0, s))
        return tuple(entries)
    # the equal-endpoint formulas of the module docstring: x_k = b and
    # x_{k+1} = -b on each path, and no d_i is 0
    mu = before
    diagonal, sbar_entries = _sbar_block(mu, middles, N)
    sbar = {(a, c): value for a, c, value in sbar_entries}
    bs = [_step_eigenvalue(mu, middle, N) for middle in middles]
    for a, b in enumerate(bs):
        diag = Fraction(1)
        for c, bc in enumerate(bs):
            if c != a:
                if b + bc == 0:
                    raise RepresentationError(f"two x_k eigenvalues sum to 0 on the fiber over {mu} at N={N}")
                diag -= diagonal[c] / (b + bc)
                entries.append((a, c, sbar[a, c] * (1 / (b + bc))))
        entries.append((a, a, SurdSum.rational(diag)))
    return tuple(entries)


def build_sbar_matrix(basis: PathBasis, k: int) -> RepMatrix:
    """Matrix of sbar_k; nonzero only on fibers whose endpoints at levels
    k-1 and k+1 coincide, where it is the positive rank-one block.  Built
    once per basis: later calls return the same matrix."""
    cached = basis._sbar.get(k)
    if cached is not None:
        return cached
    if not 1 <= k <= basis.n - 1:
        raise ValueError(f"generator index {k} out of range")
    paths, N = basis.paths, basis.N
    m = RepMatrix.zero(basis.dim)
    for fiber in basis.fibers(k):
        p0 = paths[fiber[0]]
        if p0[k - 1] != p0[k + 1]:
            continue
        for a, c, value in _sbar_block(p0[k - 1], tuple(paths[i][k] for i in fiber), N)[1]:
            m.set(fiber[a], fiber[c], value)
    basis._sbar[k] = m
    return m


def build_s_matrix(basis: PathBasis, k: int) -> RepMatrix:
    """Matrix of s_k, assembled fiber by fiber (see the module docstring);
    an equal-endpoint fiber reads its block of sbar_k from `_sbar_block`."""
    paths, N = basis.paths, basis.N
    m = RepMatrix.zero(basis.dim)
    for fiber in basis.fibers(k):
        p0 = paths[fiber[0]]
        for a, c, value in _s_block(p0[k - 1], tuple(paths[i][k] for i in fiber), p0[k + 1], N):
            m.set(fiber[a], fiber[c], value)
    return m


def x_matrix(basis: PathBasis, k: int) -> RepMatrix:
    return RepMatrix.diagonal(list(basis.eigenvalues(k)))


# ---------------------------------------------------------------------------
# whole representations


@dataclass(frozen=True)
class Representation:
    basis: PathBasis
    matrices: dict[str, RepMatrix]

    @cached_property
    def _gauged(self) -> tuple[list[int], dict[tuple[str, int], IntMatrix]]:
        """The gauge classes and the gauged generators, keyed ("s", k),
        ("sbar", k) and ("x", k); built once per representation and not part
        of its value."""
        basis = self.basis
        named = {}
        for k in range(1, basis.n):
            named["s", k] = self.matrices[f"s{k}"]
            named["sbar", k] = self.matrices[f"sbar{k}"]
        for k in range(1, basis.n + 1):
            named["x", k] = self.matrices[f"x{k}"]
        return _gauge(named, basis.dim, f"on V({basis.lam}, {basis.n}) at N={basis.N}")


def _gauge(
    named: dict[tuple[str, int], RepMatrix], dim: int, where: str
) -> tuple[list[int], dict[tuple[str, int], IntMatrix]]:
    """The squarefree classes c_i of the named dim x dim matrices and each of
    them as D^-1 M D (see the module docstring).  An error names the entry
    as "entry (i, j) of s2 <where> ..."."""
    walked = [(token, m.rows) for token, m in named.items()]
    classes = [0] * dim  # 0: not reached yet
    for start in range(dim):
        if classes[start]:
            continue
        classes[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for token, rows in walked:
                for j, value in rows[i].items():
                    if not classes[j]:
                        classes[j] = squarefree_product(classes[i], value.rad)[1]
                        stack.append(j)
    gens = {}
    for token, rows in walked:
        entries = []
        for i, row in enumerate(rows):
            ci = classes[i]
            for j, value in row.items():
                root, s = squarefree_product(ci, value.rad)
                if s != classes[j]:
                    raise RepresentationError(
                        f"entry ({i}, {j}) of {token[0]}{token[1]} {where} does not fit a diagonal gauge"
                    )
                # a*sqrt(r)/den at (i, j) gauges to a*sqrt(r*c_i*c_j)/(den*c_i)
                num, den = value.num * root * s, value.den * ci
                g = gcd(num, den)
                entries.append((i, j, num // g, den // g))
        den = lcm(*(e[3] for e in entries))
        gauged: list[dict[int, int]] = [{} for _ in classes]
        for i, j, num, d in entries:
            gauged[i][j] = num * (den // d)
        gens[token] = IntMatrix(gauged, den)
    return classes, gens


def _at(side: list, N: Fraction) -> list:
    """The (coefficient at N, word) terms of a relation side, zeros dropped;
    the one NPoly coefficient of the tables is the N of bar-square."""
    return [(c, word) for coeff, word in side if (c := coeff.eval(N) if coeff.__class__ is NPoly else coeff)]


def _combination(terms, gens: dict[tuple[str, int], IntMatrix], d: int) -> IntMatrix:
    """Sum of c * (product of the word's gauged generators) over (c, word)
    terms with c != 0 an int or a Fraction, over the lcm of the terms'
    denominators.

    A product starts from its first generator, so only the empty word uses
    the identity; a lone term with coefficient 1 is returned as it is.
    """
    parts = []
    for c, word in terms:
        if word:
            acc = gens[word[0]]
            for token in word[1:]:
                acc = acc * gens[token]
        else:
            acc = IntMatrix.identity(d)
        parts.append((c, acc))
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    den = lcm(*(c.denominator * m.den for c, m in parts))
    rows: list[dict[int, int]] = [{} for _ in range(d)]
    for c, m in parts:
        f = c.numerator * (den // (c.denominator * m.den))
        for row, mrow in zip(rows, m.rows):
            for j, v in mrow.items():
                add_term(row, j, f * v)
    return IntMatrix(rows, den)


def verify_representation(rep: Representation) -> None:
    """Check that every s_k and sbar_k is symmetric, then every defining and
    Jucys-Murphy relation as the tables generate it, in the diagonal gauge.

    Raises RepresentationError naming the first violated check.
    """
    basis = rep.basis
    n, N, d = basis.n, basis.N, basis.dim
    for k in range(1, n):
        for name in (f"s{k}", f"sbar{k}"):
            if not rep.matrices[name].is_symmetric():
                raise RepresentationError(f"{name} is not symmetric on V({basis.lam}, {n}) at N={N}")
    gens = rep._gauged[1]
    for name, lhs, rhs in chain(presentation_relations(n), jm_relations(n)):
        if _combination(_at(lhs, N), gens, d) != _combination(_at(rhs, N), gens, d):
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
        # sbar_k first, so that its guards raise before those of s_k
        sbar = build_sbar_matrix(basis, k)
        matrices[f"s{k}"] = build_s_matrix(basis, k)
        matrices[f"sbar{k}"] = sbar
    for k in range(1, n + 1):
        matrices[f"x{k}"] = x_matrix(basis, k)
    # positive roots sqrt(d_a d_b) give the rank-one v v^T only on a
    # non-negative sbar diagonal.  _sbar_block refuses a mixed-sign one; an
    # all-negative one is refused here, after every guard of the build, so
    # that each input those guards refuse keeps its message
    for k in range(1, n):
        sbar = matrices[f"sbar{k}"]
        for fiber in basis.fibers(k):
            if len(fiber) > 1 and any(sbar.entry(i, i).num < 0 for i in fiber):
                mu = basis.paths[fiber[0]][k - 1]
                raise RepresentationError(f"degenerate N={basis.N}: negative sbar diagonal on fiber over {mu}")
    rep = Representation(basis, matrices)
    if verify and n >= 2:
        verify_representation(rep)
    return rep


def representation_action(rep: Representation, element: AlgebraElement) -> RepMatrix:
    """Apply the representation to an arbitrary algebra element.

    Diagrams act through their generator factorization; coefficients are
    specialized at the basis parameter N.  The sum is taken in the diagonal
    gauge and mapped back to the orthogonal form once.
    """
    basis = rep.basis
    if element.n != basis.n:
        raise ValueError("element size does not match the representation")
    classes, gens = rep._gauged
    terms = [(c, factor_diagram(d)) for d, coeff in element.terms.items() if (c := coeff.eval(basis.N))]
    gauged = _combination(terms, gens, basis.dim)
    # entry q at (i, j) is q*sqrt(c_i*c_j)/c_j = q*g*sqrt(s)/c_j in the
    # orthogonal form, for c_i*c_j = g^2*s
    den = gauged.den
    rows = []
    for ci, row in zip(classes, gauged.rows):
        entries = {}
        for j, q in row.items():
            g, s = squarefree_product(ci, classes[j])
            entries[j] = SurdSum._reduced(q * g, den * classes[j], s)
        rows.append(entries)
    return RepMatrix(rows)


def scalar_of(matrix: RepMatrix) -> Fraction:
    """The scalar c with matrix = c*I; raises if the matrix is not scalar."""
    c = matrix.entry(0, 0)
    if not c.is_rational() or matrix != RepMatrix.diagonal([c] * matrix.dim):
        raise ValueError("matrix is not scalar")
    return c.rational_value()


# ---------------------------------------------------------------------------
# central series


@dataclass(frozen=True)
class CentralSeriesPair:
    """Q(mu, u) and Z(mu, u) = (u + 1/2) Q(mu, u) - u + 1/2, each truncated to
    its coefficients of u^0 ... u^-order."""

    mu: Diagram
    N: Fraction
    order: int
    Q: tuple[Fraction, ...]
    Z: tuple[Fraction, ...]


def q_series(mu: Diagram, N: int | Fraction, order: int) -> tuple[Fraction, ...]:
    """Q(mu, u), the product of (u+b)/(u-b) over the corner values of mu: its
    coefficients of u^0 ... u^-order."""
    N = as_fraction(N)
    tail = (Fraction(0),) * order
    for b in shapes.b_list(mu, N):
        tail = monic_product(tail, linear_fraction_series(b, b, order))
    return (Fraction(1), *tail)


def _z_of_q(q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Z = (u + 1/2) Q - u + 1/2 to one order less than q: the u-terms cancel
    because Q is monic, and z_i = q_{i+1} + q_i/2, plus 1/2 at i = 0."""
    z = [q[i + 1] + q[i] / 2 for i in range(len(q) - 1)]
    z[0] += Fraction(1, 2)
    return tuple(z)


def z_series(mu: Diagram, N: int | Fraction, order: int) -> tuple[Fraction, ...]:
    """Z(mu, u); its u^{-i} coefficient is the z^(i) eigenvalue on V(mu, .)."""
    return _z_of_q(q_series(mu, N, order + 1))


def central_series(mu: Diagram, N: int | Fraction, order: int) -> CentralSeriesPair:
    N = as_fraction(N)
    q = q_series(mu, N, order + 1)
    return CentralSeriesPair(mu, N, order, q[: order + 1], _z_of_q(q))


def _box_product(N: Fraction, order: int, values) -> tuple[Fraction, ...]:
    """(u + h)/(u - h), h = (N-1)/2, times box_factor(a) for each non-zero value
    a (box_factor(0) is exactly 1): its coefficients of u^0 ... u^-order."""
    h = (N - 1) / 2
    tail = linear_fraction_series(h, h, order)
    for a in values:
        if a:
            tail = monic_product(tail, box_factor(as_fraction(a), order))
    return (Fraction(1), *tail)


def q_series_alt(mu: Diagram, N: int | Fraction, order: int) -> tuple[Fraction, ...]:
    """The box-product form of Q(mu, u) over the contents of mu."""
    N = as_fraction(N)
    return _box_product(N, order, shapes.a_list(mu, N))


def q_k_series(k: int, N: int | Fraction, order: int, jm_values: list[Fraction]) -> tuple[Fraction, ...]:
    """The product form of Q_k(u) over the x_1..x_{k-1} eigenvalues of a path."""
    N = as_fraction(N)
    if len(jm_values) != k - 1:
        raise ValueError("need exactly the x_1..x_{k-1} eigenvalues")
    return _box_product(N, order, jm_values)


# ---------------------------------------------------------------------------
# invariant helpers used by the verification suites


def sbar_fiber_report(basis: PathBasis, k: int) -> list[dict]:
    """Per-fiber rank-1 / trace-N / PSD data for the sbar_k blocks.

    Symmetry is read off each block, the rest off the block in its own
    diagonal gauge, whose rank, trace and diagonal are the block's."""
    matrix = build_sbar_matrix(basis, k)
    out = []
    for fiber in basis.fibers(k):
        p0 = basis.paths[fiber[0]]
        if p0[k - 1] != p0[k + 1]:
            continue
        mu = p0[k - 1]
        block = RepMatrix(
            [{b: e for b, j in enumerate(fiber) if (e := matrix.entry(i, j))} for i in fiber]
        )
        where = f"in the block over {mu} on V({basis.lam}, {basis.n}) at N={basis.N}"
        gauged = _gauge({("sbar", k): block}, block.dim, where)[1]["sbar", k]
        out.append(
            {
                "mu": mu,
                "size": block.dim,
                "symmetric": block.is_symmetric(),
                "rank_le_1": gauged.rank_at_most_one(),
                "trace": SurdSum.rational(gauged.trace()),
                "diag_nonneg": all(row.get(t, 0) >= 0 for t, row in enumerate(gauged.rows)),
            }
        )
    return out


def eigenvalue_tuples(lam: Diagram, n: int, N: int | Fraction) -> list[tuple[Fraction, ...]]:
    basis = PathBasis.build(lam, n, N)
    tables = [basis.eigenvalues(k) for k in range(1, n + 1)]
    return [tuple(t[i] for t in tables) for i in range(basis.dim)]


# -- JSON forms


def surd_to_json(s: SurdSum) -> list[list]:
    return [[r, format_rational(c)] for r, c in s.terms.items()]


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
