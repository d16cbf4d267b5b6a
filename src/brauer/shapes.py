"""Young diagrams, the index sets O(n, N), and up-down paths.

Diagrams are tuples of weakly decreasing positive parts; the empty tuple is
the empty diagram.  O(n, N) consists of diagrams with n - 2r boxes (r >= 0)
and at most N boxes in the first two columns; its members label the
irreducible representations at level n.  An up-down path is a sequence
starting at the empty diagram that adds or removes one box per step while
staying inside the level sets; paths index the canonical basis vectors.

O(n, N) is read off the branching walk `path_counts`: for N >= 1 the
diagrams it reaches at level n are exactly O(n, N).  The walk only visits
members, since `branch` keeps only members of the next level.  Conversely,
take lam in O(n, N) with |lam| = n - 2r.  Add its boxes in any order that
keeps a Young diagram: each sub-diagram has no more boxes in its first two
columns than lam, so each is a member of its level.  Then remove a corner of
lam and add it back, r times (for lam = () step through (1), a member when
N >= 1).  So every member lies on a path from the empty diagram, and every
edge of the walk lies on some path.  The x_k spectrum over all paths is
therefore the set of step eigenvalues over the walk's edges into level k.

Tuple comparison gives the deterministic order used everywhere: comparing
part lists elementwise with the shorter-prefix-first rule, which coincides
with comparing zero-padded part lists since parts are positive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

Diagram = tuple[int, ...]
Path = tuple[Diagram, ...]

EMPTY: Diagram = ()


def check_diagram(parts: Iterable[int]) -> Diagram:
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def first_two_columns(lam: Diagram) -> int:
    col1 = len(lam)
    col2 = sum(1 for p in lam if p >= 2)
    return col1 + col2


def in_O(lam: Diagram, n: int, N: int) -> bool:
    """Membership in O(n, N): column bound plus n - |lam| non-negative even."""
    size = sum(lam)
    return first_two_columns(lam) <= N and n - size >= 0 and (n - size) % 2 == 0


def add_corners(lam: Diagram) -> list[tuple[int, Diagram]]:
    """Boxes that may be added: list of (content, resulting diagram)."""
    out = []
    for row in range(len(lam) + 1):
        here = lam[row] if row < len(lam) else 0
        above = lam[row - 1] if row > 0 else None
        if above is None or here < above:
            new = list(lam)
            if row < len(lam):
                new[row] += 1
            else:
                new.append(1)
            content = here + 1 - (row + 1)  # box lands in column here+1 of row+1
            out.append((content, tuple(new)))
    return out


def remove_corners(lam: Diagram) -> list[tuple[int, Diagram]]:
    """Boxes that may be removed: list of (content, resulting diagram)."""
    out = []
    for row in range(len(lam)):
        below = lam[row + 1] if row + 1 < len(lam) else 0
        if lam[row] > below:
            new = list(lam)
            new[row] -= 1
            if new[-1] == 0:
                new.pop()
            content = lam[row] - (row + 1)
            out.append((content, tuple(new)))
    return out


# rep_sweep leaves 93 entries here, the n = 6 levels at N = 4 and 7 leave 53
@lru_cache(maxsize=512)
def branch(mu: Diagram, k: int, N: int) -> tuple[Diagram, ...]:
    """All members of O(k, N) differing from mu by one box, sorted."""
    candidates = [d for _, d in add_corners(mu)] + [d for _, d in remove_corners(mu)]
    return tuple(sorted(d for d in candidates if in_O(d, k, N)))


@lru_cache(maxsize=None)
def path_counts(n: int, N: int) -> dict[Diagram, int]:
    """Number of up-down paths from the empty diagram to each member of O(n, N)."""
    counts: dict[Diagram, int] = {EMPTY: 1}
    for k in range(1, n + 1):
        new: dict[Diagram, int] = {}
        for mu, c in counts.items():
            for nu in branch(mu, k, N):
                new[nu] = new.get(nu, 0) + c
        counts = new
    return counts


@lru_cache(maxsize=None)
def enumerate_O(n: int, N: int) -> tuple[Diagram, ...]:
    """O(n, N) in the deterministic (lexicographic) order: the diagrams the
    branching walk reaches at level n (module docstring)."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if N < 1:
        raise ValueError(f"O(n, N) is read off the branching walk, which needs N >= 1, got N={N}")
    return tuple(sorted(path_counts(n, N)))


@lru_cache(maxsize=None)
def enumerate_paths(lam: Diagram, n: int, N: int) -> tuple[Path, ...]:
    """All up-down paths from the empty diagram to lam, in path-lex order.

    Paths include the starting empty diagram, so each has n+1 entries.
    """
    if not in_O(lam, n, N):
        raise ValueError(f"{lam} is not in O({n}, {N})")
    # steps[k][mu]: the level-(k+1) neighbours of the level-k diagram mu,
    # pruned backwards to those from which lam is still reachable
    steps: list[dict[Diagram, tuple[Diagram, ...]]] = []
    level = {EMPTY}
    for k in range(1, n + 1):
        steps.append({mu: branch(mu, k, N) for mu in level})
        level = {nu for nus in steps[-1].values() for nu in nus}
    keep = {lam}
    for k in range(n - 1, -1, -1):
        steps[k] = {mu: tuple(nu for nu in nus if nu in keep) for mu, nus in steps[k].items()}
        keep = {mu for mu, nus in steps[k].items() if nus}
    paths: list[Path] = [(EMPTY,)]
    for k in range(n):
        paths = [p + (nu,) for p in paths for nu in steps[k][p[-1]]]
    return tuple(sorted(paths))


def contents(lam: Diagram) -> list[int]:
    """Multiset of box contents j - i (1-based row i, column j)."""
    return [j - i for i, row in enumerate(lam, start=1) for j in range(1, row + 1)]


def content_of_difference(lam: Diagram, mu: Diagram) -> int:
    """Content of the single box by which lam and mu differ."""
    big, small = (lam, mu) if sum(lam) > sum(mu) else (mu, lam)
    for content, shrunk in remove_corners(big):
        if shrunk == small:
            return content
    raise ValueError(f"{lam} and {mu} do not differ by one box")


def distinct_rows(mu: Diagram) -> int:
    return len(set(mu))


def b_list(mu: Diagram, N: Fraction) -> list[Fraction]:
    """The 2l+1 numbers (N-1)/2 + c over addable corners and -(N-1)/2 - d over
    removable corners of mu, in increasing order; l is the number of pairwise
    distinct rows of mu.
    """
    h = Fraction(N - 1, 2)
    values = [h + c for c, _ in add_corners(mu)]
    values += [-h - d for d, _ in remove_corners(mu)]
    if len(values) != 2 * distinct_rows(mu) + 1:
        raise AssertionError(f"{len(values)} corner values for {mu}, expected 2l+1")
    return sorted(values)


def a_list(mu: Diagram, N: Fraction) -> list[Fraction]:
    """(N-1)/2 + content, over all boxes of mu (the alternate product form)."""
    h = Fraction(N - 1, 2)
    return [h + e for e in contents(mu)]


# ---------------------------------------------------------------------------
# JSON forms


def path_to_json(path: Path) -> list[list[int]]:
    return [list(step) for step in path]


def parse_partition(text: str) -> Diagram:
    """Command-line form: comma-separated parts; "" or "0" is the empty diagram."""
    text = text.strip()
    if text in ("", "0"):
        return EMPTY
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"parts must be comma-separated integers, got {text!r}")
    return check_diagram(parts)
