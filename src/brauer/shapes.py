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

`enumerate_paths` prunes backwards from lam and expands forwards from the
empty diagram.  Being one box apart is symmetric: mu in O(k, N) is in
`branch(nu, k, N)` exactly when nu in O(k + 1, N) is in `branch(mu, k + 1,
N)`.  Keep, at each level, the diagrams from which lam is reached by steps
inside the level sets: at level n that is lam alone, and at level k it is
the union of `branch(nu, k, N)` over the diagrams nu kept at level k + 1.
From a kept mu the steps that still reach lam go to exactly the kept nu it
was found from.  A path to lam takes only such steps, and every chain of
them from the empty diagram is a path to lam.  Taking each level's kept
diagrams in sorted order keeps every step's list sorted, so the paths come
out already in path-lex order and the final sort is one pass.

The pruning also counts each kept mu's chains to lam, summing the counts
of the kept nu it was found from.  For N >= 1 the sum over a level is at
most the number P of paths to lam, and never falls going down a level:
each kept diagram lies on a path from the empty diagram (the reachability
argument), so distinct chains extend back to distinct paths, and each kept
nu above level 0 has a kept diagram one box below it.  The sum is 1 at
level n and P at level 0, so a bound on P is checked at every level.

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


# rep_sweep leaves 137 entries here, the n = 6 levels at N = 4 and 7 leave 102:
# `path_counts` steps forward from each diagram, `enumerate_paths` backward
@lru_cache(maxsize=512)
def branch(mu: Diagram, k: int, N: int) -> tuple[Diagram, ...]:
    """All members of O(k, N) differing from mu by one box, sorted."""
    candidates = [d for _, d in add_corners(mu)] + [d for _, d in remove_corners(mu)]
    return tuple(sorted(d for d in candidates if in_O(d, k, N)))


# The most steps (edges mu -> nu, each one big-integer addition) that
# `path_counts` takes.  A step costs 3-5 us whatever the level and N: the
# walk to level 30 at N = 60 takes 489,945 steps in 1.4 s, to level 1000 at
# N = 2 501,499 steps in 2.7 s, and to level 100 at N = 6 2,495,232 steps in
# 7.3 s, although the counts' bit lengths differ 15-fold per step between
# these; at N = 6 it passed 1.9*10^7 steps at level 169 after 60 s (README).
WALK_MAX_STEPS = 10**6


@lru_cache(maxsize=64)
def path_counts(n: int, N: int) -> dict[Diagram, int]:
    """Number of up-down paths from the empty diagram to each member of O(n, N).

    Raises ValueError once the walk passes WALK_MAX_STEPS steps."""
    counts: dict[Diagram, int] = {EMPTY: 1}
    steps = 0
    for k in range(1, n + 1):
        new: dict[Diagram, int] = {}
        for mu, c in counts.items():
            nus = branch(mu, k, N)
            steps += len(nus)
            if steps > WALK_MAX_STEPS:
                raise ValueError(
                    f"the branching walk takes at most {WALK_MAX_STEPS} steps, passed at level {k} of {n} at N={N}"
                )
            for nu in nus:
                new[nu] = new.get(nu, 0) + c
        counts = new
    return counts


def enumerate_O(n: int, N: int) -> tuple[Diagram, ...]:
    """O(n, N) in the deterministic (lexicographic) order: the diagrams the
    branching walk reaches at level n (module docstring)."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if N < 1:
        raise ValueError(f"O(n, N) is read off the branching walk, which needs N >= 1, got N={N}")
    return tuple(sorted(path_counts(n, N)))


# `paths` prints P paths of n + 1 diagrams, at most k parts at step k, so
# P n(n+1)/2 parts at most, and `rep` prints them as its basis (README).
PATHS_MAX_PARTS = 2 * 10**7


def _pruned_walk(lam: Diagram, n: int, N: int) -> tuple[list[dict[Diagram, list[Diagram]]], int]:
    """The steps below level n that still reach lam in O(n, N), and the number P
    of paths to lam; raises once a lower bound on P passes PATHS_MAX_PARTS."""
    parts = n * (n + 1) // 2
    # steps[k][mu]: the diagrams at level k + 1 one box from mu that still
    # reach lam, in sorted order; counts[mu]: the chains from mu to lam
    steps: list[dict[Diagram, list[Diagram]]] = []
    counts = {lam: 1}
    for k in range(n, -1, -1):
        low = sum(counts.values())
        if low * parts > PATHS_MAX_PARTS:
            raise ValueError(f"paths takes P n(n+1)/2 <= {PATHS_MAX_PARTS} for P paths, got P >= {low}, n={n}")
        if k:
            below: dict[Diagram, list[Diagram]] = {}
            for nu in sorted(counts):
                for mu in branch(nu, k - 1, N):
                    below.setdefault(mu, []).append(nu)
            steps.append(below)
            counts = {mu: sum(counts[nu] for nu in nus) for mu, nus in below.items()}
    return steps[::-1], counts.get(EMPTY, 0)


def path_count(lam: Diagram, n: int, N: int) -> int:
    """The number of up-down paths to lam, 0 outside O(n, N); raises as `enumerate_paths` does."""
    return _pruned_walk(lam, n, N)[1] if in_O(lam, n, N) else 0


@lru_cache(maxsize=256)
def enumerate_paths(lam: Diagram, n: int, N: int) -> tuple[Path, ...]:
    """All up-down paths from the empty diagram to lam, in path-lex order.

    Paths include the starting empty diagram, so each has n+1 entries.
    Raises ValueError when P n(n+1)/2 > PATHS_MAX_PARTS for their number P.
    """
    if not in_O(lam, n, N):
        raise ValueError(f"{lam} is not in O({n}, {N})")
    steps, count = _pruned_walk(lam, n, N)
    # every diagram a path reaches is kept, so a key of the next step
    paths: list[Path] = [(EMPTY,)] if count else []
    for step in steps:
        paths = [p + (nu,) for p in paths for nu in step[p[-1]]]
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
