import math
from fractions import Fraction

import pytest

from brauer import shapes
from brauer.shapes import (
    a_list,
    b_list,
    branch,
    contents,
    content_of_difference,
    enumerate_O,
    enumerate_paths,
    first_two_columns,
    in_O,
    parse_partition,
    path_counts,
)


def test_in_O():
    assert not in_O((1, 1, 1), 3, 2)  # first column too long
    assert in_O((), 2, 5)
    assert not in_O((2, 1), 4, 3)  # parity
    # the column bound counts both of the first two columns
    assert not in_O((2, 1), 3, 2)
    assert in_O((2, 1), 3, 3)


def partitions(m, cap=None):
    """All partitions of m with parts at most cap (default m), largest first part first."""
    if m == 0:
        yield ()
        return
    for first in range(min(m if cap is None else cap, m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def _filtered_O(n, Nv):
    """O(n, N) by its definition: every partition of n - 2r, filtered by the column bound."""
    return tuple(
        sorted(lam for size in range(n % 2, n + 1, 2) for lam in partitions(size) if first_two_columns(lam) <= Nv)
    )


def test_enumerate_O():
    assert enumerate_O(2, 5) == ((), (1, 1), (2,))
    assert enumerate_O(1, 1) == ((1,),)
    # (2,1) has three boxes in its first two columns, so it is out at N=2
    assert enumerate_O(3, 2) == ((1,), (3,))
    assert enumerate_O(3, 6) == ((1,), (1, 1, 1), (2, 1), (3,))
    with pytest.raises(ValueError, match="level must be non-negative"):
        enumerate_O(-1, 3)
    # below N = 1 no path leaves the empty diagram, so the walk cannot give O(n, N)
    with pytest.raises(ValueError, match="needs N >= 1"):
        enumerate_O(2, 0)


def test_enumerate_O_is_the_filtered_definition():
    for n in range(13):
        for Nv in range(1, 16):
            assert enumerate_O(n, Nv) == _filtered_O(n, Nv), (n, Nv)
    # even size <= 60 and at most 4 boxes in the first two columns: (), (1,1), (1,1,1,1),
    # and (m), (m,1), (m,1,1), (m,k) with m, k >= 2: 3 + 30 + 29 + 29 + 435 diagrams
    assert len(enumerate_O(60, 4)) == 526


def test_branch():
    assert branch((), 1, 5) == ((1,),)
    assert branch((1,), 2, 5) == ((), (1, 1), (2,))
    # at N=1 a second column is forbidden, so only the empty diagram remains
    assert branch((1,), 2, 1) == ((),)


def test_enumerate_paths():
    assert len(enumerate_paths((1,), 1, 3)) == 1
    paths = enumerate_paths((1,), 3, 3)
    assert len(paths) == 3
    middles = {p[2] for p in paths}
    assert middles == {(), (1, 1), (2,)}
    assert len(enumerate_paths((1,), 3, 1)) == 1
    with pytest.raises(ValueError):
        enumerate_paths((2, 1), 3, 2)


def _up_down_sequences(n, Nv):
    """Every sequence from the empty diagram that adds or removes one box per
    step and stays in O(k, N), by the definitions alone, keyed by its end."""

    def member(parts, k):
        while parts and parts[-1] == 0:
            parts.pop()
        d = tuple(parts)
        if any(p <= 0 for p in d) or any(a < b for a, b in zip(d, d[1:])):
            return None
        fits = len(d) + sum(p >= 2 for p in d) <= Nv and k >= sum(d) and (k - sum(d)) % 2 == 0
        return d if fits else None

    level = [((),)]
    for k in range(1, n + 1):
        longer = []
        for p in level:
            for row in range(len(p[-1]) + 1):
                for step in (1, -1):
                    parts = [*p[-1], 0]
                    parts[row] += step
                    d = member(parts, k)
                    if d is not None:
                        longer.append(p + (d,))
        level = longer
    ends = {}
    for p in sorted(level):
        ends.setdefault(p[-1], []).append(p)
    return ends


def test_enumerate_paths_matches_unpruned():
    # the paths pruned back from lam are every up-down sequence to lam
    for n in range(8):
        for Nv in range(1, 7):
            ends = _up_down_sequences(n, Nv)
            assert sorted(ends) == list(enumerate_O(n, Nv)), (n, Nv)
            for lam in enumerate_O(n, Nv):
                assert enumerate_paths(lam, n, Nv) == tuple(ends[lam]), (lam, n, Nv)


def test_every_path_step_in_O():
    for n, Nv in [(4, 3), (5, 2), (4, 7)]:
        for lam in enumerate_O(n, Nv):
            for path in enumerate_paths(lam, n, Nv):
                for k, step in enumerate(path):
                    assert in_O(step, k, Nv)


def test_path_count_recurrence_matches_enumeration():
    for n in range(7):
        for Nv in (1, 2, 3, 5, 10):
            counts = path_counts(n, Nv)
            for lam in enumerate_O(n, Nv):
                assert counts.get(lam, 0) == len(enumerate_paths(lam, n, Nv))


def test_paths_bound_is_reached_exactly_at_the_path_count(monkeypatch):
    # the pruned walk's lower bound on P never passes P: at a bound of
    # P n(n+1)/2 every path is enumerated, and at one less the walk refuses
    for n in range(7):
        for Nv in range(1, 8):
            for lam, count in path_counts(n, Nv).items():
                parts = n * (n + 1) // 2
                monkeypatch.setattr(shapes, "PATHS_MAX_PARTS", count * parts)
                assert shapes.path_count(lam, n, Nv) == count
                assert len(enumerate_paths.__wrapped__(lam, n, Nv)) == count
                monkeypatch.setattr(shapes, "PATHS_MAX_PARTS", count * parts - 1)
                with pytest.raises(ValueError, match=rf"^paths takes P n\(n\+1\)/2 <= {count * parts - 1} "):
                    enumerate_paths.__wrapped__(lam, n, Nv)


def test_path_count_is_0_outside_O():
    assert shapes.path_count((2, 1), 3, 2) == 0 and shapes.path_count((1,), 2, 3) == 0
    assert shapes.path_count((1,), 3, 3) == len(enumerate_paths((1,), 3, 3)) == 3


def test_sum_of_squares_is_double_factorial():
    # at N >= 2n the column bound never binds
    for n in range(1, 6):
        total = sum(c * c for c in path_counts(n, 2 * n).values())
        assert total == math.prod(range(1, 2 * n, 2))


def test_walk_budget_is_inclusive(monkeypatch):
    # the walk to level 10 at N = 20 takes 762 steps; the memo is bypassed
    monkeypatch.setattr(shapes, "WALK_MAX_STEPS", 762)
    assert path_counts.__wrapped__(10, 20) == path_counts(10, 20)
    monkeypatch.setattr(shapes, "WALK_MAX_STEPS", 761)
    with pytest.raises(ValueError, match="^the branching walk takes at most 761 steps, passed at level 10 of 10 at N=20$"):
        path_counts.__wrapped__(10, 20)


def test_contents():
    assert sorted(contents((3, 1))) == [-1, 0, 1, 2]
    assert content_of_difference((2,), (1,)) == 1
    assert content_of_difference((1, 1), (1,)) == -1
    assert content_of_difference((1,), (1, 1)) == -1
    with pytest.raises(ValueError):
        content_of_difference((2,), (1, 1))


def test_b_list():
    # empty diagram: single value (N-1)/2
    assert b_list((), Fraction(3)) == [Fraction(1)]
    # mu = (1), N = 3: addable contents {1, -1}, removable {0}
    assert b_list((1,), Fraction(3)) == [Fraction(-1), Fraction(0), Fraction(2)]
    # 2l+1 entries with l the number of distinct rows
    assert len(b_list((2, 1), Fraction(4))) == 5
    assert len(b_list((2, 2), Fraction(4))) == 3
    for mu in [(), (1,), (3, 2), (2, 2, 1)]:
        assert len(b_list(mu, Fraction(7))) % 2 == 1


def test_corner_values_are_exact_for_an_int_N():
    for values, want in ((b_list((1,), 3), [-1, 0, 2]), (a_list((2,), 3), [1, 2])):
        assert values == want and all(type(v) is Fraction for v in values)
    for mu in [(), (1,), (2,), (1, 1), (2, 1)]:
        assert all(type(v) is Fraction for v in b_list(mu, 3) + a_list(mu, 3))


def test_parse_partition_and_json():
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert parse_partition("2,1") == (2, 1)
    with pytest.raises(ValueError):
        parse_partition("1,2")
