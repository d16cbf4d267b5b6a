"""Diagram-composition kernel.

A diagram on 2n vertices is a fixed-point-free involution stored as a tuple
``p`` of length 2n: vertex v is matched with p[v].  Vertices 0..n-1 are the
top row, n..2n-1 the bottom row.  Composition stacks the first diagram on top
of the second (bottom of the first glued to the top of the second), removes
closed loops and returns the reduced matching together with the loop count.
"""

from __future__ import annotations


def compose_pairings(p1: tuple[int, ...], p2: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """Compose two involutions of size 2n; returns (matching, loop count)."""
    two_n = 2 * n
    result = [-1] * two_n
    visited = [False] * n  # middle slots: bottoms of p1 glued to tops of p2

    for start in range(two_n):
        if result[start] >= 0:
            continue
        side = 1 if start < n else 2
        v = start
        while True:
            if side == 1:
                w = p1[v]
                if w < n:
                    end = w
                    break
                visited[w - n] = True
                side, v = 2, w - n
            else:
                w = p2[v]
                if w >= n:
                    end = w
                    break
                visited[w] = True
                side, v = 1, n + w
        result[start] = end
        result[end] = start

    loops = 0
    for m in range(n):
        if visited[m]:
            continue
        loops += 1
        cur = m
        while not visited[cur]:
            visited[cur] = True
            m2 = p2[cur]
            visited[m2] = True
            cur = p1[n + m2] - n

    return tuple(result), loops
