"""Diagram-composition kernel.

A diagram on 2n vertices is a fixed-point-free involution stored as a tuple
``p`` of length 2n: vertex v is matched with p[v].  Vertices 0..n-1 are the
top row, n..2n-1 the bottom row.  Composition stacks the first diagram on top
of the second (bottom of the first glued to the top of the second), removes
closed loops and returns the reduced matching together with the loop count.

Middle slot m is bottom vertex n+m of p1 glued to top vertex m of p2.  Three
passes mark the slots they cross: (1) each unmatched top vertex of p1 copies a
top-top edge or walks down through the slots to a bottom vertex of p2 or back
to the top; (2) each still unmatched bottom vertex of p2 walks up through the
slots to another bottom vertex, as every top vertex is matched; (3) only if a
slot is left unmarked, the closed loops through the unmarked slots are walked
and counted.
"""

from __future__ import annotations


def compose_pairings(p1: tuple[int, ...], p2: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """Compose two involutions of size 2n; returns (matching, loop count)."""
    result = [-1] * (2 * n)
    visited = [False] * n  # middle slots

    for start in range(n):
        if result[start] >= 0:
            continue
        w = p1[start]
        while w >= n:
            m = w - n
            visited[m] = True
            w = p2[m]
            if w >= n:
                break
            visited[w] = True
            w = p1[n + w]
        result[start], result[w] = w, start

    for start in range(n, 2 * n):
        if result[start] >= 0:
            continue
        w = p2[start]
        while w < n:
            visited[w] = True
            m = p1[n + w] - n
            visited[m] = True
            w = p2[m]
        result[start], result[w] = w, start

    loops = 0
    if not all(visited):
        for m in range(n):
            if not visited[m]:
                loops += 1
                while not visited[m]:
                    visited[m] = True
                    m2 = p2[m]
                    visited[m2] = True
                    m = p1[n + m2] - n

    return tuple(result), loops
