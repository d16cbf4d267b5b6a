"""Exact rank over Q of integer rows, by fraction-free elimination.

Two callers read it: the tensor oracle's `tensor.centralizer_rank`, whose
rows are the 0/1 action matrices of the diagrams, and the certificate of
normal forms at small weight, whose rows are the `affine.pi_m` images of
regular monomials with N specialized to an integer.  Neither `brauer` nor
`brauer.affine` imports it.
"""

from __future__ import annotations

import math
from typing import Iterable


def integer_rank(rows: Iterable[dict]) -> int:
    """Rank over Q of the span of sparse integer rows, each a dict from
    orderable column keys to non-zero ints, which is reduced in place.

    Against a pivot p with lead entry a, a row r becomes a*r - r[lead]*p and
    is divided by its content (the gcd of its entries); a != 0, so the span
    over Q, hence the rank, is unchanged.  The row is scaled only when a != 1,
    and only p's keys change.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                # a copy sized to the row: the in-place updates leave the
                # working dict's table far larger than its entries
                pivots[lead] = dict(row)
                break
            a, b = pivot[lead], row[lead]
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in pivot.items():
                # b v != 0, so a key new to the row never cancels
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            content = math.gcd(*row.values())
            if content > 1:
                for k in row:
                    row[k] //= content
    return len(pivots)
