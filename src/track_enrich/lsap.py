"""Rectangular linear sum assignment by shortest augmenting paths.

A pure-Python port of the solver behind ``scipy.optimize.linear_sum_assignment``
(Crouse, "On implementing 2D rectangular assignment algorithms", IEEE TAES
2016), kept step for step because the steps decide which of several equally
cheap matchings comes back: a tall matrix is transposed, each path scans the
free columns from a list filled in descending order and swap-removes the one
it picks, and among columns at equal path cost a free one wins.
"""

from __future__ import annotations

from math import inf
from typing import Sequence


def linear_sum_assignment(cost: Sequence[Sequence[float]]) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-total-cost matching, rows in increasing order.

    Matches every row, or every column when there are fewer columns.  Raises
    ValueError for NaN or -inf entries, or when every full matching costs +inf.
    """
    nr = len(cost)
    nc = len(cost[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = list(zip(*cost))
        nr, nc = nc, nr
    # a NaN or -inf entry makes the left-to-right sum NaN or -inf, so only
    # such a sum (or one overflowed to -inf) needs the entries scanned
    total = sum(map(sum, cost))
    if (total != total or total == -inf) and any(
        c != c or c == -inf for row in cost for c in row
    ):
        raise ValueError("cost matrix contains NaN or -inf entries")

    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row ``cur`` to a free column
        spc = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            index, lowest = -1, inf
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                rows_seen.append(i)
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        # update the duals, then flip the matches along the path
        u[cur] += min_val
        for i in rows_seen:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row
