"""What the forecaster fit trains on: the truth table's columns on the grid.

``train`` hands ``forecaster.fit`` one ``TrainingHalf`` per truth half: the
half's outfield columns as ``ColumnTrack``s, built one at a time as the fit
iterates them, and its ball column.  ``resample_column`` puts a column on the
forecast grid with numpy, float for float as ``forecaster.GridWalk`` and the
reference ``tests/oracles.py:resample_to_grid`` do point by point.  The fit
pools every track's grid displacements (``grid_segments``) and stacks their
rows into one design per stage (``stacked_rows``, ``design``, ``fill_lags``).

Only ``train`` imports this module, so it loads numpy at the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as windows

from .geometry import GRID_TOL
from .ingest import TruthTable


@dataclass(frozen=True, slots=True)
class ColumnTrack:
    """One column of positions: strictly increasing ``times`` and their
    ``(n, 2)`` ``cells``."""

    times: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


# A half's outfield tracks (iterated once per fit) and its ball track.
TrainingHalf = tuple[Iterable[ColumnTrack], ColumnTrack]


class _OutfieldColumns:
    """A half's outfield columns of two or more points as column tracks, each
    built from the truth table as it is iterated, so a fit holds one at a time.
    Like the list they stand for, they can be iterated more than once."""

    def __init__(self, table: TruthTable, times: np.ndarray):
        self.table, self.times = table, times

    def __iter__(self):
        tab = self.table
        for j, tag in enumerate(tab.tags, start=1):
            on = tab.used[:, j]
            if not tag.is_goalkeeper and on.sum() >= 2:
                yield ColumnTrack(self.times[on], tab.cells[on, j])


def truth_columns(table: TruthTable) -> TrainingHalf:
    """What the fit reads of one truth half: its outfield columns, and its ball
    column copied out, so the table goes with the outfield columns."""
    times = np.array(table.times)
    return _OutfieldColumns(table, times), ColumnTrack(times, table.cells[:, 0].copy())


def resample_column(track: ColumnTrack, grid_step: float) -> tuple[int, np.ndarray]:
    """The reference resampler (``tests/oracles.py``) over a column: the first
    grid node and the ``(m, 2)`` values, float for float, one ufunc a step."""
    q = track.times / grid_step
    k_first = math.ceil(q[0] - GRID_TOL)
    ks = np.arange(k_first, math.floor(q[-1] + GRID_TOL) + 1, dtype=float)
    # as the reference walks: from time 0, the last later time at or before node k
    i = np.searchsorted(q[1:], ks + GRID_TOL, side="right")
    miss = np.flatnonzero((np.abs(q[i] - ks) > GRID_TOL) & (i + 1 < len(q)))  # between two times
    values, i = track.cells[i], i[miss]
    a, ta, b, tb = values[miss], track.times[i], track.cells[i + 1], track.times[i + 1]
    f = ((ks[miss] * grid_step - ta) / (tb - ta))[:, None]  # as geometry.lerp
    values[miss] = a + f * (b - a)
    return k_first, values


def grid_segments(
    halves: Iterable[TrainingHalf], grid_step: float, n_exog: int
) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray, list[float], int]]]:
    """The pooled grid displacements of every track and axis, and per track and
    axis its segment: (start, stop) in the pool, exog-lag matrix, ball
    displacements and offset.  Row i of the exog matrix holds the ball lags
    that ``armax_recursion`` reads at step i from the ball displacements and
    offset, as a view of the ball's zero-padded displacements; each track must
    lie within its ball's grid."""
    pool, segments, start = [], [], 0
    for tracks, ball in halves:
        ball_k, ball_grid = resample_column(ball, grid_step)
        ball_d = np.diff(ball_grid, axis=0).T
        # per axis, window j: the ball's displacements ending at node ball_k + j, j - 1, ...
        pad = np.zeros(n_exog)
        lags = [windows(np.concatenate([pad, d]), n_exog)[:, ::-1] for d in ball_d]
        ball_d = ball_d.tolist()
        for track in tracks:
            if len(track) < 2:
                continue
            k, grid = resample_column(track, grid_step)
            if len(grid) < 3:
                continue
            # displacement i spans the grid interval ending at k + 1 + i
            lo, hi = k + 1 - ball_k, k + len(grid) - ball_k
            if lo < 0 or hi > len(lags[0]):
                raise ValueError("a training track leaves its half's ball grid")
            for axis, d in enumerate(np.diff(grid, axis=0).T):
                pool.append(d)
                segments.append((start, start + len(d), lags[axis][lo:hi], ball_d[axis], lo - 1))
                start += len(d)
    return np.concatenate(pool or [np.empty(0)]), segments


def stacked_rows(segments: list, t0: int) -> list:
    """Each segment longer than ``t0`` with the slice of its rows in a design
    stacked over them in order, one row per displacement after its first t0."""
    out, row = [], 0
    for seg in segments:
        if seg[1] - seg[0] > t0:
            out.append((seg, slice(row, row + seg[1] - seg[0] - t0)))
            row = out[-1][1].stop
    return out


def fill_lags(x: np.ndarray, stacked: list, t0: int, col: int, lags: int, pool: np.ndarray) -> None:
    """Write lags 1 to ``lags`` of the pooled series (the displacements, or
    the residuals) into columns ``col`` on of each stacked segment's rows."""
    for (a, b, *_), rows in stacked:
        for i in range(1, lags + 1):
            x[rows, col + i - 1] = pool[a + t0 - i : b - i]


def design(
    pool: np.ndarray, stacked: list, t0: int, p: int, q: int, n_exog: int
) -> tuple[np.ndarray, np.ndarray]:
    """The stacked design [1, d lags, e lags, g lags] and target d[t0:] of the
    stacked segments; the caller fills the e-lag columns."""
    n = stacked[-1][1].stop
    x, y = np.empty((n, 1 + p + q + n_exog)), np.empty(n)
    x[:, 0] = 1.0
    fill_lags(x, stacked, t0, 1, p, pool)
    for (a, b, g, *_), rows in stacked:
        x[rows, 1 + p + q :] = g[t0:]
        y[rows] = pool[a + t0 : b]
    return x, y
