"""Degrade ground-truth tracking into broadcast-like discrete frames.

Frames are sampled on a fixed period anchored at zero, the first and last
``trim`` sampled frames are discarded, and each sampled frame keeps
only the players within the visibility radius of the ball (inclusive).
Sampled frames snap to the nearest native frame, so every visible position is
an exact copy of ground truth; identities are erased.
"""

from __future__ import annotations

import math
from itertools import compress

from .geometry import GRID_TOL, MalformedInputError, ObservationFrame, PitchPoint, nearest_time_index
from .ingest import SOURCE_SIMULATED, DiscreteMatchRecord, MatchHalf


def ground_truth_at(half: MatchHalf, t: float) -> int:
    """The row of ``half.frames`` nearest to ``t`` (ties go to the earlier row).

    Valid for any time from the start of the half (zero) up to the last
    native frame; times below the first frame snap forward to it.  Other
    times raise MalformedInputError naming the half.
    """
    times = half.times
    if not times or t < -GRID_TOL or t > times[-1] + GRID_TOL:
        raise MalformedInputError(
            f"half {half.half_id}: time {t} outside half span [0, {times[-1] if times else 0}]"
        )
    return nearest_time_index(times, t)


def degrade(half: MatchHalf, period: float, radius: float, trim: int) -> DiscreteMatchRecord:
    """Sample every ``period`` seconds, drop ``trim`` sampled frames at each
    end, and keep the players within ``radius`` metres of the ball (settings
    ``PipelineConfig.validate`` checks).

    An empty half, or one too short to keep a frame after trimming, raises
    MalformedInputError naming the half.
    """
    if not half.frames:
        raise MalformedInputError(f"half {half.half_id}: cannot degrade an empty half")
    t_first, t_last = half.times[0], half.times[-1]
    if t_last - t_first <= 2 * trim * period:
        raise MalformedInputError(
            f"half {half.half_id}: half too short: span {t_last - t_first:.1f}s cannot absorb "
            f"2x{trim} trimmed frames at {period}s"
        )
    k_start = max(trim, math.ceil(t_first / period - GRID_TOL))
    k_end = math.floor((t_last - trim * period) / period + GRID_TOL)
    if k_end < k_start:
        raise MalformedInputError(
            f"half {half.half_id}: no frame to keep: no multiple of the {period}s "
            f"sample period lies in the span kept after trimming"
        )
    table = half.frames
    frames = []
    for k in range(k_start, k_end + 1):
        t = k * period
        i = ground_truth_at(half, t)
        (bx, by), *row = table.cells[i].tolist()
        visible = tuple(
            (tag, PitchPoint(x, y))
            for (x, y), tag in compress(zip(row, table.tags), table.used[i, 1:].tolist())
            if math.hypot(x - bx, y - by) <= radius
        )
        frames.append(ObservationFrame(time=t, ball=PitchPoint(bx, by), visible=visible))
    return DiscreteMatchRecord(
        half_id=half.half_id,
        frames=frames,
        source=SOURCE_SIMULATED,
        defends_left=dict(half.defends_left),
    )

