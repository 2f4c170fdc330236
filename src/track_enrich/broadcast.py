"""Degrade ground-truth tracking into broadcast-like discrete frames.

Frames are sampled on a fixed period anchored at zero, the first and last
``trim_frames`` sampled frames are discarded, and each sampled frame keeps
only the players within the visibility radius of the ball (inclusive).
Sampled frames snap to the nearest native frame, so every visible position is
an exact copy of ground truth; identities are erased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .geometry import MalformedInputError, ObservationFrame, PitchPoint, nearest_time_index
from .ingest import SOURCE_SIMULATED, DiscreteMatchRecord, MatchHalf

_TOL = 1e-9
OUTFIELD_TOTAL = 20  # both teams' outfielders


@dataclass(frozen=True)
class DegradeConfig:
    sample_period: float = 1.0
    visibility_radius: float = 30.0
    trim_frames: int = 30

    def __post_init__(self):
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.visibility_radius <= 0:
            raise ValueError("visibility_radius must be positive")
        if self.trim_frames < 0:
            raise ValueError("trim_frames must be non-negative")


def ground_truth_at(half: MatchHalf, t: float) -> int:
    """The row of ``half.frames`` nearest to ``t`` (ties go to the earlier row).

    Valid for any time from the start of the half (zero) up to the last
    native frame; times below the first frame snap forward to it.  Other
    times raise MalformedInputError naming the half.
    """
    times = half.times
    if not times or t < -_TOL or t > times[-1] + _TOL:
        raise MalformedInputError(
            f"half {half.half_id}: time {t} outside half span [0, {times[-1] if times else 0}]"
        )
    return nearest_time_index(times, t)


def degrade(half: MatchHalf, cfg: DegradeConfig) -> DiscreteMatchRecord:
    """Sample, trim, and restrict visibility to within radius of the ball.

    An empty half, or one too short to keep a frame after trimming, raises
    MalformedInputError naming the half.
    """
    if not half.frames:
        raise MalformedInputError(f"half {half.half_id}: cannot degrade an empty half")
    t_first, t_last = half.times[0], half.times[-1]
    if t_last - t_first <= 2 * cfg.trim_frames * cfg.sample_period:
        raise MalformedInputError(
            f"half {half.half_id}: half too short: span {t_last - t_first:.1f}s cannot absorb "
            f"2x{cfg.trim_frames} trimmed frames at {cfg.sample_period}s"
        )
    k_start = max(cfg.trim_frames, math.ceil(t_first / cfg.sample_period - _TOL))
    k_end = math.floor((t_last - cfg.trim_frames * cfg.sample_period) / cfg.sample_period + _TOL)
    if k_end < k_start:
        raise MalformedInputError(
            f"half {half.half_id}: no frame to keep: no multiple of the {cfg.sample_period}s "
            f"sample period lies in the span kept after trimming"
        )
    table, radius = half.frames, cfg.visibility_radius
    frames = []
    for k in range(k_start, k_end + 1):
        t = k * cfg.sample_period
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


@dataclass(frozen=True)
class DegradeStats:
    n_frames: int
    mean_visible_outfield: float
    n_predictions: int  # hidden outfielder slots summed over frames


def degrade_stats(record: DiscreteMatchRecord) -> DegradeStats:
    n_frames = len(record.frames)
    visible = [
        sum(1 for tag, _ in fr.visible if not tag.is_goalkeeper) for fr in record.frames
    ]
    total_visible = sum(visible)
    return DegradeStats(
        n_frames=n_frames,
        mean_visible_outfield=total_visible / n_frames if n_frames else 0.0,
        n_predictions=OUTFIELD_TOTAL * n_frames - total_visible,
    )
