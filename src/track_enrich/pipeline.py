"""Orchestration helpers: from a discrete record to queryable full-pitch snapshots."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

# enrich runs the assigner through this module, where perfbench/tracing.py wraps it
from .assigner import ball_grid, build_trajectories  # noqa: F401
from .forecaster import ForecastModel
from .geometry import EnrichedFrame, EnrichedPlayer, PitchPoint, Trajectory, lerp
from .ingest import DiscreteMatchRecord
from .interpolator import ContinuousPath, VelocityField, compute_velocity_field, position_at


@dataclass
class PathSet:
    """Continuous paths for a whole half, in the assigner's order
    (``TrackedTeams.in_order``), plus the shared velocity field, and the
    record they were built from."""

    paths: list[ContinuousPath]
    field: VelocityField
    record: DiscreteMatchRecord

    def ball_at(self, t: float) -> PitchPoint:
        """Ball position at ``t``: the recorded ball at a frame time, interpolated
        between frames, and the first or last ball outside the record's span."""
        frames = self.record.frames
        i = bisect_right(frames, t, key=attrgetter("time"))  # frames[i - 1] is at or before t
        if i == 0:
            return frames[0].ball
        a = frames[i - 1]
        if a.time == t or i == len(frames):
            return a.ball
        b = frames[i]
        return lerp(a.ball, a.time, b.ball, b.time, t)


def build_paths(
    record: DiscreteMatchRecord,
    model: ForecastModel,
    trajectories: Sequence[Trajectory],
    *,
    alpha: float,
) -> PathSet:
    """Wrap a half's trajectories, in the assigner's order, as continuous paths;
    the outfield ones make the velocity field."""
    ball = ball_grid(record, model.grid_step)
    outfield = [t for t in trajectories if not t.tag.is_goalkeeper]
    return PathSet(
        paths=[ContinuousPath(t, model, ball) for t in trajectories],
        field=compute_velocity_field(outfield, alpha, model.grid_step),
        record=record,
    )


def seconds_to_nearest_observation(traj: Trajectory, t: float) -> float:
    """Time from ``t`` to the closest real observation, forwards or backwards.

    Invented kickoff seeds do not count; a trajectory that never received an
    observation yields infinity.
    """
    times = traj.times
    lo = 1 if traj.seeded else 0
    i = bisect_right(times, t, lo)
    best = math.inf
    if i > lo:
        best = t - times[i - 1]
    if i < len(times):
        best = min(best, times[i] - t)
    return best


def snapshot_at(paths: PathSet, t: float) -> tuple[EnrichedFrame, list[float]]:
    """Full 22-player snapshot at ``t`` plus each player's occlusion age.

    Players are ordered home outfield, home keeper, away outfield, away
    keeper; positions at recorded trajectory times are exact copies of the
    observations and carry ``observed`` provenance.
    """
    players: list[EnrichedPlayer] = []
    ages: list[float] = []
    for path in paths.paths:
        traj = path.trajectory
        observed = traj.observed_at(t)
        pos = position_at(path, paths.field, t)
        players.append(
            EnrichedPlayer(
                tag=traj.tag,
                position=pos,
                provenance="observed" if observed else "estimated",
            )
        )
        ages.append(seconds_to_nearest_observation(traj, t))
    frame = EnrichedFrame(time=t, ball=paths.ball_at(t), players=tuple(players))
    return frame, ages


def enrich_frames(
    paths: PathSet, *, period: float = 1.0
) -> list[EnrichedFrame]:
    """Snapshots on a fixed grid spanning the record (used by the enrich step)."""
    t0, t1 = paths.record.frames[0].time, paths.record.frames[-1].time
    k0 = math.ceil(t0 / period - 1e-9)
    k1 = math.floor(t1 / period + 1e-9)
    return [snapshot_at(paths, k * period)[0] for k in range(k0, k1 + 1)]
