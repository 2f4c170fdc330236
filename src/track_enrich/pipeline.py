"""Orchestration helpers: from a discrete record to queryable full-pitch snapshots."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .assigner import TrackedTeams, build_trajectories
from .forecaster import ForecastModel
from .geometry import (
    AWAY,
    HOME,
    EnrichedFrame,
    EnrichedPlayer,
    PitchPoint,
    Trajectory,
)
from .ingest import DiscreteMatchRecord
from .interpolator import ContinuousPath, VelocityField, compute_velocity_field, position_at


@dataclass
class PathSet:
    """Continuous paths for a whole half plus the shared velocity field."""

    tracked: TrackedTeams
    outfield: dict[str, list[ContinuousPath]]
    keepers: dict[str, ContinuousPath]
    field: VelocityField
    ball_track: Trajectory

    def ball_at(self, t: float) -> PitchPoint:
        """Ball position at ``t``: recorded when available, else interpolated."""
        times, points = self.ball_track.times, self.ball_track.points
        exact = self.ball_track.point_at(t)
        if exact is not None:
            return exact
        if t <= times[0]:
            return points[0]
        if t >= times[-1]:
            return points[-1]
        i = bisect_right(times, t) - 1
        f = (t - times[i]) / (times[i + 1] - times[i])
        a, b = points[i], points[i + 1]
        return PitchPoint(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))


def build_paths(
    record: DiscreteMatchRecord, model: ForecastModel, *, alpha: float = 0.5
) -> PathSet:
    """Assign trajectories and wrap them as continuous paths."""
    tracked = build_trajectories(record, model)
    field = compute_velocity_field(tracked.all_outfield(), alpha, model.grid_step)
    ball_track = Trajectory(tag=None)  # type: ignore[arg-type]
    for fr in record.frames:
        ball_track.append(fr.time, fr.ball)
    outfield = {
        team: [ContinuousPath(t, model, tracked.ball) for t in tracked.outfield[team]]
        for team in (HOME, AWAY)
    }
    keepers = {
        team: ContinuousPath(tracked.keepers[team], model, tracked.ball)
        for team in (HOME, AWAY)
    }
    return PathSet(
        tracked=tracked,
        outfield=outfield,
        keepers=keepers,
        field=field,
        ball_track=ball_track,
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
    for team in (HOME, AWAY):
        for path in [*paths.outfield[team], paths.keepers[team]]:
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
    t0, t1 = paths.ball_track.times[0], paths.ball_track.times[-1]
    k0 = math.ceil(t0 / period - 1e-9)
    k1 = math.floor(t1 / period + 1e-9)
    return [snapshot_at(paths, k * period)[0] for k in range(k0, k1 + 1)]
