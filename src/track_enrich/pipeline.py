"""Orchestration helpers: from a discrete record to queryable full-pitch snapshots."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

# enrich runs the assigner through this module, where perfbench/tracing.py wraps it
from .assigner import ball_grid, build_trajectories  # noqa: F401
from .forecaster import ForecastModel, ForecastState
from .geometry import GRID_TOL, EnrichedFrame, EnrichedPlayer, PitchPoint, Trajectory, lerp
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
    states: Sequence[ForecastState | None] | None = None,
) -> PathSet:
    """Wrap a half's trajectories, in the assigner's order, as continuous paths;
    the outfield ones make the velocity field.  ``states``, parallel to
    ``trajectories``, are the forecast states the assigner leaves
    (``TrackedTeams.states_in_order``); a path without one gets a new state,
    which replays its trajectory on its first forecast and shares the given
    states' ball grid."""
    outfield = [t for t in trajectories if not t.tag.is_goalkeeper]
    states = states or [None] * len(trajectories)
    ball = next((st.ball for st in states if st), None) or ball_grid(record, model.grid_step)
    return PathSet(
        paths=[
            ContinuousPath(t, st or ForecastState(model, ball, t))
            for t, st in zip(trajectories, states)
        ],
        field=compute_velocity_field(outfield, alpha, model.grid_step),
        record=record,
    )


def _observed_and_age(traj: Trajectory, i: int, t: float) -> tuple[bool, float]:
    """Whether a real observation sits at ``t``, and the time from ``t`` to the
    closest one, forwards or backwards; ``i`` is the index of the last
    recorded time at or before ``t`` (-1 before the first).

    Invented kickoff seeds do not count; a trajectory that never received an
    observation is infinitely far from one.
    """
    times = traj.times
    lo = 1 if traj.seeded else 0
    age = t - times[i] if i >= lo else math.inf
    after = max(i + 1, lo)
    if after < len(times):
        age = min(age, times[after] - t)
    return i >= lo and times[i] == t, age


def path_states(
    paths: Sequence[ContinuousPath], field_: VelocityField, t: float, cursors: list[int]
) -> list[tuple[PitchPoint, bool, float]]:
    """Each path's position at ``t``, whether a real observation sits at
    ``t``, and the seconds from ``t`` to the nearest one.

    ``cursors[n]`` is the index of ``paths[n]``'s last recorded time at or
    before the previous query time (-1 before the first, and to start), and
    moves on to ``t``: a caller that keeps its cursors queries in time order.
    The field is integrated once at ``t`` for every path.
    """
    ft = field_._antiderivative(t)
    states = []
    for n, path in enumerate(paths):
        traj = path.trajectory
        i = cursors[n] = bisect_right(traj.times, t, cursors[n] + 1) - 1
        states.append((position_at(path, field_, t, i=i, ft=ft), *_observed_and_age(traj, i, t)))
    return states


def _frame(paths: PathSet, t: float, states: list[tuple[PitchPoint, bool, float]]) -> EnrichedFrame:
    players = tuple(
        EnrichedPlayer(path.trajectory.tag, pos, "observed" if observed else "estimated")
        for path, (pos, observed, _) in zip(paths.paths, states)
    )
    return EnrichedFrame(time=t, ball=paths.ball_at(t), players=players)


def snapshot_at(paths: PathSet, t: float) -> tuple[EnrichedFrame, list[float]]:
    """Full 22-player snapshot at ``t`` plus each player's occlusion age.

    Players are ordered home outfield, home keeper, away outfield, away
    keeper; positions at recorded trajectory times are exact copies of the
    observations and carry ``observed`` provenance.
    """
    states = path_states(paths.paths, paths.field, t, [-1] * len(paths.paths))
    return _frame(paths, t, states), [age for _, _, age in states]


def grid_times(record: DiscreteMatchRecord, period: float) -> list[float]:
    """The enrich grid: every multiple of ``period`` within the record's span."""
    t0, t1 = record.frames[0].time, record.frames[-1].time
    k0 = math.ceil(t0 / period - GRID_TOL)
    k1 = math.floor(t1 / period + GRID_TOL)
    return [k * period for k in range(k0, k1 + 1)]


def enrich_frames(paths: PathSet, *, period: float = 1.0) -> list[EnrichedFrame]:
    """Snapshots on the enrich grid (``grid_times``), as ``snapshot_at`` takes
    them, with each path's cursor kept from one grid time to the next."""
    cursors = [-1] * len(paths.paths)
    return [
        _frame(paths, t, path_states(paths.paths, paths.field, t, cursors))
        for t in grid_times(paths.record, period)
    ]
