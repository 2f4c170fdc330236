"""Reference computations the tests compare the package against, and the
reader of the enriched output the tests check.

They are built from the package's own pieces (forecast states, the velocity
field's nodes, the 360 reader's flip, the JSON readers' field checks) but are
not used by the pipeline.
"""

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from track_enrich.broadcast import ground_truth_at
from track_enrich.evaluator import event_frame_times
from track_enrich.forecaster import Forecast, ForecastModel, GridSeries, forward_state
from track_enrich.geometry import (
    AWAY,
    HOME,
    EnrichedFrame,
    EnrichedPlayer,
    MalformedInputError,
    PitchPoint,
    Trajectory,
    clamp_to_pitch,
)
from track_enrich.ingest import _flag, _flip, _point, _read_frames, _tag, load_json
from track_enrich.interpolator import VelocityField
from track_enrich.lsap import linear_sum_assignment
from track_enrich.pipeline import snapshot_at


def ar_min_root_modulus(ar) -> float:
    """The smallest root modulus of ``1 - ar[0] z - ... - ar[p-1] z^p``; inf without roots."""
    # highest power first for np.roots, which drops leading zeros
    roots = np.roots([-c for c in reversed(ar)] + [1.0])
    return float(np.abs(roots).min()) if roots.size else float("inf")


def ar_is_stationary(ar) -> bool:
    """The root test: every root of the AR polynomial lies beyond 1 + 1e-7."""
    return ar_min_root_modulus(ar) > 1.0 + 1e-7


def forecast(model: ForecastModel, traj: Trajectory, ball: GridSeries, t: float) -> Forecast:
    """Forecast the player's position at ``t``, at or after the last sighting."""
    return forward_state(model, traj, ball).forecast_at(t)


def velocity_at(field: VelocityField, t: float) -> tuple[float, float]:
    """The piecewise-linear velocity ``u`` at ``t``, held constant beyond the nodes."""
    if not field.vx:
        return (0.0, 0.0)
    s = (t - field.start_k * field.step) / field.step
    if s <= 0.0:
        return (field.vx[0], field.vy[0])
    if s >= len(field.vx) - 1:
        return (field.vx[-1], field.vy[-1])
    i = int(s)
    f = s - i
    return (
        field.vx[i] + f * (field.vx[i + 1] - field.vx[i]),
        field.vy[i] + f * (field.vy[i + 1] - field.vy[i]),
    )


def weighted_velocity(field: VelocityField, s: float, t: float) -> tuple[float, float]:
    """w(s, t): alpha times the exact integral of u over [s, t]."""
    if t < s:
        raise ValueError(f"weighted_velocity needs s <= t, got {s} > {t}")
    fs = field._antiderivative(s)
    ft = field._antiderivative(t)
    return (field.alpha * (ft[0] - fs[0]), field.alpha * (ft[1] - fs[1]))


def velocity_correction(field: VelocityField, t1: float, t2: float, t: float) -> tuple[float, float]:
    """The correction added to plain linear interpolation inside a gap."""
    w1x, w1y = weighted_velocity(field, t1, t)
    w12x, w12y = weighted_velocity(field, t1, t2)
    f = (t - t1) / (t2 - t1)
    return (w1x - f * w12x, w1y - f * w12y)


def position_in_gap(traj: Trajectory, field: VelocityField, t: float) -> PitchPoint:
    """The velocity-corrected interpolation at ``t`` strictly between two
    recorded times, from two ``weighted_velocity`` integrals."""
    i = bisect_right(traj.times, t) - 1
    t1, t2 = traj.times[i], traj.times[i + 1]
    p1, p2 = traj.points[i], traj.points[i + 1]
    w1x, w1y = weighted_velocity(field, t1, t)
    w12x, w12y = weighted_velocity(field, t1, t2)
    f = (t - t1) / (t2 - t1)
    return clamp_to_pitch(
        p1.x + w1x + f * (p2.x - p1.x - w12x),
        p1.y + w1y + f * (p2.y - p1.y - w12y),
    )


def match_team(est: list[PitchPoint], truth: list[PitchPoint]) -> list[float]:
    """``evaluator._match_team`` with its exact coincidences pinned by a linear
    scan: each estimate, in order, takes the first unused truth equal to it."""
    errors = [0.0] * len(est)
    unused = list(range(len(truth)))
    remaining: list[int] = []
    for c, pos in enumerate(est):
        hit = next((j for j in unused if truth[j] == pos), None)
        if hit is None:
            remaining.append(c)
        else:
            unused.remove(hit)
    if remaining:
        cost = [[truth[j].distance_to(est[c]) for c in remaining] for j in unused]
        for r, c in zip(*linear_sum_assignment(cost)):
            errors[remaining[c]] = cost[r][c]
    return errors


class PredictionRow(NamedTuple):
    """One scored outfield path at one query time."""

    phase: str  # "in_phase" or "out_of_phase"
    provenance: str
    error_m: float
    seconds_to_obs: float
    prev_frame_observed: bool
    at_event_frame: bool


def score_half(record, paths, truth) -> tuple[list[tuple[float, float]], list[PredictionRow]]:
    """``evaluator.evaluate_half`` by objects: a 22-player ``snapshot_at`` per
    query time, its outfielders matched team by team with ``match_team``
    against the truth's ``ObservationFrame``, and one row per prediction.

    Returns the in-phase (time, total squared error) pairs and the rows.  A
    query time whose truth lacks a team's outfielders is skipped; more than
    1% of them skipped raises the evaluator's MalformedInputError.
    """
    frame_times = [fr.time for fr in record.frames]
    events = event_frame_times(truth.events, frame_times)
    frames: list[tuple[float, float]] = []
    rows: list[PredictionRow] = []
    skipped = 0

    def score(t, phase, prev_time):
        snapshot, ages = snapshot_at(paths, t)
        truth_frame = ground_truth_at(truth, t)
        scored = [(p, age) for p, age in zip(snapshot.players, ages) if not p.tag.is_goalkeeper]
        errors = [0.0] * len(scored)
        for team in (HOME, AWAY):
            idx = [i for i, (p, _) in enumerate(scored) if p.tag.team == team]
            true = truth_frame.visible_for(team)
            if len(idx) != len(true):
                return None
            for i, err in zip(idx, match_team([scored[i][0].position for i in idx], true)):
                errors[i] = err
        outfield = [p for p in paths.paths if not p.trajectory.tag.is_goalkeeper]
        for (player, age), path, err in zip(scored, outfield, errors, strict=True):
            prev_observed = prev_time is not None and path.trajectory.observed_at(prev_time)
            at_event = phase == "in_phase" and t in events
            rows.append(PredictionRow(phase, player.provenance, err, age, prev_observed, at_event))
        total = 0.0
        for e in errors:
            total += e**2
        return total

    for i, t in enumerate(frame_times):
        total = score(t, "in_phase", None)
        if total is None:
            skipped += 1
        else:
            frames.append((t, total))
        if i + 1 < len(frame_times):
            skipped += score(t + 0.5 * (frame_times[i + 1] - t), "out_of_phase", t) is None
    if skipped > 0.01 * (2 * len(frame_times)):
        raise MalformedInputError(
            f"half {record.half_id}: {skipped} query times lacked a full "
            "set of true outfielders; inputs look inconsistent"
        )
    return frames, rows


def flip_point(p: PitchPoint) -> PitchPoint:
    """Rotate a position half a turn about the pitch centre, as the 360 reader does."""
    return PitchPoint(*_flip(p.x, p.y))


def _enriched_frame(time: float, ball: PitchPoint, players: list[dict]) -> EnrichedFrame:
    return EnrichedFrame(
        time=time,
        ball=ball,
        players=tuple(
            EnrichedPlayer(_tag(p), _point(p), "observed" if _flag(p, "visible") else "estimated")
            for p in players
        ),
    )


def read_enriched(path) -> list[EnrichedFrame]:
    """Read a file ``ingest.write_enriched`` wrote; a malformed one raises
    MalformedInputError."""
    return _read_frames(path, load_json(path), _enriched_frame)
