"""Frame-by-frame maximum-likelihood assignment of visible positions to trajectories.

Each team keeps 10 outfield trajectories (plus a single goalkeeper stream that
bypasses assignment).  At every frame the visible positions are matched to the
trajectories by solving a linear assignment over negated forecast
log-likelihoods, so each visible position extends exactly one trajectory and
no trajectory receives two positions from the same frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .forecaster import Forecast, ForecastModel, ForecastState, ball_grid_from_frames
from .geometry import (
    AWAY,
    HOME,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
)
from .ingest import DiscreteMatchRecord

# Log-density floor: keeps cost matrices finite when a player reappears far
# from every forecast (e.g. after a long occlusion at a corner).
LOG_DENSITY_FLOOR = -50.0

N_OUTFIELD = 10

# Kickoff seeding geometry: unseen outfielders go on the defensive line with
# evenly spaced y slots, skipping slots close to a visible teammate.
_SLOT_YS = tuple(10.0 + 60.0 * i / 9 for i in range(10))
_SLOT_EXCLUSION_M = 5.0
_FALLBACK_DEPTH_M = 25.0
_KEEPER_DEPTH_M = 5.0

_LOG_2PI = math.log(2.0 * math.pi)


def log_likelihood(
    fc: Forecast, pos: PitchPoint, floor: float = LOG_DENSITY_FLOOR
) -> float:
    """Log of the isotropic bivariate normal density at ``pos``, floored."""
    var = fc.std * fc.std
    dx = pos.x - fc.mean.x
    dy = pos.y - fc.mean.y
    ll = -(_LOG_2PI + 2.0 * math.log(fc.std)) - (dx * dx + dy * dy) / (2.0 * var)
    return max(ll, floor)


def solve_assignment(cost: np.ndarray) -> dict[int, int]:
    """Minimum-total-cost injective map of columns (positions) to rows (trajectories).

    Requires no more columns than rows; with a rectangular matrix the unmatched
    rows simply receive no position this frame.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.shape[1] > cost.shape[0]:
        raise ValueError(
            f"more positions ({cost.shape[1]}) than trajectories ({cost.shape[0]})"
        )
    if not np.isfinite(cost).all():
        raise RuntimeError("non-finite assignment costs: log-density flooring failed")
    rows, cols = linear_sum_assignment(cost)
    return {int(j): int(i) for i, j in zip(rows, cols)}


def _seed_slots(visible_ys: list[float], n_needed: int) -> list[float]:
    """Pick defensive-line y slots, farthest from visible teammates first."""

    def clearance(y: float) -> float:
        return min((abs(y - vy) for vy in visible_ys), default=math.inf)

    ordered = sorted(_SLOT_YS, key=lambda y: (-clearance(y), y))
    free = [y for y in ordered if clearance(y) >= _SLOT_EXCLUSION_M]
    chosen = (free + [y for y in ordered if y not in free])[:n_needed]
    return chosen


def initialize(
    first_frame: ObservationFrame, team: str, defends_left: bool
) -> list[Trajectory]:
    """Seed the 10 outfield trajectories of ``team`` from the first frame.

    Visible outfielders seed trajectories at their observed positions; the
    rest are placed on the defensive line, at the deepest visible teammate's x
    (or 25 m off the defended goal line when nobody is visible), in evenly
    spaced y slots clear of visible teammates.
    """
    tag = PlayerTag(team=team, is_goalkeeper=False)
    visible = first_frame.visible_for(team)
    trajectories = []
    for pos in visible:
        traj = Trajectory(tag=tag)
        traj.append(first_frame.time, pos)
        trajectories.append(traj)
    n_missing = N_OUTFIELD - len(visible)
    if n_missing > 0:
        if visible:
            xs = [p.x for p in visible]
            seed_x = min(xs) if defends_left else max(xs)
        else:
            seed_x = _FALLBACK_DEPTH_M if defends_left else 120.0 - _FALLBACK_DEPTH_M
        for y in _seed_slots([p.y for p in visible], n_missing):
            traj = Trajectory(tag=tag, seeded=True)
            traj.append(first_frame.time, PitchPoint(seed_x, y))
            trajectories.append(traj)
    return trajectories


def _seed_keeper(
    first_frame: ObservationFrame, team: str, defends_left: bool
) -> Trajectory:
    tag = PlayerTag(team=team, is_goalkeeper=True)
    visible = first_frame.visible_for(team, keepers=True)
    traj = Trajectory(tag=tag, seeded=not visible)
    if visible:
        traj.append(first_frame.time, visible[0])
    else:
        x = _KEEPER_DEPTH_M if defends_left else 120.0 - _KEEPER_DEPTH_M
        traj.append(first_frame.time, PitchPoint(x, 40.0))
    return traj


@dataclass
class TrackedTeams:
    """Constructed trajectories for one half: 10 outfield per team plus keepers."""

    outfield: dict[str, list[Trajectory]]
    keepers: dict[str, Trajectory]

    def all_outfield(self) -> list[Trajectory]:
        return [t for team in (HOME, AWAY) for t in self.outfield[team]]


def build_trajectories(
    record: DiscreteMatchRecord,
    model: ForecastModel,
    *,
    log_floor: float = LOG_DENSITY_FLOOR,
) -> TrackedTeams:
    """Run the causal frame loop, appending every visible position to a trajectory."""
    if not record.frames:
        raise ValueError("cannot build trajectories from an empty record")
    ball = ball_grid_from_frames(record.frames, model.grid_step)
    first = record.frames[0]

    outfield: dict[str, list[Trajectory]] = {}
    keepers: dict[str, Trajectory] = {}
    states: dict[str, list[ForecastState]] = {}
    for team in (HOME, AWAY):
        outfield[team] = initialize(first, team, record.defends_left[team])
        keepers[team] = _seed_keeper(first, team, record.defends_left[team])
        states[team] = []
        for traj in outfield[team]:
            st = ForecastState(model, ball)
            st.append(traj.times[0], traj.points[0])
            states[team].append(st)

    for frame in record.frames[1:]:
        for team in (HOME, AWAY):
            positions = frame.visible_for(team)
            if positions:
                cost = np.empty((N_OUTFIELD, len(positions)))
                for i, st in enumerate(states[team]):
                    fc = st.forecast_at(frame.time)
                    for j, pos in enumerate(positions):
                        cost[i, j] = -log_likelihood(fc, pos, log_floor)
                for j, i in solve_assignment(cost).items():
                    outfield[team][i].append(frame.time, positions[j])
                    states[team][i].append(frame.time, positions[j])
            seen_keeper = frame.visible_for(team, keepers=True)
            if seen_keeper:
                keepers[team].append(frame.time, seen_keeper[0])

    return TrackedTeams(outfield=outfield, keepers=keepers)
