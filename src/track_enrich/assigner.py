"""Frame-by-frame maximum-likelihood assignment of visible positions to trajectories.

Each team keeps 10 outfield trajectories (plus a single goalkeeper stream that
bypasses assignment).  At every frame the visible positions are matched to the
trajectories by solving a linear assignment over negated forecast
log-likelihoods (``lsap.linear_sum_assignment``, the package's own solver), so
each visible position extends exactly one trajectory and no trajectory
receives two positions from the same frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .forecaster import BallGrid, Forecast, ForecastModel, ForecastState, GridWalk
from .geometry import (
    AWAY,
    HOME,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
)
from .ingest import DiscreteMatchRecord
from .lsap import linear_sum_assignment

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


def log_likelihoods(fc: Forecast, positions: Sequence[PitchPoint]) -> list[float]:
    """Log of the isotropic bivariate normal density at each of ``positions``, floored."""
    norm = _LOG_2PI + 2.0 * math.log(fc.std)
    two_var = 2.0 * (fc.std * fc.std)
    mx, my = fc.mean.x, fc.mean.y
    out = []
    for pos in positions:
        dx = pos.x - mx
        dy = pos.y - my
        out.append(max(-norm - (dx * dx + dy * dy) / two_var, LOG_DENSITY_FLOOR))
    return out


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
    """Constructed trajectories for one half: 10 outfield per team plus keepers,
    and the forecast state each outfield trajectory was assigned with."""

    outfield: dict[str, list[Trajectory]]
    keepers: dict[str, Trajectory]
    states: dict[str, list[ForecastState]]

    def in_order(self) -> list[Trajectory]:
        """Every trajectory: home outfield, home keeper, away outfield, away keeper."""
        return [t for team in (HOME, AWAY) for t in (*self.outfield[team], self.keepers[team])]

    def states_in_order(self) -> list[ForecastState | None]:
        """The outfield trajectories' states in ``in_order``'s order, None for
        the keepers, which assignment does not forecast."""
        return [s for team in (HOME, AWAY) for s in (*self.states[team], None)]


def ball_grid(record: DiscreteMatchRecord, grid_step: float) -> BallGrid:
    """The record's ball on the forecast grid, as per-axis displacements."""
    walk, dx, dy = GridWalk(grid_step), [], []
    for fr in record.frames:
        new_x, new_y = walk.add(fr.time, fr.ball)
        dx += new_x
        dy += new_y
    new_x, new_y = walk.pending()
    return BallGrid(walk.first_k, grid_step, (dx + new_x, dy + new_y))


def build_trajectories(record: DiscreteMatchRecord, model: ForecastModel) -> TrackedTeams:
    """Run the causal frame loop, appending every visible position to a trajectory."""
    if not record.frames:
        raise ValueError("cannot build trajectories from an empty record")
    ball = ball_grid(record, model.grid_step)
    first = record.frames[0]

    outfield: dict[str, list[Trajectory]] = {}
    keepers: dict[str, Trajectory] = {}
    states: dict[str, list[ForecastState]] = {}
    for team in (HOME, AWAY):
        outfield[team] = initialize(first, team, record.defends_left[team])
        keepers[team] = _seed_keeper(first, team, record.defends_left[team])
        states[team] = [ForecastState(model, ball, traj) for traj in outfield[team]]

    for frame in record.frames[1:]:
        for team in (HOME, AWAY):
            positions = frame.visible_for(team)
            if positions:
                # trajectories x positions; the frame holds at most N_OUTFIELD
                # positions per team and the floored log-densities keep every
                # cost finite
                forecasts = [st.forecast_at(frame.time) for st in states[team]]
                cost = [[-ll for ll in log_likelihoods(fc, positions)] for fc in forecasts]
                for i, j in zip(*linear_sum_assignment(cost)):
                    outfield[team][i].append(frame.time, positions[j])
            seen_keeper = frame.visible_for(team, keepers=True)
            if seen_keeper:
                keepers[team].append(frame.time, seen_keeper[0])

    return TrackedTeams(outfield=outfield, keepers=keepers, states=states)
