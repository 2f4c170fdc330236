"""Reference computations the tests compare the package against.

They are built from the package's own pieces (forecast states, the velocity
field's nodes, the 360 reader's flip) but are not used by the pipeline.
"""

import numpy as np

from track_enrich.forecaster import Forecast, ForecastModel, GridSeries, backward_state, forward_state
from track_enrich.geometry import PitchPoint, Trajectory
from track_enrich.ingest import _flip
from track_enrich.interpolator import VelocityField

_TOL = 1e-9


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


def backward_forecast(model: ForecastModel, traj: Trajectory, ball: GridSeries, t: float) -> Forecast:
    """Forecast at ``t``, at or before the first sighting, by time reversal."""
    if traj.times and t > traj.times[0] + _TOL:
        raise ValueError(f"backward forecast time {t} is after first sighting {traj.times[0]}")
    return backward_state(model, traj, ball).forecast_at(-t)


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


def velocity_correction(field: VelocityField, t1: float, t2: float, t: float) -> tuple[float, float]:
    """The correction added to plain linear interpolation inside a gap."""
    w1x, w1y = field.weighted_velocity(t1, t)
    w12x, w12y = field.weighted_velocity(t1, t2)
    f = (t - t1) / (t2 - t1)
    return (w1x - f * w12x, w1y - f * w12y)


def flip_point(p: PitchPoint) -> PitchPoint:
    """Rotate a position half a turn about the pitch centre, as the 360 reader does."""
    return PitchPoint(*_flip(p.x, p.y))
