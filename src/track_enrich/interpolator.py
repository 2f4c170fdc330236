"""Velocity-corrected continuous paths through the assigned trajectories.

Between two consecutive recorded points the path is the straight line plus a
correction driven by the crowd: the average displacement of all outfield
players observed over each grid interval defines a piecewise-linear velocity
``u``, and the path follows the weighted integral of ``u`` where it deviates
from its own straight-line average.  Outside the recorded span the path
defers to the forecaster's mean.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .forecaster import (
    ForecastModel,
    ForecastState,
    GridSeries,
    backward_state,
    forward_state,
)
from .geometry import PitchPoint, Trajectory, clamp_to_pitch

_TOL = 1e-9


@dataclass
class VelocityField:
    """Average known velocities per grid second and their exact integral.

    ``vx[i]``/``vy[i]`` hold the mean observed velocity (metres per second)
    over the grid interval starting at ``(start_k + i) * step``; the
    interpolant ``u`` is linear between nodes and held constant beyond the
    ends.
    """

    start_k: int
    step: float
    vx: list[float]
    vy: list[float]
    alpha: float
    _cum: list[tuple[float, float]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        cum = [(0.0, 0.0)]
        for i in range(len(self.vx) - 1):
            cx, cy = cum[-1]
            cum.append(
                (
                    cx + 0.5 * (self.vx[i] + self.vx[i + 1]) * self.step,
                    cy + 0.5 * (self.vy[i] + self.vy[i + 1]) * self.step,
                )
            )
        self._cum = cum

    def velocity_at(self, t: float) -> tuple[float, float]:
        if not self.vx:
            return (0.0, 0.0)
        s = (t - self.start_k * self.step) / self.step
        if s <= 0.0:
            return (self.vx[0], self.vy[0])
        if s >= len(self.vx) - 1:
            return (self.vx[-1], self.vy[-1])
        i = int(s)
        f = s - i
        return (
            self.vx[i] + f * (self.vx[i + 1] - self.vx[i]),
            self.vy[i] + f * (self.vy[i + 1] - self.vy[i]),
        )

    def _antiderivative(self, t: float) -> tuple[float, float]:
        """Exact integral of u from the first node to ``t`` (closed form)."""
        if not self.vx:
            return (0.0, 0.0)
        t0 = self.start_k * self.step
        t_end = t0 + (len(self.vx) - 1) * self.step
        if t <= t0:
            return ((t - t0) * self.vx[0], (t - t0) * self.vy[0])
        if t >= t_end:
            cx, cy = self._cum[-1]
            return (cx + (t - t_end) * self.vx[-1], cy + (t - t_end) * self.vy[-1])
        s = (t - t0) / self.step
        i = min(int(s), len(self.vx) - 2)
        tau = t - (t0 + i * self.step)
        # integral of the linear segment: v_i*tau + (tau^2 / 2h) * (v_{i+1} - v_i)
        cx, cy = self._cum[i]
        return (
            cx + self.vx[i] * tau + tau * tau / (2 * self.step) * (self.vx[i + 1] - self.vx[i]),
            cy + self.vy[i] * tau + tau * tau / (2 * self.step) * (self.vy[i + 1] - self.vy[i]),
        )

    def weighted_velocity(self, s: float, t: float) -> tuple[float, float]:
        """w(s, t): alpha times the exact integral of u over [s, t]."""
        if t < s:
            raise ValueError(f"weighted_velocity needs s <= t, got {s} > {t}")
        fs = self._antiderivative(s)
        ft = self._antiderivative(t)
        return (self.alpha * (ft[0] - fs[0]), self.alpha * (ft[1] - fs[1]))


def compute_velocity_field(
    trajectories: Sequence[Trajectory], alpha: float, grid_step: float = 1.0
) -> VelocityField:
    """Mean observed displacement per grid interval over all given trajectories.

    An interval [k, k+1] draws on every trajectory holding recorded points at
    both grid times; intervals nobody spans get zero velocity.
    """
    on_grid: list[dict[int, PitchPoint]] = []
    k_min, k_max = None, None
    for traj in trajectories:
        d: dict[int, PitchPoint] = {}
        for t, p in zip(traj.times, traj.points):
            k = round(t / grid_step)
            if abs(t - k * grid_step) <= _TOL:
                d[k] = p
        if d:
            lo, hi = min(d), max(d)
            k_min = lo if k_min is None else min(k_min, lo)
            k_max = hi if k_max is None else max(k_max, hi)
        on_grid.append(d)
    if k_min is None or k_max <= k_min:
        return VelocityField(start_k=k_min or 0, step=grid_step, vx=[], vy=[], alpha=alpha)
    vx, vy = [], []
    for k in range(k_min, k_max + 1):
        sx = sy = 0.0
        n = 0
        for d in on_grid:
            a, b = d.get(k), d.get(k + 1)
            if a is not None and b is not None:
                sx += b.x - a.x
                sy += b.y - a.y
                n += 1
        if n:
            vx.append(sx / n / grid_step)
            vy.append(sy / n / grid_step)
        else:
            vx.append(0.0)
            vy.append(0.0)
    return VelocityField(start_k=k_min, step=grid_step, vx=vx, vy=vy, alpha=alpha)


@dataclass
class ContinuousPath:
    """A trajectory with everything needed to evaluate it at any time.

    The forecast states past either end of the span are built on the first
    query that needs them and then reused, so the trajectory must be complete
    before that query.
    """

    trajectory: Trajectory
    model: ForecastModel
    ball: GridSeries

    @cached_property
    def ahead(self) -> ForecastState:
        return forward_state(self.model, self.trajectory, self.ball)

    @cached_property
    def behind(self) -> ForecastState:
        return backward_state(self.model, self.trajectory, self.ball)


def position_at(path: ContinuousPath, field_: VelocityField, t: float) -> PitchPoint:
    """Evaluate the continuous path at ``t``.

    Recorded times reproduce their points exactly; gaps between recorded
    points follow the velocity-corrected interpolation; times outside the
    recorded span fall back to the forecast mean (backwards before the first
    sighting).  The result is clamped to the pitch.
    """
    traj = path.trajectory
    if not traj.times:
        raise ValueError("cannot evaluate an empty trajectory")
    exact = traj.point_at(t)
    if exact is not None:
        return exact
    if t < traj.times[0]:
        return path.behind.forecast_at(-t).mean
    if t > traj.times[-1]:
        return path.ahead.forecast_at(t).mean
    i = bisect_right(traj.times, t) - 1
    t1, t2 = traj.times[i], traj.times[i + 1]
    p1, p2 = traj.points[i], traj.points[i + 1]
    w1x, w1y = field_.weighted_velocity(t1, t)
    w12x, w12y = field_.weighted_velocity(t1, t2)
    f = (t - t1) / (t2 - t1)
    return clamp_to_pitch(
        p1.x + w1x + f * (p2.x - p1.x - w12x),
        p1.y + w1y + f * (p2.y - p1.y - w12y),
    )


def velocity_correction(
    field_: VelocityField, t1: float, t2: float, t: float
) -> tuple[float, float]:
    """The correction added to plain linear interpolation inside a gap."""
    w1x, w1y = field_.weighted_velocity(t1, t)
    w12x, w12y = field_.weighted_velocity(t1, t2)
    f = (t - t1) / (t2 - t1)
    return (w1x - f * w12x, w1y - f * w12y)
