"""Velocity-corrected continuous paths through the assigned trajectories.

Between two consecutive recorded points the path is the straight line plus a
correction driven by the crowd: the average displacement of all outfield
players observed over each grid interval defines a piecewise-linear velocity
``u``, and the path follows the weighted integral of ``u`` where it deviates
from its own straight-line average.  Past the last recorded point the path
defers to the forecaster's mean, from the path's forecast state: for an
outfield trajectory in ``enrich``, the state the assigner forecast it with;
for a keeper, or a trajectory read from a file, a new one, which replays the
trajectory on the first query past its end.
Every trajectory starts at its record's first frame, so before its first point
the path holds that point.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .forecaster import ForecastState
from .geometry import GRID_TOL, PitchPoint, Trajectory, clamp_to_pitch


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
            if abs(t / grid_step - k) <= GRID_TOL:
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

    ``state`` forecasts past the end of the span, catching up over the
    trajectory's points on each forecast.  The velocity field's
    antiderivative at each recorded time is built on first use, so the
    trajectory must be complete before the first query.
    """

    trajectory: Trajectory
    state: ForecastState = field(repr=False, compare=False)
    _knots: tuple[VelocityField, array, array] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def knot_integrals(self, field_: VelocityField) -> tuple[array, array]:
        """``field_._antiderivative`` at each recorded time as x and y arrays
        (16 bytes a point, not a tuple's 104), kept for the last field asked."""
        if self._knots is None or self._knots[0] is not field_:
            fx, fy = array("d"), array("d")
            for t in self.trajectory.times:
                x, y = field_._antiderivative(t)
                fx.append(x)
                fy.append(y)
            self._knots = (field_, fx, fy)
        return self._knots[1], self._knots[2]


def position_at(
    path: ContinuousPath,
    field_: VelocityField,
    t: float,
    *,
    i: int | None = None,
    ft: tuple[float, float] | None = None,
) -> PitchPoint:
    """The continuous path at ``t``.

    Recorded times reproduce their points exactly; gaps between recorded
    points follow the velocity-corrected interpolation; times past the last
    recorded point fall back to the forecast mean, and a time before the first
    holds that point.  The result is clamped to the pitch.  ``i`` is the index
    of the last recorded time at or before ``t`` (-1 before the first), and
    ``ft`` is ``field_._antiderivative(t)``; whichever is not given is worked
    out here, ``ft`` only when a gap needs it.
    """
    times, points = path.trajectory.times, path.trajectory.points
    if i is None:
        i = bisect_right(times, t) - 1
    if i < 0:
        return clamp_to_pitch(points[0].x, points[0].y)
    if times[i] == t:
        return points[i]
    if i == len(times) - 1:
        return path.state.forecast_at(t).mean
    # w(s, t) = alpha * (F(t) - F(s)), with F the exact integral of u
    t1, t2 = times[i], times[i + 1]
    p1, p2 = points[i], points[i + 1]
    fx, fy = path.knot_integrals(field_)
    f1x, f1y, f2x, f2y = fx[i], fy[i], fx[i + 1], fy[i + 1]
    ftx, fty = field_._antiderivative(t) if ft is None else ft
    alpha = field_.alpha
    w1x, w1y = alpha * (ftx - f1x), alpha * (fty - f1y)
    w12x, w12y = alpha * (f2x - f1x), alpha * (f2y - f1y)
    f = (t - t1) / (t2 - t1)
    return clamp_to_pitch(
        p1.x + w1x + f * (p2.x - p1.x - w12x),
        p1.y + w1y + f * (p2.y - p1.y - w12y),
    )
