"""Gaussian position forecasts from a player's past trajectory and the ball path.

Everything runs on a fixed temporal grid (default one second).  Trajectories
are resampled onto the grid by linear interpolation and modelled as an ARMAX
process on per-axis displacements, with lagged ball displacements as the
exogenous input (players tend to move with the ball).  Both axes share one
coefficient set, so the forecast spread is isotropic.

Forecast conventions, shared with the independent test oracles:

* one step ahead the prediction is a plain random walk: mean is the last
  known position, spread is ``one_step_std``;
* two or more steps ahead the mean is the multi-step ARMAX recursion with
  known ball displacements as future exogenous inputs, residuals estimated
  over the observed grid history and zero beyond it, and displacement lags
  before the start of the series treated as zero;
* the spread at ``n`` steps is the theoretical forecast standard deviation of
  the accumulated displacement process, ``resid_std * sqrt(sum of squared
  cumulative impulse-response weights)``;
* between grid nodes, mean and spread are linearly interpolated between the
  adjacent-horizon forecasts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    ObservationFrame,
    PitchPoint,
    Trajectory,
    clamp_to_pitch,
)

_TOL = 1e-9
_MIN_STD = 1e-9

MODEL_FORMAT_VERSION = 1


@dataclass
class GridSeries:
    """Positions on a contiguous temporal grid: value i is at (start_k + i) * step."""

    start_k: int
    step: float
    values: list[PitchPoint]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_k(self) -> int:
        return self.start_k + len(self.values) - 1

    @cached_property
    def displacements(self) -> tuple[list[float], list[float]]:
        """Per-axis displacement over each grid interval; entry i ends at node start_k + 1 + i."""
        pairs = list(zip(self.values, self.values[1:]))
        return [b.x - a.x for a, b in pairs], [b.y - a.y for a, b in pairs]

    def lagged_displacements(self, ks: Iterable[int], axis: int, n: int) -> list[list[float]]:
        """Per node k, the displacements over the n intervals ending at k, k - 1, ...

        Intervals outside the series have zero displacement.
        """
        disp = self.displacements[axis]
        rows = []
        for k in ks:
            i = k - self.start_k - 1
            rows.append([disp[j] if 0 <= j < len(disp) else 0.0 for j in range(i, i - n, -1)])
        return rows

    @cached_property
    def reversed(self) -> GridSeries:
        """The series time-reversed about t=0 (displacements change sign)."""
        return GridSeries(-self.end_k, self.step, self.values[::-1])


def _lerp(a: PitchPoint, ta: float, b: PitchPoint, tb: float, t: float) -> PitchPoint:
    if tb == ta:
        return a
    f = (t - ta) / (tb - ta)
    return PitchPoint(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))


def resample_to_grid(traj: Trajectory, grid_step: float = 1.0) -> GridSeries:
    """Resample a trajectory onto the grid by linear interpolation.

    Grid points outside the trajectory's time span are not produced; grid
    points coinciding with recorded times reproduce the recorded position
    exactly.
    """
    if not traj.times:
        raise ValueError("cannot resample an empty trajectory")
    k_first = math.ceil(traj.times[0] / grid_step - _TOL)
    k_last = math.floor(traj.times[-1] / grid_step + _TOL)
    values: list[PitchPoint] = []
    if k_last < k_first:
        return GridSeries(k_first, grid_step, values)
    i = 0
    times, points = traj.times, traj.points
    for k in range(k_first, k_last + 1):
        t = k * grid_step
        while i + 1 < len(times) and times[i + 1] <= t + _TOL:
            i += 1
        if abs(times[i] - t) <= _TOL:
            values.append(points[i])
        else:
            values.append(_lerp(points[i], times[i], points[i + 1], times[i + 1], t))
    return GridSeries(k_first, grid_step, values)


def ball_grid_from_frames(
    frames: Sequence[ObservationFrame], grid_step: float = 1.0
) -> GridSeries:
    """Resample the per-frame ball positions onto the grid."""
    ball = Trajectory(tag=None)  # type: ignore[arg-type]
    for fr in frames:
        ball.append(fr.time, fr.ball)
    return resample_to_grid(ball, grid_step)


def ar_is_stationary(ar: Sequence[float]) -> bool:
    """True when the AR polynomial has all roots outside the unit circle."""
    if not ar or not any(ar):
        return True
    # phi(z) = 1 - ar[0] z - ... - ar[p-1] z^p, highest power first for np.roots
    coeffs = [-c for c in reversed(ar)] + [1.0]
    roots = np.roots(coeffs)
    return bool(np.all(np.abs(roots) > 1.0 + 1e-7))


@dataclass(frozen=True)
class ForecastModel:
    """Fitted ARMAX coefficients for the displacement process, plus spreads.

    ``exog`` weights apply to ball displacements over the grid intervals
    ending at the predicted node and the ``len(exog) - 1`` nodes before it
    (contemporaneous lag first).
    """

    ar: tuple[float, ...]
    ma: tuple[float, ...]
    exog: tuple[float, ...]
    intercept: float
    resid_std: float
    one_step_std: float
    grid_step: float = 1.0

    def __post_init__(self):
        if self.resid_std <= 0 or self.one_step_std <= 0:
            raise ValueError("forecast spreads must be positive")
        if not ar_is_stationary(self.ar):
            raise ValueError(f"AR coefficients {self.ar} are not stationary")


def armax_recursion(
    coefs: tuple[float, Sequence[float], Sequence[float], Sequence[float]],
    d_lags: list[float],
    e_lags: list[float],
    exog_rows: Sequence[Sequence[float]],
    observed: Sequence[float] | None,
) -> list[float]:
    """The displacement recursion, one step per row of exogenous lags.

    ``coefs`` is ``(intercept, ar, ma, exog)``; each step predicts
    ``intercept + sum(ar * d_lags) + sum(ma * e_lags) + sum(exog * row)`` and
    shifts the lag registers (most recent first) in place.  Given the
    ``observed`` displacements it returns the residuals ``d - pred``; given
    None it forecasts, taking ``d = pred`` and a zero residual, and returns
    the predictions.
    """
    intercept, ar, ma, exog = coefs
    out = []
    for i, row in enumerate(exog_rows):
        pred = intercept
        for c, v in zip(ar, d_lags):
            pred += c * v
        for c, v in zip(ma, e_lags):
            pred += c * v
        for c, v in zip(exog, row):
            pred += c * v
        d = pred if observed is None else observed[i]
        e = d - pred
        out.append(pred if observed is None else e)
        if d_lags:
            d_lags.insert(0, d)
            d_lags.pop()
        if e_lags:
            e_lags.insert(0, e)
            e_lags.pop()
    return out


class _VarianceLadder:
    """Cumulative forecast variance of the accumulated displacement process.

    std(n) = resid_std * sqrt(sum_{h<n} Psi_h^2) where Psi_h is the running sum
    of the ARMA impulse-response weights psi_0..psi_h.
    """

    def __init__(self, model: ForecastModel):
        self._ar = model.ar
        self._ma = model.ma
        self._resid_std = model.resid_std
        self._psi = [1.0]
        self._cum_psi = [1.0]
        self._cum_sq = [0.0, 1.0]  # index n -> sum over horizons 1..n

    def std_at(self, n: int) -> float:
        while len(self._cum_sq) <= n:
            j = len(self._psi)
            psi = self._ma[j - 1] if j - 1 < len(self._ma) else 0.0
            for i, c in enumerate(self._ar, start=1):
                if j - i >= 0:
                    psi += c * self._psi[j - i]
            self._psi.append(psi)
            self._cum_psi.append(self._cum_psi[-1] + psi)
            self._cum_sq.append(self._cum_sq[-1] + self._cum_psi[-1] ** 2)
        return self._resid_std * math.sqrt(self._cum_sq[n])


@dataclass(frozen=True, slots=True)
class Forecast:
    """Isotropic Gaussian position forecast."""

    mean: PitchPoint
    std: float


class ForecastState:
    """Incremental forecasting state for one trajectory.

    Appending a sighting extends the grid resampling and the residual
    recursion over the new interval only, so a frame loop pays O(gap) per
    sighting instead of O(history) per forecast.  Forecasts unroll the same
    recursion past the last grid node and keep the unrolled steps until the
    next append, so a state queried at many times beyond its trajectory
    unrolls each step once.
    """

    def __init__(self, model: ForecastModel, ball: GridSeries):
        if abs(ball.step - model.grid_step) > _TOL:
            raise ValueError("ball grid step does not match the model grid step")
        self.model = model
        self.ball = ball
        self._coefs = (model.intercept, model.ar, model.ma, model.exog)
        self._ladder = _VarianceLadder(model)
        self.t_last: float | None = None
        self.pos_last: PitchPoint | None = None
        self._grid_k: int | None = None  # last grid node covered by the resampling
        self._grid_pos: PitchPoint | None = None
        # Per axis: the displacement and residual lag registers, most recent first.
        self._lags = [([0.0] * len(model.ar), [0.0] * len(model.ma)) for _ in (0, 1)]
        # Per axis: the unroll's own lag registers and its cumulative predictions.
        self._unroll: list[tuple[list[float], list[float], list[float]]] | None = None

    def append(self, t: float, point: PitchPoint) -> None:
        step = self.model.grid_step
        if self.t_last is None:
            self.t_last, self.pos_last = t, point
            k = round(t / step)
            if abs(t - k * step) <= _TOL:
                self._grid_k, self._grid_pos = k, point
            return
        if t <= self.t_last:
            raise ValueError(f"appended time {t} not after {self.t_last}")
        k_hi = math.floor(t / step + _TOL)
        if self._grid_k is not None:
            k_next = self._grid_k + 1
        else:
            k_next = math.ceil(self.t_last / step - _TOL)
        prev = self._grid_pos
        ks, dx, dy = [], [], []
        for k in range(k_next, k_hi + 1):
            value = _lerp(self.pos_last, self.t_last, point, t, k * step)
            if prev is not None:
                ks.append(k)
                dx.append(value.x - prev.x)
                dy.append(value.y - prev.y)
            self._grid_k, self._grid_pos = k, value
            prev = value
        for axis, d in enumerate((dx, dy)):
            g = self.ball.lagged_displacements(ks, axis, len(self.model.exog))
            armax_recursion(self._coefs, *self._lags[axis], g, d)
        self.t_last, self.pos_last = t, point
        self._unroll = None

    def _anchor_k(self) -> int:
        if self._grid_k is not None:
            return self._grid_k
        # No grid node inside the span yet (sub-step trajectory off the grid):
        # anchor the recursion at the node just below the last sighting.
        return math.floor(self.t_last / self.model.grid_step + _TOL)

    def _cumulative_unroll(self, n: int) -> tuple[list[float], list[float]]:
        """Per-axis cumulative predicted displacement 1..n grid steps past the anchor."""
        if self._unroll is None:
            self._unroll = [(list(d), list(e), []) for d, e in self._lags]
        k_first = self._anchor_k() + 1
        for axis, (d_lags, e_lags, cum) in enumerate(self._unroll):
            ks = range(k_first + len(cum), k_first + n)
            g = self.ball.lagged_displacements(ks, axis, len(self.model.exog))
            preds = armax_recursion(self._coefs, d_lags, e_lags, g, None)
            total = cum[-1] if cum else 0.0
            for pred in preds:
                total += pred
                cum.append(total)
        return self._unroll[0][2], self._unroll[1][2]

    def forecast_at(self, t: float) -> Forecast:
        if self.t_last is None:
            raise ValueError("cannot forecast from an empty trajectory")
        if t < self.t_last - _TOL:
            raise ValueError(f"forecast time {t} precedes last sighting {self.t_last}")
        step = self.model.grid_step
        pos_last = self.pos_last
        if t <= self.t_last + _TOL:
            return Forecast(clamp_to_pitch(pos_last.x, pos_last.y), _MIN_STD)
        anchor = self._anchor_k()
        # Node n sits at (anchor + n) * step; node 1 is the first node after t_last.
        t1 = (anchor + 1) * step
        if t <= t1 + _TOL:
            u = (t - self.t_last) / (t1 - self.t_last)
            std = max(u * self.model.one_step_std, _MIN_STD)
            return Forecast(clamp_to_pitch(pos_last.x, pos_last.y), std)
        n_hi = math.ceil(t / step - _TOL) - anchor
        cum_x, cum_y = self._cumulative_unroll(n_hi)
        apos = self._grid_pos if self._grid_pos is not None else pos_last

        def node_mean(n: int) -> tuple[float, float]:
            if n <= 1:  # one step ahead: random walk about the last sighting
                return (pos_last.x, pos_last.y)
            return (apos.x + cum_x[n - 1], apos.y + cum_y[n - 1])

        def node_std(n: int) -> float:
            return self.model.one_step_std if n <= 1 else self._ladder.std_at(n)

        t_hi = (anchor + n_hi) * step
        if abs(t - t_hi) <= _TOL:
            mx, my = node_mean(n_hi)
            return Forecast(clamp_to_pitch(mx, my), max(node_std(n_hi), _MIN_STD))
        n_lo = n_hi - 1
        t_lo = (anchor + n_lo) * step
        u = (t - t_lo) / (t_hi - t_lo)
        lo_m, hi_m = node_mean(n_lo), node_mean(n_hi)
        std = max(node_std(n_lo) + u * (node_std(n_hi) - node_std(n_lo)), _MIN_STD)
        return Forecast(
            clamp_to_pitch(
                lo_m[0] + u * (hi_m[0] - lo_m[0]),
                lo_m[1] + u * (hi_m[1] - lo_m[1]),
            ),
            std,
        )


def forward_state(model: ForecastModel, traj: Trajectory, ball: GridSeries) -> ForecastState:
    """A state over the whole trajectory, for forecasts at or after its last sighting."""
    state = ForecastState(model, ball)
    for t, p in zip(traj.times, traj.points):
        state.append(t, p)
    return state


def backward_state(model: ForecastModel, traj: Trajectory, ball: GridSeries) -> ForecastState:
    """A state over the time-reversed trajectory: ``forecast_at(-t)`` forecasts
    ``t`` at or before the first sighting."""
    state = ForecastState(model, ball.reversed)
    for t, p in zip(reversed(traj.times), reversed(traj.points)):
        state.append(-t, p)
    return state


def forecast(model: ForecastModel, traj: Trajectory, ball: GridSeries, t: float) -> Forecast:
    """Forecast the player's position at ``t``, at or after the last sighting."""
    return forward_state(model, traj, ball).forecast_at(t)


def backward_forecast(
    model: ForecastModel, traj: Trajectory, ball: GridSeries, t: float
) -> Forecast:
    """Forecast at ``t``, at or before the first sighting, by time reversal."""
    if traj.times and t > traj.times[0] + _TOL:
        raise ValueError(
            f"backward forecast time {t} is after first sighting {traj.times[0]}"
        )
    return backward_state(model, traj, ball).forecast_at(-t)


# --- fitting -----------------------------------------------------------------

TrainingHalf = tuple[Sequence[Trajectory], GridSeries]


def _segments(
    halves: Sequence[TrainingHalf], grid_step: float, n_exog: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-trajectory, per-axis (displacements, exog-lag matrix) training segments."""
    out = []
    for trajs, ball in halves:
        for traj in trajs:
            if len(traj) < 2:
                continue
            grid = resample_to_grid(traj, grid_step)
            if len(grid) < 3:
                continue
            # displacement i spans the grid interval ending at start_k + 1 + i
            ks = range(grid.start_k + 1, grid.end_k + 1)
            for axis in (0, 1):
                g = np.array(ball.lagged_displacements(ks, axis, n_exog)).reshape(len(ks), n_exog)
                out.append((np.array(grid.displacements[axis]), g))
    return out


def _design(
    d: np.ndarray, e: np.ndarray | None, g: np.ndarray, p: int, q: int, t0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked regression rows [1, d lags, e lags, g lags] for targets d[t0:]."""
    n = len(d) - t0
    cols = [np.ones(n)]
    for i in range(1, p + 1):
        cols.append(d[t0 - i : len(d) - i])
    if e is not None:
        for j in range(1, q + 1):
            cols.append(e[t0 - j : len(d) - j])
    if g.shape[1]:
        cols.append(g[t0:])
    return np.column_stack(cols), d[t0:]


def fit(
    halves: Sequence[TrainingHalf],
    *,
    grid_step: float = 1.0,
    ar_order: int = 2,
    ma_order: int = 1,
    ball_lags: int = 2,
    min_steps: int = 500,
) -> ForecastModel:
    """Fit one pooled displacement ARMAX over all training trajectories.

    Both axes are pooled (the forecast spread is isotropic) and each half's
    trajectories share that half's ball grid.  Estimation is two-stage least
    squares: a long autoregression provides residual estimates, then the
    ARMAX regression is refined with residuals recomputed from the current
    coefficients.  The procedure is deterministic, so refitting identical
    inputs reproduces the model bit for bit.  A non-stationary AR estimate is
    retried at the next lower order.
    """
    segments = _segments(halves, grid_step, ball_lags)
    total = sum(len(d) for d, _ in segments)
    if total < min_steps:
        raise ValueError(f"training data too short: {total} grid steps, need {min_steps}")

    pooled = np.concatenate([d for d, _ in segments])
    one_step_std = max(float(np.std(pooled, ddof=1)), 1e-6)

    p, q, r = ar_order, ma_order, ball_lags
    long_lag = max(8, p + q + 2)

    # Stage 1: long AR (+ exog) to get initial residual estimates.
    e_hat = [np.zeros(len(d)) for d, _ in segments]
    if q > 0:
        stage1 = {
            idx: _design(d, None, g, long_lag, 0, long_lag)
            for idx, (d, g) in enumerate(segments)
            if len(d) > long_lag
        }
        if stage1:
            x1 = np.concatenate([x for x, _ in stage1.values()])
            y1 = np.concatenate([y for _, y in stage1.values()])
            beta1, *_ = np.linalg.lstsq(x1, y1, rcond=None)
            for idx, (x, y) in stage1.items():
                e_hat[idx][long_lag:] = y - x @ beta1

    # Stage 2: ARMAX regression, iterated with residuals recomputed from the
    # current coefficients (non-stationary intermediates are tolerated).
    t0 = max(p, q, 1)
    for _ in range(3):
        xs, ys = [], []
        for (d, g), e in zip(segments, e_hat):
            if len(d) <= t0:
                continue
            x, y = _design(d, e, g, p, q, t0)
            xs.append(x)
            ys.append(y)
        coeffs, *_ = np.linalg.lstsq(np.concatenate(xs), np.concatenate(ys), rcond=None)
        intercept, *rest = coeffs.tolist()
        ar, ma, exog = tuple(rest[:p]), tuple(rest[p : p + q]), tuple(rest[p + q :])
        e_hat = [
            np.array(
                armax_recursion(
                    (intercept, ar, ma, exog), [0.0] * p, [0.0] * q, g.tolist(), d.tolist()
                )
            )
            for d, g in segments
        ]

    if not ar_is_stationary(ar):
        return fit(
            halves,
            grid_step=grid_step,
            ar_order=p - 1,
            ma_order=q,
            ball_lags=r,
            min_steps=min_steps,
        )

    resid_std = max(float(np.std(np.concatenate(e_hat), ddof=1)), 1e-6)
    return ForecastModel(
        ar=ar,
        ma=ma,
        exog=exog,
        intercept=intercept,
        resid_std=resid_std,
        one_step_std=one_step_std,
        grid_step=grid_step,
    )


# --- persistence -------------------------------------------------------------


def save_model(model: ForecastModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "armax-displacement",
        "ar": list(model.ar),
        "ma": list(model.ma),
        "exog": list(model.exog),
        "intercept": model.intercept,
        "resid_std": model.resid_std,
        "one_step_std": model.one_step_std,
        "grid_step": model.grid_step,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf8")


def load_model(path: str | Path) -> ForecastModel:
    doc = json.loads(Path(path).read_text(encoding="utf8"))
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r} in {path}")
    return ForecastModel(
        ar=tuple(doc["ar"]),
        ma=tuple(doc["ma"]),
        exog=tuple(doc["exog"]),
        intercept=doc["intercept"],
        resid_std=doc["resid_std"],
        one_step_std=doc["one_step_std"],
        grid_step=doc["grid_step"],
    )
