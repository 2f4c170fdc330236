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
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .geometry import (
    GRID_TOL,
    MalformedInputError,
    PitchPoint,
    Trajectory,
    clamp_to_pitch,
    is_finite_number,
    lerp,
)
from .ingest import MAX_HALF_GRID_POINTS, MAX_HALF_SPAN_S, load_json

if TYPE_CHECKING:
    from . import training

logger = logging.getLogger(__name__)

_MIN_STD = 1e-9
_STATIONARY_TOL = 1e-7

MODEL_FORMAT_VERSION = 1
MODEL_KIND = "armax-displacement"

# The most lags per coefficient list (AR, MA, ball); the recursion and the
# training rows cost time in proportion to them.
MAX_LAGS = 20

# The fewest grid displacements, pooled over both axes, a fit accepts.
MIN_STEPS = 500


class GridWalk:
    """A series of points resampled onto the grid ``k * step``, one point at a time.

    A node takes the last point within ``GRID_TOL`` steps of it exactly, and
    otherwise the line between the points on either side; nodes outside the
    points' span are not produced.  ``add`` settles the nodes a new point
    passes.  The last node the points reach, ``last_k``, stays open until a
    point beyond it arrives, as a later point within tolerance would take it.
    Fed a whole series, the walk is ``tests/oracles.py:resample_to_grid``
    float for float.
    """

    def __init__(self, step: float):
        self.step = step
        self.t: float | None = None  # the last point's time
        self.point: PitchPoint | None = None
        self.first_k = self.last_k = 0  # the span's first node; the last node the points reach
        self.k = 0  # the last node settled, or before any, the node before the first
        self.value: PitchPoint | None = None  # the value at node k, once a node is settled

    def add(self, t: float, point: PitchPoint) -> tuple[list[float], list[float]]:
        """Take the next point, later than the last; per axis, the
        displacements into the nodes it settles."""
        step, t_last, p_last = self.step, self.t, self.point
        q = t / step
        dx, dy = [], []
        if t_last is None:
            self.first_k = math.ceil(q - GRID_TOL)
            self.k = self.first_k - 1
        else:
            k, prev = self.k + 1, self.value
            while q > k + GRID_TOL:  # node k lies before t, beyond tolerance
                on_node = abs(t_last / step - k) <= GRID_TOL
                value = p_last if on_node else lerp(p_last, t_last, point, t, k * step)
                if prev is not None:
                    dx.append(value.x - prev.x)
                    dy.append(value.y - prev.y)
                prev, k = value, k + 1
            self.k, self.value = k - 1, prev
        self.t, self.point, self.last_k = t, point, math.floor(q + GRID_TOL)
        return dx, dy

    def last_value(self) -> PitchPoint | None:
        """The value at ``last_k``; None before the points reach a node."""
        return self.point if self.last_k > self.k else self.value

    def pending(self) -> tuple[list[float], list[float]]:
        """Per axis, the displacement into the open node, if a settled node precedes it."""
        if self.last_k > self.k and self.value is not None:
            return [self.point.x - self.value.x], [self.point.y - self.value.y]
        return [], []


class BallGrid(NamedTuple):
    """The ball on the forecast grid ``k * step``: per axis, displacement i is
    over the interval ending at node ``start_k + 1 + i``."""

    start_k: int
    step: float
    displacements: tuple[list[float], list[float]]


def ar_is_stationary(ar: Sequence[float]) -> bool:
    """True when the AR polynomial ``1 - ar[0] z - ... - ar[p-1] z^p`` has all
    its roots outside the unit circle.

    Step-down (Schur-Cohn) test: the reverse Levinson recursion lowers the
    order one lag at a time, and the polynomial is stationary iff every
    reflection coefficient (the last coefficient at each order) has magnitude
    below ``1 - 1e-7``, so a root within about 1e-7 of the unit circle counts
    as non-stationary.  A non-finite coefficient is non-stationary.
    """
    phi = list(ar)
    while phi:
        k, m = phi[-1], len(phi) - 1
        if not abs(k) < 1.0 - _STATIONARY_TOL:
            return False
        phi = [(phi[i] + k * phi[m - 1 - i]) / (1.0 - k * k) for i in range(m)]
    return True


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
    ball: Sequence[float],
    j: int,
    steps: int,
    observed: Sequence[float] | None,
) -> list[float]:
    """The displacement recursion over ``steps`` grid steps.

    ``coefs`` is ``(intercept, ar, ma, exog)``.  Step i predicts
    ``intercept + sum(ar * d_lags) + sum(ma * e_lags) + sum(exog[l] * ball[j + i - l])``,
    a ball displacement outside the list counting as zero, and shifts the lag
    registers (most recent first) in place: ``ball[j]`` is the displacement
    over the interval the first step predicts.  Given the ``observed``
    displacements it returns the residuals ``d - pred``; given None it
    forecasts, taking ``d = pred`` and a zero residual, and returns the
    predictions.
    """
    intercept, ar, ma, exog = coefs
    n_ball = len(ball)
    out = []
    for i in range(steps):
        pred = intercept
        for c, v in zip(ar, d_lags):
            pred += c * v
        for c, v in zip(ma, e_lags):
            pred += c * v
        b = j + i
        for c in exog:
            pred += c * (ball[b] if 0 <= b < n_ball else 0.0)
            b -= 1
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
    """Incremental forecasting state for one trajectory, read from the trajectory.

    Before each forecast the state catches up over the points appended to
    the trajectory since the last one: it feeds them to its ``GridWalk`` and
    runs the residual recursion over the displacements the walk settles, so
    a frame loop pays O(gap) per sighting instead of O(history) per forecast.
    Forecasts unroll the same recursion past the walk's last node, taking the
    open node at the last sighting as observed, and keep the unrolled steps
    until the next catch-up, so a state queried at many times beyond its
    trajectory unrolls each step once.

    The assigner keeps one state per outfield trajectory and ``enrich`` gives
    it to the trajectory's path; a state made for a finished trajectory
    replays all its points on its first forecast.
    """

    def __init__(self, model: ForecastModel, ball: BallGrid, trajectory: Trajectory):
        if abs(ball.step - model.grid_step) > GRID_TOL:
            raise ValueError("ball grid step does not match the model grid step")
        self.model = model
        self.ball = ball
        self.trajectory = trajectory
        self._coefs = (model.intercept, model.ar, model.ma, model.exog)
        self._ladder = _VarianceLadder(model)
        self._covered = 0  # the trajectory's points caught up so far
        self.walk = GridWalk(model.grid_step)
        # Per axis: the displacement and residual lag registers, most recent first.
        self._lags = [([0.0] * len(model.ar), [0.0] * len(model.ma)) for _ in (0, 1)]
        # Per axis: the unroll's own lag registers and its cumulative predictions.
        self._unroll: list[tuple[list[float], list[float], list[float]]] | None = None

    def _catch_up(self) -> None:
        times, points = self.trajectory.times, self.trajectory.points
        walk, ball = self.walk, self.ball
        for t, point in zip(times[self._covered :], points[self._covered :]):
            dx, dy = walk.add(t, point)
            # the ball displacement ending at the first new node
            j = walk.k - len(dx) - ball.start_k
            for d, disp, lags in zip((dx, dy), ball.displacements, self._lags):
                armax_recursion(self._coefs, *lags, disp, j, len(d), d)
        self._covered = len(times)
        self._unroll = None

    def _cumulative_unroll(self, n: int) -> tuple[list[float], list[float]]:
        """Per-axis cumulative predicted displacement 1..n grid steps past the walk's last node."""
        walk, ball = self.walk, self.ball
        if self._unroll is None:
            self._unroll = [(list(d), list(e), []) for d, e in self._lags]
            # the open node at the last sighting enters the unroll's lags as observed
            for d, disp, (d_lags, e_lags, _) in zip(walk.pending(), ball.displacements, self._unroll):
                armax_recursion(self._coefs, d_lags, e_lags, disp, walk.k - ball.start_k, len(d), d)
        k_first = walk.last_k + 1
        for disp, (d_lags, e_lags, cum) in zip(ball.displacements, self._unroll):
            j = k_first + len(cum) - ball.start_k - 1
            preds = armax_recursion(self._coefs, d_lags, e_lags, disp, j, n - len(cum), None)
            total = cum[-1] if cum else 0.0
            for pred in preds:
                total += pred
                cum.append(total)
        return self._unroll[0][2], self._unroll[1][2]

    def forecast_at(self, t: float) -> Forecast:
        if self._covered < len(self.trajectory.times):
            self._catch_up()
        walk = self.walk
        t_last, pos_last = walk.t, walk.point
        if t_last is None:
            raise ValueError("cannot forecast from an empty trajectory")
        if t < t_last - GRID_TOL:
            raise ValueError(f"forecast time {t} precedes last sighting {t_last}")
        step = self.model.grid_step
        if t <= t_last + GRID_TOL:
            return Forecast(clamp_to_pitch(pos_last.x, pos_last.y), _MIN_STD)
        anchor = walk.last_k
        # Node n sits at (anchor + n) * step; node 1 is the first node after t_last.
        t1 = (anchor + 1) * step
        if t / step <= anchor + 1 + GRID_TOL:
            u = (t - t_last) / (t1 - t_last)
            std = max(u * self.model.one_step_std, _MIN_STD)
            return Forecast(clamp_to_pitch(pos_last.x, pos_last.y), std)
        n_hi = math.ceil(t / step - GRID_TOL) - anchor
        cum_x, cum_y = self._cumulative_unroll(n_hi)
        apos = walk.last_value() or pos_last  # before the first node, the last sighting

        def node_mean(n: int) -> tuple[float, float]:
            if n <= 1:  # one step ahead: random walk about the last sighting
                return (pos_last.x, pos_last.y)
            return (apos.x + cum_x[n - 1], apos.y + cum_y[n - 1])

        def node_std(n: int) -> float:
            return self.model.one_step_std if n <= 1 else self._ladder.std_at(n)

        t_hi = (anchor + n_hi) * step
        if abs(t / step - (anchor + n_hi)) <= GRID_TOL:
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


# --- fitting -----------------------------------------------------------------


def fit(
    halves: Iterable[training.TrainingHalf],
    *,
    grid_step: float = 1.0,
    ar_order: int = 2,
    ma_order: int = 1,
    ball_lags: int = 2,
) -> ForecastModel:
    """Fit one pooled displacement ARMAX over all training tracks.

    Both axes are pooled (the forecast spread is isotropic) and each half's
    tracks share that half's ball grid.  Estimation is two-stage least
    squares: a long autoregression provides residual estimates, then the
    ARMAX regression is refined with residuals recomputed from the current
    coefficients.  The procedure is deterministic, so refitting identical
    inputs reproduces the model bit for bit.  A non-stationary AR estimate is
    retried at the next lower order on the same training segments.  A stage-2
    pass after the first that estimates a non-invertible MA is dropped, and
    the passes end with the previous one (logged at INFO).

    ``halves`` is dropped once resampled, so a caller that passes the only
    reference frees the tracks before any design matrix is built.  Each stage
    builds one design over every segment.
    """
    import numpy as np

    from . import training

    pool, segments = training.grid_segments(halves, grid_step, ball_lags)
    del halves
    if len(pool) < MIN_STEPS:
        raise MalformedInputError(
            f"training data too short: {len(pool)} grid steps, need {MIN_STEPS}"
        )
    t0 = max(ar_order, ma_order, 1)
    if not training.stacked_rows(segments, t0):
        raise MalformedInputError(
            f"training data too short: no trajectory spans more than {t0} grid steps, "
            f"as ar_order {ar_order} and ma_order {ma_order} need"
        )
    one_step_std = max(float(np.std(pool, ddof=1)), 1e-6)

    q = ma_order
    for p in range(ar_order, -1, -1):  # AR order 0 is always stationary
        t0, long_lag = max(p, q, 1), max(8, p + q + 2)

        # Stage 1: long AR (+ exog) to get initial residual estimates.
        e_hat = np.zeros(len(pool))
        stacked = training.stacked_rows(segments, long_lag)
        if q > 0 and stacked:
            x, y = training.design(pool, stacked, long_lag, long_lag, 0, ball_lags)
            beta1, *_ = np.linalg.lstsq(x, y, rcond=None)
            for (a, b, *_), rows in stacked:
                e_hat[a + long_lag : b] = y[rows] - x[rows] @ beta1
            del x, y

        # Stage 2: ARMAX regression, iterated with residuals recomputed from the
        # current coefficients (non-stationary intermediates are tolerated, but
        # a non-invertible MA is not: its residuals diverge).  Each pass
        # rewrites only the design's e-lag columns.
        stacked = training.stacked_rows(segments, t0)
        x, y = training.design(pool, stacked, t0, p, q, ball_lags)
        for n_pass in range(3):
            training.fill_lags(x, stacked, t0, 1 + p, q, e_hat)
            coeffs, *_ = np.linalg.lstsq(x, y, rcond=None)
            c0, *rest = coeffs.tolist()
            estimate = (c0, tuple(rest[:p]), tuple(rest[p : p + q]), tuple(rest[p + q :]))
            if n_pass and not ar_is_stationary([-c for c in estimate[2]]):
                logger.info(
                    "fit: stage-2 pass %d estimates the non-invertible MA %s; keeping pass %d",
                    n_pass + 1, estimate[2], n_pass,
                )
                break
            coefs = intercept, ar, ma, exog = estimate
            e_hat = np.empty(len(pool))
            for a, b, _, ball, j in segments:
                d = pool[a:b].tolist()
                e_hat[a:b] = armax_recursion(coefs, [0.0] * p, [0.0] * q, ball, j, len(d), d)
        del x, y
        if ar_is_stationary(ar):
            break

    resid_std = max(float(np.std(e_hat, ddof=1)), 1e-6)
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
        "kind": MODEL_KIND,
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
    """Read a model file; a malformed one raises MalformedInputError naming the key."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInputError(f"model file {path} must hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise MalformedInputError(
            f"{path}: format_version: unsupported model format version {version!r}"
        )
    if doc.get("kind") != MODEL_KIND:
        raise MalformedInputError(f"{path}: kind: must be {MODEL_KIND!r}, got {doc.get('kind')!r}")
    fields = {}
    for key in ("ar", "ma", "exog", "intercept", "resid_std", "one_step_std", "grid_step"):
        value = doc.get(key)
        if key in ("ar", "ma", "exog"):
            if not isinstance(value, list) or not all(map(is_finite_number, value)):
                raise MalformedInputError(f"{path}: {key}: must be a list of finite numbers")
            if len(value) > MAX_LAGS:
                raise MalformedInputError(
                    f"{path}: {key}: {len(value)} lags, at most {MAX_LAGS} allowed"
                )
            value = tuple(value)
        elif not is_finite_number(value):
            raise MalformedInputError(f"{path}: {key}: must be a finite number, got {value!r}")
        elif key in ("resid_std", "one_step_std", "grid_step") and value <= 0:
            raise MalformedInputError(f"{path}: {key}: must be positive, got {value!r}")
        fields[key] = value
    if MAX_HALF_SPAN_S / fields["grid_step"] > MAX_HALF_GRID_POINTS:
        raise MalformedInputError(
            f"{path}: grid_step: more than {MAX_HALF_GRID_POINTS} grid points on a half"
        )
    try:
        return ForecastModel(**fields)
    except ValueError as e:  # non-stationary: the spreads were checked above
        raise MalformedInputError(f"{path}: ar: {e}") from None
