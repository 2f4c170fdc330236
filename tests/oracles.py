"""Reference computations the tests compare the package against, and the
reader of the enriched output the tests check.

They are built from the package's own pieces (forecast states, the velocity
field's nodes, the 360 reader's flip, the JSON readers' field checks, the
tracking reader's cell parser and keeper inference) but are not used by the
pipeline.  The reference grid resampler is ``resample_to_grid``, which puts a
whole series on the grid point by point as a ``GridSeries``; both
``forecaster.GridWalk`` and ``training.resample_column`` are pinned to it
float for float.  The reference tracking CSV reader is the package's reader
before it read both files in lockstep into one buffer per half.  The
reference fit is the package's fit before it trained from the truth table's
columns: it resamples ``Trajectory`` objects and the ball's ``GridSeries``
point by point and builds one design per segment.
"""

import csv
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from track_enrich.broadcast import ground_truth_at
from track_enrich.evaluator import event_frame_times
from track_enrich.forecaster import (
    MIN_STEPS,
    Forecast,
    ForecastModel,
    ForecastState,
    ar_is_stationary as stationary,
    armax_recursion,
)
from track_enrich.geometry import (
    AWAY,
    GRID_TOL,
    HOME,
    PERCENT_TOLERANCE,
    PITCH_LENGTH_M,
    PITCH_WIDTH_M,
    EnrichedFrame,
    EnrichedPlayer,
    MalformedInputError,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
    clamp_to_pitch,
    lerp,
)
from track_enrich.ingest import (
    _NOT_A_PERIOD,
    MAX_HALF_SPAN_S,
    MAX_PERIOD,
    MatchHalf,
    TruthTable,
    _flag,
    _flip,
    _infer_keepers_and_sides,
    _number,
    _point,
    _read_frames,
    _tag,
    _utf8_lines,
    load_json,
)
from track_enrich.interpolator import VelocityField
from track_enrich.lsap import linear_sum_assignment
from track_enrich.pipeline import snapshot_at
from track_enrich.training import ColumnTrack


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


def resample_to_grid(
    times: Sequence[float], points: Sequence[PitchPoint], grid_step: float = 1.0
) -> GridSeries:
    """Resample positions at strictly increasing ``times`` onto the grid by
    linear interpolation.

    Grid points outside the times' span are not produced; grid points
    coinciding with recorded times reproduce the recorded position exactly.
    """
    if not times:
        raise ValueError("cannot resample an empty series")
    k_first = math.ceil(times[0] / grid_step - GRID_TOL)
    k_last = math.floor(times[-1] / grid_step + GRID_TOL)
    values: list[PitchPoint] = []
    if k_last < k_first:
        return GridSeries(k_first, grid_step, values)
    i = 0
    for k in range(k_first, k_last + 1):
        while i + 1 < len(times) and times[i + 1] / grid_step <= k + GRID_TOL:
            i += 1
        # k_last is within tolerance of the last time even where rounding puts
        # their difference a hair past it
        if i + 1 == len(times) or abs(times[i] / grid_step - k) <= GRID_TOL:
            values.append(points[i])
        else:
            values.append(lerp(points[i], times[i], points[i + 1], times[i + 1], k * grid_step))
    return GridSeries(k_first, grid_step, values)


def truth_frame(half, i: int) -> ObservationFrame:
    """Row ``i`` of a MatchHalf's truth table as a frame: the ball, then each
    used player cell in column order."""
    tab = half.frames
    (ball, *row), on = tab.cells[i].tolist(), tab.used[i, 1:].tolist()
    visible = ((tag, PitchPoint(x, y)) for (x, y), tag in compress(zip(row, tab.tags), on))
    return ObservationFrame(time=tab.times[i], ball=PitchPoint(*ball), visible=tuple(visible))


def truth_tracks(half) -> dict[str, Trajectory]:
    """Each player column of a MatchHalf's truth table as a trajectory, by key."""
    tab = half.frames
    tracks = {}
    for j, (key, tag) in enumerate(zip(tab.keys, tab.tags), start=1):
        on = tab.used[:, j]
        points = [PitchPoint(x, y) for x, y in tab.cells[on, j].tolist()]
        tracks[key] = Trajectory(tag, list(compress(tab.times, on.tolist())), points)
    return tracks


def distance(a: PitchPoint, b: PitchPoint) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def observed_at(traj: Trajectory, t: float) -> bool:
    """True when a real observation (not an invented seed) of ``traj`` is at ``t``."""
    i = bisect_left(traj.times, t)
    return i < len(traj.times) and traj.times[i] == t and not (traj.seeded and i == 0)


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
    return ForecastState(model, ball, traj).forecast_at(t)


def ball_lag_rows(ball: GridSeries, ks: range, axis: int, n: int) -> list[list[float]]:
    """Per node k of ``ks``, the ball's displacements over the n grid intervals
    ending at k, k - 1, ...; an interval outside the series counts as zero."""
    disp = ball.displacements[axis]
    rows = []
    for k in ks:
        i = k - ball.start_k - 1  # the displacement over the interval ending at k
        rows.append([disp[j] if 0 <= j < len(disp) else 0.0 for j in range(i, i - n, -1)])
    return rows


def column_track(times, points) -> ColumnTrack:
    """Parallel times and ``PitchPoint``s as a column track."""
    cells = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    return ColumnTrack(np.array(times, dtype=float), cells)


def column_half(trajs, ball: GridSeries) -> tuple[list[ColumnTrack], ColumnTrack]:
    """Trajectories and a ball grid as the fit's training half: a column track
    per trajectory and one for the ball, its nodes at their grid times."""
    times = [(ball.start_k + i) * ball.step for i in range(len(ball))]
    return [column_track(t.times, t.points) for t in trajs], column_track(times, ball.values)


def reference_segments(halves, grid_step: float, n_exog: int) -> list:
    """The fit's segments from (trajectories, ball grid) halves: per trajectory
    and axis (displacements, exog-lag rows, ball displacements, offset)."""
    from numpy.lib.stride_tricks import sliding_window_view as windows

    out = []
    for trajs, ball in halves:
        pad = np.zeros(n_exog)
        lags = [windows(np.concatenate([pad, d]), n_exog)[:, ::-1] for d in ball.displacements]
        for traj in trajs:
            if len(traj) < 2:
                continue
            grid = resample_to_grid(traj.times, traj.points, grid_step)
            if len(grid) < 3:
                continue
            lo, hi = grid.start_k + 1 - ball.start_k, grid.end_k + 1 - ball.start_k
            if lo < 0 or hi > len(lags[0]):
                raise ValueError("a training trajectory leaves its half's ball grid")
            for axis, disp in enumerate(ball.displacements):
                out.append((np.array(grid.displacements[axis]), lags[axis][lo:hi], disp, lo - 1))
    return out


def _reference_design(d, e, g, p: int, q: int, t0: int):
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


def reference_fit(halves, *, grid_step=1.0, ar_order=2, ma_order=1, ball_lags=2) -> ForecastModel:
    """``forecaster.fit`` over (trajectories, ball grid) halves, one design per
    segment and per pass, concatenated for each least-squares solve."""
    segments = reference_segments(halves, grid_step, ball_lags)
    total = sum(len(d) for d, *_ in segments)
    if total < MIN_STEPS:
        raise MalformedInputError(f"training data too short: {total} grid steps, need {MIN_STEPS}")
    pooled = np.concatenate([d for d, *_ in segments])
    one_step_std = max(float(np.std(pooled, ddof=1)), 1e-6)
    q = ma_order
    for p in range(ar_order, -1, -1):
        t0, long_lag = max(p, q, 1), max(8, p + q + 2)
        e_hat = [np.zeros(len(d)) for d, *_ in segments]
        if q > 0:
            stage1 = {
                idx: _reference_design(d, None, g, long_lag, 0, long_lag)
                for idx, (d, g, *_) in enumerate(segments)
                if len(d) > long_lag
            }
            if stage1:
                x1 = np.concatenate([x for x, _ in stage1.values()])
                y1 = np.concatenate([y for _, y in stage1.values()])
                beta1, *_ = np.linalg.lstsq(x1, y1, rcond=None)
                for idx, (x, y) in stage1.items():
                    e_hat[idx][long_lag:] = y - x @ beta1
        for n_pass in range(3):
            xs, ys = [], []
            for (d, g, *_), e in zip(segments, e_hat):
                if len(d) <= t0:
                    continue
                x, y = _reference_design(d, e, g, p, q, t0)
                xs.append(x)
                ys.append(y)
            coeffs, *_ = np.linalg.lstsq(np.concatenate(xs), np.concatenate(ys), rcond=None)
            c0, *rest = coeffs.tolist()
            estimate = (c0, tuple(rest[:p]), tuple(rest[p : p + q]), tuple(rest[p + q :]))
            if n_pass and not stationary([-c for c in estimate[2]]):
                break
            coefs = intercept, ar, ma, exog = estimate
            e_hat = [
                np.array(armax_recursion(coefs, [0.0] * p, [0.0] * q, ball, j, len(d), d.tolist()))
                for d, _, ball, j in segments
            ]
        if stationary(ar):
            break
    resid_std = max(float(np.std(np.concatenate(e_hat), ddof=1)), 1e-6)
    return ForecastModel(ar, ma, exog, intercept, resid_std, one_step_std, grid_step)


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
        cost = [[distance(truth[j], est[c]) for c in remaining] for j in unused]
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
    against the truth's nearest row as a frame (``truth_frame``), and one row
    per prediction.

    Returns the in-phase (time, total squared error) pairs and the rows.  A
    query time whose truth lacks a team's outfielders is skipped; more than
    1% of the query times (2n - 1 for n frames) skipped raises the
    evaluator's MalformedInputError.
    """
    frame_times = [fr.time for fr in record.frames]
    events = event_frame_times(truth.events, frame_times)
    frames: list[tuple[float, float]] = []
    rows: list[PredictionRow] = []
    skipped = 0

    def score(t, phase, prev_time):
        snapshot, ages = snapshot_at(paths, t)
        truth_row = truth_frame(truth, ground_truth_at(truth, t))
        scored = [(p, age) for p, age in zip(snapshot.players, ages) if not p.tag.is_goalkeeper]
        errors = [0.0] * len(scored)
        for team in (HOME, AWAY):
            idx = [i for i, (p, _) in enumerate(scored) if p.tag.team == team]
            true = truth_row.visible_for(team)
            if len(idx) != len(true):
                return None
            for i, err in zip(idx, match_team([scored[i][0].position for i in idx], true)):
                errors[i] = err
        outfield = [p for p in paths.paths if not p.trajectory.tag.is_goalkeeper]
        for (player, age), path, err in zip(scored, outfield, errors, strict=True):
            prev_observed = prev_time is not None and observed_at(path.trajectory, prev_time)
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
    if skipped > 0.01 * (2 * len(frame_times) - 1):
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


def fixed_decimal(v: float) -> str:
    """The enriched and discrete files' number format, as the writer built it
    from parts: six decimals, trailing zeros cut down to two, no negative zero."""
    if v != v or math.isinf(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    whole, frac = f"{v:.6f}".split(".")
    frac = frac.rstrip("0")
    if len(frac) < 2:
        frac = frac.ljust(2, "0")
    if whole in ("-0", "-") and not frac.strip("0"):
        whole = "0"
    return f"{whole}.{frac}"


def player_json(team: str, keeper: bool, x: float, y: float, visible: bool | None) -> str:
    """One player object of an enriched or discrete frame, joined from parts."""
    parts = [
        f'"team": "{team}"',
        f'"keeper": {"true" if keeper else "false"}',
        f'"x": {fixed_decimal(x)}',
        f'"y": {fixed_decimal(y)}',
    ]
    if visible is not None:
        parts.append(f'"visible": {"true" if visible else "false"}')
    return "{" + ", ".join(parts) + "}"


# --- the tracking CSV reader before it read both files in lockstep --------------


class TeamTable(NamedTuple):
    path: Path
    keys: list[str]  # "<team>:<Player column>", in header order
    rows: np.ndarray  # CSV row number of each timed data row
    period: np.ndarray
    time: np.ndarray
    xy: np.ndarray  # (rows, 1 + players, 2) fractions, the ball first; NaN when absent


def read_team_csv(path: Path, team: str) -> TeamTable:
    """Parse one wide per-team CSV into float arrays; untimed rows are skipped."""
    with path.open(newline="", encoding="utf8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        head = list(islice(reader, 4))
        if len(head) < 4:
            raise MalformedInputError(f"{path}: too short to contain headers and data")
        header_idx = next(
            (i for i, row in enumerate(head) if row and row[0].strip().lower() == "period"), None
        )
        if header_idx is None:
            raise MalformedInputError(f"{path}: no 'Period,...' header row found")
        header = [c.strip() for c in head[header_idx]]
        ball = next((i for i, c in enumerate(header) if c.lower() == "ball"), None)
        if ball is None:
            raise MalformedInputError(f"{path}: header declares no ball columns")
        time_col = next((i for i, c in enumerate(header) if c.lower().startswith("time")), None)
        if time_col is None:
            raise MalformedInputError(f"{path}: header declares no time column")
        players = [i for i, c in enumerate(header) if c.lower().startswith("player")]
        keys = [f"{team}:{header[i]}" for i in players]
        if len(set(keys)) != len(keys):
            raise MalformedInputError(f"{path}: header repeats a player column")
        cols = [0, time_col, *(c for i in [ball, *players] for c in (i, i + 1))]
        pick, pad = itemgetter(*cols), [""] * (max(cols) + 1)
        numbers, parsed = array("q"), array("d")
        for n, raw in enumerate(chain(head[header_idx + 1 :], reader), start=header_idx + 2):
            if raw and raw[0].strip():
                numbers.append(n)
                cells = pick(raw + pad[len(raw) :])
                try:  # whole rows only: a row that fails appends nothing
                    parsed.extend(list(map(float, cells)))
                except ValueError:  # a blank cell, else a malformed one
                    parsed.extend([_number(path, n, cell) for cell in cells])
    # Views on the parsed buffers: a fully timed file is kept without a copy.
    values = np.frombuffer(parsed).reshape(len(numbers), len(cols))
    rows, period, time = np.frombuffer(numbers, dtype=np.int64), values[:, 0], values[:, 1]
    whole = (period >= 0) & (period < MAX_PERIOD) & (np.floor(period) == period)
    bad = np.flatnonzero(~whole | np.isinf(time))
    if bad.size:
        i = bad[0]
        what = f"time {time[i].item()!r} is not finite" if whole[i] else _NOT_A_PERIOD
        raise MalformedInputError(f"{path} row {rows[i]}: {what.format(period[i].item())}")
    timed = ~np.isnan(time)
    if not timed.all():
        rows, period, time, values = rows[timed], period[timed], time[timed], values[timed]
    xy = values[:, 2:].reshape(-1, 1 + len(keys), 2)
    return TeamTable(path, keys, rows, period.astype(int), time, xy)


def read_tracking_csv(home_path, away_path) -> list[MatchHalf]:
    """The reference for ``ingest.read_tracking_csv``: each file parsed whole
    into its own table, then each period's cells copied into the half's."""
    home = read_team_csv(Path(home_path), HOME)
    away = read_team_csv(Path(away_path), AWAY)
    if len(home.time) != len(away.time):
        raise MalformedInputError(
            f"{home.path} has {len(home.time)} timed rows but {away.path} {len(away.time)}"
        )
    if not len(home.time):
        raise MalformedInputError(f"{home.path}: no data row has both a period and a time")
    differ = np.flatnonzero((home.period != away.period) | (home.time != away.time))
    if differ.size:
        i = differ[0]
        raise MalformedInputError(
            f"{away.path} row {away.rows[i]}: period or time differs from "
            f"{home.path} row {home.rows[i]}"
        )
    return [match_half(p, home, away) for p in sorted(set(home.period.tolist()))]


def match_half(period: int, home: TeamTable, away: TeamTable) -> MatchHalf:
    sel = np.flatnonzero(home.period == period)
    stuck = np.flatnonzero(np.diff(home.time[sel]) <= 0)
    if stuck.size:
        raise MalformedInputError(
            f"{home.path} row {home.rows[sel[stuck[0] + 1]]}: time does not increase"
        )
    times, n = home.time[sel], len(sel)
    if times[-1] - times[0] > MAX_HALF_SPAN_S:
        raise MalformedInputError(
            f"{home.path} row {home.rows[sel[-1]]}: period {period} times span "
            f"{times[-1] - times[0]:g} s, more than {MAX_HALF_SPAN_S:g} s"
        )
    offset = float(times[0] - (times[1] - times[0])) if n >= 2 else 0.0
    if sel[-1] - sel[0] == n - 1:  # contiguous rows: index with views, not copies
        sel = slice(sel[0], sel[-1] + 1)
    home_ball = ~np.isnan(home.xy[sel, 0]).any(axis=1)
    ball = np.where(home_ball[:, None], home.xy[sel, 0], away.xy[sel, 0])
    present = np.concatenate([~np.isnan(t.xy[sel, 1:]).any(axis=2) for t in (home, away)], axis=1)
    on_pitch = present.any(axis=0)  # False for unused substitutes
    keys = list(compress(home.keys + away.keys, on_pitch))
    columns = ((t, j) for t in (home, away) for j in range(1, 1 + len(t.keys)))
    xy = [t.xy[sel, j] for t, j in compress(columns, on_pitch)]  # (rows, 2) per player
    present = present[:, on_pitch]

    first_seen = present.argmax(axis=0)
    keepers, defends = _infer_keepers_and_sides(keys, xy, present, first_seen)
    tags = [PlayerTag(team=k.split(":", 1)[0], is_goalkeeper=k in keepers) for k in keys]
    keep = present.copy()
    for team in (HOME, AWAY):  # substitution overlap: the longest-established ten stay
        cols = sorted(
            (j for j, tag in enumerate(tags) if tag.team == team and not tag.is_goalkeeper),
            key=lambda j: (first_seen[j], keys[j]),
        )
        keep[:, cols] &= np.cumsum(present[:, cols], axis=1) <= 10

    has_ball = ~np.isnan(ball).any(axis=1)
    kept = np.flatnonzero(has_ball)
    if not len(kept):
        rows = f"rows {home.rows[sel][0]}-{home.rows[sel][-1]}"
        raise MalformedInputError(f"{home.path} {rows}: period {period} has no row with a ball")
    dropped = n - len(kept)
    cells = np.empty((len(kept), 1 + len(xy), 2))
    for j, column in enumerate([ball, *xy]):
        for axis in (0, 1):  # one axis at a time: numpy's fast path for a strided column
            cells[:, j, axis] = column[:, axis][has_ball]
    used = np.concatenate([np.ones((len(kept), 1), dtype=bool), keep[kept]], axis=1)
    lo, hi = -PERCENT_TOLERANCE, 1.0 + PERCENT_TOLERANCE
    # Per-cell masks only when some cell, used or not, lies out of range.
    if np.fmin.reduce(cells, None, initial=lo) < lo or np.fmax.reduce(cells, None, initial=hi) > hi:
        outside = used[..., None] & ((cells < lo) | (cells > hi))
        if outside.any():
            i, j, axis = np.argwhere(outside)[0]
            from_home = tags[j - 1].team == HOME if j else home_ball[kept[i]]
            tab = home if from_home else away
            raise MalformedInputError(
                f"percentage coordinate {'xy'[axis]}={float(cells[i, j, axis])!r} in "
                f"{tab.path} row {tab.rows[sel][kept[i]]} outside [-0.05, 1.05]"
            )
    scale = np.array([PITCH_LENGTH_M, PITCH_WIDTH_M])
    cells *= scale
    np.maximum(cells, 0.0, out=cells)
    np.minimum(cells, scale, out=cells)

    table = TruthTable((times[kept] - offset).tolist(), cells, used, keys, tags)
    return MatchHalf(period, table, defends_left=defends, dropped_rows=dropped, time_offset=offset)
