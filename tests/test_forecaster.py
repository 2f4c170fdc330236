import codecs
import gc
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from track_enrich import forecaster, training
from track_enrich.training import ColumnTrack, resample_column, truth_columns
from track_enrich.assigner import ball_grid
from track_enrich.forecaster import (
    MAX_LAGS,
    ForecastModel,
    ForecastState,
    GridWalk,
    ar_is_stationary,
    armax_recursion,
    fit,
    load_model,
    save_model,
)
from track_enrich.geometry import (
    AWAY,
    GRID_TOL,
    HOME,
    MalformedInputError,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
)
from track_enrich.ingest import DiscreteMatchRecord, MatchHalf, TruthTable

from oracles import GridSeries, column_half, forecast, resample_to_grid
from synth import synth_half, truth_half


def make_traj(points, tag=None):
    traj = Trajectory(tag=tag or PlayerTag("home"))
    for t, x, y in points:
        traj.append(t, PitchPoint(x, y))
    return traj


def flat_ball(n=400, start_k=-200, x=60.0, y=40.0):
    return GridSeries(start_k, 1.0, [PitchPoint(x, y)] * n)


def simple_model(**kw):
    defaults = dict(
        ar=(0.3, 0.1),
        ma=(0.2,),
        exog=(0.15, 0.05),
        intercept=0.01,
        resid_std=0.5,
        one_step_std=0.8,
    )
    defaults.update(kw)
    return ForecastModel(**defaults)


def walk_ball(times, points, step=1.0):
    """``assigner.ball_grid`` over a record whose ball is at ``points`` at ``times``."""
    frames = [ObservationFrame(t, p, ()) for t, p in zip(times, points)]
    return ball_grid(DiscreteMatchRecord(1, frames), step)


def walk_to(times, points, step=1.0):
    """A grid walk fed the points in order."""
    walk = GridWalk(step)
    for t, p in zip(times, points):
        walk.add(t, p)
    return walk


class TestResample:
    def test_midpoint(self):
        traj = make_traj([(2, 0, 0), (4, 4, 2)])
        grid = walk_ball(traj.times, traj.points)
        # nodes 2, 3 and 4: node 3 lies halfway
        assert grid.start_k == 2 and grid.displacements == ([2.0, 2.0], [1.0, 1.0])

    def test_known_time_exact(self):
        traj = make_traj([(2, 0, 0), (4, 4, 2)])
        walk = walk_to(traj.times[:1], traj.points[:1])
        assert walk.last_k == 2 and walk.last_value() is traj.points[0]
        # nodes 2 and 3 settle; node 4 stays open on the second point
        assert walk.add(4.0, traj.points[1]) == ([2.0], [1.0])
        assert walk.k == 3 and walk.last_k == 4 and walk.last_value() is traj.points[1]

    def test_one_third(self):
        traj = make_traj([(0, 0, 0), (3, 6, 0)])
        grid = walk_ball(traj.times, traj.points)
        assert grid.start_k == 0 and (grid.displacements[0][0], grid.displacements[1][0]) == (2.0, 0.0)

    def test_span_limits(self):
        traj = make_traj([(1.5, 0, 0), (3.5, 4, 4)])
        grid = walk_ball(traj.times, traj.points)
        assert grid.start_k == 2 and len(grid.displacements[0]) == 1  # nodes 2 and 3
        assert walk_to(traj.times, traj.points).last_k == 3

    def test_recorded_grid_points_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 12)
            times = np.sort(rng.choice(np.arange(0, 40), size=n, replace=False)).astype(float)
            pts = rng.uniform(0, 100, (n, 2))
            traj = make_traj([(t, p[0], p[1]) for t, p in zip(times, pts)])
            walk = GridWalk(1.0)
            for i, (t, p) in enumerate(zip(traj.times, traj.points)):
                walk.add(t, p)
                assert walk.last_k == int(t) and walk.last_value() is p
                if i and walk.k == traj.times[i - 1]:  # the node before settled on its sighting
                    assert walk.value is traj.points[i - 1]


# Times a grid step's 1e-9 fraction on either side of a node, or between nodes,
# as a sorted list at least 1e-6 s apart; with the step they sit on.
_STEPS = st.sampled_from([0.04, 0.5, 1.0, 2.0, 3.0])
_NEAR_NODES = st.lists(
    st.tuples(
        st.integers(0, 30),  # node
        st.sampled_from([0.0, 0.25, 0.5]),  # fraction of a step past it
        st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5]),  # offset in 1e-9 steps
    ),
    min_size=1,
    max_size=12,
)


def _near_node_times(step, draws):
    times = []
    for t in sorted((k + frac) * step + off * 1e-9 * step for k, frac, off in draws):
        if not times or t - times[-1] >= 1e-6:
            times.append(t)
    return times


class TestResampleTolerance:
    """A time within GRID_TOL grid steps of a node is on the node, whatever the step."""

    def test_last_time_just_below_a_node_of_a_long_step(self):
        times, points = [0.0, 10 - 1.5e-9], [PitchPoint(0, 0), PitchPoint(1, 1)]
        walk = walk_to(times, points, 2.0)
        assert walk.last_k == 5 and walk.last_value() is points[1]
        grid = walk_ball(times, points, 2.0)
        assert grid.start_k == 0 and len(grid.displacements[0]) == 5

    @settings(max_examples=300, deadline=None)
    @given(step=_STEPS, draws=_NEAR_NODES)
    @example(step=3.0, draws=[(0, 0.0, 0.0), (4, 0.0, -0.5)])
    def test_nodes_within_tolerance_take_their_point(self, step, draws):
        times = _near_node_times(step, draws)
        points = [PitchPoint(float(i), -float(i)) for i in range(len(times))]
        grid, walk = resample_to_grid(times, points, step), GridWalk(step)
        for t, p in zip(times, points):
            walk.add(t, p)
            k = round(t / step)
            if abs(t / step - k) <= GRID_TOL:
                assert grid.values[k - grid.start_k] is p
                assert walk.last_k == k and walk.last_value() is p

    @settings(max_examples=300, deadline=None)
    @given(step=_STEPS, draws=_NEAR_NODES)
    @example(step=3.0, draws=[(0, 0.0, 0.0), (4, 0.0, -0.5)])
    def test_state_covers_the_grid_as_resampling_does(self, step, draws):
        """After each append, a state's last grid node and value are the last
        node and value of the prefix's resampling, and a forecast within
        tolerance of a node is the node's."""
        times = _near_node_times(step, draws)
        points = [PitchPoint(float(i), -float(i)) for i in range(len(times))]
        ball = GridSeries(0, step, [PitchPoint(60.0, 40.0)] * 2)
        traj = Trajectory(tag=PlayerTag("home"))
        state = ForecastState(simple_model(grid_step=step), ball, traj)
        for n, (t, p) in enumerate(zip(times, points), start=1):
            traj.append(t, p)
            state.forecast_at(t)  # catches up over the new point
            grid = resample_to_grid(times[:n], points[:n], step)
            assert state.walk.last_k == grid.end_k
            assert state.walk.last_value() == (grid.values[-1] if grid.values else None)
            node = (state.walk.last_k + 2) * step
            assert state.forecast_at(node + 0.5e-9 * step) == state.forecast_at(node)

# A column's times: runs of points near grid nodes (a node, a fraction of a
# step past it, and an offset of up to 1.5 GRID_TOL steps either side), with
# the gaps between runs that substitutions leave.
_COLUMN_DRAWS = st.lists(
    st.tuples(
        st.integers(-3, 40),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]) | st.floats(0.0, 1.0),
        st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
    ),
    min_size=1,
    max_size=20,
)


def _column_series(step, draws, data):
    """A column's strictly increasing times from the draws, and a cell per time:
    drawn when ``data`` is given, else a fixed line."""
    times = []
    for t in sorted((k + frac) * step + off * GRID_TOL * step for k, frac, off in draws):
        if not times or t > times[-1]:
            times.append(t)
    cells = [(float(i), 80.0 - 0.37 * i) for i in range(len(times))]
    if data is not None:
        coords = st.floats(0.0, 120.0, allow_nan=False)
        cells = data.draw(st.lists(st.tuples(coords, coords), min_size=len(times), max_size=len(times)))
    return times, cells


class TestColumnResample:
    """The fit's column resampler is resample_to_grid over arrays, float for float."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(step=st.floats(0.2, 7.0), draws=_COLUMN_DRAWS, data=st.data())
    @example(step=3.0, draws=[(0, 0.0, 0.0), (4, 0.0, -0.5)], data=None)
    @example(step=0.2, draws=[(5, 0.5, 0.0)], data=None)  # one point, no node
    def test_equals_resample_to_grid_float_for_float(self, step, draws, data):
        times, cells = _column_series(step, draws, data)
        want = resample_to_grid(times, [PitchPoint(x, y) for x, y in cells], step)
        k, got = resample_column(ColumnTrack(np.array(times), np.array(cells).reshape(-1, 2)), step)
        assert k == want.start_k
        assert [(x.hex(), y.hex()) for x, y in got.tolist()] == [(p.x.hex(), p.y.hex()) for p in want.values]


class TestBallWalk:
    """The ball's grid walk (``assigner.ball_grid``) is resample_to_grid, float for float."""

    @settings(max_examples=400, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
    @given(step=st.floats(0.2, 7.0), draws=_COLUMN_DRAWS, data=st.data())
    @example(step=1.0, draws=[(3, 0.0, 0.0)], data=None)  # a one-frame record
    @example(step=2.0, draws=[(4, 0.1, 0.0), (4, 0.9, 0.0)], data=None)  # a span that holds no node
    @example(step=2.0, draws=[(0, 0.0, 0.0), (5, 0.0, -0.75)], data=None)  # the last time 1.5e-9 s below node 5
    def test_equals_resample_to_grid_float_for_float(self, step, draws, data):
        times, cells = _column_series(step, draws, data)
        points = [PitchPoint(x, y) for x, y in cells]
        want, got = resample_to_grid(times, points, step), walk_ball(times, points, step)
        assert got.start_k == want.start_k
        assert [[d.hex() for d in axis] for axis in got.displacements] == [
            [d.hex() for d in axis] for axis in want.displacements
        ]


class TestForecastBasics:
    def test_one_step_is_random_walk(self):
        model = simple_model()
        traj = make_traj([(0, 50, 40), (1, 51, 40), (2, 50, 40)])
        fc = forecast(model, traj, flat_ball(), 3.0)
        assert fc.mean == PitchPoint(50.0, 40.0)
        assert fc.std == model.one_step_std

    def test_zero_coefficients_hold_last_position(self):
        # Zero displacement coefficients == a pure random walk in levels
        # (levels AR coefficient one): the mean never moves.
        model = simple_model(ar=(0.0, 0.0), ma=(0.0,), exog=(0.0, 0.0), intercept=0.0)
        # in the second, a + 1.0 * (b - a) is not b: the grid node at a sighting is the sighting
        for points in (
            [(0, 30, 20), (1, 32, 22), (2, 34, 24)],
            [(1, 75.086436, 5.242309), (2, 1.580159, 66.997527)],
        ):
            t_last, x, y = points[-1]
            for horizon in (1.0, 2.0, 5.0, 17.0):
                fc = forecast(model, make_traj(points), flat_ball(), t_last + horizon)
                assert fc.mean == PitchPoint(x, y)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            forecast(simple_model(), Trajectory(tag=PlayerTag("home")), flat_ball(), 1.0)

    def test_query_before_last_sighting_rejected(self):
        traj = make_traj([(0, 10, 10), (5, 12, 12)])
        with pytest.raises(ValueError):
            forecast(simple_model(), traj, flat_ball(), 3.0)

    def test_std_profile(self):
        model = simple_model()
        traj = make_traj([(0, 50, 40), (1, 51, 41), (2, 52, 42)])
        ball = flat_ball()
        stds = [forecast(model, traj, ball, 2.0 + n).std for n in range(1, 40)]
        assert stds[0] == model.one_step_std
        for a, b in zip(stds[1:], stds[2:]):
            assert b >= a

    def test_mean_clamped_to_pitch(self):
        # strong positive drift marches the mean into the corner
        model = simple_model(ar=(0.0, 0.0), ma=(0.0,), exog=(0.0, 0.0), intercept=2.0)
        traj = make_traj([(0, 110, 70), (1, 112, 72)])
        fc = forecast(model, traj, flat_ball(), 40.0)
        assert fc.mean == PitchPoint(120.0, 80.0)

    def test_translation_equivariance(self):
        model = simple_model()
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = [(float(t), 40 + float(rng.uniform(-5, 5)), 40 + float(rng.uniform(-5, 5))) for t in range(5)]
            dx, dy = rng.uniform(2, 8, 2)
            traj = make_traj(pts)
            shifted = make_traj([(t, x + dx, y + dy) for t, x, y in pts])
            ball_pts = [PitchPoint(60 + float(rng.uniform(-1, 1)), 40.0) for _ in range(300)]
            ball = GridSeries(-100, 1.0, ball_pts)
            ball_shifted = GridSeries(-100, 1.0, [PitchPoint(p.x + dx, p.y + dy) for p in ball_pts])
            for h in (1.0, 3.0, 7.5):
                a = forecast(model, traj, ball, 4.0 + h)
                b = forecast(model, shifted, ball_shifted, 4.0 + h)
                assert abs((b.mean.x - a.mean.x) - dx) < 1e-9
                assert abs((b.mean.y - a.mean.y) - dy) < 1e-9
                assert abs(a.std - b.std) < 1e-12


def unrolled_oracle(model, traj_points, ball_xy, t_query):
    """Independent ARMAX unrolling on the one-second grid.

    Resamples with numpy.interp, runs the textbook conditional recursion with
    zero pre-sample lags, and accumulates predicted displacements from the
    last grid node.  Exogenous lag l weights the ball displacement into node
    k - l; future residuals are zero.
    """
    times = np.array([p[0] for p in traj_points], dtype=float)
    k_first = math.ceil(times[0])
    k_last = math.floor(times[-1])
    ks = np.arange(k_first, k_last + 1, dtype=float)
    ball_ks, ball_vals = ball_xy

    means = []
    for axis in (1, 2):
        vals = np.array([p[axis] for p in traj_points], dtype=float)
        grid = np.interp(ks, times, vals)
        d = np.diff(grid)
        bvals = np.asarray(ball_vals)[:, axis - 1]

        def ball_disp(k):
            i = int(np.clip(k - ball_ks[0], 0, len(bvals) - 1))
            j = int(np.clip(k - 1 - ball_ks[0], 0, len(bvals) - 1))
            return bvals[i] - bvals[j]

        p, q = len(model.ar), len(model.ma)
        e = []
        for i, dv in enumerate(d):
            k = int(ks[0]) + 1 + i
            pred = model.intercept
            for lag in range(1, p + 1):
                pred += model.ar[lag - 1] * (d[i - lag] if i - lag >= 0 else 0.0)
            for lag in range(1, q + 1):
                pred += model.ma[lag - 1] * (e[i - lag] if i - lag >= 0 else 0.0)
            for lag, c in enumerate(model.exog):
                pred += c * ball_disp(k - lag)
            e.append(dv - pred)

        n = int(round(t_query - ks[-1]))
        d_ext = list(d)
        e_ext = list(e)
        total = grid[-1]
        for step in range(1, n + 1):
            k = int(ks[-1]) + step
            pred = model.intercept
            for lag in range(1, p + 1):
                idx = len(d_ext) - lag
                pred += model.ar[lag - 1] * (d_ext[idx] if idx >= 0 else 0.0)
            for lag in range(1, q + 1):
                idx = len(e_ext) - lag
                pred += model.ma[lag - 1] * (e_ext[idx] if idx >= 0 else 0.0)
            for lag, c in enumerate(model.exog):
                pred += c * ball_disp(k - lag)
            d_ext.append(pred)
            e_ext.append(0.0)
            total += pred
        means.append(total)
    return means


class TestMultiStepAgainstOracle:
    def test_matches_independent_unrolling(self):
        rng = np.random.default_rng(42)
        model = simple_model()
        for trial in range(30):
            n_pts = int(rng.integers(2, 8))
            times = np.sort(rng.choice(np.arange(0, 20), size=n_pts, replace=False))
            pts = [
                (float(t), float(rng.uniform(20, 100)), float(rng.uniform(10, 70)))
                for t in times
            ]
            ball_vals = [
                (float(rng.uniform(30, 90)), float(rng.uniform(20, 60)))
                for _ in range(60)
            ]
            ball = GridSeries(-10, 1.0, [PitchPoint(x, y) for x, y in ball_vals])
            traj = make_traj(pts)
            horizon = int(rng.integers(2, 12))
            t_query = float(times[-1] + horizon)
            fc = forecast(model, traj, ball, t_query)
            ox, oy = unrolled_oracle(model, pts, (np.arange(-10, 50), ball_vals), t_query)
            assert abs(fc.mean.x - np.clip(ox, 0, 120)) < 1e-9, f"trial {trial}"
            assert abs(fc.mean.y - np.clip(oy, 0, 80)) < 1e-9, f"trial {trial}"


def textbook_residuals(model, d, exog_at):
    """Conditional residuals with zero pre-sample lags, indexed the textbook way;
    ``exog_at(i, l)`` is ball lag l at step i."""
    p, q = len(model.ar), len(model.ma)
    e = []
    for i, dv in enumerate(d):
        pred = model.intercept
        for lag in range(1, p + 1):
            pred += model.ar[lag - 1] * (d[i - lag] if i - lag >= 0 else 0.0)
        for lag in range(1, q + 1):
            pred += model.ma[lag - 1] * (e[i - lag] if i - lag >= 0 else 0.0)
        for lag, c in enumerate(model.exog):
            pred += c * exog_at(i, lag)
        e.append(dv - pred)
    return e


class TestSharedRecursion:
    def _coefs(self, model):
        return (model.intercept, model.ar, model.ma, model.exog)

    def test_residuals_equal_textbook_loop(self):
        """From before the ball list (negative j), inside it, across its end and past it."""
        rng = np.random.default_rng(31)
        ball = rng.normal(0, 1, 50).tolist()
        for j in (-60, -3, 0, 10, 49, 70):
            for ar, ma, exog in (
                ((0.3, 0.1), (0.2,), (0.15, 0.05)),
                ((0.5,), (), (0.2, -0.1, 0.05, 0.3)),
                ((), (0.4, -0.1), (0.1,)),
                ((), (), ()),
            ):
                model = simple_model(ar=ar, ma=ma, exog=exog)
                d = rng.normal(0, 1, 50).tolist()
                got = armax_recursion(
                    self._coefs(model), [0.0] * len(ar), [0.0] * len(ma), ball, j, len(d), d
                )
                want = textbook_residuals(
                    model, d, lambda i, lag: ball[j + i - lag] if 0 <= j + i - lag < len(ball) else 0.0
                )
                assert got == want, (j, ar, ma, exog)

    def test_forecast_mode_feeds_predictions_back(self):
        model = simple_model()
        rng = np.random.default_rng(32)
        ball = rng.normal(0, 1, 8).tolist()
        d_lags, e_lags = [0.4, -0.2], [0.3]
        preds = armax_recursion(self._coefs(model), list(d_lags), list(e_lags), ball, -2, 12, None)
        # observing each prediction reproduces the forecast: zero residuals
        resid = armax_recursion(self._coefs(model), list(d_lags), list(e_lags), ball, -2, 12, preds)
        assert resid == [0.0] * 12

    def test_ball_displacements_zero_outside_series(self):
        ball = GridSeries(3, 1.0, [PitchPoint(1.0, 2.0), PitchPoint(4.0, 1.0), PitchPoint(6.0, 5.0)])
        coefs = (0.0, (), (), (1.0, 10.0, 100.0, 1000.0))  # each lag in its own decimal place
        # nodes 5 and 6 read x lags [2, 3, 0, 0] and [0, 2, 3, 0]
        assert armax_recursion(coefs, [], [], ball.displacements[0], 1, 2, None) == [32.0, 320.0]
        # node 3, the series' first node, has no displacement ending at it
        assert armax_recursion(coefs[:3] + ((1.0, 10.0),), [], [], ball.displacements[1], -1, 1, None) == [0.0]

    @settings(max_examples=200, deadline=None)
    @given(
        n_values=st.integers(0, 8),
        start_k=st.integers(-5, 5),
        n=st.integers(0, 4),
        first=st.integers(-15, 15),
        length=st.integers(0, 20),
    )
    def test_index_reads_equal_the_loop_over_per_node_rows(self, n_values, start_k, n, first, length):
        """The recursion over nodes ``first ..``, read by index from the ball's
        displacements, equals the textbook loop fed the per-node lag rows: inside
        the series and across either end of it."""
        rng = np.random.default_rng(n_values * 1000 + length)
        ball = GridSeries(
            start_k, 1.0, [PitchPoint(*rng.uniform(0, 80, 2).tolist()) for _ in range(n_values)]
        )
        model = simple_model(exog=tuple(rng.uniform(-0.5, 0.5, n).tolist()))
        d = rng.normal(0, 1, length).tolist()
        for axis in (0, 1):
            rows = oracles.ball_lag_rows(ball, range(first, first + length), axis, n)
            got = armax_recursion(
                self._coefs(model), [0.0, 0.0], [0.0], ball.displacements[axis],
                first - start_k - 1, length, d,
            )
            assert got == textbook_residuals(model, d, lambda i, lag: rows[i][lag])


class TestIncrementalState:
    def test_state_matches_pure_forecast(self):
        model = simple_model()
        rng = np.random.default_rng(17)
        ball_vals = [PitchPoint(float(rng.uniform(30, 90)), float(rng.uniform(20, 60))) for _ in range(80)]
        ball = GridSeries(0, 1.0, ball_vals)
        traj = Trajectory(tag=PlayerTag("home"))
        state = ForecastState(model, ball, traj)
        t = 1.0
        for _ in range(12):
            p = PitchPoint(float(rng.uniform(20, 100)), float(rng.uniform(10, 70)))
            traj.append(t, p)
            for dt in (0.5, 1.0, 3.0, 7.25):
                a = state.forecast_at(t + dt)
                b = forecast(model, traj, ball, t + dt)
                assert abs(a.mean.x - b.mean.x) < 1e-12
                assert abs(a.mean.y - b.mean.y) < 1e-12
                assert abs(a.std - b.std) < 1e-12
            t += float(rng.integers(1, 5))


class TestFit:
    def test_stationary_players_give_zero_coefficients(self):
        trajs = []
        for i in range(4):
            traj = Trajectory(tag=PlayerTag("home"))
            for t in range(200):
                traj.append(float(t), PitchPoint(30.0 + 10 * i, 40.0))
            trajs.append(traj)
        ball = flat_ball(n=220, start_k=-10)
        model = fit([column_half(trajs, ball)])
        assert all(abs(c) < 1e-8 for c in model.ar)
        assert all(abs(c) < 1e-8 for c in model.ma)
        assert all(abs(c) < 1e-8 for c in model.exog)
        assert abs(model.intercept) < 1e-8

    def test_ar1_displacement_recovery(self):
        rng = np.random.default_rng(101)
        phi = 0.6
        n = 10_000
        d = np.zeros(n)
        for t in range(1, n):
            d[t] = phi * d[t - 1] + rng.normal(0, 0.3)
        x = 60.0 + np.cumsum(d) * 0.01  # keep on the pitch
        traj = Trajectory(tag=PlayerTag("home"))
        for t in range(n):
            traj.append(float(t), PitchPoint(float(np.clip(x[t], 1, 119)), 40.0))
        ball = flat_ball(n=n + 20, start_k=-10)
        model = fit([column_half([traj], ball)], ar_order=1, ma_order=0, ball_lags=0)
        assert abs(model.ar[0] - phi) < 0.1

    def test_fit_deterministic(self, training_half, model):
        again = fit([truth_columns(truth_half(training_half).frames)])
        assert again == model

    def test_sane_on_synthetic_match(self, model):
        assert 0.05 < model.resid_std < 3.0
        assert 0.05 < model.one_step_std < 4.0
        assert all(math.isfinite(c) for c in model.ar + model.ma + model.exog)

    def test_non_stationary_estimate_retried_at_lower_order(self, monkeypatch):
        calls = []
        segments = training.grid_segments
        monkeypatch.setattr(training, "grid_segments", lambda *a: calls.append(a) or segments(*a))
        traj, x, d = Trajectory(tag=PlayerTag("home")), 10.0, 1e-3
        for t in range(600):  # displacements growing 1 % a step: an AR(1) of 1.01
            traj.append(float(t), PitchPoint(x, 40.0))
            d *= 1.01
            x += d
        half = column_half([traj], flat_ball(n=620, start_k=-10))
        model = fit([half], ar_order=2, ma_order=0, ball_lags=0)
        assert model.ar == ()
        assert model.intercept > 0.0
        assert len(calls) == 1  # the retries reuse the training segments

    def test_stage_two_keeps_the_last_invertible_ma(self, monkeypatch, caplog):
        """One 450 s half at 25 fps: stage 2's second pass estimates the MA
        -1.02, not invertible, whose residuals run to 4e4 m.  The fit keeps the
        first pass instead, so no stage-2 residual exceeds 100 m."""
        half = truth_columns(truth_half(synth_half(seconds=450.0, fps=25, seed=21)).frames)
        worst = []
        recursion = forecaster.armax_recursion

        def spy(coefs, d_lags, e_lags, ball, j, steps, observed):
            out = recursion(coefs, d_lags, e_lags, ball, j, steps, observed)
            worst.append(max(map(abs, out), default=0.0))
            return out

        monkeypatch.setattr(forecaster, "armax_recursion", spy)
        with caplog.at_level(logging.INFO, logger="track_enrich.forecaster"):
            model = fit([half])
        assert worst and max(worst) < 100.0
        assert ar_is_stationary([-c for c in model.ma])
        assert "stage-2 pass 2 estimates the non-invertible MA" in caplog.text
        assert "keeping pass 1" in caplog.text

    @settings(max_examples=100, deadline=None)
    @given(n_ball=st.integers(3, 12), ball_start=st.integers(-3, 3), n=st.integers(0, 4), data=st.data())
    def test_segment_exog_rows_equal_the_ball_lag_rows(self, n_ball, ball_start, n, data):
        """Segments over the ball's whole grid, from its first node, and inside it:
        each segment's window rows are the lag rows at its (list, offset)."""
        rng = np.random.default_rng(n_ball * 100 + n)
        ball = GridSeries(
            ball_start, 1.0, [PitchPoint(*rng.uniform(0, 80, 2).tolist()) for _ in range(n_ball)]
        )
        spans = [(ball_start, n_ball)]
        for _ in range(data.draw(st.integers(0, 3))):
            a = data.draw(st.integers(0, n_ball - 3))
            spans.append((ball_start + a, data.draw(st.integers(3, n_ball - a))))
        trajs = [make_traj([(float(k), 50.0, 0.5 * k) for k in range(a, a + m)]) for a, m in spans]
        _, segments = training.grid_segments([column_half(trajs, ball)], 1.0, n)
        spans = [(a, m, axis) for a, m in spans for axis in (0, 1)]
        assert len(segments) == len(spans)
        for (_, _, g, disp, j), (a, m, axis) in zip(segments, spans):
            # the recursion reads the displacement ending at node a + 1 + i at step i
            assert disp == ball.displacements[axis] and j == a - ball_start
            assert g.tolist() == oracles.ball_lag_rows(ball, range(a + 1, a + m), axis, n)

    def test_segments_reject_a_trajectory_outside_the_ball_grid(self):
        ball = flat_ball(n=10, start_k=0)
        for ks in (range(-2, 5), range(5, 11)):
            traj = make_traj([(float(k), 50.0, 0.5 * k) for k in ks])
            with pytest.raises(ValueError, match="leaves its half's ball grid"):
                training.grid_segments([column_half([traj], ball)], 1.0, 2)

    def test_equals_the_reference_fit_on_the_conftest_half(self, training_half, model):
        trajs = [t for t in training_half.player_tracks.values() if not t.tag.is_goalkeeper]
        truth = truth_half(training_half)
        balls = [PitchPoint(x, y) for x, y in truth.frames.cells[:, 0].tolist()]
        want = oracles.reference_fit([(trajs, resample_to_grid(truth.times, balls))])
        assert _hexes(model) == _hexes(want)

    @pytest.mark.parametrize(
        "seed, fps, orders",
        [
            (1, 7.0, {}),
            (2, 25.0, dict(ar_order=3, ma_order=2, ball_lags=3)),
            (3, 3.0, dict(ma_order=0)),
            (4, 12.5, dict(ar_order=1, ma_order=1, ball_lags=0)),
        ],
    )
    def test_equals_the_reference_fit_on_generated_halves(self, seed, fps, orders):
        tables = [_generated_truth(10 * seed + i, fps, 60.0) for i in (0, 1)]
        reference = []
        for tab in tables:
            trajs = [t for t in oracles.truth_tracks(MatchHalf(1, tab)).values() if not t.tag.is_goalkeeper]
            balls = [PitchPoint(x, y) for x, y in tab.cells[:, 0].tolist()]
            reference.append((trajs, resample_to_grid(tab.times, balls)))
        want = oracles.reference_fit(reference, **orders)
        assert _hexes(fit([truth_columns(tab) for tab in tables], **orders)) == _hexes(want)

    def test_peaks_under_two_and_a_half_times_its_stage_one_design(self):
        """On the feed_360 workload's training match, the fit holds one stage-1
        design, frees it before stage 2 and builds no design per segment."""
        halves = [
            truth_columns(truth_half(synth_half(seconds=90.0, fps=5, seed=s, half_id=i)).frames)
            for i, s in enumerate((1011, 1012), start=1)
        ]
        _, segments = training.grid_segments(halves, 1.0, 2)
        design = sum(b - a - 8 for a, b, *_ in segments if b - a > 8) * (1 + 8 + 2) * 8
        del segments
        fit(halves)  # the first fit's one-off allocations stay out of the trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit(halves)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * design

    def test_too_little_data(self):
        traj = make_traj([(0, 10, 10), (5, 12, 12)])
        with pytest.raises(ValueError, match="too short"):
            fit([column_half([traj], flat_ball())])


def _hexes(model: ForecastModel) -> list[str]:
    """Every float of a model, exactly."""
    floats = (*model.ar, *model.ma, *model.exog, model.intercept, model.resid_std, model.one_step_std)
    return [len(model.ar), len(model.ma), *(float(c).hex() for c in (*floats, model.grid_step))]


def _generated_truth(seed: int, fps: float, seconds: float) -> TruthTable:
    """A truth half off the 1 s grid: 22 players walking at random, each
    off the pitch for a random stretch, as a substitution leaves a gap."""
    rng = np.random.default_rng(seed)
    n = int(seconds * fps)
    walk = np.cumsum(rng.normal(0.0, 2.0 / fps, (n, 23, 2)), axis=0)
    cells = np.clip(rng.uniform(20.0, 60.0, (1, 23, 2)) + walk, 0.0, 80.0)
    used = np.ones((n, 23), dtype=bool)
    for j in range(1, 23):
        a, b = sorted(rng.integers(0, n, 2).tolist())
        used[a:b, j] = False
    tags = [PlayerTag(HOME if j < 11 else AWAY, is_goalkeeper=j in (0, 11)) for j in range(22)]
    keys = [f"{tag.team}:Player{j}" for j, tag in enumerate(tags)]
    return TruthTable((0.37 + np.arange(n) / fps).tolist(), cells, used, keys, tags)


class TestPersistence:
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    def test_round_trip(self, tmp_path, model, bom):
        path = tmp_path / "model.json"
        save_model(model, path)
        if bom:
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        again = load_model(path)
        assert again == model

    def test_byte_identical_rewrite(self, tmp_path, model):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ar", "xy"),
            ("ar", [0.2, None]),
            ("ma", [True]),
            ("exog", None),
            ("intercept", None),
            ("intercept", "0.1"),
            ("intercept", False),
            ("resid_std", float("nan")),
            ("resid_std", -0.5),
            ("one_step_std", 0.0),
            ("one_step_std", float("inf")),
            ("grid_step", 0),
            ("grid_step", 1e-9),
            ("ar", [1.2]),
            ("format_version", "1"),
            ("format_version", True),
            ("format_version", 2),
            ("kind", "arima"),
            ("kind", None),
            ("kind", ["armax-displacement"]),
        ],
    )
    def test_malformed_model_names_file_and_key(self, tmp_path, model, key, value):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInputError, match=f"model.json: {key}: "):
            load_model(path)

    def test_missing_key_names_file_and_key(self, tmp_path, model):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["one_step_std"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInputError, match="model.json: one_step_std: "):
            load_model(path)


class TestStationarityGuard:
    def test_explosive_ar_rejected(self):
        with pytest.raises(ValueError, match="not stationary"):
            ForecastModel(
                ar=(1.2,), ma=(), exog=(), intercept=0.0, resid_std=1.0, one_step_std=1.0
            )

    def test_positive_spreads_required(self):
        with pytest.raises(ValueError):
            ForecastModel(
                ar=(0.1,), ma=(), exog=(), intercept=0.0, resid_std=0.0, one_step_std=1.0
            )


# AR vectors of order 0 to MAX_LAGS: coefficients c_i * rho**i put the roots of
# 1 - sum c_i z^i (all beyond 1/2 for |c_i| <= 1) at 1/rho times that, so both
# stationary and explosive vectors of every order come up.  A |c_i| below 1e-9
# becomes zero: np.roots finds a root at 0 when the leading coefficient is
# near the smallest float.
_ar_vectors = st.builds(
    lambda cs, rho: tuple(c * rho ** (i + 1) if abs(c) > 1e-9 else 0.0 for i, c in enumerate(cs)),
    st.lists(st.floats(-1.0, 1.0), max_size=MAX_LAGS),
    st.floats(0.1, 2.5),
)


class TestStationarityTest:
    @pytest.mark.parametrize(
        "ar, stationary",
        [
            ((), True),
            ((0, 0), True),
            ((0.9,), True),
            ((1.0,), False),
            ((-1.0,), False),
            ((0.5, 0.5), False),
            ((2.0,), False),
        ],
    )
    def test_exact_cases(self, ar, stationary):
        assert ar_is_stationary(ar) is stationary

    @settings(max_examples=400, deadline=None)
    @given(ar=_ar_vectors)
    def test_agrees_with_roots_away_from_unit_circle(self, ar):
        assume(not 1.0 - 1e-3 <= oracles.ar_min_root_modulus(ar) <= 1.0 + 1e-3)
        assert ar_is_stationary(ar) == oracles.ar_is_stationary(ar)
