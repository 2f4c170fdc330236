import math

import numpy as np
import pytest

from track_enrich.forecaster import (
    ForecastModel,
    ForecastState,
    GridSeries,
    armax_recursion,
    ball_grid_from_frames,
    backward_forecast,
    fit,
    forecast,
    load_model,
    resample_to_grid,
    save_model,
)
from track_enrich.geometry import PitchPoint, PlayerTag, Trajectory


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


class TestResample:
    def test_midpoint(self):
        traj = make_traj([(2, 0, 0), (4, 4, 2)])
        grid = resample_to_grid(traj)
        assert grid.values[3 - grid.start_k] == PitchPoint(2.0, 1.0)

    def test_known_time_exact(self):
        traj = make_traj([(2, 0, 0), (4, 4, 2)])
        grid = resample_to_grid(traj)
        assert grid.values[2 - grid.start_k] == PitchPoint(0.0, 0.0)
        assert grid.values[4 - grid.start_k] == PitchPoint(4.0, 2.0)

    def test_one_third(self):
        traj = make_traj([(0, 0, 0), (3, 6, 0)])
        grid = resample_to_grid(traj)
        assert grid.values[1 - grid.start_k] == PitchPoint(2.0, 0.0)

    def test_span_limits(self):
        traj = make_traj([(1.5, 0, 0), (3.5, 4, 4)])
        grid = resample_to_grid(traj)
        assert grid.start_k == 2 and grid.end_k == 3

    def test_recorded_grid_points_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 12)
            times = np.sort(rng.choice(np.arange(0, 40), size=n, replace=False)).astype(float)
            pts = rng.uniform(0, 100, (n, 2))
            traj = make_traj([(t, p[0], p[1]) for t, p in zip(times, pts)])
            grid = resample_to_grid(traj)
            for t, p in zip(times, pts):
                got = grid.values[int(t) - grid.start_k]
                assert got.x == p[0] and got.y == p[1]


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
        traj = make_traj([(0, 30, 20), (1, 32, 22), (2, 34, 24)])
        for horizon in (1.0, 2.0, 5.0, 17.0):
            fc = forecast(model, traj, flat_ball(), 2.0 + horizon)
            assert fc.mean == PitchPoint(34.0, 24.0)

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


def textbook_residuals(model, d, g):
    """Conditional residuals with zero pre-sample lags, indexed the textbook way."""
    p, q = len(model.ar), len(model.ma)
    e = []
    for i, dv in enumerate(d):
        pred = model.intercept
        for lag in range(1, p + 1):
            pred += model.ar[lag - 1] * (d[i - lag] if i - lag >= 0 else 0.0)
        for lag in range(1, q + 1):
            pred += model.ma[lag - 1] * (e[i - lag] if i - lag >= 0 else 0.0)
        for lag, c in enumerate(model.exog):
            pred += c * g[i][lag]
        e.append(dv - pred)
    return e


class TestSharedRecursion:
    def _coefs(self, model):
        return (model.intercept, model.ar, model.ma, model.exog)

    def test_residuals_equal_textbook_loop(self):
        rng = np.random.default_rng(31)
        for ar, ma in (((0.3, 0.1), (0.2,)), ((0.5,), ()), ((), (0.4, -0.1)), ((), ())):
            model = simple_model(ar=ar, ma=ma)
            d = rng.normal(0, 1, 50).tolist()
            g = rng.normal(0, 1, (50, len(model.exog))).tolist()
            got = armax_recursion(
                self._coefs(model), [0.0] * len(ar), [0.0] * len(ma), g, d
            )
            assert got == textbook_residuals(model, d, g)

    def test_forecast_mode_feeds_predictions_back(self):
        model = simple_model()
        rng = np.random.default_rng(32)
        g = rng.normal(0, 1, (12, 2)).tolist()
        d_lags, e_lags = [0.4, -0.2], [0.3]
        preds = armax_recursion(self._coefs(model), list(d_lags), list(e_lags), g, None)
        # observing each prediction reproduces the forecast: zero residuals
        resid = armax_recursion(self._coefs(model), list(d_lags), list(e_lags), g, preds)
        assert resid == [0.0] * len(g)

    def test_ball_displacements_zero_outside_series(self):
        ball = GridSeries(3, 1.0, [PitchPoint(1.0, 2.0), PitchPoint(4.0, 1.0), PitchPoint(6.0, 5.0)])
        assert ball.lagged_displacements([5, 6], 0, 4) == [[2.0, 3.0, 0.0, 0.0], [0.0, 2.0, 3.0, 0.0]]
        assert ball.lagged_displacements([3], 1, 2) == [[0.0, 0.0]]
        assert ball.reversed.lagged_displacements([-3], 0, 2) == [[-3.0, -2.0]]


class TestBackward:
    def test_one_step_back_symmetry(self):
        model = simple_model()
        traj = make_traj([(5, 44, 33), (6, 45, 34)])
        fc = backward_forecast(model, traj, flat_ball(), 4.0)
        assert fc.mean == PitchPoint(44.0, 33.0)
        assert fc.std == model.one_step_std

    def test_zero_coefficients_hold_first_position(self):
        model = simple_model(ar=(0.0, 0.0), ma=(0.0,), exog=(0.0, 0.0), intercept=0.0)
        traj = make_traj([(10, 70, 50), (11, 72, 52), (12, 74, 54)])
        fc = backward_forecast(model, traj, flat_ball(), 3.0)
        assert fc.mean == PitchPoint(70.0, 50.0)

    def test_matches_forward_on_reversed_data(self):
        model = simple_model()
        rng = np.random.default_rng(9)
        pts = [(float(t), float(rng.uniform(20, 100)), float(rng.uniform(10, 70))) for t in range(4, 9)]
        ball_vals = [PitchPoint(float(rng.uniform(30, 90)), float(rng.uniform(20, 60))) for _ in range(30)]
        ball = GridSeries(-8, 1.0, ball_vals)
        traj = make_traj(pts)
        # manual reversal about t=0
        rev = make_traj([(-t, x, y) for t, x, y in reversed(pts)])
        rev_ball = ball.reversed
        for t_query in (1.0, 0.0, -2.0, 1.5):
            back = backward_forecast(model, traj, ball, t_query)
            fwd = forecast(model, rev, rev_ball, -t_query)
            assert abs(back.mean.x - fwd.mean.x) < 1e-12
            assert abs(back.mean.y - fwd.mean.y) < 1e-12
            assert abs(back.std - fwd.std) < 1e-12

    def test_after_first_sighting_rejected(self):
        traj = make_traj([(5, 44, 33), (6, 45, 34)])
        with pytest.raises(ValueError):
            backward_forecast(simple_model(), traj, flat_ball(), 5.5)


class TestIncrementalState:
    def test_state_matches_pure_forecast(self):
        model = simple_model()
        rng = np.random.default_rng(17)
        ball_vals = [PitchPoint(float(rng.uniform(30, 90)), float(rng.uniform(20, 60))) for _ in range(80)]
        ball = GridSeries(0, 1.0, ball_vals)
        state = ForecastState(model, ball)
        traj = Trajectory(tag=PlayerTag("home"))
        t = 1.0
        for _ in range(12):
            p = PitchPoint(float(rng.uniform(20, 100)), float(rng.uniform(10, 70)))
            state.append(t, p)
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
        model = fit([(trajs, ball)], min_steps=500)
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
        model = fit([( [traj], ball )], ar_order=1, ma_order=0, ball_lags=0)
        assert abs(model.ar[0] - phi) < 0.1

    def test_fit_deterministic(self, training_half, model):
        trajs = [t for t in training_half.player_tracks.values() if not t.tag.is_goalkeeper]
        ball = ball_grid_from_frames(training_half.frames)
        again = fit([(trajs, ball)])
        assert again == model

    def test_sane_on_synthetic_match(self, model):
        assert 0.05 < model.resid_std < 3.0
        assert 0.05 < model.one_step_std < 4.0
        assert all(math.isfinite(c) for c in model.ar + model.ma + model.exog)

    def test_too_little_data(self):
        traj = make_traj([(0, 10, 10), (5, 12, 12)])
        with pytest.raises(ValueError, match="too short"):
            fit([([traj], flat_ball())])


class TestPersistence:
    def test_round_trip(self, tmp_path, model):
        path = tmp_path / "model.json"
        save_model(model, path)
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
