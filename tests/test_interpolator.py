from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from track_enrich import forecaster
from track_enrich.geometry import PitchPoint, PlayerTag, Trajectory
from track_enrich.interpolator import (
    ContinuousPath,
    VelocityField,
    compute_velocity_field,
    position_at,
)
from track_enrich.pipeline import _observed_and_age, path_states

from oracles import (
    GridSeries,
    forecast,
    position_in_gap,
    velocity_at,
    velocity_correction,
    weighted_velocity,
)
from test_forecaster import flat_ball, make_traj, simple_model


def field_from(vs, alpha=0.5, start_k=0):
    return VelocityField(
        start_k=start_k,
        step=1.0,
        vx=[v[0] for v in vs],
        vy=[v[1] for v in vs],
        alpha=alpha,
    )


class TestComputeVelocityField:
    def _traj(self, pairs):
        traj = Trajectory(tag=PlayerTag("home"))
        for t, x, y in pairs:
            traj.append(float(t), PitchPoint(x, y))
        return traj

    def test_mean_of_two_players(self):
        a = self._traj([(0, 10, 10), (1, 11, 10)])  # displacement (1, 0)
        b = self._traj([(0, 30, 30), (1, 33, 32)])  # displacement (3, 2)
        field = compute_velocity_field([a, b], alpha=0.5)
        assert field.vx[0] == 2.0 and field.vy[0] == 1.0

    def test_empty_interval_zero(self):
        a = self._traj([(0, 10, 10), (1, 11, 10), (5, 20, 20), (6, 22, 21)])
        field = compute_velocity_field([a], alpha=0.5)
        # intervals 1..4 have no adjacent pairs
        for k in (1, 2, 3, 4):
            i = k - field.start_k
            assert field.vx[i] == 0.0 and field.vy[i] == 0.0
        assert field.vx[0] == 1.0 and field.vx[5] == 2.0

    def test_singleton_mean(self):
        a = self._traj([(2, 10, 10), (3, 14, 13)])
        field = compute_velocity_field([a], alpha=1.0)
        assert field.start_k == 2
        assert field.vx[0] == 4.0 and field.vy[0] == 3.0

    def test_off_grid_points_do_not_contribute(self):
        a = self._traj([(0.25, 10, 10), (1.25, 14, 13)])
        field = compute_velocity_field([a], alpha=0.5)
        assert not field.vx

    def test_points_within_tolerance_of_a_node_are_on_it(self):
        """0.5e-9 steps of 3 s off the node at 3 s: 1.5e-9 s, on the node all the same."""
        a = self._traj([(0, 10, 10), (3 - 1.5e-9, 13, 16)])
        field = compute_velocity_field([a], alpha=0.5, grid_step=3.0)
        assert field.vx[0] == 1.0 and field.vy[0] == 2.0


class TestWeightedVelocity:
    def test_constant_integrand(self):
        field = field_from([(2.0, 0.0)] * 5, alpha=0.5)  # u == (2, 0) on [0, 4]
        assert weighted_velocity(field, 0.0, 4.0) == (4.0, 0.0)

    def test_empty_interval(self):
        field = field_from([(2.0, 1.0)] * 5, alpha=0.5)
        assert weighted_velocity(field, 1.7, 1.7) == (0.0, 0.0)

    def test_triangle_area(self):
        # u rises linearly from (0,0) at t=0 to (4,0) at t=2: integral is 4
        field = field_from([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)], alpha=0.5)
        w = weighted_velocity(field, 0.0, 2.0)
        assert w == (2.0, 0.0)

    def test_matches_dense_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            vs = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(n)]
            alpha = float(rng.uniform(0, 1))
            field = field_from(vs, alpha=alpha)
            s = float(rng.uniform(0, n - 1))
            t = float(rng.uniform(s, n - 1))
            ts = np.linspace(s, t, 20001)
            ux = [velocity_at(field, tt)[0] for tt in ts]
            uy = [velocity_at(field, tt)[1] for tt in ts]
            wx, wy = weighted_velocity(field, s, t)
            assert abs(wx - alpha * np.trapezoid(ux, ts)) < 1e-6
            assert abs(wy - alpha * np.trapezoid(uy, ts)) < 1e-6

    def test_constant_extension_beyond_ends(self):
        field = field_from([(1.0, 0.0), (3.0, 0.0)], alpha=1.0, start_k=5)
        # below the grid u holds (1, 0); above it holds (3, 0)
        assert weighted_velocity(field, 3.0, 5.0) == (2.0, 0.0)
        assert weighted_velocity(field, 6.0, 8.0) == pytest.approx((6.0, 0.0))

    def test_reversed_interval_rejected(self):
        field = field_from([(1.0, 0.0)] * 3, alpha=1.0)
        with pytest.raises(ValueError):
            weighted_velocity(field, 2.0, 1.0)


def path_of(points, model=None, ball=None):
    traj = make_traj(points)
    state = forecaster.ForecastState(model or simple_model(), ball or flat_ball(), traj)
    return ContinuousPath(trajectory=traj, state=state)


class TestPositionAt:
    def test_zero_field_is_linear(self):
        field = field_from([(0.0, 0.0)] * 11)
        path = path_of([(0, 0, 0), (10, 10, 0)])
        assert position_at(path, field, 5.0) == PitchPoint(5.0, 0.0)

    def test_recorded_times_exact(self):
        field = field_from([(0.7, -0.4)] * 11, alpha=0.8)
        path = path_of([(0, 3, 4), (4, 8, 9), (10, 1, 2)])
        assert position_at(path, field, 0.0) == PitchPoint(3.0, 4.0)
        assert position_at(path, field, 4.0) == PitchPoint(8.0, 9.0)
        assert position_at(path, field, 10.0) == PitchPoint(1.0, 2.0)

    def test_constant_field_has_no_correction(self):
        field = field_from([(1.5, 0.5)] * 11, alpha=0.7)
        path = path_of([(0, 10, 10), (10, 30, 20)])
        for t in (1.0, 4.5, 7.25):
            lin = PitchPoint(10 + 2 * t, 10 + t)
            assert position_at(path, field, t) == pytest.approx(
                (lin.x, lin.y)
            ) or position_at(path, field, t) == lin

    def test_hand_computed_ramp(self):
        # u(t) = t/10 on the x axis, alpha = 1: w(0, t) = t^2 / 20
        field = field_from([(k / 10, 0.0) for k in range(11)], alpha=1.0)
        path = path_of([(0, 0, 0), (10, 10, 0)])
        got = position_at(path, field, 5.0)
        # 25/20 + 0.5 * (10 - 100/20) = 1.25 + 2.5 = 3.75
        assert abs(got.x - 3.75) < 1e-12
        assert got.y == 0.0

    def test_formula_matches_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = 12
            vs = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(n)]
            alpha = float(rng.uniform(0, 1))
            field = field_from(vs, alpha=alpha)
            t1, t2 = 2.0, 9.0
            p1 = (float(rng.uniform(20, 60)), float(rng.uniform(20, 60)))
            p2 = (float(rng.uniform(20, 60)), float(rng.uniform(20, 60)))
            path = path_of([(t1, *p1), (t2, *p2)])
            t = float(rng.uniform(t1, t2))
            ts = np.linspace(t1, t, 20001)
            w1 = [
                alpha * np.trapezoid([velocity_at(field, x)[ax] for x in ts], ts)
                for ax in (0, 1)
            ]
            ts2 = np.linspace(t1, t2, 20001)
            w12 = [
                alpha * np.trapezoid([velocity_at(field, x)[ax] for x in ts2], ts2)
                for ax in (0, 1)
            ]
            f = (t - t1) / (t2 - t1)
            want_x = p1[0] + w1[0] + f * (p2[0] - p1[0] - w12[0])
            want_y = p1[1] + w1[1] + f * (p2[1] - p1[1] - w12[1])
            got = position_at(path, field, t)
            assert abs(got.x - want_x) < 1e-5
            assert abs(got.y - want_y) < 1e-5

    def test_decomposition_linear_plus_correction(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(3, 14))
            vs = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(n)]
            field = field_from(vs, alpha=float(rng.uniform(0, 1)))
            t1 = float(rng.uniform(0, 3))
            t2 = t1 + float(rng.uniform(0.5, 8))
            p1 = (float(rng.uniform(10, 110)), float(rng.uniform(10, 70)))
            p2 = (float(rng.uniform(10, 110)), float(rng.uniform(10, 70)))
            path = path_of([(t1, *p1), (t2, *p2)])
            t = float(rng.uniform(t1, t2))
            f = (t - t1) / (t2 - t1)
            linear = (p1[0] + f * (p2[0] - p1[0]), p1[1] + f * (p2[1] - p1[1]))
            corr = velocity_correction(field, t1, t2, t)
            got = position_at(path, field, t)
            assert abs(got.x - (linear[0] + corr[0])) < 1e-9
            assert abs(got.y - (linear[1] + corr[1])) < 1e-9

    def test_alpha_zero_is_piecewise_linear(self):
        rng = np.random.default_rng(14)
        vs = [(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))) for _ in range(20)]
        field = field_from(vs, alpha=0.0)
        pts = [(float(t), float(rng.uniform(10, 110)), float(rng.uniform(10, 70))) for t in (0, 3, 7, 12)]
        path = path_of(pts)
        for _ in range(50):
            t = float(rng.uniform(0, 12))
            got = position_at(path, field, t)
            times = [p[0] for p in pts]
            i = max(j for j, tt in enumerate(times) if tt <= t)
            i = min(i, len(pts) - 2)
            t1, x1, y1 = pts[i]
            t2, x2, y2 = pts[i + 1]
            f = (t - t1) / (t2 - t1)
            assert abs(got.x - (x1 + f * (x2 - x1))) < 1e-12
            assert abs(got.y - (y1 + f * (y2 - y1))) < 1e-12

    def test_correction_vanishes_at_gap_endpoints(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            vs = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(8)]
            field = field_from(vs, alpha=float(rng.uniform(0, 1)))
            t1, t2 = 1.0, 6.0
            for t in (t1, t2):
                cx, cy = velocity_correction(field, t1, t2, t)
                assert abs(cx) < 1e-12 and abs(cy) < 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(16)
        vs = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(12)]
        pts = [(0.0, 30.0, 30.0), (4.0, 35.0, 32.0), (9.0, 40.0, 38.0)]
        dx, dy = 7.0, 3.0
        field = field_from(vs, alpha=0.5)
        path = path_of(pts)
        shifted = path_of([(t, x + dx, y + dy) for t, x, y in pts])
        for t in (1.3, 4.0, 6.9):
            a = position_at(path, field, t)
            b = position_at(shifted, field, t)
            assert abs((b.x - a.x) - dx) < 1e-9
            assert abs((b.y - a.y) - dy) < 1e-9

    def test_interpolation_through_recorded_points_random(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            times = np.sort(rng.uniform(0, 60, n))
            while np.any(np.diff(times) < 1e-3):
                times = np.sort(rng.uniform(0, 60, n))
            pts = [
                (float(t), float(rng.uniform(0, 120)), float(rng.uniform(0, 80)))
                for t in times
            ]
            vs = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(61)]
            field = field_from(vs, alpha=float(rng.uniform(0, 1)))
            path = path_of(pts)
            for t, x, y in pts:
                got = position_at(path, field, t)
                assert abs(got.x - x) < 1e-9
                assert abs(got.y - y) < 1e-9

    def test_extrapolation_defers_to_forecaster(self):
        model = simple_model()
        ball = flat_ball()
        pts = [(0, 40, 30), (1, 42, 31), (2, 44, 33)]
        path = path_of(pts, model=model, ball=ball)
        field = field_from([(0.5, 0.2)] * 10, alpha=0.5)
        fc = forecast(model, path.trajectory, ball, 9.0)
        assert position_at(path, field, 9.0) == fc.mean

    def test_result_clamped(self):
        field = field_from([(8.0, 0.0)] * 12, alpha=1.0)
        path = path_of([(0, 118, 40), (10, 119, 40)])
        p = position_at(path, field, 5.0)
        assert p.x <= 120.0


@st.composite
def _gapped_paths(draw):
    """A path of 2-8 recorded points, a field whose nodes may start before,
    inside or after its span, and query times strictly inside its gaps."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.1, 9.0), min_size=n - 1, max_size=n - 1))
    times = [draw(st.floats(-5.0, 5.0))]
    for gap in gaps:
        times.append(times[-1] + gap)
    coord = st.floats(-5.0, 125.0)
    pts = [(t, draw(coord), draw(coord)) for t in times]
    vs = draw(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=40))
    field = field_from(vs, alpha=draw(st.floats(0.0, 1.0)), start_k=draw(st.integers(-10, 20)))
    fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, n - 2))
        t = times[i] + draw(fractions) * (times[i + 1] - times[i])
        if times[i] < t < times[i + 1]:
            queries.append(t)
    return path_of(pts), field, queries


@settings(max_examples=300, deadline=None)
@given(case=_gapped_paths())
def test_gap_positions_equal_the_weighted_velocity_oracle_exactly(case):
    path, field, queries = case
    for t in queries:
        assert position_at(path, field, t) == position_in_gap(path.trajectory, field, t)


@st.composite
def _paths_and_query_times(draw):
    """1-4 paths of 1-8 recorded points, some seeded, with a field, and
    increasing query times (some repeated) at their points, in their gaps,
    before their first points and after their last."""
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 8))
        times = [draw(st.floats(-5.0, 5.0))]
        for gap in draw(st.lists(st.floats(0.1, 6.0), min_size=n - 1, max_size=n - 1)):
            times.append(times[-1] + gap)
        coord = st.floats(-5.0, 125.0)
        path = path_of([(t, draw(coord), draw(coord)) for t in times])
        path.trajectory.seeded = draw(st.booleans())
        paths.append(path)
    vs = draw(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=40))
    field = field_from(vs, alpha=draw(st.floats(0.0, 1.0)), start_k=draw(st.integers(-10, 20)))
    recorded = [t for path in paths for t in path.trajectory.times]
    others = draw(st.lists(st.floats(min(recorded) - 4.0, max(recorded) + 9.0), max_size=12))
    hits = draw(st.lists(st.sampled_from(recorded), max_size=6))
    return paths, field, sorted(others + hits)


@settings(max_examples=300, deadline=None)
@given(case=_paths_and_query_times())
def test_advancing_cursors_equal_one_query_per_time(case):
    """One set of cursors moved over increasing times gives, per time, each
    path's ``position_at`` from scratch with its observed flag and age, and
    stands at the index of each path's last recorded time at or before it."""
    paths, field, queries = case
    cursors = [-1] * len(paths)
    for t in queries:
        want = []
        for path in paths:
            i = bisect_right(path.trajectory.times, t) - 1
            want.append((position_at(path, field, t), *_observed_and_age(path.trajectory, i, t)))
        assert path_states(paths, field, t, cursors) == want
        assert cursors == [bisect_right(p.trajectory.times, t) - 1 for p in paths]


def test_one_path_follows_the_field_it_is_asked_with():
    path = path_of([(0, 30, 30), (4, 35, 32), (9, 40, 38)])
    fields = [field_from([(0.5, 0.2)] * 12, alpha=0.5), field_from([(-1.0, 0.7)] * 3 + [(2.0, 0.0)] * 9)]
    for field in [*fields, *fields]:
        for t in (1.3, 4.5, 8.9):
            assert position_at(path, field, t) == position_in_gap(path.trajectory, field, t)


class TestExtrapolationStates:
    def _path(self):
        rng = np.random.default_rng(18)
        ball = GridSeries(
            -20,
            1.0,
            [PitchPoint(float(rng.uniform(30, 90)), float(rng.uniform(20, 60))) for _ in range(80)],
        )
        pts = [(2.5, 40, 30), (4, 42, 31), (5, 44, 33), (8.25, 47, 36), (9, 45, 37)]
        return path_of(pts, ball=ball)

    def test_shuffled_queries_equal_scratch_forecasts(self):
        path = self._path()
        field = field_from([(0.5, 0.2)] * 10, alpha=0.5)
        model, traj, ball = path.state.model, path.trajectory, path.state.ball
        times = [-12.0, -3.5, 0.0, 1.0, 2.0, 2.25, 9.5, 10.0, 11.75, 15.0, 30.0, 41.5]
        order = np.random.default_rng(19).permutation(len(times))
        for t in [times[i] for i in order]:
            if t < traj.times[0]:  # before the first point the path holds it
                want = traj.points[0]
            else:
                want = forecast(model, traj, ball, t).mean
            assert position_at(path, field, t) == want

    def test_one_state_per_direction(self, monkeypatch):
        built = []

        class Spy(forecaster.ForecastState):
            def __init__(self, model, ball, trajectory):
                built.append(ball)
                super().__init__(model, ball, trajectory)

        monkeypatch.setattr(forecaster, "ForecastState", Spy)
        path = self._path()
        field = field_from([(0.5, 0.2)] * 10, alpha=0.5)
        for t in (20.0, -4.0, 12.5, 0.5, 13.0, 1.0, 3.0, -9.0, 40.0):
            position_at(path, field, t)
        assert len(built) == 1 and built[0] is path.state.ball
