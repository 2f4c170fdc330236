import itertools
import math

import numpy as np
import pytest

from synth import count_identity_switches, synth_half

from track_enrich.assigner import (
    build_trajectories,
    initialize,
    log_likelihood,
    solve_assignment,
)
from track_enrich.broadcast import DegradeConfig, degrade
from track_enrich.forecaster import Forecast
from track_enrich.geometry import AWAY, HOME, ObservationFrame, PitchPoint, PlayerTag


class TestLogLikelihood:
    def test_at_mean_std_two(self):
        fc = Forecast(mean=PitchPoint(50, 40), std=2.0)
        # closed-form density at the mean: -log(2 pi sigma^2) = -log(8 pi)
        assert abs(log_likelihood(fc, PitchPoint(50, 40)) - (-math.log(8 * math.pi))) < 1e-12

    def test_unit_density_at_mean(self):
        fc = Forecast(mean=PitchPoint(50, 40), std=1.0 / math.sqrt(2 * math.pi))
        assert abs(log_likelihood(fc, PitchPoint(50, 40))) < 1e-12

    def test_three_sigma_drop(self):
        std = 1.7
        fc = Forecast(mean=PitchPoint(50, 40), std=std)
        at_mean = log_likelihood(fc, PitchPoint(50, 40))
        away = log_likelihood(fc, PitchPoint(50 + 3 * std, 40))
        assert abs((at_mean - away) - 4.5) < 1e-12

    def test_floor(self):
        fc = Forecast(mean=PitchPoint(0, 0), std=0.1)
        assert log_likelihood(fc, PitchPoint(120, 80)) == -50.0
        assert log_likelihood(fc, PitchPoint(120, 80), floor=-200.0) == -200.0


def brute_force_min(cost: np.ndarray) -> float:
    rows, cols = cost.shape
    best = math.inf
    for perm in itertools.permutations(range(rows), cols):
        total = sum(cost[perm[j], j] for j in range(cols))
        best = min(best, total)
    return best


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        match = solve_assignment(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert match == {0: 0, 1: 1}

    def test_three_by_three_vs_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cost = rng.integers(0, 30, size=(3, 3)).astype(float)
            match = solve_assignment(cost)
            total = sum(cost[i, j] for j, i in match.items())
            assert total == brute_force_min(cost)

    def test_rectangular_vs_injection_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cost = rng.integers(0, 30, size=(3, 2)).astype(float)
            match = solve_assignment(cost)
            assert len(match) == 2
            assert len(set(match.values())) == 2
            total = sum(cost[i, j] for j, i in match.items())
            assert total == brute_force_min(cost)

    def test_cost_offset_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cost = rng.integers(0, 50, size=(5, 4)).astype(float)
            shifted = cost + float(rng.integers(1, 40))
            assert solve_assignment(cost) == solve_assignment(shifted)

    def test_more_positions_than_trajectories_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        cost = np.array([[0.0, math.inf], [1.0, 2.0]])
        with pytest.raises(RuntimeError):
            solve_assignment(cost)


def frame_with(team_positions, time=0.0, ball=(60.0, 40.0), keepers=()):
    visible = [
        (PlayerTag(team=team), PitchPoint(x, y)) for team, x, y in team_positions
    ]
    visible += [
        (PlayerTag(team=team, is_goalkeeper=True), PitchPoint(x, y))
        for team, x, y in keepers
    ]
    return ObservationFrame(time=time, ball=PitchPoint(*ball), visible=tuple(visible))


SLOT_YS = [10.0 + 60.0 * i / 9 for i in range(10)]


class TestInitialize:
    def test_all_visible_uses_observed_points(self):
        positions = [(HOME, 20.0 + i, 8.0 + 7 * i) for i in range(10)]
        frame = frame_with(positions, time=30.0)
        trajs = initialize(frame, HOME, defends_left=True)
        assert len(trajs) == 10
        seeded = {(t.points[0].x, t.points[0].y) for t in trajs}
        assert seeded == {(x, y) for _, x, y in positions}
        assert all(t.times == [30.0] for t in trajs)

    def test_none_visible_defensive_line_fallback(self):
        frame = frame_with([(AWAY, 80.0, 40.0)], time=30.0)
        trajs = initialize(frame, HOME, defends_left=True)
        assert len(trajs) == 10
        assert all(t.points[0].x == 25.0 for t in trajs)
        assert sorted(t.points[0].y for t in trajs) == pytest.approx(SLOT_YS)

    def test_none_visible_defending_right(self):
        frame = frame_with([(HOME, 30.0, 40.0)], time=30.0)
        trajs = initialize(frame, AWAY, defends_left=False)
        assert all(t.points[0].x == 95.0 for t in trajs)

    def test_one_hidden_gets_largest_free_slot(self):
        positions = [(HOME, 40.0 + i, 12.0 + 6.2 * i) for i in range(9)]
        frame = frame_with(positions, time=30.0)
        trajs = initialize(frame, HOME, defends_left=True)
        assert len(trajs) == 10
        seeds = [t for t in trajs if (t.points[0].x, t.points[0].y) not in
                 {(x, y) for _, x, y in positions}]
        assert len(seeds) == 1
        seed = seeds[0].points[0]
        # deepest visible outfielder (defending left) has x = 40
        assert seed.x == 40.0
        # independent slot oracle: best clearance from visible y values
        visible_ys = [y for _, _, y in positions]
        best = max(
            SLOT_YS,
            key=lambda y: (min(abs(y - vy) for vy in visible_ys), -y),
        )
        assert seed.y == best

    def test_slots_avoid_visible_teammates(self):
        positions = [(HOME, 30.0, y) for y in SLOT_YS[:5]]
        frame = frame_with(positions, time=0.0)
        trajs = initialize(frame, HOME, defends_left=True)
        seeds = [t.points[0] for t in trajs[5:]]
        for s in seeds:
            assert min(abs(s.y - vy) for vy in SLOT_YS[:5]) >= 5.0


class TestBuildTrajectories:
    def test_single_frame_gives_single_points(self, model):
        half = synth_half(seconds=40.0, fps=5, seed=5)
        record = degrade(half, DegradeConfig(sample_period=1.0, visibility_radius=30.0, trim_frames=3))
        record.frames = record.frames[:1]
        tracked = build_trajectories(record, model)
        for team in (HOME, AWAY):
            assert len(tracked.outfield[team]) == 10
            assert all(len(t) == 1 for t in tracked.outfield[team])

    def test_every_visible_position_lands_in_exactly_one_trajectory(self, model):
        half = synth_half(seconds=90.0, fps=5, seed=6)
        record = degrade(half, DegradeConfig(1.0, 30.0, 3))
        tracked = build_trajectories(record, model)
        for frame in record.frames:
            for team in (HOME, AWAY):
                want = {(p.x, p.y) for p in frame.visible_for(team)}
                got = [
                    (tr.point_at(frame.time).x, tr.point_at(frame.time).y)
                    for tr in tracked.outfield[team]
                    if tr.point_at(frame.time) is not None
                ]
                if frame.time == record.frames[0].time:
                    # seeds may add invented defensive-line points
                    assert want <= set(got)
                else:
                    assert sorted(got) == sorted(want)

    def test_assignment_injective_per_frame(self, model):
        rng = np.random.default_rng(8)
        for seed in rng.integers(0, 1000, size=3):
            half = synth_half(seconds=60.0, fps=5, seed=int(seed))
            record = degrade(half, DegradeConfig(1.0, 25.0, 2))
            tracked = build_trajectories(record, model)
            for team in (HOME, AWAY):
                for frame in record.frames[1:]:
                    holders = [
                        tr for tr in tracked.outfield[team] if tr.point_at(frame.time) is not None
                    ]
                    assert len(holders) == len(frame.visible_for(team))

    def test_full_visibility_keeps_identities(self, model, calm_half):
        record = degrade(calm_half, DegradeConfig(1.0, 1e9, 3))
        tracked = build_trajectories(record, model)
        switches = count_identity_switches(calm_half, tracked.all_outfield())
        assert switches == 0

    def test_keeper_stream_appends_sightings(self, model):
        half = synth_half(seconds=60.0, fps=5, seed=12)
        record = degrade(half, DegradeConfig(1.0, 1e9, 2))
        tracked = build_trajectories(record, model)
        for team in (HOME, AWAY):
            keeper = tracked.keepers[team]
            assert keeper.tag.is_goalkeeper
            assert len(keeper) == len(record.frames)
