import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import count_identity_switches, point_at, synth_half, truth_half

from track_enrich.assigner import ball_grid, build_trajectories, initialize, log_likelihoods
from track_enrich.broadcast import degrade
from track_enrich.forecaster import Forecast, ForecastState
from track_enrich.geometry import AWAY, HOME, ObservationFrame, PitchPoint, PlayerTag
from track_enrich.lsap import linear_sum_assignment


class TestLogLikelihood:
    def test_at_mean_std_two(self):
        fc = Forecast(mean=PitchPoint(50, 40), std=2.0)
        # closed-form density at the mean: -log(2 pi sigma^2) = -log(8 pi)
        assert abs(log_likelihoods(fc, [PitchPoint(50, 40)])[0] - (-math.log(8 * math.pi))) < 1e-12

    def test_unit_density_at_mean(self):
        fc = Forecast(mean=PitchPoint(50, 40), std=1.0 / math.sqrt(2 * math.pi))
        assert abs(log_likelihoods(fc, [PitchPoint(50, 40)])[0]) < 1e-12

    def test_three_sigma_drop(self):
        std = 1.7
        fc = Forecast(mean=PitchPoint(50, 40), std=std)
        at_mean, away = log_likelihoods(fc, [PitchPoint(50, 40), PitchPoint(50 + 3 * std, 40)])
        assert abs((at_mean - away) - 4.5) < 1e-12

    def test_floor(self):
        fc = Forecast(mean=PitchPoint(0, 0), std=0.1)
        assert log_likelihoods(fc, [PitchPoint(120, 80)])[0] == -50.0

    def test_row_equals_the_per_entry_density(self):
        """The row computes log(std) and 2 var once, in the per-entry
        expression's order, so every entry keeps its bits."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            fc = Forecast(PitchPoint(*rng.uniform(0, 100, 2).tolist()), float(rng.uniform(1e-9, 9)))
            positions = [PitchPoint(*rng.uniform(0, 100, 2).tolist()) for _ in range(10)]
            want = []
            for pos in positions:
                var = fc.std * fc.std
                dx, dy = pos.x - fc.mean.x, pos.y - fc.mean.y
                ll = -(math.log(2.0 * math.pi) + 2.0 * math.log(fc.std)) - (dx * dx + dy * dy) / (2.0 * var)
                want.append(max(ll, -50.0))
            assert log_likelihoods(fc, positions) == want


def brute_force_min(cost: np.ndarray) -> float:
    rows, cols = cost.shape
    best = math.inf
    for perm in itertools.permutations(range(rows), cols):
        total = sum(cost[perm[j], j] for j in range(cols))
        best = min(best, total)
    return best


def solve(cost: np.ndarray) -> dict[int, int]:
    """Position (column) -> trajectory (row), as the assigner reads the solver."""
    rows, cols = linear_sum_assignment(cost.tolist())
    return dict(zip(cols, rows))


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        assert solve(np.array([[0.0, 5.0], [5.0, 0.0]])) == {0: 0, 1: 1}

    def test_three_by_three_vs_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cost = rng.integers(0, 30, size=(3, 3)).astype(float)
            match = solve(cost)
            total = sum(cost[i, j] for j, i in match.items())
            assert total == brute_force_min(cost)

    def test_rectangular_vs_injection_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cost = rng.integers(0, 30, size=(3, 2)).astype(float)
            match = solve(cost)
            assert len(match) == 2
            assert len(set(match.values())) == 2
            total = sum(cost[i, j] for j, i in match.items())
            assert total == brute_force_min(cost)

    def test_cost_offset_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cost = rng.integers(0, 50, size=(5, 4)).astype(float)
            shifted = cost + float(rng.integers(1, 40))
            assert solve(cost) == solve(shifted)


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
        record = degrade(truth_half(half), 1.0, 30.0, 3)
        record.frames = record.frames[:1]
        tracked = build_trajectories(record, model)
        for team in (HOME, AWAY):
            assert len(tracked.outfield[team]) == 10
            assert all(len(t) == 1 for t in tracked.outfield[team])

    def test_every_visible_position_lands_in_exactly_one_trajectory(self, model):
        half = synth_half(seconds=90.0, fps=5, seed=6)
        record = degrade(truth_half(half), 1.0, 30.0, 3)
        tracked = build_trajectories(record, model)
        for frame in record.frames:
            for team in (HOME, AWAY):
                want = {(p.x, p.y) for p in frame.visible_for(team)}
                got = [
                    (p.x, p.y)
                    for tr in tracked.outfield[team]
                    if (p := point_at(tr, frame.time)) is not None
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
            record = degrade(truth_half(half), 1.0, 25.0, 2)
            tracked = build_trajectories(record, model)
            for team in (HOME, AWAY):
                for frame in record.frames[1:]:
                    holders = [
                        tr for tr in tracked.outfield[team] if point_at(tr, frame.time) is not None
                    ]
                    assert len(holders) == len(frame.visible_for(team))

    def test_full_visibility_keeps_identities(self, model, calm_half):
        record = degrade(truth_half(calm_half), 1.0, 1e9, 3)
        tracked = build_trajectories(record, model)
        switches = count_identity_switches(calm_half, [*tracked.outfield[HOME], *tracked.outfield[AWAY]])
        assert switches == 0

    def test_keeper_stream_appends_sightings(self, model):
        half = synth_half(seconds=60.0, fps=5, seed=12)
        record = degrade(truth_half(half), 1.0, 1e9, 2)
        tracked = build_trajectories(record, model)
        for team in (HOME, AWAY):
            keeper = tracked.keepers[team]
            assert keeper.tag.is_goalkeeper
            assert len(keeper) == len(record.frames)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    radius=st.sampled_from([10.0, 15.0, 25.0]),
    offsets=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=6),
)
def test_assigner_states_forecast_as_a_replay_does(model, seed, radius, offsets):
    """enrich takes each outfield path's forward state from the assigner: that
    state, already queried at every later frame, forecasts exactly as one
    replayed from the trajectory's points, at and between grid nodes past the
    last sighting."""
    half = synth_half(seconds=30.0, fps=5, seed=seed)
    record = degrade(truth_half(half), 1.0, radius, 2)
    tracked = build_trajectories(record, model)
    ball = ball_grid(record, model.grid_step)
    states = tracked.states_in_order()
    assert [s is None for s in states] == [t.tag.is_goalkeeper for t in tracked.in_order()]
    for traj, state in zip(tracked.in_order(), states):
        if state is None:
            continue
        replay = ForecastState(model, ball, traj)
        t_last = traj.times[-1]
        node = math.floor(t_last)
        queries = [t_last] + [node + k + 0.5 * h for k in range(1, 14) for h in (0, 1)]
        queries += [t_last + dt for dt in offsets]
        for t in sorted(queries):
            got, want = state.forecast_at(t), replay.forecast_at(t)
            assert got.mean == want.mean and got.std == want.std, t
