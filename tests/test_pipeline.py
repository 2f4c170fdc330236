import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import synth_half, truth_half

from track_enrich.assigner import build_trajectories
from track_enrich.broadcast import degrade
from track_enrich.evaluator import evaluate_half
from track_enrich.geometry import AWAY, HOME, PitchPoint, PlayerTag, Trajectory
from track_enrich.ingest import read_trajectories, write_trajectories
from track_enrich.pipeline import (
    _observed_and_age,
    build_paths,
    enrich_frames,
    grid_times,
    snapshot_at,
)


@pytest.fixture(scope="module")
def degraded(model):
    half = truth_half(synth_half(seconds=120.0, fps=5, seed=55))
    record = degrade(half, 1.0, 30.0, 5)
    trajectories = build_trajectories(record, model).in_order()
    return half, record, build_paths(record, model, trajectories, alpha=0.5)


class TestSnapshotAt:
    def test_shape_and_order(self, degraded):
        _, record, paths = degraded
        frame, ages = snapshot_at(paths, record.frames[3].time)
        assert len(frame.players) == 22
        assert len(ages) == 22
        teams = [p.tag.team for p in frame.players]
        assert teams == [HOME] * 11 + [AWAY] * 11
        assert frame.players[10].tag.is_goalkeeper
        assert frame.players[21].tag.is_goalkeeper

    def test_observed_positions_equal_visible(self, degraded):
        _, record, paths = degraded
        for fr in record.frames[1:10]:
            snap, _ = snapshot_at(paths, fr.time)
            visible = {(p.x, p.y) for _, p in fr.visible}
            for player in snap.players:
                if player.provenance == "observed":
                    assert (player.position.x, player.position.y) in visible

    def test_invented_seeds_are_estimated_with_positive_age(self, degraded):
        half, record, paths = degraded
        t0 = record.frames[0].time
        n_visible = len(record.frames[0].visible)
        snap, ages = snapshot_at(paths, t0)
        observed = [p for p in snap.players if p.provenance == "observed"]
        assert len(observed) == n_visible
        for player, age in zip(snap.players, ages):
            if player.provenance == "observed":
                assert age == 0.0
            else:
                assert age > 0.0

    def test_ball_interpolated_between_frames(self, degraded):
        _, record, paths = degraded
        t0, t1 = record.frames[0].time, record.frames[1].time
        mid = paths.ball_at((t0 + t1) / 2)
        b0, b1 = record.frames[0].ball, record.frames[1].ball
        assert mid.x == pytest.approx((b0.x + b1.x) / 2)
        assert mid.y == pytest.approx((b0.y + b1.y) / 2)
        assert paths.ball_at(t0) == b0

    def test_ball_held_outside_the_record(self, degraded):
        _, record, paths = degraded
        first, last = record.frames[0], record.frames[-1]
        assert paths.ball_at(first.time - 3.5) == first.ball
        assert paths.ball_at(last.time + 3.5) == last.ball
        assert paths.ball_at(last.time) == last.ball


def _age(traj: Trajectory, t: float) -> float:
    """Seconds from ``t`` to ``traj``'s nearest real observation, as ``path_at`` reads it."""
    return _observed_and_age(traj, bisect_right(traj.times, t) - 1, t)[1]


class TestSecondsToNearest:
    def _traj(self, seeded=False):
        traj = Trajectory(tag=PlayerTag(HOME), seeded=seeded)
        traj.append(5.0, PitchPoint(10, 10))
        traj.append(10.0, PitchPoint(12, 12))
        return traj

    def test_interior(self):
        assert _age(self._traj(), 8.0) == 2.0
        assert _age(self._traj(), 6.0) == 1.0

    def test_outside(self):
        assert _age(self._traj(), 13.5) == 3.5
        assert _age(self._traj(), 1.0) == 4.0

    def test_seed_does_not_count(self):
        traj = self._traj(seeded=True)
        assert _age(traj, 5.0) == 5.0
        assert _age(traj, 9.0) == 1.0

    def test_never_observed(self):
        traj = Trajectory(tag=PlayerTag(HOME), seeded=True)
        traj.append(5.0, PitchPoint(25, 10))
        assert math.isinf(_age(traj, 9.0))


@settings(max_examples=300, deadline=None)
@given(
    gaps=st.lists(st.floats(0.1, 5.0), min_size=0, max_size=6),
    start=st.floats(-5.0, 5.0),
    seeded=st.booleans(),
    pick=st.one_of(st.floats(-12.0, 40.0), st.integers(0, 6)),
)
def test_observed_flag_and_age_equal_a_scan(gaps, start, seeded, pick):
    times = [start]
    for gap in gaps:
        times.append(times[-1] + gap)
    traj = Trajectory(tag=PlayerTag(HOME), seeded=seeded)
    for t in times:
        traj.append(t, PitchPoint(10.0, 10.0))
    t = times[min(pick, len(times) - 1)] if isinstance(pick, int) else pick
    real = times[1:] if seeded else times
    want = (t in real, min((abs(t - s) for s in real), default=math.inf))
    assert _observed_and_age(traj, bisect_right(times, t) - 1, t) == want


class TestEnrichFrames:
    def test_grid_and_contract(self, degraded):
        _, record, paths = degraded
        frames = enrich_frames(paths, period=1.0)
        assert len(frames) == len(record.frames)  # record is on the same grid
        assert all(len(f.players) == 22 for f in frames)
        times = [f.time for f in frames]
        assert times == sorted(times)

    def test_coarser_period(self, degraded):
        _, record, paths = degraded
        frames = enrich_frames(paths, period=2.0)
        t0, t1 = record.frames[0].time, record.frames[-1].time
        want = math.floor(t1 / 2.0) - math.ceil(t0 / 2.0) + 1
        assert len(frames) == want
        assert all(f.time % 2.0 == 0.0 for f in frames)


    def test_frames_equal_one_snapshot_per_grid_time(self, degraded):
        _, record, paths = degraded
        for period in (1.0, 0.5, 2.5):
            times = grid_times(record, period)
            assert enrich_frames(paths, period=period) == [snapshot_at(paths, t)[0] for t in times]


def test_paths_from_the_trajectories_file_equal_the_assigners(degraded, model, tmp_path):
    """enrich builds a half's paths from the assigner's list and evaluate from
    the file enrich wrote of it: both give the same frames and scores."""
    half, record, built = degraded
    path = tmp_path / "trajectories_half1.json"
    write_trajectories([p.trajectory for p in built.paths], "model-sha256", path)
    sha256, trajectories = read_trajectories(path, record)
    assert sha256 == "model-sha256"
    read = build_paths(record, model, trajectories, alpha=0.5)
    assert enrich_frames(read) == enrich_frames(built)
    got, want = evaluate_half(record, read, half), evaluate_half(record, built, half)
    assert got.errors and (got.errors, got.ages, got.flags) == (want.errors, want.ages, want.flags)
    assert got.frame_errors == want.frame_errors


def test_build_paths_replays_nothing(degraded, model):
    """A path built without the assigner's state gets a new one, which covers
    no point of its trajectory until its first forecast replays them all."""
    _, record, built = degraded
    paths = build_paths(record, model, [p.trajectory for p in built.paths], alpha=0.5).paths
    assert all(p.state._covered == 0 and p.state.t_last is None for p in paths)
    for p in paths:
        p.state.forecast_at(p.trajectory.times[-1] + 2.5)
        assert p.state._covered == len(p.trajectory)
        assert (p.state.t_last, p.state.pos_last) == (p.trajectory.times[-1], p.trajectory.points[-1])
