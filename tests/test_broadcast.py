import math

import pytest

from synth import SynthHalf, truth_half

from track_enrich.broadcast import degrade, ground_truth_at
from track_enrich.geometry import AWAY, HOME, MalformedInputError, ObservationFrame, PitchPoint, PlayerTag, Trajectory


def half_from_frames(frames, half_id=1):
    """A truth half whose column j holds each frame's j-th visible player."""
    tracks = {
        f"column{j}": Trajectory(tag, [fr.time for fr in frames], [fr.visible[j][1] for fr in frames])
        for j, (tag, _) in enumerate(frames[0].visible)
    }
    half = SynthHalf(half_id, frames, player_tracks=tracks, defends_left={HOME: True, AWAY: False})
    return truth_half(half)


def full_frame(t, ball, positions):
    visible = tuple(
        (PlayerTag(team=team, is_goalkeeper=gk), PitchPoint(x, y))
        for team, gk, x, y in positions
    )
    return ObservationFrame(time=t, ball=PitchPoint(*ball), visible=visible)


class TestVisibility:
    def _half(self):
        # one outfielder exactly 30 m from the ball, one at 35 m
        positions = [
            (HOME, False, 84.0, 58.0),  # sqrt(24^2 + 18^2) = 30 exactly
            (HOME, False, 60.0, 75.0),  # 35 m away
            (AWAY, False, 61.0, 40.0),
        ]
        frames = [
            full_frame(0.2 * (i + 1), (60.0, 40.0), positions) for i in range(50)
        ]
        return half_from_frames(frames)

    def test_inclusive_boundary_and_hidden(self):
        record = degrade(self._half(), 1.0, 30.0, 1)
        frame = record.frames[0]
        visible = {(p.x, p.y) for p in frame.visible_for(HOME)}
        assert (84.0, 58.0) in visible
        assert (60.0, 75.0) not in visible

    def test_radius_monotone(self):
        half = self._half()
        small = degrade(half, 1.0, 5.0, 1)
        large = degrade(half, 1.0, 40.0, 1)
        for fs, fl in zip(small.frames, large.frames):
            assert {(p.x, p.y) for _, p in fs.visible} <= {(p.x, p.y) for _, p in fl.visible}

    def test_visible_positions_are_exact_copies(self, calm_half):
        record = degrade(truth_half(calm_half), 1.0, 30.0, 2)
        truth = {
            (t, p.x, p.y)
            for traj in calm_half.player_tracks.values()
            for t, p in zip(traj.times, traj.points)
        }
        for frame in record.frames:
            for _, pos in frame.visible:
                assert (frame.time, pos.x, pos.y) in truth


class TestFrameCounts:
    def test_count_formula_fixture(self):
        # native 5 fps frames spanning (0.2, 100.0]; period 1, trim 5
        positions = [(HOME, False, 50.0, 40.0)]
        frames = [full_frame(0.2 * (i + 1), (60.0, 40.0), positions) for i in range(500)]
        record = degrade(half_from_frames(frames), 1.0, 30.0, 5)
        times = [f.time for f in record.frames]
        assert times[0] == 5.0
        assert times[-1] == 95.0
        assert len(times) == math.floor(100.0 / 1.0) - 2 * 5 + 1

    def test_half_too_short(self):
        positions = [(HOME, False, 50.0, 40.0)]
        frames = [full_frame(0.2 * (i + 1), (60.0, 40.0), positions) for i in range(50)]
        with pytest.raises(ValueError, match="half too short"):
            degrade(half_from_frames(frames), 1.0, 30.0, 30)

    def test_half_with_no_sampled_time(self):
        """No multiple of the 0.1 s period lies in [0.04, 0.08]: no frame, not an empty record."""
        positions = [(HOME, False, 50.0, 40.0)]
        frames = [full_frame(t, (60.0, 40.0), positions) for t in (0.04, 0.08)]
        with pytest.raises(MalformedInputError, match="half 1: no frame to keep"):
            degrade(half_from_frames(frames), 0.1, 30.0, 0)

    def test_identities_erased(self, calm_half):
        record = degrade(truth_half(calm_half), 1.0, 30.0, 2)
        for frame in record.frames:
            for tag, _ in frame.visible:
                assert tag in {
                    PlayerTag(team=t, is_goalkeeper=g)
                    for t in (HOME, AWAY)
                    for g in (True, False)
                }

    def test_stats(self):
        positions = [
            (HOME, False, 60.0, 40.0),
            (HOME, False, 60.0, 45.0),
            (AWAY, False, 110.0, 70.0),  # far away, hidden
            (AWAY, True, 115.0, 40.0),  # keeper, hidden, not an outfielder
        ]
        frames = [full_frame(0.2 * (i + 1), (60.0, 40.0), positions) for i in range(100)]
        record = degrade(half_from_frames(frames), 1.0, 30.0, 2)
        n_frames = len(record.frames)
        n_visible = sum(not tag.is_goalkeeper for fr in record.frames for tag, _ in fr.visible)
        assert n_frames == 17  # 2 s to 18 s: the 20 s half less 2 trimmed at each end
        assert n_visible / n_frames == 2.0
        assert 20 * n_frames - n_visible == 18 * n_frames  # 18 of 20 outfielders hidden each


class TestGroundTruthAt:
    def _half(self):
        positions = [(HOME, False, 50.0, 40.0)]
        frames = [full_frame(0.04 * (i + 1), (60.0, 40.0), positions) for i in range(100)]
        return half_from_frames(frames)

    def test_exact_hit(self):
        half = self._half()
        assert half.times[ground_truth_at(half, 0.08)] == 0.08

    def test_midway_within_half_native_period(self):
        half = self._half()
        got = half.times[ground_truth_at(half, 1.019)]
        assert abs(got - 1.019) <= 0.02 + 1e-9

    def test_before_first_frame_snaps_forward(self):
        half = self._half()
        assert half.times[ground_truth_at(half, 0.03)] == 0.04

    def test_tie_prefers_earlier(self):
        half = self._half()
        got = ground_truth_at(half, 0.06)  # equidistant between 0.04 and 0.08
        assert got == 0 and half.times[got] == pytest.approx(0.04)

    def test_out_of_span(self):
        half = self._half()
        with pytest.raises(ValueError):
            ground_truth_at(half, 9.0)
        with pytest.raises(ValueError):
            ground_truth_at(half, -1.0)


def test_mean_visible_is_plausible_on_synthetic(calm_half):
    record = degrade(truth_half(calm_half), 1.0, 30.0, 2)
    visible = [sum(not tag.is_goalkeeper for tag, _ in f.visible) for f in record.frames]
    assert 0 < sum(visible) / len(visible) <= 20
    assert all(0 <= n <= 20 for n in visible)  # so 20 - n outfielders are to predict
