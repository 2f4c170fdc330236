import math

import numpy as np
import pytest

from track_enrich.geometry import (
    AWAY,
    HOME,
    EnrichedFrame,
    EnrichedPlayer,
    MalformedInputError,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
    scale_percent_coords,
)


class TestScalePercentCoords:
    def test_centre_spot(self):
        assert scale_percent_coords(0.5, 0.5) == PitchPoint(60.0, 40.0)

    def test_goal_line(self):
        assert scale_percent_coords(0.0, 0.5) == PitchPoint(0.0, 40.0)

    def test_corner_fixed_point(self):
        assert scale_percent_coords(0.0, 0.0) == PitchPoint(0.0, 0.0)

    def test_overshoot_clamped(self):
        p = scale_percent_coords(1.03, -0.02)
        assert p == PitchPoint(120.0, 0.0)

    def test_far_out_of_range_rejected_and_named(self):
        with pytest.raises(MalformedInputError, match="frame 17"):
            scale_percent_coords(1.2, 0.5, source="frame 17")
        with pytest.raises(MalformedInputError):
            scale_percent_coords(0.5, -0.06)
        with pytest.raises(MalformedInputError):
            scale_percent_coords(float("nan"), 0.5)

    def test_affine_inside_unit_square(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(0, 1, 2)
            q = rng.uniform(0, 1, 2)
            a = rng.uniform(0, 1)
            mix = a * p + (1 - a) * q
            lhs = scale_percent_coords(*mix)
            sp = scale_percent_coords(*p)
            sq = scale_percent_coords(*q)
            assert abs(lhs.x - (a * sp.x + (1 - a) * sq.x)) < 1e-9
            assert abs(lhs.y - (a * sp.y + (1 - a) * sq.y)) < 1e-9


def _tagged(team, n, keeper=0):
    out = [(PlayerTag(team=team), PitchPoint(10.0 + i, 10.0 + i)) for i in range(n)]
    out += [
        (PlayerTag(team=team, is_goalkeeper=True), PitchPoint(5.0, 40.0 + i))
        for i in range(keeper)
    ]
    return out


class TestObservationFrame:
    def test_caps_ok(self):
        frame = ObservationFrame(
            time=1.0,
            ball=PitchPoint(60, 40),
            visible=tuple(_tagged(HOME, 10, keeper=1) + _tagged(AWAY, 10, keeper=1)),
        )
        assert len(frame.visible) == 22
        assert len(frame.visible_for(HOME)) == 10
        assert len(frame.visible_for(HOME, keepers=True)) == 1

    def test_too_many_outfielders(self):
        with pytest.raises(MalformedInputError):
            ObservationFrame(
                time=1.0, ball=PitchPoint(60, 40), visible=tuple(_tagged(HOME, 11))
            )

    def test_two_keepers(self):
        with pytest.raises(MalformedInputError):
            ObservationFrame(
                time=1.0, ball=PitchPoint(60, 40), visible=tuple(_tagged(AWAY, 0, keeper=2))
            )


class TestTrajectory:
    def test_strictly_increasing(self):
        traj = Trajectory(tag=PlayerTag(HOME))
        traj.append(1.0, PitchPoint(1, 1))
        traj.append(2.0, PitchPoint(2, 2))
        with pytest.raises(ValueError):
            traj.append(2.0, PitchPoint(3, 3))

    def test_point_lookup(self):
        traj = Trajectory(tag=PlayerTag(HOME))
        traj.append(1.5, PitchPoint(4, 5))
        assert traj.point_at(1.5) == PitchPoint(4, 5)
        assert traj.point_at(2.0) is None
        assert traj.point_at(1.5) is not None


class TestEnrichedFrame:
    def _players(self, n_home=11, n_away=11):
        mk = lambda team, i, gk: EnrichedPlayer(
            tag=PlayerTag(team=team, is_goalkeeper=gk),
            position=PitchPoint(50.0 + i, 30.0),
            provenance="estimated",
        )
        home = [mk(HOME, i, i == 10) for i in range(n_home)]
        away = [mk(AWAY, i, i == 10) for i in range(n_away)]
        return tuple(home + away)

    def test_valid(self):
        frame = EnrichedFrame(time=3.0, ball=PitchPoint(60, 40), players=self._players())
        assert len(frame.for_team(HOME)) == 10
        assert len(frame.for_team(AWAY, keepers=True)) == 1

    def test_wrong_total(self):
        with pytest.raises(MalformedInputError):
            EnrichedFrame(
                time=3.0, ball=PitchPoint(60, 40), players=self._players(n_home=10)
            )

    def test_team_imbalance(self):
        players = self._players(n_home=12, n_away=10)
        with pytest.raises(MalformedInputError):
            EnrichedFrame(time=3.0, ball=PitchPoint(60, 40), players=players)


def test_distance():
    assert math.isclose(PitchPoint(0, 0).distance_to(PitchPoint(3, 4)), 5.0)
