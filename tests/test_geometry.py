import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    nearest_time_index,
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


@given(
    times=st.lists(st.integers(-50, 50), unique=True).map(sorted),
    queries=st.lists(st.integers(-52, 52) | st.sampled_from([0.0, -0.0, 0.5, -0.5]), max_size=30),
    seeded=st.booleans(),
)
def test_lookups_match_a_linear_scan(times, queries, seeded):
    """point_at and observed_at against a scan over strictly increasing times,
    queried by float and by int, at recorded times and between them."""
    traj = Trajectory(tag=PlayerTag(HOME), seeded=seeded)
    for t in times:
        traj.append(t / 2, PitchPoint(t, -t))
    for q in [*queries, *(q / 2 for q in queries if type(q) is int)]:
        hits = [i for i, t in enumerate(traj.times) if t == q]
        assert traj.point_at(q) == (traj.points[hits[0]] if hits else None)
        assert traj.observed_at(q) == bool(hits and not (seeded and hits[0] == 0))


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
        tags = [p.tag for p in frame.players]
        assert tags.count(PlayerTag(HOME)) == 10
        assert tags.count(PlayerTag(AWAY, is_goalkeeper=True)) == 1

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


@pytest.mark.parametrize(
    "t, want",
    [(0.0, 0), (1.5, 0), (1.6, 1), (2.0, 1), (2.5, 1), (2.6, 3), (3.0, 3), (9.0, 3)],
)
def test_nearest_time_index_ties_go_to_the_first_earliest(t, want):
    assert nearest_time_index([1.0, 2.0, 2.0, 3.0], t) == want


def test_nearest_time_index_equal_times_at_the_end():
    assert nearest_time_index([1.0, 1.0], 5.0) == 0
