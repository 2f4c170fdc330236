import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import distance, observed_at
from synth import point_at

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
)


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
        assert point_at(traj, 1.5) == PitchPoint(4, 5)
        assert point_at(traj, 2.0) is None
        assert point_at(traj, 1.5) is not None


@given(
    times=st.lists(st.integers(-50, 50), unique=True).map(sorted),
    queries=st.lists(st.integers(-52, 52) | st.sampled_from([0.0, -0.0, 0.5, -0.5]), max_size=30),
    seeded=st.booleans(),
)
def test_lookups_match_a_linear_scan(times, queries, seeded):
    """The tests' point_at and observed_at lookups against a scan over strictly
    increasing times, queried by float and by int, at recorded times and between them."""
    traj = Trajectory(tag=PlayerTag(HOME), seeded=seeded)
    for t in times:
        traj.append(t / 2, PitchPoint(t, -t))
    for q in [*queries, *(q / 2 for q in queries if type(q) is int)]:
        hits = [i for i, t in enumerate(traj.times) if t == q]
        assert point_at(traj, q) == (traj.points[hits[0]] if hits else None)
        assert observed_at(traj, q) == bool(hits and not (seeded and hits[0] == 0))


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
    assert math.isclose(distance(PitchPoint(0, 0), PitchPoint(3, 4)), 5.0)


@pytest.mark.parametrize(
    "t, want",
    [(0.0, 0), (1.5, 0), (1.6, 1), (2.0, 1), (2.5, 1), (2.6, 3), (3.0, 3), (9.0, 3)],
)
def test_nearest_time_index_ties_go_to_the_first_earliest(t, want):
    assert nearest_time_index([1.0, 2.0, 2.0, 3.0], t) == want


def test_nearest_time_index_equal_times_at_the_end():
    assert nearest_time_index([1.0, 1.0], 5.0) == 0
