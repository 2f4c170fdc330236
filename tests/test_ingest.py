import gc
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import distance, fixed_decimal, flip_point, player_json, read_enriched, truth_frame, truth_tracks
from synth import point_at, synth_half, truth_half, write_metrica_csvs

from track_enrich.assigner import build_trajectories
from track_enrich.broadcast import degrade, ground_truth_at
from track_enrich.cli import _training_halves
from track_enrich.config import PipelineConfig
from track_enrich.evaluator import evaluate_half
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
    is_finite_number,
    near_pitch,
)
from track_enrich.ingest import (
    TRAJECTORY_TAGS,
    AxisErrorRecord,
    DiscreteMatchRecord,
    attach_events,
    read_360_frames,
    read_discrete,
    read_tracking_csv,
    read_trajectories,
    write_axis_errors,
    write_discrete,
    write_enriched,
    write_trajectories,
    _fmt,
    _numbers,
    _player_json,
)
from track_enrich.pipeline import build_paths

HOME_CSV = """,,,Home,,Home,,,
,,,1,,2,,,
Period,Frame,Time [s],Player1,,Player2,,Ball,
1,1,0.04,0.50000,0.50000,0.30000,0.40000,0.50000,0.50000
1,2,0.08,0.51000,0.50000,0.31000,0.40000,0.52000,0.50000
"""

AWAY_CSV = """,,,Away,,Away,,,
,,,3,,4,,,
Period,Frame,Time [s],Player3,,Player4,,Ball,
1,1,0.04,0.70000,0.50000,0.90000,0.40000,0.50000,0.50000
1,2,0.08,0.71000,0.50000,0.91000,0.40000,0.52000,0.50000
"""


class TestTrackingCsv:
    def test_two_row_file_preserves_times_and_scales(self, tmp_path):
        home, away = tmp_path / "h.csv", tmp_path / "a.csv"
        home.write_text(HOME_CSV)
        away.write_text(AWAY_CSV)
        halves = read_tracking_csv(home, away)
        assert len(halves) == 1
        half = halves[0]
        assert half.times == pytest.approx([0.04, 0.08])
        assert half.ball[0] == PitchPoint(60.0, 40.0)
        xs = sorted(p.x for _, p in truth_frame(half, 0).visible)
        assert xs == pytest.approx([36.0, 60.0, 84.0, 108.0])

    def test_missing_ball_row_skipped_and_counted(self, tmp_path):
        home = HOME_CSV.replace("1,2,0.08,0.51000,0.50000,0.31000,0.40000,0.52000,0.50000",
                                "1,2,0.08,0.51000,0.50000,0.31000,0.40000,NaN,NaN")
        hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
        hp.write_text(home)
        # away ball present in that row: it fills in
        ap.write_text(AWAY_CSV)
        halves = read_tracking_csv(hp, ap)
        assert len(halves[0].frames) == 2  # away file supplied the ball
        home2 = home
        away2 = AWAY_CSV.replace("1,2,0.08,0.71000,0.50000,0.91000,0.40000,0.52000,0.50000",
                                 "1,2,0.08,0.71000,0.50000,0.91000,0.40000,,")
        hp.write_text(home2)
        ap.write_text(away2)
        halves = read_tracking_csv(hp, ap)
        assert len(halves[0].frames) == 1
        assert halves[0].dropped_rows == 1

    def test_empty_columns_dropped(self, tmp_path):
        home = HOME_CSV.replace("0.30000,0.40000", "NaN,NaN").replace(
            "0.31000,0.40000", "NaN,NaN"
        )
        hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
        hp.write_text(home)
        ap.write_text(AWAY_CSV)
        half = read_tracking_csv(hp, ap)[0]
        assert half.frames.keys == ["home:Player1", "away:Player3", "away:Player4"]

    def test_unparseable_header_fatal(self, tmp_path):
        hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
        hp.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        ap.write_text(AWAY_CSV)
        with pytest.raises(MalformedInputError):
            read_tracking_csv(hp, ap)

    def test_keeper_and_sides_inferred(self, tmp_path):
        halves = _synth_csv_halves(tmp_path)
        half = halves[0]
        assert half.defends_left[HOME] is True
        assert half.defends_left[AWAY] is False
        tracks = truth_tracks(half)
        home_keepers = [
            k for k, t in tracks.items()
            if t.tag.is_goalkeeper and t.tag.team == HOME
        ]
        assert home_keepers == ["home:PlayerKeeper"]
        mean_x = np.mean(tracks["home:PlayerKeeper"].points[0].x)
        assert mean_x < 30.0

    def test_half2_rebased(self, tmp_path):
        h1 = synth_half(seconds=30.0, fps=5, seed=1, half_id=1)
        h2 = synth_half(seconds=30.0, fps=5, seed=2, half_id=2)
        # give half 2 a continuing clock, as real files have
        for fr in h2.frames:
            object.__setattr__(fr, "time", fr.time + 1800.0)
        for key, traj in h2.player_tracks.items():
            traj.times = [t + 1800.0 for t in traj.times]
        hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
        write_metrica_csvs([h1, h2], hp, ap)
        halves = read_tracking_csv(hp, ap)
        assert len(halves) == 2
        assert halves[1].times[0] == pytest.approx(0.2, abs=1e-6)


ROW5_HOME = "1,2,0.08,0.51000,0.50000,0.31000,0.40000,0.52000,0.50000"
ROW5_AWAY = "1,2,0.08,0.71000,0.50000,0.91000,0.40000,0.52000,0.50000"


@pytest.mark.parametrize(
    "home_row, away_row, where",
    [
        pytest.param(
            ROW5_HOME.replace("0.31000", "abc"), ROW5_AWAY, r"h\.csv row 5", id="unparseable-cell"
        ),
        pytest.param(
            ROW5_HOME.replace("1,2,", "abc,2,", 1), ROW5_AWAY, r"h\.csv row 5", id="unparseable-period"
        ),
        pytest.param(
            ROW5_HOME.replace("1,2,", "1.5,2,", 1),
            ROW5_AWAY.replace("1,2,", "1.5,2,", 1),
            r"h\.csv row 5: period 1\.5 is not a whole",
            id="period-1.5",
        ),
        pytest.param(
            ROW5_HOME.replace("1,2,", "-3,2,", 1),
            ROW5_AWAY.replace("1,2,", "-3,2,", 1),
            r"h\.csv row 5: period -3\.0 is not a whole",
            id="period-minus-3",
        ),
        pytest.param(
            ROW5_HOME.replace("1,2,", "1e20,2,", 1),
            ROW5_AWAY.replace("1,2,", "1e20,2,", 1),
            r"h\.csv row 5: period 1e\+20 is not a whole",
            id="period-1e20",
        ),
        pytest.param(
            ROW5_HOME.replace("1,2,", f"{2**53},2,", 1),
            ROW5_AWAY.replace("1,2,", f"{2**53},2,", 1),
            r"h\.csv row 5: period 9007199254740992\.0",
            id="period-2**53",
        ),
        pytest.param(
            ROW5_HOME.replace("0.08", "0.04", 1),
            ROW5_AWAY.replace("0.08", "0.04", 1),
            r"h\.csv row 5",
            id="duplicate-time",
        ),
        pytest.param(
            ROW5_HOME.replace("0.08", "0.02", 1),
            ROW5_AWAY.replace("0.08", "0.02", 1),
            r"h\.csv row 5",
            id="decreasing-time",
        ),
        pytest.param(ROW5_HOME, ROW5_AWAY.replace("0.08", "0.12", 1), r"a\.csv row 5", id="times-disagree"),
        pytest.param(
            ROW5_HOME.replace("0.08", "10000000", 1),
            ROW5_AWAY.replace("0.08", "10000000", 1),
            r"h\.csv row 5: period 1 times span",
            id="huge-span",
        ),
        pytest.param(
            ROW5_HOME, ROW5_AWAY.replace("0.91000", "1.20000"), r"x=1\.2 in .*a\.csv row 5", id="away-out-of-range"
        ),
        pytest.param(
            ROW5_HOME + "\n2,3,0.12,0.5,0.5,0.3,0.4,NaN,NaN\n2,4,0.16,0.5,0.5,0.3,0.4,NaN,NaN",
            ROW5_AWAY + "\n2,3,0.12,0.7,0.5,0.9,0.4,,\n2,4,0.16,0.7,0.5,0.9,0.4,,",
            r"h\.csv rows 6-7: period 2 has no row with a ball",
            id="period-without-a-ball",
        ),
        # "\udcff" is written as the byte 0xff
        pytest.param(ROW5_HOME + "\udcff", ROW5_AWAY, r"h\.csv is not UTF-8 text", id="not-utf8"),
    ],
)
def test_hostile_tracking_csv_names_file_and_row(tmp_path, home_row, away_row, where):
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    hp.write_bytes(HOME_CSV.replace(ROW5_HOME, home_row).encode("utf8", "surrogateescape"))
    ap.write_bytes(AWAY_CSV.replace(ROW5_AWAY, away_row).encode("utf8", "surrogateescape"))
    with pytest.raises(MalformedInputError, match=where):
        read_tracking_csv(hp, ap)


def test_tracking_csvs_with_no_timed_row_name_the_home_file(tmp_path):
    """Three header rows and one data row whose time cell is blank."""
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    for path, text in ((hp, HOME_CSV), (ap, AWAY_CSV)):
        lines = text.splitlines()
        path.write_text("\n".join(lines[:3] + [lines[3].replace(",0.04,", ",,", 1)]) + "\n")
    with pytest.raises(MalformedInputError, match=r"h\.csv: no data row has both a period and a time"):
        read_tracking_csv(hp, ap)


def _wide_csv(path, names, rows):
    """A one-team wide CSV; ``rows`` are (time, {name: (x, y)}) with the ball mid-pitch."""
    lines = [",,,Team", ",,,Number", "Period,Frame,Time [s]," + "".join(f"{n},," for n in names) + "Ball,"]
    for k, (t, present) in enumerate(rows):
        cells = ["1", str(k + 1), f"{t:.2f}"]
        for n in names:
            cells.extend(f"{v:.5f}" for v in present.get(n, (math.nan, math.nan)))
        lines.append(",".join(cells + ["0.50000", "0.50000"]))
    path.write_text("\n".join(lines) + "\n")


def test_substitution_keeps_ten_longest_established(tmp_path):
    outfield = [f"Player{i:02d}" for i in range(1, 12)]
    spot = {n: (0.1 + 0.03 * i, 0.1 + 0.07 * i) for i, n in enumerate(outfield)}
    keeper = {"PlayerKeeper": (0.02, 0.5)}

    def home(names):
        return {**keeper, **{n: spot[n] for n in names}}

    everyone = set(outfield)
    rows = [
        (0.04, home(everyone - {"Player01", "Player10"})),
        (0.08, home(everyone)),  # 11 outfielders on the pitch
        (0.12, home(everyone - {"Player11"})),
    ]
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    _wide_csv(hp, [*outfield, "PlayerKeeper"], rows)
    away = {"Player20": (0.98, 0.5), "Player21": (0.7, 0.3)}
    _wide_csv(ap, list(away), [(t, away) for t, _ in rows])
    half = read_tracking_csv(hp, ap)[0]

    t0, t1, t2 = half.times
    tracks = truth_tracks(half)
    seen = {key: track.times for key, track in tracks.items()}
    # Player11 was first seen before Player10 and keeps its place; Player01
    # and Player10 first appear together, and the tie goes to the lower key.
    assert seen["home:Player11"] == [t0, t1]
    assert seen["home:Player01"] == [t1, t2]
    assert seen["home:Player10"] == [t2]
    frames = [truth_frame(half, i) for i in range(len(half.frames))]
    assert [len(fr.visible_for(HOME)) for fr in frames] == [9, 10, 10]
    assert all(len(fr.visible_for(HOME, keepers=True)) == 1 for fr in frames)
    assert tracks["home:PlayerKeeper"].tag.is_goalkeeper

_cell = st.floats(0.0, 1.0).map(lambda v: f"{v:.5f}")
_present = st.tuples(_cell, _cell)
_absent = st.sampled_from([("NaN", "NaN"), ("", ""), (" ", "nan")])


@st.composite
def _tracking_csvs(draw):
    """Home and away wide CSVs of one period whose players come and go (at
    times more than ten outfielders a team), with blank or NaN cells and rows
    that lack a ball in one file or both."""
    n_rows = draw(st.integers(1, 10))
    out = {}
    for team in (HOME, AWAY):
        names = [f"Player{i:02d}" for i in range(draw(st.integers(1, 13)))]
        lines = [",,,Team", ",,,Number", "Period,Frame,Time [s]," + "".join(f"{n},," for n in names) + "Ball,"]
        for k in range(n_rows):
            cells = ["1", str(k + 1), f"{0.04 * (k + 1):.2f}"]
            for _ in [*names, "Ball"]:
                cells.extend(draw(st.one_of(_present, _present, _absent)))
            lines.append(",".join(cells))
        out[team] = "\n".join(lines) + "\n"
    return out


def _read_or_no_ball(tmp_path, csvs):
    """The halves read from ``csvs``; None, after checking the error, when no
    row has a ball in either file."""
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    hp.write_text(csvs[HOME])
    ap.write_text(csvs[AWAY])
    balls = [line.split(",")[-2].strip() for text in csvs.values() for line in text.splitlines()[3:]]
    if all(cell in ("", "NaN", "nan") for cell in balls):
        with pytest.raises(MalformedInputError, match=r"h\.csv rows 4-\d+: period 1 has no row with a ball"):
            read_tracking_csv(hp, ap)
        return None
    return read_tracking_csv(hp, ap)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csvs=_tracking_csvs())
def test_read_half_frames_match_its_tracks(tmp_path, csvs):
    for half in _read_or_no_ball(tmp_path, csvs) or []:
        frames = [truth_frame(half, i) for i in range(len(half.frames))]
        assert half.times == [fr.time for fr in frames]
        assert half.ball == [fr.ball for fr in frames]
        tracks = list(truth_tracks(half).values())
        for t, fr in zip(half.times, frames):
            visible = tuple((tr.tag, p) for tr in tracks if (p := point_at(tr, t)) is not None)
            assert fr == ObservationFrame(time=t, ball=fr.ball, visible=visible)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    csvs=_tracking_csvs(),
    period=st.sampled_from([0.02, 0.04, 0.1]),
    radius=st.floats(1.0, 150.0),
)
def test_degrade_keeps_the_truth_rows_players_within_the_radius(tmp_path, csvs, period, radius):
    for half in _read_or_no_ball(tmp_path, csvs) or []:
        if len(half.frames) < 2:
            continue  # too short to sample
        a, b, p = (round(v * 100) for v in (half.times[0], half.times[-1], period))  # in 0.01 s
        if b // p < -(-a // p):  # no multiple of the period in the span: no frame, not an empty record
            with pytest.raises(MalformedInputError, match=f"half {half.half_id}: no frame to keep"):
                degrade(half, period, radius, 0)
            continue
        record = degrade(half, period, radius, 0)
        assert record.frames
        for fr in record.frames:
            want = truth_frame(half, ground_truth_at(half, fr.time))
            assert fr.ball == want.ball
            assert fr.visible == tuple(
                (tag, p) for tag, p in want.visible if distance(p, want.ball) <= radius
            )


def test_read_builds_frames_and_tracks_only_on_demand(tmp_path, monkeypatch, model):
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    write_metrica_csvs([synth_half(seconds=30.0, fps=5, seed=3, half_id=1)], hp, ap)
    built = {ObservationFrame: 0, Trajectory: 0}
    for cls in built:
        def counted(self, *args, cls=cls, original=cls.__init__, **kwargs):
            built[cls] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    half = read_tracking_csv(hp, ap)[0]
    assert built == {ObservationFrame: 0, Trajectory: 0}
    record = degrade(half, 1.0, 30.0, 2)
    # one frame per sampled time, the degraded one: none for the truth row
    assert built == {ObservationFrame: len(record.frames), Trajectory: 0}
    paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
    frames = built[ObservationFrame]
    evaluate_half(record, paths, half)
    assert built[ObservationFrame] == frames  # the truth is scored from its rows
    tracks = built[Trajectory]
    training = _training_halves(PipelineConfig(train_home_csv=str(hp), train_away_csv=str(ap)))
    # no track for the ball; the player tracks wait until a fit iterates them
    assert built[Trajectory] == tracks
    for n in (1, 2):
        assert len([t for trajs, _ in training for t in trajs]) == 20  # the outfielders
        # each pass builds one track per outfield column, and none for a keeper
        assert built[Trajectory] == tracks + 20 * n
    assert built[ObservationFrame] == frames


def test_read_half_retains_under_1kb_per_row(tmp_path):
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    write_metrica_csvs([synth_half(seconds=60.0, fps=25, seed=5, half_id=1)], hp, ap)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        halves = read_tracking_csv(hp, ap)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sum(len(h.frames) for h in halves)
    assert rows == 1500
    assert retained < 1024 * rows


def test_read_peaks_under_three_times_what_it_keeps(tmp_path):
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    write_metrica_csvs([synth_half(seconds=60.0, fps=25, seed=5, half_id=1)], hp, ap)
    read_tracking_csv(hp, ap)  # the first read's one-off allocations stay out of the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        halves = read_tracking_csv(hp, ap)
        gc.collect()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sum(len(h.frames) for h in halves) == 1500
    assert peak < 3 * kept


def _synth_csv_halves(tmp_path, seconds=30.0):
    half = synth_half(seconds=seconds, fps=5, seed=3, half_id=1)
    hp, ap = tmp_path / "h.csv", tmp_path / "a.csv"
    write_metrica_csvs([half], hp, ap)
    return read_tracking_csv(hp, ap)


class TestEvents:
    def test_attach_and_rebase(self, tmp_path):
        half = synth_half(seconds=60.0, fps=5, seed=4, half_id=1)
        hp, ap, ep = tmp_path / "h.csv", tmp_path / "a.csv", tmp_path / "e.csv"
        write_metrica_csvs([half], hp, ap, events_path=ep)
        halves = read_tracking_csv(hp, ap)
        attach_events(halves, ep)
        got = halves[0].events
        assert len(got) == len(half.events)
        for ev, orig in zip(got, half.events):
            assert ev.time == pytest.approx(orig.time, abs=0.01)
            assert ev.attacking_team in (HOME, AWAY)
            assert ev.ball is None  # the reader leaves the location unread


EVENTS_CSV = """Team,Type,Subtype,Period,Start Frame,Start Time [s],End Frame,End Time [s],Start X,Start Y
Home,PASS,,1,0,1.00,0,1.00,0.5,0.5
Away,PASS,,1,0,2.00,0,2.00,0.6,0.5
"""


@pytest.mark.parametrize(
    "old, new, where",
    [
        pytest.param("Away,", "Visitors,", r"e\.csv row 3: team 'Visitors'", id="unknown-team"),
        pytest.param(",2.00,0,", ",12..5,0,", r"e\.csv row 3: .*start time '12\.\.5'", id="unparseable-start"),
        pytest.param(",2.00,0,", ",inf,0,", r"e\.csv row 3: .*start time 'inf'", id="infinite-start"),
        pytest.param(",1,0,2.00", ",one,0,2.00", r"e\.csv row 3: period 'one'", id="unparseable-period"),
        pytest.param(",1,0,2.00", ",1.5,0,2.00", r"e\.csv row 3: period '1\.5' is not a whole", id="period-1.5"),
        pytest.param(",1,0,2.00", ",-3,0,2.00", r"e\.csv row 3: period '-3' is not a whole", id="period-minus-3"),
        pytest.param(",1,0,2.00", ",1e20,0,2.00", r"e\.csv row 3: period '1e20' is not a whole", id="period-1e20"),
        pytest.param("Start Time [s]", "Start [s]", r"e\.csv row 1: no 'Start Time \[s\]' column", id="no-start-time"),
        pytest.param("0.6,0.5\n", "0.6,0.5\udcff\n", r"e\.csv is not UTF-8 text", id="not-utf8"),
    ],
)
def test_hostile_events_csv_names_file_and_row(tmp_path, old, new, where):
    halves = _synth_csv_halves(tmp_path)
    ep = tmp_path / "e.csv"
    ep.write_text(EVENTS_CSV)
    attach_events(halves, ep)
    assert [ev.attacking_team for ev in halves[0].events] == [HOME, AWAY]

    halves = _synth_csv_halves(tmp_path)
    ep.write_bytes(EVENTS_CSV.replace(old, new, 1).encode("utf8", "surrogateescape"))
    with pytest.raises(MalformedInputError, match=where):
        attach_events(halves, ep)
    assert halves[0].events == []


def enriched_frame(time=30.0, visible_count=10):
    players = []
    for team in (HOME, AWAY):
        for i in range(10):
            visible = team == HOME and i < visible_count
            players.append(
                EnrichedPlayer(
                    tag=PlayerTag(team=team),
                    position=PitchPoint(10.0 + i * 2 + (team == AWAY) * 60, 20.0 + i * 3 % 50),
                    provenance="observed" if visible else "estimated",
                )
            )
        players.append(
            EnrichedPlayer(
                tag=PlayerTag(team=team, is_goalkeeper=True),
                position=PitchPoint(5.0 if team == HOME else 115.0, 40.0),
                provenance="estimated",
            )
        )
    return EnrichedFrame(time=time, ball=PitchPoint(60.25, 40.5), players=tuple(players))


class TestEnrichedRoundTrip:
    def test_visible_flag_bookkeeping(self, tmp_path):
        frame = enriched_frame(visible_count=10)
        path = tmp_path / "enriched.json"
        write_enriched([frame], path)
        doc = json.loads(path.read_text())
        flags = [p["visible"] for p in doc[0]["players"]]
        assert flags.count(False) == 12
        assert flags.count(True) == 10

    def test_round_trip_identity(self, tmp_path):
        frame = enriched_frame()
        path = tmp_path / "enriched.json"
        write_enriched([frame], path)
        first = read_enriched(path)
        write_enriched(first, path)
        second = read_enriched(path)
        assert first == second

    def test_precision_preserved(self, tmp_path):
        frame = enriched_frame()
        path = tmp_path / "enriched.json"
        write_enriched([frame], path)
        got = read_enriched(path)[0]
        assert got.ball == PitchPoint(60.25, 40.5)
        text = path.read_text()
        assert '"x": 60.25' in text
        assert '"y": 40.50' in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_enriched([], tmp_path / "x.json")


class TestDiscreteRoundTrip:
    def test_identity_from_file(self, tmp_path, calm_half):
        from track_enrich.broadcast import degrade, ground_truth_at

        record = degrade(truth_half(calm_half), 1.0, 30.0, 2)
        path = tmp_path / "discrete.json"
        write_discrete(record, path)
        first = read_discrete(path)
        write_discrete(first, path)
        second = read_discrete(path)
        assert first == second
        assert first.half_id == record.half_id
        assert first.source == record.source
        assert first.defends_left == record.defends_left
        assert len(first.frames) == len(record.frames)

    def test_randomized_round_trip(self, tmp_path):
        rng = np.random.default_rng(77)
        for trial in range(10):
            frames = []
            for i in range(int(rng.integers(1, 6))):
                n_home = int(rng.integers(0, 11))
                visible = tuple(
                    (PlayerTag(team=HOME), PitchPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))))
                    for _ in range(n_home)
                )
                frames.append(
                    ObservationFrame(
                        time=float(i) + 1,
                        ball=PitchPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))),
                        visible=visible,
                    )
                )
            record = DiscreteMatchRecord(
                half_id=1, frames=frames, defends_left={HOME: True, AWAY: False}
            )
            path = tmp_path / f"r{trial}.json"
            write_discrete(record, path)
            first = read_discrete(path)
            write_discrete(first, path)
            assert read_discrete(path) == first

    def test_points_on_the_bounds_are_read_exactly(self, tmp_path):
        corners = [(-6.0, -4.0), (126.0, -4.0), (-6.0, 84.0), (126.0, 84.0)]
        frames = [
            ObservationFrame(
                time=float(i),
                ball=PitchPoint(*corners[i]),
                visible=tuple((PlayerTag(HOME), PitchPoint(*p)) for p in corners),
            )
            for i in range(4)
        ]
        record = DiscreteMatchRecord(half_id=1, frames=frames, defends_left={HOME: True, AWAY: False})
        path = tmp_path / "discrete.json"
        write_discrete(record, path)
        assert read_discrete(path).frames == frames

    @pytest.mark.parametrize("where", ["ball", "player"])
    @pytest.mark.parametrize("x, y", [(-6.01, 40.0), (126.01, 40.0), (60.0, -4.01), (60.0, 84.01), (1e200, 40.0)])
    def test_a_point_off_the_pitch_raises_naming_the_file_and_frame(self, tmp_path, where, x, y):
        frame = {"time_s": 0.0, "ball": {"x": 60.0, "y": 40.0}, "players": [
            {"team": "home", "keeper": False, "x": 30.0, "y": 20.0}
        ]}
        (frame["ball"] if where == "ball" else frame["players"][0]).update(x=x, y=y)
        doc = {"half_id": 1, "source": "simulated", "defends_left": {"home": True, "away": False}, "frames": [frame]}
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: frame 0: x must lie in [-6, 126] m and y in [-4, 84] m, got ({x!r}, {y!r})"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            read_discrete(path)


def frames_360(entries):
    return json.dumps(entries)


def event_360(eid, t, team, loc, period=1):
    return {"id": eid, "timestamp": t, "team": team, "location": loc, "period": period}


def ff(loc, teammate=True, actor=False, keeper=False):
    return {"location": list(loc), "teammate": teammate, "actor": actor, "keeper": keeper}


class Test360:
    def _write(self, tmp_path, frames, events):
        fp, ep = tmp_path / "frames.json", tmp_path / "events.json"
        fp.write_text(json.dumps(frames))
        ep.write_text(json.dumps(events))
        return fp, ep

    def test_agreeing_frame_kept(self, tmp_path):
        # home event in half 1: fixed axis == event axis, no flip expected
        events = [event_360("e1", "00:00:10.000", "home", [50.0, 40.0])]
        frames = [
            {
                "event_uuid": "e1",
                "visible_area": [],
                "freeze_frame": [
                    ff([50.0, 40.0], actor=True),
                    ff([40.0, 30.0]),
                    ff([70.0, 50.0], teammate=False),
                ],
            }
        ]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not errors
        assert len(records) == 1
        frame = records[0].frames[0]
        assert frame.time == 10.0
        assert frame.ball == PitchPoint(50.0, 40.0)
        teams = sorted(tag.team for tag, _ in frame.visible)
        assert teams == ["away", "home", "home"]

    def test_flip_applied_for_defending_team_frame(self, tmp_path):
        # away acts in half 1: away attacks +x in its own frame but -x on the
        # fixed axis, so the event location flips; the freeze frame ball at
        # x=30 from the away goal line must land at 120-30=90.
        events = [event_360("e1", 12.0, "away", [30.0, 40.0])]
        frames = [
            {
                "event_uuid": "e1",
                "freeze_frame": [ff([30.0, 40.0], actor=True), ff([20.0, 20.0])],
            }
        ]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not errors
        frame = records[0].frames[0]
        assert frame.ball == PitchPoint(90.0, 40.0)
        positions = {(p.x, p.y) for _, p in frame.visible}
        assert (90.0, 40.0) in positions
        assert (100.0, 60.0) in positions

    def test_both_orientations_disagree_excluded(self, tmp_path):
        events = [event_360("e1", 5.0, "home", [10.0, 10.0])]
        frames = [
            {"event_uuid": "e1", "freeze_frame": [ff([60.0, 70.0], actor=True)]}
        ]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not records
        assert len(errors) == 1
        assert errors[0].reason == "axis disagreement"
        assert errors[0].disagreement > 5.0

    def test_orphan_frame(self, tmp_path):
        events = [event_360("e1", 5.0, "home", [10.0, 10.0])]
        frames = [{"event_uuid": "missing", "freeze_frame": [ff([10.0, 10.0], actor=True)]}]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not records
        assert [e.reason for e in errors] == ["orphan frame"]

    def test_every_excluded_frame_has_exactly_one_record(self, tmp_path):
        rng = np.random.default_rng(9)
        events, frames = [], []
        for i in range(30):
            eid = f"e{i}"
            team = "home" if i % 2 == 0 else "away"
            loc = [float(rng.uniform(5, 115)), float(rng.uniform(5, 75))]
            events.append(event_360(eid, float(i + 1), team, loc))
            if i % 5 == 0:
                frames.append({"event_uuid": "nope", "freeze_frame": [ff(loc, actor=True)]})
            elif i % 5 == 1:
                bad = [float(np.clip(loc[0] + 40, 0, 120)), loc[1]]
                frames.append({"event_uuid": eid, "freeze_frame": [ff(bad, actor=True)]})
            else:
                frames.append({"event_uuid": eid, "freeze_frame": [ff(loc, actor=True), ff([50.0, 40.0])]})
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        kept = sum(len(r.frames) for r in records)
        assert kept + len(errors) == len(frames)
        assert len({e.frame_index for e in errors}) == len(errors)

    def test_duplicate_timestamp_excluded(self, tmp_path):
        events = [
            event_360("e1", 5.0, "home", [50.0, 40.0]),
            event_360("e2", 5.0, "home", [52.0, 40.0]),
        ]
        frames = [
            {"event_uuid": "e1", "freeze_frame": [ff([50.0, 40.0], actor=True)]},
            {"event_uuid": "e2", "freeze_frame": [ff([52.0, 40.0], actor=True)]},
        ]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert sum(len(r.frames) for r in records) == 1
        assert [e.reason for e in errors] == ["duplicate timestamp"]

    def test_timestamp_link_ties_go_to_the_earlier_event(self, tmp_path):
        events = [
            event_360("e1", 10.0, "home", [50.0, 40.0]),
            event_360("e3", 12.0, "home", [70.0, 40.0]),
            event_360("e2", 12.0, "home", [60.0, 40.0]),
        ]
        frames = [
            # halfway between 10 s and 12 s: the earlier event wins
            {"timestamp": 11.0, "freeze_frame": [ff([50.0, 40.0], actor=True)]},
            # nearest to the two events at 12 s: the first in the file wins
            {"timestamp": 12.5, "freeze_frame": [ff([70.0, 40.0], actor=True)]},
            # more than two seconds from every event
            {"timestamp": 14.5, "freeze_frame": [ff([70.0, 40.0], actor=True)]},
        ]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert [(fr.time, fr.ball) for fr in records[0].frames] == [
            (10.0, PitchPoint(50.0, 40.0)),
            (12.0, PitchPoint(70.0, 40.0)),
        ]
        assert [(e.frame_index, e.reason) for e in errors] == [(2, "orphan frame")]

    @pytest.mark.parametrize("period", [1.5, True, -3, 1e20, "2.5", None, [1]])
    def test_event_period_that_is_not_a_whole_number_raises(self, tmp_path, period):
        """The CSVs' rule: a bool, a fraction or a negative is not a half id."""
        events = [event_360("e0", 5.0, "home", [50.0, 40.0]), event_360("e1", 6.0, "home", [50.0, 40.0], period)]
        frames = [{"event_uuid": "e0", "freeze_frame": [ff([50.0, 40.0], actor=True)]}]
        fp, ep = self._write(tmp_path, frames, events)
        message = f"{ep}: event 1: period {period!r} is not a whole number from 0 to 2**53"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            read_360_frames(fp, ep)

    @pytest.mark.parametrize("period", [1.5, True, -3, 1e20])
    def test_frame_period_that_is_not_a_whole_number_excludes_the_frame(self, tmp_path, period):
        events = [event_360("e1", 5.0, "home", [50.0, 40.0])]
        frames = [{"timestamp": 5.0, "period": period, "freeze_frame": [ff([50.0, 40.0], actor=True)]}]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not records
        assert [e.reason for e in errors] == ["malformed frame"]

    def test_whole_periods_read_as_their_half(self, tmp_path):
        for period in (2, 2.0, "2", " 2 ", "2.0"):
            events = [event_360("e1", 5.0, "home", [50.0, 40.0], period)]
            frames = [{"timestamp": 5.0, "period": period, "freeze_frame": [ff([70.0, 40.0], actor=True)]}]
            records, errors = read_360_frames(*self._write(tmp_path, frames, events))
            assert not errors, period
            assert [r.half_id for r in records] == [2], period

    def test_an_event_timestamp_of_true_raises_naming_the_event(self, tmp_path):
        events = [event_360("e0", 5.0, "home", [50.0, 40.0]), event_360("e1", True, "home", [50.0, 40.0])]
        frames = [{"event_uuid": "e0", "freeze_frame": [ff([50.0, 40.0], actor=True)]}]
        fp, ep = self._write(tmp_path, frames, events)
        with pytest.raises(MalformedInputError, match=re.escape(f"{ep}: event 1: timestamp True is not")):
            read_360_frames(fp, ep)

    def test_a_frame_timestamp_of_true_excludes_the_frame(self, tmp_path):
        events = [event_360("e1", 1.0, "home", [50.0, 40.0])]
        frames = [{"timestamp": True, "freeze_frame": [ff([50.0, 40.0], actor=True)]}]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not records
        assert [e.reason for e in errors] == ["malformed frame"]

    @pytest.mark.parametrize("loc", [[True, False], [50.0, True], [126.5, 40.0], [50.0, -4.5], [-1e308, 40.0]])
    def test_an_event_location_of_bools_or_off_the_pitch_is_no_location(self, tmp_path, loc):
        events = [event_360("e1", 5.0, "home", loc)]
        frames = [{"event_uuid": "e1", "freeze_frame": [ff([50.0, 40.0], actor=True)]}]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not records
        assert [e.reason for e in errors] == ["event has no location"]

    @pytest.mark.parametrize(
        "entry",
        [
            {"location": [True, False]},
            {"location": [40.0, 84.5]},
            {"location": [-6.5, 30.0]},
            {"keeper": "false"},
            {"teammate": "no"},
            {"actor": 1},
            {"keeper": None},
        ],
    )
    def test_a_freeze_frame_entry_with_a_non_bool_flag_or_off_the_pitch_is_malformed(self, tmp_path, entry):
        events = [event_360("e1", 5.0, "home", [50.0, 40.0])]
        frames = [{"event_uuid": "e1", "freeze_frame": [ff([50.0, 40.0], actor=True), {**ff([40.0, 30.0]), **entry}]}]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not records
        assert [e.reason for e in errors] == ["malformed freeze frame"]

    def test_flags_may_be_left_out_and_locations_may_sit_on_the_bounds(self, tmp_path):
        events = [event_360("e1", 5.0, "home", [126.0, 84.0])]
        frames = [
            {
                "event_uuid": "e1",
                "freeze_frame": [ff([126.0, 84.0], actor=True), {"location": [-6.0, -4.0]}],
            }
        ]
        records, errors = read_360_frames(*self._write(tmp_path, frames, events))
        assert not errors
        [frame] = records[0].frames
        assert frame.visible == (
            (PlayerTag(HOME), PitchPoint(126.0, 84.0)),
            (PlayerTag(AWAY), PitchPoint(-6.0, -4.0)),
        )

    def test_flip_is_involution(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = PitchPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 80)))
            back = flip_point(flip_point(p))
            assert abs(back.x - p.x) < 1e-9 and abs(back.y - p.y) < 1e-9
        # data-resolution coordinates come back exactly
        assert flip_point(flip_point(PitchPoint(30.25, 41.7))) == PitchPoint(30.25, 41.7)

    def test_axis_errors_written(self, tmp_path):
        errors = [
            AxisErrorRecord(0, "orphan frame", None, None, math.inf),
            AxisErrorRecord(3, "axis disagreement", PitchPoint(10, 10), PitchPoint(60, 70), 62.5),
        ]
        path = tmp_path / "errors.json"
        write_axis_errors(errors, path)
        doc = json.loads(path.read_text())
        assert doc[0]["reason"] == "orphan frame"
        assert doc[0]["disagreement_m"] is None
        assert doc[1]["disagreement_m"] == 62.5


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_stamps = st.floats(0.0, 30.0) | st.sampled_from(["00:00:10.5", "1:05", "1:x", "nan", "1e400"]) | _json
_periods = st.sampled_from([1, 2]) | _json
_locations = st.lists(st.floats(-10.0, 130.0) | _json, max_size=3) | _json
_ids = st.sampled_from(["e0", "e1", "e2"]) | _json
_events = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "id": _ids,
            "timestamp": _stamps,
            "period": _periods,
            "team": st.sampled_from(["home", "away", "Away"]) | _json,
            "location": _locations,
        },
    )
    | _json,
    max_size=4,
)
_entries = st.lists(
    st.fixed_dictionaries(
        {},
        optional={"location": _locations, "teammate": st.booleans() | _json, "actor": st.booleans(), "keeper": st.booleans()},
    )
    | _json,
    max_size=4,
)
_frames = st.lists(
    st.fixed_dictionaries(
        {},
        optional={"event_uuid": _ids, "timestamp": _stamps, "period": _periods, "freeze_frame": _entries | _json},
    )
    | _json,
    max_size=4,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(frames_doc=_frames | _json, events_doc=_events | _json)
def test_360_reader_returns_records_and_exclusions_or_raises_malformed(tmp_path, frames_doc, events_doc):
    fp, ep = tmp_path / "frames.json", tmp_path / "events.json"
    fp.write_text(json.dumps(frames_doc))
    ep.write_text(json.dumps(events_doc))
    try:
        records, errors = read_360_frames(fp, ep)
    except MalformedInputError:
        return
    assert all(isinstance(e, AxisErrorRecord) for e in errors)
    assert sum(len(r.frames) for r in records) + len(errors) == len(frames_doc)
    for record in records:
        assert isinstance(record, DiscreteMatchRecord)
        for fr in record.frames:
            numbers = [fr.time, fr.ball.x, fr.ball.y, *(v for _, p in fr.visible for v in (p.x, p.y))]
            assert all(math.isfinite(v) for v in numbers)
            assert all(near_pitch(p.x, p.y) for p in [fr.ball, *(p for _, p in fr.visible)])
    for e in errors:
        points = [p for p in (e.ball_event, e.ball_frame) if p is not None]
        assert not any(math.isnan(v) for v in [e.disagreement, *(c for p in points for c in (p.x, p.y))])


def _mostly(valid):
    """``valid``, or one time in ten any JSON value."""
    return st.integers(0, 9).flatmap(lambda k: _json if k == 0 else valid)


_coord = _mostly(st.floats(-10.0, 130.0) | st.integers(-5, 130))
_player = _mostly(
    st.fixed_dictionaries(
        {
            "team": _mostly(st.sampled_from([HOME, AWAY])),
            "keeper": _mostly(st.booleans()),
            "x": _coord,
            "y": _coord,
        }
    )
)
_frame = _mostly(
    st.fixed_dictionaries(
        {
            "time_s": _mostly(st.floats(0.0, 30.0)),
            "ball": _mostly(st.fixed_dictionaries({"x": _coord, "y": _coord})),
            "players": _mostly(st.lists(_player, max_size=3)),
        }
    )
)
_discrete_doc = _mostly(
    st.fixed_dictionaries(
        {
            "half_id": _mostly(st.sampled_from([1, 2])),
            "source": _mostly(st.just("simulated")),
            "defends_left": _mostly(
                st.fixed_dictionaries({"home": _mostly(st.booleans()), "away": _mostly(st.booleans())})
            ),
            "frames": _mostly(st.lists(_frame, max_size=3)),
        }
    )
)


def _finite_frame_numbers(fr, points) -> bool:
    numbers = [fr.time, fr.ball.x, fr.ball.y, *(c for p in points for c in (p.x, p.y))]
    return all(math.isfinite(v) for v in numbers)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_discrete_doc)
def test_discrete_reader_returns_a_record_or_raises_malformed(tmp_path, doc):
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(doc))
    try:
        record = read_discrete(path)
    except MalformedInputError as e:
        assert str(path) in str(e)
        return
    assert record.frames and all(a.time < b.time for a, b in zip(record.frames, record.frames[1:]))
    for fr in record.frames:
        assert _finite_frame_numbers(fr, [p for _, p in fr.visible])
        assert all(near_pitch(p.x, p.y) for p in [fr.ball, *(p for _, p in fr.visible)])
        assert all(tag.team in (HOME, AWAY) and type(tag.is_goalkeeper) is bool for tag, _ in fr.visible)


_enriched_player = _mostly(
    st.fixed_dictionaries(
        {"keeper": _mostly(st.booleans()), "x": _coord, "y": _coord, "visible": _mostly(st.booleans())}
    )
)


@st.composite
def _enriched_docs(draw):
    """Frames of 11 home and 11 away players, any entry possibly replaced by other JSON."""
    frames = []
    for _ in range(draw(st.integers(0, 2))):
        players = []
        for team in [HOME] * 11 + [AWAY] * 11:
            p = draw(_enriched_player)
            if isinstance(p, dict):
                p = {"team": draw(_mostly(st.just(team))), **p}
            players.append(p)
        frame = {
            "time_s": draw(_mostly(st.floats(0.0, 30.0))),
            "ball": draw(_mostly(st.fixed_dictionaries({"x": _coord, "y": _coord}))),
            "players": players,
        }
        frames.append(draw(_mostly(st.just(frame))))
    return draw(_mostly(st.just(frames)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_enriched_docs())
def test_enriched_reader_returns_frames_or_raises_malformed(tmp_path, doc):
    path = tmp_path / "enriched.json"
    path.write_text(json.dumps(doc))
    try:
        frames = read_enriched(path)
    except MalformedInputError as e:
        assert str(path) in str(e)
        return
    for fr in frames:
        assert _finite_frame_numbers(fr, [p.position for p in fr.players])
        assert all(type(p.tag.is_goalkeeper) is bool for p in fr.players)


class TestNumberFormat:
    def test_min_two_decimals(self):
        assert _fmt(0.3) == "0.30"
        assert _fmt(30.0) == "30.00"
        assert _fmt(60.25) == "60.25"

    def test_six_digit_precision(self):
        assert _fmt(1.23456789) == "1.234568"
        assert _fmt(0.000001) == "0.000001"
        assert _fmt(1e-9) == "0.00"

    def test_idempotent_through_parse(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = float(rng.uniform(0, 120))
            once = _fmt(v)
            assert _fmt(float(once)) == once

    @pytest.mark.parametrize("v", [-0.0, 0.0, -4e-7, -5e-7, 5e-7, 0.125, -0.125, 1e20, -1e20, 7.0])
    def test_named_values_keep_their_strings(self, v):
        assert _fmt(v) == fixed_decimal(v)
        assert _fmt(-0.0) == _fmt(-4e-7) == "0.00"

    @settings(max_examples=500)
    @given(
        v=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-1e-5, 1e-5),
            st.floats(-200.0, 200.0),
        )
    )
    def test_random_values_keep_their_strings(self, v):
        assert _fmt(v) == fixed_decimal(v)

    @settings(max_examples=200)
    @given(
        team=st.sampled_from(["home", "away"]),
        keeper=st.booleans(),
        x=st.floats(-1e3, 1e3),
        y=st.floats(-1e-6, 1e-6),
        visible=st.sampled_from([None, True, False]),
    )
    def test_player_objects_keep_their_strings(self, team, keeper, x, y, visible):
        tag = PlayerTag(team=team, is_goalkeeper=keeper)
        assert _player_json(tag, PitchPoint(x, y), visible) == player_json(team, keeper, x, y, visible)


# --- trajectories files ---------------------------------------------------------


@pytest.fixture(scope="module")
def assigned(model):
    """A degraded half with occlusions and kickoff seeds, and its assigned
    trajectories in the assigner's order."""
    record = degrade(truth_half(synth_half(seconds=20.0, fps=5, seed=77, half_id=1)), 1.0, 20.0, 0)
    trajectories = build_trajectories(record, model).in_order()
    assert any(t.seeded for t in trajectories)
    return record, trajectories


def _changed(value):
    return _json.filter(lambda v: v != value)


def _other_tag_index(draw, k):
    return draw(st.sampled_from([j for j, tag in enumerate(TRAJECTORY_TAGS) if tag != TRAJECTORY_TAGS[k]]))


def _point_index(draw, doc):
    """A trajectory and one of its points that is not a seed."""
    k = draw(st.sampled_from([k for k, t in enumerate(doc["trajectories"]) if len(t["times"]) > t["seeded"]]))
    traj = doc["trajectories"][k]
    return traj, draw(st.integers(int(traj["seeded"]), len(traj["times"]) - 1))


def _replace_document(doc, draw):
    return draw(_json)  # the one edit that returns a new document


def _replace_model_sha256(doc, draw):
    doc["model_sha256"] = draw(_json.filter(lambda v: not isinstance(v, str)))


def _drop_or_repeat_a_trajectory(doc, draw):
    trajs = doc["trajectories"]
    k = draw(st.integers(0, len(trajs) - 1))
    if draw(st.booleans()):
        del trajs[k]
    else:
        trajs.insert(k, trajs[k])


def _swap_trajectories_of_other_roles(doc, draw):
    trajs = doc["trajectories"]
    k = draw(st.integers(0, len(trajs) - 1))
    j = _other_tag_index(draw, k)
    trajs[k], trajs[j] = trajs[j], trajs[k]


def _replace_a_field(doc, draw):
    trajs = doc["trajectories"]
    key = draw(st.sampled_from(["team", "keeper", "seeded", "times", "x", "y"]))
    if key in ("x", "y"):  # a seed may sit anywhere, so change an unseeded trajectory
        traj = trajs[draw(st.sampled_from([k for k, t in enumerate(trajs) if not t["seeded"]]))]
    else:
        traj = trajs[draw(st.integers(0, len(trajs) - 1))]
    if draw(st.booleans()):
        traj[key] = draw(_changed(traj[key]))
    else:
        del traj[key]


def _put_a_non_finite_number(doc, draw):
    traj = draw(st.sampled_from(doc["trajectories"]))
    key = draw(st.sampled_from(["times", "x", "y"]))
    traj[key][draw(st.integers(0, len(traj[key]) - 1))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))


def _move_a_point(doc, draw):
    traj, i = _point_index(draw, doc)
    key = draw(st.sampled_from(["x", "y"]))
    moved = traj[key][i] + draw(st.sampled_from([1e-9, -1e-9, 1e-6, 3.0]))
    assert moved != traj[key][i]
    traj[key][i] = moved


def _move_a_time_off_its_frame(doc, draw):
    traj = draw(st.sampled_from(doc["trajectories"]))
    times = traj["times"]
    i = draw(st.integers(0, len(times) - 1))
    times[i] = times[i] + 0.5 * ((times[i + 1] - times[i]) if i + 1 < len(times) else 1.0)


def _break_the_time_order(doc, draw):
    traj = draw(st.sampled_from([t for t in doc["trajectories"] if len(t["times"]) >= 2]))
    i = draw(st.integers(0, len(traj["times"]) - 2))
    traj["times"][i + 1] = traj["times"][i] - draw(st.sampled_from([0.0, 0.5]))


def _shorten_one_array(doc, draw):
    traj = draw(st.sampled_from(doc["trajectories"]))
    traj[draw(st.sampled_from(["times", "x", "y"]))].pop()


def _drop_the_first_point(doc, draw):
    traj = draw(st.sampled_from([t for t in doc["trajectories"] if len(t["times"]) >= 2]))
    for key in ("times", "x", "y"):
        del traj[key][0]
    traj["seeded"] = False


_HOSTILE = [
    _replace_document,
    _replace_model_sha256,
    _drop_or_repeat_a_trajectory,
    _swap_trajectories_of_other_roles,
    _replace_a_field,
    _put_a_non_finite_number,
    _move_a_point,
    _move_a_time_off_its_frame,
    _break_the_time_order,
    _shorten_one_array,
    _drop_the_first_point,
]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from([None, *_HOSTILE]), data=st.data())
def test_trajectories_round_trip_and_every_hostile_edit_raises_naming_the_file(
    tmp_path, assigned, mutation, data
):
    record, trajectories = assigned
    path = tmp_path / "trajectories_half1.json"
    write_trajectories(trajectories, "ab" * 32, path)
    if mutation is not None:
        doc = json.loads(path.read_text())
        new = mutation(doc, data.draw)
        path.write_text(json.dumps(new if mutation is _replace_document else doc))
        with pytest.raises(MalformedInputError, match=str(path)):
            read_trajectories(path, record)
        return
    sha256, got = read_trajectories(path, record)
    assert sha256 == "ab" * 32
    assert got == trajectories


_MAX_INT = int(sys.float_info.max)  # ints just past it round to it as floats
_NUMBER_LIKE = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from([_MAX_INT, _MAX_INT + 1, -_MAX_INT - 1, 2**1024, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.floats(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers()) | st.lists(_NUMBER_LIKE))
def test_numbers_accepts_a_list_exactly_when_each_is_a_finite_number(values):
    if all(map(is_finite_number, values)):
        assert _numbers({"x": values}, "x") is values
    else:
        with pytest.raises(MalformedInputError, match="x must be an array of finite numbers"):
            _numbers({"x": values}, "x")


def test_trajectories_file_is_byte_deterministic_and_holds_floats_exactly(tmp_path, assigned):
    record, trajectories = assigned
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_trajectories(trajectories, "0" * 64, a)
    write_trajectories(read_trajectories(a, record)[1], "0" * 64, b)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert [t["x"] for t in doc["trajectories"]] == [[p.x for p in t.points] for t in trajectories]
