import dataclasses
import gc
import itertools
import math
import tracemalloc
from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PredictionRow, match_team, observed_at, score_half
from synth import synth_half, truth_half

from track_enrich.assigner import build_trajectories
from track_enrich.broadcast import degrade
from track_enrich.evaluator import (
    AT_EVENT,
    ESTIMATED,
    IN_PHASE,
    PREV_OBSERVED,
    FrameError,
    TruthMismatchError,
    _curve,
    _match_team,
    build_report,
    evaluate_half,
    event_frame_times,
    format_report,
    match_and_score,
    percentile_frames,
    render_pitch_svg,
    write_curve_csv,
    write_report_json,
)
from track_enrich.geometry import (
    AWAY,
    HOME,
    EnrichedFrame,
    EnrichedPlayer,
    MalformedInputError,
    PitchPoint,
    PlayerTag,
)
from track_enrich.ingest import Event
from track_enrich.pipeline import _observed_and_age, build_paths


def snapshot(home_pts, away_pts, time=30.0, provenance=None):
    players = []
    for team, pts in ((HOME, home_pts), (AWAY, away_pts)):
        for i, (x, y) in enumerate(pts):
            players.append(
                EnrichedPlayer(
                    tag=PlayerTag(team=team),
                    position=PitchPoint(x, y),
                    provenance=(provenance or {}).get((team, i), "estimated"),
                )
            )
        players.append(
            EnrichedPlayer(
                tag=PlayerTag(team=team, is_goalkeeper=True),
                position=PitchPoint(5.0 if team == HOME else 115.0, 40.0),
                provenance="estimated",
            )
        )
    return EnrichedFrame(time=time, ball=PitchPoint(60, 40), players=tuple(players))


def spread_points(n, x0=20.0, y0=10.0, dx=3.0, dy=6.0):
    return [(x0 + dx * i, y0 + (dy * i) % 60) for i in range(n)]


def teams(home_est, away_est, home_truth, away_truth):
    """``match_and_score``'s input: each team's estimates and truth as floats."""
    return {HOME: (home_est, home_truth), AWAY: (away_est, away_truth)}


def squared_total(errors):
    return sum(e**2 for team in (HOME, AWAY) for e in errors[team])


class TestMatchAndScore:
    def test_identity_scores_zero(self):
        home, away = spread_points(10), spread_points(10, x0=80.0)
        errors = match_and_score(teams(home, away, home, away))
        assert errors[HOME] + errors[AWAY] == [0.0] * 20
        assert squared_total(errors) == 0.0

    def test_swapped_pair_unswapped(self):
        home = spread_points(10)
        away = spread_points(10, x0=80.0)
        swapped = list(home)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        errors = match_and_score(teams(swapped, away, home, away))
        # matching reassigns the swap; every error is zero again
        assert squared_total(errors) == 0.0

    def test_small_matchups_equal_brute_force(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 7):
            for _ in range(10):
                est = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(n)]
                tru = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(n)]
                home_fill = spread_points(10 - n, x0=100.0, y0=70.0)
                away = spread_points(10, x0=80.0)
                errors = match_and_score(teams(est + home_fill, away, tru + home_fill, away))
                total = sum(errors[HOME])
                best = min(
                    sum(
                        math.dist(est[j], tru[perm[j]])
                        for j in range(n)
                    )
                    for perm in itertools.permutations(range(n))
                )
                assert total == pytest.approx(best, abs=1e-9)

    def test_ten_vs_ten_below_sampled_permutations(self):
        rng = np.random.default_rng(2)
        est = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(10)]
        tru = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(10)]
        away = spread_points(10, x0=80.0)
        total = sum(match_and_score(teams(est, away, tru, away))[HOME])
        for _ in range(20_000):
            perm = rng.permutation(10)
            sampled = sum(math.dist(est[j], tru[perm[j]]) for j in range(10))
            assert total <= sampled + 1e-9

    def test_size_mismatch_fatal(self):
        away = spread_points(10, x0=80.0)
        with pytest.raises(TruthMismatchError, match="estimates vs"):
            match_and_score(teams(spread_points(10), away, [(1, 1)] * 9, away))

    def test_team_relabel_invariance(self):
        rng = np.random.default_rng(3)
        home = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(10)]
        away = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(10)]
        th = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(10)]
        ta = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for _ in range(10)]
        e1 = match_and_score(teams(home, away, th, ta))
        e2 = match_and_score(teams(away, home, ta, th))
        assert sorted(e1[HOME] + e1[AWAY]) == pytest.approx(sorted(e2[HOME] + e2[AWAY]))


def fe_with_total(t, total):
    return FrameError(time=t, total_squared_error=total)


class TestPercentileFrames:
    def test_degenerate_equal_errors(self):
        frames = [fe_with_total(float(t), 5.0) for t in range(120)]
        out = percentile_frames(frames)
        assert all(fe.time == 0.0 for _, fe in out)

    def test_rank_statistic(self):
        frames = [fe_with_total(float(t), float(t + 1)) for t in range(100)]
        out = dict(percentile_frames(frames))
        assert abs(out[95].total_squared_error - np.percentile(np.arange(1, 101), 95)) <= 1.0

    def test_needs_100_frames(self):
        with pytest.raises(ValueError):
            percentile_frames([fe_with_total(0.0, 1.0)] * 99)


class TestSvg:
    def _frame(self):
        return snapshot(spread_points(10), spread_points(10, x0=70.0, y0=15.0))

    def test_structure_counts(self):
        svg = render_pitch_svg(self._frame())
        # 20 outfield discs + ball + centre circle; keepers are squares
        assert svg.count("<circle") == 22
        assert svg.count("<rect") >= 2 + 5
        assert svg.endswith("</svg>\n")

    def test_deterministic_bytes(self):
        a = render_pitch_svg(self._frame(), ["3"] * 22)
        b = render_pitch_svg(self._frame(), ["3"] * 22)
        assert a == b

    def test_corner_disc_inside_viewport(self):
        home = [(0.0, 0.0)] + spread_points(9, x0=30.0)
        svg = render_pitch_svg(snapshot(home, spread_points(10, x0=70.0)))
        assert '<circle cx="0.00" cy="0.00" r="1.80"' in svg
        # viewBox extends 4 m beyond the pitch on every side: disc fits
        header = svg.splitlines()[0]
        assert 'viewBox="-4 -4 128 88"' in header

    def test_annotation_alignment_enforced(self):
        with pytest.raises(ValueError):
            render_pitch_svg(self._frame(), ["1", "2"])


@pytest.fixture(scope="module")
def scored(model):
    half = truth_half(synth_half(seconds=120.0, fps=5, seed=33))
    record = degrade(half, 1.0, 1e9, 3)  # everyone visible
    paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
    result = evaluate_half(record, paths, half)
    return half, record, result


@pytest.fixture(scope="module")
def occluded_inputs(model):
    half = truth_half(synth_half(seconds=150.0, fps=5, seed=44))
    record = degrade(half, 1.0, 30.0, 3)
    paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
    return half, record, paths


@pytest.fixture(scope="module")
def occluded(occluded_inputs):
    half, record, paths = occluded_inputs
    return record, paths, evaluate_half(record, paths, half)


class TestEvaluateHalf:

    def test_full_visibility_all_in_phase_errors_zero(self, scored):
        _, record, result = scored
        in_phase = [(e, f) for e, f in zip(result.errors, result.flags) if f & IN_PHASE]
        assert in_phase
        assert all(e == 0.0 for e, _ in in_phase)
        assert all(not f & ESTIMATED for _, f in in_phase)

    def test_out_of_phase_rows_small_errors(self, scored):
        _, record, result = scored
        out_phase = [(e, f) for e, f in zip(result.errors, result.flags) if not f & IN_PHASE]
        assert len(out_phase) == (len(record.frames) - 1) * 20
        assert all(f & PREV_OBSERVED for _, f in out_phase)
        assert np.mean([e for e, _ in out_phase]) < 1.5

    def test_report_fields(self, scored):
        half, record, result = scored
        report = build_report([result])
        assert report["mean_all_in_phase_m"] == 0.0
        assert report["n_frames"] == len(record.frames)
        assert report["n_predictions"] == 0  # nobody was hidden
        # no off-camera players anywhere, so the off-camera cohorts are empty
        assert math.isnan(report["mean_offcam_in_phase_m"])
        assert math.isnan(report["mean_offcam_event_frames_m"])

    def test_format_report_prints_counts_and_na(self, scored):
        _, record, result = scored
        lines = format_report(build_report([result])).splitlines()
        assert lines[0] == f"frames evaluated        : {len(record.frames)}"
        assert lines[1] == "off-camera predictions  : 0"
        assert lines[2] == "mean error, in phase    :   0.00 m (all players)"
        # the off-camera cohorts are empty, so their figures are NaN
        assert lines[3] == "mean error, off camera  : n/a (in phase)"
        assert lines[4] == "median error, off camera: n/a (in phase)"
        assert lines[7] == "mean error at events    : n/a (off camera)"

    def test_curve_bucket_zero_mean_zero(self, scored):
        _, _, result = scored
        report = build_report([result])
        bucket0 = next(b for b in report["curve"] if b["bucket_s"] == 0.0)
        assert bucket0["mean_m"] == 0.0
        for b in report["curve"]:
            assert b["p12_5_m"] >= b["p2_5_m"] - 1e-12
            assert b["p87_5_m"] <= b["p97_5_m"] + 1e-12

    def test_report_files(self, scored, tmp_path):
        _, _, result = scored
        report = build_report([result])
        write_report_json(report, tmp_path / "report.json")
        write_curve_csv(report, tmp_path / "curve.csv")
        text = (tmp_path / "curve.csv").read_text()
        assert text.splitlines()[0] == "bucket_s,mean_m,p12.5,p87.5,p2.5,p97.5,n"
        import json

        doc = json.loads((tmp_path / "report.json").read_text())
        for key in (
            "mean_all_in_phase_m",
            "mean_offcam_in_phase_m",
            "median_offcam_in_phase_m",
            "mean_all_out_of_phase_m",
            "mean_prev_frame_observed_m",
            "mean_offcam_event_frames_m",
            "n_frames",
            "n_predictions",
            "per_half",
            "curve",
        ):
            assert key in doc

    def test_rows_align_with_outfield_paths(self, occluded):
        record, paths, result = occluded
        trajs = [p.trajectory for p in paths.paths if not p.trajectory.tag.is_goalkeeper]
        assert [t.tag.team for t in trajs] == [HOME] * 10 + [AWAY] * 10
        # each frame time, then the midpoint to the next frame
        times = [fr.time for fr in record.frames]
        query_times = [q for a, b in zip(times, times[1:]) for q in (a, a + 0.5 * (b - a))]
        query_times.append(times[-1])
        # no query time is skipped, so the predictions come in blocks of 20 per time
        assert len(result.errors) == len(result.ages) == len(result.flags) == 20 * len(query_times)
        prev = None
        for k, t in enumerate(query_times):
            for j, traj in enumerate(trajs):
                age, flags = result.ages[20 * k + j], result.flags[20 * k + j]
                in_phase = k % 2 == 0
                assert bool(flags & IN_PHASE) == in_phase
                assert (not flags & ESTIMATED) == observed_at(traj, t)
                assert age == _observed_and_age(traj, bisect_right(traj.times, t) - 1, t)[1]
                # an out-of-phase prediction follows the in-phase one of the frame before
                assert bool(flags & PREV_OBSERVED) == (not in_phase and observed_at(traj, prev))
            prev = t
        assert {f & ESTIMATED for f in result.flags} == {0, ESTIMATED}


class TestDegradedEvaluation:
    def test_occluded_run_produces_sane_report(self, occluded):
        _, _, result = occluded
        report = build_report([result])
        assert report["n_predictions"] > 0
        assert 0.0 <= report["mean_all_in_phase_m"] < report["mean_offcam_in_phase_m"]
        assert report["mean_offcam_in_phase_m"] < 40.0
        assert not math.isnan(report["mean_prev_frame_observed_m"])
        assert report["mean_prev_frame_observed_m"] < 2.0
        # off-camera players at in-phase frames have nonzero ages
        est_ages = [
            age
            for age, f in zip(result.ages, result.flags)
            if f & (IN_PHASE | ESTIMATED) == IN_PHASE | ESTIMATED
        ]
        assert est_ages and all(age > 0 for age in est_ages)


def test_event_frame_times_nearest_with_ties_to_the_earlier_frame():
    events = [Event(t, "pass", HOME) for t in (0.2, 1.5, 1.6, 2.0, 2.0, 9.0)]
    assert event_frame_times(events, [1.0, 2.0, 3.0]) == {1.0, 2.0, 3.0}
    assert event_frame_times(events[1:2], [1.0, 2.0]) == {1.0}


# Few distinct coordinates, so estimates often coincide with one or several
# equal truths; 0.0 and -0.0 are equal and must pin alike.
_coordinate = st.sampled_from([0.0, -0.0, 1.5, 40.0]) | st.floats(0.0, 120.0)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(0, 10))
def test_pin_by_position_equals_the_linear_scan(data, n):
    point = st.builds(PitchPoint, _coordinate, _coordinate)
    truth = data.draw(st.lists(point, min_size=n, max_size=n))
    est = data.draw(st.lists(st.sampled_from(truth) | point, min_size=n, max_size=n) if n else st.just([]))
    floats = [(p.x, p.y) for p in est], [(p.x, p.y) for p in truth]
    assert _match_team(*floats) == match_team(est, truth)


@settings(max_examples=200, deadline=None)
@given(
    errors=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.sampled_from([0.0, 0.4, 1.0, 2.2, 7.0])), min_size=1, max_size=60
    )
)
def test_curve_equals_four_separate_percentiles(errors):
    columns = array("d", [e for e, _ in errors]), array("d", [age for _, age in errors])
    for bucket in _curve(*columns):
        vals = np.asarray([e for e, age in errors if round(age * 2.0) / 2.0 == bucket["bucket_s"]])
        for key, q in (("p12_5_m", 12.5), ("p87_5_m", 87.5), ("p2_5_m", 2.5), ("p97_5_m", 97.5)):
            assert bucket[key] == float(np.percentile(vals, q))


def as_rows(result):
    """A result's columns as the object scorer's rows."""
    return [
        PredictionRow(
            "in_phase" if f & IN_PHASE else "out_of_phase",
            "estimated" if f & ESTIMATED else "observed",
            e,
            age,
            bool(f & PREV_OBSERVED),
            bool(f & AT_EVENT),
        )
        for e, age, f in zip(result.errors, result.ages, result.flags)
    ]


def without_a_home_outfielder(half, times):
    """``half`` with its first home outfielder missing from the native row at
    each of ``times``, as in a substitution overlap."""
    table = half.frames
    used, j = table.used.copy(), 1 + table.tags.index(PlayerTag(HOME))
    for i, t in enumerate(table.times):
        if any(abs(t - q) < 0.05 for q in times):
            used[i, j] = False
    return dataclasses.replace(half, frames=dataclasses.replace(table, used=used))


@pytest.mark.parametrize("case", ["occluded", "skipped", "malformed"])
def test_columns_equal_the_object_scorer(occluded_inputs, case):
    half, record, paths = occluded_inputs
    times = [fr.time for fr in record.frames]
    if case == "skipped":
        # frame 10 is skipped, its midpoint to frame 11 is not (it reuses the
        # skipped frame's observed flags); the native frame nearest to the
        # midpoint after frame 20 is 0.1 s before it
        half = without_a_home_outfielder(half, [times[10], times[20] + 0.4])
    elif case == "malformed":
        half = without_a_home_outfielder(half, times[10:15])  # 5 of 2 x 145 - 1 query times
        with pytest.raises(MalformedInputError, match="5 query times lacked") as want:
            score_half(record, paths, half)
        with pytest.raises(MalformedInputError) as got:
            evaluate_half(record, paths, half)
        assert str(got.value) == str(want.value)
        return
    frames, rows = score_half(record, paths, half)
    result = evaluate_half(record, paths, half)
    assert [(fe.time, fe.total_squared_error) for fe in result.frame_errors] == frames
    assert as_rows(result) == rows
    skipped = 2 * len(times) - 1 - len(rows) // 20
    assert skipped == {"occluded": 0, "skipped": 2}[case]
    assert {r.phase for r in rows} == {"in_phase", "out_of_phase"}
    assert {r.provenance for r in rows} == {"observed", "estimated"}
    assert any(r.prev_frame_observed for r in rows) and any(r.at_event_frame for r in rows)


def test_one_skipped_query_time_of_99_is_more_than_1_percent(model):
    half = truth_half(synth_half(seconds=55.0, fps=5, seed=45))
    record = degrade(half, 1.0, 30.0, 3)
    assert len(record.frames) == 50  # 99 query times
    paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
    half = without_a_home_outfielder(half, [record.frames[10].time])
    with pytest.raises(MalformedInputError, match="1 query times lacked") as want:
        score_half(record, paths, half)
    with pytest.raises(MalformedInputError) as got:
        evaluate_half(record, paths, half)
    assert str(got.value) == str(want.value)


def test_a_scored_prediction_keeps_at_most_48_bytes(occluded_inputs):
    half, record, paths = occluded_inputs
    evaluate_half(record, paths, half)  # the paths build their lazy state on a first run
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = evaluate_half(record, paths, half)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.errors) == 20 * (2 * len(record.frames) - 1)
    assert kept <= 48 * len(result.errors), kept / len(result.errors)
