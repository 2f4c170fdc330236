"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criteria 1-3 replicate the published degradation experiment and error
analysis on Match 1 of the open tracking dataset (trained on Match 2).  Those
data files are not redistributable with this repository; point
TRACK_ENRICH_DATA_DIR (or place the files under data/metrica/) at them as
described in the README, otherwise those criteria are skipped.  Criteria 4
and 5 are self-contained and always run.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from synth import count_identity_switches, synth_half

from oracles import flip_point, forecast, velocity_correction
from test_forecaster import flat_ball, make_traj, simple_model, unrolled_oracle

from track_enrich.assigner import build_trajectories
from track_enrich.broadcast import DegradeConfig, degrade, degrade_stats
from track_enrich.evaluator import IN_PHASE, build_report, evaluate_half
from track_enrich.forecaster import (
    GridSeries,
    fit,
    resample_to_grid,
)
from track_enrich.geometry import AWAY, HOME, PitchPoint, PlayerTag, Trajectory
from track_enrich.ingest import (
    DiscreteMatchRecord,
    ObservationFrame,
    attach_events,
    read_discrete,
    read_tracking_csv,
    write_discrete,
)
from track_enrich.interpolator import (
    VelocityField,
    position_at,
)
from track_enrich.lsap import linear_sum_assignment
from track_enrich.pipeline import build_paths

DATA_DIR = Path(os.environ.get("TRACK_ENRICH_DATA_DIR", Path(__file__).parent.parent / "data" / "metrica"))

MATCH1 = {
    "home": "Sample_Game_1_RawTrackingData_Home_Team.csv",
    "away": "Sample_Game_1_RawTrackingData_Away_Team.csv",
    "events": "Sample_Game_1_RawEventsData.csv",
}
MATCH2 = {
    "home": "Sample_Game_2_RawTrackingData_Home_Team.csv",
    "away": "Sample_Game_2_RawTrackingData_Away_Team.csv",
}

_HAVE_DATA = all(
    (DATA_DIR / name).exists() for name in [*MATCH1.values(), *MATCH2.values()]
)
needs_data = pytest.mark.skipif(
    not _HAVE_DATA,
    reason=(
        "open tracking data not present under "
        f"{DATA_DIR} (see README: data setup); criteria 1-3 skipped"
    ),
)


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- criteria 1-3: open-data replication --------------------------------------


@pytest.fixture(scope="module")
def match1_halves():
    halves = read_tracking_csv(DATA_DIR / MATCH1["home"], DATA_DIR / MATCH1["away"])
    attach_events(halves, DATA_DIR / MATCH1["events"])
    return halves


@pytest.fixture(scope="module")
def match1_records(match1_halves):
    cfg = DegradeConfig(sample_period=1.0, visibility_radius=30.0, trim_frames=30)
    return [degrade(h, cfg) for h in match1_halves]


@needs_data
def test_criterion_1_degradation_replication(match1_records):
    started = time.perf_counter()
    stats = [degrade_stats(r) for r in match1_records]
    n_frames = sum(s.n_frames for s in stats)
    n_preds = sum(s.n_predictions for s in stats)
    mean_visible = sum(s.mean_visible_outfield * s.n_frames for s in stats) / n_frames
    elapsed = time.perf_counter() - started
    detail = (
        f"mean visible {mean_visible:.2f} (want 10.60+-0.15), "
        f"frames {n_frames} (want 6390+-60), predictions {n_preds} (want 59821+-600), "
        f"stats in {elapsed:.1f}s"
    )
    ok = (
        abs(mean_visible - 10.60) <= 0.15
        and abs(n_frames - 6390) <= 60
        and abs(n_preds - 59821) <= 600
        and elapsed < 60.0
    )
    report_line("criterion-1 degradation", ok, detail)


@pytest.fixture(scope="module")
def match1_report(match1_halves, match1_records):
    train = read_tracking_csv(DATA_DIR / MATCH2["home"], DATA_DIR / MATCH2["away"])
    training = []
    for half in train:
        trajs = [
            t for t in half.player_tracks.values()
            if not t.tag.is_goalkeeper and len(t) >= 2
        ]
        training.append((trajs, resample_to_grid(half.times, half.ball)))
    started = time.perf_counter()
    model = fit(training)
    assert 0.1 < model.resid_std < 3.0, f"implausible resid_std {model.resid_std}"
    results = []
    for half, record in zip(match1_halves, match1_records):
        paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
        results.append(evaluate_half(record, paths, half))
    elapsed = time.perf_counter() - started
    return build_report(results), elapsed


# (label, report.json key, bound) of each headline error criterion 2 checks
CRITERION_2_BOUNDS = (
    ("mean in-phase all", "mean_all_in_phase_m", 4.5),
    ("mean in-phase off-camera", "mean_offcam_in_phase_m", 9.0),
    ("median off-camera", "median_offcam_in_phase_m", 7.0),
    ("mean out-of-phase all", "mean_all_out_of_phase_m", 4.6),
    ("prev-frame-observed mean", "mean_prev_frame_observed_m", 0.6),
    ("event-frame off-camera mean", "mean_offcam_event_frames_m", 8.2),
)
# the keys criterion 3 reads from each curve bucket
CRITERION_3_CURVE_KEYS = ("bucket_s", "mean_m", "p97_5_m")


@needs_data
def test_criterion_2_headline_errors(match1_report):
    report, elapsed = match1_report
    checks = [(label, report[key], bound) for label, key, bound in CRITERION_2_BOUNDS]
    parts = [f"{name} {val:.2f} (<= {bound})" for name, val, bound in checks]
    parts.append(f"runtime {elapsed:.0f}s (< 1800)")
    ok = all(val <= bound for _, val, bound in checks)
    ok = ok and report["mean_offcam_event_frames_m"] < report["mean_offcam_in_phase_m"]
    ok = ok and elapsed < 1800.0
    report_line("criterion-2 headline errors", ok, "; ".join(parts))


@needs_data
def test_criterion_3_occlusion_curve(match1_report):
    report, _ = match1_report
    early = [b for b in report["curve"] if b["bucket_s"] <= 10.0]
    bad = [b for b in early if b["mean_m"] >= 10.0 or b["p97_5_m"] >= 25.0]
    worst_mean = max((b["mean_m"] for b in early), default=0.0)
    worst_p = max((b["p97_5_m"] for b in early), default=0.0)
    detail = (
        f"buckets <= 10s: worst mean {worst_mean:.2f} (< 10), "
        f"worst 97.5th pct {worst_p:.2f} (< 25)"
    )
    report_line("criterion-3 occlusion curve", not bad, detail)


def test_report_has_the_keys_criteria_2_and_3_read(model):
    """Criteria 2 and 3 skip without the data; a renamed key must still fail."""
    half = synth_half(seconds=60.0, fps=5, seed=55)
    record = degrade(half, DegradeConfig(1.0, 30.0, 3))
    paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
    report = build_report([evaluate_half(record, paths, half)])
    for _, key, _ in CRITERION_2_BOUNDS:
        assert isinstance(report[key], float), key
    assert report["curve"]
    for bucket in report["curve"]:
        for key in CRITERION_3_CURVE_KEYS:
            assert isinstance(bucket[key], float), key


# --- criterion 4: property suites (no data required) ---------------------------


@pytest.fixture(scope="module")
def clock():
    return {"start": time.perf_counter()}


def brute_force_min(cost: np.ndarray, perm_cache={}) -> float:
    rows, cols = cost.shape
    key = (rows, cols)
    if key not in perm_cache:
        perm_cache[key] = np.array(list(itertools.permutations(range(rows), cols)))
    perms = perm_cache[key]
    return float(cost[perms, np.arange(cols)].sum(axis=1).min())


def test_criterion_4a_solver_vs_brute_force(clock):
    rng = np.random.default_rng(1000)
    for trial in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, rows + 1))
        cost = rng.integers(0, 1000, size=(rows, cols)).astype(float)
        total = sum(cost[i, j] for i, j in zip(*linear_sum_assignment(cost.tolist())))
        assert total == brute_force_min(cost), f"trial {trial}"
    report_line("criterion-4a solver optimality", True, "1000 random matrices, exact")


def test_criterion_4b_interpolation_through_points(clock):
    rng = np.random.default_rng(2000)
    field = VelocityField(
        start_k=0,
        step=1.0,
        vx=list(rng.uniform(-2, 2, 70)),
        vy=list(rng.uniform(-2, 2, 70)),
        alpha=0.5,
    )
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        times = np.sort(rng.uniform(0, 60, n))
        while np.any(np.diff(times) < 1e-3):
            times = np.sort(rng.uniform(0, 60, n))
        pts = [(float(t), float(rng.uniform(0, 120)), float(rng.uniform(0, 80))) for t in times]
        path = _path_of(pts)
        for t, x, y in pts:
            got = position_at(path, field, t)
            worst = max(worst, abs(got.x - x), abs(got.y - y))
    report_line(
        "criterion-4b interpolation exactness",
        worst < 1e-9,
        f"1000 trajectories, worst deviation {worst:.2e} m (< 1e-9)",
    )


def _path_of(pts):
    from track_enrich.interpolator import ContinuousPath

    return ContinuousPath(trajectory=make_traj(pts), model=simple_model(), ball=flat_ball())


def test_criterion_4c_decomposition(clock):
    rng = np.random.default_rng(3000)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        field = VelocityField(
            start_k=0,
            step=1.0,
            vx=list(rng.uniform(-2, 2, n)),
            vy=list(rng.uniform(-2, 2, n)),
            alpha=float(rng.uniform(0, 1)),
        )
        t1 = float(rng.uniform(0, 4))
        t2 = t1 + float(rng.uniform(0.5, 7))
        p1 = (float(rng.uniform(10, 110)), float(rng.uniform(10, 70)))
        p2 = (float(rng.uniform(10, 110)), float(rng.uniform(10, 70)))
        path = _path_of([(t1, *p1), (t2, *p2)])
        t = float(rng.uniform(t1, t2))
        f = (t - t1) / (t2 - t1)
        linear = (p1[0] + f * (p2[0] - p1[0]), p1[1] + f * (p2[1] - p1[1]))
        corr = velocity_correction(field, t1, t2, t)
        got = position_at(path, field, t)
        worst = max(worst, abs(got.x - linear[0] - corr[0]), abs(got.y - linear[1] - corr[1]))
    report_line(
        "criterion-4c path decomposition",
        worst < 1e-9,
        f"linear + correction reproduces the path, worst {worst:.2e} m (< 1e-9)",
    )


def test_criterion_4d_alpha_zero(clock):
    rng = np.random.default_rng(4000)
    field = VelocityField(
        start_k=0,
        step=1.0,
        vx=list(rng.uniform(-3, 3, 40)),
        vy=list(rng.uniform(-3, 3, 40)),
        alpha=0.0,
    )
    exact = True
    for _ in range(200):
        pts = [
            (float(t), float(rng.uniform(10, 110)), float(rng.uniform(10, 70)))
            for t in sorted(rng.choice(np.arange(0, 30), size=4, replace=False))
        ]
        path = _path_of(pts)
        t = float(rng.uniform(pts[0][0], pts[-1][0]))
        times = [p[0] for p in pts]
        i = min(max(j for j, tt in enumerate(times) if tt <= t), len(pts) - 2)
        t1, x1, y1 = pts[i]
        t2, x2, y2 = pts[i + 1]
        f = (t - t1) / (t2 - t1)
        got = position_at(path, field, t)
        if got.x != x1 + f * (x2 - x1) or got.y != y1 + f * (y2 - y1):
            exact = False
    report_line(
        "criterion-4d alpha=0 reduces to linear", exact, "piecewise-linear exactly"
    )


def test_criterion_4e_forecast_vs_unrolled_recursion(clock):
    rng = np.random.default_rng(5000)
    model = simple_model()
    worst = 0.0
    for _ in range(50):
        n_pts = int(rng.integers(2, 8))
        times = np.sort(rng.choice(np.arange(0, 20), size=n_pts, replace=False))
        pts = [(float(t), float(rng.uniform(20, 100)), float(rng.uniform(10, 70))) for t in times]
        ball_vals = [(float(rng.uniform(30, 90)), float(rng.uniform(20, 60))) for _ in range(60)]
        ball = GridSeries(-10, 1.0, [PitchPoint(x, y) for x, y in ball_vals])
        t_query = float(times[-1] + int(rng.integers(2, 12)))
        fc = forecast(model, make_traj(pts), ball, t_query)
        ox, oy = unrolled_oracle(model, pts, (np.arange(-10, 50), ball_vals), t_query)
        worst = max(worst, abs(fc.mean.x - np.clip(ox, 0, 120)), abs(fc.mean.y - np.clip(oy, 0, 80)))
    report_line(
        "criterion-4e multi-step forecast",
        worst < 1e-9,
        f"vs independent unrolled recursion, worst {worst:.2e} m (< 1e-9)",
    )


def test_criterion_4f_ar1_recovery(clock):
    rng = np.random.default_rng(6000)
    phi = 0.6
    n = 10_000
    d = np.zeros(n)
    for t in range(1, n):
        d[t] = phi * d[t - 1] + rng.normal(0, 0.3)
    x = 60.0 + np.cumsum(d) * 0.01
    traj = Trajectory(tag=PlayerTag(HOME))
    for t in range(n):
        traj.append(float(t), PitchPoint(float(np.clip(x[t], 1, 119)), 40.0))
    model = fit([([traj], flat_ball(n=n + 20, start_k=-10))], ar_order=1, ma_order=0, ball_lags=0)
    err = abs(model.ar[0] - phi)
    report_line(
        "criterion-4f AR(1) recovery",
        err < 0.1,
        f"fit {model.ar[0]:.3f} vs generator {phi} (tolerance 0.1)",
    )


def test_criterion_4g_assignment_injectivity(clock, model):
    ok = True
    for seed in (7001, 7002):
        half = synth_half(seconds=70.0, fps=5, seed=seed)
        record = degrade(half, DegradeConfig(1.0, 25.0, 2))
        tracked = build_trajectories(record, model)
        for team in (HOME, AWAY):
            for frame in record.frames[1:]:
                holders = [t for t in tracked.outfield[team] if t.point_at(frame.time) is not None]
                positions = {
                    (t.point_at(frame.time).x, t.point_at(frame.time).y) for t in holders
                }
                visible = {(p.x, p.y) for p in frame.visible_for(team)}
                if len(holders) != len(frame.visible_for(team)) or positions != visible:
                    ok = False
    report_line(
        "criterion-4g assignment injectivity",
        ok,
        "every visible position appended to exactly one trajectory",
    )


def test_criterion_4h_involution_and_round_trips(clock, tmp_path):
    rng = np.random.default_rng(8000)
    worst = 0.0
    for _ in range(300):
        p = PitchPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 80)))
        back = flip_point(flip_point(p))
        worst = max(worst, abs(back.x - p.x), abs(back.y - p.y))
    round_trips_ok = True
    for trial in range(10):
        frames = []
        for i in range(int(rng.integers(1, 8))):
            visible = tuple(
                (
                    PlayerTag(team=HOME if rng.random() < 0.5 else AWAY,
                              is_goalkeeper=False),
                    PitchPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))),
                )
                for _ in range(int(rng.integers(0, 10)))
            )
            frames.append(
                ObservationFrame(
                    time=float(i + 1),
                    ball=PitchPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))),
                    visible=visible,
                )
            )
        record = DiscreteMatchRecord(half_id=1, frames=frames, defends_left={HOME: True, AWAY: False})
        path = tmp_path / f"rt{trial}.json"
        write_discrete(record, path)
        first = read_discrete(path)
        write_discrete(first, path)
        if read_discrete(path) != first:
            round_trips_ok = False
    ok = worst < 1e-9 and round_trips_ok
    report_line(
        "criterion-4h involution and round trips",
        ok,
        f"flip-twice worst {worst:.2e} m; read-write-read identity on random records",
    )


def test_criterion_4_total_runtime(clock):
    elapsed = time.perf_counter() - clock["start"]
    report_line(
        "criterion-4 runtime", elapsed < 10.0, f"property suites took {elapsed:.1f}s (< 10)"
    )


# --- criterion 5: oracle identity ----------------------------------------------


def test_criterion_5_oracle_identity(model):
    half = synth_half(seconds=300.0, fps=5, seed=90, half_id=1, calm=True)
    record = degrade(half, DegradeConfig(1.0, 1e9, 30))
    paths = build_paths(record, model, build_trajectories(record, model).in_order(), alpha=0.5)
    result = evaluate_half(record, paths, half)
    in_rows = [e for e, f in zip(result.errors, result.flags) if f & IN_PHASE]
    max_err = max(in_rows)
    outfield = [p.trajectory for p in paths.paths if not p.trajectory.tag.is_goalkeeper]
    switches = count_identity_switches(half, outfield)
    ok = max_err == 0.0 and switches == 0
    report_line(
        "criterion-5 oracle identity",
        ok,
        f"{len(in_rows)} in-phase predictions, max error {max_err} m (== 0), "
        f"identity switches {switches} (== 0)",
    )
