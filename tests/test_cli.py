import codecs
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import read_enriched
from synth import synth_half, truth_half, write_360_feed, write_metrica_csvs

from track_enrich.broadcast import degrade
from track_enrich.cli import main, sha256_hex
from track_enrich.forecaster import ForecastModel, save_model
from track_enrich.geometry import MalformedInputError
from track_enrich.ingest import read_360_frames, read_tracking_csv, write_discrete


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic train/test matches materialized as CSV files plus a config."""
    root = tmp_path_factory.mktemp("cli")
    train = [
        synth_half(seconds=120.0, fps=5, seed=71, half_id=1),
        synth_half(seconds=120.0, fps=5, seed=72, half_id=2),
    ]
    test = [
        synth_half(seconds=120.0, fps=5, seed=73, half_id=1),
        synth_half(seconds=120.0, fps=5, seed=74, half_id=2),
    ]
    write_metrica_csvs(train, root / "train_home.csv", root / "train_away.csv")
    write_metrica_csvs(
        test, root / "test_home.csv", root / "test_away.csv", events_path=root / "events.csv"
    )
    cfg = {
        "train_home_csv": str(root / "train_home.csv"),
        "train_away_csv": str(root / "train_away.csv"),
        "test_home_csv": str(root / "test_home.csv"),
        "test_away_csv": str(root / "test_away.csv"),
        "test_events_csv": str(root / "events.csv"),
        "model_path": str(root / "model.json"),
        "output_dir": str(root / "out"),
        "trim_frames": 3,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, cfg_path


def test_full_pipeline(workspace, capsys):
    root, cfg = workspace

    assert main(["train", "--config", str(cfg)]) == 0
    assert (root / "model.json").exists()
    first_model = (root / "model.json").read_bytes()

    assert main(["train", "--config", str(cfg)]) == 0
    assert (root / "model.json").read_bytes() == first_model  # deterministic refit

    assert main(["simulate-broadcast", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "visible outfielders" in out
    assert (root / "out" / "discrete_half1.json").exists()
    assert (root / "out" / "discrete_half2.json").exists()

    assert main(["enrich", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "s/frame" in out
    frames = read_enriched(root / "out" / "enriched_half1.json")
    assert frames
    assert all(len(f.players) == 22 for f in frames)

    assert main(["evaluate", "--config", str(cfg)]) == 0
    report_path = root / "out" / "report.json"
    assert report_path.exists()
    assert (root / "out" / "curve.csv").exists()
    first_report = report_path.read_bytes()
    doc = json.loads(first_report)
    for key in (
        "mean_all_in_phase_m",
        "mean_offcam_in_phase_m",
        "median_offcam_in_phase_m",
        "mean_all_out_of_phase_m",
        "mean_prev_frame_observed_m",
        "mean_offcam_event_frames_m",
    ):
        assert key in doc
    assert doc["mean_all_in_phase_m"] is not None

    # percentile SVGs: 118 in-phase frames per half < 100 threshold? 120s - trims
    # half spans 120 s with trim 3 -> at least 100 frames, so SVGs exist
    svgs = sorted(p.name for p in (root / "out").glob("percentile_*.svg"))
    assert svgs == [
        "percentile_25.svg",
        "percentile_50.svg",
        "percentile_75.svg",
        "percentile_95.svg",
    ]

    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert report_path.read_bytes() == first_report  # deterministic rerun


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_missing_input_exits_2(tmp_path, capsys, bom):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(bom + json.dumps({"train_home_csv": str(tmp_path / "nope.csv")}).encode())
    code = main(["train", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err


@pytest.mark.parametrize("level, code", [("VERBOSE", 2), ("5", 2), ("debug", 0), ("Critical", 0)])
def test_track_enrich_log_takes_the_five_level_names_in_any_case(tmp_path, tiny_enrich, level, code):
    shutil.copytree(tiny_enrich, tmp_path, dirs_exist_ok=True)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model_path": str(tmp_path / "model.json"), "output_dir": str(tmp_path / "out")}))
    run = subprocess.run(
        [sys.executable, "-m", "track_enrich.cli", "enrich", "--config", str(cfg)],
        env={**_src_env(), "TRACK_ENRICH_LOG": level}, capture_output=True, text=True, timeout=10,
    )
    assert run.returncode == code, run.stderr
    assert ("TRACK_ENRICH_LOG must be DEBUG, INFO, WARNING, ERROR or CRITICAL" in run.stderr) == (code == 2)
    assert (tmp_path / "out" / "enriched_half1.json").exists() == (code == 0)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "no_such_key" in capsys.readouterr().err


def test_enrich_without_discrete_input_exits_2(tmp_path, workspace, capsys):
    root, _ = workspace
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {"model_path": str(root / "model.json"), "output_dir": str(tmp_path / "void")}
        )
    )
    assert main(["enrich", "--config", str(cfg)]) == 2
    assert "simulate-broadcast" in capsys.readouterr().err


def test_out_of_range_tracking_csv_exits_2(tmp_path, capsys):
    half = synth_half(seconds=10.0, fps=5, seed=75, half_id=1)
    home, away = tmp_path / "home.csv", tmp_path / "away.csv"
    write_metrica_csvs([half], home, away)
    lines = away.read_text().splitlines()
    cells = lines[10].split(",")
    cells[3] = "1.30000"
    lines[10] = ",".join(cells)
    away.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {"train_home_csv": str(home), "train_away_csv": str(away), "model_path": str(tmp_path / "m.json")}
        )
    )
    assert main(["train", "--config", str(cfg)]) == 2
    assert "away.csv row 11" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()

def test_evaluate_with_bad_events_csv_exits_2(tmp_path, capsys):
    half = synth_half(seconds=20.0, fps=5, seed=76, half_id=1)
    home, away, events = tmp_path / "home.csv", tmp_path / "away.csv", tmp_path / "events.csv"
    write_metrica_csvs([half], home, away, events_path=events)
    lines = events.read_text().splitlines()
    lines[1] = "Visitors" + lines[1][lines[1].index(","):]
    events.write_text("\n".join(lines) + "\n")
    model_path = tmp_path / "model.json"
    save_model(
        ForecastModel(
            ar=(0.3,), ma=(0.1,), exog=(0.05,), intercept=0.0, resid_std=0.5, one_step_std=0.8
        ),
        model_path,
    )
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "test_home_csv": str(home),
                "test_away_csv": str(away),
                "test_events_csv": str(events),
                "model_path": str(model_path),
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "events.csv row 2: team 'Visitors'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def _enrich_360_config(tmp_path, model_path, fp, ep):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "model_path": str(model_path),
                "output_dir": str(tmp_path / "out360"),
                "frames_360_json": str(fp),
                "events_360_json": str(ep),
            }
        )
    )
    return cfg


def test_enrich_360_with_orphan_frame(tmp_path, workspace, capsys):
    root, _ = workspace
    fp, ep = write_360_feed(tmp_path)
    cfg = _enrich_360_config(tmp_path, root / "model.json", fp, ep)
    assert main(["enrich", "--config", str(cfg)]) == 0
    errors = json.loads((tmp_path / "out360" / "axis_errors.json").read_text())
    assert len(errors) == 1
    assert errors[0]["reason"] == "orphan frame"
    enriched = read_enriched(tmp_path / "out360" / "enriched_half1.json")
    assert enriched and all(len(f.players) == 22 for f in enriched)


def test_enrich_360_millisecond_timestamps_rejected(tmp_path, capsys):
    fp, ep = write_360_feed(tmp_path)
    events = json.loads(ep.read_text())
    for ev in events:
        ev["timestamp"] = int(ev["timestamp"] * 1000)
    ep.write_text(json.dumps(events))
    with pytest.raises(MalformedInputError, match="span"):
        read_360_frames(fp, ep)

    model_path = tmp_path / "model.json"
    save_model(
        ForecastModel(
            ar=(0.3,), ma=(0.1,), exog=(0.05,), intercept=0.0, resid_std=0.5, one_step_std=0.8
        ),
        model_path,
    )
    cfg = _enrich_360_config(tmp_path, model_path, fp, ep)
    started = time.perf_counter()
    assert main(["enrich", "--config", str(cfg)]) != 0
    assert time.perf_counter() - started < 10.0
    assert "span" in capsys.readouterr().err
    assert not list((tmp_path / "out360").glob("enriched_half*.json"))


def test_enrich_360_event_with_a_fractional_period_exits_2(tmp_path, tiny_enrich, capsys):
    fp, ep = write_360_feed(tmp_path)
    events = json.loads(ep.read_text())
    events[3]["period"] = 1.5
    ep.write_text(json.dumps(events))
    cfg = _enrich_360_config(tmp_path, tiny_enrich / "model.json", fp, ep)
    assert main(["enrich", "--config", str(cfg)]) == 2
    assert f"{ep}: event 3: period 1.5 is not a whole number from 0 to 2**53" in capsys.readouterr().err
    assert not (tmp_path / "out360").exists()


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_scipy():
    code = "import sys, track_enrich.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_only_the_modules_every_command_needs():
    lazy = ["numpy", "track_enrich.broadcast", "track_enrich.evaluator", "track_enrich.pipeline"]
    code = f"import sys, track_enrich.cli; print(sorted(set(sys.modules) & set({lazy!r})))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("source", ["simulated", "360"])
def test_enrich_loads_no_numpy(tmp_path, tiny_enrich, source):
    if source == "360":
        cfg = _enrich_360_config(tmp_path, tiny_enrich / "model.json", *write_360_feed(tmp_path))
    else:
        shutil.copytree(tiny_enrich, tmp_path, dirs_exist_ok=True)
        cfg = tmp_path / "c.json"
        paths = {"model_path": str(tmp_path / "model.json"), "output_dir": str(tmp_path / "out")}
        cfg.write_text(json.dumps(paths))
    code = (
        "import sys; from track_enrich.cli import main; "
        "status = main(['enrich', '--config', sys.argv[1]]); print(status, 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(cfg)],
        env=_src_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split()[-2:] == ["0", "False"]


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300))
def test_sha256_hex_equals_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", ["enrich", "evaluate"])
def test_enrich_and_evaluate_load_no_openssl(tmp_path, tiny_enriched, tiny_truth, command):
    """The model's sha256 comes from CPython's built-in module: ``hashlib``
    would load OpenSSL (``_hashlib``), half a megabyte for each command."""
    shutil.copytree(tiny_enriched, tmp_path, dirs_exist_ok=True)
    cfg = {"model_path": str(tmp_path / "model.json"), "output_dir": str(tmp_path / "out")}
    for team, rows in tiny_truth.items():
        (tmp_path / f"{team}.csv").write_text("\n".join(rows) + "\n")
        cfg[f"test_{team}_csv"] = str(tmp_path / f"{team}.csv")
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    code = (
        "import sys; from track_enrich.cli import main; "
        "status = main([sys.argv[1], '--config', sys.argv[2]]); print(status, '_hashlib' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, command, str(tmp_path / "c.json")],
        env=_src_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split()[-2:] == ["0", "False"]


@pytest.fixture(scope="module")
def tiny_enrich(tmp_path_factory):
    """A model file and one discrete half, ready for enrich."""
    root = tmp_path_factory.mktemp("tiny")
    save_model(
        ForecastModel(ar=(0.3,), ma=(0.1,), exog=(0.05,), intercept=0.0, resid_std=0.5, one_step_std=0.8),
        root / "model.json",
    )
    half = synth_half(seconds=20.0, fps=5, seed=77, half_id=1)
    (root / "out").mkdir()
    write_discrete(degrade(truth_half(half), 1.0, 30.0, 0), root / "out" / "discrete_half1.json")
    return root


def _enrich_copy(tmp_path, tiny_enrich, edit_model=None, edit_discrete=None, config=None):
    """Run enrich on copies of the tiny inputs, each edited in place by its callback.

    The run is a separate process under a 10 s timeout, because some of these
    inputs would run without end were their checks missing.
    """
    shutil.copytree(tiny_enrich, tmp_path, dirs_exist_ok=True)
    for name, edit in (("model.json", edit_model), ("out/discrete_half1.json", edit_discrete)):
        if edit is not None:
            doc = json.loads((tmp_path / name).read_text())
            edit(doc)
            (tmp_path / name).write_text(json.dumps(doc))
    cfg = tmp_path / "c.json"
    paths = {"model_path": str(tmp_path / "model.json"), "output_dir": str(tmp_path / "out")}
    cfg.write_text(json.dumps({**paths, **(config or {})}))
    return subprocess.run(
        [sys.executable, "-m", "track_enrich.cli", "enrich", "--config", str(cfg)],
        env=_src_env(), capture_output=True, text=True, timeout=10,
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("team", ["home"], "team must be 'home' or 'away'"),
        ("keeper", "yes", "keeper must be true or false"),
        ("x", "12", "x must be a finite number"),
        ("x", 1e200, "x must lie in [-6, 126] m and y in [-4, 84] m, got (1e+200, "),
        ("x", 500, "x must lie in [-6, 126] m and y in [-4, 84] m, got (500, "),
    ],
)
def test_enrich_corrupt_discrete_player_exits_2(tmp_path, tiny_enrich, field, value, message):
    def corrupt(doc):
        doc["frames"][3]["players"][0][field] = value

    run = _enrich_copy(tmp_path, tiny_enrich, edit_discrete=corrupt)
    assert run.returncode == 2
    assert f"discrete_half1.json: frame 3: {message}" in run.stderr
    assert not (tmp_path / "out" / "enriched_half1.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("ar", "xy"),
        ("intercept", None),
        ("resid_std", float("nan")),
        ("resid_std", -1.0),
        ("grid_step", 0),
        ("grid_step", 1e-9),
        ("format_version", 2),
        ("kind", "arima"),
        ("kind", None),
        ("exog", [0.0] * 200_000),
        ("ma", [0.0] * 200_000),
    ],
    ids=lambda v: f"{len(v)}-zeros" if isinstance(v, list) else None,
)
def test_enrich_malformed_model_exits_2(tmp_path, tiny_enrich, key, value):
    run = _enrich_copy(tmp_path, tiny_enrich, edit_model=lambda doc: doc.update({key: value}))
    assert run.returncode == 2
    assert f"model.json: {key}: " in run.stderr


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("alpha", "0.5", "'alpha' (from "),
        ("trim_frames", 2.5, "'trim_frames' (from "),
        ("trim_frames", True, "'trim_frames' (from "),
        ("visibility_radius_m", False, "'visibility_radius_m' (from "),
        ("visibility_radius_m", float("nan"), "'visibility_radius_m' (from "),
        ("sample_period_s", float("inf"), "'sample_period_s' (from "),
        ("model_path", 3, "'model_path' (from "),
        ("enrich_period_s", 1e-9, "enrich_period_s 1e-09 would put more than"),
        ("sample_period_s", 1e-9, "sample_period_s 1e-09 would put more than"),
        ("grid_step_s", 1e-9, "grid_step_s 1e-09 would put more than"),
    ],
)
def test_enrich_bad_config_value_exits_2(tmp_path, tiny_enrich, key, value, message):
    run = _enrich_copy(tmp_path, tiny_enrich, config={key: value})
    assert run.returncode == 2
    assert message in run.stderr
    assert not (tmp_path / "out" / "enriched_half1.json").exists()


def test_config_accepts_int_for_float_key(tmp_path, tiny_enrich):
    assert _enrich_copy(tmp_path, tiny_enrich, config={"alpha": 1, "enrich_period_s": 2}).returncode == 0


def test_enrich_model_path_directory_exits_2(tmp_path, tiny_enrich):
    run = _enrich_copy(tmp_path, tiny_enrich, config={"model_path": str(tmp_path / "out")})
    assert run.returncode == 2
    assert f"model_path: no such file: {tmp_path / 'out'}" in run.stderr


@pytest.mark.parametrize(
    "command, name, fault, message",
    [
        ("enrich", "out/discrete_half1.json", "directory", "{} is a directory"),
        ("enrich", "out/discrete_half1.json", "nested", "{} nests JSON too deeply"),
        ("enrich", "model.json", "nested", "{} nests JSON too deeply"),
        ("enrich", "c.json", "nested", "config file {} nests JSON too deeply"),
        ("enrich", "frames.json", "nested", "{} nests JSON too deeply"),
        ("enrich", "events.json", "nested", "{} nests JSON too deeply"),
        ("evaluate", "out/trajectories_half1.json", "nested", "{} nests JSON too deeply"),
    ],
    ids=["discrete-directory", "discrete", "model", "config", "360-frames", "360-events", "trajectories"],
)
def test_json_input_that_is_a_directory_or_nested_too_deep_exits_2(
    tmp_path, tiny_enrich, tiny_enriched, tiny_truth, command, name, fault, message
):
    """A JSON input that is a directory, or nests arrays deeper than the parser
    recurses, exits 2 naming the file before the command writes anything."""
    path = tmp_path / name
    config = {}
    if name in ("frames.json", "events.json"):
        fp, ep = write_360_feed(tmp_path)
        config = {"frames_360_json": str(fp), "events_360_json": str(ep)}

    def spoil(root):
        path.unlink()
        if fault == "directory":
            path.mkdir()
        else:
            path.write_text("[" * 100_000 + "]" * 100_000)

    inputs = tiny_enriched if command == "evaluate" else tiny_enrich
    run = _run_on_truth(tmp_path, inputs, tiny_truth, command, config, edit=spoil)
    assert run.returncode == 2
    assert message.format(path) in run.stderr
    output = "report.json" if command == "evaluate" else "enriched_half1.json"
    assert not (tmp_path / "out" / output).exists()


def test_discrete_half_whose_half_id_is_not_its_name_exits_2(tmp_path, tiny_enrich):
    shutil.copytree(tiny_enrich, tmp_path, dirs_exist_ok=True)
    copy = tmp_path / "out" / "discrete_half3.json"
    shutil.copy(tmp_path / "out" / "discrete_half1.json", copy)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model_path": str(tmp_path / "model.json"), "output_dir": str(tmp_path / "out")}))
    run = _cli("enrich", "--config", cfg)
    assert run.returncode == 2
    assert f"{copy}: half_id 1, not 3 as in its name" in run.stderr
    assert not (tmp_path / "out" / "enriched_half1.json").exists()


@pytest.mark.parametrize(
    "times", [[0.5], [2.2, 2.5, 2.8]], ids=["one-frame-at-0.5", "frames-between-grid-times"]
)
def test_half_with_no_enrich_grid_time_exits_2_before_writing(tmp_path, tiny_enrich, times):
    """A half whose frames hold no multiple of enrich_period_s has no frame to
    enrich: enrich names the file and the half and writes nothing."""

    def edit(doc):
        doc["frames"] = doc["frames"][: len(times)]
        for frame, t in zip(doc["frames"], times):
            frame["time_s"] = t

    run = _enrich_copy(tmp_path, tiny_enrich, edit_discrete=edit)
    assert run.returncode == 2
    discrete = tmp_path / "out" / "discrete_half1.json"
    assert f"{discrete}: half 1: no multiple of enrich_period_s 1 s" in run.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["discrete_half1.json"]


def test_enrich_with_a_last_frame_just_below_a_node_of_a_2_s_grid_runs(tmp_path, tiny_enrich):
    """The last frame 1.5e-9 s before 20 s is within the grid tolerance of the
    node at 20 s, 0.75e-9 steps of 2 s, so the ball's resampling takes it there."""

    def edit_discrete(doc):
        assert doc["frames"][-1]["time_s"] == 20.0
        doc["frames"][-1]["time_s"] = 20 - 1.5e-9

    run = _enrich_copy(tmp_path, tiny_enrich, lambda doc: doc.update(grid_step=2.0), edit_discrete)
    assert run.returncode == 0, run.stderr


def test_every_period_is_enriched_and_evaluated(tmp_path, tiny_enrich, capsys):
    """Extra time: simulate-broadcast writes one discrete file per period, and
    enrich and evaluate read each of them, in period order."""
    halves = [synth_half(seconds=60.0, fps=5, seed=80 + n, half_id=n) for n in (1, 2, 3)]
    write_metrica_csvs(halves, tmp_path / "home.csv", tmp_path / "away.csv")
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "model_path": str(tiny_enrich / "model.json"),
                "output_dir": str(tmp_path / "out"),
                "test_home_csv": str(tmp_path / "home.csv"),
                "test_away_csv": str(tmp_path / "away.csv"),
                "trim_frames": 2,
            }
        )
    )
    assert main(["simulate-broadcast", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    # names that are no canonical period number are not inputs
    shutil.copy(out / "discrete_half1.json", out / "discrete_half01.json")
    shutil.copy(out / "discrete_half1.json", out / "discrete_half+1.json")
    capsys.readouterr()
    assert main(["enrich", "--config", str(cfg)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "half 1",
        "half 2",
        "half 3",
    ]
    for n in (1, 2, 3):
        assert (out / f"enriched_half{n}.json").is_file()
        assert (out / f"trajectories_half{n}.json").is_file()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["per_half"]) == ["1", "2", "3"]
    assert report["n_frames"] == 3 * 57


def test_non_utf8_config_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"alpha": 0.5}\xff')
    run = subprocess.run(
        [sys.executable, "-m", "track_enrich.cli", "enrich", "--config", str(cfg)],
        env=_src_env(), capture_output=True, text=True, timeout=10,
    )
    assert run.returncode == 2
    assert f"config file {cfg} is not UTF-8 text" in run.stderr


@pytest.fixture(scope="module")
def tiny_truth(tiny_enrich, tmp_path_factory):
    """The CSV lines of the match behind ``tiny_enrich``'s discrete half."""
    root = tmp_path_factory.mktemp("tiny_truth")
    half = synth_half(seconds=20.0, fps=5, seed=77, half_id=1)
    write_metrica_csvs([half], root / "home.csv", root / "away.csv")
    return {team: (root / f"{team}.csv").read_text().splitlines() for team in ("home", "away")}


def _run_on_truth(tmp_path, inputs, lines, command, config=None, edit=None, flags=()):
    """Run ``command`` with ``flags`` as its own process under a 10 s timeout,
    on a copy of ``inputs`` (the tiny model and discrete half, and enrich's
    output in ``tiny_enriched``), on tracking CSVs made of ``lines`` (the
    training CSVs for ``train``, the test CSVs otherwise) and on the config
    ``c.json``, all of them edited in place by ``edit(tmp_path)``."""
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    cfg = {"model_path": str(tmp_path / "model.json"), "output_dir": str(tmp_path / "out"), **(config or {})}
    role = "train" if command == "train" else "test"
    for team, rows in lines.items():
        (tmp_path / f"{team}.csv").write_text("\n".join(rows) + "\n")
        cfg[f"{role}_{team}_csv"] = str(tmp_path / f"{team}.csv")
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    if edit is not None:
        edit(tmp_path)
    return subprocess.run(
        [sys.executable, "-m", "track_enrich.cli", command, "--config", str(tmp_path / "c.json"), *flags],
        env=_src_env(), capture_output=True, text=True, timeout=10,
    )


@pytest.fixture(scope="module")
def tiny_enriched(tiny_enrich, tmp_path_factory):
    """``tiny_enrich`` with enrich's output: ready for evaluate."""
    root = tmp_path_factory.mktemp("tiny_enriched")
    shutil.copytree(tiny_enrich, root, dirs_exist_ok=True)
    cfg = root / "c.json"
    cfg.write_text(json.dumps({"model_path": str(root / "model.json"), "output_dir": str(root / "out")}))
    assert main(["enrich", "--config", str(cfg)]) == 0
    cfg.unlink()
    return root


def _blank_ball(row: str) -> str:
    return ",".join(row.split(",")[:-2] + ["", ""])


def _blank_time(row: str) -> str:
    cells = row.split(",")
    return ",".join(cells[:2] + [""] + cells[3:])


def _blank_first_player(row: str) -> str:
    cells = row.split(",")
    return ",".join(cells[:3] + ["NaN", "NaN"] + cells[5:])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:3] + [_blank_ball(r) for r in rows[3:]], "period 1 has no row with a ball"),
        (lambda rows: rows[:4], "half 1: half too short"),
        (lambda rows: rows[:40], "half 1: half too short"),
    ],
    ids=["balls-all-blank", "one-row", "37-rows"],
)
def test_simulate_broadcast_on_too_little_truth_exits_2(tmp_path, tiny_enrich, tiny_truth, edit, message):
    lines = {team: edit(rows) for team, rows in tiny_truth.items()}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "simulate-broadcast", {"trim_frames": 5})
    assert run.returncode == 2
    assert message in run.stderr


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda team, rows: rows[:53], "half 1: time 10.5 outside half span [0, 10.0]"),
        (
            lambda team, rows: rows[:3] + [_blank_first_player(r) for r in rows[3:]] if team == "home" else rows,
            "query times lacked a full set of true outfielders",
        ),
    ],
    ids=["truth-shorter-than-discrete", "truth-lacks-an-outfielder"],
)
def test_evaluate_against_mismatched_truth_exits_2(tmp_path, tiny_enriched, tiny_truth, edit, message):
    lines = {team: edit(team, rows) for team, rows in tiny_truth.items()}
    run = _run_on_truth(tmp_path, tiny_enriched, lines, "evaluate")
    assert run.returncode == 2
    assert message in run.stderr


def test_evaluate_with_1_of_99_query_times_skipped_exits_2(tmp_path, tiny_enrich, capsys):
    """50 frames give 99 query times, so one skipped is more than 1 % of them."""
    half = synth_half(seconds=50.0, fps=5, seed=78, half_id=1)
    home, away, out = tmp_path / "home.csv", tmp_path / "away.csv", tmp_path / "out"
    write_metrica_csvs([half], home, away)
    out.mkdir()
    write_discrete(degrade(truth_half(half), 1.0, 30.0, 0), out / "discrete_half1.json")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model_path": str(tiny_enrich / "model.json"), "output_dir": str(out),
        "test_home_csv": str(home), "test_away_csv": str(away),
    }))
    assert main(["enrich", "--config", str(cfg)]) == 0
    lines = home.read_text().splitlines()
    cells = lines[3 + 49].split(",")  # the row at 10 s, which only the query at 10 s reads
    assert cells[2] == "10.00" and cells[5:7] != ["NaN", "NaN"]
    lines[3 + 49] = ",".join(cells[:5] + ["NaN", "NaN"] + cells[7:])  # an outfielder leaves
    home.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "half 1: 1 query times lacked a full set of true outfielders" in capsys.readouterr().err


def test_simulate_broadcast_on_a_half_with_no_sampled_time_exits_2(tmp_path, tiny_enrich, tiny_truth):
    """Two rows at 0.2 and 0.4 s hold no whole second, the sample period."""
    lines = {team: rows[:5] for team, rows in tiny_truth.items()}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "simulate-broadcast", {"trim_frames": 0})
    assert run.returncode == 2
    assert "half 1: no frame to keep" in run.stderr


def test_simulate_broadcast_exit_2_on_half_2_writes_no_file(tmp_path, tiny_enrich, tiny_truth):
    """Half 1 degrades, half 2 (two rows) does not: neither half's file is written."""
    lines = {team: rows + ["2" + r[r.index(","):] for r in rows[3:5]] for team, rows in tiny_truth.items()}
    config = {"trim_frames": 5, "output_dir": str(tmp_path / "fresh")}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "simulate-broadcast", config)
    assert run.returncode == 2
    assert "half 2: half too short" in run.stderr
    assert not (tmp_path / "fresh").exists()


def test_simulate_broadcast_on_csvs_with_no_timed_row_exits_2_before_writing(tmp_path, tiny_enrich, tiny_truth):
    """Three header rows and one data row whose time cell is blank."""
    lines = {team: rows[:3] + [_blank_time(rows[3])] for team, rows in tiny_truth.items()}
    config = {"output_dir": str(tmp_path / "fresh")}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "simulate-broadcast", config)
    assert run.returncode == 2
    assert f"{tmp_path / 'home.csv'}: no data row has both a period and a time" in run.stderr
    assert not (tmp_path / "fresh").exists()


def test_simulate_broadcast_flags_reach_degrade(tmp_path, tiny_enrich, tiny_truth):
    """--period, --radius and --trim are the settings degrade samples with."""
    flags = ["--period", "2", "--radius", "15", "--trim", "3"]
    run = _run_on_truth(tmp_path, tiny_enrich, tiny_truth, "simulate-broadcast", flags=flags)
    assert run.returncode == 0, run.stderr
    want = tmp_path / "want.json"
    (half,) = read_tracking_csv(tmp_path / "home.csv", tmp_path / "away.csv")
    write_discrete(degrade(half, 2.0, 15.0, 3), want)
    assert (tmp_path / "out" / "discrete_half1.json").read_bytes() == want.read_bytes()


def test_simulate_broadcast_with_a_fractional_trim_exits_2(tmp_path, tiny_enrich, tiny_truth):
    run = _run_on_truth(tmp_path, tiny_enrich, tiny_truth, "simulate-broadcast", flags=["--trim", "1.5"])
    assert run.returncode == 2
    assert "--trim: invalid int value: '1.5'" in run.stderr


def test_simulate_broadcast_on_a_negative_period_exits_2(tmp_path, tiny_enrich, tiny_truth):
    """A period read as a half id: ``discrete_half-3.json`` would be written
    and then never read."""
    lines = {team: rows[:10] + ["-3" + r[r.index(","):] for r in rows[10:]] for team, rows in tiny_truth.items()}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "simulate-broadcast")
    assert run.returncode == 2
    assert "home.csv row 11: period -3.0 is not a whole number from 0 to 2**53" in run.stderr


@pytest.mark.parametrize(
    "rows, config, message",
    [
        (30, {}, "training data too short: 200 grid steps, need 500"),
        (None, {"grid_step_s": 100.0}, "training data too short: 0 grid steps, need 500"),
        (None, {"ar_order": 20}, "no trajectory spans more than 20 grid steps"),
        (None, {"ar_order": 1000}, "ar_order must lie in [0, 20], got 1000"),
        (None, {"ma_order": 500}, "ma_order must lie in [0, 20], got 500"),
        (None, {"ball_lags": 5000}, "ball_lags must lie in [0, 20], got 5000"),
    ],
    ids=["30-rows", "grid-step-100", "ar-order-20", "ar-order-1000", "ma-order-500", "ball-lags-5000"],
)
def test_train_on_too_little_data_or_too_many_lags_exits_2(tmp_path, tiny_enrich, tiny_truth, rows, config, message):
    lines = {team: text[: None if rows is None else 3 + rows] for team, text in tiny_truth.items()}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "train", config)
    assert run.returncode == 2
    assert message in run.stderr


def test_train_on_a_period_without_a_ball_exits_2(tmp_path, tiny_enrich, tiny_truth):
    """A second period whose rows all lack the ball, in both files."""
    lines = {
        team: rows + [_blank_ball("2" + r[r.index(","):]) for r in rows[3:]]
        for team, rows in tiny_truth.items()
    }
    n = len(tiny_truth["home"])
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "train")
    assert run.returncode == 2
    assert f"home.csv rows {n + 1}-{2 * n - 3}: period 2 has no row with a ball" in run.stderr


def test_train_on_a_last_time_a_hair_below_a_node_runs(tmp_path, tiny_enrich, tiny_truth):
    """The last row at 19.999999999 s: the 1 s grid's node 20 is within
    GRID_TOL of it, though their difference rounds a hair past GRID_TOL."""

    def hair_below(rows):
        cells = rows[-1].split(",")
        assert cells[2] == "20.00"
        return rows[:-1] + [",".join(cells[:2] + ["19.999999999"] + cells[3:])]

    lines = {team: hair_below(rows) for team, rows in tiny_truth.items()}
    run = _run_on_truth(tmp_path, tiny_enrich, lines, "train")
    assert run.returncode == 0, run.stderr


def test_train_frees_the_truth_before_the_first_solve(tmp_path, workspace, monkeypatch):
    """``cmd_train`` hands the fit the only reference to the truth tables'
    columns, and the fit drops it once it has resampled them."""
    import numpy as np

    from track_enrich import ingest

    tables, alive = [], []
    read, lstsq = ingest.read_tracking_csv, np.linalg.lstsq

    def reading(*args):
        halves = read(*args)
        tables.extend(weakref.ref(half.frames) for half in halves)
        return halves

    def solving(*args, **kwargs):
        if not alive:
            gc.collect()
            alive.append(sum(table() is not None for table in tables))
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(ingest, "read_tracking_csv", reading)
    monkeypatch.setattr(np.linalg, "lstsq", solving)
    _, cfg = workspace
    assert main(["train", "--config", str(cfg), "--model-path", str(tmp_path / "model.json")]) == 0
    assert len(tables) == 2 and alive == [0]


@pytest.mark.parametrize("command", ["enrich", "evaluate"])
def test_360_feed_without_a_usable_frame_exits_2_before_writing(tmp_path, tiny_enrich, tiny_truth, command):
    """Both frames name an event id the event file lacks."""
    fp, ep = tmp_path / "frames.json", tmp_path / "events.json"
    entry = {"location": [60.0, 40.0], "teammate": True, "actor": True, "keeper": False}
    fp.write_text(json.dumps([{"event_uuid": f"missing-{i}", "freeze_frame": [entry]} for i in (1, 2)]))
    ep.write_text(json.dumps([{"id": "e0", "timestamp": 1.0, "team": "home", "location": [60.0, 40.0]}]))
    config = {"frames_360_json": str(fp), "events_360_json": str(ep)}
    run = _run_on_truth(tmp_path, tiny_enrich, tiny_truth, command, config)
    assert run.returncode == 2
    assert f"{fp}: no usable frame: 2 frames excluded (orphan frame: 2)" in run.stderr
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["discrete_half1.json"]


def test_evaluate_on_enrich_output_runs(tmp_path, tiny_enriched, tiny_truth):
    run = _run_on_truth(tmp_path, tiny_enriched, tiny_truth, "evaluate", {"alpha": 0.2})
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "report.json").is_file()


def _other_model(root):
    save_model(
        ForecastModel(ar=(0.4,), ma=(0.1,), exog=(0.05,), intercept=0.0, resid_std=0.5, one_step_std=0.8),
        root / "model.json",
    )


def _record_from_another_radius(root):
    half = synth_half(seconds=20.0, fps=5, seed=77, half_id=1)
    write_discrete(degrade(truth_half(half), 1.0, 15.0, 0), root / "out" / "discrete_half1.json")


def _edit_trajectories(edit, seeded=False):
    def apply(root):
        path = root / "out" / "trajectories_half1.json"
        doc = json.loads(path.read_text())
        edit(next(t for t in doc["trajectories"] if t["seeded"] == seeded and len(t["times"]) >= 2))
        path.write_text(json.dumps(doc))

    return apply


def _move_a_point(traj):
    traj["x"][1] += 1e-9


def _point_between_frames(traj):
    traj["times"][-1] += 0.5


def _drop_the_seed(traj):
    # the held points are unchanged, so only the start at the first frame can tell
    for key in ("times", "x", "y"):
        del traj[key][0]
    traj["seeded"] = False


@pytest.mark.parametrize(
    "edit, message",
    [
        (_other_model, "trajectories_half1.json was assigned with another model than"),
        (_record_from_another_radius, "the trajectories do not hold the frame's visible positions"),
        (_edit_trajectories(_move_a_point), "the trajectories do not hold the frame's visible positions"),
        (_edit_trajectories(_point_between_frames), ", which is no frame time"),
        (_edit_trajectories(_drop_the_seed, seeded=True), ", not at the first frame"),
        (lambda root: (root / "out" / "trajectories_half1.json").unlink(), "(run enrich first)"),
    ],
    ids=[
        "model-from-another-fit",
        "record-from-another-radius",
        "point-moved-1e-9",
        "point-between-frames",
        "seed-dropped",
        "no-file",
    ],
)
def test_evaluate_on_stale_or_missing_trajectories_exits_2(tmp_path, tiny_enriched, tiny_truth, edit, message):
    run = _run_on_truth(tmp_path, tiny_enriched, tiny_truth, "evaluate", edit=edit)
    assert run.returncode == 2
    assert message in run.stderr
    assert "trajectories_half1.json" in run.stderr
    assert not (tmp_path / "out" / "report.json").exists()


def _seed_far_off_the_pitch(traj):
    traj["x"][0] = -1e308  # a seed point is not compared with the record


def test_evaluate_on_a_trajectory_point_off_the_pitch_exits_2(tmp_path, tiny_enriched, tiny_truth):
    edit = _edit_trajectories(_seed_far_off_the_pitch, seeded=True)
    run = _run_on_truth(tmp_path, tiny_enriched, tiny_truth, "evaluate", edit=edit)
    assert run.returncode == 2, run.stderr
    assert re.search(r"trajectories_half1\.json: trajectory \d+: x must lie in \[-6, 126\] m", run.stderr)
    assert not (tmp_path / "out" / "report.json").exists()


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "track_enrich.cli", *map(str, argv)],
        env=_src_env(), capture_output=True, text=True, timeout=10,
    )


def test_config_that_is_a_directory_exits_2(tmp_path):
    run = _cli("enrich", "--config", tmp_path)
    assert run.returncode == 2
    assert f"config file {tmp_path} is a directory" in run.stderr


def test_train_to_a_model_path_that_is_a_directory_exits_2_before_the_fit(tmp_path, tiny_enrich, tiny_truth):
    # the tiny match is too short to fit, so only a check made before the fit names model_path
    run = _run_on_truth(tmp_path, tiny_enrich, tiny_truth, "train", {"model_path": str(tmp_path / "out")})
    assert run.returncode == 2
    assert f"model_path: is a directory: {tmp_path / 'out'}" in run.stderr


@pytest.mark.parametrize("below", ["", "out"], ids=["the-file", "below-it"])
@pytest.mark.parametrize("command", ["simulate-broadcast", "enrich", "evaluate"])
def test_output_dir_that_is_or_is_below_a_file_exits_2(tmp_path, tiny_enriched, tiny_truth, command, below):
    not_a_dir = tmp_path / "out" / "discrete_half1.json"
    config = {"output_dir": str(not_a_dir / below)}
    run = _run_on_truth(tmp_path, tiny_enriched, tiny_truth, command, config)
    assert run.returncode == 2
    assert f"output_dir: not a directory: {not_a_dir}" in run.stderr


def test_train_to_a_model_path_below_a_file_exits_2_before_the_fit(tmp_path, tiny_enrich, tiny_truth):
    not_a_dir = tmp_path / "out" / "discrete_half1.json"
    config = {"model_path": str(not_a_dir / "model.json")}
    run = _run_on_truth(tmp_path, tiny_enrich, tiny_truth, "train", config)
    assert run.returncode == 2
    assert f"model_path: not a directory: {not_a_dir}" in run.stderr
