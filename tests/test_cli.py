import json
import time

import pytest

from synth import synth_half, write_metrica_csvs

from track_enrich.cli import main
from track_enrich.forecaster import ForecastModel, save_model
from track_enrich.geometry import MalformedInputError
from track_enrich.ingest import read_360_frames, read_enriched


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


def test_missing_input_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"train_home_csv": str(tmp_path / "nope.csv")}))
    code = main(["train", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err


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


def _write_360_feed(tmp_path, n=40):
    """A small 360 feed: n linked frames one second apart plus one orphan."""
    events = [
        {"id": f"e{i}", "timestamp": float(i + 1), "team": "home" if i % 2 == 0 else "away",
         "location": [55.0 + i, 40.0], "period": 1}
        for i in range(n)
    ]
    frames = []
    for i in range(n):
        loc = [55.0 + i, 40.0]
        if events[i]["team"] == "away":
            loc = [120.0 - loc[0], 80.0 - loc[1]]
        entries = [{"location": loc, "teammate": True, "actor": True, "keeper": False}]
        for j in range(3):
            entries.append(
                {"location": [30.0 + 7 * j, 20.0 + 9 * j], "teammate": j % 2 == 0,
                 "actor": False, "keeper": False}
            )
        frames.append({"event_uuid": f"e{i}", "freeze_frame": entries})
    frames.append({"event_uuid": "orphan-id", "freeze_frame": frames[0]["freeze_frame"]})
    fp = tmp_path / "frames.json"
    ep = tmp_path / "events.json"
    fp.write_text(json.dumps(frames))
    ep.write_text(json.dumps(events))
    return fp, ep


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
    fp, ep = _write_360_feed(tmp_path)
    cfg = _enrich_360_config(tmp_path, root / "model.json", fp, ep)
    assert main(["enrich", "--config", str(cfg)]) == 0
    errors = json.loads((tmp_path / "out360" / "axis_errors.json").read_text())
    assert len(errors) == 1
    assert errors[0]["reason"] == "orphan frame"
    enriched = read_enriched(tmp_path / "out360" / "enriched_half1.json")
    assert enriched and all(len(f.players) == 22 for f in enriched)


def test_enrich_360_millisecond_timestamps_rejected(tmp_path, capsys):
    fp, ep = _write_360_feed(tmp_path)
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
