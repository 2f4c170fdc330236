"""Tests of the benchmark itself: tiny runs of every workload through the
same code path as a full run, and each correctness check rejecting a
deliberately damaged output."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    """The workload at a size whose run takes a few seconds."""
    return replace(workloads.WORKLOADS[name], train_s=40.0, test_s=40.0, trim_frames=3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path):
    w = tiny(name)
    result = run.run(w, seed=5, seconds=0, trace=False, cache=tmp_path)
    assert result["correct"] and result["failed"] == 0
    # one round: every command, every content check and the determinism check
    assert result["attempted"] == len(w.commands) + 4 + 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    w = tiny("feed_360")
    result = run.run(w, seed=5, seconds=0, trace=True, cache=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["metrics"]["ingest.frames_360_excluded"]["value"] == 4
    assert result["metrics"]["broadcast.degrade_ms_per_frame"]["value"] > 0  # from the probe


def test_changed_output_fails_the_determinism_check(tmp_path, monkeypatch):
    rounds = []

    def fake_round(self, traced=False):
        rounds.append(traced)
        commands = self.w.commands
        return {
            "times": dict.fromkeys(commands, 1.0),
            "rss": dict.fromkeys(commands, 50.0),
            "ok": dict.fromkeys(commands, True),
            # the reference round, then a round whose model differs
            "digests": {"model.json": "a" if len(rounds) == 1 else "b"},
            "traced": traced,
        }

    monkeypatch.setattr(run.Bench, "run_round", fake_round)
    monkeypatch.setattr(run.Bench, "verdicts", lambda self, digests: {n: [] for n in self.check_names()})
    w = tiny("narrow_view")
    result = run.run(w, seed=5, seconds=0, trace=False, cache=tmp_path)
    assert len(rounds) == 2
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (len(w.commands) + 4 + 1, 1)


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "feed_360", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# --- each check rejects a damaged output ------------------------------------------


def _bench(tmp_path_factory, name: str) -> run.Bench:
    cache = tmp_path_factory.mktemp(name)
    w = tiny(name)
    work = cache / "work"
    work.mkdir()
    bench = run.Bench(w, run.prepare_inputs(w, 7, cache), work)
    rnd = bench.run_round()
    assert all(rnd["ok"].values())
    assert not any(bench.verdicts(rnd["digests"]).values())
    return bench


@pytest.fixture(scope="module")
def broadcast(tmp_path_factory):
    return _bench(tmp_path_factory, "broadcast_25fps")


@pytest.fixture(scope="module")
def feed(tmp_path_factory):
    return _bench(tmp_path_factory, "feed_360")


def _damaged(bench: run.Bench, tmp_path: Path, name: str, damage) -> dict[str, list[str]]:
    """Check a copy of the outputs in which ``damage`` edited one file."""
    copied = copy.copy(bench)
    copied.out = tmp_path / "out"
    shutil.copytree(bench.out, copied.out)
    path = copied.out / name
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    return copied._run_checks()


def _failing(verdicts: dict[str, list[str]]) -> set[str]:
    return {name for name, problems in verdicts.items() if problems}


def _observed(doc: list[dict]) -> dict:
    """A visible player at a whole-second time of the first half."""
    return next(p for fr in doc for p in fr["players"] if p["visible"] and not p["keeper"])


def test_moved_observed_position_is_rejected(broadcast, tmp_path):
    def damage(doc):
        _observed(doc)["x"] += 0.001

    assert "observed_positions" in _failing(_damaged(broadcast, tmp_path, "enriched_half1.json", damage))


def test_hidden_observed_player_is_rejected(feed, tmp_path):
    def damage(doc):
        _observed(doc)["visible"] = False

    assert _failing(_damaged(feed, tmp_path, "enriched_half1.json", damage)) == {"observed_positions"}


def test_missing_player_is_rejected(broadcast, tmp_path):
    def damage(doc):
        doc[len(doc) // 2]["players"].pop(0)

    assert "frame_grid" in _failing(_damaged(broadcast, tmp_path, "enriched_half2.json", damage))


def test_player_off_the_pitch_is_rejected(feed, tmp_path):
    def damage(doc):
        doc[0]["players"][3]["y"] = 80.5

    assert "frame_grid" in _failing(_damaged(feed, tmp_path, "enriched_half2.json", damage))


def test_missing_frame_is_rejected(feed, tmp_path):
    def damage(doc):
        doc.pop(len(doc) // 2)

    assert _failing(_damaged(feed, tmp_path, "enriched_half1.json", damage)) == {"frame_grid"}


def test_moved_estimate_disagrees_with_the_report(broadcast, tmp_path):
    def damage(doc):
        for fr in doc:
            for p in fr["players"]:
                if not p["visible"] and not p["keeper"]:
                    p["x"] = 60.0 + (0.5 if p["x"] < 60.0 else -0.5) * 100.0

    assert _failing(_damaged(broadcast, tmp_path, "enriched_half1.json", damage)) == {"offcam_error"}


def test_report_without_headline_error_is_rejected(broadcast, tmp_path):
    def damage(doc):
        doc["mean_all_out_of_phase_m"] = None

    assert _failing(_damaged(broadcast, tmp_path, "report.json", damage)) == {"report_headline"}


def test_extra_excluded_frame_is_rejected(feed, tmp_path):
    def damage(doc):
        doc.append(dict(doc[0], frame_index=0))

    assert _failing(_damaged(feed, tmp_path, "axis_errors.json", damage)) == {"axis_errors"}


def test_wrong_exclusion_reason_is_rejected(feed, tmp_path):
    def damage(doc):
        doc[-1]["reason"] = "duplicate timestamp"

    assert _failing(_damaged(feed, tmp_path, "axis_errors.json", damage)) == {"axis_errors"}
