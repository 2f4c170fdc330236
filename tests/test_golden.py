"""Golden outputs: a small synthetic match through all four commands, pinned by sha256.

The pipeline is deterministic, so every output file must reproduce byte for
byte.  A change that alters any of these hashes changes what the program
computes; it must say why and re-pin them in a commit of its own.
"""

import hashlib
import json

import pytest

from synth import synth_half, write_metrica_csvs

from track_enrich.cli import main

GOLDEN_SHA256 = {
    "model.json": "ee32e5e368f167286df8e9e87a553c1282f4eb6cab46103804d8782b46117915",
    "discrete_half1.json": "2ac0cb956051f5dd23f7fddb576a27c4e4bbf10cfaec3598d78a910e0d2794f3",
    "discrete_half2.json": "2d7d588788a408cec904dda34cc6d1f377551638bf9d22e2a86fff58b88f89dc",
    "enriched_half1.json": "956a6458967a42d00ef6b5f3410022669588abf3946d0ac157f334ea1bfa58b9",
    "enriched_half2.json": "73fafd10763370c2b20be6527fb2516505aa0e5df9c730130579f302743336f7",
    "report.json": "18f22cd970ece333281b116288c0b19d7a4fcb3a664bf95510750dc1eaa5e638",
    "curve.csv": "e6910a099f1543f0f00496abc1049cd4dc43ca299a2bbb0550d0523d9010e94c",
    "percentile_25.svg": "b6f9b72189e7a4877cbe776a62a305d2aaf69e39b59525216bd895211d434716",
    "percentile_50.svg": "a9de5b18be5eed93ba5e0748f5c367db85b1169da59961411e0a9172baf65fc7",
    "percentile_75.svg": "20f1cbcd4f69980bfaaeb777e5f5ba96753d00b159add29d8aee5e9915464f6f",
    "percentile_95.svg": "b0b55c7fa7afa6bacf10f239bfdf923d29d4aa63b1556aa952fe0c2c6585e0dd",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    train = [synth_half(seconds=150.0, fps=5, seed=s, half_id=h) for h, s in ((1, 91), (2, 92))]
    test = [synth_half(seconds=150.0, fps=5, seed=s, half_id=h) for h, s in ((1, 93), (2, 94))]
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
        "model_path": str(root / "out" / "model.json"),
        "output_dir": str(root / "out"),
        "trim_frames": 3,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("train", "simulate-broadcast", "enrich", "evaluate"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    return root / "out"


def test_outputs_match_golden_hashes(outputs):
    got = {
        name: hashlib.sha256((outputs / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256
