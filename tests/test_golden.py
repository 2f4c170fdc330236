"""Golden outputs: a small synthetic match through all four commands, and a
small 360 feed through ``enrich``, pinned by sha256, with the CSVs the match
is written to.

The pipeline is deterministic, so every output file must reproduce byte for
byte.  A change that alters any of these hashes changes what the program
computes; it must say why and re-pin them in a commit of its own.
"""

import hashlib
import json

import pytest

from synth import synth_half, write_360_feed, write_metrica_csvs

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
    "trajectories_half1.json": "dd7c6fd6a31cf3486ec2a2f668b648417a61e147fba8c3bcdf8244f3e8c88a7b",
    "trajectories_half2.json": "2b4b084b14cf45fc8215a3c84f6217ba137258dc36b8db97d2ca0c68b44bfda0",
}

# tests/synth.py's write_metrica_csvs for the match above; the benchmark caches
# its inputs by name, and no output above reads the events' Start X/Start Y
GOLDEN_CSV_SHA256 = {
    "train_home.csv": "1728bc80fe4bf61cb8d864637cce034b0c5de9f514de3f761b649cca256c9722",
    "train_away.csv": "a40c18b4e1b0133870a56bf3004898fd7bfd30507af3912c75f02e373b126726",
    "test_home.csv": "cc21acae6efa73779597e2a388aebca70ba7b57db08d67d434d84de66fb0e603",
    "test_away.csv": "ca8b0e13a3135bbcb89aeb3c4f46625038e03d34758b0128a63d9deff9e047a4",
    "events.csv": "c2318414ea2592c53acf35a4a60995a5fc90118a2452c5dc308567aa9be60065",
}

# enrich on tests/synth.py's 360 feed, with the model above
GOLDEN_360_SHA256 = {
    "axis_errors.json": "ebd455778cdddb939cc56b8d7182383833824e3709d7639a99e8c816c63e20b9",
    "enriched_half1.json": "d375a33df53d1d1d03a1d075e05f66f905cee57362b91f8d9779123789c526da",
    "trajectories_half1.json": "c8d46814f3c240c9ec53854f24b0b1e9adbcc515c4d8f4a9c1248dee1d6be98e",
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


def test_input_csvs_match_golden_hashes(outputs):
    got = {
        name: hashlib.sha256((outputs.parent / name).read_bytes()).hexdigest()
        for name in GOLDEN_CSV_SHA256
    }
    assert got == GOLDEN_CSV_SHA256


@pytest.fixture(scope="module")
def outputs_360(outputs, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden360")
    frames, events = write_360_feed(root)
    cfg = {
        "model_path": str(outputs / "model.json"),
        "output_dir": str(root / "out"),
        "frames_360_json": str(frames),
        "events_360_json": str(events),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["enrich", "--config", str(cfg_path)]) == 0
    return root / "out"


def test_360_outputs_match_golden_hashes(outputs_360):
    assert sorted(p.name for p in outputs_360.iterdir()) == sorted(GOLDEN_360_SHA256)
    got = {
        name: hashlib.sha256((outputs_360 / name).read_bytes()).hexdigest()
        for name in GOLDEN_360_SHA256
    }
    assert got == GOLDEN_360_SHA256
