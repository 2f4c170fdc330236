#!/usr/bin/env python3
"""Metrica-scale probe: the four commands on one 2 x 45 min, 25 fps match.

Usage, from the root of a checkout:

    python3 bench/scale.py [--out PATH]

The first run writes one synthetic match (two 45-minute halves at 25 fps,
``tests/synth.py``'s ``synth_half`` with seeds 21 and 22, written with
``write_metrica_csvs``) under ``bench/.cache``; later runs reuse it.  The
match is both the training and the test match.  ``train``,
``simulate-broadcast``, ``enrich`` and ``evaluate`` then run in turn, each
as its own process on this checkout's ``src``, with each command's wall time
and peak anonymous resident set (``RssAnon``, polled) recorded.  One more
process times ``read_tracking_csv`` on the match and, under tracemalloc,
measures the bytes a read allocates at its peak and the bytes a read match
keeps.  The results, the report's two error figures, the sha256 of
``model.json`` and of every file the commands write to the output directory,
and the machine's description go to the output JSON: ``--out``, or else the
first ``BENCH_<n>.json`` at the root of the checkout that does not exist yet.
Diffing the hashes of two result files shows whether two checkouts write the
same bytes at this size.

The real Metrica match is 2 x 45 min at 25 fps too, so the probe shows what
a command costs at the size the paper works with, which the benchmark's
75-160 s halves do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "bench" / ".cache"
HALF_S, FPS, SEEDS = 45 * 60.0, 25, (21, 22)
COMMANDS = ("train", "simulate-broadcast", "enrich", "evaluate")
POLL_S = 0.01

# Run in a fresh process: time one read, then measure what a second read
# allocates at its peak and keeps (tracemalloc slows the read it traces, so it
# is not the timed one).
_READ_PROBE = """
import gc, json, sys, time, tracemalloc
from track_enrich.ingest import read_tracking_csv
home, away = sys.argv[1:3]
started = time.perf_counter()
halves = read_tracking_csv(home, away)
seconds = time.perf_counter() - started
rows = sum(len(h.frames) + h.dropped_rows for h in halves)
del halves
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
halves = read_tracking_csv(home, away)
gc.collect()
kept, peak = (m - before for m in tracemalloc.get_traced_memory())
print(json.dumps({"rows": rows, "seconds": seconds, "kept_bytes": kept, "peak_bytes": peak}))
"""


def _env() -> dict:
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _anon_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def make_match() -> dict:
    """Write the match once and return the CLI config that reads it."""
    inputs = CACHE / f"match-{HALF_S:g}s-{FPS}fps-seeds{SEEDS[0]}-{SEEDS[1]}"
    files = {name: inputs / f"{name}.csv" for name in ("home", "away", "events")}
    if not all(f.is_file() for f in files.values()):
        sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
        from synth import synth_half, write_metrica_csvs

        inputs.mkdir(parents=True, exist_ok=True)
        halves = [synth_half(seconds=HALF_S, fps=FPS, seed=s, half_id=i + 1) for i, s in enumerate(SEEDS)]
        write_metrica_csvs(halves, files["home"], files["away"], events_path=files["events"])
    return {
        "train_home_csv": str(files["home"]),
        "train_away_csv": str(files["away"]),
        "test_home_csv": str(files["home"]),
        "test_away_csv": str(files["away"]),
        "test_events_csv": str(files["events"]),
    }


def next_free_bench(root: Path) -> Path:
    """The first ``BENCH_<n>.json`` in ``root`` that does not exist, so a run
    never overwrites a recorded one."""
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def output_hashes(work: Path) -> dict:
    """The sha256 of ``work/model.json`` and of each file in ``work/out``, by
    their paths under ``work``."""
    paths = [work / "model.json", *sorted((work / "out").iterdir())]
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_command(argv: list[str], log: Path) -> dict:
    """Run one process to its end: wall seconds and peak anonymous RSS in MB."""
    peak_kb = 0
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh, stderr=subprocess.STDOUT)
        while proc.poll() is None:
            peak_kb = max(peak_kb, _anon_rss_kb(proc.pid))
            time.sleep(POLL_S)
        seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{argv[3:]} exited {proc.returncode}; see {log}")
    return {"wall_s": round(seconds, 3), "peak_rss_mb": round(peak_kb / 1024.0, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="result file (default: the first free BENCH_<n>.json)")
    args = parser.parse_args(argv)
    out = args.out or next_free_bench(ROOT)

    cfg = make_match()
    work = CACHE / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    cfg.update(model_path=str(work / "model.json"), output_dir=str(work / "out"))
    (work / "config.json").write_text(json.dumps(cfg, indent=2))

    commands = {}
    for command in COMMANDS:
        argv = [sys.executable, "-m", "track_enrich.cli", command, "--config", str(work / "config.json")]
        commands[command] = run_command(argv, work / f"{command}.log")
        print(command, commands[command], flush=True)
    read = subprocess.run(
        [sys.executable, "-c", _READ_PROBE, cfg["test_home_csv"], cfg["test_away_csv"]],
        env=_env(), capture_output=True, text=True, check=True,
    )
    read = json.loads(read.stdout)
    report = json.loads((work / "out" / "report.json").read_text())
    result = {
        "match": {"halves": len(SEEDS), "half_s": HALF_S, "fps": FPS, "seeds": list(SEEDS), "rows": read["rows"]},
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "commands": commands,
        "read_tracking_csv": {
            "us_per_row": round(1e6 * read["seconds"] / read["rows"], 2),
            "kept_bytes_per_row": round(read["kept_bytes"] / read["rows"], 1),
            "peak_bytes_per_row": round(read["peak_bytes"] / read["rows"], 1),
        },
        "err_in_phase_offcam_m": report["mean_offcam_in_phase_m"],
        "err_out_of_phase_m": report["mean_all_out_of_phase_m"],
        "sha256": output_hashes(work),
    }
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result["read_tracking_csv"]))
    shutil.rmtree(work)  # a failed run keeps its logs there
    return 0


if __name__ == "__main__":
    sys.exit(main())
