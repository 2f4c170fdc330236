#!/usr/bin/env python3
"""Benchmark of the track-enrich command line on three synthetic workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload broadcast_25fps --seed 1 --seconds 25 --trace 0

A run makes the workload's inputs from the seed (cached under
``perfbench/.cache``), runs the workload's CLI commands once as a warm-up
whose outputs are the reference, then repeats whole rounds of the same
commands, each command in its own process, until ``--seconds`` have passed.
Every round's outputs are checked (see ``checks.py``) and compared byte for
byte with the reference.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import truth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Peak memory is the largest anonymous resident set seen while polling a
# command every RSS_POLL_S: the memory the program itself allocates.  The
# kernel's peak RSS (ru_maxrss) also counts file-backed pages such as numpy's
# and scipy's shared libraries, and for unchanged code it read 114 MB in some
# runs and 125 MB in others.
RSS_POLL_S = 0.005


def _anon_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Bench:
    """One workload at one seed: inputs, a work directory and the rounds run."""

    def __init__(self, workload, inputs: Path, work: Path):
        self.w = workload
        self.inputs = inputs
        self.work = work
        self.out = work / "out"
        self.cfg_path = work / "config.json"
        cfg = json.loads((inputs / "config.json").read_text())
        for key, value in list(cfg.items()):
            if key.endswith(("_csv", "_json")):
                cfg[key] = str(inputs / value)
        cfg["model_path"] = str(work / "model.json")
        cfg["output_dir"] = str(self.out)
        self.cfg = cfg
        self.cfg_path.write_text(json.dumps(cfg, indent=2))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.truth = truth.read_truth(cfg["test_home_csv"], cfg["test_away_csv"])
        self._verdicts: dict[tuple, dict[str, list[str]]] = {}

    # --- commands ------------------------------------------------------------

    def run_command(self, command: str, spans: Path | None = None) -> tuple[float, float, bool]:
        """Run one CLI command in a fresh process: (seconds, peak anonymous RSS MB, ok)."""
        if spans is None:
            argv = [sys.executable, "-m", "track_enrich.cli"]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans)]
        argv += [command, "--config", str(self.cfg_path)]
        log = self.work / f"{command}.log"
        peak_kb = 0
        with open(log, "wb") as fh:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            while True:
                pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                peak_kb = max(peak_kb, _anon_rss_kb(proc.pid))
                time.sleep(RSS_POLL_S)
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"{command} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return elapsed, peak_kb / 1024.0, proc.returncode == 0

    def outputs(self) -> dict[str, str]:
        files = sorted(self.out.glob("*")) + [self.work / "model.json"]
        return {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files if f.is_file()
        }

    def run_round(self, traced: bool = False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        (self.work / "model.json").unlink(missing_ok=True)
        times, rss, ok, spans = {}, {}, {}, {}
        for command in self.w.commands:
            span_file = self.work / f"spans-{command}.json" if traced else None
            times[command], rss[command], ok[command] = self.run_command(command, span_file)
            if traced:
                spans[command] = span_file
        rnd = {"times": times, "rss": rss, "ok": ok, "digests": self.outputs()}
        rnd.update(traced=traced, spans=spans)
        if traced:
            rnd["probe_spans"] = self.work / "spans-probe.json"
            _, rnd["probe_rss"], _ = self.run_command("probe", rnd["probe_spans"])
            rnd["startup_s"] = tracing.startup_seconds(self.env)
        return rnd

    # --- checks --------------------------------------------------------------

    def check_names(self) -> list[str]:
        names = ["observed_positions", "frame_grid", "report_headline"]
        names.append("axis_errors" if self.w.feed_360 else "offcam_error")
        return names

    def verdicts(self, digests: dict[str, str]) -> dict[str, list[str]]:
        """Problems per check for the outputs with these digests."""
        key = tuple(sorted(digests.items()))
        if key not in self._verdicts:
            self._verdicts[key] = self._run_checks()
        return self._verdicts[key]

    def load(self, name: str):
        path = self.out / name
        return json.loads(path.read_text()) if path.is_file() else None

    def _run_checks(self) -> dict[str, list[str]]:
        result = {name: [] for name in self.check_names()}
        report = self.load("report.json") or {}
        result["report_headline"] = checks.check_report(report)
        if self.w.feed_360:
            expected = json.loads((self.inputs / "feed360_expected.json").read_text())
            errors = self.load("axis_errors.json")
            result["axis_errors"] = (
                ["axis_errors.json missing"]
                if errors is None
                else checks.check_axis_errors(errors, expected["excluded"])
            )
        offcam: list[float] = []
        for half_id, th in sorted(self.truth.items()):
            enriched = self.load(f"enriched_half{half_id}.json")
            if enriched is None:
                for name in ("observed_positions", "frame_grid"):
                    result[name].append(f"enriched_half{half_id}.json missing")
                continue
            if self.w.feed_360:
                frames = [f for f in expected["frames"] if f["half"] == half_id]
                exp = {
                    f["time"]: ([checks.player_key(*p) for p in f["players"]], []) for f in frames
                }
                t_first, t_last = frames[0]["time"], frames[-1]["time"]
            else:
                times = checks.broadcast_times(th, self.w.trim_frames)
                exp = {t: checks.broadcast_visible(th, t, self.w.radius_m) for t in times}
                t_first, t_last = times[0], times[-1]
                offcam += checks.offcam_error(enriched, th, times)
            result["observed_positions"] += checks.check_observed(enriched, exp)
            result["frame_grid"] += checks.check_frames(enriched, t_first, t_last)
        if not self.w.feed_360:
            result["offcam_error"] = checks.check_offcam_error(offcam, report)
        return result


def prepare_inputs(workload, seed: int, cache: Path) -> Path:
    """Generate the workload's inputs once per seed; later runs reuse them."""
    import workloads

    dest = cache / f"inputs-{workload.name}-{workload.train_s:g}-{workload.test_s:g}-seed{seed}"
    if (dest / "config.json").is_file():
        return dest
    tmp = cache / f"tmp-{workload.name}-{seed}-{os.getpid()}"
    try:
        cfg = workloads.generate(workload, seed, tmp)
        (tmp / "config.json").write_text(json.dumps(cfg, indent=2))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(tmp, dest)
    return dest


def run(workload, seed: int, seconds: float, trace: bool, cache: Path) -> dict:
    inputs = prepare_inputs(workload, seed, cache)
    work = cache / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, inputs, work)
        reference = bench.run_round()
        bench.verdicts(reference["digests"])
        report = bench.load("report.json") or {}

        attempted = failed = 0
        correct = True
        rounds: list[dict] = []
        started = time.perf_counter()
        # Trace mode alternates plain and traced rounds, so it needs two.
        while len(rounds) < 1 + trace or time.perf_counter() - started < seconds:
            rnd = bench.run_round(traced=trace and len(rounds) % 2 == 1)
            rounds.append(rnd)
            verdicts = bench.verdicts(rnd["digests"])
            same = rnd["digests"] == reference["digests"]
            attempted += len(rnd["ok"]) + len(verdicts) + 1
            failed += sum(not v for v in rnd["ok"].values())
            failed += sum(bool(p) for p in verdicts.values()) + (not same)
            if any(verdicts.values()) or not same:
                correct = False
                for name, problems in verdicts.items():
                    for problem in problems[:5]:
                        print(f"check {name}: {problem}", file=sys.stderr)
                if not same:
                    print("outputs differ from the reference round", file=sys.stderr)
        if trace:
            metrics = tracing.layer_metrics(bench, rounds)
        else:
            metrics = end_to_end(rounds, report)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(rounds: list[dict], report: dict) -> dict:
    def per_round(*commands):
        return [sum(r["times"].get(c, 0.0) for c in commands) for r in rounds]

    metrics = {
        "setup_s": (statistics.median(per_round("train", "simulate-broadcast")), "s"),
        "enrich_s": (statistics.median(per_round("enrich")), "s"),
        "evaluate_s": (statistics.median(per_round("evaluate")), "s"),
        "peak_rss_mb": (max(v for r in rounds for v in r["rss"].values()), "MB"),
        "err_in_phase_offcam_m": (report.get("mean_offcam_in_phase_m"), "m"),
        "err_out_of_phase_m": (report.get("mean_all_out_of_phase_m"), "m"),
    }
    for r in rounds:
        print("round: " + " ".join(f"{c}={t:.3f}s" for c, t in r["times"].items()), file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/track_enrich/cli.py", "tests/synth.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a track-enrich checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), HERE / ".cache")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value'] if m['value'] is not None else 'n/a':>16} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
