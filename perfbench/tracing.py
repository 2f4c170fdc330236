"""Per-layer tracing: spans around the calls into each module's public functions.

Run as a script, it runs one CLI command with the spans recorded:

    python3 perfbench/tracing.py SPANS.json enrich --config config.json
    python3 perfbench/tracing.py SPANS.json probe --config config.json

Wrappers are installed where each caller looks a function up: a module
attribute for the CLI's ``module.function`` calls, the importing module's
global for a ``from module import function``.  The program's code is not
edited.  Spans stay in memory and are written to SPANS.json when the command
ends.  ``probe`` calls the layers that the workload's own commands do not
reach (the 360 reader on the broadcast workloads; degradation and the
discrete-record files on the 360 feed), so every layer is measured on every
workload.

Imported by ``run.py``, ``layer_metrics`` turns the span files of the traced
rounds into the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Each span: [name, start, end, parent index, annotation or None].
SPANS: list[list] = []
_STACK: list[int] = []


def _wrap(owner, attr: str, name: str, annotate=None) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:
        return

    def traced(*args, **kwargs):
        span = [name, 0.0, 0.0, _STACK[-1] if _STACK else -1, None]
        _STACK.append(len(SPANS))
        SPANS.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            span[4] = {"error": type(e).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            _STACK.pop()
        if annotate is not None:
            span[4] = annotate(args, result)
        return result

    setattr(owner, attr, traced)


def _grid_steps(args, result) -> dict:
    """Grid displacements the fit trains on (both axes, 1 s grid)."""
    steps = 0
    for trajs, _ in args[0]:
        for traj in trajs:
            if len(traj) >= 2:
                nodes = math.floor(traj.times[-1] + 1e-9) - math.ceil(traj.times[0] - 1e-9) + 1
                if nodes >= 3:
                    steps += 2 * (nodes - 1)
    return {"grid_steps": steps}


def _trajectories(args, result) -> dict:
    trajs = []
    for team in ("home", "away"):
        for traj in result.outfield[team]:
            skip = 1 if traj.seeded else 0
            trajs.append(
                [traj.times[skip:], [p.x for p in traj.points[skip:]], [p.y for p in traj.points[skip:]]]
            )
    return {"frames": len(args[0].frames), "half": args[0].half_id, "trajectories": trajs}


def _extrapolated(args, result):
    path, _, t = args
    times = path.trajectory.times
    return {"extrapolated": True} if t < times[0] or t > times[-1] else None


def install() -> None:
    from track_enrich import broadcast, evaluator, forecaster, ingest, interpolator, pipeline

    _wrap(
        ingest,
        "read_tracking_csv",
        "ingest.read_tracking_csv",
        lambda a, r: {
            "rows": sum(len(h.frames) + h.dropped_rows for h in r),
            "dropped": sum(h.dropped_rows for h in r),
        },
    )
    _wrap(
        ingest,
        "read_360_frames",
        "ingest.read_360_frames",
        lambda a, r: {"frames": sum(len(rec.frames) for rec in r[0]) + len(r[1]), "excluded": len(r[1])},
    )
    _wrap(ingest, "read_discrete", "ingest.read_discrete")
    _wrap(ingest, "write_discrete", "ingest.write_discrete")
    _wrap(
        ingest, "write_enriched", "ingest.write_enriched", lambda a, r: {"bytes": Path(a[1]).stat().st_size}
    )
    _wrap(
        broadcast,
        "degrade",
        "broadcast.degrade",
        lambda a, r: {
            "frames": len(r.frames),
            "visible_outfield": sum(1 for fr in r.frames for tag, _ in fr.visible if not tag.is_goalkeeper),
        },
    )
    _wrap(forecaster, "fit", "forecaster.fit", _grid_steps)
    _wrap(interpolator, "forecast", "forecaster.scratch_forecast")
    _wrap(interpolator, "backward_forecast", "forecaster.scratch_forecast")
    _wrap(pipeline, "build_trajectories", "assigner.build_trajectories", _trajectories)
    _wrap(pipeline, "compute_velocity_field", "interpolator.compute_velocity_field")
    _wrap(pipeline, "position_at", "interpolator.position_at", _extrapolated)
    _wrap(pipeline, "snapshot_at", "pipeline.snapshot_at")
    _wrap(evaluator, "snapshot_at", "pipeline.snapshot_at")
    _wrap(pipeline, "build_paths", "pipeline.build_paths")
    _wrap(
        pipeline,
        "enrich_frames",
        "pipeline.enrich_frames",
        lambda a, r: {"players": sum(len(f.players) for f in r)},
    )
    _wrap(evaluator, "evaluate_half", "evaluator.evaluate_half")
    _wrap(evaluator, "match_and_score", "evaluator.match_and_score")
    for fn in ("build_report", "write_report_json", "write_curve_csv", "render_pitch_svg"):
        _wrap(evaluator, fn, "evaluator.report_write")


def probe(config: str) -> int:
    """Call the layers the workload's commands do not reach."""
    from track_enrich import cli, ingest
    from track_enrich.config import load_config

    cfg = load_config(config)
    if cfg.frames_360_json:
        cfg.output_dir = str(Path(cfg.output_dir).parent / "probe")
        cli.cmd_simulate_broadcast(cfg)
        for path in sorted(Path(cfg.output_dir).glob("discrete_half*.json")):
            ingest.read_discrete(path)
    else:
        inputs = Path(cfg.test_home_csv).parent
        ingest.read_360_frames(inputs / "probe360_frames.json", inputs / "probe360_events.json")
    return 0


def main(argv: list[str]) -> int:
    spans_path, command, rest = Path(argv[0]), argv[1], argv[2:]
    from track_enrich import cli

    install()
    try:
        if command == "probe":
            return probe(rest[rest.index("--config") + 1])
        return cli.main([command, *rest])
    finally:
        spans_path.write_text(json.dumps(SPANS))


# --- aggregation --------------------------------------------------------------


class Spans:
    """The spans of one process, indexed by name, with self times."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = defaultdict(float)
        self.children = defaultdict(list)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                self.children[parent].append(i)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)
        self.self_time = {i: s[2] - s[1] - child_time[i] for i, s in enumerate(spans)}

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def _select(self, name: str, top_level: bool) -> list[int]:
        """Spans of ``name``; with ``top_level``, not those nested in another
        span of the same name (a recursive call)."""
        found = self.by_name[name]
        if top_level:
            found = [i for i in found if self.spans[i][3] < 0 or self.spans[self.spans[i][3]][0] != name]
        return found

    def total(self, name: str, top_level: bool = False) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(name, top_level))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.by_name[name])

    def notes(self, name: str, key: str, top_level: bool = False) -> list:
        notes = (self.spans[i][4] for i in self._select(name, top_level))
        return [note[key] for note in notes if note and key in note]

    def children_named(self, name: str, child: str) -> list[int]:
        return [c for i in self.by_name[name] for c in self.children[i] if self.spans[c][0] == child]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _merged(span_lists: list[list[list]]) -> Spans:
    """One ``Spans`` over the span lists of several processes."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        for name, start, end, parent, note in spans:
            out.append([name, start, end, parent + base if parent >= 0 else -1, note])
    return Spans(out)


def round_metrics(per_command: dict[str, list], probe: list, truth: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round: sums over its commands, plus
    the probe's spans (as top-level spans) for layers the commands did not
    reach."""
    reached = {s[0] for spans in per_command.values() for s in spans}
    unreached = [[name, start, end, -1, note] for name, start, end, _, note in probe if name not in reached]
    sp = _merged([*per_command.values(), unreached])
    enrich = Spans(per_command.get("enrich", []))

    rows = sum(sp.notes("ingest.read_tracking_csv", "rows"))
    frames_360 = sum(sp.notes("ingest.read_360_frames", "frames"))
    degraded = sum(sp.notes("broadcast.degrade", "frames"))
    built = sum(sp.notes("assigner.build_trajectories", "frames"))
    players = sum(sp.notes("pipeline.enrich_frames", "players"))
    queries = sp.count("interpolator.position_at")
    scratch = sp.count("forecaster.scratch_forecast")
    query_times = len(sp.children_named("evaluator.evaluate_half", "pipeline.snapshot_at"))
    scored = sp.children_named("evaluator.evaluate_half", "evaluator.match_and_score")
    excluded_360 = sp.notes("ingest.read_360_frames", "excluded")
    return {
        "ingest.read_tracking_csv_us_per_row": _ratio(sp.total("ingest.read_tracking_csv"), rows, 1e6),
        "ingest.rows_read": rows,
        "ingest.rows_dropped": sum(sp.notes("ingest.read_tracking_csv", "dropped")),
        "ingest.read_360_frames_us_per_frame": _ratio(sp.total("ingest.read_360_frames"), frames_360, 1e6),
        "ingest.frames_360_excluded": excluded_360[0] if excluded_360 else 0,
        "ingest.read_discrete_s": sp.total("ingest.read_discrete"),
        "ingest.write_discrete_s": sp.total("ingest.write_discrete"),
        "ingest.write_enriched_s": sp.total("ingest.write_enriched"),
        "ingest.enriched_bytes": sum(sp.notes("ingest.write_enriched", "bytes")),
        "broadcast.degrade_ms_per_frame": _ratio(sp.total("broadcast.degrade"), degraded, 1e3),
        "broadcast.visible_outfield_per_frame": _ratio(
            sum(sp.notes("broadcast.degrade", "visible_outfield")), degraded
        ),
        "forecaster.fit_s": sp.total("forecaster.fit", top_level=True),
        "forecaster.fit_grid_steps": sum(sp.notes("forecaster.fit", "grid_steps", top_level=True)),
        "forecaster.scratch_forecasts": scratch,
        "forecaster.scratch_forecast_ms_per_call": _ratio(
            sp.total("forecaster.scratch_forecast"), scratch, 1e3
        ),
        "assigner.build_trajectories_ms_per_frame": _ratio(
            sp.total("assigner.build_trajectories"), built, 1e3
        ),
        "assigner.positions_assigned": sum(
            len(t[0]) for runs in enrich.notes("assigner.build_trajectories", "trajectories") for t in runs
        ),
        "assigner.identity_switches": identity_switches(enrich, truth),
        "interpolator.position_at_us_per_query": _ratio(
            sp.self_total("interpolator.position_at"), queries, 1e6
        ),
        "interpolator.queries": queries,
        "interpolator.extrapolated_queries": len(sp.notes("interpolator.position_at", "extrapolated")),
        "interpolator.compute_velocity_field_s": sp.total("interpolator.compute_velocity_field"),
        "pipeline.build_paths_s": sp.total("pipeline.build_paths"),
        "pipeline.enrich_frames_us_per_player": _ratio(sp.total("pipeline.enrich_frames"), players, 1e6),
        "evaluator.evaluate_half_ms_per_query_time": _ratio(
            sp.self_total("evaluator.evaluate_half"), query_times, 1e3
        ),
        "evaluator.match_and_score_us_per_frame": _ratio(
            sp.total("evaluator.match_and_score"), sp.count("evaluator.match_and_score"), 1e6
        ),
        "evaluator.query_times": query_times,
        "evaluator.skipped_query_times": sum(1 for i in scored if sp.spans[i][4]),
        "evaluator.report_write_s": sp.total("evaluator.report_write"),
    }


def identity_switches(enrich: Spans, truth: dict) -> int:
    """Consecutive sightings in one trajectory that belong to different true
    players; each sighting is matched to the truth by its exact position."""
    halves = enrich.notes("assigner.build_trajectories", "half")
    runs = enrich.notes("assigner.build_trajectories", "trajectories")
    switches = 0
    for half_id, trajs in zip(halves, runs):
        th = truth[half_id]
        for times, xs, ys in trajs:
            prev = None
            for t, x, y in zip(times, xs, ys):
                d = np.hypot(*(th.pos[th.index_at(t)] - (x, y)).T)
                j = int(np.argmin(d))
                if d[j] > 1e-3:
                    continue
                if prev is not None and j != prev:
                    switches += 1
                prev = j
    return switches


def startup_seconds(env: dict) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import track_enrich.cli"], env=env, check=True)
    return time.perf_counter() - started


def layer_metrics(bench, rounds: list[dict]) -> dict:
    """Median of each per-layer metric over the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = defaultdict(list)
    for r in traced:
        per_command = {c: json.loads(p.read_text()) for c, p in r["spans"].items() if p.is_file()}
        probe = json.loads(r["probe_spans"].read_text()) if r["probe_spans"].is_file() else []
        for name, v in round_metrics(per_command, probe, bench.truth).items():
            values[name].append(v)
        values["cli.startup_s"].append(r["startup_s"])
    metrics = {name: (statistics.median(v), UNITS[name]) for name, v in values.items()}
    for command in ("train", "simulate-broadcast", "enrich", "evaluate"):
        rss = [r["rss"][command] for r in plain if command in r["rss"]] or [r["probe_rss"] for r in traced]
        metrics[f"{command.split('-')[0]}.peak_rss_mb"] = (max(rss), "MB")
    traced_s = statistics.median(sum(r["times"].values()) for r in traced)
    plain_s = statistics.median(sum(r["times"].values()) for r in plain)
    metrics["tracing_overhead_s"] = (traced_s - plain_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


UNITS = {
    "cli.startup_s": "s",
    "ingest.read_tracking_csv_us_per_row": "us/row",
    "ingest.rows_read": "count",
    "ingest.rows_dropped": "count",
    "ingest.read_360_frames_us_per_frame": "us/frame",
    "ingest.frames_360_excluded": "count",
    "ingest.read_discrete_s": "s",
    "ingest.write_discrete_s": "s",
    "ingest.write_enriched_s": "s",
    "ingest.enriched_bytes": "bytes",
    "broadcast.degrade_ms_per_frame": "ms/frame",
    "broadcast.visible_outfield_per_frame": "count/frame",
    "forecaster.fit_s": "s",
    "forecaster.fit_grid_steps": "count",
    "forecaster.scratch_forecasts": "count",
    "forecaster.scratch_forecast_ms_per_call": "ms/call",
    "assigner.build_trajectories_ms_per_frame": "ms/frame",
    "assigner.positions_assigned": "count",
    "assigner.identity_switches": "count",
    "interpolator.position_at_us_per_query": "us/query",
    "interpolator.queries": "count",
    "interpolator.extrapolated_queries": "count",
    "interpolator.compute_velocity_field_s": "s",
    "pipeline.build_paths_s": "s",
    "pipeline.enrich_frames_us_per_player": "us/player",
    "evaluator.evaluate_half_ms_per_query_time": "ms/query",
    "evaluator.match_and_score_us_per_frame": "us/frame",
    "evaluator.query_times": "count",
    "evaluator.skipped_query_times": "count",
    "evaluator.report_write_s": "s",
}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
