"""Command-line pipeline: train, simulate-broadcast, enrich, evaluate.

Every command is deterministic given its config and inputs: assignment uses
forecast means and log-densities only, nothing is sampled, so model files,
enriched output, and reports are byte-reproducible.

Exit codes: 0 success, 2 configuration or input validation error
(``ConfigError``, ``MalformedInputError``), 1 runtime failure.
Set TRACK_ENRICH_LOG=DEBUG (or INFO/WARNING) to adjust verbosity.

Each command imports the modules it runs: ``enrich`` loads no numpy, which
only CSV ingest, the fit and the report statistics use.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
import time
from pathlib import Path

from . import forecaster, ingest
from .config import ConfigError, PipelineConfig, apply_overrides, load_config
from .geometry import MalformedInputError

logger = logging.getLogger(__name__)


class _OutfieldTracks:
    """A half's outfield trajectories of two or more points, built one by one
    as they are iterated so a fit holds one at a time.  Like the list they
    stand for, they can be iterated more than once."""

    def __init__(self, half: ingest.MatchHalf):
        self.tracks = half.player_tracks

    def __iter__(self):
        return (t for t in self.tracks.values() if not t.tag.is_goalkeeper and len(t) >= 2)


def _training_halves(cfg: PipelineConfig):
    halves = ingest.read_tracking_csv(cfg.train_home_csv, cfg.train_away_csv)
    return [
        (_OutfieldTracks(half), forecaster.resample_to_grid(half.times, half.ball, cfg.grid_step_s))
        for half in halves
    ]


def cmd_train(cfg: PipelineConfig) -> int:
    cfg.require_paths("train_home_csv", "train_away_csv")
    cfg.require_output("model_path")
    model = forecaster.fit(
        _training_halves(cfg),
        grid_step=cfg.grid_step_s,
        ar_order=cfg.ar_order,
        ma_order=cfg.ma_order,
        ball_lags=cfg.ball_lags,
    )
    Path(cfg.model_path).parent.mkdir(parents=True, exist_ok=True)
    forecaster.save_model(model, cfg.model_path)
    print(f"model written to {cfg.model_path}")
    print(f"  ar        : {[round(c, 4) for c in model.ar]}")
    print(f"  ma        : {[round(c, 4) for c in model.ma]}")
    print(f"  ball lags : {[round(c, 4) for c in model.exog]}")
    print(f"  intercept : {model.intercept:.6f}")
    print(f"  resid std : {model.resid_std:.4f} m")
    print(f"  1-step std: {model.one_step_std:.4f} m")
    return 0


def _discrete_path(cfg: PipelineConfig, half_id: int) -> Path:
    return Path(cfg.output_dir) / f"discrete_half{half_id}.json"


def _trajectories_path(cfg: PipelineConfig, half_id: int) -> Path:
    return Path(cfg.output_dir) / f"trajectories_half{half_id}.json"


def sha256_hex(data: bytes) -> str:
    """``hashlib.sha256(data).hexdigest()`` from CPython's built-in SHA-256:
    ``hashlib`` loads OpenSSL, half a megabyte for each command."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def cmd_simulate_broadcast(cfg: PipelineConfig) -> int:
    from . import broadcast

    cfg.require_paths("test_home_csv", "test_away_csv")
    cfg.require_output("output_dir")
    dcfg = broadcast.DegradeConfig(
        sample_period=cfg.sample_period_s,
        visibility_radius=cfg.visibility_radius_m,
        trim_frames=cfg.trim_frames,
    )
    halves = ingest.read_tracking_csv(cfg.test_home_csv, cfg.test_away_csv)
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    total_frames, weighted_visible, total_preds = 0, 0.0, 0
    for half in halves:
        record = broadcast.degrade(half, dcfg)
        stats = broadcast.degrade_stats(record)
        path = _discrete_path(cfg, half.half_id)
        ingest.write_discrete(record, path)
        print(
            f"half {half.half_id}: {stats.n_frames} frames, "
            f"{stats.mean_visible_outfield:.2f} visible outfielders on average, "
            f"{stats.n_predictions} positions to predict -> {path}"
        )
        total_frames += stats.n_frames
        weighted_visible += stats.mean_visible_outfield * stats.n_frames
        total_preds += stats.n_predictions
    if total_frames:
        print(
            f"total: {total_frames} frames, "
            f"{weighted_visible / total_frames:.2f} mean visible outfielders, "
            f"{total_preds} positions to predict"
        )
    return 0


def _load_records(cfg: PipelineConfig):
    """Discrete inputs for enrich/evaluate: simulated files or 360 JSON."""
    if cfg.frames_360_json:
        cfg.require_paths("frames_360_json", "events_360_json")
        records, errors = ingest.read_360_frames(
            cfg.frames_360_json,
            cfg.events_360_json,
            axis_disagreement_m=cfg.axis_disagreement_m,
        )
        return records, errors
    # one file per period, as simulate-broadcast names them, in period order
    periods = sorted(
        int(m[1])
        for p in Path(cfg.output_dir).glob("discrete_half*.json")
        if (m := re.fullmatch(r"discrete_half(0|[1-9][0-9]*)\.json", p.name))
    )
    records = [ingest.read_discrete(_discrete_path(cfg, n)) for n in periods]
    for n, record in zip(periods, records):  # one half's outputs must not overwrite another's
        if record.half_id != n:
            raise MalformedInputError(
                f"{_discrete_path(cfg, n)}: half_id {record.half_id}, not {n} as in its name"
            )
    if not records:
        raise ConfigError(
            f"no discrete input: neither frames_360_json nor {Path(cfg.output_dir)}/"
            "discrete_half*.json (run simulate-broadcast first)"
        )
    return records, []


def cmd_enrich(cfg: PipelineConfig) -> int:
    from . import pipeline

    cfg.require_paths("model_path")
    cfg.require_output("output_dir")
    model = forecaster.load_model(cfg.model_path)
    model_sha256 = sha256_hex(Path(cfg.model_path).read_bytes())
    records, errors = _load_records(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.frames_360_json:
        ingest.write_axis_errors(errors, out_dir / "axis_errors.json")
        print(f"{len(errors)} frames excluded -> {out_dir / 'axis_errors.json'}")
    for record in records:
        started = time.perf_counter()
        trajectories = pipeline.build_trajectories(record, model).in_order()
        # written before the frames exist, so the two never share the peak
        ingest.write_trajectories(
            trajectories, model_sha256, _trajectories_path(cfg, record.half_id)
        )
        paths = pipeline.build_paths(record, model, trajectories, alpha=cfg.alpha)
        frames = pipeline.enrich_frames(paths, period=cfg.enrich_period_s)
        elapsed = time.perf_counter() - started
        out_path = out_dir / f"enriched_half{record.half_id}.json"
        ingest.write_enriched(frames, out_path)
        per_frame = elapsed / max(len(record.frames), 1)
        print(
            f"half {record.half_id}: {len(record.frames)} frames enriched in "
            f"{elapsed:.1f}s ({per_frame:.4f} s/frame) -> {out_path}"
        )
    return 0


def cmd_evaluate(cfg: PipelineConfig) -> int:
    """Score the trajectories ``enrich`` assigned (``alpha`` may differ from
    enrich's: it only shapes the velocity field) against the truth."""
    from . import evaluator, pipeline

    cfg.require_paths("model_path", "test_home_csv", "test_away_csv")
    cfg.require_output("output_dir")
    model = forecaster.load_model(cfg.model_path)
    model_sha256 = sha256_hex(Path(cfg.model_path).read_bytes())
    truth_halves = {
        h.half_id: h
        for h in ingest.read_tracking_csv(cfg.test_home_csv, cfg.test_away_csv)
    }
    if cfg.test_events_csv:
        cfg.require_paths("test_events_csv")
        ingest.attach_events(list(truth_halves.values()), cfg.test_events_csv)
    records, _ = _load_records(cfg)
    for record in records:
        path = _trajectories_path(cfg, record.half_id)
        if not path.is_file():
            raise ConfigError(f"no {path} (run enrich first)")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    examples = []  # the first half's percentile frames, drawn while its paths live
    while records:  # each half's record, truth and paths are released once it is scored
        record = records.pop(0)
        truth = truth_halves.pop(record.half_id, None)
        if truth is None:
            raise ConfigError(f"no ground truth for half {record.half_id}")
        path = _trajectories_path(cfg, record.half_id)
        sha256, trajectories = ingest.read_trajectories(path, record)
        if sha256 != model_sha256:
            raise ConfigError(
                f"{path} was assigned with another model than {cfg.model_path} (run enrich again)"
            )
        paths = pipeline.build_paths(record, model, trajectories, alpha=cfg.alpha)
        result = evaluator.evaluate_half(record, paths, truth)
        if not results and len(result.frame_errors) >= 100:
            for pct, fe in evaluator.percentile_frames(result.frame_errors):
                frame, ages = pipeline.snapshot_at(paths, fe.time)
                labels = [f"{age:.0f}" if age < float("inf") else "?" for age in ages]
                examples.append((pct, fe, evaluator.render_pitch_svg(frame, labels)))
        results.append(result)
        del record, truth, trajectories, paths

    report = evaluator.build_report(results)
    evaluator.write_report_json(report, out_dir / "report.json")
    evaluator.write_curve_csv(report, out_dir / "curve.csv")
    print(evaluator.format_report(report))

    for pct, fe, svg in examples:
        svg_path = out_dir / f"percentile_{int(pct)}.svg"
        svg_path.write_text(svg, encoding="utf8")
        print(
            f"p{int(pct)} example: t={fe.time:.1f}s, total squared error "
            f"{fe.total_squared_error:.0f} m^2 -> {svg_path}"
        )
    return 0


# --- argument handling ---------------------------------------------------------

_COMMANDS = {
    "train": cmd_train,
    "simulate-broadcast": cmd_simulate_broadcast,
    "enrich": cmd_enrich,
    "evaluate": cmd_evaluate,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat-key JSON config file")
    sub.add_argument("--model-path", dest="model_path")
    sub.add_argument("--output-dir", dest="output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="track-enrich",
        description="Estimate continuous full-pitch tracking from discrete frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit the displacement forecaster")
    _add_common(p)
    p.add_argument("--train-home-csv", dest="train_home_csv")
    p.add_argument("--train-away-csv", dest="train_away_csv")
    p.add_argument("--ar-order", dest="ar_order", type=int)
    p.add_argument("--ma-order", dest="ma_order", type=int)
    p.add_argument("--ball-lags", dest="ball_lags", type=int)
    p.add_argument("--grid-step", dest="grid_step_s", type=float)

    p = sub.add_parser("simulate-broadcast", help="degrade ground truth to discrete frames")
    _add_common(p)
    p.add_argument("--test-home-csv", dest="test_home_csv")
    p.add_argument("--test-away-csv", dest="test_away_csv")
    p.add_argument("--period", dest="sample_period_s", type=float)
    p.add_argument("--radius", dest="visibility_radius_m", type=float)
    p.add_argument("--trim", dest="trim_frames", type=int)

    p = sub.add_parser("enrich", help="reconstruct full-pitch frames from discrete input")
    _add_common(p)
    p.add_argument("--frames-360-json", dest="frames_360_json")
    p.add_argument("--events-360-json", dest="events_360_json")
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--enrich-period", dest="enrich_period_s", type=float)
    p.add_argument("--axis-disagreement", dest="axis_disagreement_m", type=float)

    p = sub.add_parser("evaluate", help="score reconstructions against ground truth")
    _add_common(p)
    p.add_argument("--test-home-csv", dest="test_home_csv")
    p.add_argument("--test-away-csv", dest="test_away_csv")
    p.add_argument("--test-events-csv", dest="test_events_csv")
    p.add_argument("--alpha", dest="alpha", type=float)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TRACK_ENRICH_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    try:
        cfg = load_config(config_path)
        apply_overrides(cfg, args)
        return _COMMANDS[command](cfg)
    except (ConfigError, MalformedInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        logger.debug("traceback", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
