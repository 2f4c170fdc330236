"""Error analysis against ground truth: matching, headline statistics, the
error-vs-occlusion curve, percentile example frames, and pitch drawings.

Estimates are compared to truth per team with a minimum-total-distance
bijection, solved by the package's own ``lsap.linear_sum_assignment``
(goalkeepers are drawn in the figures but excluded from all error
statistics).  Queries run both in phase (at sampled-frame times, where
observed players score exactly zero) and out of phase (halfway between
frames).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .broadcast import ground_truth_at
from .geometry import (
    AWAY,
    HOME,
    EnrichedFrame,
    MalformedInputError,
    ObservationFrame,
    PitchPoint,
    nearest_time_index,
)
from .ingest import DiscreteMatchRecord, Event, MatchHalf
from .lsap import linear_sum_assignment
from .pipeline import PathSet, snapshot_at

logger = logging.getLogger(__name__)

IN_PHASE = "in_phase"
OUT_OF_PHASE = "out_of_phase"


class TruthMismatchError(ValueError):
    """Estimated and true team sizes disagree at a query time."""


@dataclass(frozen=True)
class FrameError:
    time: float
    phase: str
    errors: tuple[float, ...]  # one per outfielder, in the snapshot's order
    total_squared_error: float


def _match_team(est: list[PitchPoint], truth: list[PitchPoint]) -> list[float]:
    """Errors of a minimum-total-distance bijection, aligned with ``est``.

    Exact coincidences are pinned first (each estimate, in order, takes the
    first unused truth equal to it): pinning a zero-distance pair never
    breaks optimality (triangle inequality) and guarantees observed
    positions score exactly zero.
    """
    errors = [0.0] * len(est)
    # unused truth indices by position, in order; equal floats (0.0 and -0.0
    # too) hash alike, so a lookup finds exactly the truths equal to ``pos``
    free: dict[tuple[float, float], list[int]] = {}
    for j, p in enumerate(truth):
        free.setdefault((p.x, p.y), []).append(j)
    remaining: list[int] = []
    for c, pos in enumerate(est):
        hits = free.get((pos.x, pos.y))
        if hits:
            del hits[0]
        else:
            remaining.append(c)
    if remaining:
        unused = sorted(j for hits in free.values() for j in hits)
        # truth rows x estimate columns: the solver breaks ties by
        # orientation, so the orientation is part of the output
        cost = [[truth[j].distance_to(est[c]) for c in remaining] for j in unused]
        for r, c in zip(*linear_sum_assignment(cost)):
            errors[remaining[c]] = cost[r][c]
    return errors


def match_and_score(
    snapshot: EnrichedFrame, truth_frame: ObservationFrame, phase: str
) -> FrameError:
    """Score a snapshot's outfielders against the true ones, team by team.

    ``truth_frame`` is the native frame at the snapshot's time; goalkeepers
    on either side are ignored.  Raises TruthMismatchError when a team's
    estimated and true outfielder counts differ.
    """
    outfield = [p for p in snapshot.players if not p.tag.is_goalkeeper]
    errors = [0.0] * len(outfield)
    for team in (HOME, AWAY):
        idx = [i for i, p in enumerate(outfield) if p.tag.team == team]
        truth = truth_frame.visible_for(team)
        if len(idx) != len(truth):
            raise TruthMismatchError(
                f"team {team}: {len(idx)} estimates vs {len(truth)} true positions"
            )
        for i, err in zip(idx, _match_team([outfield[i].position for i in idx], truth)):
            errors[i] = err
    total = 0.0
    for e in errors:  # left to right: sum() compensates float sums from Python 3.12
        total += e**2
    return FrameError(
        time=snapshot.time, phase=phase, errors=tuple(errors), total_squared_error=total
    )


# --- half evaluation ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PredictionRow:
    phase: str
    provenance: str
    error_m: float
    seconds_to_obs: float
    prev_frame_observed: bool
    at_event_frame: bool


@dataclass
class HalfResult:
    half_id: int
    frame_errors: list[FrameError]  # in-phase, time order
    rows: list[PredictionRow]
    n_frames: int


def event_frame_times(events: Sequence[Event], frame_times: Sequence[float]) -> set[float]:
    """The deduplicated in-phase frame times nearest to each event.

    ``frame_times`` must be sorted; ties go to the earlier frame.
    """
    if not frame_times:
        return set()
    return {frame_times[nearest_time_index(frame_times, ev.time)] for ev in events}


def evaluate_half(record: DiscreteMatchRecord, paths: PathSet, truth: MatchHalf) -> HalfResult:
    """Score every in-phase and out-of-phase query time of one half.

    Query times where the truth momentarily lacks ten outfielders per team
    (substitution transitions) are skipped; more than 1% of them failing
    indicates broken inputs and raises MalformedInputError naming the half.
    """
    frame_times = [fr.time for fr in record.frames]
    ev_frames = event_frame_times(truth.events, frame_times)

    frame_errors: list[FrameError] = []
    rows: list[PredictionRow] = []
    skipped: list[float] = []

    outfield_paths = [p for p in paths.paths if not p.trajectory.tag.is_goalkeeper]

    def score_at(t: float, phase: str, prev_time: float | None) -> FrameError:
        snapshot, ages = snapshot_at(paths, t)
        fe = match_and_score(snapshot, ground_truth_at(truth, t), phase)
        at_event = phase == IN_PHASE and t in ev_frames
        outfield = [
            (p.provenance, age)
            for p, age in zip(snapshot.players, ages)
            if not p.tag.is_goalkeeper
        ]
        for (provenance, age), path, err in zip(outfield, outfield_paths, fe.errors, strict=True):
            rows.append(
                PredictionRow(
                    phase=phase,
                    provenance=provenance,
                    error_m=err,
                    seconds_to_obs=age,
                    prev_frame_observed=(
                        prev_time is not None and path.trajectory.observed_at(prev_time)
                    ),
                    at_event_frame=at_event,
                )
            )
        return fe

    for i, t in enumerate(frame_times):
        try:
            frame_errors.append(score_at(t, IN_PHASE, None))
        except TruthMismatchError:
            skipped.append(t)
        if i + 1 < len(frame_times):
            mid = t + 0.5 * (frame_times[i + 1] - t)
            try:
                score_at(mid, OUT_OF_PHASE, t)
            except TruthMismatchError:
                skipped.append(mid)

    if skipped:
        logger.warning(
            "half %d: skipped %d query times without full truth (substitutions?)",
            record.half_id,
            len(skipped),
        )
        if len(skipped) > 0.01 * (2 * len(frame_times)):
            raise MalformedInputError(
                f"half {record.half_id}: {len(skipped)} query times lacked a full "
                "set of true outfielders; inputs look inconsistent"
            )
    return HalfResult(
        half_id=record.half_id,
        frame_errors=frame_errors,
        rows=rows,
        n_frames=len(frame_times),
    )


# --- aggregation -------------------------------------------------------------


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def _headline(rows: list[PredictionRow]) -> dict[str, float]:
    in_all = [r.error_m for r in rows if r.phase == IN_PHASE]
    in_off = [r.error_m for r in rows if r.phase == IN_PHASE and r.provenance == "estimated"]
    out_all = [r.error_m for r in rows if r.phase == OUT_OF_PHASE]
    prev = [r.error_m for r in rows if r.phase == OUT_OF_PHASE and r.prev_frame_observed]
    ev_off = [
        r.error_m
        for r in rows
        if r.phase == IN_PHASE and r.provenance == "estimated" and r.at_event_frame
    ]
    return {
        "mean_all_in_phase_m": _mean(in_all),
        "mean_offcam_in_phase_m": _mean(in_off),
        "median_offcam_in_phase_m": float(np.median(in_off)) if in_off else math.nan,
        "mean_all_out_of_phase_m": _mean(out_all),
        "mean_prev_frame_observed_m": _mean(prev),
        "mean_offcam_event_frames_m": _mean(ev_off),
        "n_predictions": float(len(in_off)),
    }


def _curve(rows: list[PredictionRow]) -> list[dict]:
    """Error statistics per half-second bucket of occlusion age."""
    buckets: dict[float, list[float]] = {}
    for r in rows:
        if not math.isfinite(r.seconds_to_obs):
            continue  # trajectory never observed; no occlusion age to bucket
        key = round(r.seconds_to_obs * 2.0) / 2.0
        buckets.setdefault(key, []).append(r.error_m)
    curve = []
    for key in sorted(buckets):
        vals = np.asarray(buckets[key])
        p12_5, p87_5, p2_5, p97_5 = np.percentile(vals, [12.5, 87.5, 2.5, 97.5]).tolist()
        curve.append(
            {
                "bucket_s": key,
                "mean_m": float(vals.mean()),
                "p12_5_m": p12_5,
                "p87_5_m": p87_5,
                "p2_5_m": p2_5,
                "p97_5_m": p97_5,
                "n": len(vals),
            }
        )
    return curve


def build_report(results: Sequence[HalfResult]) -> dict:
    """The ``report.json`` document: the pooled headline errors, the frame and
    off-camera prediction counts, each half's headline figures under its id,
    and the error-vs-occlusion curve."""
    rows = [r for res in results for r in res.rows]
    pooled = _headline(rows)
    return {
        **pooled,
        "n_frames": sum(res.n_frames for res in results),
        "n_predictions": int(pooled["n_predictions"]),
        "per_half": {str(res.half_id): _headline(res.rows) for res in results},
        "curve": _curve(rows),
    }


def percentile_frames(
    frame_errors: Sequence[FrameError], percentiles: Sequence[float] = (25, 50, 75, 95)
) -> list[tuple[float, FrameError]]:
    """For each percentile of total squared frame error, the first (in time)
    frame whose error is closest to that percentile value."""
    if len(frame_errors) < 100:
        raise ValueError(f"need at least 100 frames, got {len(frame_errors)}")
    ordered = sorted(frame_errors, key=lambda fe: fe.time)
    values = np.asarray([fe.total_squared_error for fe in ordered])
    out = []
    for pct in percentiles:
        target = float(np.percentile(values, pct))
        best = min(ordered, key=lambda fe: (abs(fe.total_squared_error - target), fe.time))
        out.append((pct, best))
    return out


# --- output files ------------------------------------------------------------


def _json_value(v):
    """``v`` with NaN as None and every other float rounded to 4 decimals,
    through dicts and lists."""
    if isinstance(v, float):
        return None if math.isnan(v) else round(v, 4)
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return v


def write_report_json(report: dict, path: str | Path) -> None:
    doc = _json_value(report)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf8")


def write_curve_csv(report: dict, path: str | Path) -> None:
    lines = ["bucket_s,mean_m,p12.5,p87.5,p2.5,p97.5,n"]
    for b in report["curve"]:
        lines.append(
            f"{b['bucket_s']:.1f},{b['mean_m']:.4f},{b['p12_5_m']:.4f},{b['p87_5_m']:.4f},"
            f"{b['p2_5_m']:.4f},{b['p97_5_m']:.4f},{b['n']}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf8")


def format_report(report: dict) -> str:
    def fmt(key: str) -> str:
        return "n/a" if math.isnan(report[key]) else f"{report[key]:6.2f} m"

    lines = [
        f"frames evaluated        : {report['n_frames']}",
        f"off-camera predictions  : {report['n_predictions']}",
        f"mean error, in phase    : {fmt('mean_all_in_phase_m')} (all players)",
        f"mean error, off camera  : {fmt('mean_offcam_in_phase_m')} (in phase)",
        f"median error, off camera: {fmt('median_offcam_in_phase_m')} (in phase)",
        f"mean error, out of phase: {fmt('mean_all_out_of_phase_m')} (all players)",
        f"mean error, seen 1s ago : {fmt('mean_prev_frame_observed_m')}",
        f"mean error at events    : {fmt('mean_offcam_event_frames_m')} (off camera)",
    ]
    return "\n".join(lines)


# --- pitch drawing -----------------------------------------------------------

_TEAM_FILL = {HOME: "#c8102e", AWAY: "#1f4e9c"}
_TEAM_EDGE = {HOME: "#7a0a1c", AWAY: "#102a54"}


def _f(v: float) -> str:
    return f"{v:.2f}"


def render_pitch_svg(frame: EnrichedFrame, annotations: Sequence[str] | None = None) -> str:
    """Deterministic SVG of one snapshot: pitch, discs, numerals, ball.

    ``annotations`` aligns with ``frame.players`` (typically the occlusion age
    in seconds); estimated players get dashed outlines.
    """
    if annotations is not None and len(annotations) != len(frame.players):
        raise ValueError("annotations must align with frame.players")
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-4 -4 128 88" '
        'width="640" height="440">',
        '<rect x="-4" y="-4" width="128" height="88" fill="#2e7d32"/>',
        '<g fill="none" stroke="#ffffff" stroke-width="0.35">',
        '<rect x="0" y="0" width="120" height="80"/>',
        '<line x1="60" y1="0" x2="60" y2="80"/>',
        '<circle cx="60" cy="40" r="9.15"/>',
        '<rect x="0" y="19.84" width="16.5" height="40.32"/>',
        '<rect x="103.5" y="19.84" width="16.5" height="40.32"/>',
        '<rect x="0" y="30.84" width="5.5" height="18.32"/>',
        '<rect x="114.5" y="30.84" width="5.5" height="18.32"/>',
        "</g>",
    ]
    for i, player in enumerate(frame.players):
        pos = player.position
        fill = _TEAM_FILL[player.tag.team]
        edge = _TEAM_EDGE[player.tag.team]
        dash = ' stroke-dasharray="0.9,0.5"' if player.provenance == "estimated" else ""
        shape = "rect" if player.tag.is_goalkeeper else "circle"
        if shape == "circle":
            lines.append(
                f'<circle cx="{_f(pos.x)}" cy="{_f(pos.y)}" r="1.80" '
                f'fill="{fill}" stroke="{edge}" stroke-width="0.30"{dash}/>'
            )
        else:
            lines.append(
                f'<rect x="{_f(pos.x - 1.6)}" y="{_f(pos.y - 1.6)}" width="3.20" '
                f'height="3.20" fill="{fill}" stroke="{edge}" stroke-width="0.30"{dash}/>'
            )
        if annotations is not None and annotations[i]:
            lines.append(
                f'<text x="{_f(pos.x)}" y="{_f(pos.y + 0.6)}" fill="#ffffff" '
                f'font-size="1.7" text-anchor="middle" '
                f'font-family="sans-serif">{annotations[i]}</text>'
            )
    ball = frame.ball
    lines.append(
        f'<circle cx="{_f(ball.x)}" cy="{_f(ball.y)}" r="0.90" '
        'fill="#111111" stroke="#ffffff" stroke-width="0.25"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
