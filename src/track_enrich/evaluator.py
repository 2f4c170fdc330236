"""Error analysis against ground truth: matching, headline statistics, the
error-vs-occlusion curve, percentile example frames, and pitch drawings.

Estimates are compared to truth per team with a minimum-total-distance
bijection, solved by the package's own ``lsap.linear_sum_assignment``
(goalkeepers are drawn in the figures but never scored).  Queries run both in
phase (at sampled-frame times, where observed players score exactly zero) and
out of phase (halfway between frames).  A half's scores are kept as columns:
one float error, one float age and one byte of flags per prediction.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .broadcast import ground_truth_at
from .geometry import (
    AWAY, HOME, EnrichedFrame, MalformedInputError, PitchPoint, PlayerTag, nearest_time_index
)
from .ingest import DiscreteMatchRecord, Event, MatchHalf
from .interpolator import ContinuousPath, VelocityField
from .lsap import linear_sum_assignment
from .pipeline import PathSet, path_at

logger = logging.getLogger(__name__)

Point = tuple[float, float]

# The bits of a prediction's flags.
IN_PHASE = 1  # at a frame time, not halfway to the next frame
ESTIMATED = 2  # no observation at the query time
PREV_OBSERVED = 4  # out of phase, and observed at the frame before
AT_EVENT = 8  # in phase, at the frame nearest to an event

EXAMPLE_PERCENTILES = (25, 50, 75, 95)  # of total squared frame error, drawn by evaluate


class TruthMismatchError(ValueError):
    """Estimated and true team sizes disagree at a query time."""


@dataclass(frozen=True, slots=True)
class FrameError:
    time: float
    total_squared_error: float  # over the outfield paths, summed in their order


def _match_team(est: Sequence[Point], truth: Sequence[Point]) -> list[float]:
    """Errors of a minimum-total-distance bijection, aligned with ``est``.

    Exact coincidences are pinned first (each estimate, in order, takes the
    first unused truth equal to it): pinning a zero-distance pair never
    breaks optimality (triangle inequality) and guarantees observed
    positions score exactly zero.
    """
    errors = [0.0] * len(est)
    # unused truth indices by position, in order; equal floats (0.0 and -0.0
    # too) hash alike, so a lookup finds exactly the truths equal to ``pos``
    free: dict[Point, list[int]] = {}
    for j, p in enumerate(truth):
        free.setdefault(p, []).append(j)
    remaining: list[int] = []
    for c, pos in enumerate(est):
        hits = free.get(pos)
        if hits:
            del hits[0]
        else:
            remaining.append(c)
    if remaining:
        unused = sorted(j for hits in free.values() for j in hits)
        # truth rows x estimate columns: the solver breaks ties by
        # orientation, so the orientation is part of the output
        cols = [est[c] for c in remaining]
        rows = [truth[j] for j in unused]
        cost = [[math.hypot(tx - ex, ty - ey) for ex, ey in cols] for tx, ty in rows]
        for r, c in zip(*linear_sum_assignment(cost)):
            errors[remaining[c]] = cost[r][c]
    return errors


def match_and_score(
    teams: Mapping[str, tuple[Sequence[Point], Sequence[Point]]]
) -> dict[str, list[float]]:
    """Match each team's estimated outfielders to its true ones.

    ``teams`` maps a team to its estimates and its truth, as ``(x, y)``
    floats; the result maps it to the errors, aligned with the estimates.
    Raises TruthMismatchError when a team's two counts differ.
    """
    for team, (est, truth) in teams.items():
        if len(est) != len(truth):
            raise TruthMismatchError(
                f"team {team}: {len(est)} estimates vs {len(truth)} true positions"
            )
    return {team: _match_team(est, truth) for team, (est, truth) in teams.items()}


# --- half evaluation ---------------------------------------------------------


@dataclass
class HalfResult:
    """One half's scores.  A prediction is one outfield path at one scored
    query time, in query-time then path order; its error, occlusion age and
    flags sit at the same index of ``errors``, ``ages`` and ``flags``."""

    half_id: int
    frame_errors: list[FrameError]  # in-phase, time order
    errors: array  # metres
    ages: array  # seconds to the nearest observation; inf if never observed
    flags: bytearray  # IN_PHASE, ESTIMATED, PREV_OBSERVED and AT_EVENT bits
    n_frames: int


def event_frame_times(events: Sequence[Event], frame_times: Sequence[float]) -> set[float]:
    """The deduplicated in-phase frame times nearest to each event.

    ``frame_times`` must be sorted and non-empty; ties go to the earlier frame.
    """
    return {frame_times[nearest_time_index(frame_times, ev.time)] for ev in events}


def snapshot_at(
    outfield: Sequence[ContinuousPath], field_: VelocityField, t: float
) -> list[tuple[PitchPoint, bool, float]]:
    """The scoring snapshot at ``t``: ``pipeline.path_at`` of each outfield
    path, in order.  Unlike ``pipeline.snapshot_at`` it builds no frame; one
    call per query time, which ``perfbench/tracing.py`` counts."""
    return [path_at(path, field_, t) for path in outfield]


def evaluate_half(record: DiscreteMatchRecord, paths: PathSet, truth: MatchHalf) -> HalfResult:
    """Score every in-phase and out-of-phase query time of one half.

    Each query time is scored against the truth's nearest row
    (``ground_truth_at``): its used outfield cells, in column order.  Query
    times where the truth momentarily lacks ten outfielders per team
    (substitution transitions) are skipped; more than 1% of them failing
    indicates broken inputs and raises MalformedInputError naming the half.
    """
    frame_times = [fr.time for fr in record.frames]
    ev_frames = event_frame_times(truth.events, frame_times)
    outfield = [p for p in paths.paths if not p.trajectory.tag.is_goalkeeper]
    teams = {
        team: [i for i, p in enumerate(outfield) if p.trajectory.tag.team == team]
        for team in (HOME, AWAY)
    }
    table = truth.frames
    truth_columns = {  # each team's outfield columns, in column order
        team: [j for j, tag in enumerate(table.tags, 1) if tag == PlayerTag(team)]
        for team in (HOME, AWAY)
    }
    result = HalfResult(record.half_id, [], array("d"), array("d"), bytearray(), len(frame_times))
    skipped: list[float] = []

    def score(t: float, states: list[tuple[PitchPoint, bool, float]], flags: list[int]):
        """Match the scoring snapshot at ``t`` to the truth and append its
        predictions, with ``flags`` and ESTIMATED where unobserved: the errors
        in path order, or None when ``t`` is skipped."""
        est = [(pos.x, pos.y) for pos, _, _ in states]
        row = ground_truth_at(truth, t)
        cells, used = table.cells[row].tolist(), table.used[row].tolist()
        pairs = {
            team: ([est[i] for i in idx], [(*cells[j],) for j in truth_columns[team] if used[j]])
            for team, idx in teams.items()
        }
        try:
            matched = match_and_score(pairs)
        except TruthMismatchError:
            skipped.append(t)
            return None
        errors = [0.0] * len(states)
        for team, idx in teams.items():
            for i, err in zip(idx, matched[team]):
                errors[i] = err
        result.errors.extend(errors)
        result.ages.extend(age for _, _, age in states)
        result.flags.extend(f if obs else f | ESTIMATED for (_, obs, _), f in zip(states, flags))
        return errors

    for i, t in enumerate(frame_times):
        states = snapshot_at(outfield, paths.field, t)
        errors = score(t, states, [IN_PHASE | (AT_EVENT if t in ev_frames else 0)] * len(states))
        if errors is not None:
            total = 0.0
            for e in errors:  # left to right: sum() compensates float sums from Python 3.12
                total += e**2
            result.frame_errors.append(FrameError(t, total))
        if i + 1 < len(frame_times):
            mid = t + 0.5 * (frame_times[i + 1] - t)
            # the previous frame's observed flags, kept even when it was skipped
            prev = [PREV_OBSERVED if observed else 0 for _, observed, _ in states]
            score(mid, snapshot_at(outfield, paths.field, mid), prev)

    if skipped:
        logger.warning(
            "half %d: skipped %d query times without full truth (substitutions?)",
            record.half_id,
            len(skipped),
        )
        if len(skipped) > 0.01 * (2 * len(frame_times) - 1):  # of the query times
            raise MalformedInputError(
                f"half {record.half_id}: {len(skipped)} query times lacked a full "
                "set of true outfielders; inputs look inconsistent"
            )
    return result


# --- aggregation -------------------------------------------------------------


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _headline(errors: array, flags: bytearray) -> dict[str, float]:
    err = np.frombuffer(errors)
    bits = np.frombuffer(flags, np.uint8)

    def where(on: int, off: int = 0) -> np.ndarray:
        """The errors, in order, whose flags have every bit of ``on`` and none of ``off``."""
        return err[(bits & (on | off)) == on]

    in_off = where(IN_PHASE | ESTIMATED)
    return {
        "mean_all_in_phase_m": _mean(where(IN_PHASE)),
        "mean_offcam_in_phase_m": _mean(in_off),
        "median_offcam_in_phase_m": float(np.median(in_off)) if len(in_off) else math.nan,
        "mean_all_out_of_phase_m": _mean(where(0, off=IN_PHASE)),
        "mean_prev_frame_observed_m": _mean(where(PREV_OBSERVED)),  # set out of phase only
        "mean_offcam_event_frames_m": _mean(where(IN_PHASE | ESTIMATED | AT_EVENT)),
        "n_predictions": float(len(in_off)),
    }


def _curve(errors: array, ages: array) -> list[dict]:
    """Error statistics per half-second bucket of occlusion age."""
    buckets: dict[float, list[float]] = {}
    for age, err in zip(ages, errors):
        if not math.isfinite(age):
            continue  # trajectory never observed; no occlusion age to bucket
        buckets.setdefault(round(age * 2.0) / 2.0, []).append(err)
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
    errors, ages, flags = array("d"), array("d"), bytearray()
    for res in results:
        errors += res.errors
        ages += res.ages
        flags += res.flags
    pooled = _headline(errors, flags)
    return {
        **pooled,
        "n_frames": sum(res.n_frames for res in results),
        "n_predictions": int(pooled["n_predictions"]),
        "per_half": {str(res.half_id): _headline(res.errors, res.flags) for res in results},
        "curve": _curve(errors, ages),
    }


def percentile_frames(frame_errors: Sequence[FrameError]) -> list[tuple[float, FrameError]]:
    """For each of ``EXAMPLE_PERCENTILES`` of total squared frame error, the
    first (in time) frame whose error is closest to that percentile value."""
    if len(frame_errors) < 100:
        raise ValueError(f"need at least 100 frames, got {len(frame_errors)}")
    ordered = sorted(frame_errors, key=lambda fe: fe.time)
    values = np.asarray([fe.total_squared_error for fe in ordered])
    out = []
    for pct in EXAMPLE_PERCENTILES:
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
        if player.tag.is_goalkeeper:
            lines.append(
                f'<rect x="{_f(pos.x - 1.6)}" y="{_f(pos.y - 1.6)}" width="3.20" '
                f'height="3.20" fill="{fill}" stroke="{edge}" stroke-width="0.30"{dash}/>'
            )
        else:
            lines.append(
                f'<circle cx="{_f(pos.x)}" cy="{_f(pos.y)}" r="1.80" '
                f'fill="{fill}" stroke="{edge}" stroke-width="0.30"{dash}/>'
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
