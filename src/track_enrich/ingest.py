"""Readers and writers for tracking CSVs, event data, 360-style frame JSON,
and the enriched output format.

Ground-truth tracking data arrives as one wide CSV per team (three header
rows, then one row per native frame with per-player x/y percentage pairs plus
the ball).  Times are rebased per half so every half starts just above zero,
and coordinates are scaled to metres on read.

All numeric output is serialized in fixed decimal with at least two
fractional digits (six digits of precision), so files are byte-deterministic
and round-trip exactly through the corresponding readers.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import (
    AWAY,
    HOME,
    PITCH_LENGTH_M,
    PITCH_WIDTH_M,
    EnrichedFrame,
    EnrichedPlayer,
    MalformedInputError,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
    other_team,
    scale_percent_coords,
)

logger = logging.getLogger(__name__)

# Ball-position disagreement (metres) beyond which a 360 frame is rejected as
# wrongly oriented rather than merely jittery.
DEFAULT_AXIS_DISAGREEMENT_M = 5.0

# Events with no shared identifier are matched to frames by timestamp within
# this window.
EVENT_MATCH_WINDOW_S = 2.0

# No half lasts longer than this (seconds); a 360 feed whose frame times span
# more is read in the wrong unit (e.g. milliseconds) rather than played.
MAX_HALF_SPAN_S = 2 * 3600.0

SOURCE_SIMULATED = "simulated"
SOURCE_BROADCAST_360 = "broadcast-360"


@dataclass(frozen=True)
class Event:
    """One entry of the on-ball event log."""

    time: float
    kind: str
    attacking_team: str
    ball: PitchPoint | None = None


@dataclass
class MatchHalf:
    """Ground-truth half: native-rate frames with all on-pitch players present.

    ``player_tracks`` keeps the per-column identities from the source file;
    the pipeline proper never uses them, but training and the evaluation
    oracle do.
    """

    half_id: int
    frames: list[ObservationFrame]
    events: list[Event] = field(default_factory=list)
    player_tracks: dict[str, Trajectory] = field(default_factory=dict)
    defends_left: dict[str, bool] = field(default_factory=dict)
    dropped_rows: int = 0
    time_offset: float = 0.0  # raw-clock seconds subtracted during rebasing

    @property
    def span(self) -> tuple[float, float]:
        return (self.frames[0].time, self.frames[-1].time)

    def frame_times(self) -> list[float]:
        cached = self.__dict__.get("_frame_times")
        if cached is None or len(cached) != len(self.frames):
            cached = [fr.time for fr in self.frames]
            self.__dict__["_frame_times"] = cached
        return cached


@dataclass
class DiscreteMatchRecord:
    """Broadcast-style record: partial-visibility frames, identity-free tags."""

    half_id: int
    frames: list[ObservationFrame]
    source: str = SOURCE_SIMULATED
    defends_left: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class AxisErrorRecord:
    """A 360 frame excluded from the output, and why."""

    frame_index: int
    reason: str
    ball_event: PitchPoint | None
    ball_frame: PitchPoint | None
    disagreement: float


# --- tracking CSV ------------------------------------------------------------


def _parse_cell(cell: str) -> float | None:
    cell = cell.strip()
    if not cell or cell.lower() == "nan":
        return None
    v = float(cell)
    return None if math.isnan(v) else v


def _read_team_csv(path: str | Path, team: str) -> dict[int, dict]:
    """Parse one wide per-team CSV into per-period raw columns."""
    path = Path(path)
    with path.open(newline="", encoding="utf8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 4:
        raise MalformedInputError(f"{path}: too short to contain headers and data")
    header = None
    header_idx = None
    for i, row in enumerate(rows[:4]):
        cells = [c.strip() for c in row]
        if cells and cells[0].lower() == "period":
            header, header_idx = cells, i
            break
    if header is None:
        raise MalformedInputError(f"{path}: no 'Period,...' header row found")
    entities = []  # (name, x column index)
    for i, cell in enumerate(header):
        if cell.lower().startswith("player") or cell.lower() == "ball":
            entities.append((cell, i))
    if not any(name.lower() == "ball" for name, _ in entities):
        raise MalformedInputError(f"{path}: header declares no ball columns")
    time_col = next(
        (i for i, c in enumerate(header) if c.lower().startswith("time")), None
    )
    if time_col is None:
        raise MalformedInputError(f"{path}: header declares no time column")

    periods: dict[int, dict] = {}
    for raw in rows[header_idx + 1 :]:
        if not raw or not raw[0].strip():
            continue
        period = int(float(raw[0]))
        t = _parse_cell(raw[time_col])
        if t is None:
            continue
        per = periods.setdefault(period, {"times": [], "coords": {}})
        per["times"].append(t)
        for name, xi in entities:
            x = _parse_cell(raw[xi]) if xi < len(raw) else None
            y = _parse_cell(raw[xi + 1]) if xi + 1 < len(raw) else None
            key = name if name.lower() == "ball" else f"{team}:{name}"
            per["coords"].setdefault(key, []).append(
                None if x is None or y is None else (x, y)
            )
    return periods


def _rebase_offset(times: Sequence[float]) -> float:
    """Offset so the half starts one native period after zero."""
    if len(times) < 2:
        return 0.0
    dt = times[1] - times[0]
    return times[0] - dt


def read_tracking_csv(
    home_path: str | Path, away_path: str | Path
) -> list[MatchHalf]:
    """Read per-team wide CSVs into one ground-truth MatchHalf per period."""
    home = _read_team_csv(home_path, HOME)
    away = _read_team_csv(away_path, AWAY)
    if sorted(home) != sorted(away):
        raise MalformedInputError(
            f"periods differ between files: {sorted(home)} vs {sorted(away)}"
        )
    halves = []
    for period in sorted(home):
        h, a = home[period], away[period]
        if len(h["times"]) != len(a["times"]):
            raise MalformedInputError(
                f"period {period}: row counts differ between home and away files"
            )
        offset = _rebase_offset(h["times"])
        times = [t - offset for t in h["times"]]

        # Per-player tracks, skipping entirely-empty columns (unused subs).
        coords: dict[str, list] = {}
        for src in (h, a):
            for key, vals in src["coords"].items():
                if key.lower() == "ball":
                    continue
                if any(v is not None for v in vals):
                    coords[key] = vals
        ball_home = h["coords"].get("Ball") or h["coords"].get("ball")
        ball_away = a["coords"].get("Ball") or a["coords"].get("ball")

        keeper_keys, defends = _infer_keepers_and_sides(coords)
        tags = {
            key: PlayerTag(team=key.split(":", 1)[0], is_goalkeeper=key in keeper_keys)
            for key in coords
        }
        first_seen = {
            key: next(i for i, v in enumerate(vals) if v is not None)
            for key, vals in coords.items()
        }

        frames: list[ObservationFrame] = []
        tracks = {key: Trajectory(tag=tags[key]) for key in coords}
        dropped = 0
        for i, t in enumerate(times):
            raw_ball = ball_home[i] if ball_home and ball_home[i] is not None else (
                ball_away[i] if ball_away else None
            )
            if raw_ball is None:
                dropped += 1
                continue
            src = f"{Path(home_path).name} row t={t:.2f}"
            ball = scale_percent_coords(*raw_ball, source=src)
            present = [key for key, vals in coords.items() if vals[i] is not None]
            # Substitution overlap can momentarily show 11 outfielders; keep
            # the longest-established ten so the frame invariant holds.
            for team in (HOME, AWAY):
                team_out = [
                    k for k in present if tags[k].team == team and not tags[k].is_goalkeeper
                ]
                if len(team_out) > 10:
                    team_out.sort(key=lambda k: (first_seen[k], k))
                    for extra in team_out[10:]:
                        present.remove(extra)
            visible = []
            for key in present:
                pos = scale_percent_coords(*coords[key][i], source=src)
                visible.append((tags[key], pos))
                tracks[key].append(t, pos)
            frames.append(ObservationFrame(time=t, ball=ball, visible=tuple(visible)))
        if dropped:
            logger.info("period %d: dropped %d rows with missing ball", period, dropped)
        if frames and dropped > 0.05 * (dropped + len(frames)):
            logger.warning(
                "period %d: %.1f%% of rows dropped for missing ball",
                period,
                100.0 * dropped / (dropped + len(frames)),
            )
        halves.append(
            MatchHalf(
                half_id=period,
                frames=frames,
                player_tracks=tracks,
                defends_left=defends,
                dropped_rows=dropped,
                time_offset=offset,
            )
        )
    return halves


def _infer_keepers_and_sides(
    coords: dict[str, list],
) -> tuple[set[str], dict[str, bool]]:
    """Pick each team's goalkeeper and defended side from mean positions.

    The defended side is where the team stands in the first populated row
    (teams line up in their own half at kickoff); the keeper is the player
    whose mean position sits closest to the defended goal.
    """
    defends: dict[str, bool] = {}
    keepers: set[str] = set()
    for team in (HOME, AWAY):
        keys = [k for k in coords if k.startswith(f"{team}:")]
        if not keys:
            continue
        first_xs = []
        for key in keys:
            v = next((v for v in coords[key] if v is not None), None)
            if v is not None:
                first_xs.append(v[0])
        defends_left = (sum(first_xs) / len(first_xs)) < 0.5 if first_xs else True
        defends[team] = defends_left
        goal_x = 0.0 if defends_left else PITCH_LENGTH_M
        best_key, best_dist = None, math.inf
        for key in sorted(keys):
            pts = [v for v in coords[key] if v is not None]
            if not pts:
                continue
            mx = sum(p[0] for p in pts) / len(pts) * PITCH_LENGTH_M
            my = sum(p[1] for p in pts) / len(pts) * PITCH_WIDTH_M
            dist = math.hypot(mx - goal_x, my - PITCH_WIDTH_M / 2)
            if dist < best_dist:
                best_key, best_dist = key, dist
        if best_key is not None:
            keepers.add(best_key)
    return keepers, defends


# --- event CSV ---------------------------------------------------------------


def read_events_csv(path: str | Path) -> dict[int, list[dict]]:
    """Raw event rows grouped by period; times still on the file's clock."""
    out: dict[int, list[dict]] = {}
    with Path(path).open(newline="", encoding="utf8") as fh:
        for row in csv.DictReader(fh):
            norm = {k.strip().lower(): (v or "").strip() for k, v in row.items()}
            try:
                period = int(float(norm.get("period", "1")))
                t = float(norm["start time [s]"])
            except (KeyError, ValueError):
                continue
            out.setdefault(period, []).append(
                {
                    "time": t,
                    "kind": norm.get("type", "").lower() or "unknown",
                    "team": norm.get("team", "").lower(),
                    "x": _parse_cell(norm.get("start x", "")),
                    "y": _parse_cell(norm.get("start y", "")),
                }
            )
    return out


def attach_events(halves: list[MatchHalf], events_path: str | Path) -> None:
    """Attach events to their halves, rebasing onto each half's time axis.

    Events share the tracking files' raw clock, so each half's tracking
    offset applies; events falling outside the half's frame span are dropped.
    """
    raw = read_events_csv(events_path)
    for half in halves:
        rows = raw.get(half.half_id, [])
        if not rows or not half.frames:
            continue
        span_end = half.frames[-1].time
        events = []
        for r in sorted(rows, key=lambda r: r["time"]):
            t = r["time"] - half.time_offset
            if not (0.0 <= t <= span_end):
                continue
            team = r["team"] if r["team"] in (HOME, AWAY) else HOME
            ball = None
            if r["x"] is not None and r["y"] is not None:
                try:
                    ball = scale_percent_coords(r["x"], r["y"], source="events")
                except MalformedInputError:
                    ball = None
            events.append(
                Event(time=t, kind=r["kind"], attacking_team=team, ball=ball)
            )
        half.events = events


# --- 360 frames --------------------------------------------------------------


def _flip(x: float, y: float) -> tuple[float, float]:
    return (PITCH_LENGTH_M - x, PITCH_WIDTH_M - y)


def flip_point(p: PitchPoint) -> PitchPoint:
    """Rotate a position half a turn about the pitch centre (an involution)."""
    fx, fy = _flip(p.x, p.y)
    return PitchPoint(fx, fy)


def _parse_timestamp(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    parts = str(value).split(":")
    seconds = 0.0
    for part in parts:
        seconds = seconds * 60.0 + float(part)
    return seconds


def read_360_frames(
    frames_path: str | Path,
    events_path: str | Path,
    *,
    axis_disagreement_m: float = DEFAULT_AXIS_DISAGREEMENT_M,
) -> tuple[list[DiscreteMatchRecord], list[AxisErrorRecord]]:
    """Read 360-style frame and event JSON into per-half discrete records.

    Frame coordinates arrive measured from the acting team's own goal line, so
    every frame is re-oriented onto a fixed axis (home attacks +x in half 1)
    using its linked event.  The orientation that best matches the event's
    ball position wins; frames that disagree by more than
    ``axis_disagreement_m`` under both orientations are excluded and reported.
    """
    frames_doc = json.loads(Path(frames_path).read_text(encoding="utf8"))
    events_doc = json.loads(Path(events_path).read_text(encoding="utf8"))
    if not isinstance(frames_doc, list) or not isinstance(events_doc, list):
        raise MalformedInputError("360 frame and event files must be JSON arrays")

    events_by_id: dict[str, dict] = {}
    events_sorted: list[dict] = []
    for ev in events_doc:
        rec = {
            "id": str(ev.get("id", "")),
            "time": _parse_timestamp(ev.get("timestamp", 0.0)),
            "period": int(ev.get("period", 1)),
            "team": str(ev.get("team", HOME)).lower(),
            "location": ev.get("location"),
        }
        if rec["id"]:
            events_by_id[rec["id"]] = rec
        events_sorted.append(rec)
    events_sorted.sort(key=lambda r: (r["period"], r["time"]))

    per_half: dict[int, list[ObservationFrame]] = {}
    seen_times: dict[int, set[float]] = {}
    errors: list[AxisErrorRecord] = []

    for idx, fr in enumerate(frames_doc):
        event = _frame_event(fr, events_by_id, events_sorted)
        if event is None:
            errors.append(AxisErrorRecord(idx, "orphan frame", None, None, math.inf))
            continue
        period = event["period"]
        # The acting team attacks +x in its own coordinates; on the fixed axis
        # home attacks +x in half 1, so flip whenever those disagree.
        event_flip = not ((event["team"] == HOME) == (period == 1))
        loc = event.get("location")
        if not loc or len(loc) < 2:
            errors.append(AxisErrorRecord(idx, "event has no location", None, None, math.inf))
            continue
        ex, ey = (float(loc[0]), float(loc[1]))
        if event_flip:
            ex, ey = _flip(ex, ey)
        ball_event = PitchPoint(ex, ey)

        freeze = fr.get("freeze_frame") or []
        if not all(
            isinstance(e.get("location"), (list, tuple)) and len(e["location"]) >= 2
            for e in freeze
        ):
            errors.append(
                AxisErrorRecord(idx, "malformed freeze frame", ball_event, None, math.inf)
            )
            continue
        actor = next((e for e in freeze if e.get("actor")), None)
        if actor is None:
            errors.append(
                AxisErrorRecord(idx, "no actor in frame", ball_event, None, math.inf)
            )
            continue
        ax, ay = (float(actor["location"][0]), float(actor["location"][1]))
        fx, fy = _flip(ax, ay)
        d_same = math.hypot(ax - ex, ay - ey)
        d_flip = math.hypot(fx - ex, fy - ey)
        if d_same <= d_flip:
            disagreement, use_flip, ball_frame = d_same, False, PitchPoint(ax, ay)
        else:
            disagreement, use_flip, ball_frame = d_flip, True, PitchPoint(fx, fy)
        if disagreement > axis_disagreement_m:
            errors.append(
                AxisErrorRecord(idx, "axis disagreement", ball_event, ball_frame, disagreement)
            )
            continue

        visible = []
        for entry in freeze:
            ex_, ey_ = float(entry["location"][0]), float(entry["location"][1])
            if use_flip:
                ex_, ey_ = _flip(ex_, ey_)
            team = event["team"] if entry.get("teammate") or entry.get("actor") else other_team(event["team"])
            tag = PlayerTag(team=team, is_goalkeeper=bool(entry.get("keeper")))
            visible.append((tag, PitchPoint(ex_, ey_)))
        try:
            frame = ObservationFrame(time=event["time"], ball=ball_event, visible=tuple(visible))
        except MalformedInputError:
            errors.append(
                AxisErrorRecord(idx, "too many players for a team", ball_event, ball_frame, disagreement)
            )
            continue
        if frame.time in seen_times.setdefault(period, set()):
            errors.append(
                AxisErrorRecord(idx, "duplicate timestamp", ball_event, ball_frame, disagreement)
            )
            continue
        seen_times[period].add(frame.time)
        per_half.setdefault(period, []).append(frame)

    records = []
    for period in sorted(per_half):
        frames = sorted(per_half[period], key=lambda f: f.time)
        span = frames[-1].time - frames[0].time
        if span > MAX_HALF_SPAN_S:
            raise MalformedInputError(
                f"{frames_path}: period {period} frame times span {span:g} s, more than "
                f"{MAX_HALF_SPAN_S:g} s (timestamps not in seconds?)"
            )
        records.append(
            DiscreteMatchRecord(
                half_id=period,
                frames=frames,
                source=SOURCE_BROADCAST_360,
                defends_left={HOME: period == 1, AWAY: period != 1},
            )
        )
    return records, errors


def _frame_event(fr: dict, by_id: dict, events_sorted: list[dict]) -> dict | None:
    for key in ("event_uuid", "event_id", "id"):
        if key in fr and str(fr[key]) in by_id:
            return by_id[str(fr[key])]
        if key in fr:
            return None  # declared an id that matches no event
    if "timestamp" in fr:
        t = _parse_timestamp(fr["timestamp"])
        period = int(fr.get("period", 1))
        best = None
        for ev in events_sorted:
            if ev["period"] != period:
                continue
            d = abs(ev["time"] - t)
            if d <= EVENT_MATCH_WINDOW_S and (best is None or d < abs(best["time"] - t)):
                best = ev
        return best
    return None


# --- serialization -----------------------------------------------------------


def _fmt(v: float) -> str:
    """Fixed decimal, six digits of precision, at least two kept."""
    if v != v or math.isinf(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    s = f"{v:.6f}"
    whole, frac = s.split(".")
    frac = frac.rstrip("0")
    if len(frac) < 2:
        frac = frac.ljust(2, "0")
    if whole in ("-0", "-"):  # avoid negative zero
        if not frac.strip("0"):
            whole = "0"
    return f"{whole}.{frac}"


def _player_json(tag: PlayerTag, pos: PitchPoint, visible: bool | None) -> str:
    parts = [
        f'"team": "{tag.team}"',
        f'"keeper": {"true" if tag.is_goalkeeper else "false"}',
        f'"x": {_fmt(pos.x)}',
        f'"y": {_fmt(pos.y)}',
    ]
    if visible is not None:
        parts.append(f'"visible": {"true" if visible else "false"}')
    return "{" + ", ".join(parts) + "}"


def _frame_json(
    time: float, ball: PitchPoint, players: Iterable[tuple[PlayerTag, PitchPoint, bool | None]]
) -> str:
    body = ", ".join(_player_json(tag, pos, vis) for tag, pos, vis in players)
    return (
        f'{{"time_s": {_fmt(time)}, '
        f'"ball": {{"x": {_fmt(ball.x)}, "y": {_fmt(ball.y)}}}, '
        f'"players": [{body}]}}'
    )


def _write_frame_array(path: Path, frame_lines: list[str]) -> None:
    with path.open("w", encoding="utf8") as fh:
        fh.write("[\n")
        for i, line in enumerate(frame_lines):
            fh.write("  " + line + (",\n" if i + 1 < len(frame_lines) else "\n"))
        fh.write("]\n")


def write_enriched(frames: Sequence[EnrichedFrame], path: str | Path) -> None:
    """Write enriched frames as a JSON array with per-player visibility flags."""
    if not frames:
        raise ValueError("refusing to write an empty enriched file")
    lines = [
        _frame_json(
            fr.time,
            fr.ball,
            [(p.tag, p.position, p.provenance == "observed") for p in fr.players],
        )
        for fr in frames
    ]
    _write_frame_array(Path(path), lines)


def read_enriched(path: str | Path) -> list[EnrichedFrame]:
    doc = json.loads(Path(path).read_text(encoding="utf8"))
    frames = []
    for fr in doc:
        players = tuple(
            EnrichedPlayer(
                tag=PlayerTag(team=p["team"], is_goalkeeper=p["keeper"]),
                position=PitchPoint(p["x"], p["y"]),
                provenance="observed" if p["visible"] else "estimated",
            )
            for p in fr["players"]
        )
        frames.append(
            EnrichedFrame(
                time=fr["time_s"],
                ball=PitchPoint(fr["ball"]["x"], fr["ball"]["y"]),
                players=players,
            )
        )
    return frames


def write_discrete(record: DiscreteMatchRecord, path: str | Path) -> None:
    path = Path(path)
    lines = [
        _frame_json(fr.time, fr.ball, [(tag, pos, None) for tag, pos in fr.visible])
        for fr in record.frames
    ]
    with path.open("w", encoding="utf8") as fh:
        fh.write("{\n")
        fh.write(f'  "half_id": {record.half_id},\n')
        fh.write(f'  "source": "{record.source}",\n')
        fh.write(
            '  "defends_left": {"home": %s, "away": %s},\n'
            % (
                "true" if record.defends_left.get(HOME, True) else "false",
                "true" if record.defends_left.get(AWAY, False) else "false",
            )
        )
        fh.write('  "frames": [\n')
        for i, line in enumerate(lines):
            fh.write("    " + line + (",\n" if i + 1 < len(lines) else "\n"))
        fh.write("  ]\n}\n")


def read_discrete(path: str | Path) -> DiscreteMatchRecord:
    doc = json.loads(Path(path).read_text(encoding="utf8"))
    frames = []
    for fr in doc["frames"]:
        visible = tuple(
            (
                PlayerTag(team=p["team"], is_goalkeeper=p["keeper"]),
                PitchPoint(p["x"], p["y"]),
            )
            for p in fr["players"]
        )
        frames.append(
            ObservationFrame(
                time=fr["time_s"],
                ball=PitchPoint(fr["ball"]["x"], fr["ball"]["y"]),
                visible=visible,
            )
        )
    return DiscreteMatchRecord(
        half_id=doc["half_id"],
        frames=frames,
        source=doc["source"],
        defends_left={HOME: doc["defends_left"]["home"], AWAY: doc["defends_left"]["away"]},
    )


def write_axis_errors(errors: Sequence[AxisErrorRecord], path: str | Path) -> None:
    lines = []
    for e in errors:
        parts = [f'"frame_index": {e.frame_index}', f'"reason": "{e.reason}"']
        for name, p in (("ball_event", e.ball_event), ("ball_frame", e.ball_frame)):
            if p is None:
                parts.append(f'"{name}": null')
            else:
                parts.append(f'"{name}": {{"x": {_fmt(p.x)}, "y": {_fmt(p.y)}}}')
        parts.append(
            f'"disagreement_m": {_fmt(e.disagreement) if math.isfinite(e.disagreement) else "null"}'
        )
        lines.append("{" + ", ".join(parts) + "}")
    _write_frame_array(Path(path), lines)
