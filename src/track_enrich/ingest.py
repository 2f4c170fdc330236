"""Readers and writers for tracking CSVs, event data, 360-style frame JSON,
discrete halves and the assigned trajectories, and the enriched output's writer.

Tracking data is one wide CSV per team (Metrica layout; see the README for
the full contract).  The reader takes the ``Period`` column, the first
``Time...`` column and each ``Player...`` and ``Ball`` column with its y in
the next column.  Blank or NaN cells mark an absent player or ball; rows
without a period or time are skipped, rows without a ball (home, else away)
are dropped and counted, and a row with more than ten outfielders of a team
keeps the ten first seen (ties by column name).  Each period becomes a half
rebased to start one native period after zero.  Unparseable cells, a period
that is not a whole number from 0 to 2**53, home and away times that differ
or do not increase, a period whose times span more than MAX_HALF_SPAN_S or
that has no row with a ball, and kept coordinates outside [-0.05, 1.05] raise
MalformedInputError naming the file and the CSV row or rows (exit code 2 on
the command line); a file that is not UTF-8 text raises it naming the file.
The two files are read in step, each row's cells going straight into its
period's one buffer, which becomes the half's cells in place.  A read half is
one TruthTable of arrays: the commands read its rows and columns directly,
and build no frame or track object per row.

Every text input (CSV, JSON, and the config file in ``config``) may start
with a UTF-8 byte-order mark, as spreadsheet exports write; it is skipped.
Outputs are written without one.

All numeric output is serialized in fixed decimal with at least two
fractional digits (six digits of precision), so files are byte-deterministic
and round-trip exactly through the corresponding readers.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import struct
import sys
from array import array
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, compress, islice, zip_longest
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .geometry import (
    AWAY,
    HOME,
    PERCENT_TOLERANCE,
    PITCH_LENGTH_M,
    PITCH_WIDTH_M,
    X_BOUNDS,
    Y_BOUNDS,
    EnrichedFrame,
    MalformedInputError,
    ObservationFrame,
    PitchPoint,
    PlayerTag,
    Trajectory,
    is_finite_number,
    near_pitch,
    nearest_time_index,
    other_team,
)

if TYPE_CHECKING:
    import numpy as np

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

# A sampling, grid or output period puts at most this many points on a half
# of MAX_HALF_SPAN_S, so a tiny period is a configuration error, not a hang.
MAX_HALF_GRID_POINTS = 1_000_000

# A period is a half's id: a whole number below this, where a float still
# holds every whole number exactly.
MAX_PERIOD = 2**53
_NOT_A_PERIOD = "period {!r} is not a whole number from 0 to 2**53"

SOURCE_SIMULATED = "simulated"
SOURCE_BROADCAST_360 = "broadcast-360"


@dataclass(frozen=True)
class Event:
    """One entry of the on-ball event log.  The events CSV reader
    (``attach_events``) reads no location, so it leaves ``ball`` None."""

    time: float
    kind: str
    attacking_team: str
    ball: PitchPoint | None = None


@dataclass(frozen=True, eq=False)  # equal by identity: arrays do not compare to one bool
class TruthTable:
    """One half's truth: row i is the native frame at ``times[i]``, column 0
    the ball and column j > 0 the player ``keys[j - 1]`` with tag ``tags[j - 1]``."""

    times: list[float]  # seconds since the start of the half, increasing
    cells: np.ndarray  # (rows, 1 + players, 2) metres, the ball first
    used: np.ndarray  # (rows, 1 + players) True where a cell is on the pitch
    keys: list[str]  # the player columns' "<team>:<Player column>"
    tags: list[PlayerTag]

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class MatchHalf:
    """Ground-truth half: native-rate rows with every on-pitch player.

    ``frames`` holds the rows as one TruthTable; its player columns keep the
    source file's identities, which the pipeline proper never uses but
    training and the evaluation oracle do.
    """

    half_id: int
    frames: TruthTable
    events: list[Event] = field(default_factory=list)
    defends_left: dict[str, bool] = field(default_factory=dict)
    dropped_rows: int = 0
    time_offset: float = 0.0  # raw-clock seconds subtracted during rebasing

    @property
    def times(self) -> list[float]:
        """Each row's time."""
        return self.frames.times


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


class _Period(NamedTuple):
    """One period's timed rows in file order, as the two files are read."""

    cells: array  # per row the ball (home's, else away's), then each home and each away player; x, y
    times: array
    home_rows: array  # CSV row numbers
    away_rows: array
    home_ball: bytearray  # 1 where the row's ball is the home file's


# A move of kept cells copies at most this many bytes at a time.
_MOVE_BLOCK_BYTES = 1 << 16


def _timed_rows(path: Path, team: str):
    """Yield one wide per-team CSV's player keys, "<team>:<Player column>" in
    header order, then (CSV row, cells) for each timed data row: its period,
    time, ball x and y, then each player's x and y.

    Untimed rows are skipped.  A malformed cell raises at once; a period that
    is not whole or an infinite time raises once the rest of the file has
    parsed, as a malformed cell anywhere in the file comes first.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        head = list(islice(reader, 4))
        if len(head) < 4:
            raise MalformedInputError(f"{path}: too short to contain headers and data")
        header_idx = next(
            (i for i, row in enumerate(head) if row and row[0].strip().lower() == "period"), None
        )
        if header_idx is None:
            raise MalformedInputError(f"{path}: no 'Period,...' header row found")
        header = [c.strip() for c in head[header_idx]]
        ball = next((i for i, c in enumerate(header) if c.lower() == "ball"), None)
        if ball is None:
            raise MalformedInputError(f"{path}: header declares no ball columns")
        time_col = next((i for i, c in enumerate(header) if c.lower().startswith("time")), None)
        if time_col is None:
            raise MalformedInputError(f"{path}: header declares no time column")
        players = [i for i, c in enumerate(header) if c.lower().startswith("player")]
        keys = [f"{team}:{header[i]}" for i in players]
        if len(set(keys)) != len(keys):
            raise MalformedInputError(f"{path}: header repeats a player column")
        yield keys
        cols = [0, time_col, *(c for i in [ball, *players] for c in (i, i + 1))]
        pick, pad = itemgetter(*cols), [""] * (max(cols) + 1)
        fault, whole = None, math.nan
        for n, raw in enumerate(chain(head[header_idx + 1 :], reader), start=header_idx + 2):
            if not (raw and raw[0].strip()):
                continue
            cells = pick(raw if len(raw) >= len(pad) else raw + pad[len(raw) :])
            try:
                values = list(map(float, cells))
            except ValueError:  # a blank cell, else a malformed one
                values = [_number(path, n, cell) for cell in cells]
            if fault:
                continue
            period, time = values[0], values[1]
            if period != whole:  # the last whole period seen; NaN differs from all
                if not (0 <= period < MAX_PERIOD and period.is_integer()):
                    fault = f"{path} row {n}: {_NOT_A_PERIOD.format(period)}"
                    continue
                whole = period
            if time - time:  # NaN, untimed, or infinite
                if time != time:
                    continue
                fault = f"{path} row {n}: time {time!r} is not finite"
                continue
            yield n, values
    if fault:
        raise MalformedInputError(fault)


def _utf8_lines(fh, path: str | Path):
    """The lines of a text file opened as UTF-8; other bytes raise
    MalformedInputError naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as e:
        raise MalformedInputError(f"{path} is not UTF-8 text: {e}") from None


def _number(path: Path, n: int, cell: str) -> float:
    """A CSV cell as a float: NaN when blank, MalformedInputError when not a number."""
    cell = cell.strip()
    try:
        return float(cell or "nan")
    except ValueError:
        raise MalformedInputError(f"{path} row {n}: {cell!r} is not a number") from None


def read_tracking_csv(home_path: str | Path, away_path: str | Path) -> list[MatchHalf]:
    """Read per-team wide CSVs into one ground-truth MatchHalf per period.

    The files are read in lockstep: the k-th timed rows of both make one row,
    whose cells go straight into its period's one buffer.  Faults are raised
    in the order of reading one whole file after the other: the home file's,
    the away file's, then a timed-row count or a row that differs between
    them, then each period's in period order.
    """
    paths = Path(home_path), Path(away_path)
    home, away = _timed_rows(paths[0], HOME), _timed_rows(paths[1], AWAY)
    with closing(home), closing(away):
        keys = next(home)
        try:
            keys += next(away)
            periods = _read_in_lockstep(home, away, paths, len(keys))
        except (MalformedInputError, OSError, csv.Error):
            for _ in home:  # a fault of the home file comes first
                pass
            raise
    # Each period's row numbers go once its half is built; its cells stay as the half's.
    return [_match_half(int(p), periods.pop(p), paths, keys) for p in sorted(periods)]


def _read_in_lockstep(home, away, paths: tuple[Path, Path], players: int) -> dict[float, _Period]:
    """Pair the k-th timed rows of both files into their period's buffers."""
    periods: dict[float, _Period] = {}
    pack = struct.Struct(f"{2 + 2 * players}d").pack  # one row's cells, as the buffer holds them
    differ, paired = None, 0
    for h, a in zip_longest(home, away):
        if h is None or a is None:  # one file has more timed rows: count them all
            more = paired + 1 + sum(1 for _ in (home if h else away))
            counts = (more, paired) if h else (paired, more)
            raise MalformedInputError(
                f"{paths[0]} has {counts[0]} timed rows but {paths[1]} {counts[1]}"
            )
        (hn, hv), (an, av) = h, a
        if differ is None and (hv[0] != av[0] or hv[1] != av[1]):
            differ = f"{paths[1]} row {an}: period or time differs from {paths[0]} row {hn}"
        rows = periods.get(hv[0])
        if rows is None:
            rows = periods[hv[0]] = _Period(array("d"), array("d"), array("q"), array("q"), bytearray())
        from_home = hv[2] == hv[2] and hv[3] == hv[3]  # neither is NaN
        if not from_home:
            hv[2:4] = av[2:4]
        rows.cells.frombytes(pack(*islice(hv, 2, None), *islice(av, 4, None)))
        rows.times.append(hv[1])
        rows.home_rows.append(hn)
        rows.away_rows.append(an)
        rows.home_ball.append(from_home)
        paired += 1
    if not paired:
        raise MalformedInputError(f"{paths[0]}: no data row has both a period and a time")
    if differ:
        raise MalformedInputError(differ)
    return periods


def _match_half(period: int, rows: _Period, paths: tuple[Path, Path], keys: list[str]) -> MatchHalf:
    """One period's MatchHalf, built in its cell buffer: rows without a ball
    and columns never present are moved out, and the rest scaled in place."""
    import numpy as np

    times, n = np.frombuffer(rows.times), len(rows.times)
    stuck = np.flatnonzero(np.diff(times) <= 0)
    if stuck.size:
        raise MalformedInputError(
            f"{paths[0]} row {rows.home_rows[stuck[0] + 1]}: time does not increase"
        )
    if times[-1] - times[0] > MAX_HALF_SPAN_S:
        raise MalformedInputError(
            f"{paths[0]} row {rows.home_rows[-1]}: period {period} times span "
            f"{times[-1] - times[0]:g} s, more than {MAX_HALF_SPAN_S:g} s"
        )
    offset = float(times[0] - (times[1] - times[0])) if n >= 2 else 0.0
    xy = np.frombuffer(rows.cells).reshape(n, 1 + len(keys), 2)  # fractions; NaN when absent
    kept = np.flatnonzero(~np.isnan(xy[:, 0]).any(axis=1))  # the rows with a ball
    if not len(kept):
        where = f"rows {rows.home_rows[0]}-{rows.home_rows[-1]}"
        raise MalformedInputError(f"{paths[0]} {where}: period {period} has no row with a ball")
    dropped = n - len(kept)
    if dropped:
        level = logging.WARNING if dropped > 0.05 * n else logging.INFO
        logger.log(level, "period %d: dropped %d of %d rows without a ball", period, dropped, n)
    present = ~np.isnan(xy[:, 1:]).any(axis=2)
    on_pitch = present.any(axis=0)  # False for unused substitutes
    keys = list(compress(keys, on_pitch))
    columns = np.flatnonzero(on_pitch) + 1
    present = present[:, on_pitch]

    first_seen = present.argmax(axis=0)
    keepers, defends = _infer_keepers_and_sides(keys, [xy[:, j] for j in columns], present, first_seen)
    del xy  # the buffer is moved and truncated below
    tags = [PlayerTag(team=k.split(":", 1)[0], is_goalkeeper=k in keepers) for k in keys]
    used = np.empty((len(kept), 1 + len(keys)), dtype=bool)
    used[:, 0] = True
    used[:, 1:] = present[kept] if dropped else present
    del present
    for team in (HOME, AWAY):  # substitution overlap: the longest-established ten stay
        cols = sorted(
            (j for j, tag in enumerate(tags, start=1) if tag.team == team and not tag.is_goalkeeper),
            key=lambda j: (first_seen[j - 1], keys[j - 1]),
        )
        # A count reaches at most len(cols), so the narrowest type that holds it will do.
        used[:, cols] &= np.cumsum(used[:, cols], axis=1, dtype=np.min_scalar_type(len(cols))) <= 10
    if dropped or not on_pitch.all():
        _move_to_front(rows.cells, kept, np.repeat([True, *on_pitch], 2))
    cells = np.frombuffer(rows.cells).reshape(len(kept), 1 + len(keys), 2)
    lo, hi = -PERCENT_TOLERANCE, 1.0 + PERCENT_TOLERANCE
    # Per-cell masks only when some cell, used or not, lies out of range.
    if np.fmin.reduce(cells, None, initial=lo) < lo or np.fmax.reduce(cells, None, initial=hi) > hi:
        outside = cells < lo
        outside |= cells > hi
        outside &= used[..., None]
        if outside.any():
            i, j, axis = np.argwhere(outside)[0]
            from_home = tags[j - 1].team == HOME if j else rows.home_ball[kept[i]]
            path, numbers = (paths[0], rows.home_rows) if from_home else (paths[1], rows.away_rows)
            raise MalformedInputError(
                f"percentage coordinate {'xy'[axis]}={float(cells[i, j, axis])!r} in "
                f"{path} row {numbers[kept[i]]} outside [-0.05, 1.05]"
            )
    scale = np.array([PITCH_LENGTH_M, PITCH_WIDTH_M])
    cells *= scale
    np.maximum(cells, 0.0, out=cells)
    np.minimum(cells, scale, out=cells)

    table = TruthTable((times[kept] - offset).tolist(), cells, used, keys, tags)
    return MatchHalf(period, table, defends_left=defends, dropped_rows=dropped, time_offset=offset)


def _move_to_front(buf: array, rows: np.ndarray, cells: np.ndarray) -> None:
    """Keep the rows ``rows`` of a buffer of rows of ``len(cells)`` doubles
    and, in each, the doubles where ``cells`` is True: move each kept row up
    to follow the one before, then truncate the buffer.

    A block of rows is copied out before it moves, and never reaches a row not
    yet moved (a row's new place starts no later than its old one), so no
    step copies the whole buffer.
    """
    import numpy as np

    flat, picks = np.frombuffer(buf), np.flatnonzero(cells)
    table, size = flat.reshape(-1, len(cells)), len(picks)
    step = max(1, _MOVE_BLOCK_BYTES // (8 * size))
    for r in range(0, len(rows), step):
        block = table[np.ix_(rows[r : r + step], picks)]
        flat[r * size : r * size + block.size] = block.ravel()
    del flat, table  # no view may outlive the buffer's resize
    del buf[len(rows) * size :]


def _infer_keepers_and_sides(
    keys: list[str], xy: list[np.ndarray], present: np.ndarray, first_seen: np.ndarray
) -> tuple[set[str], dict[str, bool]]:
    """Pick each team's goalkeeper and defended side from mean positions.

    ``xy`` holds each player's (rows, 2) fractions.  The defended side is
    where the team stands in the first populated row (teams line up in their
    own half at kickoff); the keeper is the player whose mean position sits
    closest to that goal.  Both means sum left to right, as ``sum()`` does
    only before Python 3.12, so the choice does not depend on the interpreter.
    """
    defends: dict[str, bool] = {}
    keepers: set[str] = set()
    for team in (HOME, AWAY):
        cols = [j for j, k in enumerate(keys) if k.startswith(f"{team}:")]
        if not cols:
            continue
        total = 0.0
        for j in cols:
            total += xy[j][first_seen[j], 0].item()
        defends[team] = total / len(cols) < 0.5
        goal_x = 0.0 if defends[team] else PITCH_LENGTH_M

        def goal_distance(j: int) -> float:
            seen = xy[j][present[:, j]]
            sx, sy = seen.cumsum(axis=0)[-1].tolist()
            mx, my = sx / len(seen) * PITCH_LENGTH_M, sy / len(seen) * PITCH_WIDTH_M
            return math.hypot(mx - goal_x, my - PITCH_WIDTH_M / 2)

        keepers.add(keys[min(sorted(cols, key=keys.__getitem__), key=goal_distance)])
    return keepers, defends


# --- event CSV ---------------------------------------------------------------


def attach_events(halves: list[MatchHalf], events_path: str | Path) -> None:
    """Attach the event CSV's events to their halves, on each half's time axis.

    Events share the tracking files' raw clock, so each half's tracking
    offset applies; events falling outside the half's frame span are dropped.
    The location columns are not read.  A file without a ``Start Time [s]``
    column, a team other than Home or Away, a period that is not a whole
    number from 0 to 2**53 and a start time that is not a finite number raise
    MalformedInputError naming the file and the CSV row; a file that is not
    UTF-8 text raises it naming the file.
    """
    raw: dict[int, list[Event]] = {}
    with Path(events_path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(_utf8_lines(fh, events_path))
        if "start time [s]" not in [(k or "").strip().lower() for k in reader.fieldnames or ()]:
            raise MalformedInputError(f"{events_path} row 1: no 'Start Time [s]' column")
        for row in reader:
            where = f"{events_path} row {reader.line_num}"
            norm = {k.strip().lower(): (v or "").strip() for k, v in row.items() if k is not None}
            team = norm.get("team", "").lower()
            if team not in (HOME, AWAY):
                raise MalformedInputError(f"{where}: team {norm.get('team')!r} is not Home or Away")
            try:
                period, t = float(norm.get("period", "1")), float(norm["start time [s]"])
            except ValueError:
                period = t = math.nan
            if not (0 <= period < MAX_PERIOD and period.is_integer() and math.isfinite(t)):
                raise MalformedInputError(
                    f"{where}: {_NOT_A_PERIOD.format(norm.get('period'))}, or start time "
                    f"{norm['start time [s]']!r} is not a finite number"
                )
            kind = norm.get("type", "").lower() or "unknown"
            raw.setdefault(int(period), []).append(Event(t, kind, team))
    for half in halves:
        rows = raw.get(half.half_id, [])
        if not rows or not half.frames:
            continue
        events = []
        for ev in sorted(rows, key=lambda ev: ev.time):
            t = ev.time - half.time_offset
            if 0.0 <= t <= half.times[-1]:
                events.append(Event(t, ev.kind, ev.attacking_team))
        half.events = events


# --- 360 frames --------------------------------------------------------------


def _flip(x: float, y: float) -> tuple[float, float]:
    return (PITCH_LENGTH_M - x, PITCH_WIDTH_M - y)


def _seconds(value) -> float:
    """Finite seconds from a number or an ``[hh:]mm:ss.sss`` string."""
    seconds = 0.0
    try:
        # a bool is not a number: its text does not parse
        for part in [value] if type(value) in (int, float) else str(value).split(":"):
            seconds = seconds * 60.0 + float(part)
    except (ValueError, OverflowError):
        seconds = math.nan
    if not math.isfinite(seconds):
        raise MalformedInputError(f"timestamp {value!r} is not a finite time")
    return seconds


def _period(value) -> int:
    """A 360 period: a number other than a bool, or a numeric string, that is
    whole and in [0, MAX_PERIOD), the CSVs' rule."""
    try:
        period = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        period = math.nan
    if not (0 <= period < MAX_PERIOD and period.is_integer()):
        raise MalformedInputError(_NOT_A_PERIOD.format(value))
    return int(period)


def _xy(location) -> tuple[float, float] | None:
    """The first two entries of a JSON location, if they are numbers other
    than bools, or numeric strings, on or near the pitch (``near_pitch``)."""
    if not isinstance(location, (list, tuple)) or len(location) < 2:
        return None
    if bool in map(type, location[:2]):
        return None
    try:
        x, y = float(location[0]), float(location[1])
    except (TypeError, ValueError, OverflowError):
        return None
    return (x, y) if near_pitch(x, y) else None


class _Excluded(Exception):
    """A 360 frame left out; the arguments are its AxisErrorRecord after the index."""


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
    A malformed event raises MalformedInputError; a frame that cannot be read
    is excluded, so the records hold only finite times and positions within
    ``X_BOUNDS`` and ``Y_BOUNDS``.
    """
    frames_doc, events_doc = load_json(frames_path), load_json(events_path)
    if not isinstance(frames_doc, list) or not isinstance(events_doc, list):
        raise MalformedInputError("360 frame and event files must be JSON arrays")

    events = []
    for i, ev in enumerate(events_doc):
        try:
            team = str(ev.get("team", HOME)).lower() if isinstance(ev, dict) else None
            if team not in (HOME, AWAY):
                raise MalformedInputError("not an object with a home or away team")
            events.append(
                {
                    "id": str(ev.get("id", "")),
                    "time": _seconds(ev.get("timestamp", 0.0)),
                    "period": _period(ev.get("period", 1)),
                    "team": team,
                    "location": _xy(ev.get("location")),
                }
            )
        except MalformedInputError as e:
            raise MalformedInputError(f"{events_path}: event {i}: {e}") from None
    by_id = {ev["id"]: ev for ev in events if ev["id"]}
    by_period: dict[int, tuple[list[float], list[dict]]] = {}
    for ev in sorted(events, key=lambda r: (r["period"], r["time"])):
        times, evs = by_period.setdefault(ev["period"], ([], []))
        times.append(ev["time"])
        evs.append(ev)

    per_half: dict[int, dict[float, ObservationFrame]] = {}
    errors: list[AxisErrorRecord] = []
    for idx, fr in enumerate(frames_doc):
        try:
            _add_360_frame(fr, by_id, by_period, axis_disagreement_m, per_half)
        except _Excluded as e:
            errors.append(AxisErrorRecord(idx, *e.args))

    records = []
    for period in sorted(per_half):
        frames = sorted(per_half[period].values(), key=lambda f: f.time)
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


def _add_360_frame(
    fr, by_id: dict, by_period: dict, axis_disagreement_m: float, per_half: dict
) -> None:
    """Orient one 360 frame into ``per_half``, or raise _Excluded saying why not."""
    if not isinstance(fr, dict):
        raise _Excluded("malformed frame", None, None, math.inf)
    try:
        event = _frame_event(fr, by_id, by_period)
    except MalformedInputError:
        raise _Excluded("malformed frame", None, None, math.inf) from None
    if event is None:
        raise _Excluded("orphan frame", None, None, math.inf)
    if event["location"] is None:
        raise _Excluded("event has no location", None, None, math.inf)
    ex, ey = event["location"]
    # The acting team attacks +x in its own coordinates; on the fixed axis
    # home attacks +x in half 1, so flip whenever those disagree.
    if (event["team"] == HOME) != (event["period"] == 1):
        ex, ey = _flip(ex, ey)
    ball_event = PitchPoint(ex, ey)

    freeze = fr.get("freeze_frame") or []
    if not isinstance(freeze, list):
        freeze = [None]
    locations = [_xy(e.get("location")) if isinstance(e, dict) else None for e in freeze]
    if None in locations or any(
        type(e.get(flag, False)) is not bool for e in freeze for flag in ("actor", "teammate", "keeper")
    ):
        raise _Excluded("malformed freeze frame", ball_event, None, math.inf)
    actor = next((k for k, e in enumerate(freeze) if e.get("actor")), None)
    if actor is None:
        raise _Excluded("no actor in frame", ball_event, None, math.inf)
    ax, ay = locations[actor]
    fx, fy = _flip(ax, ay)
    d_same, d_flip = math.hypot(ax - ex, ay - ey), math.hypot(fx - ex, fy - ey)
    use_flip = d_flip < d_same
    disagreement = d_flip if use_flip else d_same
    ball_frame = PitchPoint(fx, fy) if use_flip else PitchPoint(ax, ay)
    if disagreement > axis_disagreement_m:
        raise _Excluded("axis disagreement", ball_event, ball_frame, disagreement)

    visible, team = [], event["team"]
    for entry, (x, y) in zip(freeze, locations):
        side = team if entry.get("teammate") or entry.get("actor") else other_team(team)
        tag = PlayerTag(team=side, is_goalkeeper=bool(entry.get("keeper")))
        visible.append((tag, PitchPoint(*_flip(x, y)) if use_flip else PitchPoint(x, y)))
    try:
        frame = ObservationFrame(time=event["time"], ball=ball_event, visible=tuple(visible))
    except MalformedInputError:
        raise _Excluded("too many players for a team", ball_event, ball_frame, disagreement) from None
    frames = per_half.setdefault(event["period"], {})
    if frame.time in frames:
        raise _Excluded("duplicate timestamp", ball_event, ball_frame, disagreement)
    frames[frame.time] = frame


def _frame_event(
    fr: dict, by_id: dict[str, dict], by_period: dict[int, tuple[list[float], list[dict]]]
) -> dict | None:
    """The frame's event: by declared id, else the nearest in time within
    ``EVENT_MATCH_WINDOW_S`` (ties go to the earlier event)."""
    for key in ("event_uuid", "event_id", "id"):
        if key in fr:
            return by_id.get(str(fr[key]))
    if "timestamp" in fr:
        t = _seconds(fr["timestamp"])
        times, events = by_period.get(_period(fr.get("period", 1)), ([], []))
        if times:
            i = nearest_time_index(times, t)
            if abs(times[i] - t) <= EVENT_MATCH_WINDOW_S:
                return events[i]
    return None


# --- serialization -----------------------------------------------------------


def _fmt(v: float) -> str:
    """Fixed decimal, six digits of precision, at least two kept."""
    if v != v or math.isinf(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    s = f"{v:.6f}"
    s = s[:-4] + s[-4:].rstrip("0")  # the first two decimals stay
    return "0.00" if s == "-0.00" else s  # avoid negative zero


def _player_json(tag: PlayerTag, pos: PitchPoint, visible: bool | None) -> str:
    vis = "" if visible is None else f', "visible": {"true" if visible else "false"}'
    return (
        f'{{"team": "{tag.team}", "keeper": {"true" if tag.is_goalkeeper else "false"}, '
        f'"x": {_fmt(pos.x)}, "y": {_fmt(pos.y)}{vis}}}'
    )


def _frame_json(
    time: float, ball: PitchPoint, players: Iterable[tuple[PlayerTag, PitchPoint, bool | None]]
) -> str:
    body = ", ".join(_player_json(tag, pos, vis) for tag, pos, vis in players)
    return (
        f'{{"time_s": {_fmt(time)}, '
        f'"ball": {{"x": {_fmt(ball.x)}, "y": {_fmt(ball.y)}}}, '
        f'"players": [{body}]}}'
    )


def _json_array(lines: Sequence[str], indent: str = "") -> str:
    """JSON array text with one item per line."""
    items = ",\n".join(f"{indent}  {line}" for line in lines)
    return f"[\n{items}\n{indent}]" if lines else f"[\n{indent}]"


def _finite(d: dict, key: str) -> float:
    """``d[key]`` if it is a finite JSON number (a bool is not one)."""
    value = d.get(key)
    if not is_finite_number(value):
        raise MalformedInputError(f"{key} must be a finite number, got {value!r}")
    return value


def _flag(d: dict, key: str) -> bool:
    value = d.get(key)
    if type(value) is not bool:
        raise MalformedInputError(f"{key} must be true or false, got {value!r}")
    return value


_ON_PITCH = (
    f"x must lie in [{X_BOUNDS[0]:g}, {X_BOUNDS[1]:g}] m and y in [{Y_BOUNDS[0]:g}, {Y_BOUNDS[1]:g}] m"
)


def _point(d: dict) -> PitchPoint:
    x, y = _finite(d, "x"), _finite(d, "y")
    if not near_pitch(x, y):
        raise MalformedInputError(f"{_ON_PITCH}, got ({x!r}, {y!r})")
    return PitchPoint(x, y)


def _tag(d: dict) -> PlayerTag:
    team = d.get("team")
    if team not in (HOME, AWAY):
        raise MalformedInputError(f"team must be 'home' or 'away', got {team!r}")
    return PlayerTag(team=team, is_goalkeeper=_flag(d, "keeper"))


def load_json(path: str | Path):
    """The JSON document in ``path``; a directory, invalid JSON or JSON nested
    deeper than the parser recurses raises MalformedInputError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except IsADirectoryError:
        raise MalformedInputError(f"{path} is a directory, not a JSON file") from None
    except ValueError as e:
        raise MalformedInputError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise MalformedInputError(f"{path} nests JSON too deeply to read") from None


def _read_frames(path: str | Path, frames, build: Callable) -> list:
    """``build(time_s, ball, players)`` for each frame object of a JSON array.

    Any fault, in the frame or in what ``build`` makes of it, raises
    MalformedInputError naming the file and the frame index.
    """
    if not isinstance(frames, list):
        raise MalformedInputError(f"{path}: frames must be a JSON array")
    out = []
    for i, fr in enumerate(frames):
        try:
            if not (
                isinstance(fr, dict)
                and isinstance(fr.get("ball"), dict)
                and isinstance(fr.get("players"), list)
                and all(isinstance(p, dict) for p in fr["players"])
            ):
                raise MalformedInputError(
                    "a frame must be an object with a ball object and a players array of objects"
                )
            out.append(build(_finite(fr, "time_s"), _point(fr["ball"]), fr["players"]))
        except MalformedInputError as e:
            raise MalformedInputError(f"{path}: frame {i}: {e}") from None
    return out


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
    Path(path).write_text(_json_array(lines) + "\n", encoding="utf8")


def write_discrete(record: DiscreteMatchRecord, path: str | Path) -> None:
    lines = [
        _frame_json(fr.time, fr.ball, [(tag, pos, None) for tag, pos in fr.visible])
        for fr in record.frames
    ]
    home, away = (
        "true" if record.defends_left.get(team, team == HOME) else "false" for team in (HOME, AWAY)
    )
    Path(path).write_text(
        f'{{\n  "half_id": {record.half_id},\n  "source": "{record.source}",\n'
        f'  "defends_left": {{"home": {home}, "away": {away}}},\n'
        f'  "frames": {_json_array(lines, "  ")}\n}}\n',
        encoding="utf8",
    )


def _observation_frame(time: float, ball: PitchPoint, players: list[dict]) -> ObservationFrame:
    return ObservationFrame(
        time=time, ball=ball, visible=tuple((_tag(p), _point(p)) for p in players)
    )


def read_discrete(path: str | Path) -> DiscreteMatchRecord:
    """Read a discrete half.

    A malformed file raises MalformedInputError naming the file and the key
    or frame: every player needs a home or away ``team``, a boolean
    ``keeper`` and numeric ``x`` and ``y`` within ``X_BOUNDS`` and
    ``Y_BOUNDS``, and so does the ball; frame times must be finite and
    increase, and span no more than ``MAX_HALF_SPAN_S``.
    """
    doc = load_json(path)
    try:
        if not isinstance(doc, dict):
            raise MalformedInputError("a discrete half must be a JSON object")
        half_id, source, sides = doc.get("half_id"), doc.get("source"), doc.get("defends_left")
        if type(half_id) is not int or not isinstance(source, str) or not isinstance(sides, dict):
            raise MalformedInputError(
                "half_id must be an integer, source a string and defends_left an object"
            )
        defends_left = {team: _flag(sides, team) for team in (HOME, AWAY)}
    except MalformedInputError as e:
        raise MalformedInputError(f"{path}: {e}") from None
    frames = _read_frames(path, doc.get("frames"), _observation_frame)
    if not frames:
        raise MalformedInputError(f"{path}: no frames")
    for i in range(1, len(frames)):
        if not frames[i].time > frames[i - 1].time:
            raise MalformedInputError(f"{path}: frame {i}: time_s does not increase")
    if frames[-1].time - frames[0].time > MAX_HALF_SPAN_S:
        raise MalformedInputError(
            f"{path}: frame times span more than {MAX_HALF_SPAN_S:g} s"
        )
    return DiscreteMatchRecord(
        half_id=half_id, frames=frames, source=source, defends_left=defends_left
    )


# The assigner's order of a half's trajectories (TrackedTeams.in_order).
TRAJECTORY_TAGS = tuple(
    PlayerTag(team, keeper) for team in (HOME, AWAY) for keeper in [False] * 10 + [True]
)


def write_trajectories(
    trajectories: Sequence[Trajectory], model_sha256: str, path: str | Path
) -> None:
    """Write a half's assigned trajectories, in the assigner's order, with the
    sha256 of the model file that assigned them.  Numbers are written as
    ``json.dumps`` writes them, so they read back exactly."""
    lines = [
        json.dumps(
            {
                "team": t.tag.team,
                "keeper": t.tag.is_goalkeeper,
                "seeded": t.seeded,
                "times": t.times,
                "x": [p.x for p in t.points],
                "y": [p.y for p in t.points],
            }
        )
        for t in trajectories
    ]
    Path(path).write_text(
        f'{{\n  "model_sha256": {json.dumps(model_sha256)},\n'
        f'  "trajectories": {_json_array(lines, "  ")}\n}}\n',
        encoding="utf8",
    )


def _numbers(d: dict, key: str) -> list:
    values = d.get(key)
    # all(map(is_finite_number, values)) in C calls, for a half's ~117k numbers:
    # max >= abs(v) is exact for an int, and false for NaN and the infinities
    if not (
        isinstance(values, list)
        and {*map(type, values)} <= {int, float}
        and all(map(sys.float_info.max.__ge__, map(abs, values)))
    ):
        raise MalformedInputError(f"{key} must be an array of finite numbers")
    return values


def _trajectory(d, tag: PlayerTag) -> Trajectory:
    if not isinstance(d, dict):
        raise MalformedInputError("a trajectory must be an object")
    if _tag(d) != tag:
        raise MalformedInputError(
            f"want a {tag.team} {'keeper' if tag.is_goalkeeper else 'outfielder'} "
            "(10 outfielders, then the keeper, home first)"
        )
    times, xs, ys = _numbers(d, "times"), _numbers(d, "x"), _numbers(d, "y")
    if not times or not len(times) == len(xs) == len(ys):
        raise MalformedInputError("times, x and y must be non-empty and of equal length")
    if not all(a < b for a, b in zip(times, times[1:])):
        raise MalformedInputError("times must increase")
    if not (near_pitch(min(xs), min(ys)) and near_pitch(max(xs), max(ys))):
        raise MalformedInputError(f"{_ON_PITCH} at every point")
    return Trajectory(tag, times, list(map(PitchPoint, xs, ys)), _flag(d, "seeded"))


def read_trajectories(
    path: str | Path, record: DiscreteMatchRecord
) -> tuple[str, list[Trajectory]]:
    """The model sha256 and the trajectories in a file ``write_trajectories``
    wrote for ``record``'s half.

    A malformed file raises MalformedInputError naming the file and the
    trajectory: it must hold 10 outfield trajectories and a keeper per team
    in the assigner's order, each with finite numbers, increasing times and
    points within ``X_BOUNDS`` and ``Y_BOUNDS``.
    So does a file that does not fit ``record``: every trajectory must start
    at the first frame, with its seed or its first sighting, every point must
    sit at a frame time, and at each frame each team's outfield and keeper
    points must equal, as multisets, the frame's visible ones.
    """
    doc = load_json(path)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("model_sha256"), str)
        and isinstance(doc.get("trajectories"), list)
    ):
        raise MalformedInputError(
            f"{path}: must be an object with a model_sha256 string and a trajectories array"
        )
    items = doc["trajectories"]
    if len(items) != len(TRAJECTORY_TAGS):
        raise MalformedInputError(
            f"{path}: {len(items)} trajectories, want 10 outfielders and a keeper per team"
        )
    trajectories = []
    for k, (item, tag) in enumerate(zip(items, TRAJECTORY_TAGS)):
        try:
            trajectories.append(_trajectory(item, tag))
        except MalformedInputError as e:
            raise MalformedInputError(f"{path}: trajectory {k}: {e}") from None
    _check_assignment(path, trajectories, record)
    return doc["model_sha256"], trajectories


def _check_assignment(
    path: str | Path, trajectories: Sequence[Trajectory], record: DiscreteMatchRecord
) -> None:
    """Raise unless ``trajectories`` hold exactly ``record``'s visible positions."""
    frame_index = {fr.time: i for i, fr in enumerate(record.frames)}
    first = record.frames[0].time
    held: Counter = Counter()
    for k, traj in enumerate(trajectories):
        for t in traj.times:
            if t not in frame_index:
                raise MalformedInputError(
                    f"{path}: trajectory {k}: a point at t={t!r}, which is no frame time"
                )
        if traj.times[0] != first:
            raise MalformedInputError(
                f"{path}: trajectory {k}: starts at t={traj.times[0]!r}, not at the first frame"
            )
        tag, skip = traj.tag, int(traj.seeded)
        held.update(
            (t, tag.team, tag.is_goalkeeper, p.x, p.y)
            for t, p in zip(traj.times[skip:], traj.points[skip:])
        )
    seen = Counter(
        (fr.time, tag.team, tag.is_goalkeeper, p.x, p.y)
        for fr in record.frames
        for tag, p in fr.visible
    )
    if held.items() != seen.items():  # compared in C; Counter.__eq__ loops in Python
        t = min(key[0] for key in (held - seen) + (seen - held))
        raise MalformedInputError(
            f"{path}: frame {frame_index[t]}: the trajectories do not hold the frame's "
            "visible positions (run enrich again)"
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
    Path(path).write_text(_json_array(lines) + "\n", encoding="utf8")
