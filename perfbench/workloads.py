"""The benchmark's workloads and the synthetic inputs each one runs on.

Every input is made from ``tests/synth.py`` and the workload seed, and is
written in a format the command line reads: Metrica-style wide tracking CSVs,
an events CSV, and 360-style frame and event JSON.  Generation is kept out of
every timed figure: ``run.py`` caches each workload's inputs per size and
seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from synth import synth_half, write_metrica_csvs
from track_enrich.geometry import ObservationFrame, PitchPoint, Trajectory
from track_enrich.ingest import Event, MatchHalf

import truth

# 360 frames show the players within this distance of the ball.
FRAME_360_RADIUS_M = 25.0
# Share of 360 frames linked to their event by timestamp instead of by id.
TIMESTAMP_LINKED_SHARE = 0.2
# Gap between consecutive 360 events, drawn uniformly (seconds).
EVENT_GAP_S = (1.0, 5.0)
# The test match follows one script for every seed, so that its occlusions,
# and with them the work and the error figures, do not swing from seed to
# seed; the seed draws the training match, the tracking noise on the test
# match, and which 360 frames are linked by timestamp or broken.
TEST_MATCH_SEED = 0
TRACKING_NOISE_M = 0.1
# Every DROP_EVERY-th training row loses its ball position, as dead-ball rows
# do in real tracking files; ingest drops such rows.
DROP_EVERY = 100

ORPHAN = "orphan frame"
AXIS = "axis disagreement"


@dataclass(frozen=True)
class Workload:
    name: str
    fps: int
    train_s: float  # length of each training half
    test_s: float  # length of each test half
    radius_m: float | None  # broadcast visibility radius; None for the 360 feed
    trim_frames: int = 10

    @property
    def feed_360(self) -> bool:
        return self.radius_m is None

    @property
    def commands(self) -> tuple[str, ...]:
        if self.feed_360:
            return ("train", "enrich", "evaluate")
        return ("train", "simulate-broadcast", "enrich", "evaluate")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("broadcast_25fps", fps=25, train_s=30.0, test_s=75.0, radius_m=30.0, trim_frames=5),
        Workload("feed_360", fps=5, train_s=90.0, test_s=150.0, radius_m=None),
        Workload("narrow_view", fps=5, train_s=90.0, test_s=160.0, radius_m=15.0),
    )
}


def _seeds(seed: int, role: int) -> tuple[int, int]:
    base = 1000 * seed + 10 * role
    return base + 1, base + 2


def _moved(half: MatchHalf, player, ball) -> MatchHalf:
    """A copy of ``half`` with every player and ball position mapped."""
    tracks = {}
    for key, traj in half.player_tracks.items():
        tracks[key] = Trajectory(tag=traj.tag)
        for t, p in zip(traj.times, traj.points):
            tracks[key].append(t, player(p))
    frames = [
        ObservationFrame(fr.time, ball(fr.ball), tuple((tr.tag, tr.points[i]) for tr in tracks.values()))
        for i, fr in enumerate(half.frames)
    ]
    events = [Event(e.time, e.kind, e.attacking_team, ball(e.ball) if e.ball else None) for e in half.events]
    return replace(half, frames=frames, player_tracks=tracks, events=events)


def _mirrored(half: MatchHalf) -> MatchHalf:
    """The half seen from the other end: teams swap the ends they defend."""

    def flip(p: PitchPoint) -> PitchPoint:
        return PitchPoint(120.0 - p.x, 80.0 - p.y)

    return _moved(half, flip, flip)


def _retracked(half: MatchHalf, rng: np.random.Generator) -> MatchHalf:
    """The half as another tracking system records it: independent noise of
    ``TRACKING_NOISE_M`` on every player position."""

    def jitter(p: PitchPoint) -> PitchPoint:
        dx, dy = rng.normal(0.0, TRACKING_NOISE_M, 2)
        return PitchPoint(min(max(p.x + dx, 0.0), 120.0), min(max(p.y + dy, 0.0), 80.0))

    return _moved(half, jitter, lambda p: p)


def _drop_ball_rows(path: Path) -> None:
    lines = path.read_text(encoding="utf8").splitlines()
    for i in range(3 + DROP_EVERY - 1, len(lines), DROP_EVERY):
        cells = lines[i].split(",")
        cells[-2:] = ["NaN", "NaN"]
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf8")


def generate(w: Workload, seed: int, dest: Path) -> dict:
    """Write the workload's inputs into ``dest`` and return the CLI config."""
    dest.mkdir(parents=True, exist_ok=True)
    train = [
        synth_half(seconds=w.train_s, fps=w.fps, seed=s, half_id=i + 1)
        for i, s in enumerate(_seeds(seed, 1))
    ]
    rng = np.random.default_rng([seed, 2])
    test = [
        _retracked(synth_half(seconds=w.test_s, fps=w.fps, seed=s, half_id=i + 1), rng)
        for i, s in enumerate(_seeds(TEST_MATCH_SEED, 2))
    ]
    if w.feed_360:
        test[1] = _mirrored(test[1])
    write_metrica_csvs(train, dest / "train_home.csv", dest / "train_away.csv")
    for name in ("train_home.csv", "train_away.csv"):
        _drop_ball_rows(dest / name)
    events = None if w.feed_360 else dest / "test_events.csv"
    write_metrica_csvs(test, dest / "test_home.csv", dest / "test_away.csv", events_path=events)

    cfg = {
        "train_home_csv": "train_home.csv",
        "train_away_csv": "train_away.csv",
        "test_home_csv": "test_home.csv",
        "test_away_csv": "test_away.csv",
        "trim_frames": w.trim_frames,
    }
    halves = truth.read_truth(dest / "test_home.csv", dest / "test_away.csv")
    frames, events_360, expected = make_360_feed(halves, np.random.default_rng([seed, 360]))
    feed = "feed360" if w.feed_360 else "probe360"
    (dest / f"{feed}_frames.json").write_text(json.dumps(frames), encoding="utf8")
    (dest / f"{feed}_events.json").write_text(json.dumps(events_360), encoding="utf8")
    (dest / f"{feed}_expected.json").write_text(json.dumps(expected), encoding="utf8")
    if w.feed_360:
        cfg["frames_360_json"] = "feed360_frames.json"
        cfg["events_360_json"] = "feed360_events.json"
    else:
        cfg["test_events_csv"] = "test_events.csv"
        cfg["visibility_radius_m"] = w.radius_m
    return cfg


def event_rows(times: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Rows of the native frames at which events happen, from 2 s on."""
    rows = [int(np.searchsorted(times, 2.0))]
    while True:
        nxt = int(np.searchsorted(times, times[rows[-1]] + rng.uniform(*EVENT_GAP_S)))
        if nxt >= len(times) - 1:
            return rows
        rows.append(nxt)


def make_360_feed(halves: dict[int, truth.TruthHalf], rng: np.random.Generator):
    """360-style frames and events built from the truth the CLI reads back.

    The event times follow the test match's script; ``rng`` draws which
    frames are linked by timestamp and which are broken.  Each event is a
    touch by the player nearest the ball, located at that player; its frame
    shows the actor and everyone within ``FRAME_360_RADIUS_M`` of the ball,
    in the acting team's coordinates (the acting team attacks +x).  In each
    half one frame names an event id that does not exist and one frame's
    actor sits far from its event under either orientation.

    Returns the frame list, the event list and, for the checks, the excluded
    frames and every kept frame's players on the fixed axis.
    """
    frames, events = [], []
    kept: list[dict] = []
    excluded: list[list] = []
    for half_id in sorted(halves):
        th = halves[half_id]
        rows = event_rows(th.times, np.random.default_rng([TEST_MATCH_SEED, half_id]))
        orphan_at, axis_at = (int(n) for n in rng.choice(np.arange(1, len(rows) - 1), size=2, replace=False))
        for n, i in enumerate(rows):
            t = float(th.times[i])
            dist = np.hypot(*(th.pos[i] - th.ball[i]).T)
            actor = int(np.argmin(dist))
            team = th.team[actor]
            flip = (team == "home") != (half_id == 1)
            eid = f"h{half_id}e{n}"
            loc = _oriented(th.pos[i, actor], flip)
            events.append({"id": eid, "timestamp": t, "team": team, "location": loc, "period": half_id})
            shown = dist <= FRAME_360_RADIUS_M
            shown[actor] = True
            entries = [
                {
                    "location": _oriented(th.pos[i, j], flip),
                    "teammate": th.team[j] == team,
                    "actor": bool(j == actor),
                    "keeper": bool(th.keeper[j]),
                }
                for j in np.flatnonzero(shown)
            ]
            frame = {"freeze_frame": entries}
            if n == orphan_at:
                frame["event_uuid"] = f"missing-{eid}"
                excluded.append([len(frames), ORPHAN])
            elif n == axis_at:
                frame["event_uuid"] = eid
                next(e for e in entries if e["actor"])["location"] = _far_from(loc)
                excluded.append([len(frames), AXIS])
            else:
                if rng.random() < TIMESTAMP_LINKED_SHARE:
                    frame.update(timestamp=t, period=half_id)
                else:
                    frame["event_uuid"] = eid
                players = [
                    [team if e["teammate"] else _other(team), e["keeper"], *_oriented(e["location"], flip)]
                    for e in entries
                ]
                kept.append({"half": half_id, "time": t, "players": players})
            frames.append(frame)
    return frames, events, {"excluded": excluded, "frames": kept}


def _oriented(p, flip: bool) -> list[float]:
    """A position turned half a turn about the pitch centre when ``flip``."""
    x, y = float(p[0]), float(p[1])
    return [120.0 - x, 80.0 - y] if flip else [x, y]


def _other(team: str) -> str:
    return "away" if team == "home" else "home"


def _far_from(loc: list[float]) -> list[float]:
    """A point more than 15 m from ``loc`` and from its half-turn image."""
    for dx, dy in ((0.0, 25.0), (0.0, -25.0), (25.0, 0.0), (-25.0, 0.0)):
        p = [min(max(loc[0] + dx, 0.0), 120.0), min(max(loc[1] + dy, 0.0), 80.0)]
        d_same = math.hypot(p[0] - loc[0], p[1] - loc[1])
        d_flip = math.hypot(120.0 - p[0] - loc[0], 80.0 - p[1] - loc[1])
        if min(d_same, d_flip) > 15.0:
            return p
    raise AssertionError(f"no far point for {loc}")
