"""Deterministic synthetic matches: smooth ground truth with known identities.

The generator produces native-rate halves (``SynthHalf``: one frame object per
row, one track per player) that behave like real tracking data (formation
anchors, ball attraction, bounded speeds) so the whole pipeline can run
without any external dataset.  ``calm=True`` keeps outfielders far apart and
slow, which makes frame-to-frame assignment unambiguous for the
identity-retention checks.  ``truth_half`` turns one into the package's
MatchHalf with the exact float positions; ``write_metrica_csvs`` writes halves
as the command line reads them.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from track_enrich.geometry import AWAY, HOME, ObservationFrame, PitchPoint, PlayerTag, Trajectory
from track_enrich.ingest import Event, MatchHalf, TruthTable

_HOME_ANCHORS = [
    (18.0, 16.0), (16.0, 34.0), (16.0, 46.0), (18.0, 64.0),
    (38.0, 14.0), (36.0, 30.0), (36.0, 50.0), (38.0, 66.0),
    (56.0, 26.0), (56.0, 54.0),
]
_EVENT_KINDS = ("pass", "shot", "foul", "set piece")


@dataclass
class SynthHalf:
    """A generated half as objects: its frames list every on-pitch player in
    ``player_tracks`` order, and each track keeps one player's identity."""

    half_id: int
    frames: list[ObservationFrame]
    events: list[Event] = field(default_factory=list)
    player_tracks: dict[str, Trajectory] = field(default_factory=dict)
    defends_left: dict[str, bool] = field(default_factory=dict)


def truth_half(half: SynthHalf) -> MatchHalf:
    """``half`` as the package's MatchHalf: one row per frame, the ball
    first, then one column per track, used where the track has a point at the
    frame's time.  Positions are the exact floats, with no CSV round trip."""
    times = [fr.time for fr in half.frames]
    row = {t: i for i, t in enumerate(times)}
    cells = np.zeros((len(times), 1 + len(half.player_tracks), 2))
    used = np.zeros(cells.shape[:2], dtype=bool)
    cells[:, 0] = [(fr.ball.x, fr.ball.y) for fr in half.frames]
    used[:, 0] = True
    for j, traj in enumerate(half.player_tracks.values(), start=1):
        for t, p in zip(traj.times, traj.points):
            cells[row[t], j] = (p.x, p.y)
            used[row[t], j] = True
    table = TruthTable(
        times, cells, used, list(half.player_tracks), [t.tag for t in half.player_tracks.values()]
    )
    return MatchHalf(half.half_id, table, list(half.events), dict(half.defends_left))


def synth_half(
    seconds: float = 240.0,
    fps: int = 5,
    seed: int = 0,
    half_id: int = 1,
    calm: bool = False,
    event_every_s: float = 15.0,
) -> SynthHalf:
    rng = np.random.default_rng(seed)
    dt = 1.0 / fps
    n_steps = int(round(seconds * fps))
    times = [(i + 1) * dt for i in range(n_steps)]

    anchors = []
    tags = []
    keys = []
    for team in (HOME, AWAY):
        for i, (ax, ay) in enumerate(_HOME_ANCHORS):
            x = ax if team == HOME else 120.0 - ax
            anchors.append((x, ay))
            tags.append(PlayerTag(team=team, is_goalkeeper=False))
            keys.append(f"{team}:Player{i + 1}")
        kx = 5.0 if team == HOME else 115.0
        anchors.append((kx, 40.0))
        tags.append(PlayerTag(team=team, is_goalkeeper=True))
        keys.append(f"{team}:Keeper")
    anchors = np.asarray(anchors)

    if calm:
        ball_pull, anchor_pull, noise_acc, max_speed = 0.004, 0.06, 0.25, 2.0
    else:
        ball_pull, anchor_pull, noise_acc, max_speed = 0.05, 0.03, 1.2, 6.5

    ball = np.array([60.0, 40.0])
    ball_vel = np.zeros(2)
    ball_target = np.array([60.0, 40.0])
    pos = anchors.copy()
    vel = np.zeros_like(pos)

    ball_path = np.empty((n_steps, 2))
    player_path = np.empty((n_steps, len(anchors), 2))
    for step in range(n_steps):
        if step % int(6 * fps) == 0:
            ball_target = rng.uniform([8.0, 6.0], [112.0, 74.0])
        ball_vel = 0.92 * ball_vel + 0.05 * (ball_target - ball) * dt * fps + rng.normal(
            0.0, 1.6, 2
        ) * dt
        speed = np.linalg.norm(ball_vel)
        if speed > 11.0:
            ball_vel *= 11.0 / speed
        ball = np.clip(ball + ball_vel * dt * fps, [0.5, 0.5], [119.5, 79.5])
        ball_path[step] = ball

        acc = anchor_pull * (anchors - pos) + ball_pull * (ball - pos)
        acc += rng.normal(0.0, noise_acc, pos.shape)
        vel = 0.9 * vel + acc
        speeds = np.linalg.norm(vel, axis=1, keepdims=True)
        np.divide(vel * max_speed, speeds, out=vel, where=speeds > max_speed)
        pos = np.clip(pos + vel * dt, [0.3, 0.3], [119.7, 79.7])
        player_path[step] = pos

    frames = []
    tracks = {key: Trajectory(tag=tag) for key, tag in zip(keys, tags)}
    for step, t in enumerate(times):
        visible = []
        for j, tag in enumerate(tags):
            p = PitchPoint(float(player_path[step, j, 0]), float(player_path[step, j, 1]))
            visible.append((tag, p))
            tracks[keys[j]].append(t, p)
        frames.append(
            ObservationFrame(
                time=t,
                ball=PitchPoint(float(ball_path[step, 0]), float(ball_path[step, 1])),
                visible=tuple(visible),
            )
        )

    events = []
    t_ev = event_every_s
    kind_i = 0
    while t_ev < seconds:
        step = min(int(t_ev * fps), n_steps - 1)
        events.append(
            Event(
                time=times[step],
                kind=_EVENT_KINDS[kind_i % len(_EVENT_KINDS)],
                attacking_team=HOME if kind_i % 2 == 0 else AWAY,
                ball=PitchPoint(float(ball_path[step, 0]), float(ball_path[step, 1])),
            )
        )
        kind_i += 1
        t_ev += event_every_s

    return SynthHalf(
        half_id=half_id,
        frames=frames,
        events=events,
        player_tracks=tracks,
        defends_left={HOME: True, AWAY: False},
    )


def point_at(traj: Trajectory, t: float) -> PitchPoint | None:
    """``traj``'s recorded point at exactly time ``t``, if any."""
    i = bisect_left(traj.times, t)
    return traj.points[i] if i < len(traj.times) and traj.times[i] == t else None


def identity_map(half: SynthHalf) -> dict[tuple[float, float, float], str]:
    """Exact (time, x, y) -> player key lookup for the identity oracle."""
    out = {}
    for key, traj in half.player_tracks.items():
        for t, p in zip(traj.times, traj.points):
            out[(t, p.x, p.y)] = key
    return out


def count_identity_switches(half: SynthHalf, trajectories) -> int:
    """Consecutive trajectory points attributed to different true players."""
    lookup = identity_map(half)
    switches = 0
    for traj in trajectories:
        prev = None
        for t, p in zip(traj.times, traj.points):
            owner = lookup.get((t, p.x, p.y))
            if owner is None:
                continue  # seeded point, not a real observation
            if prev is not None and owner != prev:
                switches += 1
            prev = owner
    return switches


# --- 360 feed -----------------------------------------------------------------


def write_360_feed(tmp_path, n=40):
    """A small 360 feed in ``tmp_path``: n linked frames one second apart plus
    one orphan.  Returns the frames and events JSON paths."""
    events = [
        {"id": f"e{i}", "timestamp": float(i + 1), "team": "home" if i % 2 == 0 else "away",
         "location": [55.0 + i, 40.0], "period": 1}
        for i in range(n)
    ]
    frames = []
    for i in range(n):
        loc = [55.0 + i, 40.0]
        if events[i]["team"] == "away":
            loc = [120.0 - loc[0], 80.0 - loc[1]]
        entries = [{"location": loc, "teammate": True, "actor": True, "keeper": False}]
        for j in range(3):
            entries.append(
                {"location": [30.0 + 7 * j, 20.0 + 9 * j], "teammate": j % 2 == 0,
                 "actor": False, "keeper": False}
            )
        frames.append({"event_uuid": f"e{i}", "freeze_frame": entries})
    frames.append({"event_uuid": "orphan-id", "freeze_frame": frames[0]["freeze_frame"]})
    fp = tmp_path / "frames.json"
    ep = tmp_path / "events.json"
    fp.write_text(json.dumps(frames))
    ep.write_text(json.dumps(events))
    return fp, ep


# --- CSV fabrication (Metrica-style wide files) -------------------------------


def write_metrica_csvs(
    halves: list[SynthHalf], home_path, away_path, events_path=None
) -> None:
    """Materialize synthetic halves in the wide per-team CSV layout."""
    for team, path in ((HOME, home_path), (AWAY, away_path)):
        keys = sorted(
            {k for h in halves for k in h.player_tracks if k.startswith(team)}
        )
        names = [k.split(":", 1)[1] if ":" in k else k for k in keys]
        cols = ["Period", "Frame", "Time [s]"]
        row1 = ["", "", ""]
        row2 = ["", "", ""]
        for name in names:
            cols.extend([f"Player{name}" if not name.startswith("Player") else name, ""])
            row1.extend([team.capitalize(), ""])
            row2.extend([name, ""])
        cols.extend(["Ball", ""])
        lines = [",".join(row1) + ",,", ",".join(row2) + ",,", ",".join(cols)]
        frame_no = 0
        for half in halves:
            for fr in half.frames:
                frame_no += 1
                cells = [str(half.half_id), str(frame_no), f"{fr.time:.2f}"]
                for key in keys:
                    traj = half.player_tracks.get(key)
                    p = point_at(traj, fr.time) if traj else None
                    if p is None:
                        cells.extend(["NaN", "NaN"])
                    else:
                        cells.extend([f"{p.x / 120.0:.6f}", f"{p.y / 80.0:.6f}"])
                cells.extend([f"{fr.ball.x / 120.0:.6f}", f"{fr.ball.y / 80.0:.6f}"])
                lines.append(",".join(cells))
        with open(path, "w", encoding="utf8") as fh:
            fh.write("\n".join(lines) + "\n")

    if events_path is not None:
        header = (
            "Team,Type,Subtype,Period,Start Frame,Start Time [s],End Frame,"
            "End Time [s],From,To,Start X,Start Y,End X,End Y"
        )
        lines = [header]
        for half in halves:
            for ev in half.events:
                bx = f"{ev.ball.x / 120.0:.6f}" if ev.ball else ""
                by = f"{ev.ball.y / 80.0:.6f}" if ev.ball else ""
                lines.append(
                    f"{ev.attacking_team.capitalize()},{ev.kind.upper()},,"
                    f"{half.half_id},0,{ev.time:.2f},0,{ev.time:.2f},,,{bx},{by}"
                )
        with open(events_path, "w", encoding="utf8") as fh:
            fh.write("\n".join(lines) + "\n")
