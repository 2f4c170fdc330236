"""Pitch geometry, the time grid, and the frame/trajectory types shared by the pipeline.

All positions are metres on a 120 x 80 pitch, all times are seconds since the
start of the half.  The two halves of a match never share a time axis.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Literal, Sequence

PITCH_LENGTH_M = 120.0
PITCH_WIDTH_M = 80.0

# Percentage-convention inputs may overshoot [0, 1] by this much (real rows
# slightly exceed the touchlines) before they count as malformed.
PERCENT_TOLERANCE = 0.05

# A time within this many grid steps of a grid node is on the node; two times
# within this many seconds of each other are the same time.
GRID_TOL = 1e-9

Team = Literal["home", "away"]
HOME: Team = "home"
AWAY: Team = "away"

Provenance = Literal["observed", "estimated"]


class MalformedInputError(ValueError):
    """Source data violated a documented precondition."""


def is_finite_number(value) -> bool:
    """True for an int or float that is a finite float (a bool is not one)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def other_team(team: str) -> str:
    return AWAY if team == HOME else HOME


@dataclass(frozen=True, slots=True)
class PitchPoint:
    """A position on the pitch in metres."""

    x: float
    y: float


def nearest_time_index(times: Sequence[float], t: float) -> int:
    """Index of the time in sorted, non-empty ``times`` nearest to ``t``.

    Ties go to the earlier time, and among equal times to the first.
    """
    i = bisect_left(times, t)
    if i == len(times) or (i > 0 and t - times[i - 1] <= times[i] - t):
        i = bisect_left(times, times[i - 1])
    return i


def lerp(a: PitchPoint, ta: float, b: PitchPoint, tb: float, t: float) -> PitchPoint:
    """The point at time ``t`` on the line from ``a`` at ``ta`` to ``b`` at ``tb != ta``."""
    f = (t - ta) / (tb - ta)
    return PitchPoint(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))


def clamp_to_pitch(x: float, y: float) -> PitchPoint:
    return PitchPoint(
        min(max(x, 0.0), PITCH_LENGTH_M),
        min(max(y, 0.0), PITCH_WIDTH_M),
    )


@dataclass(frozen=True, slots=True)
class PlayerTag:
    """Team membership and goalkeeper flag; player identities are never known."""

    team: str
    is_goalkeeper: bool = False


@dataclass(frozen=True)
class ObservationFrame:
    """One timestamped sample: ball position plus the visible, tagged players."""

    time: float
    ball: PitchPoint
    visible: tuple[tuple[PlayerTag, PitchPoint], ...]

    def __post_init__(self):
        object.__setattr__(self, "visible", tuple(self.visible))
        counts: dict[tuple[str, bool], int] = {}
        for tag, _ in self.visible:
            key = (tag.team, tag.is_goalkeeper)
            counts[key] = counts.get(key, 0) + 1
        for team in (HOME, AWAY):
            outfield = counts.get((team, False), 0)
            keepers = counts.get((team, True), 0)
            if outfield > 10:
                raise MalformedInputError(
                    f"frame at t={self.time}: {outfield} visible {team} outfielders (max 10)"
                )
            if keepers > 1:
                raise MalformedInputError(
                    f"frame at t={self.time}: {keepers} visible {team} goalkeepers (max 1)"
                )

    def visible_for(self, team: str, *, keepers: bool = False) -> list[PitchPoint]:
        return [
            pos
            for tag, pos in self.visible
            if tag.team == team and tag.is_goalkeeper == keepers
        ]


@dataclass
class Trajectory:
    """Ordered (position, time) points believed to belong to one player.

    ``times`` strictly increase and ``points`` runs parallel to them.
    ``seeded`` marks a trajectory whose first point is an invented kickoff
    seed rather than an observation; such a point anchors interpolation but
    never counts as a sighting.
    """

    tag: PlayerTag
    times: list[float] = field(default_factory=list)
    points: list[PitchPoint] = field(default_factory=list)
    seeded: bool = False

    def append(self, t: float, point: PitchPoint) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError(
                f"trajectory times must strictly increase: {t} after {self.times[-1]}"
            )
        self.times.append(t)
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, slots=True)
class EnrichedPlayer:
    tag: PlayerTag
    position: PitchPoint
    provenance: Provenance


@dataclass(frozen=True)
class EnrichedFrame:
    """A full 22-player snapshot at one query time, each position flagged by origin."""

    time: float
    ball: PitchPoint
    players: tuple[EnrichedPlayer, ...]

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        if len(self.players) != 22:
            raise MalformedInputError(
                f"enriched frame at t={self.time} has {len(self.players)} players, want 22"
            )
        for team in (HOME, AWAY):
            n = sum(1 for p in self.players if p.tag.team == team)
            if n != 11:
                raise MalformedInputError(
                    f"enriched frame at t={self.time} has {n} {team} players, want 11"
                )
