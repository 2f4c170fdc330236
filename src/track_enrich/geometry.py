"""Pitch geometry, the time grid, and the frame/trajectory types shared by the pipeline.

All positions are metres on a 120 x 80 pitch, all times are seconds since the
start of the half.  The two halves of a match never share a time axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

PITCH_LENGTH_M = 120.0
PITCH_WIDTH_M = 80.0

# Percentage-convention inputs may overshoot [0, 1] by this much (real rows
# slightly exceed the touchlines) before they count as malformed.
PERCENT_TOLERANCE = 0.05

Team = Literal["home", "away"]
HOME: Team = "home"
AWAY: Team = "away"

Provenance = Literal["observed", "estimated"]


class MalformedInputError(ValueError):
    """Source data violated a documented precondition."""


def other_team(team: str) -> str:
    return AWAY if team == HOME else HOME


@dataclass(frozen=True, slots=True)
class PitchPoint:
    """A position on the pitch in metres."""

    x: float
    y: float

    def distance_to(self, other: "PitchPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def clamp_to_pitch(x: float, y: float) -> PitchPoint:
    return PitchPoint(
        min(max(x, 0.0), PITCH_LENGTH_M),
        min(max(y, 0.0), PITCH_WIDTH_M),
    )


def scale_percent_coords(px: float, py: float, *, source: str = "") -> PitchPoint:
    """Scale unit-square coordinates to metres, clamping slight overshoot.

    Components outside [-0.05, 1.05] (or NaN) raise MalformedInputError naming
    ``source`` so bad frames can be traced back to their file/row.
    """
    for name, v in (("x", px), ("y", py)):
        if not (-PERCENT_TOLERANCE <= v <= 1.0 + PERCENT_TOLERANCE):
            where = f" in {source}" if source else ""
            raise MalformedInputError(
                f"percentage coordinate {name}={v!r}{where} outside [-0.05, 1.05]"
            )
    return clamp_to_pitch(px * PITCH_LENGTH_M, py * PITCH_WIDTH_M)


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
        for team in (HOME, AWAY):
            outfield = sum(
                1 for tag, _ in self.visible if tag.team == team and not tag.is_goalkeeper
            )
            keepers = sum(
                1 for tag, _ in self.visible if tag.team == team and tag.is_goalkeeper
            )
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

    ``seeded`` marks a trajectory whose first point is an invented kickoff
    seed rather than an observation; such a point anchors interpolation but
    never counts as a sighting.
    """

    tag: PlayerTag
    times: list[float] = field(default_factory=list)
    points: list[PitchPoint] = field(default_factory=list)
    seeded: bool = False
    _time_index: dict[float, int] = field(default_factory=dict, repr=False)

    def append(self, t: float, point: PitchPoint) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError(
                f"trajectory times must strictly increase: {t} after {self.times[-1]}"
            )
        self._time_index[t] = len(self.times)
        self.times.append(t)
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.times)

    def point_at(self, t: float) -> PitchPoint | None:
        """Recorded point at exactly time ``t``, if any."""
        i = self._time_index.get(t)
        return None if i is None else self.points[i]

    def observed_at(self, t: float) -> bool:
        """True when a real observation (not an invented seed) exists at ``t``."""
        i = self._time_index.get(t)
        if i is None:
            return False
        return not (self.seeded and i == 0)

    def observation_times(self) -> list[float]:
        return self.times[1:] if self.seeded else self.times


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

    def for_team(self, team: str, *, keepers: bool = False) -> list[EnrichedPlayer]:
        return [
            p
            for p in self.players
            if p.tag.team == team and p.tag.is_goalkeeper == keepers
        ]

