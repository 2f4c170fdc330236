"""The benchmark's own reader for the synthetic ground truth.

It parses the wide per-team CSVs with numpy and applies the documented
conventions (per-half time rebasing, unit-square to metres, rows without a
ball dropped) without calling the program, so the checks compare the
program's outputs with an independent view of the same files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

PITCH = np.array([120.0, 80.0])


@dataclass
class TruthHalf:
    times: np.ndarray  # (T,) seconds since the start of the half
    pos: np.ndarray  # (T, P, 2) metres, column order home then away
    ball: np.ndarray  # (T, 2) metres
    team: list[str]  # (P,)
    keeper: np.ndarray  # (P,) bool
    names: list[str]  # (P,) column names, unique per team

    def index_at(self, t: float) -> int:
        """Row of the native frame nearest to ``t`` (ties go to the earlier)."""
        i = int(np.searchsorted(self.times, t, side="left"))
        if i == 0:
            return 0
        if i == len(self.times):
            return i - 1
        return i - 1 if t - self.times[i - 1] <= self.times[i] - t else i

    def outfield(self, team: str) -> np.ndarray:
        return np.array([tm == team and not k for tm, k in zip(self.team, self.keeper)])


def _read_team(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf8") as fh:
        header = [fh.readline() for _ in range(3)][2].rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
    return header, data


def read_truth(home_csv: str | Path, away_csv: str | Path) -> dict[int, TruthHalf]:
    (h_head, home), (a_head, away) = _read_team(Path(home_csv)), _read_team(Path(away_csv))
    names, team, cols = [], [], []
    for label, head, data in (("home", h_head, home), ("away", a_head, away)):
        for i, cell in enumerate(head):
            if cell.startswith("Player"):
                names.append(cell)
                team.append(label)
                cols.append(data[:, i : i + 2])
    ball = home[:, -2:].copy()
    missing = np.isnan(ball).any(axis=1)
    ball[missing] = away[missing, -2:]
    pos = np.stack(cols, axis=1)
    halves = {}
    for period in np.unique(home[:, 0]).astype(int):
        rows = home[:, 0] == period
        raw_t = home[rows, 2]
        offset = raw_t[0] - (raw_t[1] - raw_t[0]) if len(raw_t) > 1 else 0.0
        keep = ~np.isnan(ball[rows]).any(axis=1)
        halves[int(period)] = TruthHalf(
            times=(raw_t - offset)[keep],
            pos=np.clip(pos[rows][keep] * PITCH, 0.0, PITCH),
            ball=np.clip(ball[rows][keep] * PITCH, 0.0, PITCH),
            team=team,
            keeper=np.array([n == "PlayerKeeper" for n in names]),
            names=names,
        )
    return halves
