"""Correctness checks on the CLI's outputs, independent of the program's code.

Each check takes parsed output documents plus expectations built from the
synthetic truth (``truth.py``) or from the generated 360 feed, and returns a
list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from truth import TruthHalf

# Radius ties: a player this close to the visibility radius may be either
# side of it after floating-point rounding.
RADIUS_TIE_M = 1e-6
# Agreement between the recomputed off-camera error and report.json, which
# rounds to 4 decimals while enriched positions carry 6.
REPORT_TOLERANCE_M = 1e-3


def written(v: float) -> float:
    """A coordinate as the CLI's writers store it: fixed decimal, 6 digits."""
    return float(f"{v:.6f}")


def player_key(team: str, keeper: bool, x: float, y: float) -> tuple:
    return (team, bool(keeper), written(x), written(y))


def broadcast_times(th: TruthHalf, trim: int) -> list[float]:
    """1 Hz sample times of a half after trimming ``trim`` samples at each end."""
    k_start = max(trim, math.ceil(th.times[0] - 1e-9))
    k_end = math.floor(th.times[-1] - trim + 1e-9)
    return [float(k) for k in range(k_start, k_end + 1)]


def broadcast_visible(th: TruthHalf, t: float, radius: float) -> tuple[list, list]:
    """Players within ``radius`` of the ball at the native frame nearest ``t``.

    Returns the players that must be visible and those within the rounding
    tie of the radius, which may be either.
    """
    i = th.index_at(t)
    dist = np.hypot(*(th.pos[i] - th.ball[i]).T)
    keys = [player_key(th.team[j], th.keeper[j], *th.pos[i, j]) for j in range(len(dist))]
    required = [k for k, d in zip(keys, dist) if d < radius - RADIUS_TIE_M]
    optional = [k for k, d in zip(keys, dist) if abs(d - radius) <= RADIUS_TIE_M]
    return required, optional


def check_observed(enriched: list[dict], expected: dict[float, tuple[list, list]]) -> list[str]:
    """At enriched times that are discrete frame times, the visible players
    are exactly that frame's players: team, keeper flag and coordinates."""
    problems = []
    by_time = {fr["time_s"]: fr for fr in enriched}
    for t, (required, optional) in expected.items():
        fr = by_time.get(t)
        if fr is None:
            continue
        got = sorted(
            player_key(p["team"], p["keeper"], p["x"], p["y"]) for p in fr["players"] if p["visible"]
        )
        rest, missing = list(got), []
        for k in required:
            if k in rest:
                rest.remove(k)
            else:
                missing.append(k)
        extra = [k for k in rest if k not in optional]
        if missing or extra:
            problems.append(f"t={t}: visible players differ (missing {missing[:2]}, extra {extra[:2]})")
    return problems


def check_frames(enriched: list[dict], t_first: float, t_last: float) -> list[str]:
    """10 outfielders and 1 keeper per team, inside the pitch, on the 1 s
    grid spanning [t_first, t_last]."""
    want = [float(k) for k in range(math.ceil(t_first - 1e-9), math.floor(t_last + 1e-9) + 1)]
    got = [fr["time_s"] for fr in enriched]
    problems = [] if got == want else [f"frame times {got[:3]}..{got[-1:]} != grid {want[:3]}..{want[-1:]}"]
    for fr in enriched:
        for team in ("home", "away"):
            players = [p for p in fr["players"] if p["team"] == team]
            keepers = sum(1 for p in players if p["keeper"])
            if len(players) - keepers != 10 or keepers != 1:
                problems.append(
                    f"t={fr['time_s']}: {team} has {len(players) - keepers} outfielders, {keepers} keepers"
                )
        for p in fr["players"]:
            if not (0.0 <= p["x"] <= 120.0 and 0.0 <= p["y"] <= 80.0):
                problems.append(f"t={fr['time_s']}: player outside the pitch at ({p['x']}, {p['y']})")
    return problems


def offcam_error(enriched: list[dict], th: TruthHalf, times: list[float]) -> list[float]:
    """Errors of the off-camera outfielders at ``times`` after a per-team
    minimum-total-distance matching to the truth."""
    by_time = {fr["time_s"]: fr for fr in enriched}
    errors = []
    for t in times:
        i = th.index_at(t)
        for team in ("home", "away"):
            est = [p for p in by_time[t]["players"] if p["team"] == team and not p["keeper"]]
            xy = np.array([[p["x"], p["y"]] for p in est])
            tru = th.pos[i][th.outfield(team)]
            cost = np.hypot(xy[:, None, 0] - tru[None, :, 0], xy[:, None, 1] - tru[None, :, 1])
            rows, cols = linear_sum_assignment(cost)
            errors.extend(cost[r, c] for r, c in zip(rows, cols) if not est[r]["visible"])
    return errors


def check_offcam_error(errors: list[float], report: dict) -> list[str]:
    reported = report.get("mean_offcam_in_phase_m")
    mine = float(np.mean(errors)) if errors else math.nan
    if reported is None or not abs(mine - reported) <= REPORT_TOLERANCE_M:
        return [f"mean_offcam_in_phase_m {reported} != recomputed {mine:.6f}"]
    return []


def check_report(report: dict) -> list[str]:
    problems = []
    for key in ("mean_offcam_in_phase_m", "mean_all_out_of_phase_m"):
        v = report.get(key)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            problems.append(f"report.json {key} = {v!r}")
    return problems


def check_axis_errors(doc: list[dict], excluded: list[list]) -> list[str]:
    """axis_errors.json names exactly the frames broken on purpose."""
    got = [[e["frame_index"], e["reason"]] for e in doc]
    return [] if got == excluded else [f"excluded frames {got} != broken frames {excluded}"]
