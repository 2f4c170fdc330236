"""Pipeline configuration: a flat-key JSON file, overridable per CLI flag."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .forecaster import MAX_LAGS
from .geometry import is_finite_number
from .ingest import DEFAULT_AXIS_DISAGREEMENT_M, MAX_HALF_GRID_POINTS, MAX_HALF_SPAN_S


class ConfigError(ValueError):
    """Invalid configuration or missing input; maps to exit code 2."""


@dataclass
class PipelineConfig:
    # inputs
    train_home_csv: str | None = None
    train_away_csv: str | None = None
    test_home_csv: str | None = None
    test_away_csv: str | None = None
    test_events_csv: str | None = None
    frames_360_json: str | None = None
    events_360_json: str | None = None
    # artifacts
    model_path: str = "model.json"
    output_dir: str = "out"
    # degradation
    sample_period_s: float = 1.0
    visibility_radius_m: float = 30.0
    trim_frames: int = 30
    # forecaster
    ar_order: int = 2
    ma_order: int = 1
    ball_lags: int = 2
    grid_step_s: float = 1.0
    # interpolation / ingest
    alpha: float = 0.5
    axis_disagreement_m: float = DEFAULT_AXIS_DISAGREEMENT_M
    # output
    enrich_period_s: float = 1.0

    def validate(self) -> None:
        for name in ("sample_period_s", "grid_step_s", "enrich_period_s"):
            period = getattr(self, name)
            if not period > 0:
                raise ConfigError("periods and grid step must be positive")
            if MAX_HALF_SPAN_S / period > MAX_HALF_GRID_POINTS:
                raise ConfigError(
                    f"{name} {period!r} would put more than {MAX_HALF_GRID_POINTS} points "
                    f"on a {MAX_HALF_SPAN_S:g} s half"
                )
        if self.visibility_radius_m <= 0:
            raise ConfigError("visibility_radius_m must be positive")
        if not 0 <= self.trim_frames <= MAX_HALF_GRID_POINTS:
            # a half has no more sampled frames than this, so a larger trim empties it
            raise ConfigError(f"trim_frames must lie in [0, {MAX_HALF_GRID_POINTS}]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in ("ar_order", "ma_order", "ball_lags"):
            lags = getattr(self, name)
            if not 0 <= lags <= MAX_LAGS:
                raise ConfigError(f"{name} must lie in [0, {MAX_LAGS}], got {lags}")

    def require_paths(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not value:
                raise ConfigError(f"config key '{name}' is required for this command")
            if not Path(value).is_file():
                raise ConfigError(f"{name}: no such file: {value}")

    def require_output(self, name: str) -> None:
        """Fail before any work when output key ``name`` cannot be written:
        ``output_dir`` names a directory and any other output a file, and the
        nearest existing path on the way to it must be a directory."""
        path = Path(getattr(self, name))
        if name != "output_dir":
            if path.is_dir():
                raise ConfigError(f"{name}: is a directory: {path}")
            path = path.parent
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"{name}: not a directory: {existing}")


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}

# What each field type accepts (annotations are strings here), and its name.
_ACCEPTS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (is_finite_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: isinstance(v, str), "a string or null"),
}


def load_config(path: str | Path | None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise ConfigError(f"config file does not exist: {path}")
    except IsADirectoryError:
        raise ConfigError(f"config file {path} is a directory")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 text: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError(f"config file {path} nests JSON too deeply to read")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    apply_overrides(cfg, doc, source=str(path))
    return cfg


def apply_overrides(cfg: PipelineConfig, values: dict, *, source: str = "flags") -> None:
    for key, value in values.items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key '{key}' (from {source})")
        accepts, kind = _ACCEPTS[_FIELDS[key].type]
        if not accepts(value):
            raise ConfigError(f"config key '{key}' (from {source}) must be {kind}, got {value!r}")
        setattr(cfg, key, value)
    cfg.validate()
