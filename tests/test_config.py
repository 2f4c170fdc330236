import dataclasses

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from track_enrich.config import ConfigError, PipelineConfig, apply_overrides
from track_enrich.ingest import MAX_HALF_GRID_POINTS

_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)]
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats(1e-320, 1e-3)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=8), _values, max_size=6))
def test_apply_overrides_returns_a_valid_config_or_raises_config_error(values):
    cfg = PipelineConfig()
    try:
        apply_overrides(cfg, values)
    except ConfigError:
        return
    cfg.validate()
    for key, value in values.items():
        if value is not None:
            assert getattr(cfg, key) == value


def test_trim_frames_is_bounded_by_the_most_sampled_frames_a_half_holds():
    """A trim above MAX_HALF_GRID_POINTS would empty any half; 10**400 made
    degrade fail converting it to a float."""
    apply_overrides(PipelineConfig(), {"trim_frames": MAX_HALF_GRID_POINTS})
    for trim in (MAX_HALF_GRID_POINTS + 1, 10**400):
        with pytest.raises(ConfigError, match=r"trim_frames must lie in \[0, 1000000\]"):
            apply_overrides(PipelineConfig(), {"trim_frames": trim})
