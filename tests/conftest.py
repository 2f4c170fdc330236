import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synth import synth_half, truth_half  # noqa: E402

from track_enrich.training import truth_columns  # noqa: E402
from track_enrich.forecaster import fit  # noqa: E402


@pytest.fixture(scope="session")
def training_half():
    return synth_half(seconds=180.0, fps=5, seed=11, half_id=1)


@pytest.fixture(scope="session")
def model(training_half):
    return fit([truth_columns(truth_half(training_half).frames)])


@pytest.fixture(scope="session")
def calm_half():
    return synth_half(seconds=200.0, fps=5, seed=23, half_id=1, calm=True)
