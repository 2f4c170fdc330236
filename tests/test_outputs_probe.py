"""``bench/outputs.py``, the byte gate: the line it prints per file."""

import hashlib
import importlib.util
from pathlib import Path

OUTPUTS = Path(__file__).parents[1] / "bench" / "outputs.py"


def _outputs():
    spec = importlib.util.spec_from_file_location("outputs", OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_file_names_the_workload_seed_kind_and_sha256(tmp_path):
    files = [tmp_path / "report.json", tmp_path / "model.json"]
    report = b"{}\n"
    files[0].write_bytes(report)
    files[1].write_bytes(b"")
    lines = _outputs().file_lines("narrow_view", 2, "outputs", files)
    assert lines == [
        f"narrow_view 2 outputs/report.json {hashlib.sha256(report).hexdigest()}",
        f"narrow_view 2 outputs/model.json {hashlib.sha256(b'').hexdigest()}",
    ]
