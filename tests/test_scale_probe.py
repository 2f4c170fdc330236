"""``bench/scale.py``, the Metrica-size probe: where a run writes its result."""

import importlib.util
from pathlib import Path

SCALE = Path(__file__).parents[1] / "bench" / "scale.py"


def _scale():
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_defaults_to_the_first_free_bench_file(tmp_path):
    scale = _scale()
    assert scale.next_free_bench(tmp_path) == tmp_path / "BENCH_1.json"
    for n in (1, 2, 4):
        (tmp_path / f"BENCH_{n}.json").write_text("{}\n")
    assert scale.next_free_bench(tmp_path) == tmp_path / "BENCH_3.json"
    assert (tmp_path / "BENCH_1.json").read_text() == "{}\n"

