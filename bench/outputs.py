#!/usr/bin/env python3
"""The sha256 of every input and output file of the benchmark's workloads.

Usage, from the root of a checkout:

    python3 bench/outputs.py [--seeds 1,2] > hashes.txt

For each workload of ``perfbench/workloads.py`` and each seed, the inputs are
made afresh by ``perfbench/run.py``'s ``prepare_inputs`` in a temporary
directory, and the workload's commands run in order, each in its own process
on this checkout's ``src`` (``run.Bench.run_command``).  One sorted line per
file is printed: workload, seed, ``inputs/`` or ``outputs/`` and the file
name, and its sha256.  So ``diff`` of the output on two checkouts lists every
input or output byte that a change moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def file_lines(workload: str, seed: int, kind: str, files: list[Path]) -> list[str]:
    """``workload seed kind/name sha256`` for each of ``files``."""
    return [
        f"{workload} {seed} {kind}/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}"
        for f in files
    ]


def workload_lines(workload, seed: int, tmp: Path) -> list[str]:
    """Make one workload's inputs at ``seed`` under ``tmp``, run its commands,
    and hash both."""
    import run

    inputs = run.prepare_inputs(workload, seed, tmp / "cache")
    work = tmp / "work"
    work.mkdir()
    bench = run.Bench(workload, inputs, work)
    for command in workload.commands:
        if not bench.run_command(command)[2]:
            raise SystemExit(f"{workload.name} seed {seed}: {command} failed; see its log above")
    outputs = [*bench.out.glob("*"), work / "model.json"]
    return file_lines(workload.name, seed, "inputs", list(inputs.glob("*"))) + file_lines(
        workload.name, seed, "outputs", outputs
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds (default: 1,2)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    lines = []
    for workload in workloads.WORKLOADS.values():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                lines += workload_lines(workload, seed, Path(tmp))
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
