"""Fast check of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    BENCH = json.load(_fh)

TINY_ROUNDS = 3000


def tiny(name: str, workdir: str):
    """The named workload at a size that runs in about a second."""
    if name == "session_small":
        return workloads.session_small(1, rounds=TINY_ROUNDS)
    if name == "session_large":
        return workloads.session_large(1, rounds=TINY_ROUNDS, rings=2)
    if name == "cli_outputs":
        return workloads.cli_outputs(1, workdir, rounds=TINY_ROUNDS)
    return workloads.OpticsWorkload(1)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_reported_with_its_unit(name, tmp_path):
    result, lines = run.measure(tiny(name, str(tmp_path)), 0.0, trace=False)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    throughput = {"session_small": "rounds_per_s",
                  "session_large": "rounds_per_s",
                  "cli_outputs": "out_mb_per_s",
                  "optics_crosscheck": "fields_per_s"}[name]
    assert any(line.startswith(throughput + " ") for line in lines)
    assert any(line.startswith("ops_failed_frac 0 ") for line in lines)

    traced, lines = run.measure(tiny(name, str(tmp_path)), 0.0, trace=True)
    assert traced["correct"], lines
    units = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert units == declared("per_layer")
    assert units == {k: tracing.UNITS[k] for k in tracing.PER_LAYER}
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_tampered_golden_fails_every_operation(tmp_path):
    wl = tiny("session_small", str(tmp_path))
    wl.golden = {key: "0" * 64 for key in workloads.TRANSCRIPT_FILES}
    result, lines = run.measure(wl, 0.5, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("golden" in line for line in lines)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([2.0]) == (2.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (4.0, 75.0, 1)
    assert run.tail([float(i) for i in range(40)]) == (29.25, 75.0, 10)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCH["command"][1:]
        + ["--workload", "session_small", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
