"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a wrong input is counted as a failure instead of raised, and
that the benchmark refuses to run without the thermint sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END_UNITS
    assert SPEC["per_layer"] == [{"name": k, "unit": u, "better": b}
                                 for k, (u, b, _m, _w) in layers.PER_LAYER.items()]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    record = run.run_workload(workload, seed=3, seconds=1, trace=1, root=ROOT, size="smoke",
                              setup_repeats=1)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line = run.result_line(dict(record, trace=trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == _units(expected)
        for v in line["metrics"].values():
            assert isinstance(v["value"], float) and math.isfinite(v["value"])


def test_wrong_inputs_are_counted_not_raised():
    inputs = workloads.make_inputs("gas-cells", 3, "smoke")
    inputs["cells"][1]["q0"] = [-1.0]  # outside the Van der Waals domain
    osc = workloads.make_inputs("oscillator-cells", 3, "full")["cells"][0]
    osc["q1"] = [osc["scale"] * 0.1 + 1e-3]  # perturbed second point
    inputs["cells"].append(osc)
    record = run.run_workload("gas-cells", seed=3, seconds=1, trace=0, root=ROOT,
                              inputs=inputs, setup_repeats=1)
    failed = sorted({r["name"] for r in record["failures"]})
    assert failed == ["oscillator-h0.1", "van-der-waals-h0.01"]
    assert "DomainError" in record["failures"][0]["problems"][0] or \
        "DomainError" in record["failures"][1]["problems"][0]
    assert not record["correct"]
    assert record["end_to_end"]["pass_ratio"] == 1.0 - record["failure_ratio"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gas-cells",
                          "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
