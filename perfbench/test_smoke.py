"""Smoke test of the benchmark itself, on tiny grids at a loose tolerance.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import layers
import run as bench
import workloads

TINY = {
    "verify2_closed": {"kpoints": 4, "tol": 1e-5},
    "verify3_general": {"kpoints": 4, "tol": 1e-5},
    "tables": {"kpoints": 8, "tpoints": 4},
}


@pytest.fixture(scope="module")
def records():
    return {(w, trace): bench.run(w, seed=1, seconds=0, trace=trace,
                                  overrides=TINY[w], setup_probes=1)
            for w in workloads.WORKLOADS for trace in (False, True)}


def traced_pass(record):
    return next(p for p in record["passes"] if p["traced"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_every_metric_is_emitted_with_a_unit(records):
    for (workload, trace), record in records.items():
        result = record["result"]
        expected = layers.PER_LAYER if trace else bench.END_TO_END
        assert list(result["metrics"]) == [name for name, _ in expected]
        for name, unit in expected:
            metric = result["metrics"][name]
            assert metric["unit"] == unit
            assert math.isfinite(metric["value"]), (workload, name)
        assert result["correct"] and result["failed"] == 0
        assert record["missing_sites"] == []
        assert result["attempted"] >= len(workloads.recipes(workload))


def test_self_times_sum_to_traced_wall(records):
    for workload in workloads.WORKLOADS:
        p = traced_pass(records[workload, True])
        # the difference is the cost of opening and closing the op roots
        assert abs(p["self_sum_s"] - p["wall_s"]) <= 0.01 * p["wall_s"] + 1e-3
        selfs = [s[2] - s[1] for s in p["spans"]]
        for name, start, end, parent, op, attrs in p["spans"]:
            if parent is not None:
                selfs[parent] -= end - start
        assert min(selfs) >= 0


def test_workloads_separate_the_layers(records):
    closed = traced_pass(records["verify2_closed", True])["layers"]
    general = traced_pass(records["verify3_general", True])["layers"]
    tables = traced_pass(records["tables", True])["layers"]
    assert closed["synth.m1m2_ns_per_sample"] == 0
    assert general["synth.m1m2_ns_per_sample"] > 0
    for name in ("propagate.steps_total", "propagate.steps_accepted",
                 "propagate.rounds", "propagate.expm_matrices"):
        assert closed[name] > 0 and general[name] > 0 and tables[name] == 0
    assert tables["cli.rows"] > 0 and closed["cli.rows"] == 0


def test_step_totals_match_the_exponentials_taken(records):
    # steps_total is derived from the doubling rule; check it against the
    # leading size of every exponential taken inside the integrator.
    for workload in ("verify2_closed", "verify3_general"):
        spans = traced_pass(records[workload, True])["spans"]
        for i, (name, *_, attrs) in enumerate(spans):
            if name == "propagate.integrate":
                taken = sum(s[5]["lead"] for s in spans
                            if s[0] == "propagate.expm" and s[3] == i)
                assert taken == attrs["steps_total"]


def test_seed_perturbs_inputs(records):
    for workload in ("verify2_closed", "verify3_general"):
        shifts = [op["grid_shift"] for op in records[workload, False]["passes"][0]["ops"]]
        assert all(0 < s < 1 for s in shifts)
    fq = bench.import_floqueng()
    ops = workloads.build(fq, "tables", 0, bench.ROOT, bench.OUT, TINY["tables"])
    assert [op.name for op in ops] == [f"{c}:{f}" for c, f, _ in workloads.TABLE_RECIPES]


def test_corrupted_drive_is_counted_as_failed():
    record = bench.run("verify2_closed", seed=0, seconds=0, trace=False,
                       overrides={**TINY["verify2_closed"], "corrupt_fz": 1.5},
                       setup_probes=1)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_the_program():
    # a tree holding only BENCHMARK.json and perfbench/, without src/ or configs/
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as bare:
        shutil.copytree(bench.HERE, Path(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
