"""Tests of the benchmark itself: output checks, tracing and the contract file.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import passes
import run
import spans

lejaflip = passes.import_lejaflip()


def test_compare_counts_each_reference_field():
    ref = [{"N": 1, "max_sup": 1.5, "max_rel_err": 1e-16, "tag": "a"}]
    failures = []
    assert passes.compare(ref, [{"N": 1, "max_sup": 1.5, "max_rel_err": 3.0, "tag": "a", "new": 7}], "", failures) == 3
    assert failures == []


@pytest.mark.parametrize(
    "got, failed",
    [
        (1.5 * (1 + 1e-13), 0),
        (1.5 * (1 + 1e-11), 1),
        ("1.5", 1),
        (True, 1),
    ],
)
def test_compare_tolerance(got, failed):
    failures = []
    passes.compare({"v": 1.5}, {"v": got}, "", failures)
    assert len(failures) == failed


def test_compare_missing_fields_and_extra_rows_fail():
    failures = []
    checks = passes.compare([{"a": 1.0, "b": 2.0}], [{"a": 1.0}, {"a": 3.0}], "", failures)
    assert checks == 3
    assert len(failures) == 2


def test_rounding_level_zeros_match():
    failures = []
    passes.compare({"re": 6.123233995736766e-17}, {"re": -1.8e-16}, "", failures)
    assert failures == []


def test_planted_wrong_reference_value_is_counted(tmp_path):
    invocations = [["bounds", "--max-n", "3"], ["leja", "--disk", "-N", "4"]]
    _, codes = passes.run_invocations(lejaflip.cli, invocations, 0, tmp_path)
    reference = [json.loads((tmp_path / f"{i}.json").read_text()) for i in range(len(invocations))]
    checks, failures, _ = passes.check_outputs(invocations, codes, tmp_path, reference)
    assert checks == 2 + 3 * 5 + 2 + 4 * 2
    assert failures == []
    reference[0][2]["lebesgue"] *= 1.001
    planted_checks, failures, _ = passes.check_outputs(invocations, codes, tmp_path, reference)
    assert planted_checks == checks
    assert len(failures) == 1 and "[2].lebesgue" in failures[0]


def test_crashing_invocation_is_a_failed_check(tmp_path):
    def main(argv):
        raise ZeroDivisionError("planted")

    invocations = [["bounds", "--max-n", "3"]]
    _, codes = passes.run_invocations(types.SimpleNamespace(main=main), invocations, 0, tmp_path)
    assert "ZeroDivisionError: planted" in codes[0]
    checks, failures, _ = passes.check_outputs(invocations, codes, tmp_path, [[{"N": 1}]])
    assert checks == 2
    assert len(failures) == 2


def test_tracer_counts_scans_and_restores_entry_points(tmp_path):
    tracer = spans.Tracer()
    original = lejaflip.cli.circle_flip_stats
    with tracer.installed():
        assert lejaflip.cli.circle_flip_stats is not original
        times, codes = passes.run_invocations(lejaflip.cli, [["bounds", "--max-n", "4"]], 0, tmp_path)
    assert lejaflip.cli.circle_flip_stats is original
    assert codes == [0]
    wall = sum(times)
    m = tracer.metrics(wall)
    assert list(m) == [name for name in spans.METRIC_UNITS if name != "trace.overhead_s"]
    assert (m["cli.calls"], m["flip.calls"], m["disk.calls"], m["bivariate.calls"]) == (1, 4, 4, 0)
    assert m["flip.scan_elems"] == 4096 * (1 + 2 + 3 + 4)
    assert tracer.missing == []
    layer_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0.0 < layer_self <= wall
    assert m["trace.unattributed_s"] == pytest.approx(wall - layer_self)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        (-1, "cli", "main", 0.0, 10.0, 0),
        (0, "flip", "circle_flip_stats", 1.0, 5.0, 100),
        (1, "disk", "canonical_disk_leja", 2.0, 3.0, 0),
    ]
    m = tracer.metrics(10.0)
    assert (m["cli.self_s"], m["flip.self_s"], m["disk.self_s"]) == (6.0, 3.0, 1.0)
    assert m["flip.scan_ns_per_elem"] == pytest.approx(3.0 / 100 * 1e9)
    assert m["trace.unattributed_s"] == 0.0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((passes.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(passes.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.METRIC_UNITS
    for workload in passes.WORKLOADS:
        assert len(passes.load_reference(workload)) == len(passes.WORKLOADS[workload])


def _copy_benchmark(dest: Path, with_sources: bool) -> None:
    shutil.copy(passes.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(passes.BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(passes.SRC, dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_run_reports_a_planted_reference_value_as_failed(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    ref_file = tmp_path / "bench" / "reference" / "bivariate_identities.json"
    ref = json.loads(ref_file.read_text())
    ref["outputs"][4]["output"][0]["lebesgue"] += 1.0
    ref_file.write_text(json.dumps(ref))
    proc = _bench(tmp_path, "--workload", "bivariate_identities", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 100
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_run_fails_without_sources(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    proc = _bench(tmp_path, "--workload", "disk_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
