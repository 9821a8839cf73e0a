"""Smoke test of the benchmark itself, on tiny instances.

    python -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json prints with its unit, that
a wrong pinned output counts as failed ops instead of passing silently, and
that the benchmark refuses to report when there is no program to run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
from spans import Span, attribute  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_other_seed_checks_self_consistency():
    proc = bench("--workload", "sweep-methods", "--seed", "3", "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def _tamper(workload: str, pin: dict) -> dict:
    if workload == "mushroom-mine":
        return {"tsv_sha256": "0" * 64}
    if workload == "sweep-methods":
        wy = pin["thresholds"]["wy"]
        return {"thresholds": {**pin["thresholds"], "wy": math.nextafter(wy, 1.0)}}
    flags = pin["conditional"]["flags"]
    flipped = ("1" if flags[0] == "0" else "0") + flags[1:]
    return {**pin, "conditional": {**pin["conditional"], "flags": flipped}}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_pin_counts_as_failed_ops(workload):
    args = run.parse_args(["--workload", workload, "--seed", "0", "--seconds", "0.5", "--tiny"])
    result, _ = run.run(args, _tamper(workload, run.load_pin(workload, 0, tiny=True)))
    assert not result["correct"]
    assert result["failed"] >= 1
    if workload != "null-calibration":  # only trial 0's ops carry the flipped flag
        assert result["failed"] == result["attempted"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work-*"))
    proc = bench("--workload", run.WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_attribute_shares_overlap_and_sums_to_the_op():
    spans = [
        Span("bench.op", 0.0, 10.0, -1),
        Span("resample.estimate_deviation", 1.0, 9.0, 0),
        Span("search.sup_quality", 2.0, 6.0, 1),  # two worker threads
        Span("search.sup_quality", 4.0, 8.0, 1),
    ]
    totals = attribute(spans, 0)
    assert totals["search.sup_quality"] == pytest.approx(6.0)
    assert totals["resample.estimate_deviation"] == pytest.approx(2.0)
    assert totals["bench.op"] == pytest.approx(2.0)
    assert sum(totals.values()) == pytest.approx(10.0)


def test_drift_rescales_each_op_by_the_passes_around_it(monkeypatch):
    passes = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(reference, "gauge", lambda: next(passes))
    monkeypatch.setattr(reference, "EVERY_S", 0.0)
    drift = reference.Drift()
    drift.after_op()
    drift.after_op()
    nominal = reference.NOMINAL_S
    assert drift.rescale([1.0, 2.0]) == pytest.approx([nominal / 0.2, 2.0 * nominal / 0.25])
