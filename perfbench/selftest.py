"""The benchmark's own tests: every workload at ``--quick`` size, through the
same code paths as a full run.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Layer functions each workload must reach (calls > 0 in a traced run).
REACHES = {
    "cli-ensemble": [
        "cli.main", "system.spec_from_config", "parameterization.compute_generator",
        "trajectory.BlockTable", "lie_rep.povm_blocks",
        "lie_rep.disentangle_quadratic", "lie_rep.normal_order_linear",
        "lie_rep.reordering_scalar", "trajectory.sample_ostensible_record",
        "trajectory.accumulate_integrals", "trajectory.stochastic_d",
        "trajectory.record_to_csv", "state_engine.apply_evolution",
        "state_engine.normalize_and_trace", "state_engine.state_to_json"],
    "lib-ensemble": [
        "parameterization.compute_generator", "trajectory.BlockTable",
        "lie_rep.povm_blocks", "lie_rep.disentangle_quadratic",
        "lie_rep.normal_order_linear", "lie_rep.reordering_scalar",
        "trajectory.accumulate_integrals_ensemble",
        "state_engine.EnsemblePropagator",
        "state_engine.EnsemblePropagator.propagate_vec"],
    "record-summary": [
        "parameterization.compute_generator", "trajectory.BlockTable",
        "lie_rep.povm_blocks",
        "trajectory.sample_conditioned_record_gaussian",
        "trajectory.accumulate_integrals_ensemble", "trajectory.stochastic_d"],
    "long-record": [
        "cli.main", "system.spec_from_config", "parameterization.compute_generator",
        "trajectory.BlockTable", "lie_rep.povm_blocks",
        "lie_rep.disentangle_quadratic", "trajectory.sample_ostensible_record",
        "trajectory.accumulate_integrals", "trajectory.stochastic_d",
        "trajectory.record_to_csv", "trajectory.record_from_csv",
        "state_engine.apply_evolution", "state_engine.normalize_and_trace",
        "state_engine.state_to_json", "povm.effect_from_blocks",
        "povm.retrodict_posterior", "adjoint_kalman.integrate_backward",
        "adjoint_kalman.backward_moment_trajectory",
        "adjoint_kalman.crosscheck_against_povm"],
}


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"], cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def _result(workload: str, trace: int, seed: int = 3):
    done = _run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return done.stdout, result, report


def _assert_contract(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    stdout, result, report = _result(workload, trace=0)
    _assert_contract(result, BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
        assert f"  {m['name']} " in stdout
    shown = report["metrics"]
    assert shown["failed_share"] == {"value": 0.0, "unit": "ratio"}
    if workload == "long-record":
        for cmd in ("simulate", "povm", "adjoint"):
            assert shown[f"cmd_s.{cmd}"]["value"] > 0
            assert shown[f"cmd_s.{cmd}"]["unit"] == "s"
    assert report["checks"] and all(c["passed"] for c in report["checks"])
    assert set(report["env"]) == {"cpu", "nproc", "python", "numpy", "scipy",
                                  "blas", "LINTRAJ_THREADS", "git_commit"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    stdout, result, report = _result(workload, trace=1)
    _assert_contract(result, BENCH["per_layer"])
    metrics = result["metrics"]
    for fn in REACHES[workload]:
        assert metrics[f"{fn}.calls"]["value"] > 0, fn
        assert metrics[f"{fn}.self_s"]["value"] > 0, fn
    assert "no wait times are recorded" in stdout
    spans = (OUT / f"spans-{workload}-seed3-trace1.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"name", "start", "end", "parent", "trace"}
    assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_counts_repeat_exactly():
    """Same seed: calls and bytes written repeat; another seed: calls repeat."""
    def counts(seed):
        _, result, _ = _result("long-record", trace=1, seed=seed)
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith(".calls") or k == "cli.bytes_written"}

    first = counts(5)
    assert first == counts(5)
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in counts(6).items() if k.endswith(".calls")}


def test_refuses_to_run_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in HERE.glob("*.py"):
        shutil.copy(p, bare / "perfbench")
    shutil.copy(HERE / "NOTES.md", bare / "perfbench")
    try:
        done = _run("cli-ensemble", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
