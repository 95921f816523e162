"""Smoke test of the benchmark harness on tiny data sets.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY_VMP = dataclasses.replace(run.WORKLOADS["vmp-long-m10"], name="tiny-vmp", n_groups=4)
TINY_COMPARE = dataclasses.replace(
    run.WORKLOADS["example-m20"],
    name="tiny-compare",
    n_groups=6,
    cli_args=("--warmup", "300", "--kept", "1500"),
)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize(
    "workload, trace",
    [(TINY_VMP, False), (TINY_VMP, True), (TINY_COMPARE, False)],
    ids=["fit-vmp", "fit-vmp-traced", "compare"],
)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result, info = run.run(workload, seed=3, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 2
    expected = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert info["env"]["blas_threads"] == run.BLAS_THREADS


def test_broken_output_is_counted_as_failed():
    broken = []

    def break_first(path):
        if not broken:
            payload = json.loads(path.read_text())
            payload["beta_u"]["mean"][0] = float("nan")
            path.write_text(json.dumps(payload))
            broken.append(path)

    result, info = run.run(TINY_VMP, seed=3, seconds=0, trace=False, corrupt=break_first)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert not result["correct"]
    assert info["failed_frac"] == 0.5
    assert "non-finite" in info["problems"][0]


def test_check_vmp_rejects_a_mean_far_from_the_truth():
    truth = type("Truth", (), {"beta": (0.0, 1.0)})()
    payload = {
        "converged": True,
        "names": ["beta0", "beta1"],
        "beta_u": {"mean": [0.0, 2.0], "cov": [[0.01, 0.0], [0.0, 0.01]]},
    }
    assert run.check_vmp(payload, truth) == ["beta1 mean 2.0000 sd 0.1000 truth 1.0"]
    payload["beta_u"]["mean"][1] = 1.05
    assert run.check_vmp(payload, truth) == []


def test_check_compare_gates_each_gap_and_the_mean_accuracy():
    def report(accuracies, gap=0.1):
        rows = {
            name: {"vmp_mean": gap, "mcmc_mean": 0.0, "mcmc_sd": 1.0, "accuracy": acc}
            for name, acc in zip(run.COEFFICIENT_ROWS, accuracies)
        }
        return {"vmp": {"converged": True}, "parameters": rows}

    assert run.check_compare(report([94, 89, 88, 74, 90, 87])) == []
    assert run.check_compare(report([75] * 6)) == ["coefficient rows: mean accuracy 75.0"]
    assert len(run.check_compare(report([90] * 6, gap=0.6))) == 6
