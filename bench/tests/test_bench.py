"""Tests of the benchmark itself: ``python3 -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_workload(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = bench_run.PER_LAYER if trace else bench_run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
    elif workload.startswith("dosage"):
        assert 3.0 < metrics["dosage.tcdf_per_relabeling"] < 3.01
    elif workload == "simulate-many":
        params = WORKLOADS[workload].smoke_params
        assert metrics["seqtest.select_cutoff_calls"] == params["trials"] * 4 * 9


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


def test_refuses_to_run_without_package(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "test-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture
def test_long_inputs(tmp_path):
    return WORKLOADS["test-long"].prepare(3, tmp_path, smoke=True)


def test_good_run_passes(test_long_inputs):
    run = bench_run.run_cli(test_long_inputs, bench_run.Clock(60))
    assert not run.failed, run.problems
    assert set(run.digests) == {"stdout", "path.csv"}


def test_corrupted_output_counts_as_failure(test_long_inputs):
    inputs = test_long_inputs
    bench_run.run_cli(inputs, bench_run.Clock(60))
    path = inputs.directory / "path.csv"
    lines = path.read_text().splitlines()
    k, p, fdp_hat = lines[5].split(",")
    lines[5] = f"{k},{p},{float(fdp_hat) * (1 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    run = bench_run.judge(bench_run.Run("cli", 1.0, 1.0, 0, False), inputs)
    assert run.failed and any("fdp_hat" in p for p in run.problems)


def test_corrupted_dosage_table_counts_as_failure(tmp_path):
    inputs = WORKLOADS["dosage-wide"].prepare(3, tmp_path, smoke=True)
    assert not bench_run.run_cli(inputs, bench_run.Clock(60)).failed
    path = inputs.directory / "dosage.csv"
    lines = path.read_text().splitlines()
    last = lines[-1].rsplit(",", 1)
    lines[-1] = f"{last[0]},{int(last[1]) + 10**6}"
    path.write_text("\n".join(lines) + "\n")
    run = bench_run.judge(bench_run.Run("cli", 1.0, 1.0, 0, False), inputs)
    assert run.failed


def test_nonzero_exit_counts_as_failure(test_long_inputs):
    inputs = test_long_inputs
    inputs.argv[inputs.argv.index("--alpha") + 1] = "1.5"
    run = bench_run.run_cli(inputs, bench_run.Clock(60))
    assert run.exit_code != 0 and run.failed


def test_wrappers_return_what_the_wrapped_calls_return():
    from scipy import special

    from accumtest import simlab

    stdtr, select_cutoff = special.stdtr, simlab.select_cutoff
    rng = np.random.default_rng(0)
    df = rng.uniform(1.0, 30.0, 500)
    t = rng.normal(0.0, 3.0, 500)
    paths = [np.cumsum(rng.random(50)) / np.arange(1, 51) for _ in range(20)]
    traced = tracer.Tracer()
    traced.wrap(special, "stdtr", "dosage.tcdf", count_elements=True)
    traced.wrap(simlab, "select_cutoff", "seqtest.select_cutoff")
    try:
        assert np.array_equal(special.stdtr(df, t), stdtr(df, t))
        for path in paths:
            for alpha in (0.1, 0.4, 0.6):
                assert simlab.select_cutoff(path, alpha) == select_cutoff(path, alpha)
    finally:
        traced.unwrap_all()
    assert special.stdtr is stdtr and simlab.select_cutoff is select_cutoff
    assert traced.counters["dosage.tcdf.elems"] == 500
    assert sum(s[2] == "seqtest.select_cutoff" for s in traced.spans) == 60


def test_installed_wrappers_leave_results_unchanged():
    from accumtest import dosage, simlab

    rng = np.random.default_rng(1)
    groups = (dosage.Group.CONTROL,) * 4 + (dosage.Group.LOW,) * 4 + (dosage.Group.HIGH,) * 3
    matrix = dosage.ExpressionMatrix(
        gene_ids=tuple(f"g{i}" for i in range(30)),
        values=rng.normal(size=(30, 11)).round(1),
        groups=groups,
    )
    config = simlab.SimConfig(n=100, n_nonnull=10, trials=3, seed=5)
    methods = simlab.default_methods()
    plain_rows = dosage.run_pipeline(matrix).rows
    plain_stats = [f.stats for f in simlab.collect_trial_frames(config, methods, workers=1)]
    traced = tracer.Tracer()
    tracer.install(traced)
    try:
        traced_rows = dosage.run_pipeline(matrix).rows
        traced_stats = [f.stats for f in simlab.collect_trial_frames(config, methods, workers=1)]
    finally:
        traced.unwrap_all()
    assert traced_rows == plain_rows
    assert all(np.array_equal(a, b) for a, b in zip(traced_stats, plain_stats))
    assert sum(s[2] == "seqtest.select_cutoff" for s in traced.spans) == 24 + 3 * 4 * 9
