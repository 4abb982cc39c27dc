"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pulsepsd.cli
import pytest

import run as bench_run
import workloads
from tracing import LAYERS, ROOT, Tracer, layer_metrics
from worker import Run

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

# known defect: an empty summary band makes compare format None and die
# with a TypeError traceback instead of exiting 1
CRASHING_COMPARE = (
    "compare --model transition --t0 16 --delta 2 --fft 1024 --realizations 4 "
    "--workers 1 --band 50:60"
).split()


def _small_ops() -> list:
    ops = workloads.analytic(0)[:2]
    ops += [
        workloads.cli_op(
            "simulate-blank-small",
            "simulate --model blank --t0 16 --delta 2 --fft 1024 --realizations 2 --workers 1".split(),
            lambda out_dir, _: "not checked",
        ),
        workloads.cli_op(
            "compare-small",
            "compare --model transition --t0 16 --delta 2 --fft 1024 --realizations 2 --workers 1".split(),
            lambda out_dir, _: "not checked",
        ),
        workloads.cli_op(
            "peaks-sweep-small",
            "peaks-sweep --t0 100 --deltas 8,9,10 --source analytic --workers 1".split(),
            workloads._sweep_check,
        ),
        workloads.intervals_op("intervals-small", 16, 2, 0.55, 20_000, 5),
    ]
    return ops


def test_crashing_operation_is_recorded_as_failed_and_the_run_continues(tmp_path):
    crash = workloads.cli_op("compare-bad-band", CRASHING_COMPARE, lambda out_dir, _: "unreachable")
    usage = workloads.cli_op(
        "analytic-bad-delta", "analytic --model blank --t0 100 --delta 200".split(),
        lambda out_dir, _: "unreachable",
    )
    good = workloads.analytic(0)[0]
    run = Run(tmp_path)
    for _ in range(2):
        run.sequence([crash, usage, good])
    assert (run.attempted, run.failed) == (6, 4)
    assert run.ops["compare-bad-band"]["errors"][0].startswith("TypeError")
    assert run.ops["analytic-bad-delta"]["errors"] == ["NonzeroExit: pulsepsd exited with code 1"]
    assert run.ops[good.name]["failed"] == 0
    assert run.ops[good.name]["deterministic"]
    assert set(run.ops[good.name]["sha256"]) == {"analytic_spectrum.csv", "analytic_lines.csv"}


def test_failed_check_counts_as_failed(tmp_path):
    good = workloads.analytic(0)[0]
    # p = 0.5 moves every line power off the p = 0.55 closed form the check expects
    wrong = workloads.cli_op(
        good.name, "analytic --model transition --t0 64 --delta 3 --p 0.5".split(), good.check
    )
    run = Run(tmp_path)
    run.sequence([wrong])
    assert run.failed == 1
    assert run.ops[good.name]["errors"][0].startswith("check failed: CheckFailed: line powers")


def test_no_workload_runs_the_crashing_operation():
    ops = [op for make in workloads.WORKLOADS.values() for op in make(0)]
    assert not any("--band" in op.inputs for op in ops)


def test_traced_self_times_account_for_the_wall_and_patches_are_undone(tmp_path):
    original_main = pulsepsd.cli.main
    tracer = Tracer()
    run = Run(tmp_path)
    ops = _small_ops()
    with tracer.installed():
        wall, ok = run.sequence(ops, tracer)
    assert pulsepsd.cli.main is original_main
    assert ok == len(ops)
    metrics = layer_metrics(tracer, 1)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics[ROOT + ".wall_s"], rel=1e-9)
    assert metrics[ROOT + ".wall_s"] == pytest.approx(wall, rel=0.01)
    assert metrics["charfn.theta.calls"] == 2 + 1 + 3 + 2  # transition, blank, sweep, compare
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.wall_s", "trace.overhead_s"}
    assert names <= set(metrics)
    assert {n.rsplit(".", 1)[0] for n in names} <= set(LAYERS) | {ROOT}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    assert set(bench_run.WORKLOADS) == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
