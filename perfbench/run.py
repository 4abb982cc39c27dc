"""pulsepsd benchmark: runs one workload, or all of them, and prints the metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-blank --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload run goes to its own fresh process (worker.py), so set-up
time and peak RSS belong to that workload. Set-up time is the import of
pulsepsd, taken as the median over the worker and several import-only
probe processes. Every run pins --workers 1 and PULSEPSD_THREADS=1.

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The lines before it
give every metric by name and unit, error_rate and the environment. The
full run record, with the SHA-256 of every data file each operation wrote,
is kept under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analytic", "mc-transition", "mc-blank", "intervals")
PROBES = 7
PROBE_TIMEOUT_S = 30
# a run measures for --seconds, plus its warm-up sequence and the last
# sequence it starts; a run must end within 180 s
WORKER_SLACK_S = 100


class BenchError(Exception):
    pass


def _child(argv: list[str], env: dict, timeout: float) -> None:
    # a child's stdout (pulsepsd's own prints) goes to stderr, keeping stdout ours
    try:
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{' '.join(argv[1:])} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with code {proc.returncode}")


def _probe(worker: list[str], env: dict) -> float:
    proc = subprocess.run(worker + ["--probe"], env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)["import_s"]


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    src = root / "src"
    if not (src / "pulsepsd" / "__init__.py").is_file():
        raise BenchError(f"no pulsepsd sources under {src}; run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=str(src), PULSEPSD_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    records = root / ".bench_out"
    records.mkdir(exist_ok=True)
    record_path = records / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}.json"
    worker = [sys.executable, str(HERE / "worker.py"), "--src", str(src)]

    _probe(worker, env)  # the first import in a checkout compiles bytecode; not timed
    imports = [_probe(worker, env) for _ in range(PROBES)]
    _child(worker + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--record", str(record_path)],
           env, seconds + WORKER_SLACK_S)
    record = json.loads(record_path.read_text())
    imports.append(record["import_s"])
    record["setup_s"] = statistics.median(imports)
    record["setup_samples_s"] = imports
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


def metric_values(record: dict, spec: dict, trace: int) -> dict:
    if trace:
        layers = record["metrics"]["layers"]
        return {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                for m in spec["per_layer"]}
    measured = {
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        **record["metrics"],
    }
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def report(record: dict, metrics: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['metrics']['sequences']} timed sequences after 1 warm-up")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if "realizations_per_s" in record["metrics"] and not record["trace"]:
        print(f"  {'realizations_per_s':34s} {record['metrics']['realizations_per_s']:14.6g} 1/s")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':34s} {rate:14.6g} ({record['failed']} of {record['attempted']} "
          f"operations failed)")
    if record["trace"]:
        layers = record["metrics"]["layers"]
        covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"  self times sum to {covered:.6g} s of the traced wall {layers['trace.wall_s']:.6g} s")
    for name, op in record["operations"].items():
        for error in op["errors"]:
            print(f"  FAILED {name}: {error}")
        for file, digest in op["sha256"].items():
            print(f"  sha256 {name}/{file} {digest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pulsepsd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            record = run_workload(root, workload, args.seed, args.seconds, args.trace)
            results[workload] = (record, metric_values(record, spec, args.trace))
    except (BenchError, OSError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for record, metrics in results.values():
        report(record, metrics)
    records = [r for r, _ in results.values()]
    failed = sum(r["failed"] for r in records)
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{w}.{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
