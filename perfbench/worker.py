"""One workload run in a fresh process; run.py starts it.

Times the import of pulsepsd (the run's set-up), then repeats the
workload's operation sequence for the requested seconds, one operation at
a time, checking every output. The first sequence is a warm-up: it is
checked but not timed. With --trace 1, untraced and traced sequences
alternate, so the traced run also measures its own overhead. The run's
record, environment included, is written as JSON to --record.

    PYTHONPATH=src python3 perfbench/worker.py --src src --workload mc-blank \
        --seed 1 --seconds 25 --trace 0 --record .bench_out/r.json
    PYTHONPATH=src python3 perfbench/worker.py --src src --probe   # import time only
"""

import time

_import_started = time.perf_counter()
import pulsepsd.cli  # noqa: E402  (timed: the workload's set-up)

IMPORT_S = time.perf_counter() - _import_started

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import ROOT, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_first(path: str, default: str = "unknown") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    for line in _read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read_first(f"{base}/level", "")
        if level in ("2", "3"):
            caches[f"l{level}"] = _read_first(f"{base}/size")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workload_seed": seed,
        "pulsepsd_threads": os.environ.get("PULSEPSD_THREADS"),
    }


class Run:
    """Runs operations, hashes and checks their outputs, tallies failures."""

    def __init__(self, out_root: Path):
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.ops: dict[str, dict] = {}
        self._verdicts: dict[tuple, str | None] = {}

    def run_op(self, op: Op, tracer: Tracer | None = None) -> tuple[float, bool]:
        """Run one operation; never raises. Returns (seconds, succeeded)."""
        out_dir = self.out_root / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        result, error = None, None
        span = tracer.begin(ROOT) if tracer is not None else None
        started = time.perf_counter()
        try:
            result = op.run(out_dir)
        except Exception as err:  # a crashing operation is a failed one; the run goes on
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - started
        if span is not None:
            tracer.end(span)

        hashes = {
            p.name: _sha256(p)
            for p in sorted(out_dir.iterdir())
            if p.is_file() and not p.name.endswith("_manifest.json")
        }
        entry = self.ops.setdefault(
            op.name,
            {"inputs": list(op.inputs), "attempted": 0, "failed": 0, "errors": [], "check": None,
             "sha256": hashes, "deterministic": True},
        )
        if error is None:
            error = self._check(op, out_dir, result, hashes, entry)
        entry["attempted"] += 1
        self.attempted += 1
        if hashes != entry["sha256"]:
            entry["deterministic"] = False
        if error is not None:
            entry["failed"] += 1
            self.failed += 1
            if error not in entry["errors"]:
                entry["errors"].append(error)
        return seconds, error is None

    def _check(self, op: Op, out_dir: Path, result, hashes: dict, entry: dict) -> str | None:
        # identical output files were already judged; library results are cheap to recheck
        key = (op.name, tuple(sorted(hashes.items()))) if hashes else None
        if key in self._verdicts:
            return self._verdicts[key]
        try:
            entry["check"] = op.check(out_dir, result)
            error = None
        except Exception as err:  # a check that cannot run is a failed check
            error = f"check failed: {type(err).__name__}: {err}"
        if key is not None:
            self._verdicts[key] = error
        return error

    def sequence(self, ops: list[Op], tracer: Tracer | None = None) -> tuple[float, int]:
        """Run every operation once. Returns (summed operation seconds, operations succeeded)."""
        results = [self.run_op(op, tracer) for op in ops]
        return sum(s for s, _ in results), sum(ok for _, ok in results)


def measure(ops: list[Op], seconds: float, trace: bool, out_root: Path) -> tuple[Run, dict]:
    run = Run(out_root)
    warmup = run.sequence(ops)[0]  # checked, not timed
    untraced: list[float] = []
    traced: list[float] = []
    completed = 0
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    while True:
        wall, ok = run.sequence(ops)
        untraced.append(wall)
        completed += ok
        if tracer is not None:
            with tracer.installed():
                traced.append(run.sequence(ops, tracer)[0])
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(untraced) > seconds:
            break

    metrics = {
        "warmup_wall_s": warmup,
        "wall_s": statistics.median(untraced),
        "ops_per_s": completed / sum(untraced),
        "sequences": len(untraced),
        "sequence_walls_s": untraced,
    }
    realizations = sum(op.realizations for op in ops)
    if realizations:
        metrics["realizations_per_s"] = realizations * len(untraced) / sum(untraced)
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced))
        layers["trace.wall_s"] = statistics.fmean(traced)
        layers["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
        metrics["layers"] = layers
        metrics["spans"] = tracer.spans
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args(argv)

    # the benchmark measures the checkout's sources, never an installed copy
    if args.src.resolve() not in Path(pulsepsd.cli.__file__).resolve().parents:
        print(f"error: pulsepsd imported from {pulsepsd.cli.__file__}, not {args.src}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0
    if args.workload is None or args.record is None:
        parser.error("--workload and --record are required")

    out_root = args.record.with_suffix(".out")
    try:
        run, metrics = measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    spans = metrics.pop("spans", None)
    if spans is not None:
        args.record.with_suffix(".spans.json").write_text(json.dumps(spans))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "import_s": IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "operations": run.ops,
        "notes": {
            "bytes_computed": "from array sizes, not measured memory traffic",
            "fft_points": "from array sizes: transform length per periodogram call",
        },
    }
    args.record.write_text(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
