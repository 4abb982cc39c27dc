"""Spans around pulsepsd's public functions, recorded from outside the package.

Each layer is a set of public functions, patched where their callers look
them up (``pulsepsd.cli`` imports most names into its own namespace, the
simulator calls ``pulsepsd.sim.gen_bits`` and so on). A wrapper records a
span ``[layer, start, end, parent]`` and adds the layer's work counts.
Spans stay in memory until the run ends. A layer's self time is its span
durations minus the durations of its direct children; calls run on one
thread (``--workers 1``), so children never overlap and that difference is
exactly the span minus the part its children cover.

``bytes_computed`` and ``fft_points`` are derived from array sizes, not
measured memory traffic.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _nothing(args, kwargs, result) -> dict:
    return {}


def _gen_bits(args, kwargs, result) -> dict:
    return {"symbols": len(result)}


def _synth(args, kwargs, result) -> dict:
    return {"samples": result.size, "bytes_computed": result.nbytes}


def _measure_intervals(args, kwargs, result) -> dict:
    return {"samples": np.size(args[0])}


def _periodogram_bins(args, kwargs, result) -> dict:
    # one complex128 transform of fft_size points per call
    return {"fft_points": result.size, "bytes_computed": result.size * 16}


def _theta(args, kwargs, result) -> dict:
    return {"points": np.size(args[0])}


def _psd(args, kwargs, result) -> dict:
    dropped = len(result.meta.get("dropped_freqs", ()))
    return {"points": len(result.psd) + dropped, "dropped": dropped}


def _write_csv(args, kwargs, result) -> dict:
    data = args[1]
    rows = len(data.psd) if hasattr(data, "psd") else len(data)
    return {"rows": rows, "bytes": os.path.getsize(args[0])}


# layer -> ([(module, attribute), ...], work counter)
LAYERS = {
    "cli.main": ([("pulsepsd.cli", "main")], _nothing),
    "cli.compare_join": ([("pulsepsd.cli", "compare_on_common_bins")], _nothing),
    "model.gen_bits": ([("pulsepsd.model", "gen_bits"), ("pulsepsd.sim", "gen_bits")], _gen_bits),
    "model.synth": (
        [
            ("pulsepsd.model", "synth_transition_stretch"),
            ("pulsepsd.sim", "synth_transition_stretch"),
            ("pulsepsd.model", "synth_blank_shorten"),
            ("pulsepsd.sim", "synth_blank_shorten"),
        ],
        _synth,
    ),
    "model.measure_intervals": ([("pulsepsd.model", "measure_intervals")], _measure_intervals),
    "sim.periodogram_bins": ([("pulsepsd.sim", "periodogram_bins")], _periodogram_bins),
    "sim.estimate_psd": ([("pulsepsd.cli", "estimate_psd"), ("pulsepsd.peaks", "estimate_psd")], _nothing),
    "charfn.theta": (
        [("pulsepsd.charfn", "theta1"), ("pulsepsd.charfn", "theta2"), ("pulsepsd.charfn", "theta_blank")],
        _theta,
    ),
    "analytic.psd": (
        [
            ("pulsepsd.cli", "continuous_psd_transition"),
            ("pulsepsd.cli", "psd_blank_shorten"),
            ("pulsepsd.peaks", "psd_blank_shorten"),
        ],
        _psd,
    ),
    "analytic.bin_combine": ([("pulsepsd.cli", "bin_power"), ("pulsepsd.cli", "combine")], _nothing),
    "peaks.find_clock_peak": ([("pulsepsd.peaks", "find_clock_peak")], _nothing),
    "peaks.sweep_delta": ([("pulsepsd.cli", "sweep_delta")], _nothing),
    "io.write_csv": (
        [
            ("pulsepsd.cli", "write_spectrum_csv"),
            ("pulsepsd.cli", "write_lines_csv"),
            ("pulsepsd.cli", "write_compare_csv"),
            ("pulsepsd.cli", "write_sweep_csv"),
        ],
        _write_csv,
    ),
    "io.write_json": ([("pulsepsd.cli", "write_json")], _nothing),
}

# the span the benchmark opens around each operation; its self time is the
# part of an operation that no layer above covers
ROOT = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn, count):
        def traced(*args, **kwargs):
            index = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.counts[layer + ".calls"] += 1
            for key, value in count(args, kwargs, result).items():
                self.counts[f"{layer}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer's functions for the duration of the block."""
        saved = []
        wrappers: dict[int, object] = {}
        try:
            for layer, (targets, count) in LAYERS.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.wrap(layer, fn, count)
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrappers[id(fn)])
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer (self seconds, total seconds) over every recorded span."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for layer, start, end, parent in self.spans:
            duration = end - start
            self_s[layer] += duration
            total_s[layer] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return dict(self_s), dict(total_s)


def layer_metrics(tracer: Tracer, sequences: int) -> dict[str, float]:
    """Per-sequence means of every layer's counts and times."""
    self_s, total_s = tracer.times()
    out = {name: value / sequences for name, value in tracer.counts.items()}
    for layer, value in self_s.items():
        out[layer + ".self_s"] = value / sequences
    for layer, value in total_s.items():
        out[layer + ".wall_s"] = value / sequences
    return out
