"""Seeded Monte Carlo spectrum estimation by averaged periodograms.

Each realization is synthesized from its own deterministic seed, the
sample mean is removed, and the magnitude-squared one-sided real FFT
(``numpy.fft.rfft``) normalized by the pre-padding signal length L is
accumulated over bins k = 0 .. fft_size/2:

    estimate(f_k) = mean over realizations of |X_k / L|^2

A real signal's transform is conjugate-symmetric, so the upper half of a
full complex FFT carries no extra information; only
:func:`periodogram_bins` rebuilds it, by mirroring.

Realization i of a run with seed s draws its bits from
``numpy.random.SeedSequence((s, i))``. That scheme is part of the public
contract: estimates are bit-identical for a given config regardless of
scheduling, worker count, or process boundaries. Accumulation happens in
fixed 32-realization blocks combined in index order, so thread-level
parallelism cannot perturb floating-point results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid
from .model import (
    TrainParams,
    Variant,
    gen_bits,
    synth_blank_shorten,
    synth_transition_stretch,
    whole_sample_delta,
)

__all__ = [
    "SimConfig",
    "periodogram_bins",
    "estimate_psd",
    "synthesize_realization",
]

THREADS_ENV = "PULSEPSD_THREADS"
_BLOCK = 32


@dataclass(frozen=True)
class SimConfig:
    """Full recipe for one reproducible spectrum estimate; ``params.delta`` must be whole."""

    n_symbols: int
    n_realizations: int
    fft_size: int
    seed: int
    params: TrainParams

    def __post_init__(self) -> None:
        if self.n_symbols <= 0:
            raise ValueError(f"n_symbols must be positive, got {self.n_symbols}")
        if self.n_realizations <= 0:
            raise ValueError(f"n_realizations must be positive, got {self.n_realizations}")
        if self.fft_size < 4 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two >= 4, got {self.fft_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        whole_sample_delta(self.params)
        if (
            self.params.variant is Variant.TRANSITION_STRETCH
            and self.n_symbols * self.params.t0 > self.fft_size
        ):
            raise ValueError(
                f"n_symbols * t0 = {self.n_symbols * self.params.t0} exceeds "
                f"fft_size = {self.fft_size}"
            )


def _half_bins(x: np.ndarray, fft_size: int) -> np.ndarray:
    """One-sided periodogram |X_k / L|^2 for k = 0 .. fft_size/2 of a float64 signal."""
    spec = np.fft.rfft(x - x.mean(), n=fft_size)
    spec /= len(x)
    return spec.real**2 + spec.imag**2


def periodogram_bins(signal: np.ndarray, fft_size: int) -> np.ndarray:
    """Two-sided periodogram values |X_k / L|^2 for k = 0 .. fft_size-1.

    The mean is removed before transforming, L is the signal length
    before zero padding. Signals longer than fft_size are an error. Bins
    above fft_size/2 mirror the one-sided values, since the transform of
    a real signal is conjugate-symmetric.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("signal must be a non-empty 1-D array")
    if len(x) > fft_size:
        raise ValueError(f"signal length {len(x)} exceeds fft_size {fft_size}")
    half = _half_bins(x, fft_size)
    # bin fft_size - k mirrors bin k; for even sizes bin fft_size/2 is its own mirror
    return np.concatenate((half, half[fft_size - len(half) : 0 : -1]))


def synthesize_realization(config: SimConfig, index: int) -> np.ndarray:
    """The exact signal realization the estimator uses at this index."""
    params = config.params
    seed = (config.seed, index)
    if params.variant is Variant.TRANSITION_STRETCH:
        bits = gen_bits(config.n_symbols, params.prob_one, seed)
        return synth_transition_stretch(bits, params)
    # blank-shorten: draw enough symbols to certainly cover fft_size samples
    # (zeros are the shortest), then truncate so every realization shares L
    n_draw = math.ceil(config.fft_size / (params.t0 - params.delta))
    bits = gen_bits(n_draw, params.prob_one, seed)
    return synth_blank_shorten(bits, params)[: config.fft_size]


def _block_sum(config: SimConfig, start: int, stop: int) -> np.ndarray:
    acc = np.zeros(config.fft_size // 2 + 1)
    for i in range(start, stop):
        acc += _half_bins(synthesize_realization(config, i), config.fft_size)
    return acc


def resolve_workers(requested: int | None = None) -> int:
    """Worker count for block evaluation; PULSEPSD_THREADS caps it.

    A request or a cap below 1 is an error, not a silent 1.
    """
    if requested is not None and requested < 1:
        raise ValueError(f"workers must be at least 1, got {requested}")
    n = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {cap!r}") from None
        if limit < 1:
            raise ValueError(f"{THREADS_ENV} must be at least 1, got {cap!r}")
        n = min(n, limit)
    return n


def estimate_psd(config: SimConfig, workers: int | None = None) -> SpectrumGrid:
    """Ensemble-average periodogram for the configured model.

    Returns the one-sided estimate on bins k/fft_size, k = 1 .. fft_size/2.
    Blocks of 32 realizations are evaluated (possibly in parallel) and
    their partial sums added in index order, so the result is
    bit-identical for any worker count. ``meta["workers"]`` records how
    many workers actually ran: the request, capped by PULSEPSD_THREADS
    and by the block count.
    """
    blocks = [
        (start, min(start + _BLOCK, config.n_realizations))
        for start in range(0, config.n_realizations, _BLOCK)
    ]
    n_workers = min(resolve_workers(workers), len(blocks))
    if n_workers <= 1:
        partials = [_block_sum(config, a, b) for a, b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(lambda ab: _block_sum(config, *ab), blocks))
    total = np.zeros(config.fft_size // 2 + 1)
    for part in partials:
        total += part
    mean = total / config.n_realizations
    params = config.params
    meta = {
        "kind": "simulated",
        "model": params.variant.value,
        "t0": params.t0,
        "delta": params.delta,
        "prob_one": params.prob_one,
        "n_symbols": config.n_symbols,
        "n_realizations": config.n_realizations,
        "fft_size": config.fft_size,
        "seed": config.seed,
        "seed_scheme": "SeedSequence((seed, realization_index))",
        "workers": n_workers,
    }
    return SpectrumGrid(grid=FrequencyGrid.fft_bins(config.fft_size), psd=mean[1:], meta=meta)
