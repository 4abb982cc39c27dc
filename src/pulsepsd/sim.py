"""Seeded Monte Carlo spectrum estimation by averaged periodograms.

Each realization is synthesized from its own deterministic seed, the
sample mean is removed, and the magnitude-squared one-sided real FFT
(``numpy.fft.rfft``) normalized by the pre-padding signal length L is
accumulated over bins k = 0 .. fft_size/2:

    estimate(f_k) = mean over realizations of |X_k / L|^2

A real signal's transform is conjugate-symmetric, so the upper half of a
full complex FFT carries no extra information; only
:func:`periodogram_bins` rebuilds it, by mirroring.

Every edge of a realization sits on a lattice of g samples, g the largest
power of two dividing both t0 and delta (capped at fft_size/4). The
realization is then a g-sample hold of the realization of a model g times
shorter (t0/g, delta/g, the same bits), so the estimator transforms that
signal on M = fft_size/g points and applies the hold once to the mean:

    |X_k / L|^2 = |Y_j / L'|^2 * (sin(pi k g / N) / (g sin(pi k / N)))^2

with N = fft_size, L' = L/g and j = k mod M folded into 0 .. M/2
(Oppenheim & Schafer, Discrete-Time Signal Processing, ch. 4). The
hold's nulls, k a nonzero multiple of M, are exactly 0. For odd
gcd(t0, delta), g = 1 and this is the direct transform.

Realization i of a run with seed s draws its bits from
``numpy.random.SeedSequence((s, i))``. That scheme is part of the public
contract: estimates are bit-identical for a given config regardless of
scheduling, worker count, or process boundaries. Accumulation happens in
fixed 32-realization blocks combined in index order, so thread-level
parallelism cannot perturb floating-point results.

:func:`compare_on_common_bins` joins a closed form binned on these FFT
bins with an estimate, bin for bin; the ``compare`` command runs it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid
from .io import db10
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
    """The signal realization at this index, whose periodogram the estimator computes.

    The estimator transforms the realization of the config reduced by its
    lattice (:func:`_lattice_config`); this signal is that one with every
    sample held for g samples.
    """
    params = config.params
    seed = (config.seed, index)
    if params.variant is Variant.TRANSITION_STRETCH:
        bits = gen_bits(config.n_symbols, params.prob_one, seed)
        return synth_transition_stretch(bits, params)
    # blank-shorten: draw enough symbols to certainly cover fft_size samples
    # (n symbols last n*(t0 - delta) or more: a cut zero follows a full one),
    # then truncate so every realization shares L
    n_draw = math.ceil(config.fft_size / (params.t0 - params.delta))
    bits = gen_bits(n_draw, params.prob_one, seed)
    return synth_blank_shorten(bits, params)[: config.fft_size]


def _lattice_config(config: SimConfig) -> tuple[SimConfig, int]:
    """The config g times shorter whose realizations, held g samples, are config's; and g.

    g is the largest power of two dividing t0 and delta (t0 alone when
    delta is 0), at most fft_size/4 so the reduced FFT keeps 4 points.
    It divides fft_size, every transition length n_symbols*t0 and every
    run length, so the reduced model draws the same bits and cuts
    blank-shorten realizations at fft_size/g.
    """
    params = config.params
    both = params.t0 | whole_sample_delta(params)
    g = min(both & -both, config.fft_size // 4)
    reduced = replace(params, t0=params.t0 // g, delta=params.delta // g)
    return replace(config, fft_size=config.fft_size // g, params=reduced), g


def _hold_response(fft_size: int, g: int) -> np.ndarray:
    """(sin(pi k g / N) / (g sin(pi k / N)))^2 of a g-sample hold, k = 1 .. N/2.

    The numerator's angle is reduced to [0, pi/2] in integers first, so
    the response is accurate to rounding next to its nulls, which are
    exactly 0; for g = 1 it is exactly 1.
    """
    k = np.arange(1, fft_size // 2 + 1)
    r = k * g % fft_size
    num = np.sin(np.pi * np.minimum(r, fft_size - r) / fft_size)
    return (num / (g * np.sin(np.pi * k / fft_size))) ** 2


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
    The periodograms are taken at the lattice rate, fft_size/g points
    each, and expanded with the hold response once (module docstring);
    ``meta["lattice"]`` records g. Blocks of 32 realizations are
    evaluated (possibly in parallel) and their partial sums added in
    index order, so the result is bit-identical for any worker count.
    ``meta["workers"]`` records how many workers actually ran: the
    request, capped by PULSEPSD_THREADS and by the block count.
    """
    reduced, g = _lattice_config(config)
    blocks = [
        (start, min(start + _BLOCK, config.n_realizations))
        for start in range(0, config.n_realizations, _BLOCK)
    ]
    n_workers = min(resolve_workers(workers), len(blocks))
    if n_workers <= 1:
        partials = [_block_sum(reduced, a, b) for a, b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(lambda ab: _block_sum(reduced, *ab), blocks))
    m = reduced.fft_size
    total = np.zeros(m // 2 + 1)
    for part in partials:
        total += part
    mean = total / config.n_realizations
    j = np.arange(1, config.fft_size // 2 + 1) % m
    psd = mean[np.minimum(j, m - j)] * _hold_response(config.fft_size, g)
    meta = {
        "kind": "simulated",
        "n_symbols": config.n_symbols,
        "n_realizations": config.n_realizations,
        "fft_size": config.fft_size,
        "seed": config.seed,
        "seed_scheme": "SeedSequence((seed, realization_index))",
        "workers": n_workers,
        "lattice": g,
    }
    return SpectrumGrid(grid=FrequencyGrid.fft_bins(config.fft_size), psd=psd, meta=meta)


def compare_on_common_bins(
    analytic_spec: SpectrumGrid,
    simulated: SpectrumGrid,
    t0: float,
    band: tuple[float, float],
) -> tuple[np.ndarray, dict]:
    """Join analytic and simulated spectra bin for bin and summarize.

    The analytic bins must be simulated FFT bins, as those of
    :func:`pulsepsd.analytic.analytic_on_fft_grid` are: the same
    k/fft_size values minus the harmonics the closed form drops. Rows
    (f/f0, analytic dB, simulated dB, diff dB) form one (n, 4) array with
    a row for every analytic bin, excluded or not. The summary's max
    |diff| is taken over the normalized band and skips bins within 2 bin
    widths of a continuum null (integer f/f0); it records the band
    clipped to the FFT span, 0 to t0/2 f/f0.
    """
    f_a, f_s = analytic_spec.freqs, simulated.freqs
    idx = np.searchsorted(f_s, f_a).clip(max=len(f_s) - 1)
    if not np.array_equal(f_s[idx], f_a):
        raise ValueError(
            f"grid mismatch: analytic bins {f_a[0]}..{f_a[-1]} are not among "
            f"the simulated bins {f_s[0]}..{f_s[-1]}"
        )
    a_db = db10(analytic_spec.psd)
    s_db = db10(simulated.psd[idx])
    diff = a_db - s_db
    x = f_a * t0
    bin_width_norm = t0 * f_s[0]  # f_s[0] = 1/fft_size, exact for power-of-two sizes
    near_null = (np.round(x) >= 1.0) & (np.abs(x - np.round(x)) <= 2.0 * bin_width_norm + 1e-12)
    in_band = (x > band[0]) & (x < band[1])
    use = in_band & ~near_null
    stats = {
        "band_norm": [max(band[0], 0.0), min(band[1], float(t0 * f_s[-1]))],
        "bins_in_band": int(np.count_nonzero(in_band)),
        "bins_used": int(np.count_nonzero(use)),
        "max_abs_diff_db": float(np.max(np.abs(diff[use]))) if np.any(use) else None,
        "mean_abs_diff_db": float(np.mean(np.abs(diff[use]))) if np.any(use) else None,
    }
    return np.column_stack((x, a_db, s_db, diff)), stats
