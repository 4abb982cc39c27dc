"""Seeded Monte Carlo spectrum estimation by averaged periodograms.

Each realization is synthesized from its own deterministic seed, the
sample mean is removed, and the magnitude-squared one-sided real FFT
(``numpy.fft.rfft``) normalized by the pre-padding signal length L is
accumulated over bins k = 0 .. fft_size/2:

    estimate(f_k) = mean over realizations of |X_k / L|^2

A real signal's transform is conjugate-symmetric, so the upper half of a
full complex FFT carries no extra information; only
:func:`periodogram_bins` rebuilds it, by mirroring.

Every realization is a sequence of symbols of T samples, T dividing
fft_size, and every symbol a sum of fixed disjoint rows [a, b) with 0/1
coefficients, as the spectrum of a random pulse train factors into pulse
shape and symbol sequence (Papoulis, Probability, Random Variables and
Stochastic Processes). A transition-stretch config with delta > 0 whose
t0 divides fft_size has T = t0 and two rows (:mod:`pulsepsd.model`):
[0, delta), high unless the symbol is a plain "zero", and [delta, t0),
high in a "one". Every other config has T = g, the largest power of two
dividing both t0 and delta (capped at fft_size/4), and the one row
[0, g): every edge sits on that lattice, so the realization is the one
of a model g times shorter (t0/g, delta/g, the same bits) with every
sample held for g samples. With c_i the coefficients of row i less the
sample mean, C_i their transform on P = fft_size/T points and L' = L/T,

    X_k / L = sum_i A_i(k) exp(-j pi k (a_i + b_i - 1) / N) C_i(j) / L'
    A_i(k) = sin(pi k (b_i - a_i) / N) / (T sin(pi k / N))

with N = fft_size and j = k mod P folded into 0 .. P/2 (Oppenheim &
Schafer, Discrete-Time Signal Processing, ch. 4). The estimator sums
|C_i / L'|^2 over realizations, and for two rows C_0 conj(C_1) / L'^2,
whose phase factor is exp(j pi k t0 / N): one P-point transform per row
and realization, and one combination per estimate. A row's nulls, k (b -
a) a nonzero multiple of N, are exactly 0. With one row and g = 1 the
estimate is the full-rate sample transform's bit for bit; otherwise it is
that to rounding (1e-12 relative, or 1e-15 of the largest bin).

Realization i of a run with seed s draws its bits from
``numpy.random.SeedSequence((s, i))``. That scheme is part of the public
contract: estimates are bit-identical for a given config regardless of
scheduling, worker count, or process boundaries. An estimate takes every
realization's PCG64 seed words in one vectorized pass and draws each
block from one reused generator, bit for bit what
:func:`pulsepsd.model.gen_bits` draws for seed (s, i), the reference that
:func:`synthesize_realization` keeps. Accumulation happens in fixed
32-realization blocks combined in index order, so thread-level
parallelism cannot perturb floating-point results.

:func:`compare_on_common_bins` joins a closed form binned on these FFT
bins with an estimate, bin for bin; the ``compare`` command runs it.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid
from .io import db10
from .model import (
    TrainParams,
    Variant,
    _bit_rows,
    _seed_states,
    _transition_codes,
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

_BLOCK = 32
# transform points per rfft call, for every config: a whole block of short
# transforms in one call, long ones one realization at a time
_BATCH_POINTS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Full recipe for one reproducible spectrum estimate; ``params.delta`` must be whole."""

    n_symbols: int
    n_realizations: int
    fft_size: int
    seed: int
    params: TrainParams

    def __post_init__(self) -> None:
        for name in ("n_symbols", "n_realizations", "fft_size", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_symbols <= 0:
            raise ValueError(f"n_symbols must be positive, got {self.n_symbols}")
        # every realization index is one 32-bit SeedSequence entropy word
        if not 0 < self.n_realizations <= 2**32:
            raise ValueError(f"n_realizations must lie in 1 .. 2**32, got {self.n_realizations}")
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
    """One-sided periodogram |X_k / L|^2 for k = 0 .. fft_size/2 of a real signal.

    The signal may be float64 or the uint8 0/1 samples of synthesis. The
    mean is the sum over L, as ``x.mean()`` takes it; a 0/1 sum is a whole
    number in any order, so both dtypes give the same mean and bits.
    """
    spec = np.fft.rfft(x - x.sum() / len(x), n=fft_size)
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


def _symbols_drawn(config: SimConfig) -> int:
    """Bits each realization draws: n_symbols, or under blank-shorten enough for fft_size.

    n blank symbols last n*(t0 - delta) samples or more (a cut zero
    follows a full one), so ceil(fft_size/(t0 - delta)) certainly cover
    fft_size; n_symbols is not read there.
    """
    params = config.params
    if params.variant is Variant.TRANSITION_STRETCH:
        return config.n_symbols
    return math.ceil(config.fft_size / (params.t0 - params.delta))


def _realization_bits(config: SimConfig, index: int) -> np.ndarray:
    """The bits of realization ``index``, drawn from SeedSequence((seed, index))."""
    return gen_bits(_symbols_drawn(config), config.params.prob_one, (config.seed, index))


def synthesize_realization(config: SimConfig, index: int) -> np.ndarray:
    """The signal realization at this index, whose periodogram the estimator computes.

    Samples are uint8 levels in {0, 1}; cast with ``.astype(float)``
    before signed arithmetic. The estimator transforms the coefficients
    of this signal's symbols (:func:`_alphabet`): for a one-row alphabet,
    the realization of the config g times shorter, of which this signal
    holds every sample for g samples.
    """
    params = config.params
    bits = _realization_bits(config, index)
    if params.variant is Variant.TRANSITION_STRETCH:
        return synth_transition_stretch(bits, params)
    # blank-shorten: truncate so every realization shares L
    return synth_blank_shorten(bits, params)[: config.fft_size]


def _alphabet(config: SimConfig) -> tuple[tuple[int, ...], int, Callable]:
    """The row ends of the config's symbols, its lattice g, and its coefficient maker.

    Row i spans [ends[i-1], ends[i]) of a T = ends[-1] sample symbol, row
    0 from 0 (module docstring). g divides fft_size, every transition
    length and every run length, so the config g times shorter draws the
    same bits and cuts blank-shorten realizations at fft_size/g. The maker
    maps realization indices to 0/1 coefficients (realizations, rows, L'),
    drawing their bits from seed words taken once for the whole estimate.
    """
    params = config.params
    t0, delta = params.t0, whole_sample_delta(params)
    both = t0 | delta
    g = min(both & -both, config.fft_size // 4)
    transition = params.variant is Variant.TRANSITION_STRETCH
    n_symbols = _symbols_drawn(config)
    states = _seed_states(config.seed, range(config.n_realizations))

    def bits(indices: range) -> np.ndarray:
        return _bit_rows(n_symbols, params.prob_one, states[indices.start : indices.stop])

    if transition and delta and config.fft_size % t0 == 0:

        def symbols(indices: range) -> np.ndarray:
            codes = _transition_codes(bits(indices))
            return np.stack((codes != 0, codes == 1), axis=1)

        return (delta, t0), g, symbols
    reduced, cut = replace(params, t0=t0 // g, delta=delta // g), config.fft_size // g

    def samples(indices: range) -> np.ndarray:
        # a transition realization never outlasts the FFT, so the cut is blank-shorten's
        synth = synth_transition_stretch if transition else synth_blank_shorten
        return np.stack([synth(row, reduced)[:cut] for row in bits(indices)])[:, None]

    return (g,), g, samples


def _block_sum(coefficients: Callable, ends: tuple, size: int, start: int, stop: int) -> np.ndarray:
    """Sums of |C_i / L'|^2, j = 0 .. size/2, over these realizations, a row per row i.

    Two rows add Re and Im of C_0 conj(C_1) / L'^2 as rows 2 and 3. The
    mean is the samples' sum over L in integers, and each realization is
    added in index order, so one row sums :func:`_half_bins` of the config
    g times shorter bit for bit.
    """
    widths = np.diff(ends, prepend=0)
    acc = np.zeros((1 if len(ends) == 1 else 4, size // 2 + 1))
    step = max(1, _BATCH_POINTS // size)
    for first in range(start, stop, step):
        coef = coefficients(range(first, min(first + step, stop)))
        count = coef.shape[2]
        mean = np.count_nonzero(coef, axis=2) @ widths / (count * ends[-1])
        spec = np.fft.rfft((coef - mean[:, None, None]).reshape(-1, count), n=size)
        spec /= count
        spec = spec.reshape(len(coef), len(ends), -1)
        terms = spec.real**2 + spec.imag**2
        if len(ends) == 2:
            cross = spec[:, 0] * spec[:, 1].conj()
            terms = np.concatenate((terms, cross.real[:, None], cross.imag[:, None]), axis=1)
        for term in terms:
            acc += term
    return acc


def _row_response(fft_size: int, symbol: int, width: int) -> np.ndarray:
    """Signed sin(pi k w / N) / (T sin(pi k / N)) of a w-sample row, k = 1 .. N/2.

    The numerator's angle is reduced to [0, pi/2] in integers, so the
    response is accurate to rounding next to its nulls, which are exactly
    0; for w = T = 1 it is exactly 1.
    """
    k = np.arange(1, fft_size // 2 + 1)
    r = k * width
    flip = r // fft_size % 2 == 1  # sin(pi (q + r/N)) = (-1)^q sin(pi r/N)
    r %= fft_size
    num = np.sin(np.pi * np.minimum(r, fft_size - r) / fft_size)
    np.negative(num, out=num, where=flip)
    return num / (symbol * np.sin(np.pi * k / fft_size))


def _combine(fft_size: int, ends: tuple, mean: np.ndarray) -> np.ndarray:
    """Mean |X_k / L|^2, k = 1 .. fft_size/2, from the mean :func:`_block_sum` rows.

    C_j for j above size/2 is the conjugate of C_(size - j).
    """
    size = fft_size // ends[-1]
    k = np.arange(1, fft_size // 2 + 1)
    j = k % size
    fold = size - j < j
    j = np.minimum(j, size - j)
    head = _row_response(fft_size, ends[-1], ends[0])
    psd = mean[0][j] * head**2
    if len(ends) == 2:
        tail = _row_response(fft_size, ends[-1], ends[1] - ends[0])
        psd += mean[1][j] * tail**2
        turn = np.pi * (k % (2 * size)) / size  # the phase pi k t0 / N between the rows
        imag = mean[3][j]
        imag[fold] *= -1.0
        psd += 2.0 * head * tail * (np.cos(turn) * mean[2][j] - np.sin(turn) * imag)
    return psd


def estimate_psd(config: SimConfig, workers: int | None = None) -> SpectrumGrid:
    """Ensemble-average periodogram for the configured model.

    Returns the one-sided estimate on bins k/fft_size, k = 1 .. fft_size/2.
    Each realization is transformed as T-sample symbols of fixed rows,
    fft_size/T points per row, and the row responses are applied once to
    the mean (module docstring). ``meta["transform_points"]`` records
    fft_size/T, ``meta["lattice"]`` the lattice g, and
    ``meta["symbols_drawn"]`` the bits each realization drew. Blocks of 32
    realizations are evaluated (possibly in parallel) and their partial
    sums added in index order, so the result is bit-identical for any
    worker count. ``meta["workers"]`` records how many workers actually
    ran: the request (all cores if None), capped by the cores and by the
    block count. A request below 1 is an error, not a silent 1.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ends, g, coefficients = _alphabet(config)
    size = config.fft_size // ends[-1]
    blocks = [
        (start, min(start + _BLOCK, config.n_realizations))
        for start in range(0, config.n_realizations, _BLOCK)
    ]
    cores = os.cpu_count() or 1
    n_workers = min(workers or cores, cores, len(blocks))

    def block_sum(block: tuple[int, int]) -> np.ndarray:
        return _block_sum(coefficients, ends, size, *block)

    # partial sums are added as they arrive, in index order; one worker starts no thread
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        partials = pool.map(block_sum, blocks) if n_workers > 1 else map(block_sum, blocks)
        total = next(partials)
        for part in partials:
            total += part
    psd = _combine(config.fft_size, ends, total / config.n_realizations)
    meta = {
        "kind": "simulated",
        "n_symbols": config.n_symbols,
        "symbols_drawn": _symbols_drawn(config),
        "n_realizations": config.n_realizations,
        "fft_size": config.fft_size,
        "seed": config.seed,
        "seed_scheme": "SeedSequence((seed, realization_index))",
        "workers": n_workers,
        "lattice": g,
        "transform_points": size,
    }
    return SpectrumGrid(grid=FrequencyGrid.fft_bins(config.fft_size), psd=psd, meta=meta)


def compare_on_common_bins(
    analytic_spec: SpectrumGrid,
    simulated: SpectrumGrid,
    t0: float,
    band: tuple[float, float],
) -> tuple[np.ndarray, dict]:
    """Join analytic and simulated spectra bin for bin and summarize.

    The two grids must be equal, as the simulated FFT bins and those of
    :func:`pulsepsd.analytic.analytic_on_fft_grid` are. Rows
    (f/f0, analytic dB, simulated dB, diff dB) form one (n, 4) array with
    a row for every bin, excluded or not. The summary's max
    |diff| is taken over the normalized band and skips bins within 2 bin
    widths of a continuum null (integer f/f0); it records the band
    clipped to the FFT span, 0 to t0/2 f/f0.
    """
    f_a, f_s = analytic_spec.freqs, simulated.freqs
    if not np.array_equal(f_s, f_a):
        raise ValueError(
            f"grid mismatch: analytic bins {f_a[0]}..{f_a[-1]} ({len(f_a)}) are not "
            f"the simulated bins {f_s[0]}..{f_s[-1]} ({len(f_s)})"
        )
    a_db = db10(analytic_spec.psd)
    s_db = db10(simulated.psd)
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
