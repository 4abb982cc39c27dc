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

A transition-stretch symbol is t0 samples holding one of three rows
(:mod:`pulsepsd.model`), so when t0 divides fft_size the estimator
transforms the symbol sequence instead of the samples, as the spectrum of
a random pulse train factors into pulse shape and symbol sequence
(Papoulis, Probability, Random Variables and Stochastic Processes). With
u the first delta samples of a "one" and v the rest, which are disjoint,
sample r of symbol m less the mean mu is h_m u_r + o_m v_r, where
h_m = [symbol m is not a plain "zero"] - mu and o_m = [symbol m is a
"one"] - mu; then, on the reduced signal,

    X_k = U_k H_j + V_k O_j,    j = k mod P, P = fft_size/t0

with U and V the M-point transforms of u and v and H and O the P-point
transforms of h and o. The mean of |X_k|^2 needs only the sums of
|H_j|^2, |O_j|^2 and H_j conj(O_j) over realizations: one P-point
transform of two sequences per realization, and one combination per
estimate. The disjoint pair keeps the expansion free of cancellation, so
the estimate is the sample transform's to rounding (1e-12 relative, or
1e-15 of the largest bin). Blank-shorten configs, transition configs
whose t0 does not divide fft_size, and those whose lattice g is t0 itself
(delta = 0), where a symbol is one reduced sample, transform samples.

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
    _transition_codes,
    _transition_rows,
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
# symbol-path transform points per rfft call: a whole block of short
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
    before signed arithmetic. The estimator transforms the realization of
    the config reduced by its lattice (:func:`_lattice_config`); this
    signal is that one with every sample held for g samples.
    """
    params = config.params
    bits = _realization_bits(config, index)
    if params.variant is Variant.TRANSITION_STRETCH:
        return synth_transition_stretch(bits, params)
    # blank-shorten: truncate so every realization shares L
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


def _takes_symbol_path(config: SimConfig) -> bool:
    """Whether the estimator transforms symbol sequences: transition, 1 < t0 dividing fft_size.

    At t0 = 1 the symbol sequences are as long as the samples, and two
    transforms cost more than one.
    """
    params = config.params
    return (
        params.variant is Variant.TRANSITION_STRETCH
        and params.t0 > 1
        and config.fft_size % params.t0 == 0
    )


def _symbol_block_sum(config: SimConfig, start: int, stop: int) -> np.ndarray:
    """Sums of |H_j|^2, |O_j|^2 and H_j conj(O_j), j = 0 .. P/2, over these realizations.

    H and O are the P = fft_size/t0 point transforms of h_m = [code != 0]
    - mean and o_m = [code 1] - mean (module docstring). The mean is the
    sum of the samples over L, in integers, as :func:`_half_bins` takes it.
    """
    params = config.params
    t0, delta = params.t0, whole_sample_delta(params)
    size = config.fft_size // t0
    step = max(1, _BATCH_POINTS // size)
    acc = np.zeros((3, size // 2 + 1), dtype=complex)
    for first in range(start, stop, step):
        indices = range(first, min(first + step, stop))
        codes = np.stack([_transition_codes(_realization_bits(config, i)) for i in indices])
        high, ones = codes != 0, codes == 1
        n_ones = np.count_nonzero(ones, axis=1)
        mean = (t0 * n_ones + delta * (np.count_nonzero(high, axis=1) - n_ones)) / (
            config.n_symbols * t0
        )
        seq = np.stack((high, ones), axis=1) - mean[:, None, None]
        h, o = np.moveaxis(np.fft.rfft(seq, n=size), 1, 0)
        acc[0] += (h.real**2 + h.imag**2).sum(axis=0)
        acc[1] += (o.real**2 + o.imag**2).sum(axis=0)
        acc[2] += (h * o.conj()).sum(axis=0)
    return acc


def _symbol_bins(config: SimConfig, sums: np.ndarray) -> np.ndarray:
    """Summed |X_k / L|^2, k = 0 .. fft_size/2, from :func:`_symbol_block_sum` sums."""
    params = config.params
    rows = _transition_rows(params)
    # the head (delta high samples) and the tail of a "one": disjoint, so nothing cancels
    u, v = np.fft.rfft(np.stack((rows[2], rows[1] - rows[2])), n=config.fft_size)
    size = config.fft_size // params.t0
    j = np.arange(config.fft_size // 2 + 1) % size
    s = sums[:, np.minimum(j, size - j)]
    fold = size - j < j
    s[2, fold] = s[2, fold].conj()  # H_(P-j) conj(O_(P-j)) = conj(H_j conj(O_j))
    cross = (u * v.conj() * s[2]).real
    length = config.n_symbols * params.t0
    return ((u.real**2 + u.imag**2) * s[0].real + (v.real**2 + v.imag**2) * s[1].real
            + 2.0 * cross) / length**2


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
    ``meta["lattice"]`` records g and ``meta["symbols_drawn"]`` the bits
    each realization drew. A transition config whose t0 divides fft_size
    and exceeds g transforms symbol sequences instead (module docstring);
    ``meta["transform_points"]`` records the points of each realization's
    transform, fft_size/t0 or fft_size/g. Blocks of 32 realizations are
    evaluated (possibly in parallel) and their partial sums added in
    index order, so the result is bit-identical for any worker count.
    ``meta["workers"]`` records how many workers actually ran: the
    request, capped by PULSEPSD_THREADS and by the block count.
    """
    reduced, g = _lattice_config(config)
    symbols = _takes_symbol_path(reduced)
    block_sum = _symbol_block_sum if symbols else _block_sum
    blocks = [
        (start, min(start + _BLOCK, config.n_realizations))
        for start in range(0, config.n_realizations, _BLOCK)
    ]
    n_workers = min(resolve_workers(workers), len(blocks))
    if n_workers <= 1:
        partials = [block_sum(reduced, a, b) for a, b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(lambda ab: block_sum(reduced, *ab), blocks))
    total = np.zeros_like(partials[0])
    for part in partials:
        total += part
    if symbols:
        total = _symbol_bins(reduced, total)
    mean = total / config.n_realizations
    m = reduced.fft_size
    j = np.arange(1, config.fft_size // 2 + 1) % m
    psd = mean[np.minimum(j, m - j)] * _hold_response(config.fft_size, g)
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
        "transform_points": config.fft_size // (config.params.t0 if symbols else g),
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
