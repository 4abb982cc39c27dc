"""Closed-form power spectral densities and their per-bin integration.

All spectra are one-sided with the factor-2 convention and carry linear
power units; dB conversion happens only at the output layer. Frequencies
are cycles/sample (the sample rate is fixed at 1), angular frequency
w = 2 pi f. The transition-stretch continuum is

    S_c(f) = 2 / (w^2 <G>) * Re[(1 - theta1)(1 - theta2) / (1 - theta1 theta2)]

with <G> = t0 (2 + p/q + q/p), and its discrete part puts the line power

    (sin(pi k delta / t0) * p q / (k pi))^2

on each clock harmonic k/t0. The blank-shorten train is a renewal pulse
train (Rice 1944; Papoulis, Probability, Random Variables and Stochastic
Processes): its density is

    S_b(f) = K |F(w)|^2 Re[(1 + theta)/(1 - theta)]

for a rectangular pulse of width t0, with K = 1/<T> the pulse rate, so
it holds for any P(one) = p in absolute units. With integer t0 and
delta the fronts sit on a lattice of g = gcd(t0, delta); lines could
appear only at k/g, where |F|^2 = 0, so the density is the whole
spectrum. Values exactly on clock harmonics are removable 0/0 forms;
such grid points are dropped and reported, never interpolated. Both
densities take a grid and one TrainParams, whose delta may be fractional
(the forms are continuous-time), and return absolute units; rescaling
for display is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import charfn
from .model import TrainParams, Variant, front_head, interval_stats, require_variant

__all__ = [
    "FrequencyGrid",
    "SpectrumGrid",
    "DiscreteLineSet",
    "continuous_psd_transition",
    "discrete_lines_transition",
    "psd_blank_shorten",
    "bin_power",
    "combine",
]

HARMONIC_TOL = 1e-9
SINGULAR_TOL = 1e-9
# fraction of grid points allowed to need a negative->0 clamp (float noise only)
CLAMP_BUDGET = 1e-3


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, finite, positive frequencies in cycles/sample."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("frequency grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("frequency grid values must be finite")
        if v[0] <= 0.0:
            raise ValueError(f"frequency grid must start above 0, got {v[0]!r}")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def offset_linspace(cls, f_max: float, n_points: int) -> "FrequencyGrid":
        """n_points bins over (0, f_max], each centered half a step in.

        The half-step offset keeps every point away from exact clock
        harmonics for any integer t0 dividing n_points or not.
        """
        if n_points < 1 or f_max <= 0:
            raise ValueError("need n_points >= 1 and f_max > 0")
        step = f_max / n_points
        return cls((np.arange(1, n_points + 1) - 0.5) * step)

    @classmethod
    def fft_bins(cls, fft_size: int) -> "FrequencyGrid":
        """One-sided FFT bin centers k/fft_size, k = 1 .. fft_size/2."""
        if fft_size < 4:
            raise ValueError(f"fft_size too small: {fft_size}")
        k = np.arange(1, fft_size // 2 + 1)
        return cls(k / float(fft_size))


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """A frequency grid, aligned nonnegative linear-power values, and meta.

    ``meta`` holds only what is read: ``kind`` ("continuous", "binned",
    "combined" or "simulated") labels the CSV rows; a closed form adds the
    near-singular ``dropped_freqs`` and ``clamped_points``, its count of
    float-noise negatives set to zero; :func:`pulsepsd.sim.estimate_psd`
    adds the config it resolved. Derived spectra, a rescaled one included,
    are ``dataclasses.replace``d from their input, keeping its meta, and
    are validated again.
    """

    grid: FrequencyGrid
    psd: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = np.asarray(self.psd, dtype=np.float64)
        if p.shape != (len(self.grid),):
            raise ValueError(
                f"psd length {p.shape} does not match grid length {len(self.grid)}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("psd values must be finite")
        if np.any(p < 0.0):
            raise ValueError("psd values must be >= 0")
        object.__setattr__(self, "psd", p)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def freqs(self) -> np.ndarray:
        return self.grid.values


@dataclass(frozen=True, eq=False)
class DiscreteLineSet:
    """Clock-harmonic line frequencies and powers for k = 1 .. k_max."""

    k: np.ndarray
    freq: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=np.int64)
        f = np.asarray(self.freq, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        if not (k.shape == f.shape == p.shape):
            raise ValueError("k, freq, power must have identical shapes")
        if np.any(p < 0.0):
            raise ValueError("line powers must be >= 0")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "freq", f)
        object.__setattr__(self, "power", p)

    def __len__(self) -> int:
        return len(self.k)


def _harmonic_mask(freqs: np.ndarray, t0: float) -> np.ndarray:
    """True where a grid point sits within HARMONIC_TOL of some k/t0, k >= 1."""
    k_near = np.round(freqs * t0)
    return (k_near >= 1.0) & (np.abs(freqs - k_near / t0) < HARMONIC_TOL)


def _density(grid: FrequencyGrid, keep: np.ndarray, values: np.ndarray) -> SpectrumGrid:
    """A closed form's ``values`` at the ``keep`` points of ``grid``, as a continuous spectrum.

    Float-noise negatives are clamped to zero unless they reach
    CLAMP_BUDGET of the kept points, which signals a formula error; the
    dropped frequencies and the clamp count go into meta.
    """
    neg = values < 0.0
    n_neg = int(np.count_nonzero(neg))
    if n_neg >= CLAMP_BUDGET * len(values) and n_neg > 0:
        raise RuntimeError(
            f"{n_neg} of {len(values)} grid points came out negative; "
            "that exceeds the float-noise clamping budget and signals a formula error"
        )
    if n_neg:
        values = np.where(neg, 0.0, values)
    dropped = tuple(grid.values[~keep].tolist())
    meta = {"kind": "continuous", "dropped_freqs": dropped, "clamped_points": n_neg}
    return SpectrumGrid(FrequencyGrid(grid.values[keep]), values, meta)


def continuous_psd_transition(grid: FrequencyGrid, params: TrainParams) -> SpectrumGrid:
    """Continuous PSD of the transition-stretch train on the given grid.

    Unit amplitude, factor-2 one-sided convention. Points within 1e-9 of
    a clock harmonic are dropped (the closed form is a removable 0/0
    there) and reported in ``meta["dropped_freqs"]``.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    keep = ~_harmonic_mask(grid.values, params.t0)
    w = 2.0 * np.pi * grid.values[keep]
    t1 = charfn.theta1(w, params)
    t2 = charfn.theta2(w, params)
    g_mean = interval_stats(params).mean_g
    ratio = (1.0 - t1) * (1.0 - t2) / (1.0 - t1 * t2)
    return _density(grid, keep, 2.0 / (w * w * g_mean) * np.real(ratio))


def discrete_lines_transition(k_max: int, params: TrainParams) -> DiscreteLineSet:
    """Discrete line powers at clock harmonics k/t0 for k = 1 .. k_max.

    Powers are exactly zero whenever k*delta is a multiple of t0 (the
    sine factor vanishes), in particular for delta = 0 at every k.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    if k_max <= 0:
        raise ValueError(f"k_max must be positive, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=np.int64)
    p = params.prob_one
    q = params.prob_zero
    amp = np.sin(np.pi * k * params.delta / params.t0) * p * q / (k * np.pi)
    power = amp * amp
    power[(k * params.delta) % params.t0 == 0] = 0.0
    return DiscreteLineSet(k=k, freq=k / float(params.t0), power=power)


def psd_blank_shorten(grid: FrequencyGrid, params: TrainParams) -> SpectrumGrid:
    """Blank-shorten PSD: 1/<T> * |F|^2 * Re[(1 + theta)/(1 - theta)].

    The front interval T has mean <T> = p t0 + q head + (q/p)(t0 - delta)
    = -j theta'(0), head the :func:`~pulsepsd.model.front_head` of the law,
    p = ``params.prob_one``, q = 1 - p. 1/<T> is the pulse rate, so the
    density is in absolute units.
    |F(w)|^2 = (2 sin(w t0 / 2) / w)^2 is the energy spectrum of the unit
    rectangular pulse of width t0; the grid starts above 0, so w > 0.
    Grid points where |1 - theta| < 1e-9 (exactly the clock harmonics
    whose shortening cancels a whole number of slots) are dropped and
    reported in ``meta["dropped_freqs"]``.
    """
    w = 2.0 * np.pi * grid.values
    theta = charfn.theta_blank(w, params)
    t0, slot, p, q = params.t0, params.t0 - params.delta, params.prob_one, params.prob_zero
    # <T> in the form whose last term is exactly 0 under the paper law
    mean_interval = p * t0 + slot * (1.0 / p - p) + q * (front_head(params) - slot)
    one_minus = 1.0 - theta
    keep = ~(np.abs(one_minus) < SINGULAR_TOL)
    phi = np.real((1.0 + theta[keep]) / one_minus[keep])
    wk = w[keep]
    values = (2.0 * np.sin(wk * t0 / 2.0) / wk) ** 2 * phi * (1.0 / mean_interval)
    return _density(grid, keep, values)


def bin_power(spectrum: SpectrumGrid) -> SpectrumGrid:
    """Integrate a density into per-bin power on the same axis.

    Bin k receives S(f_k) * (f_k - f_{k-1}) with f_0 = 0, the Hz form of
    the angular rule S(w_k)(w_k - w_{k-1}) / (2 pi); f_{k-1} may be one of
    the ascending ``meta["dropped_freqs"]``, whose bin stays empty. Matches the
    |X_k / L|^2 normalization of the averaged periodogram bin for bin.
    """
    f = spectrum.freqs
    if len(f) < 2:
        raise ValueError("bin_power needs a grid with at least 2 points")
    dropped = np.array((0.0, *spectrum.meta.get("dropped_freqs", ())))
    widths = f - np.maximum(np.r_[0.0, f[:-1]], dropped[np.searchsorted(dropped, f) - 1])
    return replace(spectrum, psd=spectrum.psd * widths, meta={**spectrum.meta, "kind": "binned"})


def combine(binned_continuous: SpectrumGrid, lines: DiscreteLineSet) -> SpectrumGrid:
    """Add each discrete line's power into the nearest continuous bin.

    Every line frequency must lie within the grid span; offenders are
    reported together by their harmonic index k.
    """
    f = binned_continuous.freqs
    outside = (lines.freq < f[0]) | (lines.freq > f[-1])
    if np.any(outside):
        bad = ", ".join(str(int(k)) for k in lines.k[outside])
        raise ValueError(f"line frequencies outside the grid span for k = {bad}")
    psd = binned_continuous.psd.copy()
    idx = np.searchsorted(f, lines.freq)
    idx = np.clip(idx, 1, len(f) - 1)
    left_closer = (lines.freq - f[idx - 1]) <= (f[idx] - lines.freq)
    nearest = np.where(left_closer, idx - 1, idx)
    np.add.at(psd, nearest, lines.power)
    return replace(binned_continuous, psd=psd, meta={**binned_continuous.meta, "kind": "combined"})


def analytic_on_fft_grid(params: TrainParams, fft_size: int, k_max: int | None = None) -> SpectrumGrid:
    """Binned analytic spectrum on the simulator's one-sided FFT bins.

    For the transition model the discrete lines are folded into the
    nearest retained bin, mirroring how an averaged periodogram receives
    them; harmonic bins themselves are dropped by the continuum
    evaluation (removable singularities), so line power lands one bin
    over, inside any sensible null-exclusion band. ``k_max`` (default 40)
    is cut to the harmonics inside the FFT span; below 1 it is refused.
    """
    grid = FrequencyGrid.fft_bins(fft_size)
    if params.variant is Variant.TRANSITION_STRETCH:
        binned = bin_power(continuous_psd_transition(grid, params))
        k_in_span = int(np.floor(binned.freqs[-1] * params.t0))
        k_use = min(40 if k_max is None else k_max, max(1, k_in_span))
        return combine(binned, discrete_lines_transition(k_use, params))
    return bin_power(psd_blank_shorten(grid, params))
