"""Closed-form power spectral densities and their per-bin integration.

Spectra are one-sided (factor-2 convention) in linear power and
cycles/sample, w = 2 pi f. Both trains alternate independent high runs
tau and low runs l (Rice 1944; Papoulis, Probability, Random Variables
and Stochastic Processes), so one density serves both, with
A = 1 - theta_tau, B = 1 - theta_l from :func:`~pulsepsd.charfn.run_pair`:

    S(f) = 2 / (w^2 <G>) Re[A B / (A + B - A B)]
         = [(1 - |theta_tau|^2) |B|^2 + (1 - |theta_l|^2) |A|^2] / (w^2 <G> |A + B - A B|^2)

<G> = <tau> + <l>. The second form is a sum of nonnegative terms and
nothing in it cancels as f -> 0, where it tends to

    S(0) = (<l>^2 Var tau + <tau>^2 Var l) / <G>^3,  Var = r^2 (1 - P) / P^2.

Where theta_tau theta_l = 1 at a clock harmonic k/t0, the train puts the
line power |A|^2 / (w_k <G>)^2 there (none for the blank train, whose
high runs are whole numbers of t0), and the continuum is a removable 0/0
form. One rule drops such grid points, |1 - theta_tau theta_l| <
HARMONIC_TOL at f/f0 > 1/2, and reports them. The densities take a grid
and one TrainParams (delta may be fractional); units are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import charfn
from .model import TrainParams, Variant, interval_stats, require_variant

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
    ``dropped_freqs`` of its drop rule; :func:`pulsepsd.sim.estimate_psd`
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


def _psd(grid: FrequencyGrid, params: TrainParams) -> SpectrumGrid:
    """The density of the module docstring, in its nonnegative form, on ``grid``."""
    w = 2.0 * np.pi * grid.values
    (a, loss_a), (b, loss_b) = charfn.run_pair(w, params)
    values = loss_a * np.abs(b) ** 2 + loss_b * np.abs(a) ** 2
    d = a - a * b
    d += b  # 1 - theta_tau theta_l
    del a, b
    product = np.abs(d) ** 2
    keep = (product >= HARMONIC_TOL**2) | (grid.values * params.t0 <= 0.5)
    if not keep.any():
        raise ValueError(f"all {len(keep)} grid points were dropped as near-singular")
    if not keep.all():
        w, product, values = w[keep], product[keep], values[keep]
    values /= w * w * interval_stats(params).mean_g * product
    meta = {"kind": "continuous", "dropped_freqs": tuple(grid.values[~keep].tolist())}
    return SpectrumGrid(FrequencyGrid(grid.values[keep]), values, meta)


def _lines(k_max: int, params: TrainParams) -> DiscreteLineSet:
    """Line powers |A|^2 / (w_k <G>)^2 at k/t0, k = 1 .. k_max, where theta_tau theta_l = 1."""
    k, w_k, a, periodic = charfn.clock_harmonics(params, k_max)
    power = np.where(periodic, np.abs(a / (w_k * interval_stats(params).mean_g)) ** 2, 0.0)
    return DiscreteLineSet(k=k, freq=k / float(params.t0), power=power)


def continuous_psd_transition(grid: FrequencyGrid, params: TrainParams) -> SpectrumGrid:
    """Continuous PSD of the transition-stretch train on ``grid``; clock harmonics are dropped."""
    require_variant(params, Variant.TRANSITION_STRETCH)
    return _psd(grid, params)


def discrete_lines_transition(k_max: int, params: TrainParams) -> DiscreteLineSet:
    """Line powers (sin(pi k delta / t0) p q / (k pi))^2 at k/t0, k = 1 .. k_max.

    A power is exactly 0 where k delta is a multiple of t0.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    return _lines(k_max, params)


def psd_blank_shorten(grid: FrequencyGrid, params: TrainParams) -> SpectrumGrid:
    """Blank-shorten PSD on ``grid``: the renewal form 1/<T> |F|^2 Re[(1 + theta)/(1 - theta)].

    theta is :func:`~pulsepsd.charfn.theta_blank` of the front interval T,
    |F|^2 the energy spectrum of the unit pulse of width t0.
    """
    require_variant(params, Variant.BLANK_SHORTEN)
    return _psd(grid, params)


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

    Lines (none for the blank train) are folded into the nearest kept bin,
    as an averaged periodogram receives them; the harmonic bins themselves
    are dropped, so line power lands one bin over. ``k_max`` (default 40)
    is cut to the harmonics inside the FFT span (none at t0 = 1); below 1 it is refused.
    """
    binned = bin_power(_psd(FrequencyGrid.fft_bins(fft_size), params))
    k_in_span = int(np.floor(binned.freqs[-1] * params.t0))
    lines = _lines(min(40 if k_max is None else k_max, max(1, k_in_span)), params)
    return combine(binned, lines) if k_in_span >= 1 else binned
