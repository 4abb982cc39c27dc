"""Clock-peak detection and delta sweeps for the blank-shorten spectrum.

Frequencies inside this module are normalized to the clock f0 = 1/t0.
The clock peak is searched in [0.8, 1.3] and referenced against the
sinc-squared second lobe found in (1.0, 2.0); both windows are
overridable. The reported quantities are ratios and frequencies only, so
a PeakReport never depends on the absolute scale of the input spectrum.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid, psd_blank_shorten
from .model import TrainParams, Variant
from .sim import SimConfig, estimate_psd

__all__ = [
    "PeakReport",
    "PeakDetectionError",
    "LinearFit",
    "find_clock_peak",
    "normalize_second_lobe",
    "sweep_delta",
    "linear_fit",
]

PEAK_WINDOW = (0.8, 1.3)
LOBE_WINDOW = (1.0, 2.0)
# fixed normalization window; sits past any clock peak the sweeps produce
NORMALIZE_WINDOW = (1.25, 2.0)
# analytic sweeps evaluate on this normalized span, dense enough to
# resolve the half-height width down to delta = 0.5% of t0
SWEEP_SPAN = (0.3, 3.0)
SWEEP_POINTS = 400001


class PeakDetectionError(RuntimeError):
    """Peak search failed; carries the delta of the offending sweep item."""

    def __init__(self, message: str, delta: Optional[float] = None):
        super().__init__(message if delta is None else f"delta={delta!r}: {message}")
        self.delta = delta


@dataclass(frozen=True)
class PeakReport:
    """Clock-peak measurements, all scale-free.

    ``amplitude_linear`` is the peak value divided by ``second_lobe_max``;
    multiplying them back recovers the peak height on the input scale.
    """

    center_freq_norm: float
    amplitude_linear: float
    fwhm_norm: float
    second_lobe_max: float

    @property
    def peak_height(self) -> float:
        return self.amplitude_linear * self.second_lobe_max


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def _half_crossing(x: np.ndarray, s: np.ndarray, ipk: int, half: float, step: int) -> float:
    i = ipk
    while 0 <= i + step < len(s) and s[i + step] > half:
        i += step
    j = i + step
    if not 0 <= j < len(s):
        raise PeakDetectionError("half height never crossed inside the grid")
    # linear interpolation between the last point above and first below
    return float(x[i] + (x[j] - x[i]) * (half - s[i]) / (s[j] - s[i]))


def find_clock_peak(
    spectrum: SpectrumGrid,
    t0: float,
    window: tuple[float, float] = PEAK_WINDOW,
    lobe_window: tuple[float, float] = LOBE_WINDOW,
) -> PeakReport:
    """Locate and measure the clock peak of a blank-shorten spectrum.

    The peak is the grid maximum inside ``window`` (normalized to f0);
    landing on the window edge raises :class:`PeakDetectionError`, which
    signals the window needs revisiting for that parameter set. The width
    is measured by linear interpolation at half the peak's linear height.
    The second lobe is the maximum over ``lobe_window`` after excluding
    max(3 grid steps, 1.5 FWHM) on each side of the detected peak, so the
    peak's own shoulders are never mistaken for the lobe on fine grids.
    """
    x = spectrum.freqs * t0
    s = spectrum.psd
    inside = np.flatnonzero((x >= window[0]) & (x <= window[1]))
    if len(inside) == 0:
        raise PeakDetectionError(f"no grid points inside the peak window {window}")
    ipk = int(inside[np.argmax(s[inside])])
    if ipk == inside[0] or ipk == inside[-1]:
        raise PeakDetectionError(
            f"peak sits on the boundary of the search window {window} at x={x[ipk]:.6g}"
        )
    peak_value = float(s[ipk])
    if peak_value <= 0.0:
        raise PeakDetectionError("peak value is not positive")
    half = peak_value / 2.0
    left = _half_crossing(x, s, ipk, half, -1)
    right = _half_crossing(x, s, ipk, half, +1)
    fwhm = right - left
    step = float(np.median(np.diff(x)))
    exclusion = max(3.0 * step, 1.5 * fwhm)
    lobe = (x > lobe_window[0]) & (x < lobe_window[1]) & (np.abs(x - x[ipk]) > exclusion)
    if not np.any(lobe):
        raise PeakDetectionError(f"no grid points left in the lobe window {lobe_window}")
    second_lobe = float(np.max(s[lobe]))
    if second_lobe <= 0.0:
        raise PeakDetectionError("second lobe value is not positive")
    return PeakReport(
        center_freq_norm=float(x[ipk]),
        amplitude_linear=peak_value / second_lobe,
        fwhm_norm=fwhm,
        second_lobe_max=second_lobe,
    )


def normalize_second_lobe(
    spectrum: SpectrumGrid, t0: float, window: tuple[float, float] = NORMALIZE_WINDOW
) -> SpectrumGrid:
    """Rescale so the second-lobe maximum becomes exactly 1 (idempotent).

    Uses a fixed window past the clock-peak region, independent of peak
    detection, so it also applies to spectra without any isolated peak.
    """
    x = spectrum.freqs * t0
    sel = (x >= window[0]) & (x <= window[1])
    if not np.any(sel):
        raise ValueError(f"no grid points inside the normalization window {window}")
    ref = float(np.max(spectrum.psd[sel]))
    if ref <= 0.0:
        raise ValueError("second-lobe maximum is not positive; cannot normalize")
    meta = dict(spectrum.meta)
    meta["normalization"] = "second-lobe"
    return SpectrumGrid(grid=spectrum.grid, psd=spectrum.psd / ref, meta=meta)


def default_sweep_grid(t0: float) -> FrequencyGrid:
    """Dense normalized-span grid used by analytic sweeps."""
    x = np.linspace(SWEEP_SPAN[0], SWEEP_SPAN[1], SWEEP_POINTS)
    return FrequencyGrid(x / t0)


def sweep_delta(
    base: TrainParams,
    deltas: Sequence[float],
    sim: Optional[SimConfig] = None,
    grid: Optional[FrequencyGrid] = None,
    window: tuple[float, float] = PEAK_WINDOW,
    lobe_window: tuple[float, float] = LOBE_WINDOW,
    workers: Optional[int] = None,
) -> list[tuple[float, PeakReport]]:
    """Measure the clock peak across a set of delta values.

    With ``sim`` the spectra are estimated by simulation (integer deltas
    only, ``workers`` passed on to :func:`estimate_psd`); otherwise they
    are the closed form at ``base.prob_one`` and ``base.blank_law``, in
    absolute units, on ``grid``, by default :func:`default_sweep_grid`.
    All sweep items share one grid (analytic) or one seed and fft size
    (simulated), so reports are comparable item to item, and peak
    heights can be compared directly via ``report.peak_height``.
    Detection failures propagate tagged with their delta.
    """
    if base.variant is not Variant.BLANK_SHORTEN:
        raise ValueError("sweep_delta characterizes the blank-shorten model")
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    for d in deltas:
        if not 0 <= d < base.t0:
            raise ValueError(f"every delta must satisfy 0 <= delta < t0, got {d!r}")
    if sim is not None:
        if grid is not None:
            raise ValueError("a simulated sweep uses the FFT grid; pass sim or grid, not both")
        if any(float(d) != int(d) for d in deltas):
            raise ValueError("simulated sweeps need integer deltas (sample counts)")
    elif grid is None:
        grid = default_sweep_grid(base.t0)

    out: list[tuple[float, PeakReport]] = []
    for d in deltas:
        if sim is None:
            spectrum = psd_blank_shorten(
                grid, float(base.t0), float(d), law=base.blank_law, prob_one=base.prob_one
            )
        else:
            params = dataclasses.replace(base, delta=int(d))
            spectrum = estimate_psd(dataclasses.replace(sim, params=params), workers=workers)
        try:
            report = find_clock_peak(spectrum, base.t0, window, lobe_window)
        except PeakDetectionError as err:
            raise PeakDetectionError(str(err), delta=float(d)) from err
        out.append((float(d), report))
    return out


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares line through (xs, ys).

    By convention r_squared = 1 when ys has zero variance (a constant is
    fit perfectly by the zero-slope line). Degenerate xs raise.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")
    if np.ptp(x) == 0.0:
        raise ValueError("xs are all equal; slope is undefined")
    mx, my = x.mean(), y.mean()
    dx = x - mx
    slope = float(np.dot(dx, y - my) / np.dot(dx, dx))
    intercept = float(my - slope * mx)
    ss_tot = float(np.dot(y - my, y - my))
    if ss_tot == 0.0:
        return LinearFit(slope=slope, intercept=intercept, r_squared=1.0)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=min(max(r2, 0.0), 1.0))
