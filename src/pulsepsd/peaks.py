"""Clock-peak detection and delta sweeps for the blank-shorten spectrum.

Frequencies inside this module are normalized to the clock f0 = 1/t0.
The clock peak is searched in [0.8, 1.3] and referenced against the
sinc-squared second lobe found in (1.0, 2.0); both windows are
overridable. The reported quantities are ratios and frequencies only, so
a PeakReport never depends on the absolute scale of the input spectrum.

A given spectrum, such as a Monte Carlo estimate, is read off its grid
points by :func:`find_clock_peak`. An analytic sweep measures the closed
form itself: the sweep grid's points inside the peak window bracket the
peak, and one bracketing root finder refines it on the closed form. The
center and the second lobe are where dS/df changes sign, the half-height
crossings where S - half does, and each is the first float past its
sign change, so a result is exact to one float, not to a grid step.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid, _psd_slope, psd_blank_shorten
from .model import TrainParams, Variant, require_variant
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
# analytic sweeps bracket on this normalized grid: its points inside the
# peak window locate the clock peak as a full read of the grid would,
# and the closed form is then refined between neighbouring points
SWEEP_SPAN = (0.3, 3.0)
SWEEP_POINTS = 400001
# the second lobe is broad, so every 16th grid point brackets it
LOBE_STRIDE = 16
# each refinement level evaluates this many points across its bracket
REFINE_POINTS = 33


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


def _first_at_or_below(values: np.ndarray, half: float) -> int:
    """Index of the first of ``values``, ordered outward from a peak, at or below ``half``."""
    hit = np.flatnonzero(values <= half)
    if len(hit) == 0:
        raise PeakDetectionError("half height never crossed inside the grid")
    return int(hit[0])


def _half_crossing(x: np.ndarray, s: np.ndarray, ipk: int, half: float, step: int) -> float:
    x, s = x[ipk::step], s[ipk::step]
    j = _first_at_or_below(s, half)
    # linear interpolation between the last point above and first below
    return float(x[j - 1] + (x[j] - x[j - 1]) * (half - s[j - 1]) / (s[j] - s[j - 1]))


def _report(center: float, peak: float, fwhm: float, lobes: Sequence[float], lobe_window: tuple) -> PeakReport:
    """The report of a peak at ``center`` against the largest of the second-lobe ``lobes``."""
    if len(lobes) == 0:
        raise PeakDetectionError(f"no grid points left in the lobe window {lobe_window}")
    second_lobe = float(np.max(lobes))
    if second_lobe <= 0.0:
        raise PeakDetectionError("second lobe value is not positive")
    return PeakReport(center, peak / second_lobe, fwhm, second_lobe)


def _peak_index(x: np.ndarray, s: np.ndarray, window: tuple[float, float]) -> int:
    """Index of the largest s over the points x inside ``window``, off its edges."""
    inside = np.flatnonzero((x >= window[0]) & (x <= window[1]))
    if len(inside) == 0:
        raise PeakDetectionError(f"no grid points inside the peak window {window}")
    ipk = int(inside[np.argmax(s[inside])])
    if ipk == inside[0] or ipk == inside[-1]:
        raise PeakDetectionError(
            f"peak sits on the boundary of the search window {window} at x={x[ipk]:.6g}"
        )
    if s[ipk] <= 0.0:
        raise PeakDetectionError("peak value is not positive")
    return ipk


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
    ipk = _peak_index(x, s, window)
    peak_value = float(s[ipk])
    half = peak_value / 2.0
    left = _half_crossing(x, s, ipk, half, -1)
    right = _half_crossing(x, s, ipk, half, +1)
    fwhm = right - left
    step = float(np.median(np.diff(x)))
    exclusion = max(3.0 * step, 1.5 * fwhm)
    lobe = (x > lobe_window[0]) & (x < lobe_window[1]) & (np.abs(x - x[ipk]) > exclusion)
    return _report(float(x[ipk]), peak_value, fwhm, s[lobe], lobe_window)


def normalize_second_lobe(spectrum: SpectrumGrid, t0: float) -> SpectrumGrid:
    """Rescale so the second-lobe maximum becomes exactly 1 (idempotent).

    Uses the fixed window NORMALIZE_WINDOW past the clock-peak region,
    independent of peak detection, so it also applies to spectra without
    any isolated peak.
    """
    return dataclasses.replace(spectrum, psd=spectrum.psd / _second_lobe_max(spectrum, t0))


def _second_lobe_max(spectrum: SpectrumGrid, t0: float) -> float:
    """The maximum in NORMALIZE_WINDOW, which :func:`normalize_second_lobe` divides by."""
    x = spectrum.freqs * t0
    sel = (x >= NORMALIZE_WINDOW[0]) & (x <= NORMALIZE_WINDOW[1])
    if not np.any(sel):
        raise ValueError(f"no grid points inside the normalization window {NORMALIZE_WINDOW}")
    ref = float(np.max(spectrum.psd[sel]))
    if ref <= 0.0:
        raise ValueError("second-lobe maximum is not positive; cannot normalize")
    return ref


def default_sweep_grid(t0: float) -> FrequencyGrid:
    """Dense normalized-span grid that brackets analytic sweeps."""
    x = np.linspace(SWEEP_SPAN[0], SWEEP_SPAN[1], SWEEP_POINTS)
    x /= t0
    return FrequencyGrid(x)


def _density(params: TrainParams, freqs: np.ndarray) -> np.ndarray:
    """The closed form's values at the frequencies ``freqs``, in cycles/sample."""
    return psd_blank_shorten(FrequencyGrid(freqs), params).psd


def _first_past(fn, inner: float, outer: float) -> float:
    """The first float from ``inner`` toward ``outer`` where ``fn`` is at or below 0.

    ``fn`` maps ascending frequencies to values, taken as above 0 at
    ``inner`` and at or below it at ``outer``. Each level keeps the
    section where REFINE_POINTS values across the bracket first reach 0,
    until its ends are neighbouring floats.
    """
    while np.nextafter(inner, outer) != outer:
        u = np.unique(np.linspace(min(inner, outer), max(inner, outer), REFINE_POINTS))
        v = fn(u)
        if outer < inner:
            u, v = u[::-1], v[::-1]
        past = v <= 0.0
        past[0], past[-1] = False, True
        m = int(np.argmax(past))
        inner, outer = u[m - 1], u[m]
    return float(outer)


def _top(params: TrainParams, u: np.ndarray, k: int) -> tuple[float, float]:
    """Frequency and value of the closed form's maximum between the neighbours of u[k].

    It is the first float where dS/df is at or below 0; a maximum on an end
    of ``u``, where dS/df need not change sign, is read within one float.
    """
    top = _first_past(lambda v: _psd_slope(v, params), u[max(k - 1, 0)], u[min(k + 1, len(u) - 1)])
    return top, float(_density(params, np.array([top]))[0])


def _bisect_x(freqs: np.ndarray, t0: float, x: float, side: str) -> int:
    """``np.searchsorted(freqs * t0, x, side)``, comparing the same products, without the copy."""
    find = bisect.bisect_left if side == "left" else bisect.bisect_right
    return find(freqs, x, key=lambda v: v * t0)


def _refined_peak(
    params: TrainParams,
    freqs: np.ndarray,
    window: tuple[float, float],
    lobe_window: tuple[float, float],
) -> PeakReport:
    """:func:`find_clock_peak` of the closed form, refined off the grid.

    ``freqs`` is the sweep grid. The peak is bracketed by the argmax of
    its points inside ``window``, so detection and its boundary failure
    are those of :func:`find_clock_peak` on the full grid; the center,
    the half-height crossings and the second lobe are then refined on the
    closed form to one float. Each crossing is bracketed by the first
    point at or below half height walking out from the center, over the
    window's points and then the grid beyond it. The lobe is bracketed on
    every LOBE_STRIDE-th grid point of each side of the exclusion, plus
    the exclusion boundary itself.
    """
    t0 = params.t0
    i0, i1 = _bisect_x(freqs, t0, window[0], "left"), _bisect_x(freqs, t0, window[1], "right")
    u = freqs[i0:i1]
    s = _density(params, u) if i1 > i0 else u
    top, peak_value = _top(params, u, _peak_index(u * t0, s, window))
    half = peak_value / 2.0
    crossings = []
    for side, beyond in ((-1, freqs[:i0]), (+1, freqs[i1:])):
        out = (u - top) * side > 0
        us, ss = u[out][::side], s[out][::side]
        if not np.any(ss <= half) and len(beyond):
            us = np.concatenate([us, beyond[::side]])
            ss = np.concatenate([ss, _density(params, beyond)[::side]])
        j = _first_at_or_below(ss, half)
        crossings.append(_first_past(lambda v: _density(params, v) - half,
                                     us[j - 1] if j > 0 else top, us[j]))
    center, fwhm = top * t0, (crossings[1] - crossings[0]) * t0
    step = (SWEEP_SPAN[1] - SWEEP_SPAN[0]) / (SWEEP_POINTS - 1)
    exclusion = max(3.0 * step, 1.5 * fwhm)
    lo, hi = lobe_window
    lobes = []
    for a, b, edge in ((lo, min(hi, center - exclusion), center - exclusion),
                       (max(lo, center + exclusion), hi, center + exclusion)):
        pts = freqs[_bisect_x(freqs, t0, a, "right"):_bisect_x(freqs, t0, b, "left"):LOBE_STRIDE]
        if max(lo, SWEEP_SPAN[0]) < edge < min(hi, SWEEP_SPAN[1]):
            pts = np.unique(np.append(pts, edge / t0))
        if len(pts):
            lobes.append(_top(params, pts, int(np.argmax(_density(params, pts))))[1])
    return _report(center, peak_value, fwhm, lobes, lobe_window)


def sweep_delta(
    source: TrainParams | SimConfig,
    deltas: Sequence[float],
    window: tuple[float, float] = PEAK_WINDOW,
    lobe_window: tuple[float, float] = LOBE_WINDOW,
    workers: Optional[int] = None,
) -> list[tuple[float, PeakReport]]:
    """Measure the clock peak across a set of delta values.

    A ``TrainParams`` source sweeps the closed form at its ``prob_one``
    and ``blank_law``, in absolute units, bracketed on the points of
    :func:`default_sweep_grid` and refined off the grid: center, height,
    FWHM and second lobe are those of the closed form, each position
    exact to one float. A ``SimConfig`` source estimates each spectrum at
    its ``params`` (whole-sample deltas only, ``workers`` passed on to
    :func:`estimate_psd`), with one seed and fft size for all items, and
    reads it by :func:`find_clock_peak` on the FFT bins. Peak heights
    compare item to item via ``report.peak_height``. Every delta is
    validated, through ``TrainParams`` and ``SimConfig``, before any
    spectrum is computed. Detection failures propagate tagged with their
    delta.
    """
    sim = source if isinstance(source, SimConfig) else None
    base = source if sim is None else sim.params
    require_variant(base, Variant.BLANK_SHORTEN)
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    items = [dataclasses.replace(base, delta=d) for d in deltas]
    if sim is not None:
        items = [dataclasses.replace(sim, params=params) for params in items]
    else:
        freqs = default_sweep_grid(base.t0).values

    out: list[tuple[float, PeakReport]] = []
    for d, item in zip(deltas, items):
        try:
            if sim is None:
                report = _refined_peak(item, freqs, window, lobe_window)
            else:
                spectrum = estimate_psd(item, workers=workers)
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
