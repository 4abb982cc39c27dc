"""Clock-peak detection and delta sweeps for the blank-shorten spectrum.

Frequencies inside this module are normalized to the clock f0 = 1/t0.
The clock peak is searched in [0.8, 1.3] and referenced against the
sinc-squared second lobe found in (1.0, 2.0); both windows are
overridable. The reported quantities are ratios and frequencies only, so
a PeakReport never depends on the absolute scale of the input spectrum.

A given spectrum, such as a Monte Carlo estimate, is read off its grid
points by :func:`find_clock_peak`. An analytic sweep measures the closed
form itself: the sweep grid's points inside the peak window bracket the
peak, and the center, the half-height crossings and the second lobe are
refined on the closed form by nested zoom grids and bisection (after
Brent 1973, Algorithms for Minimization without Derivatives) until each
bracket is 1e-12 f/f0 wide, so the results are not quantized to a grid
step. The crossings, where the density is steep, hold to that width.
The center of the flat-topped peak holds only to about 1e-9 f/f0: a
maximum is located to the square root of the values' precision, and
relative value changes of 1e-13 moved it by up to 3.2e-10.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid, psd_blank_shorten
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
# refinement stops once a bracket is this narrow, in f/f0; each level
# evaluates REFINE_POINTS points across the bracket
REFINE_TOL = 1e-12
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
    return FrequencyGrid(x / t0)


def _closed_form(params: TrainParams, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized frequencies kept by the closed form, and its values there."""
    spectrum = psd_blank_shorten(FrequencyGrid(freqs), params)
    return spectrum.freqs * params.t0, spectrum.psd


def _refine_max(params: TrainParams, x: np.ndarray, s: np.ndarray, k: int) -> tuple[float, float]:
    """Maximum of the closed form between the neighbours of x[k], the argmax of s.

    Nested zoom grids: each level evaluates REFINE_POINTS points across
    the bracket and keeps the two neighbours of their argmax, until the
    bracket is under REFINE_TOL. Returns the best (x, value) seen, so
    the result never falls below s[k].
    """
    best = (float(x[k]), float(s[k]))
    a, b = x[max(k - 1, 0)], x[min(k + 1, len(x) - 1)]
    while b - a > REFINE_TOL:
        x, s = _closed_form(params, np.linspace(a, b, REFINE_POINTS) / params.t0)
        k = int(np.argmax(s))
        if s[k] > best[1]:
            best = (float(x[k]), float(s[k]))
        a, b = x[max(k - 1, 0)], x[min(k + 1, len(x) - 1)]
    return best


def _refine_crossing(params: TrainParams, inner: float, outer: float, half: float) -> float:
    """Where the closed form falls to ``half`` between ``inner`` (above it) and ``outer``.

    Bisection with REFINE_POINTS - 1 sections per level, keeping the
    section where the value first drops to ``half`` or below.
    """
    while abs(outer - inner) > REFINE_TOL:
        a, b = sorted((inner, outer))
        x, s = _closed_form(params, np.linspace(a, b, REFINE_POINTS) / params.t0)
        if outer < inner:
            x, s = x[::-1], s[::-1]
        past = s <= half
        past[0], past[-1] = False, True
        m = int(np.argmax(past))
        inner, outer = x[m - 1], x[m]
    return float(0.5 * (inner + outer))


def _half_height(
    params: TrainParams,
    center: float,
    half: float,
    x: np.ndarray,
    s: np.ndarray,
    beyond: np.ndarray,
    side: int,
) -> float:
    """Half-height crossing on ``side`` (-1 or +1) of ``center``.

    Walks out from the center over the evaluated points (x, s), then over
    the sweep-grid frequencies ``beyond`` the window, to the first point
    at or below ``half``, and refines between it and the point before.
    """
    out = (x - center) * side > 0
    xs, ss = x[out][::side], s[out][::side]
    if not np.any(ss <= half) and len(beyond):
        xb, sb = _closed_form(params, beyond)
        xs, ss = np.concatenate([xs, xb[::side]]), np.concatenate([ss, sb[::side]])
    j = _first_at_or_below(ss, half)
    return _refine_crossing(params, xs[j - 1] if j > 0 else center, float(xs[j]), half)


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
    closed form to REFINE_TOL. The lobe is bracketed on every
    LOBE_STRIDE-th grid point of each side of the exclusion, plus the
    exclusion boundary itself.
    """
    t0 = params.t0
    grid_x = freqs * t0
    i0, i1 = np.searchsorted(grid_x, window[0]), np.searchsorted(grid_x, window[1], "right")
    x, s = _closed_form(params, freqs[i0:i1]) if i1 > i0 else (grid_x[:0], grid_x[:0])
    k = _peak_index(x, s, window)
    center, peak_value = _refine_max(params, x, s, k)
    half = peak_value / 2.0
    left = _half_height(params, center, half, x, s, freqs[:i0], -1)
    right = _half_height(params, center, half, x, s, freqs[i1:], +1)
    fwhm = right - left
    step = (SWEEP_SPAN[1] - SWEEP_SPAN[0]) / (SWEEP_POINTS - 1)
    exclusion = max(3.0 * step, 1.5 * fwhm)
    lo, hi = lobe_window
    lobes = []
    for a, b, edge in ((lo, min(hi, center - exclusion), center - exclusion),
                       (max(lo, center + exclusion), hi, center + exclusion)):
        pts = freqs[np.searchsorted(grid_x, a, "right"):np.searchsorted(grid_x, b):LOBE_STRIDE]
        if max(lo, SWEEP_SPAN[0]) < edge < min(hi, SWEEP_SPAN[1]):
            pts = np.unique(np.append(pts, edge / t0))
        if len(pts):
            xl, sl = _closed_form(params, pts)
            lobes.append(_refine_max(params, xl, sl, int(np.argmax(sl)))[1])
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
    FWHM and second lobe are those of the closed form to REFINE_TOL in
    f/f0. A ``SimConfig`` source estimates each spectrum at its
    ``params`` (whole-sample deltas only, ``workers`` passed on to
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
