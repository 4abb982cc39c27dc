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

The brackets are those of a full read of the grid, but the sweep reads
far fewer points. A Lipschitz bound of the density over each run of grid
points (Piyavskii 1972; Shubert, SIAM J. Numer. Anal. 9, 1972) excludes
every run that cannot hold the maximum, so the peak window and the
second lobe take the argmax of the runs that remain; the half-height
walks read outward from the top in growing chunks. The density is
elementwise, so every value read has the bits a full read gives it.

An analytic sweep runs its deltas in lockstep, SWEEP_GROUP at a time:
the window argmax, the center top, both half-height walks and their
crossings, both lobe argmaxes and the lobe tops each advance every delta
of the group one round or refinement level per closed-form call, each
point read with its own delta's params. The sweep grid's points are
computed where they are read.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import FrequencyGrid, SpectrumGrid, _density, _psd_bound, _psd_slope
from .analytic import psd_blank_shorten  # noqa: F401  # tracers patch pulsepsd.peaks.psd_blank_shorten
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
# the pruned argmax bounds runs of this many consecutive points; the
# half-height walk reads its first chunk of this many
RUN_POINTS = 64
# the second lobe's pruned argmax bounds runs of this many of its points
LOBE_RUN_POINTS = 8
# an analytic sweep measures this many deltas at a time, so its memory
# does not grow with the number of deltas
SWEEP_GROUP = 12
_SWEEP_STEP = (SWEEP_SPAN[1] - SWEEP_SPAN[0]) / (SWEEP_POINTS - 1)


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


def _off_the_edges(ipk: int, first: int, last: int, x: float, window: tuple[float, float]) -> None:
    """Refuse a peak index ``ipk``, at normalized ``x``, on the first or last of the window's points."""
    if ipk == first or ipk == last:
        raise PeakDetectionError(
            f"peak sits on the boundary of the search window {window} at x={x:.6g}"
        )


def _peak_index(x: np.ndarray, s: np.ndarray, window: tuple[float, float]) -> int:
    """Index of the largest s over the points x inside ``window``, off its edges."""
    inside = np.flatnonzero((x >= window[0]) & (x <= window[1]))
    if len(inside) == 0:
        raise PeakDetectionError(f"no grid points inside the peak window {window}")
    ipk = int(inside[np.argmax(s[inside])])
    _off_the_edges(ipk, inside[0], inside[-1], x[ipk], window)
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


class _SweepGrid:
    """The points of :func:`default_sweep_grid`, each computed, as np.linspace does, only where it is read."""

    def __init__(self, t0: float):
        self.t0 = t0

    def __len__(self) -> int:
        return SWEEP_POINTS

    def __getitem__(self, index):
        i = range(SWEEP_POINTS)[index]
        if isinstance(i, int):
            return (SWEEP_SPAN[1] if i == SWEEP_POINTS - 1 else i * _SWEEP_STEP + SWEEP_SPAN[0]) / self.t0
        x = np.arange(i.start, i.stop, i.step, dtype=float)
        return np.where(x == SWEEP_POINTS - 1, SWEEP_SPAN[1], x * _SWEEP_STEP + SWEEP_SPAN[0]) / self.t0


def default_sweep_grid(t0: float) -> FrequencyGrid:
    """Dense normalized-span grid that brackets analytic sweeps."""
    return FrequencyGrid(_SweepGrid(t0)[:])


def _caught(fn, *args):
    """``fn(*args)``, or the :class:`PeakDetectionError` it raises."""
    try:
        return fn(*args)
    except PeakDetectionError as err:
        return err


def _read(parts: list, items, item) -> list:
    """The density of ``items[item[t]]`` on each of ``parts[t]``, all read in one call."""
    sizes = list(map(len, parts))
    return np.split(_density(np.concatenate(parts), items, np.repeat(item, sizes))[0], np.cumsum(sizes)[:-1])


def _first_past(fn, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """The first float from each of ``inner`` toward its ``outer`` where ``fn`` is at or below 0.

    ``fn`` maps frequencies and the index of each one's bracket to values,
    taken as above 0 at ``inner`` and at or below it at ``outer``. Each
    level reads np.unique(np.linspace(lo, hi, REFINE_POINTS)) across every
    bracket whose ends are not yet neighbouring floats and keeps the
    section where they first reach 0.
    """
    inner, outer = np.array(inner, dtype=float), np.array(outer, dtype=float)
    live = np.flatnonzero(np.nextafter(inner, outer) != outer)
    while len(live):
        a, b = inner[live], outer[live]
        u = np.linspace(np.minimum(a, b), np.maximum(a, b), REFINE_POINTS, axis=1)
        u[b < a] = u[b < a, ::-1]  # each row from inner to outer
        new = np.ones(u.shape, dtype=bool)
        new[:, 1:] = u[:, 1:] != u[:, :-1]  # np.unique keeps a row's first copy of a point
        v = np.empty(u.shape)
        v[new] = fn(u[new], live[np.nonzero(new)[0]])
        v = np.take_along_axis(v, np.maximum.accumulate(np.where(new, np.arange(REFINE_POINTS), 0), axis=1), 1)
        m = np.argmax(((v <= 0.0) & (u != a[:, None])) | (u == b[:, None]), axis=1)
        inner[live], outer[live] = u[np.arange(len(live)), m - 1], u[np.arange(len(live)), m]
        live = live[np.nextafter(inner[live], outer[live]) != outer[live]]
    return outer


def _tops(items, item: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """Frequencies and values of the closed form's maxima, of ``items[item]``, between ``inner`` and ``outer``.

    Each is the first float where dS/df is at or below 0; a maximum on an end
    of its bracket, where dS/df need not change sign, is read within one float.
    """
    top = _first_past(lambda v, k: _psd_slope(v, items, item[k]), inner, outer)
    return top, _density(top, items, item)[0]


def _bisect_x(freqs, t0: float, x: float, side: str) -> int:
    """``np.searchsorted(freqs * t0, x, side)``, comparing the same products, without the copy."""
    find = bisect.bisect_left if side == "left" else bisect.bisect_right
    return find(freqs, x, key=lambda v: v * t0)


def _pruned_argmax(items, item: np.ndarray, us: list, run: int) -> np.ndarray:
    """``np.argmax`` of the density of ``items[item[t]]`` on each ascending ``us[t]``, read where a bound allows.

    Each run of ``run`` consecutive points is bounded by
    :func:`~pulsepsd.analytic._psd_bound`; the run of the highest bound is
    read first, then every unread run whose bound reaches the best value
    read, until none does. An unread point is then below the maximum, so
    the first index of the maximum is the full read's.
    """
    starts = [np.arange(0, len(u), run) for u in us]
    sizes = list(map(len, starts))
    lo = np.concatenate([u[s] for u, s in zip(us, starts)])
    hi = np.concatenate([u[np.minimum(s + run, len(u)) - 1] for u, s in zip(us, starts)])
    bounds = np.split(_psd_bound(lo, hi, items, np.repeat(item, sizes)), np.cumsum(sizes)[:-1])
    unread = [np.ones(size, dtype=bool) for size in sizes]
    best, first = np.full(len(us), -np.inf), np.array(list(map(len, us)))
    take = [np.argmax(b, keepdims=True) for b in bounds]
    while active := [t for t in range(len(us)) if len(take[t])]:
        idx = [(starts[t][take[t], None] + np.arange(run)).ravel() for t in active]
        idx = [i[i < len(us[t])] for t, i in zip(active, idx)]
        for t, i, s in zip(active, idx, _read([us[t][i] for t, i in zip(active, idx)], items, item[active])):
            j = np.argmax(s)
            if s[j] > best[t] or (s[j] == best[t] and i[j] < first[t]):
                best[t], first[t] = s[j], i[j]
            unread[t][take[t]] = False
            take[t] = np.flatnonzero(unread[t] & (bounds[t] >= best[t]))
    return first


def _walk_to_half(items, item: np.ndarray, freqs, top: np.ndarray, side: np.ndarray, half: np.ndarray):
    """Brackets of the half-height crossings on each ``side`` of each ``top`` (-1 below, +1 above); nan where none is.

    A crossing is bracketed by the first grid point at or below ``half``
    walking outward from ``top``, read in chunks that double from
    RUN_POINTS, and the point before it (``top`` itself for the first).
    """
    i = [bisect.bisect_right(freqs, t) if s > 0 else bisect.bisect_left(freqs, t) - 1 for t, s in zip(top, side)]
    inner, outer, chunk = top.copy(), np.full(len(top), np.nan), RUN_POINTS
    live = [n for n in range(len(top)) if 0 <= i[n] < len(freqs)]
    while live:
        parts = [freqs[i[n]:i[n] + chunk] if side[n] > 0 else freqs[max(i[n] - chunk + 1, 0):i[n] + 1][::-1]
                 for n in live]
        for n, part, s in zip(live, parts, _read(parts, items, item[live])):
            j = int(np.argmax(s <= half[n]))
            if s[j] <= half[n]:
                inner[n], outer[n] = part[j - 1] if j else inner[n], part[j]
            else:
                inner[n], i[n] = part[-1], i[n] + side[n] * len(part)
        live, chunk = [n for n in live if np.isnan(outer[n]) and 0 <= i[n] < len(freqs)], 2 * chunk
    return inner, outer


def _refined_peaks(
    items: Sequence[TrainParams],
    freqs,
    window: tuple[float, float],
    lobe_window: tuple[float, float],
) -> list:
    """:func:`find_clock_peak` of the closed form at each of ``items``, refined off the grid, or its error.

    ``freqs`` is the sweep grid of the items' common t0; each stage runs at
    once for every item not yet failed. The argmax of the grid points
    inside ``window`` brackets the peak, so detection and its boundary
    failure are those of :func:`find_clock_peak` on the full grid. Each
    half-height crossing is bracketed by the first grid point at or below
    half height walking out from the center, in or beyond the window. The
    lobe is bracketed by the argmax of every LOBE_STRIDE-th grid point of
    each side of the exclusion, plus the exclusion boundary itself.
    """
    t0 = items[0].t0
    i0, i1 = _bisect_x(freqs, t0, window[0], "left"), _bisect_x(freqs, t0, window[1], "right")
    if i1 == i0:
        return [PeakDetectionError(f"no grid points inside the peak window {window}")] * len(items)
    u = freqs[i0:i1]
    k = _pruned_argmax(items, np.arange(len(items)), [u] * len(items), RUN_POINTS)
    out = [_caught(_off_the_edges, kn, 0, len(u) - 1, u[kn] * t0, window) for kn in k]
    live = np.flatnonzero([report is None for report in out])
    top, peak = _tops(items, live, u[k[live] - 1], u[k[live] + 1])
    walks, half = np.repeat(live, 2), np.repeat(peak / 2.0, 2)
    inner, outer = _walk_to_half(items, walks, freqs, np.repeat(top, 2), np.tile([-1, 1], len(live)), half)
    ends, on = np.full(len(walks), np.nan), ~np.isnan(outer)
    ends[on] = _first_past(lambda v, j: _density(v, items, walks[on][j])[0] - half[on][j],
                           inner[on], outer[on])
    lo, hi = lobe_window
    found, pts, owner = {}, [], []
    for n, top_n, peak_n, (left, right) in zip(*(x.tolist() for x in (live, top, peak, ends.reshape(-1, 2)))):
        if np.isnan(left) or np.isnan(right):
            out[n] = PeakDetectionError("half height never crossed inside the grid")
            continue
        center, fwhm = top_n * t0, (right - left) * t0
        exclusion = max(3.0 * _SWEEP_STEP, 1.5 * fwhm)
        found[n] = center, peak_n, fwhm, []
        for a, b, edge in ((lo, min(hi, center - exclusion), center - exclusion),
                           (max(lo, center + exclusion), hi, center + exclusion)):
            lobe = freqs[_bisect_x(freqs, t0, a, "right"):_bisect_x(freqs, t0, b, "left"):LOBE_STRIDE]
            if max(lo, SWEEP_SPAN[0]) < edge < min(hi, SWEEP_SPAN[1]):
                lobe = np.unique(np.append(lobe, edge / t0))
            if len(lobe):
                pts.append(lobe)
                owner.append(n)
    if pts:
        k = _pruned_argmax(items, np.array(owner), pts, LOBE_RUN_POINTS)
        brackets = np.array([(p[max(j - 1, 0)], p[min(j + 1, len(p) - 1)]) for p, j in zip(pts, k)]).T
        for n, value in zip(owner, _tops(items, np.array(owner), *brackets)[1].tolist()):
            found[n][3].append(value)
    for n, (center, peak_n, fwhm, lobes) in found.items():
        out[n] = _caught(_report, center, peak_n, fwhm, lobes, lobe_window)
    return out


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
    spectrum is computed. The first detection failure in the order of
    ``deltas`` propagates tagged with its delta.
    """
    sim = source if isinstance(source, SimConfig) else None
    base = source if sim is None else sim.params
    require_variant(base, Variant.BLANK_SHORTEN)
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    items = [dataclasses.replace(base, delta=d) for d in deltas]
    if sim is not None:
        items = [dataclasses.replace(sim, params=params) for params in items]

    out: list[tuple[float, PeakReport]] = []
    for start in range(0, len(items), SWEEP_GROUP):
        group = items[start:start + SWEEP_GROUP]
        if sim is None:
            reports = _refined_peaks(group, _SweepGrid(base.t0), window, lobe_window)
        else:
            reports = (_caught(find_clock_peak, estimate_psd(config, workers=workers), base.t0, window, lobe_window)
                       for config in group)
        for d, report in zip(deltas[start:start + SWEEP_GROUP], reports):
            if isinstance(report, PeakDetectionError):
                raise PeakDetectionError(str(report), delta=float(d)) from report
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
