"""Clock-peak detection, sweeps, and the fitting helpers."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsepsd.peaks
from pulsepsd import (
    BlankLaw,
    FrequencyGrid,
    PeakDetectionError,
    PeakReport,
    SimConfig,
    SpectrumGrid,
    TrainParams,
    Variant,
    estimate_psd,
    find_clock_peak,
    linear_fit,
    normalize_second_lobe,
    psd_blank_shorten,
    sweep_delta,
)
from pulsepsd import charfn
from pulsepsd.analytic import _density, _psd_bound, _psd_slope
from pulsepsd.peaks import (
    LOBE_STRIDE,
    LOBE_WINDOW,
    PEAK_WINDOW,
    REFINE_POINTS,
    SWEEP_POINTS,
    SWEEP_SPAN,
    _bisect_x,
    _first_at_or_below,
    _peak_index,
    _refined_peaks,
    _report,
    _SweepGrid,
    default_sweep_grid,
)

GEN = BlankLaw.GENERATOR_K_MINUS_ONE_DELTA


def _values(params, freqs):
    """The closed form of one params at ``freqs``."""
    return _density(freqs, params)[0]


def _blank_spectrum(t0=100, delta=10.0, n=40_001, law=GEN) -> SpectrumGrid:
    grid = FrequencyGrid(np.linspace(0.3, 3.0, n) / t0)
    return psd_blank_shorten(grid, TrainParams(Variant.BLANK_SHORTEN, t0, delta, blank_law=law))


# --- peak detection ---


def test_clock_peak_report_reference_values():
    # frozen reference for t0=100, delta=10 on the 40001-point grid; the
    # same numbers reproduce on a 10x denser grid to within a grid step
    rep = find_clock_peak(_blank_spectrum(), 100.0)
    assert rep.center_freq_norm == pytest.approx(1.0525575, abs=1e-7)
    assert rep.amplitude_linear == pytest.approx(2.1586283777211532, rel=1e-9)
    assert rep.fwhm_norm == pytest.approx(0.01769202023076799, rel=1e-9)
    # absolute level K = 1/<T>, with <T> = t0 + (q/p)(t0 - delta) = 190 at p = 1/2
    assert rep.second_lobe_max == pytest.approx(211.8223516788051 / 190.0, rel=1e-9)
    assert rep.peak_height == pytest.approx(rep.amplitude_linear * rep.second_lobe_max)


def test_peak_sits_above_clock_frequency():
    rep = find_clock_peak(_blank_spectrum(), 100.0)
    assert 1.0 < rep.center_freq_norm < 1.3


def test_flat_resonance_has_no_peak_to_find():
    # with no shortening the resonant factor is constant and the envelope
    # just decays, so the window argmax lands on the boundary
    spec = _blank_spectrum(delta=0.0, n=20_001)
    with pytest.raises(PeakDetectionError):
        find_clock_peak(spec, 100.0)


def test_peak_detection_respects_custom_window():
    spec = _blank_spectrum()
    rep = find_clock_peak(spec, 100.0, window=(0.9, 1.2))
    assert rep.center_freq_norm == pytest.approx(1.0525575, abs=1e-7)
    with pytest.raises(PeakDetectionError):
        find_clock_peak(spec, 100.0, window=(1.2, 1.3))  # argmax pinned to an edge


def test_a_grid_ending_above_half_height_fails_the_width_walk():
    # the peak at 1.0526 f0 is off the window's edges, but the grid stops
    # before its right flank falls to half height near 1.061 f0
    t0 = 100
    grid = FrequencyGrid(np.linspace(0.3, 1.056, 20_001) / t0)
    spec = psd_blank_shorten(grid, TrainParams(Variant.BLANK_SHORTEN, t0, 10.0, blank_law=GEN))
    with pytest.raises(PeakDetectionError, match="half height never crossed inside the grid"):
        find_clock_peak(spec, float(t0))


def test_a_lobe_window_without_points_or_power_fails_the_report():
    # the peak and both half-height crossings lie inside the grid, which
    # ends before the lobe window; a spectrum that is 0 there has no lobe
    spec = _blank_spectrum(n=8001)
    before = spec.freqs * 100 <= 1.1
    short = SpectrumGrid(grid=FrequencyGrid(spec.freqs[before]), psd=spec.psd[before])
    with pytest.raises(PeakDetectionError, match="no grid points left in the lobe window"):
        find_clock_peak(short, 100.0, lobe_window=(1.5, 2.0))
    flat = SpectrumGrid(grid=spec.grid, psd=np.where(spec.freqs * 100 > 1.4, 0.0, spec.psd))
    with pytest.raises(PeakDetectionError, match="second lobe value is not positive"):
        find_clock_peak(flat, 100.0, lobe_window=(1.5, 2.0))


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(1e-6, 1e6))
def test_report_shape_is_scale_invariant(scale):
    spec = _blank_spectrum(n=8001)
    scaled = SpectrumGrid(grid=spec.grid, psd=spec.psd * scale, meta=spec.meta)
    a = find_clock_peak(spec, 100.0)
    b = find_clock_peak(scaled, 100.0)
    assert b.center_freq_norm == a.center_freq_norm
    assert b.amplitude_linear == pytest.approx(a.amplitude_linear, rel=1e-12)
    assert b.fwhm_norm == pytest.approx(a.fwhm_norm, rel=1e-12)
    assert b.second_lobe_max == pytest.approx(scale * a.second_lobe_max, rel=1e-12)
    assert b.peak_height == pytest.approx(scale * a.peak_height, rel=1e-12)


def test_report_is_frozen():
    rep = PeakReport(1.05, 2.0, 0.01, 100.0)
    with pytest.raises(AttributeError):
        rep.amplitude_linear = 3.0


# --- normalization ---


def test_normalize_second_lobe_pins_the_reference_window_to_one():
    spec = _blank_spectrum(n=12_001)
    normed = normalize_second_lobe(spec, 100.0)
    fn = normed.freqs * 100.0
    window = (fn > 1.25) & (fn < 2.0)
    assert normed.psd[window].max() == pytest.approx(1.0, rel=1e-12)
    # idempotent: normalizing twice changes nothing
    twice = normalize_second_lobe(normed, 100.0)
    np.testing.assert_allclose(twice.psd, normed.psd, rtol=1e-12)
    # and the input is untouched
    assert spec.psd.max() > 10.0


def test_normalize_second_lobe_needs_power_in_its_window():
    spec = _blank_spectrum(n=8001)
    below = spec.freqs * 100 < 1.2
    short = SpectrumGrid(grid=FrequencyGrid(spec.freqs[below]), psd=spec.psd[below])
    with pytest.raises(ValueError, match="no grid points inside the normalization window"):
        normalize_second_lobe(short, 100.0)
    zeroed = SpectrumGrid(grid=spec.grid, psd=np.where(below, spec.psd, 0.0))
    with pytest.raises(ValueError, match="second-lobe maximum is not positive"):
        normalize_second_lobe(zeroed, 100.0)


# --- sweeps ---


def test_analytic_sweep_trends_are_strictly_monotone():
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1, blank_law=GEN)
    items = sweep_delta(base, (2, 6, 10))
    assert [d for d, _ in items] == [2.0, 6.0, 10.0]
    centers = [r.center_freq_norm for _, r in items]
    heights = [r.peak_height for _, r in items]
    widths = [r.fwhm_norm for _, r in items]
    # refined off the grid, so no two items tie
    assert np.all(np.diff(centers) > 0.0)
    assert np.all(np.diff(heights) < 0.0)
    assert np.all(np.diff(widths) > 0.0)


STEP = (3.0 - 0.3) / 400_000  # one default sweep-grid step, f/f0


@pytest.mark.parametrize("prob_one", [0.2, 0.3, 0.5])
@pytest.mark.parametrize("law", list(BlankLaw))
def test_refined_sweep_agrees_with_the_default_grid_and_never_reads_lower(law, prob_one):
    deltas = (0.5, 1.0, 2.0, 5.0, 10.0)
    base = TrainParams(Variant.BLANK_SHORTEN, 100, 1.0, prob_one, law)
    grid = default_sweep_grid(100.0)
    for delta, refined in sweep_delta(base, deltas):
        params = TrainParams(Variant.BLANK_SHORTEN, 100, delta, prob_one, law)
        on_grid = find_clock_peak(psd_blank_shorten(grid, params), 100.0)
        assert refined.peak_height >= on_grid.peak_height * (1.0 - 1e-12), delta
        assert abs(refined.center_freq_norm - on_grid.center_freq_norm) <= STEP, delta
        assert abs(refined.fwhm_norm - on_grid.fwhm_norm) <= 2.0 * STEP, delta
        # the lobe may sit on the exclusion boundary, which moves with the
        # refined center and FWHM by under a step (worst seen: -4.1e-4)
        assert refined.second_lobe_max >= on_grid.second_lobe_max * (1.0 - 2e-3), delta
        if (law, prob_one, delta) == (BlankLaw.PAPER_K_DELTA, 0.3, 0.5):
            # a bracket coarser than the peak reports the second lobe here
            assert 1.0 < refined.center_freq_norm < 1.01
        if (law, prob_one, delta) == (BlankLaw.PAPER_K_DELTA, 0.2, 0.5):
            # the FWHM is about one grid step, so the grid misses the top
            assert refined.peak_height > 1.15 * on_grid.peak_height


def test_half_height_crossings_may_lie_outside_the_peak_window():
    # the window only has to hold the maximum; the walk to half height
    # goes on over the sweep grid beyond it
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=10)
    (_, wide), = sweep_delta(base, (10,))
    (_, narrow), = sweep_delta(base, (10,), window=(1.08, 1.09))
    assert narrow.fwhm_norm > 0.02
    assert narrow.center_freq_norm == pytest.approx(wide.center_freq_norm, abs=1e-12)
    assert narrow.fwhm_norm == pytest.approx(wide.fwhm_norm, rel=1e-12)
    assert narrow.amplitude_linear == pytest.approx(wide.amplitude_linear, rel=1e-12)


@pytest.mark.parametrize("law, prob_one", [(BlankLaw.PAPER_K_DELTA, 0.5), (GEN, 0.3)])
def test_analytic_sweep_centers_are_exact_to_one_float(law, prob_one):
    # README's sweep and a generator-law one: dS/df changes sign between the
    # neighbouring floats of every reported center
    base = TrainParams(Variant.BLANK_SHORTEN, 100, 1.0, prob_one, law)
    for delta, rep in sweep_delta(base, range(1, 11)):
        params = TrainParams(Variant.BLANK_SHORTEN, 100, delta, prob_one, law)
        c = rep.center_freq_norm
        around = np.array([np.nextafter(c, 0.0), np.nextafter(c, 2.0)]) / 100.0
        before, after = _psd_slope(around, params)
        assert before > 0.0 > after, delta


def test_analytic_sweep_work_stays_under_a_point_budget(monkeypatch):
    points, calls = [], []
    for module, name, record in (
        (pulsepsd.peaks, "_density", points),
        (pulsepsd.peaks, "_psd_slope", points),
        (charfn, "run_pair", calls),
    ):

        def counting(freqs, *args, real=getattr(module, name), record=record):
            record.append(np.size(freqs))
            return real(freqs, *args)

        monkeypatch.setattr(module, name, counting)
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    deltas = tuple(range(1, 11))
    items = sweep_delta(base, deltas)
    assert len(items) == len(deltas)
    # reading the whole peak window costs 74074 points per delta; the
    # pruned reads take about 8700 in all, points of the density and of
    # its slope alike, and every delta shares each closed-form call: the
    # density's, the slope's and the bound's (570 calls swept one by one)
    assert sum(points) <= 10_000 * len(deltas)
    assert len(calls) <= 100


@functools.lru_cache(maxsize=None)
def _sweep_grid(t0: int) -> np.ndarray:
    return default_sweep_grid(t0).values


@settings(max_examples=150, deadline=None)
@given(
    t0=st.sampled_from([7, 64, 100, 1000]),
    law=st.sampled_from(list(BlankLaw)),
    prob_one=st.one_of(
        st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6), st.floats(0.01, 0.99)
    ),
    delta=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 1.0, exclude_max=True)),
    start=st.integers(0, SWEEP_POINTS - 1),
    length=st.integers(1, 4096),
    run=st.integers(1, 512),
)
def test_the_density_bound_holds_at_every_point_of_its_interval(t0, law, prob_one, delta, start, length, run):
    # delta is drawn as a fraction of t0; the paper law stops at t0/2
    if law is BlankLaw.PAPER_K_DELTA:
        delta = min(delta, 0.5)
    params = TrainParams(Variant.BLANK_SHORTEN, t0, delta * t0, prob_one, law)
    u = _sweep_grid(t0)[start:start + length]
    starts = np.arange(0, len(u), run)
    stops = np.minimum(starts + run, len(u))
    bound = _psd_bound(u[starts], u[stops - 1], params)
    assert np.all(np.maximum.reduceat(_values(params, u), starts) <= bound)


def _first_past(fn, inner, outer):
    """The scalar bracketing root finder the sweep ran before it went lockstep, kept as an oracle."""
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


def _top(params, u, k):
    top = _first_past(lambda v: _psd_slope(v, params), u[max(k - 1, 0)], u[min(k + 1, len(u) - 1)])
    return top, float(_values(params, np.array([top]))[0])


def _full_window_peak(params, freqs, window, lobe_window):
    """The sweep's peak as read before pruning: every window point, then the grid beyond it."""
    t0 = params.t0
    i0, i1 = _bisect_x(freqs, t0, window[0], "left"), _bisect_x(freqs, t0, window[1], "right")
    u = freqs[i0:i1]
    s = _values(params, u) if i1 > i0 else u
    top, peak_value = _top(params, u, _peak_index(u * t0, s, window))
    half = peak_value / 2.0
    crossings = []
    for side, beyond in ((-1, freqs[:i0]), (+1, freqs[i1:])):
        out = (u - top) * side > 0
        us, ss = u[out][::side], s[out][::side]
        if not np.any(ss <= half) and len(beyond):
            us = np.concatenate([us, beyond[::side]])
            ss = np.concatenate([ss, _values(params, beyond)[::side]])
        j = _first_at_or_below(ss, half)
        crossings.append(_first_past(lambda v: _values(params, v) - half,
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
            lobes.append(_top(params, pts, int(np.argmax(_values(params, pts))))[1])
    return _report(center, peak_value, fwhm, lobes, lobe_window)


def _refined_peak(params, freqs, window, lobe_window):
    report = _refined_peaks([params], freqs, window, lobe_window)[0]
    if isinstance(report, PeakDetectionError):
        raise report
    return report


def _outcome(peak, params, window, lobe_window):
    """A report's repr, every float's shortest digits, or the detection failure's message."""
    try:
        return repr(peak(params, _sweep_grid(params.t0), window, lobe_window))
    except PeakDetectionError as err:
        return f"PeakDetectionError: {err}"


@pytest.mark.parametrize(
    "params, window",
    [
        # the FWHM is about one grid step
        (TrainParams(Variant.BLANK_SHORTEN, 100, 0.5, 0.2), PEAK_WINDOW),
        (TrainParams(Variant.BLANK_SHORTEN, 100, 0.5, 0.3), PEAK_WINDOW),
        # the half-height crossings lie beyond the window
        (TrainParams(Variant.BLANK_SHORTEN, 100, 10.0), (1.08, 1.09)),
        # the window maximum is its first point
        (TrainParams(Variant.BLANK_SHORTEN, 100, 10.0, 0.8), PEAK_WINDOW),
    ],
    ids=["p0.2-fwhm-one-step", "p0.3-fwhm-one-step", "crossings-beyond-window", "peak-on-boundary"],
)
def test_the_pruned_sweep_reports_what_the_full_window_read_does(params, window):
    pruned = _outcome(_refined_peak, params, window, LOBE_WINDOW)
    assert pruned == _outcome(_full_window_peak, params, window, LOBE_WINDOW)
    if params.prob_one == 0.8:
        assert "peak sits on the boundary" in pruned


@settings(max_examples=40, deadline=None)
@given(
    t0=st.sampled_from([7, 64, 100]),
    law=st.sampled_from(list(BlankLaw)),
    prob_one=st.floats(0.05, 0.95),
    delta=st.floats(0.0, 0.5),
    window=st.tuples(st.floats(0.5, 2.5), st.floats(0.002, 0.8)),
    lobe_window=st.tuples(st.floats(0.3, 2.9), st.floats(0.01, 1.5)),
)
def test_the_pruned_sweep_reports_what_the_full_window_read_does_on_random_windows(
    t0, law, prob_one, delta, window, lobe_window
):
    params = TrainParams(Variant.BLANK_SHORTEN, t0, delta * t0, prob_one, law)
    window = (window[0], window[0] + window[1])
    lobe_window = (lobe_window[0], lobe_window[0] + lobe_window[1])
    pruned = _outcome(_refined_peak, params, window, lobe_window)
    assert pruned == _outcome(_full_window_peak, params, window, lobe_window)


@pytest.mark.parametrize("t0", [7, 64, 100, 128])
def test_sweep_bounds_equal_searchsorted_on_the_scaled_grid(t0):
    freqs = default_sweep_grid(t0).values
    grid_x = freqs * t0
    on_point = float(grid_x[123_457])  # an edge that is some grid point's v * t0
    edges = [*PEAK_WINDOW, *LOBE_WINDOW, 1.0123456789, on_point, np.nextafter(on_point, 0.0), 0.0, 9.0]
    for x in edges:
        for side in ("left", "right"):
            assert _bisect_x(freqs, t0, x, side) == np.searchsorted(grid_x, x, side), (x, side)
            assert _bisect_x(_SweepGrid(t0), t0, x, side) == np.searchsorted(grid_x, x, side), (x, side)
    assert _bisect_x(freqs, t0, on_point, "right") > _bisect_x(freqs, t0, on_point, "left")


def test_analytic_sweep_memory_stays_under_the_grid_and_one_window():
    # the sweep grid takes 3.2 MB; no copy of it is made per delta
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    tracemalloc.start()
    try:
        sweep_delta(base, tuple(range(1, 11)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"


def test_a_200_delta_sweep_stays_under_the_same_memory():
    # deltas are measured SWEEP_GROUP at a time and the sweep grid is
    # computed only where it is read, so memory does not grow with deltas
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    tracemalloc.start()
    try:
        sweep_delta(base, tuple(np.linspace(1.0, 10.0, 200)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"


def _one_by_one(base, deltas, window, lobe_window):
    """The reports of ``deltas`` swept one at a time, or the failure of the first that fails."""
    out = []
    for d in deltas:
        try:
            out += sweep_delta(base, (d,), window, lobe_window)
        except PeakDetectionError as err:
            return f"PeakDetectionError: {err} {err.delta!r}"
    return repr(out)


@settings(max_examples=30, deadline=None)
@given(
    t0=st.sampled_from([7, 64, 100]),
    law=st.sampled_from(list(BlankLaw)),
    prob_one=st.floats(0.05, 0.95),
    picks=st.lists(st.one_of(st.integers(1, 3), st.floats(0.005, 0.1)), min_size=1, max_size=4),
    odd=st.sampled_from([None, None, 0, "half"]),
    at=st.integers(0, 4),
    windows=st.sampled_from(
        [(PEAK_WINDOW, LOBE_WINDOW)] * 3 + [((1.0, 1.03), LOBE_WINDOW), (PEAK_WINDOW, (1.05, 1.07))]
    ),
)
def test_a_lockstep_sweep_reports_what_sweeping_each_delta_alone_does(t0, law, prob_one, picks, odd, at, windows):
    # whole and fractional deltas, with a 0 or paper-law t0/2 delta (both
    # fail at the window's edge) at times; a failing sweep reports its
    # first failing delta in input order
    deltas = [x * t0 if isinstance(x, float) else x for x in picks]
    if odd is not None:
        deltas.insert(at, t0 / 2 if odd == "half" else odd)
    base = TrainParams(Variant.BLANK_SHORTEN, t0, 0.0, prob_one, law)
    try:
        together = repr(sweep_delta(base, deltas, *windows))
    except PeakDetectionError as err:
        together = f"PeakDetectionError: {err} {err.delta!r}"
    assert together == _one_by_one(base, deltas, *windows)


def test_the_first_failing_delta_in_input_order_is_reported():
    # delta 10 fails at the last stage, with no lobe points left beside its
    # wide peak; delta 0 fails at the first, its peak on the window's edge
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    with pytest.raises(PeakDetectionError, match="no grid points left in the lobe window") as exc:
        sweep_delta(base, (1, 10, 0), lobe_window=(1.05, 1.07))
    assert exc.value.delta == 10.0
    with pytest.raises(PeakDetectionError, match="peak sits on the boundary") as exc:
        sweep_delta(base, (1, 0, 10), lobe_window=(1.05, 1.07))
    assert exc.value.delta == 0.0


def test_default_sweep_grid_covers_the_search_band():
    g = default_sweep_grid(100.0)
    assert len(g) == 400_001
    assert g.values.tobytes() == (np.linspace(0.3, 3.0, 400_001) / 100.0).tobytes()
    for t0 in (7, 100.0, 1000):
        # the sweep computes its grid's points where it reads them
        grid, full = _SweepGrid(t0), np.linspace(*SWEEP_SPAN, SWEEP_POINTS) / t0
        assert grid[5:40_000:LOBE_STRIDE].tobytes() == full[5:40_000:LOBE_STRIDE].tobytes()
        assert grid[399_990:].tobytes() == full[399_990:].tobytes()
        assert [grid[i] for i in (0, 123_457, SWEEP_POINTS - 1)] == [full[i] for i in (0, 123_457, -1)]
    assert g.values[0] == pytest.approx(0.3 / 100.0, rel=1e-12)
    assert g.values[-1] == pytest.approx(3.0 / 100.0, rel=1e-12)


def test_sweep_failures_carry_their_delta():
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1, blank_law=GEN)
    with pytest.raises(PeakDetectionError) as exc:
        sweep_delta(base, (5, 0))
    assert exc.value.delta == 0.0


def test_sweep_validates_inputs():
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    with pytest.raises(ValueError):
        sweep_delta(base, ())
    with pytest.raises(ValueError):
        sweep_delta(base, (120,))
    cfg = SimConfig(n_symbols=8, n_realizations=1, fft_size=1024, seed=0, params=base)
    with pytest.raises(ValueError):
        sweep_delta(cfg, (2.5,))
    transition = TrainParams(Variant.TRANSITION_STRETCH, t0=100, delta=1)
    with pytest.raises(ValueError):
        sweep_delta(transition, (2,))


def test_simulated_peak_lands_within_two_bins_of_analytic():
    params = TrainParams(Variant.BLANK_SHORTEN, t0=32, delta=3, blank_law=GEN)
    cfg = SimConfig(n_symbols=512, n_realizations=150, fft_size=32_768, seed=5, params=params)
    items = sweep_delta(cfg, (3,))
    (delta, sim_rep), = items
    assert delta == 3.0
    sim_spec = estimate_psd(cfg)
    ana_spec = psd_blank_shorten(FrequencyGrid(sim_spec.freqs), params)
    ana_rep = find_clock_peak(ana_spec, 32.0)
    bin_width = 32.0 / 32_768
    assert abs(sim_rep.center_freq_norm - ana_rep.center_freq_norm) <= 2 * bin_width
    assert sim_rep.amplitude_linear == pytest.approx(1.6732495563322902, rel=1e-6)


# --- straight-line fitting ---


def test_linear_fit_recovers_an_exact_line():
    fit = linear_fit([1, 2, 3, 4], [3.0, 5.0, 7.0, 9.0])
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == 1.0


def test_linear_fit_constant_data_is_a_perfect_fit():
    fit = linear_fit([1, 2, 3], [4.0, 4.0, 4.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-15)
    assert fit.r_squared == 1.0


def test_linear_fit_matches_polyfit_on_noisy_data():
    rng = np.random.default_rng(6)
    x = np.linspace(0, 5, 40)
    y = 1.7 * x - 0.3 + rng.normal(scale=0.25, size=40)
    fit = linear_fit(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)
    assert 0.0 <= fit.r_squared <= 1.0


def test_linear_fit_needs_three_points():
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [2.0, 4.0])


def test_linear_fit_refuses_mismatched_shapes_and_constant_xs():
    with pytest.raises(ValueError, match="equal length"):
        linear_fit([1.0, 2.0, 3.0], [2.0, 4.0])
    with pytest.raises(ValueError, match="xs are all equal"):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
