"""Clock-peak detection, sweeps, and the fitting helpers."""

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
from pulsepsd.analytic import _psd_slope
from pulsepsd.peaks import LOBE_WINDOW, PEAK_WINDOW, _bisect_x, default_sweep_grid

GEN = BlankLaw.GENERATOR_K_MINUS_ONE_DELTA


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
    points = []
    for name in ("psd_blank_shorten", "_psd_slope"):

        def counting(grid, params, real=getattr(pulsepsd.peaks, name)):
            points.append(len(grid))
            return real(grid, params)

        monkeypatch.setattr(pulsepsd.peaks, name, counting)
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    deltas = tuple(range(1, 11))
    items = sweep_delta(base, deltas)
    assert len(items) == len(deltas)
    # reading the whole default grid would cost 400001 points per delta;
    # points of the density and of its slope count alike
    assert sum(points) <= 100_000 * len(deltas)


@pytest.mark.parametrize("t0", [7, 64, 100, 128])
def test_sweep_bounds_equal_searchsorted_on_the_scaled_grid(t0):
    freqs = default_sweep_grid(t0).values
    grid_x = freqs * t0
    on_point = float(grid_x[123_457])  # an edge that is some grid point's v * t0
    edges = [*PEAK_WINDOW, *LOBE_WINDOW, 1.0123456789, on_point, np.nextafter(on_point, 0.0), 0.0, 9.0]
    for x in edges:
        for side in ("left", "right"):
            assert _bisect_x(freqs, t0, x, side) == np.searchsorted(grid_x, x, side), (x, side)
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


def test_default_sweep_grid_covers_the_search_band():
    g = default_sweep_grid(100.0)
    assert len(g) == 400_001
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
