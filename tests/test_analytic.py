"""Analytic spectra: grids, continuous densities, lines, binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsepsd import (
    BlankLaw,
    DiscreteLineSet,
    FrequencyGrid,
    SpectrumGrid,
    TrainParams,
    Variant,
    bin_power,
    combine,
    continuous_psd_transition,
    discrete_lines_transition,
    psd_blank_shorten,
    theta_blank,
)


def _params(t0=64, delta=3, p=0.55) -> TrainParams:
    return TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=p)


# --- grids and containers ---


def test_grid_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([-0.1, 0.1]))


def test_grid_rejects_non_increasing_values():
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([0.1, 0.1, 0.2]))
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([0.2, 0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_rejects_non_finite_values(bad):
    # NaN compares False both ways, so the order checks alone let it through
    with pytest.raises(ValueError, match="finite"):
        FrequencyGrid(np.array([0.1, bad, 0.3]))
    with pytest.raises(ValueError, match="finite"):
        FrequencyGrid(np.array([0.1, 0.2, bad]))


def test_offset_linspace_straddles_the_span():
    g = FrequencyGrid.offset_linspace(2.0, 1000)
    step = 2.0 / 1000
    assert len(g) == 1000
    assert g.values[0] == pytest.approx(step / 2)
    assert g.values[-1] == pytest.approx(2.0 - step / 2)
    np.testing.assert_allclose(np.diff(g.values), step, rtol=1e-12)


def test_fft_bins_match_dft_frequencies():
    g = FrequencyGrid.fft_bins(1024)
    assert len(g) == 512
    np.testing.assert_array_equal(g.values, np.arange(1, 513) / 1024.0)


def test_spectrum_grid_validates_psd():
    g = FrequencyGrid(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        SpectrumGrid(grid=g, psd=np.array([1.0]))
    with pytest.raises(ValueError):
        SpectrumGrid(grid=g, psd=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        SpectrumGrid(grid=g, psd=np.array([1.0, np.nan]))


def test_line_set_validates_shapes_and_sign():
    with pytest.raises(ValueError):
        DiscreteLineSet(k=np.array([1, 2]), freq=np.array([0.1]), power=np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteLineSet(k=np.array([1]), freq=np.array([0.1]), power=np.array([-1.0]))


# --- continuous part, transition-stretch ---


def test_symmetric_undistorted_train_reduces_to_sinc_squared():
    t0 = 64
    params = _params(t0=t0, delta=0, p=0.5)
    grid = FrequencyGrid(np.arange(1, 501) * (2.0 / t0) / 500)
    spec = continuous_psd_transition(grid, params)
    f = spec.freqs
    ref = (t0 / 4.0) * np.sinc(f * t0) ** 2
    off_null = np.abs(f * t0 - np.round(f * t0)) > 0.01
    rel = np.abs(spec.psd[off_null] - ref[off_null]) / ref[off_null]
    assert rel.max() < 1e-9


def test_continuous_value_at_half_clock_frequency():
    # symmetric undistorted value (T0/4) * (2/pi)^2 at f = 1/(2*T0)
    params = _params(t0=64, delta=0, p=0.5)
    grid = FrequencyGrid(np.array([1.0 / 128.0]))
    spec = continuous_psd_transition(grid, params)
    assert spec.psd[0] == pytest.approx(6.4845557531096185, rel=1e-12)


def test_continuous_scale_factor_is_linear():
    grid = FrequencyGrid.offset_linspace(0.1, 64)
    base = continuous_psd_transition(grid, _params())
    quarter = continuous_psd_transition(grid, _params(), scale=0.25)
    np.testing.assert_allclose(quarter.psd, 0.25 * base.psd, rtol=1e-14)


def test_harmonic_points_are_dropped_not_fabricated():
    t0 = 64
    grid = FrequencyGrid(np.array([0.5 / t0, 1.0 / t0, 1.5 / t0]))
    spec = continuous_psd_transition(grid, _params(t0=t0))
    assert len(spec.freqs) == 2
    assert 1.0 / t0 not in spec.freqs
    assert spec.meta["dropped_freqs"] == (1.0 / t0,)
    assert np.all(np.isfinite(spec.psd))


def test_continuous_is_finite_near_harmonics():
    # 1e-6 away from the removable point the closed form must still be tame
    t0 = 64
    grid = FrequencyGrid(np.array([1.0 / t0 - 1e-6, 1.0 / t0 + 1e-6]))
    spec = continuous_psd_transition(grid, _params(t0=t0))
    assert np.all(np.isfinite(spec.psd))
    assert np.all(spec.psd < 1.0)


def test_continuous_rejects_blank_params():
    grid = FrequencyGrid.offset_linspace(0.1, 8)
    with pytest.raises(ValueError):
        continuous_psd_transition(grid, TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=10))


# --- discrete lines ---


def test_line_powers_match_direct_formula():
    params = _params(t0=64, delta=3, p=0.55)
    lines = discrete_lines_transition(10, params)
    k = np.arange(1, 11)
    expected = (np.sin(np.pi * k * 3 / 64) * 0.55 * 0.45 / (k * np.pi)) ** 2
    np.testing.assert_array_equal(lines.k, k)
    np.testing.assert_allclose(lines.freq, k / 64.0, rtol=1e-15)
    np.testing.assert_allclose(lines.power, expected, rtol=1e-12)
    assert lines.power[0] == pytest.approx(1.33626104e-4, rel=1e-8)


def test_line_power_is_exactly_zero_when_shortening_cancels():
    lines = discrete_lines_transition(12, _params(t0=64, delta=16, p=0.5))
    for k in range(1, 13):
        if k % 4 == 0:
            assert lines.power[k - 1] == 0.0
        else:
            assert lines.power[k - 1] > 0.0


def test_line_powers_sit_under_their_envelope():
    params = _params(t0=64, delta=5, p=0.3)
    lines = discrete_lines_transition(40, params)
    envelope = (0.3 * 0.7 / (lines.k * np.pi)) ** 2
    assert np.all(lines.power <= envelope + 1e-18)


def test_lines_vanish_without_predistortion():
    lines = discrete_lines_transition(10, _params(delta=0))
    assert np.all(lines.power == 0.0)


# --- blank-shorten density ---


def test_blank_density_is_nonnegative_for_both_laws():
    grid = FrequencyGrid.offset_linspace(3.0 / 100.0, 5000)
    for law in BlankLaw:
        spec = psd_blank_shorten(grid, 100.0, 10.0, law=law)
        assert np.all(spec.psd >= 0.0)
        assert spec.meta["kind"] == "continuous"


def test_blank_laws_coincide_at_zero_delta():
    grid = FrequencyGrid.offset_linspace(3.0 / 64.0, 2000)
    a = psd_blank_shorten(grid, 64.0, 0.0, law=BlankLaw.PAPER_K_DELTA)
    b = psd_blank_shorten(grid, 64.0, 0.0, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA)
    np.testing.assert_allclose(a.psd, b.psd, rtol=1e-10)


def test_blank_drops_points_where_denominator_collapses():
    # without shortening the resonant factor blows up at every harmonic
    t0 = 64
    grid = FrequencyGrid(np.array([0.7 / t0, 1.0 / t0, 1.3 / t0]))
    spec = psd_blank_shorten(grid, float(t0), 0.0)
    assert len(spec.freqs) == 2
    assert spec.meta["dropped_freqs"] == (1.0 / t0,)


def _series_mean_interval(t0: float, delta: float, law: BlankLaw, p: float) -> float:
    """<T> = sum over k of p q^(k-1) times the length of a k-slot front interval."""
    q = 1.0 - p
    k = np.arange(1, int(np.ceil(np.log(1e-18) / np.log(q))) + 1)
    if law is BlankLaw.PAPER_K_DELTA:
        length = np.where(k == 1, t0, k * (t0 - delta))
    else:
        length = k * t0 - (k - 1) * delta
    return float(np.sum(p * q ** (k - 1) * length))


def test_blank_scale_is_linear_and_the_level_is_one_over_the_mean_interval():
    grid = FrequencyGrid.offset_linspace(2.0 / 100.0, 500)
    rng = np.random.default_rng(3)
    for p in (0.5, *rng.uniform(0.05, 0.95, 4)):
        for law in BlankLaw:
            base = psd_blank_shorten(grid, 100.0, 10.0, law=law, prob_one=p)
            scaled = psd_blank_shorten(grid, 100.0, 10.0, law=law, prob_one=p, scale=2.5)
            np.testing.assert_allclose(scaled.psd, 2.5 * base.psd, rtol=1e-14)
            w = 2.0 * np.pi * base.freqs
            theta = theta_blank(w, 100.0, 10.0, law=law, prob_one=p)
            rate = 1.0 / _series_mean_interval(100.0, 10.0, law, p)
            expected = (
                rate * 4.0 * np.sin(w * 50.0) ** 2 / w**2
                * np.real((1.0 + theta) / (1.0 - theta))
            )
            np.testing.assert_allclose(base.psd, expected, rtol=1e-12)


# --- binning and line placement ---


def test_bin_power_first_bin_reaches_down_to_dc():
    g = FrequencyGrid(np.array([0.25, 0.5, 1.0]))
    spec = SpectrumGrid(grid=g, psd=np.array([2.0, 4.0, 8.0]), meta={"kind": "continuous"})
    binned = bin_power(spec)
    np.testing.assert_allclose(binned.psd, [0.5, 1.0, 4.0], rtol=1e-15)
    assert binned.meta["kind"] == "binned"


def test_bin_power_needs_two_points():
    g = FrequencyGrid(np.array([0.25]))
    with pytest.raises(ValueError):
        bin_power(SpectrumGrid(grid=g, psd=np.array([1.0])))


def test_combine_adds_line_power_into_nearest_bin():
    g = FrequencyGrid(np.array([0.1, 0.2, 0.3, 0.4]))
    spec = SpectrumGrid(grid=g, psd=np.ones(4), meta={"kind": "binned"})
    lines = DiscreteLineSet(
        k=np.array([1, 2]), freq=np.array([0.2, 0.31]), power=np.array([5.0, 7.0])
    )
    out = combine(spec, lines)
    np.testing.assert_allclose(out.psd, [1.0, 6.0, 8.0, 1.0], rtol=1e-15)
    assert out.meta["kind"] == "combined"
    assert out.meta["lines_k_max"] == 2
    # the input spectrum must not be mutated
    np.testing.assert_array_equal(spec.psd, np.ones(4))


def test_combine_reports_out_of_span_lines_by_harmonic_index():
    g = FrequencyGrid(np.array([0.1, 0.2]))
    spec = SpectrumGrid(grid=g, psd=np.ones(2))
    lines = DiscreteLineSet(
        k=np.array([3, 9]), freq=np.array([0.15, 0.9]), power=np.array([1.0, 1.0])
    )
    with pytest.raises(ValueError, match="k = 9"):
        combine(spec, lines)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(8, 200),
    fmax=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**31),
)
def test_bin_power_total_equals_rectangle_rule_integral(n, fmax, seed):
    rng = np.random.default_rng(seed)
    g = FrequencyGrid.offset_linspace(fmax, n)
    psd = rng.uniform(0.0, 10.0, n)
    binned = bin_power(SpectrumGrid(grid=g, psd=psd))
    widths = np.concatenate(([g.values[0]], np.diff(g.values)))
    assert binned.psd.sum() == pytest.approx(float(np.sum(psd * widths)), rel=1e-12)
