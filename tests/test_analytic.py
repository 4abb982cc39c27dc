"""Analytic spectra: grids, continuous densities, lines, binning."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsepsd import (
    BlankLaw,
    DiscreteLineSet,
    FrequencyGrid,
    SimConfig,
    SpectrumGrid,
    TrainParams,
    Variant,
    bin_power,
    combine,
    continuous_psd_transition,
    discrete_lines_transition,
    estimate_psd,
    normalize_second_lobe,
    psd_blank_shorten,
    theta1,
    theta2,
    theta_blank,
)
from pulsepsd import analytic
from pulsepsd.analytic import analytic_on_fft_grid


def _params(t0=64, delta=3, p=0.55) -> TrainParams:
    return TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=p)


def _blank(t0=100, delta=10, law=BlankLaw.PAPER_K_DELTA, p=0.5) -> TrainParams:
    return TrainParams(Variant.BLANK_SHORTEN, t0=t0, delta=delta, prob_one=p, blank_law=law)


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


@pytest.mark.parametrize("values", [[0.1, 0.1, 0.2], [0.1, 0.3, 0.2], [5e-324, 5e-324]])
def test_grid_order_check_names_the_rule(values):
    with pytest.raises(ValueError, match="frequency grid must be strictly increasing"):
        FrequencyGrid(np.array(values))


@pytest.mark.parametrize("lo", [5e-324, 1e-300, 1.0 / 64.0, 0.5, 1e300])
def test_grid_accepts_neighbours_one_ulp_apart(lo):
    # on finite values v[1:] <= v[:-1] reads as np.diff(v) <= 0: a
    # difference of two distinct floats is never 0, down to the subnormals
    v = np.array([lo, np.nextafter(lo, np.inf), np.nextafter(np.nextafter(lo, np.inf), np.inf)])
    np.testing.assert_array_equal(FrequencyGrid(v).values, v)


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


def test_harmonic_points_take_the_removable_limit():
    # at k/t0 the continuum is 0/0; its limit is S* = 4 sin^2(pi k delta / t0)
    # (Var tau + Var l) / (w_k^2 <G>^3), with <G> = t0 / (p q), Var tau =
    # t0^2 p / q^2 and Var l = t0^2 q / p^2; the point is reported, not dropped
    t0, delta, p = 64, 3, 0.55
    q = 1.0 - p
    grid = FrequencyGrid(np.array([0.5 / t0, 1.0 / t0, 1.5 / t0, 2.0 / t0]))
    spec = continuous_psd_transition(grid, _params(t0, delta, p))
    assert spec.grid is grid
    assert spec.meta["limit_freqs"] == (1.0 / t0, 2.0 / t0)
    k = np.array([1.0, 2.0])
    w_k = 2.0 * np.pi * k / t0
    s_star = (
        4.0 * np.sin(np.pi * k * delta / t0) ** 2 * t0**2 * (p / q**2 + q / p**2)
        / (w_k**2 * (t0 / (p * q)) ** 3)
    )
    np.testing.assert_allclose(spec.psd[[1, 3]], s_star, rtol=1e-12)


@pytest.mark.parametrize(
    "t0, delta, p", [(64, 3, 0.55), (10, 2.5, 0.7), (16, 4, 0.3), (8, 3, 0.3), (64, 0, 0.55)]
)
def test_harmonic_limit_meets_the_extrapolated_neighbours(t0, delta, p):
    # the density is even about f_k to second order, so the mean m(h) of its
    # values at f_k (1 +- h) is S* + c h^2 + O(h^4), and (4 m(h) - m(2h)) / 3
    # extrapolates to S*; measured within 9.7e-10 of S(1.1 f_k)
    params = _params(t0, delta, p)
    f_k = np.arange(1, 9) / t0

    def density(f):
        return continuous_psd_transition(FrequencyGrid(f), params).psd

    def m(h):
        return 0.5 * (density(f_k * (1.0 - h)) + density(f_k * (1.0 + h)))

    extrapolated = (4.0 * m(1e-4) - m(2e-4)) / 3.0
    assert np.all(np.abs(density(f_k) - extrapolated) <= 2e-9 * density(1.1 * f_k))


def test_continuous_is_finite_near_harmonics():
    # 1e-6 away from the removable point the closed form must still be tame
    t0 = 64
    grid = FrequencyGrid(np.array([1.0 / t0 - 1e-6, 1.0 / t0 + 1e-6]))
    spec = continuous_psd_transition(grid, _params(t0=t0))
    assert np.all(np.isfinite(spec.psd))
    assert np.all(spec.psd < 1.0)


# --- block evaluation ---


def _blocked_and_whole(grid: FrequencyGrid, params: TrainParams, chunk: int = 7):
    """The closed form on ``grid`` in blocks of ``chunk`` points, and in one block."""
    assert len(grid) <= analytic._CHUNK_POINTS
    whole = analytic._psd(grid, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_CHUNK_POINTS", chunk)
        blocked = analytic._psd(grid, params)
    return blocked, whole


def _assert_same_bits(blocked: SpectrumGrid, whole: SpectrumGrid) -> None:
    assert blocked.psd.tobytes() == whole.psd.tobytes()
    assert blocked.meta == whole.meta


@st.composite
def _any_train(draw) -> TrainParams:
    t0 = draw(st.integers(1, 128))
    frac = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 0.45)))
    p = draw(st.floats(0.05, 0.95))
    law = draw(st.sampled_from([None, *BlankLaw]))
    if law is None:
        return _params(t0, frac * t0, p)
    return _blank(t0, frac * t0, law, p)


@settings(max_examples=60, deadline=None)
@given(
    params=_any_train(),
    per_harmonic=st.integers(1, 3),
    first=st.integers(1, 4),
    n=st.integers(1, 21),
    extra=st.lists(st.floats(1e-3, 4.0), max_size=8),
)
def test_block_boundaries_leave_every_bit_in_place(params, per_harmonic, first, n, extra):
    # lattice points j / (per_harmonic t0) put clock harmonics, where S* is
    # taken, on either side of the 7-point block boundaries
    x = np.concatenate([(first + np.arange(n)) / per_harmonic, extra])
    _assert_same_bits(*_blocked_and_whole(FrequencyGrid(np.unique(x / params.t0)), params))


@pytest.mark.parametrize(
    "params, f0",
    [(_params(8, 3, 0.55), 1.0 / 8), (_blank(64, 0), 1.0 / 64), (_blank(100, 10), 0.1)],
    ids=["transition-lines", "blank-delta-0", "blank-resonances"],
)
def test_limit_points_straddle_block_boundaries(params, f0):
    # every point of three 7-point blocks takes S*
    grid = FrequencyGrid(np.arange(1, 22) * f0)
    blocked, whole = _blocked_and_whole(grid, params)
    assert blocked.meta["limit_freqs"] == tuple(grid.values.tolist())
    _assert_same_bits(blocked, whole)


@pytest.mark.parametrize(
    "closed_form, params",
    [(psd_blank_shorten, _blank()), (continuous_psd_transition, _params())],
    ids=["blank", "transition"],
)
def test_closed_form_memory_is_bounded_by_the_block(closed_form, params):
    # the output takes 8 bytes per point and its limit flags 1; the
    # complex temporaries take about 100 bytes per point of one block
    grid = FrequencyGrid.offset_linspace(0.5, 1_000_000)
    tracemalloc.start()
    try:
        closed_form(grid, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(grid), f"peak {peak / len(grid):.1f} bytes per point"


_GRID = FrequencyGrid.offset_linspace(0.1, 8)


@pytest.mark.parametrize(
    "closed_form, params",
    [
        (lambda p: theta_blank(0.1, p), _params()),
        (lambda p: psd_blank_shorten(_GRID, p), _params()),
        (lambda p: theta1(0.1, p), _blank()),
        (lambda p: theta2(0.1, p), _blank()),
        (lambda p: continuous_psd_transition(_GRID, p), _blank()),
    ],
    ids=["theta_blank", "psd_blank_shorten", "theta1", "theta2", "continuous_psd_transition"],
)
def test_closed_forms_refuse_the_other_variant(closed_form, params):
    with pytest.raises(ValueError, match="params.variant"):
        closed_form(params)


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
        spec = psd_blank_shorten(grid, _blank(law=law))
        assert np.all(spec.psd >= 0.0)
        assert spec.meta["kind"] == "continuous"


def test_blank_laws_coincide_at_zero_delta():
    grid = FrequencyGrid.offset_linspace(3.0 / 64.0, 2000)
    a = psd_blank_shorten(grid, _blank(64, 0, BlankLaw.PAPER_K_DELTA))
    b = psd_blank_shorten(grid, _blank(64, 0, BlankLaw.GENERATOR_K_MINUS_ONE_DELTA))
    np.testing.assert_allclose(a.psd, b.psd, rtol=1e-10)


def test_blank_resonances_take_a_limit_of_exactly_zero():
    # without shortening every harmonic is a resonance of both runs: A0 = B0 = 0
    t0 = 64
    grid = FrequencyGrid(np.array([0.7 / t0, 1.0 / t0, 1.3 / t0]))
    spec = psd_blank_shorten(grid, _blank(t0, 0))
    assert spec.meta["limit_freqs"] == (1.0 / t0,)
    assert spec.psd[1] == 0.0 and np.all(spec.psd[[0, 2]] > 0.0)
    # at t0 100, delta 10 both runs resonate at f = m / gcd(t0, delta); the
    # neighbours fall as h^2, with the mean over h^2 steady at 24.20 (paper
    # law) and 23.62 (generator law)
    f = np.array([0.1, 0.2])
    for law, slope in ((BlankLaw.PAPER_K_DELTA, 24.20), (BlankLaw.GENERATOR_K_MINUS_ONE_DELTA, 23.62)):
        params = _blank(100, 10, law)
        spec = psd_blank_shorten(FrequencyGrid(f), params)
        assert spec.meta["limit_freqs"] == (0.1, 0.2)
        np.testing.assert_array_equal(spec.psd, 0.0)
        for h in (1e-4, 1e-5):
            below, above = (psd_blank_shorten(FrequencyGrid(f * x), params).psd for x in (1 - h, 1 + h))
            np.testing.assert_allclose(0.5 * (below + above) / h**2, slope, rtol=1e-3)


def _series_interval_law(t0: float, delta: float, law: BlankLaw, p: float):
    """Probabilities p q^(k-1) and lengths of the k-slot front intervals, to a 1e-18 tail."""
    q = 1.0 - p
    k = np.arange(1, int(np.ceil(np.log(1e-18) / np.log(q))) + 1)
    if law is BlankLaw.PAPER_K_DELTA:
        length = np.where(k == 1, t0, k * (t0 - delta))
    else:
        length = k * t0 - (k - 1) * delta
    return p * q ** (k - 1), length


def _renewal_form(w: np.ndarray, t0: float, prob: np.ndarray, length: np.ndarray) -> np.ndarray:
    """1/<T> |F|^2 Re[(1 + theta)/(1 - theta)] of front intervals T = length w.p. prob.

    Evaluated in extended precision and as (1 - |theta|^2) / |1 - theta|^2,
    with 1 - |theta|^2 = sum_ij p_i p_j 2 sin^2(w (T_i - T_j) / 2), a sum of
    nonnegative terms, and 1 - theta = sum_i p_i (2 sin^2(w T_i / 2) - j sin(w T_i)).
    """
    gaps, which = np.unique(np.subtract.outer(length, length), return_inverse=True)
    weights = np.bincount(which.ravel(), weights=np.outer(prob, prob).ravel())
    w, gaps, weights = (x.astype(np.longdouble) for x in (w[:, None], gaps, weights))
    prob, length = prob.astype(np.longdouble), length.astype(np.longdouble)
    one_minus_abs2 = 2.0 * np.sin(w * gaps / 2.0) ** 2 @ weights
    one_minus = (2.0 * np.sin(w * length / 2.0) ** 2) @ prob, np.sin(w * length) @ prob
    pulse = 4.0 * np.sin(w[:, 0] * t0 / 2.0) ** 2 / w[:, 0] ** 2
    return pulse / (prob @ length) * one_minus_abs2 / (one_minus[0] ** 2 + one_minus[1] ** 2)


def test_blank_level_is_one_over_the_mean_interval():
    # the renewal form of the front interval T, from its law: written
    # directly in float64, that form is itself off by up to 4e-12 near
    # f = 0 and near the generator-law peak, where 1 - |theta|^2 cancels
    grid = FrequencyGrid.offset_linspace(2.0 / 100.0, 500)
    rng = np.random.default_rng(3)
    for p in (0.5, *rng.uniform(0.05, 0.95, 4)):
        for law in BlankLaw:
            base = psd_blank_shorten(grid, _blank(law=law, p=p))
            prob, length = _series_interval_law(100.0, 10.0, law, p)
            expected = _renewal_form(2.0 * np.pi * base.freqs, 100.0, prob, length)
            np.testing.assert_allclose(base.psd, expected.astype(float), rtol=1e-12)


@pytest.mark.parametrize(
    "law, t0, delta, p",
    [
        *((law, *case) for law in BlankLaw for case in ((100, 10, 0.5), (32, 5, 0.8))),
        (BlankLaw.GENERATOR_K_MINUS_ONE_DELTA, 100, 60, 0.5),
        # delta = t0/2: the paper law's first zero after a one is empty
        (BlankLaw.PAPER_K_DELTA, 100, 50, 0.5),
    ],
)
def test_blank_density_equals_the_alternating_run_form(law, t0, delta, p):
    # blank-shorten is also a train of independent alternating runs: a high
    # run of M ones lasts t0 M, a low run of K zeros (t0 - delta) K - b, with
    # b = delta under the paper law (its first zero lasts t0 - 2 delta) and
    # 0 under the generator law; M and K are geometric
    grid = FrequencyGrid.offset_linspace(3.0 / t0, 20001)
    spec = psd_blank_shorten(grid, _blank(t0, delta, law, p))
    w = 2.0 * np.pi * spec.freqs
    q = 1.0 - p
    b = delta if law is BlankLaw.PAPER_K_DELTA else 0.0
    z, v = np.exp(1j * w * t0), np.exp(1j * w * (t0 - delta))
    theta_high = q * z / (1.0 - p * z)
    theta_low = p * np.exp(-1j * w * b) * v / (1.0 - q * v)
    mean_period = t0 / q + (t0 - delta) / p - b
    expected = (
        2.0 / (w**2 * mean_period)
        * np.real((1.0 - theta_high) * (1.0 - theta_low) / (1.0 - theta_high * theta_low))
    )
    assert np.max(np.abs(spec.psd - expected)) <= 1e-8 * np.max(spec.psd)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("law", list(BlankLaw))
def test_psd_slope_meets_a_centred_difference_of_the_density(law, p):
    # over the sweep span, 1e-3 f/f0 or more from each harmonic and from each
    # extremum of the density, which a 1e-5 grid brackets
    t0, params = 100, _blank(law=law, p=p)

    def density(x):
        return psd_blank_shorten(FrequencyGrid(x / t0), params).psd

    fine = np.linspace(0.3, 3.0, 270_001)
    turns = fine[1:-1][np.diff(np.sign(np.diff(density(fine)))) != 0]
    x = np.linspace(0.3, 3.0, 2_701)
    far = np.abs(x - np.round(x)) >= 1e-3
    far &= np.min(np.abs(x[:, None] - turns[None, :]), axis=1) >= 1e-3
    x = x[far]
    h = 1e-6
    centred = (density(x + h) - density(x - h)) / (2.0 * h / t0)
    slope = analytic._psd_slope(x / t0, params)
    assert len(x) > 2_000
    assert np.all(np.sign(slope) == np.sign(centred))
    np.testing.assert_allclose(slope, centred, rtol=1e-6)


def _run_laws(params: TrainParams):
    """(P, a, r) of the high and the low run: a run lasts a with probability P, each further symbol adds r."""
    p, q, t0, d = params.prob_one, params.prob_zero, params.t0, params.delta
    if params.variant is Variant.TRANSITION_STRETCH:
        return (q, t0 + d, t0), (p, t0 - d, t0)
    head = t0 - d if params.blank_law is BlankLaw.PAPER_K_DELTA else t0
    return (q, t0, t0), (p, head - d, t0 - d)


@pytest.mark.parametrize(
    "params",
    [
        _params(64, 3, 0.55),
        _params(100, 10, 0.3),
        _params(16, 15, 0.9),
        *(_blank(100, 10, law, 0.5) for law in BlankLaw),
        *(_blank(32, 16, law, 0.8) for law in BlankLaw),
        _blank(64, 40, BlankLaw.GENERATOR_K_MINUS_ONE_DELTA, 0.2),
    ],
    ids=lambda prm: "-".join(
        str(x) for x in (prm.variant.value, prm.t0, prm.delta, prm.prob_one)
        + ((prm.blank_law.value,) if prm.variant is Variant.BLANK_SHORTEN else ())
    ),
)
def test_density_reaches_its_dc_limit_without_cancellation(params):
    # S(0) = (<l>^2 Var tau + <tau>^2 Var l) / <G>^3, with mean a + r (1 - P)/P
    # and variance r^2 (1 - P)/P^2 for a run law (P, a, r)
    (mean_tau, var_tau), (mean_l, var_l) = (
        (a + r * (1.0 - P) / P, r * r * (1.0 - P) / P**2) for P, a, r in _run_laws(params)
    )
    s0 = (mean_l**2 * var_tau + mean_tau**2 * var_l) / (mean_tau + mean_l) ** 3
    grid = FrequencyGrid(np.array([1e-8 / params.t0]))
    density = continuous_psd_transition if params.variant is Variant.TRANSITION_STRETCH else psd_blank_shorten
    assert density(grid, params).psd[0] == pytest.approx(s0, rel=1e-12)


def test_the_line_rule_puts_no_power_on_blank_harmonics():
    # every blank high run is a whole number of t0, so 1 - theta_tau is 0
    # at every k/t0 and the one line rule finds no line
    params = _blank(100, 10)
    lines = analytic._lines(40, params)
    np.testing.assert_array_equal(lines.k, np.arange(1, 41))
    assert np.all(lines.power == 0.0)
    # so the FFT-grid join folds nothing into the blank continuum
    binned = bin_power(psd_blank_shorten(FrequencyGrid.fft_bins(8192), params))
    np.testing.assert_array_equal(analytic_on_fft_grid(params, 8192).psd, binned.psd)


@pytest.mark.parametrize("params", [_params(1, 0, 0.55), _blank(1, 0)], ids=["transition", "blank"])
def test_fft_grid_join_folds_nothing_when_no_harmonic_is_in_span(params):
    # at t0 = 1 the first clock harmonic lies past the FFT span (0, 1/2]
    spec = analytic_on_fft_grid(params, 64)
    assert spec.meta["kind"] == "binned" and len(spec.freqs) == 32
    with pytest.raises(ValueError, match="k_max"):
        analytic_on_fft_grid(params, 64, k_max=0)


# --- binning and line placement ---


def test_bin_power_first_bin_reaches_down_to_dc():
    g = FrequencyGrid(np.array([0.25, 0.5, 1.0]))
    spec = SpectrumGrid(grid=g, psd=np.array([2.0, 4.0, 8.0]), meta={"kind": "continuous"})
    binned = bin_power(spec)
    np.testing.assert_allclose(binned.psd, [0.5, 1.0, 4.0], rtol=1e-15)
    assert binned.meta["kind"] == "binned"


def test_bin_power_takes_widths_from_the_evaluated_grid():
    # the closed form takes its limit at the 32 clock harmonics k/64 among
    # the FFT bins k/8192 and keeps every bin, each 1/8192 wide
    n = 8192
    params = TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=3, prob_one=0.55)
    density = continuous_psd_transition(FrequencyGrid.fft_bins(n), params)
    assert len(density.meta["limit_freqs"]) == 32 and len(density.psd) == n // 2
    np.testing.assert_allclose(bin_power(density).psd, density.psd / n, rtol=1e-9)


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


def test_every_producer_keeps_only_the_meta_keys_that_are_read():
    closed = {"kind", "limit_freqs"}
    grid = FrequencyGrid.offset_linspace(3.0 / 64, 601)
    transition = continuous_psd_transition(grid, _params())
    assert set(transition.meta) == closed
    for law in BlankLaw:
        blank = psd_blank_shorten(grid, _blank(law=law))
        assert set(blank.meta) == closed
        normed = normalize_second_lobe(blank, 100.0)
        assert normed.meta == blank.meta
    binned = bin_power(transition)
    assert binned.meta == {**transition.meta, "kind": "binned"}
    combined = combine(binned, discrete_lines_transition(2, _params()))
    assert combined.meta == {**binned.meta, "kind": "combined"}
    cfg = SimConfig(n_symbols=16, n_realizations=2, fft_size=1024, seed=3, params=_params())
    assert set(estimate_psd(cfg, workers=1).meta) == {
        "kind", "fft_size", "n_symbols", "symbols_drawn", "n_realizations", "seed",
        "seed_scheme", "workers", "lattice", "transform_points",
    }


def test_analytic_on_fft_grid_keeps_line_power():
    params = TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=3, prob_one=0.55)
    spec = analytic_on_fft_grid(params, 4096)
    assert spec.meta["kind"] == "combined"
    # the harmonic bin itself carries the k=1 line power plus a deep-null
    # continuum sliver, so it is line-dominated
    f = spec.freqs
    i_line = int(np.argmin(np.abs(f - 1.0 / 64.0)))
    assert f[i_line] == 1.0 / 64.0
    line = discrete_lines_transition(1, params).power[0]
    assert spec.psd[i_line] == pytest.approx(line, rel=0.05)
    assert spec.psd[i_line] > 4 * spec.psd[i_line - 3]


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
