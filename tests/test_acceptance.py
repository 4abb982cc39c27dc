"""Acceptance gate: one test and one pass/fail line per criterion.

Every numeric tolerance here is pinned; loosening one is a contract
change, not a test fix. Criteria that need Monte Carlo data use frozen
seeds so reruns are bit-identical.
"""

import time
from functools import lru_cache

import numpy as np

from pulsepsd import (
    BlankLaw,
    SimConfig,
    TrainParams,
    Variant,
    continuous_psd_transition,
    discrete_component_detector,
    discrete_lines_transition,
    estimate_psd,
    find_clock_peak,
    gen_bits,
    interval_stats,
    linear_fit,
    measure_intervals,
    periodogram_bins,
    psd_blank_shorten,
    sweep_delta,
    synth_transition_stretch,
    theta1,
    theta2,
    theta_blank,
)
from pulsepsd.analytic import FrequencyGrid
from pulsepsd.cli import analytic_on_fft_grid, compare_on_common_bins, main
from pulsepsd.peaks import default_sweep_grid


def _criterion(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {n}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _transition(t0: int, delta: int, p: float) -> TrainParams:
    return TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=p)


@lru_cache(maxsize=1)
def _fig4_simulation():
    cfg = SimConfig(
        n_symbols=128,
        n_realizations=1000,
        fft_size=16384,
        seed=11,
        params=_transition(128, 6, 0.55),
    )
    return estimate_psd(cfg)


def test_criterion_1_undistorted_train_matches_sinc_squared():
    t0 = 64
    start = time.perf_counter()
    grid = FrequencyGrid(np.arange(1, 2001) * (2.0 / t0) / 2000)
    spec = continuous_psd_transition(grid, _transition(t0, 0, 0.5))
    f = spec.freqs
    ref = (t0 / 4.0) * np.sinc(f * t0) ** 2
    x = f * t0
    off_null = ~((np.round(x) >= 1.0) & (np.abs(x - np.round(x)) <= 2.0e-3 + 1e-12))
    rel = np.abs(spec.psd[off_null] - ref[off_null]) / ref[off_null]
    elapsed = time.perf_counter() - start
    ok = bool(rel.max() <= 0.01) and elapsed < 5.0
    _criterion(
        1,
        "continuous density reduces to (T0/4) sinc^2 without predistortion",
        ok,
        f"max rel err {rel.max():.2e} on 2000-point grid, {elapsed:.2f}s",
    )


def test_criterion_2_line_powers_match_monte_carlo():
    start = time.perf_counter()
    sim = _fig4_simulation()
    lines = discrete_lines_transition(10, _transition(64, 3, 0.55))
    bins_per_f0 = 16384 // 128
    diffs_db = []
    for k in range(1, 11):
        b = k * bins_per_f0  # one-sided array index b-1 holds bin b
        continuum = 0.5 * (sim.psd[b - 4] + sim.psd[b + 2])
        mc_power = sim.psd[b - 1] - continuum
        diffs_db.append(10.0 * np.log10(mc_power / lines.power[k - 1]))
    elapsed = time.perf_counter() - start
    worst = max(abs(d) for d in diffs_db)
    strong = 10.0 * np.log10(lines.power) > -60.0
    ok = bool(np.all(strong)) and worst <= 1.0 and elapsed < 600.0
    _criterion(
        2,
        "harmonic line powers match the averaged periodogram within 1 dB",
        ok,
        f"k=1..10 all above -60 dB, worst |diff| {worst:.3f} dB, {elapsed:.1f}s",
    )


def test_criterion_3_fine_fft_configuration_converges_and_coarse_does_not():
    sim4 = _fig4_simulation()
    ana4 = analytic_on_fft_grid(_transition(128, 6, 0.55), 16384)
    _, stats4 = compare_on_common_bins(ana4, sim4, 128.0, (0.1, 10.0))
    cfg1 = SimConfig(
        n_symbols=128,
        n_realizations=1000,
        fft_size=8192,
        seed=107,
        params=_transition(64, 3, 0.55),
    )
    sim1 = estimate_psd(cfg1)
    ana1 = analytic_on_fft_grid(_transition(64, 3, 0.55), 8192)
    _, stats1 = compare_on_common_bins(ana1, sim1, 64.0, (0.1, 10.0))
    m4, m1 = stats4["max_abs_diff_db"], stats1["max_abs_diff_db"]
    ok = m4 <= 2.0 and m1 > m4
    _criterion(
        3,
        "fine configuration agrees within 2 dB and beats the coarse one",
        ok,
        f"fine max {m4:.3f} dB, coarse max {m1:.3f} dB",
    )


def test_criterion_4_blank_shorten_clock_peak_stands_about_twice_the_lobe():
    grid = default_sweep_grid(100.0)
    rep_gen = find_clock_peak(
        psd_blank_shorten(grid, 100.0, 10.0, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA),
        100.0,
    )
    rep_paper = find_clock_peak(
        psd_blank_shorten(grid, 100.0, 10.0, law=BlankLaw.PAPER_K_DELTA), 100.0
    )
    cfg = SimConfig(
        n_symbols=2000,
        n_realizations=500,
        fft_size=262144,
        seed=7,
        params=TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=10),
    )
    rep_sim = find_clock_peak(estimate_psd(cfg), 100.0)
    in_band = 0.8 < rep_gen.center_freq_norm < 1.3 and 0.8 < rep_sim.center_freq_norm < 1.3
    amp_ok = 1.5 <= rep_gen.amplitude_linear <= 2.5 and 1.5 <= rep_sim.amplitude_linear <= 2.5
    ok = in_band and amp_ok
    _criterion(
        4,
        "analytic and simulated clock peaks sit in [0.8,1.3] f0 at 1.5-2.5x the lobe",
        ok,
        f"analytic {rep_gen.amplitude_linear:.3f}x @ {rep_gen.center_freq_norm:.4f}, "
        f"simulated {rep_sim.amplitude_linear:.3f}x @ {rep_sim.center_freq_norm:.4f}; "
        f"alternative shortening law gives {rep_paper.amplitude_linear:.3f}x (recorded)",
    )


def test_criterion_5_sweep_trends_are_monotone_and_center_drift_is_linear():
    start = time.perf_counter()
    base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
    items = sweep_delta(base, tuple(range(1, 11)))
    heights = np.array([r.peak_height for _, r in items])
    ratios = np.array([r.amplitude_linear for _, r in items])
    widths = np.array([r.fwhm_norm for _, r in items])
    centers = [r.center_freq_norm for _, r in items]
    fit = linear_fit(list(range(1, 11)), centers)
    elapsed = time.perf_counter() - start
    h_diff, w_diff = np.diff(heights), np.diff(widths)
    heights_ok = np.all(h_diff <= 0.0) and np.count_nonzero(h_diff == 0.0) <= 1
    widths_ok = np.all(w_diff >= 0.0) and np.count_nonzero(w_diff == 0.0) <= 1
    ok = bool(heights_ok and widths_ok) and fit.r_squared >= 0.98 and elapsed < 120.0
    _criterion(
        5,
        "peak height falls, width grows, center drifts linearly over delta 1..10",
        ok,
        f"height {heights[0]:.1f}->{heights[-1]:.1f}, fwhm {widths[0]:.1e}->{widths[-1]:.1e}, "
        f"R^2 {fit.r_squared:.5f}, lobe-ratio {ratios[0]:.2f}->{ratios[-1]:.2f} (recorded), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_characteristic_function_invariants():
    rng = np.random.default_rng(20260814)
    worst_zero = 0.0
    worst_series = 0.0
    for _ in range(100):
        t0 = int(rng.integers(8, 129))
        delta = int(rng.integers(0, t0))
        p = float(rng.uniform(0.05, 0.95))
        w = float(rng.uniform(1e-3, 40.0) * 2.0 * np.pi / t0)
        params = _transition(t0, delta, p)
        worst_zero = max(
            worst_zero,
            abs(theta1(0.0, params) - 1.0),
            abs(theta2(0.0, params) - 1.0),
            abs(theta_blank(0.0, t0, delta, law=BlankLaw.PAPER_K_DELTA) - 1.0),
            abs(theta_blank(0.0, t0, delta, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA) - 1.0),
        )
        q, m = 1.0 - p, max(p, 1.0 - p)
        n = int(np.ceil(np.log(1e-16) / np.log(m))) + 1
        k = np.arange(1, n + 1)
        s1 = np.sum(q * p ** (k - 1) * np.exp(1j * w * (k * t0 + delta)))
        s2 = np.sum(p * q ** (k - 1) * np.exp(1j * w * (k * t0 - delta)))
        kb = np.arange(1, 55)
        sb_paper = np.sum(
            0.5**kb * np.exp(1j * w * (kb * t0 - np.where(kb == 1, 0.0, kb * delta)))
        )
        sb_gen = np.sum(0.5**kb * np.exp(1j * w * (kb * t0 - (kb - 1) * delta)))
        worst_series = max(
            worst_series,
            abs(theta1(w, params) - s1),
            abs(theta2(w, params) - s2),
            abs(theta_blank(w, t0, delta, law=BlankLaw.PAPER_K_DELTA) - sb_paper),
            abs(theta_blank(w, t0, delta, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA) - sb_gen),
        )
    worst_prod = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        delta = int(rng.integers(0, 64))
        params = _transition(64, delta, p)
        wk = 2.0 * np.pi * np.arange(1, 41) / 64.0
        prod = np.abs(theta1(wk, params) * theta2(wk, params))
        worst_prod = max(worst_prod, float(np.max(np.abs(prod - 1.0))))
    detector_quiet = all(
        flag is False
        for _, flag in discrete_component_detector(_transition(64, 0, 0.55), k_max=40)
    )
    ok = worst_zero <= 1e-12 and worst_series <= 1e-12 and worst_prod <= 1e-9 and detector_quiet
    _criterion(
        6,
        "characteristic functions: unit at zero, series-exact, unimodular products",
        ok,
        f"|theta(0)-1| <= {worst_zero:.1e}, series gap <= {worst_series:.1e}, "
        f"harmonic |product - 1| <= {worst_prod:.1e}, zero-delta detector quiet",
    )


def test_criterion_7_measured_interval_means_match_closed_forms():
    worst = 0.0
    for p, delta, t0, seed in ((0.5, 0, 64, 101), (0.55, 3, 64, 102), (0.75, 3, 64, 103)):
        params = _transition(t0, delta, p)
        signal = synth_transition_stretch(gen_bits(1_000_000, p, seed), params)
        measured = measure_intervals(signal)
        expected = interval_stats(params)
        worst = max(
            worst,
            abs(measured.mean_tau / expected.mean_tau - 1.0),
            abs(measured.mean_l / expected.mean_l - 1.0),
            abs(measured.mean_g / expected.mean_g - 1.0),
        )
        del signal
    ok = worst <= 0.01
    _criterion(
        7,
        "million-symbol interval means land within 1% of the closed forms",
        ok,
        f"worst rel err {worst:.2e} across three parameter sets",
    )


def test_criterion_8_parseval_identity_and_reproducible_output(tmp_path, monkeypatch):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(16, 4097))
        x = rng.normal(size=n)
        nfft = 1 << int(np.ceil(np.log2(n)))
        if rng.random() < 0.5:
            nfft *= 2
        total = periodogram_bins(x, nfft).sum() * (n / nfft)
        worst = max(worst, abs(total / np.var(x) - 1.0))
    base = [
        "simulate", "--model", "transition", "--t0", "16", "--delta", "2",
        "--p", "0.55", "--fft", "2048", "--realizations", "70", "--seed", "13",
    ]
    outs = [tmp_path / name for name in ("w1", "w3", "env2")]
    codes = [
        main(base + ["--workers", "1", "--out-dir", str(outs[0])]),
        main(base + ["--workers", "3", "--out-dir", str(outs[1])]),
    ]
    monkeypatch.setenv("PULSEPSD_THREADS", "2")
    codes.append(main(base + ["--out-dir", str(outs[2])]))
    ref = (outs[0] / "simulated_spectrum.csv").read_bytes()
    identical = all(
        (o / "simulated_spectrum.csv").read_bytes() == ref for o in outs[1:]
    )
    ok = worst <= 1e-10 and codes == [0, 0, 0] and identical
    _criterion(
        8,
        "Parseval holds to 1e-10 and reruns are byte-identical at any worker count",
        ok,
        f"worst Parseval rel err {worst:.2e} over 50 signals; 3 runs identical",
    )
