"""The blank-shorten model grows a clock-recovery peak just above f0.

Shortening every blank by delta makes the mean symbol rate slightly
higher than 1/t0 and piles spectral weight into a resonance near the
clock frequency. Both front-interval laws predict the peak, and both are
synthesized: each law's closed form sits on its own Monte Carlo estimate
and misses the other's, so the two laws describe different processes.
"""

from dataclasses import replace
from pathlib import Path

from pulsepsd import (
    BlankLaw,
    SimConfig,
    TrainParams,
    Variant,
    estimate_psd,
    find_clock_peak,
    normalize_second_lobe,
    psd_blank_shorten,
    write_svg,
)
from pulsepsd.analytic import analytic_on_fft_grid
from pulsepsd.peaks import default_sweep_grid
from pulsepsd.sim import compare_on_common_bins

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

T0, DELTA = 100, 10
grid = default_sweep_grid(float(T0))
params = TrainParams(Variant.BLANK_SHORTEN, T0, DELTA, blank_law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA)

print(f"t0={T0}, delta={DELTA}: clock peak vs the second envelope lobe")
for law in (BlankLaw.GENERATOR_K_MINUS_ONE_DELTA, BlankLaw.PAPER_K_DELTA):
    spec = psd_blank_shorten(grid, replace(params, blank_law=law))
    rep = find_clock_peak(spec, float(T0))
    print(
        f"  analytic, {law.value:9s} law: {rep.amplitude_linear:.3f}x "
        f"at f/f0 = {rep.center_freq_norm:.4f}, fwhm {rep.fwhm_norm:.4f}"
    )

cfg = SimConfig(n_symbols=2000, n_realizations=200, fft_size=262144, seed=7, params=params)
sim = estimate_psd(cfg)
rep = find_clock_peak(sim, float(T0))
print(
    f"  simulated, generator law ({cfg.n_realizations} runs): {rep.amplitude_linear:.3f}x "
    f"at f/f0 = {rep.center_freq_norm:.4f}, fwhm {rep.fwhm_norm:.4f}"
)

# each law's closed form against each law's simulation, on a smaller train
small = TrainParams(Variant.BLANK_SHORTEN, 32, 3)
print("mean |closed form - simulated| over 0.2 < f/f0 < 5, t0=32, delta=3:")
for sim_law in BlankLaw:
    simulated = estimate_psd(SimConfig(256, 200, 8192, 9, replace(small, blank_law=sim_law)))
    cells = []
    for law in BlankLaw:
        closed = analytic_on_fft_grid(replace(small, blank_law=law), 8192)
        _, stats = compare_on_common_bins(closed, simulated, 32.0, (0.2, 5.0))
        tag = "own" if law is sim_law else "cross"
        cells.append(f"{law.value} form {stats['mean_abs_diff_db']:.2f} dB ({tag})")
    print(f"  {sim_law.value:9s} simulation: " + ", ".join(cells))

normed = normalize_second_lobe(psd_blank_shorten(grid, params), float(T0))
write_svg(
    OUT / "blank_clock_peak.svg",
    normed.freqs * T0,
    normed.psd,
    title=f"blank-shorten PSD, t0={T0} delta={DELTA} (second lobe = 1)",
    x_label="f / f0",
    y_label="normalized power",
)
print(f"wrote {OUT / 'blank_clock_peak.svg'}")
