"""The blank-shorten model grows a clock-recovery peak just above f0.

Shortening every blank by delta makes the mean symbol rate slightly
higher than 1/t0 and piles spectral weight into a resonance near the
clock frequency. Both closed-form shortening laws predict the peak; the
generator law matches what the synthesized waveform actually does, which
the Monte Carlo estimate confirms.
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
from pulsepsd.peaks import default_sweep_grid

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

T0, DELTA = 100, 10
grid = default_sweep_grid(float(T0))
# the generator law is the one the synthesizer follows
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
    f"  simulated ({cfg.n_realizations} runs):    {rep.amplitude_linear:.3f}x "
    f"at f/f0 = {rep.center_freq_norm:.4f}, fwhm {rep.fwhm_norm:.4f}"
)

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
