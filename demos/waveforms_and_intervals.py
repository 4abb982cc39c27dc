"""Synthesize both pulse-train variants and check interval statistics.

The transition-stretch model keeps the symbol grid but holds the line
high for `delta` extra samples on every one-to-zero transition. The
blank-shorten model instead removes `delta` samples from every blank.
Either way the mean front-to-front spacing, pulse duration, and gap obey
closed forms that a long measured realization should reproduce.
"""

from pathlib import Path

import numpy as np

from pulsepsd import (
    TrainParams,
    Variant,
    gen_bits,
    interval_stats,
    measure_intervals,
    synth_blank_shorten,
    synth_transition_stretch,
    write_signal_txt,
)

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

bits = gen_bits(12, 0.5, seed=2)
print(f"bits: {''.join(str(b) for b in bits)}")

stretch = TrainParams(Variant.TRANSITION_STRETCH, t0=8, delta=3, prob_one=0.5)
shorten = TrainParams(Variant.BLANK_SHORTEN, t0=8, delta=3)
sig_a = synth_transition_stretch(bits, stretch)
sig_b = synth_blank_shorten(bits, shorten)

print(f"transition-stretch: {len(sig_a)} samples (always 12 * t0)")
print(f"blank-shorten:      {len(sig_b)} samples (zeros shortened by delta)")
write_signal_txt(OUT / "transition_stretch.txt", sig_a)
write_signal_txt(OUT / "blank_shorten.txt", sig_b)

# closed forms vs a million-symbol measurement
params = TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=3, prob_one=0.55)
expected = interval_stats(params)
signal = synth_transition_stretch(gen_bits(1_000_000, 0.55, seed=102), params)
measured = measure_intervals(signal)

print()
print(f"{'':>12} {'closed form':>12} {'measured':>12}")
for name in ("mean_tau", "mean_l", "mean_g"):
    e, m = getattr(expected, name), getattr(measured, name)
    print(f"{name:>12} {e:12.4f} {m:12.4f}   ({abs(m / e - 1) * 100:.3f}% off)")
