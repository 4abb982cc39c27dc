"""How the clock peak moves as the blank-shortening delta grows.

More shortening pushes the mean rate (and so the peak center) up
linearly, spreads the resonance, and trims its raw height. The trade is
the whole design space of this predistortion: a narrow tall peak at
small delta versus a broad smeared one at large delta.
"""

from pathlib import Path

from pulsepsd import TrainParams, Variant, linear_fit, sweep_delta, write_svg

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

base = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=1)
items = sweep_delta(base, tuple(range(1, 11)))

print("delta   center f/f0   peak height   fwhm")
for delta, rep in items:
    print(
        f"{delta:5.0f}   {rep.center_freq_norm:.6f}     {rep.peak_height:9.4f}   "
        f"{rep.fwhm_norm:.5f}"
    )

deltas = [d for d, _ in items]
centers = [rep.center_freq_norm for _, rep in items]
fit = linear_fit(deltas, centers)
print()
print(
    f"center drift: {fit.slope:.5f} per sample of delta "
    f"(intercept {fit.intercept:.5f}, R^2 = {fit.r_squared:.5f})"
)

write_svg(
    OUT / "delta_sweep_centers.svg",
    deltas,
    centers,
    title="clock-peak center vs delta, t0=100",
    x_label="delta (samples)",
    y_label="center f / f0",
)
print(f"wrote {OUT / 'delta_sweep_centers.svg'}")
