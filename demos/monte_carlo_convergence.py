"""Averaged periodograms converge to the analytic curve, fft size permitting.

A short FFT keeps the continuum coarse and the disagreement with the
analytic prediction large; a longer FFT with the same symbol budget per
realization brings the two within a fraction of a dB. The comparison
skips bins right at the continuum nulls, where both curves plunge.
"""

from pulsepsd import SimConfig, TrainParams, Variant, estimate_psd
from pulsepsd.cli import analytic_on_fft_grid, compare_on_common_bins


def disagreement(t0: int, delta: int, fft_size: int, n_real: int, seed: int) -> float:
    params = TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=0.55)
    cfg = SimConfig(
        n_symbols=fft_size // t0,
        n_realizations=n_real,
        fft_size=fft_size,
        seed=seed,
        params=params,
    )
    simulated = estimate_psd(cfg)
    analytic = analytic_on_fft_grid(params, fft_size)
    _, stats = compare_on_common_bins(analytic, simulated, float(t0), (0.1, 10.0))
    return stats["max_abs_diff_db"]


print("max |analytic - simulated| over f/f0 in (0.1, 10), away from nulls:")
for n_real in (100, 400, 1000):
    coarse = disagreement(64, 3, 8192, n_real, seed=107)
    fine = disagreement(128, 6, 16384, n_real, seed=11)
    print(f"  {n_real:5d} realizations: coarse fft {coarse:5.2f} dB   fine fft {fine:5.2f} dB")

print()
print("the same scaled configuration at a finer fft always lands closer,")
print("and more realizations shave the residual Monte Carlo ripple.")
