"""Random binary pulse-train models with non-uniform symbol durations.

Two unit-amplitude NRZ variants sampled at 1 sample per unit time:

* transition-stretch: every symbol occupies ``t0`` samples; a "one" is
  ``t0`` ones, and a "zero" that immediately follows a "one" keeps the
  line high for ``delta`` extra samples before dropping. Symbol
  boundaries stay on the ``t0`` grid.
* blank-shorten: a "one" occupies ``t0`` samples, every "zero" occupies
  ``t0 - delta`` samples, so the symbol grid itself is irregular.

Both variants turn a deterministic seeded bit stream into a 0/1 sample
array. All randomness flows through :func:`gen_bits`; synthesis is pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Variant",
    "BlankLaw",
    "TrainParams",
    "IntervalStats",
    "InsufficientDataError",
    "gen_bits",
    "synth_transition_stretch",
    "synth_blank_shorten",
    "interval_stats",
    "measure_intervals",
]

class Variant(enum.Enum):
    TRANSITION_STRETCH = "transition"
    BLANK_SHORTEN = "blank"


class BlankLaw(enum.Enum):
    """Front-interval shortening law for the blank-shorten closed forms.

    An interval between consecutive pulse fronts spans one "one" plus
    j >= 0 "zeros", so it covers k = j + 1 symbol slots with probability
    p q^j for any P(one) = p. PAPER_K_DELTA treats the interval covering
    k slots as shortened by k*delta (single-slot interval unshortened);
    GENERATOR_K_MINUS_ONE_DELTA shortens it by (k-1)*delta, which is what
    the synthesized waveform actually produces: a one followed by j zeros
    puts the next front at (j+1)*t0 - j*delta. Only the generator law has
    a synthesizer.
    """

    PAPER_K_DELTA = "paper"
    GENERATOR_K_MINUS_ONE_DELTA = "generator"


class InsufficientDataError(ValueError):
    """Raised when a signal holds too few pulse fronts to measure."""


@dataclass(frozen=True)
class TrainParams:
    """Model parameters shared by every module.

    ``t0`` and ``delta`` are integer sample counts so synthesis is
    bit-exact; analytic formulas receive them as reals. ``prob_one`` is
    the i.i.d. probability of a "one" symbol; the complementary
    probability is always derived, never stored. Every closed form and
    the simulator honour any ``prob_one`` in (0, 1) for both variants;
    ``blank_law`` matters only to the blank-shorten closed forms.
    """

    variant: Variant
    t0: int
    delta: int = 0
    prob_one: float = 0.5
    blank_law: BlankLaw = BlankLaw.PAPER_K_DELTA

    def __post_init__(self) -> None:
        if not isinstance(self.t0, (int, np.integer)) or self.t0 <= 0:
            raise ValueError(f"t0 must be a positive integer, got {self.t0!r}")
        if not isinstance(self.delta, (int, np.integer)) or not 0 <= self.delta < self.t0:
            raise ValueError(
                f"delta must be an integer with 0 <= delta < t0, got delta={self.delta!r}, t0={self.t0}"
            )
        if not 0.0 < self.prob_one < 1.0:
            raise ValueError(f"prob_one must lie in (0, 1), got {self.prob_one!r}")

    @property
    def prob_zero(self) -> float:
        return 1.0 - self.prob_one


@dataclass(frozen=True)
class IntervalStats:
    """Mean pulse duration, gap, and front-to-front distance, in samples.

    ``mean_g == mean_tau + mean_l`` exactly, both for the closed forms and
    for empirical measurement over complete duration/gap pairs.
    """

    mean_tau: float
    mean_l: float
    mean_g: float


def gen_bits(n_symbols: int, prob_one: float, seed) -> np.ndarray:
    """Draw ``n_symbols`` i.i.d. bits with P(1) = ``prob_one`` as uint8 values in {0, 1}.

    ``seed`` may be an int, a tuple of ints, or a ``SeedSequence``; it is
    fed to ``numpy.random.SeedSequence`` so the stream is reproducible
    across processes and any degree of parallelism. The scheme is stable:
    the same seed always yields the same bits under numpy's generator
    compatibility policy.
    """
    if not 0.0 < prob_one < 1.0:
        raise ValueError(f"prob_one must lie in (0, 1), got {prob_one!r}")
    if n_symbols <= 0:
        raise ValueError(f"n_symbols must be positive, got {n_symbols}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    return (rng.random(n_symbols) < prob_one).astype(np.uint8)


def synth_transition_stretch(bits: np.ndarray, params: TrainParams) -> np.ndarray:
    """Expand a bit stream into transition-stretch samples.

    A "one" contributes ``t0`` ones. A "zero" right after a "one"
    contributes ``delta`` ones then ``t0 - delta`` zeros; any other
    "zero" contributes ``t0`` zeros. The symbol preceding the stream is
    defined to be 0, so output length is exactly ``len(bits) * t0``.
    """
    if params.variant is not Variant.TRANSITION_STRETCH:
        raise ValueError(f"params.variant must be TRANSITION_STRETCH, got {params.variant}")
    b = np.asarray(bits, dtype=bool)
    t0, delta = params.t0, params.delta
    out = np.zeros((len(b), t0), dtype=np.float64)
    out[b, :] = 1.0
    prev = np.empty(len(b), dtype=bool)
    prev[0] = False
    prev[1:] = b[:-1]
    out[prev & ~b, :delta] = 1.0
    return out.reshape(-1)


def synth_blank_shorten(bits: np.ndarray, params: TrainParams) -> np.ndarray:
    """Expand a bit stream into blank-shorten samples.

    Output length is (#ones)*t0 + (#zeros)*(t0 - delta) exactly.
    """
    if params.variant is not Variant.BLANK_SHORTEN:
        raise ValueError(f"params.variant must be BLANK_SHORTEN, got {params.variant}")
    b = np.asarray(bits, dtype=bool)
    return np.repeat(b.astype(np.float64), np.where(b, params.t0, params.t0 - params.delta))


def interval_stats(params: TrainParams) -> IntervalStats:
    """Closed-form mean pulse duration, gap, and front spacing (transition-stretch).

    mean_tau = t0/(1-p) + delta, mean_l = t0/p - delta, and their sum
    t0*(2 + p/q + q/p) = t0/(p(1-p)) is independent of delta.
    """
    if params.variant is not Variant.TRANSITION_STRETCH:
        raise ValueError("interval_stats applies to the transition-stretch variant only")
    p = params.prob_one
    q = params.prob_zero
    t0 = float(params.t0)
    mean_tau = t0 / q + params.delta
    mean_l = t0 / p - params.delta
    return IntervalStats(mean_tau=mean_tau, mean_l=mean_l, mean_g=mean_tau + mean_l)


def measure_intervals(signal: np.ndarray) -> IntervalStats:
    """Empirical interval means from one realization.

    Uses complete duration/gap pairs only (front i to front i+1), so the
    identity mean_g = mean_tau + mean_l holds exactly. Raises
    :class:`InsufficientDataError` when fewer than 2 pulse fronts exist.
    """
    x = np.asarray(signal) > 0.5
    padded = np.concatenate(([False], x, [False]))
    rises = np.flatnonzero(padded[1:] & ~padded[:-1])
    falls = np.flatnonzero(~padded[1:] & padded[:-1])
    if len(rises) < 2:
        raise InsufficientDataError(
            f"need at least 2 pulse fronts to measure intervals, found {len(rises)}"
        )
    tau = (falls - rises)[:-1].astype(np.float64)
    g = np.diff(rises).astype(np.float64)
    ell = g - tau
    return IntervalStats(
        mean_tau=float(tau.mean()), mean_l=float(ell.mean()), mean_g=float(g.mean())
    )
