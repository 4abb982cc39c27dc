"""Random binary pulse-train models with non-uniform symbol durations.

Two unit-amplitude NRZ variants sampled at 1 sample per unit time, each
a sequence of high and low runs:

* transition-stretch: every symbol is a high run then a low run, ``t0``
  samples in all; the high run is ``t0`` for a "one", ``delta`` for a
  "zero" right after a "one", and 0 otherwise.
* blank-shorten: a "one" is a high run of ``t0``, a "zero" a low run of
  ``t0 - delta``, or ``t0 - 2 delta`` right after a "one" under the paper law.

Synthesis repeats 0/1 levels over these runs, :func:`measure_intervals` reads
them back from the edges, and all randomness flows through :func:`gen_bits`.
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
    """Front-interval law of the blank-shorten train.

    An interval between consecutive pulse fronts spans one "one" plus
    j >= 0 "zeros", so it covers k = j + 1 symbol slots with probability
    p q^j for any P(one) = p. One slot lasts t0; over k >= 2 slots all but
    the first last t0 - delta, and the first, the :func:`front_head`, lasts
    t0 - delta (PAPER_K_DELTA) or t0 (GENERATOR_K_MINUS_ONE_DELTA). Both
    are synthesized, the paper law for delta <= t0/2.
    """

    PAPER_K_DELTA = "paper"
    GENERATOR_K_MINUS_ONE_DELTA = "generator"


class InsufficientDataError(ValueError):
    """Raised when a signal holds too few pulse fronts to measure."""


@dataclass(frozen=True)
class TrainParams:
    """Model parameters shared by every module, validated once here.

    ``t0`` is a positive integer sample count. ``delta`` is any real in
    [0, t0): the closed forms are continuous-time and take it as is,
    while synthesis works in whole samples and refuses a fractional
    ``delta`` through :func:`whole_sample_delta`. ``prob_one`` is the
    i.i.d. probability of a "one" symbol; the complementary probability
    is always derived, never stored. Every closed form and the simulator
    honour any ``prob_one`` in (0, 1) for both variants; ``blank_law``
    matters only to the blank-shorten variant, through :func:`front_head`.
    """

    variant: Variant
    t0: int
    delta: float = 0
    prob_one: float = 0.5
    blank_law: BlankLaw = BlankLaw.PAPER_K_DELTA

    def __post_init__(self) -> None:
        if not isinstance(self.t0, (int, np.integer)) or self.t0 <= 0:
            raise ValueError(f"t0 must be a positive integer, got {self.t0!r}")
        if not 0 <= self.delta < self.t0:
            raise ValueError(
                f"delta must satisfy 0 <= delta < t0, got delta={self.delta!r}, t0={self.t0}"
            )
        if not 0.0 < self.prob_one < 1.0:
            raise ValueError(f"prob_one must lie in (0, 1), got {self.prob_one!r}")
        if not isinstance(self.blank_law, BlankLaw):
            raise ValueError(f"blank_law must be a BlankLaw, got {self.blank_law!r}")

    @property
    def prob_zero(self) -> float:
        return 1.0 - self.prob_one


def require_variant(params: TrainParams, variant: Variant) -> None:
    """Refuse parameters of the other model variant."""
    if params.variant is not variant:
        raise ValueError(f"params.variant must be {variant.name}, got {params.variant}")


def front_head(params: TrainParams) -> float:
    """First slot of a blank front interval over k >= 2 slots; the only reading of the law."""
    return params.t0 - params.delta if params.blank_law is BlankLaw.PAPER_K_DELTA else params.t0


def whole_sample_delta(params: TrainParams) -> int:
    """``params.delta`` as a sample count; synthesis needs it whole and no blank run < 0."""
    if not float(params.delta).is_integer():
        raise ValueError(f"synthesis needs a whole-sample delta, got delta={params.delta!r}")
    if params.variant is Variant.BLANK_SHORTEN and front_head(params) < params.delta:
        raise ValueError(f"paper-law synthesis needs delta <= t0/2, got delta={params.delta!r}")
    return int(params.delta)


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
    """Expand a bit stream into transition-stretch samples, run by run.

    The stream is taken to follow a "zero", so a leading "zero" is never
    stretched and output length is exactly ``len(bits) * t0``.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    b = np.asarray(bits, dtype=bool)
    t0, delta = params.t0, whole_sample_delta(params)
    runs = np.empty((len(b), 2), dtype=np.intp)  # per symbol: high run, low run
    runs[:, 0] = t0 * b
    runs[1:, 0] += delta * (b[:-1] & ~b[1:])
    runs[:, 1] = t0 - runs[:, 0]
    levels = np.zeros(runs.shape)
    levels[:, 0] = 1.0
    return np.repeat(levels.reshape(-1), runs.reshape(-1))


def synth_blank_shorten(bits: np.ndarray, params: TrainParams) -> np.ndarray:
    """Expand a bit stream into blank-shorten samples.

    A "zero" right after a "one" lasts front_head - delta, not t0 - delta;
    a leading "zero" is taken to follow a "zero".
    """
    require_variant(params, Variant.BLANK_SHORTEN)
    b = np.asarray(bits, dtype=bool)
    t0 = params.t0
    runs = np.where(b, t0, t0 - whole_sample_delta(params))
    runs[1:] -= int(t0 - front_head(params)) * (b[:-1] & ~b[1:])
    return np.repeat(b.astype(np.float64), runs)


def interval_stats(params: TrainParams) -> IntervalStats:
    """Closed-form mean pulse duration, gap, and front spacing (transition-stretch).

    mean_tau = t0/(1-p) + delta, mean_l = t0/p - delta, and their sum
    t0*(2 + p/q + q/p) = t0/(p(1-p)) is independent of delta.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    p = params.prob_one
    q = params.prob_zero
    t0 = float(params.t0)
    mean_tau = t0 / q + params.delta
    mean_l = t0 / p - params.delta
    return IntervalStats(mean_tau=mean_tau, mean_l=mean_l, mean_g=mean_tau + mean_l)


def measure_intervals(signal: np.ndarray) -> IntervalStats:
    """Empirical interval means from one realization.

    Uses complete duration/gap pairs only (front i to front i+1); the line
    is taken as low around the signal, so edges alternate rise, fall. Raises
    :class:`InsufficientDataError` when fewer than 2 pulse fronts exist.
    """
    x = np.asarray(signal) > 0.5
    if x.ndim != 1:
        raise ValueError(f"signal must be a 1-D array, got shape {x.shape}")
    inner = np.flatnonzero(x[1:] != x[:-1]) + 1
    edges = np.concatenate((np.flatnonzero(x[:1]), inner, np.flatnonzero(x[-1:]) + len(x)))
    if len(edges) < 4:
        raise InsufficientDataError(
            f"need at least 2 pulse fronts to measure intervals, found {len(edges) // 2}"
        )
    runs = np.diff(edges).astype(np.float64)  # high, low, high, ..., high
    tau, ell = runs[:-1:2], runs[1::2]
    return IntervalStats(
        mean_tau=float(tau.mean()), mean_l=float(ell.mean()), mean_g=float((tau + ell).mean())
    )
