"""Random binary pulse-train models with non-uniform symbol durations.

Two unit-amplitude NRZ variants sampled at 1 sample per unit time, each
a sequence of high and low runs:

* transition-stretch: every symbol is a high run then a low run, ``t0``
  samples in all; the high run is ``t0`` for a "one", ``delta`` for a
  "zero" right after a "one", and 0 otherwise.
* blank-shorten: a "one" is a high run of ``t0``, a "zero" a low run of
  ``t0 - delta``, or ``t0 - 2 delta`` right after a "one" under the paper law.

Synthesis writes uint8 0/1 levels, one byte per sample: a transition
symbol is one of three fixed ``t0``-sample rows (a "zero", a "one", a
"zero" after a "one"), looked up by symbol code; blank-shorten repeats
levels over its runs. :func:`measure_intervals` counts high samples and
edges one fixed block at a time and reads edge positions from at most
three blocks; all randomness flows through :func:`gen_bits`.
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

# samples per block of the measure_intervals edge scan; bounds its temporaries
_CHUNK_SAMPLES = 1 << 18
# symbols per block of transition synthesis; bounds its intp index copy
_CHUNK_SYMBOLS = 1 << 16


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


def _transition_rows(params: TrainParams) -> np.ndarray:
    """The three transition-stretch symbols as a (3, t0) uint8 table, indexed by symbol code.

    Row 0 is a "zero", row 1 a "one", row 2 a "zero" right after a "one":
    ``delta`` high samples, then low.
    """
    rows = np.zeros((3, params.t0), dtype=np.uint8)
    rows[1] = 1
    rows[2, : whole_sample_delta(params)] = 1
    return rows


def _transition_codes(bits: np.ndarray) -> np.ndarray:
    """Symbol codes of a bit stream: the bit, or 2 for a "zero" right after a "one"."""
    b = np.asarray(bits, dtype=bool)
    codes = b.astype(np.uint8)
    codes[1:][b[:-1] & ~b[1:]] = 2
    return codes


def synth_transition_stretch(bits: np.ndarray, params: TrainParams) -> np.ndarray:
    """Expand a bit stream into transition-stretch samples, one symbol row per bit.

    Samples are uint8 levels in {0, 1}. The stream is taken to follow a
    "zero", so a leading "zero" is never stretched and output length is
    exactly ``len(bits) * t0``.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    rows, codes = _transition_rows(params), _transition_codes(bits)
    out = np.empty((len(codes), params.t0), dtype=np.uint8)
    # take casts its indices to intp, so a block at a time; "clip" writes out unbuffered
    for start in range(0, len(codes), _CHUNK_SYMBOLS):
        block = slice(start, start + _CHUNK_SYMBOLS)
        rows.take(codes[block], axis=0, out=out[block], mode="clip")
    return out.reshape(-1)


def synth_blank_shorten(bits: np.ndarray, params: TrainParams) -> np.ndarray:
    """Expand a bit stream into blank-shorten samples, uint8 levels in {0, 1}.

    A "zero" right after a "one" lasts front_head - delta, not t0 - delta;
    a leading "zero" is taken to follow a "zero".
    """
    require_variant(params, Variant.BLANK_SHORTEN)
    b = np.asarray(bits, dtype=bool)
    t0 = params.t0
    runs = np.where(b, t0, t0 - whole_sample_delta(params))
    runs[1:] -= int(t0 - front_head(params)) * (b[:-1] & ~b[1:])
    return np.repeat(b.view(np.uint8), runs)


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


def _last_edge(s: np.ndarray, start: int, cut: float, rise: bool) -> int:
    """Position of the last rise (or fall) in the block at ``start``, known to hold one."""
    x = s[start : start + _CHUNK_SAMPLES] > cut
    edges = x[1:] > x[:-1] if rise else x[1:] < x[:-1]
    if not edges.any():  # the edge is the block's first sample, against the level before it
        return start
    return start + len(edges) - int(np.argmax(edges[::-1]))


def measure_intervals(signal: np.ndarray) -> IntervalStats:
    """Empirical interval means from one realization.

    Samples above 0.5 are high; bool and integer samples are thresholded
    as > 0, which selects the same ones without a float cast. Uses
    complete duration/gap pairs only (front i to front i+1); the line is
    taken as low around the signal, so edges alternate rise, fall. Raises
    :class:`InsufficientDataError` when fewer than 2 pulse fronts exist.

    With rises r_0 < ... < r_m and falls f_0 < ... < f_m the pairs are
    (f_i - r_i, r_(i+1) - f_i) for i < m, so their sums telescope: the
    durations add up to the high samples less the last pulse, f_m - r_m,
    and duration plus gap to r_m - r_0. The scan counts high samples and
    rises in one block of _CHUNK_SAMPLES at a time, a block's falls being
    its rises plus the level before it less its last level, and reads edge
    positions from at most three blocks: r_0 from the first block with a
    rise, r_m and f_m from the last ones, scanned again after the pass. Its
    temporaries stay a few MB for any signal length. Every sum is a whole
    number, so the means are the correctly rounded quotients a scan over
    all the runs would give.
    """
    s = np.asarray(signal)
    if s.ndim != 1:
        raise ValueError(f"signal must be a 1-D array, got shape {s.shape}")
    cut = 0 if s.dtype.kind in "biu" else 0.5
    high = fronts = 0
    first_rise = rise_block = fall_block = 0
    level = False  # the line is low before the signal
    for start in range(0, len(s), _CHUNK_SAMPLES):
        x = s[start : start + _CHUNK_SAMPLES] > cut
        head = bool(x[0]) and not level
        inner = x[1:] > x[:-1]
        rises = int(np.count_nonzero(inner)) + head
        high += int(np.count_nonzero(x))
        if rises:
            if not fronts:
                first_rise = start if head else start + 1 + int(np.argmax(inner))
            fronts += rises
            rise_block = start
        tail = bool(x[-1])
        if rises + level - tail:  # the block's falls
            fall_block = start
        level = tail
    if fronts < 2:
        raise InsufficientDataError(
            f"need at least 2 pulse fronts to measure intervals, found {fronts}"
        )
    last_rise = _last_edge(s, rise_block, cut, rise=True)
    # a signal that ends high falls at its end, where the line goes low
    last_fall = len(s) if level else _last_edge(s, fall_block, cut, rise=False)
    pairs = fronts - 1
    tau = high - (last_fall - last_rise)
    g = last_rise - first_rise
    return IntervalStats(mean_tau=tau / pairs, mean_l=(g - tau) / pairs, mean_g=g / pairs)
