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
three blocks. All randomness is numpy's SeedSequence and PCG64:
:func:`gen_bits` draws one seed's bits, :func:`_bit_rows` the same bits
for many ``(seed, index)`` seeds from one vectorized seed pass. The closed
forms see the trains only through the run laws of :func:`run_laws`.
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
# doubles drawn before they are thresholded into bits; bounds the float scratch
_CHUNK_DRAWS = 1 << 16
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# least min(p, 1 - p) of a train, sqrt of the least normal float 2^-1022:
# below it P^2 underflows in the run pair
_PROB_FLOOR = 2.0**-511


class Variant(enum.Enum):
    TRANSITION_STRETCH = "transition"
    BLANK_SHORTEN = "blank"


class BlankLaw(enum.Enum):
    """Front-interval law of the blank-shorten train.

    An interval between consecutive pulse fronts spans one "one" plus
    j >= 0 "zeros", so it covers k = j + 1 symbol slots with probability
    p q^j for any P(one) = p. One slot lasts t0; over k >= 2 slots all but
    the first last t0 - delta, and the first, the :func:`front_head`, lasts
    t0 - delta (PAPER_K_DELTA) or t0 (GENERATOR_K_MINUS_ONE_DELTA), so
    under the paper law a blank after a pulse lasts t0 - 2 delta >= 0.
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
    ``delta`` through :func:`whole_sample_delta`. A paper-law blank train
    needs delta <= t0/2, or a blank would last less than 0. ``prob_one`` is the
    i.i.d. probability of a "one" symbol; the complementary probability
    is always derived, never stored. Every closed form and the simulator
    honour any ``prob_one`` with min(p, 1 - p) >= about 1.49e-154 for
    both variants: a run law's P^2 stays normal there, so the run pair
    is finite at every finite omega. ``blank_law`` matters only to the
    blank-shorten variant, through :func:`front_head`.
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
        if not min(self.prob_one, 1.0 - self.prob_one) >= _PROB_FLOOR:  # nan fails too
            raise ValueError(
                f"prob_one must lie in (0, 1), at least {_PROB_FLOOR:.3g} from either end, "
                f"got {self.prob_one!r}"
            )
        if not isinstance(self.blank_law, BlankLaw):
            raise ValueError(f"blank_law must be a BlankLaw, got {self.blank_law!r}")
        if self.variant is Variant.BLANK_SHORTEN and front_head(self) < self.delta:
            raise ValueError(f"the paper law needs delta <= t0/2, got delta={self.delta!r}")

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
    """``params.delta`` as a sample count; synthesis needs it whole."""
    if not float(params.delta).is_integer():
        raise ValueError(f"synthesis needs a whole-sample delta, got delta={params.delta!r}")
    return int(params.delta)


def run_laws(params: TrainParams) -> tuple[tuple[float, float, float], ...]:
    """The laws (P, a, r) of the high run tau and the low run l (table in :mod:`pulsepsd.charfn`)."""
    p, q, t0, delta = params.prob_one, params.prob_zero, params.t0, params.delta
    if params.variant is Variant.TRANSITION_STRETCH:
        return (q, t0 + delta, t0), (p, t0 - delta, t0)
    return (q, t0, t0), (p, front_head(params) - delta, t0 - delta)


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
    gen = np.random.default_rng(ss)
    out = np.empty(n_symbols, dtype=np.uint8)
    # _CHUNK_DRAWS doubles at a time: the stream is the one of a single draw
    scratch = np.empty(min(n_symbols, _CHUNK_DRAWS))
    for start in range(0, n_symbols, len(scratch)):
        draws = scratch[: n_symbols - start]
        gen.random(out=draws)
        np.less(draws, prob_one, out=out[start : start + len(draws)].view(bool))
    return out


def _hash_words(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash of uint32 words: the hashed copy and the next hash constant."""
    words = words ^ const
    const = const * mult & _MASK32
    words *= const
    words ^= words >> 16
    return words, const


def _mix(dst: np.ndarray, words: np.ndarray, const: int) -> int:
    """Mix ``words``, hashed, into the pool words ``dst`` in place; the next hash constant."""
    hashed, const = _hash_words(words, const, _MULT_A)
    hashed *= _MIX_MULT_R
    dst *= _MIX_MULT_L
    dst -= hashed
    dst ^= dst >> 16
    return const


def _seed_states(seed: int, indices: range) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for each i, one row each.

    Realization i's entropy is the seed's 32-bit words, least first, then
    i as one word (0 <= i < 2^32). It is mixed into a pool of 4 words and
    the pool hashed out, as numpy does, in uint32 arithmetic over every i
    at once. The index and the pool wait in each realization's 8 output
    words, so the pass holds 32 bytes per realization and two word
    temporaries. The array is read-only, so worker threads may share it.
    """
    seed = int(seed)
    out = np.empty((len(indices), 2 * _POOL), dtype=np.uint32)
    pool = [out[:, _POOL + j] for j in range(_POOL)]
    # the index words wait in output word 0, which the mix never writes
    out[:, 0] = np.arange(indices.start, indices.stop, dtype=np.uint32)
    entropy = [np.array([seed >> shift & _MASK32], dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)] + [out[:, 0]]
    entropy += [np.zeros(1, dtype=np.uint32)] * (_POOL - len(entropy))
    const = _INIT_A
    for dst, word in zip(pool, entropy):
        dst[...], const = _hash_words(word, const, _MULT_A)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                const = _mix(pool[dst], pool[src], const)
    for word in entropy[_POOL:]:
        for dst in pool:
            const = _mix(dst, word, const)
    # output word k hashes pool word k mod 4; the last four overwrite the pool they read
    const = _INIT_B
    for k in range(2 * _POOL):
        out[:, k], const = _hash_words(pool[k % _POOL], const, _MULT_B)
    states = out.astype("<u4", copy=False).view("<u8")
    states.flags.writeable = False
    return states


def _bit_rows(n_symbols: int, prob_one: float, words: np.ndarray) -> np.ndarray:
    """Bits of the realizations whose :func:`_seed_states` rows are ``words``, one row each.

    Row r equals ``gen_bits(n_symbols, prob_one, SeedSequence((seed, i)))``
    for the i of ``words[r]``. One PCG64 and one Generator serve every row:
    PCG64's seeding step, inc = 2 initseq + 1 and state = (inc + initstate)
    M + inc mod 2^128, is taken on the row's words in Python ints and the
    state set through ``bit_generator.state``. All rows are drawn into one
    (rows, n_symbols) float scratch and thresholded together; the
    estimator bounds a call's draws by its batch of transform points.
    Each call owns its generator.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    draws = np.empty((len(words), n_symbols))
    for draw, (seed_hi, seed_lo, inc_hi, inc_lo) in zip(draws, words.tolist()):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        seeded = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        state["state"] = {"state": seeded, "inc": inc}
        bitgen.state = state
        gen.random(out=draw)
    return (draws < prob_one).view(np.uint8)


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
    """Symbol codes of bit streams along the last axis: the bit, or 2 for a "zero" after a "one"."""
    b = np.asarray(bits, dtype=bool)
    codes = b.astype(np.uint8)
    codes[..., 1:] |= (b[..., :-1] > b[..., 1:]).view(np.uint8) << 1
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
    """Closed-form mean pulse duration, gap and front spacing: a + r (1 - P)/P per run law."""
    mean_tau, mean_l = (a + r * (1.0 - P) / P for P, a, r in run_laws(params))
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
