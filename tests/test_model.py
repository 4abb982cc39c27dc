"""Bit streams, waveform synthesis, and interval statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pulsepsd.model
from pulsepsd import (
    BlankLaw,
    InsufficientDataError,
    IntervalStats,
    SimConfig,
    TrainParams,
    Variant,
    gen_bits,
    interval_stats,
    measure_intervals,
    synth_blank_shorten,
    synth_transition_stretch,
)


def _transition(t0=64, delta=3, p=0.55, **kw) -> TrainParams:
    return TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=p, **kw)


def _blank(t0=100, delta=10, **kw) -> TrainParams:
    return TrainParams(Variant.BLANK_SHORTEN, t0=t0, delta=delta, **kw)


GEN = BlankLaw.GENERATOR_K_MINUS_ONE_DELTA
CHUNK = pulsepsd.model._CHUNK_SAMPLES


def _stream(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint8)


# --- parameter validation ---


@pytest.mark.parametrize("t0", [0, -4, 3.5])
def test_params_reject_bad_t0(t0):
    with pytest.raises(ValueError):
        TrainParams(Variant.TRANSITION_STRETCH, t0=t0)


@pytest.mark.parametrize("delta", [-1, 64, 65])
def test_params_reject_bad_delta(delta):
    with pytest.raises(ValueError):
        TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=delta)


def test_fractional_delta_is_refused_only_where_samples_are_made():
    # the closed forms are continuous-time; synthesis needs whole samples
    transition, blank = _transition(delta=2.5), _blank(delta=2.5)
    assert transition.delta == blank.delta == 2.5
    bits = _stream([1, 0, 1, 0])
    for synth, params in ((synth_transition_stretch, transition), (synth_blank_shorten, blank)):
        with pytest.raises(ValueError, match="delta"):
            synth(bits, params)
        with pytest.raises(ValueError, match="delta"):
            SimConfig(n_symbols=4, n_realizations=1, fft_size=1024, seed=0, params=params)


def test_params_reject_a_blank_law_that_is_not_a_blank_law():
    with pytest.raises(ValueError, match="blank_law"):
        TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=10, blank_law="paper")


# below 1e-154 from either end P^2 underflows in the run pair
@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, 1e-200, float("nan")])
def test_params_reject_bad_prob(p):
    with pytest.raises(ValueError):
        TrainParams(Variant.TRANSITION_STRETCH, t0=64, prob_one=p)


def test_blank_takes_any_symbol_probability():
    biased = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=10, prob_one=0.6)
    assert biased.prob_one == 0.6


def test_prob_zero_complements_prob_one():
    assert _transition(p=0.55).prob_zero == pytest.approx(0.45, abs=1e-15)


# --- bit generation ---


def test_gen_bits_shape_and_alphabet():
    stream = gen_bits(1000, 0.55, seed=1)
    assert len(stream) == 1000
    assert stream.dtype == np.uint8
    assert set(np.unique(stream)) <= {0, 1}


def test_gen_bits_is_reproducible_across_seed_forms():
    a = gen_bits(500, 0.3, seed=42)
    b = gen_bits(500, 0.3, seed=42)
    c = gen_bits(500, 0.3, seed=np.random.SeedSequence(42))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, gen_bits(500, 0.3, seed=43))


def test_gen_bits_accepts_tuple_seeds():
    a = gen_bits(200, 0.5, seed=(7, 3))
    b = gen_bits(200, 0.5, seed=(7, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_bits(200, 0.5, seed=(7, 4)))


def test_gen_bits_respects_symbol_probability():
    stream = gen_bits(20_000, 0.3, seed=42)
    assert abs(stream.mean() - 0.3) < 0.01


@pytest.mark.parametrize("bad", [0, -5])
def test_gen_bits_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        gen_bits(bad, 0.5, seed=0)


def test_gen_bits_rejects_bad_probability():
    with pytest.raises(ValueError):
        gen_bits(10, 1.0, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    chunk=st.integers(1, 9),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**70),
)
def test_chunked_draws_are_one_draw_across_chunk_boundaries(n, chunk, p, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulsepsd.model, "_CHUNK_DRAWS", chunk)
        bits = gen_bits(n, p, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    np.testing.assert_array_equal(bits, (rng.random(n) < p).astype(np.uint8))


def test_gen_bits_peak_memory_is_the_bits_and_one_chunk_of_doubles():
    # the bits are 1 MB; one float draw of every symbol peaked at 8.6 MiB
    gen_bits(1, 0.55, seed=3)  # numpy's first-call caches are not the draw's memory
    tracemalloc.start()
    try:
        gen_bits(1_000_000, 0.55, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**64, 2**96 - 1),
        st.integers(2**96, 2**200),  # more entropy words than SeedSequence's pool of 4
    ),
    n=st.sampled_from([1, 128]),
    start=st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
    count=st.integers(1, 5),
    p=st.floats(0.01, 0.99),
)
@example(seed=7, n=128, start=2**32 - 5, count=5, p=0.55)
def test_block_bit_rows_are_the_per_index_streams(seed, n, start, count, p):
    indices = range(start, min(start + count, 2**32))
    rows = pulsepsd.model._bit_rows(n, p, pulsepsd.model._seed_states(seed, indices))
    assert rows.shape == (len(indices), n) and rows.dtype == np.uint8
    for row, i in zip(rows, indices):
        np.testing.assert_array_equal(row, gen_bits(n, p, (seed, i)))


def test_block_seed_words_are_seed_sequence_states_and_read_only():
    for seed in (0, 1, 2**32, 2**96 + 3, 3**120):
        states = pulsepsd.model._seed_states(seed, range(2**32 - 3, 2**32))
        assert not states.flags.writeable
        for row, i in zip(states, range(2**32 - 3, 2**32)):
            ref = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, ref)


def test_block_bit_rows_longer_than_one_chunk_of_draws():
    n = pulsepsd.model._CHUNK_DRAWS + 3
    rows = pulsepsd.model._bit_rows(n, 0.3, pulsepsd.model._seed_states(2**100 + 9, range(2)))
    for row, i in zip(rows, range(2)):
        np.testing.assert_array_equal(row, gen_bits(n, 0.3, (2**100 + 9, i)))


# --- transition-stretch synthesis ---


def test_transition_worked_example():
    # a zero right after a one keeps the line high for delta extra samples
    out = synth_transition_stretch(_stream([1, 0]), _transition(t0=4, delta=1))
    assert out.tolist() == [1, 1, 1, 1, 1, 0, 0, 0]


def test_transition_leading_zero_is_not_stretched():
    out = synth_transition_stretch(_stream([0, 1]), _transition(t0=4, delta=1))
    assert out.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_transition_zero_after_zero_is_not_stretched():
    out = synth_transition_stretch(_stream([1, 0, 0]), _transition(t0=4, delta=2))
    assert out.tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]


def test_transition_zero_delta_is_plain_nrz():
    bits = gen_bits(200, 0.5, seed=3)
    out = synth_transition_stretch(bits, _transition(t0=8, delta=0, p=0.5))
    assert np.array_equal(out, np.repeat(bits.astype(np.float64), 8))


@settings(max_examples=50, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    t0=st.integers(2, 12),
    data=st.data(),
)
def test_transition_length_and_alphabet_law(bits, t0, data):
    delta = data.draw(st.integers(0, t0 - 1))
    out = synth_transition_stretch(_stream(bits), _transition(t0=t0, delta=delta))
    assert len(out) == len(bits) * t0
    assert set(np.unique(out)) <= {0.0, 1.0}
    # each symbol slot starts on the t0 grid: slot k holds >= t0 - delta
    # samples equal to bit k
    blocks = out.reshape(len(bits), t0)
    for k, b in enumerate(bits):
        assert np.all(blocks[k, delta:] == b)


def _transition_by_matrix(bits: np.ndarray, t0: int, delta: int) -> np.ndarray:
    """Reference transition-stretch synthesis: one (n, t0) row per symbol, masked writes."""
    b = bits.astype(bool)
    out = np.zeros((len(b), t0), dtype=np.float64)
    out[b, :] = 1.0
    prev = np.concatenate(([False], b[:-1]))
    out[prev & ~b, :delta] = 1.0
    return out.reshape(-1)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=200),
    t0=st.integers(1, 300),
    delta=st.integers(0, 299),
)
@example(bits=[1], t0=4, delta=3)
@example(bits=[0], t0=4, delta=3)
@example(bits=[1, 0, 1, 1, 0, 0, 1], t0=5, delta=0)
@example(bits=[0, 1, 0, 0, 1, 1], t0=3, delta=2)
@example(bits=[1, 0, 0, 1, 0], t0=300, delta=299)
def test_transition_row_lookup_synthesis_equals_matrix(bits, t0, delta):
    assume(delta < t0)
    stream = _stream(bits)
    out = synth_transition_stretch(stream, _transition(t0=t0, delta=delta))
    ref = _transition_by_matrix(stream, t0, delta)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, ref)


def _codes_by_mask(bits) -> np.ndarray:
    """Reference symbol codes of one stream: the bit, with 2 scattered where a one ends."""
    b = np.asarray(bits, dtype=bool)
    codes = b.astype(np.uint8)
    codes[1:][b[:-1] & ~b[1:]] = 2
    return codes


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 5),
    length=st.integers(0, 40),
    data=st.data(),
)
def test_transition_codes_along_the_last_axis_equal_the_mask_scatter(rows, length, data):
    flat = data.draw(st.lists(st.integers(0, 1), min_size=rows * length, max_size=rows * length))
    bits = _stream(flat).reshape(rows, length)
    codes = pulsepsd.model._transition_codes(bits)
    assert codes.dtype == np.uint8
    np.testing.assert_array_equal(codes, np.stack([_codes_by_mask(b) for b in bits]))
    np.testing.assert_array_equal(pulsepsd.model._transition_codes(bits[0]), _codes_by_mask(bits[0]))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_transition_synthesis_across_symbol_blocks(monkeypatch, chunk):
    # a stretched zero at a block's first symbol follows a one in the block before
    monkeypatch.setattr(pulsepsd.model, "_CHUNK_SYMBOLS", chunk)
    stream = _stream([1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0])
    out = synth_transition_stretch(stream, _transition(t0=5, delta=2))
    np.testing.assert_array_equal(out, _transition_by_matrix(stream, 5, 2))


def test_transition_synthesis_peak_memory_is_the_output_and_a_few_mb():
    # 64 MB of samples; a per-symbol (n, 2) intp run array and np.repeat peaked at 83 MB
    tracemalloc.start()
    try:
        synth_transition_stretch(gen_bits(1_000_000, 0.55, seed=3), _transition(t0=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6, f"{peak / 1e6:.1f} MB"


def test_transition_rejects_blank_params():
    with pytest.raises(ValueError):
        synth_transition_stretch(_stream([1, 0]), _blank(t0=4, delta=1))


# --- blank-shorten synthesis ---


def test_blank_worked_example():
    out = synth_blank_shorten(_stream([1, 0, 1]), _blank(t0=4, delta=1, blank_law=GEN))
    assert out.tolist() == [1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]


def test_blank_paper_law_worked_example():
    # a zero right after a one is cut by delta more: 10 - 2*3 = 4 samples
    bits = _stream([1, 0, 0, 1, 1, 0, 1])
    out = synth_blank_shorten(bits, _blank(t0=10, delta=3, blank_law=BlankLaw.PAPER_K_DELTA))
    runs = [10, 4, 7, 10, 10, 4, 10]
    np.testing.assert_array_equal(out, np.repeat(bits.astype(np.float64), runs))


def test_blank_gap_between_pulses():
    out = synth_blank_shorten(_stream([1, 0, 0, 1]), _blank(t0=4, delta=2, blank_law=GEN))
    assert out.tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]


def test_blank_adjacent_ones_merge_without_gap():
    out = synth_blank_shorten(_stream([1, 1]), _blank(t0=4, delta=1))
    assert out.tolist() == [1] * 8


def test_paper_law_synthesis_refuses_delta_above_half_t0():
    # the zero after a one would last t0 - 2 delta < 0 samples; TrainParams
    # refuses that model itself, so synthesis, SimConfig, the closed forms
    # and sweeps never see it
    for delta in (6, 5.5, 9):
        with pytest.raises(ValueError, match="delta <= t0/2"):
            _blank(t0=10, delta=delta)
    # delta = t0/2 leaves that zero empty; the generator law takes any delta
    assert synth_blank_shorten(_stream([1, 0, 1]), _blank(t0=10, delta=5)).tolist() == [1] * 20
    assert len(synth_blank_shorten(_stream([1, 0]), _blank(t0=10, delta=9, blank_law=GEN))) == 11


@settings(max_examples=50, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    t0=st.integers(2, 12),
    law=st.sampled_from(list(BlankLaw)),
    data=st.data(),
)
def test_blank_length_law(bits, t0, law, data):
    # the paper law cuts each zero right after a one by delta more
    delta = data.draw(st.integers(0, t0 // 2 if law is BlankLaw.PAPER_K_DELTA else t0 - 1))
    out = synth_blank_shorten(_stream(bits), _blank(t0=t0, delta=delta, blank_law=law))
    n_ones = sum(bits)
    cut = sum(a > b for a, b in zip(bits, bits[1:])) if law is BlankLaw.PAPER_K_DELTA else 0
    assert len(out) == n_ones * t0 + (len(bits) - n_ones) * (t0 - delta) - cut * delta
    assert out.sum() == n_ones * t0
    assert set(np.unique(out)) <= {0.0, 1.0}


def _blank_by_difference_array(bits: np.ndarray, t0: int, delta: int) -> np.ndarray:
    """Reference blank-shorten synthesis: +1 at each pulse start, -1 t0 samples later."""
    b = bits.astype(bool)
    seg_len = np.where(b, t0, t0 - delta)
    starts = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
    total = int(seg_len.sum())
    edges = np.zeros(total + 1, dtype=np.int64)
    one_starts = starts[b]
    np.add.at(edges, one_starts, 1)
    np.add.at(edges, one_starts + t0, -1)
    return np.cumsum(edges[:total]).astype(np.float64)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=200),
    t0=st.integers(1, 40),
    delta=st.integers(0, 39),
)
@example(bits=[0, 1, 1, 0, 0, 1], t0=5, delta=0)
@example(bits=[0, 0, 0], t0=3, delta=2)
def test_blank_run_length_synthesis_equals_difference_array(bits, t0, delta):
    assume(delta < t0)
    stream = _stream(bits)
    out = synth_blank_shorten(stream, _blank(t0=t0, delta=delta, blank_law=GEN))
    ref = _blank_by_difference_array(stream, t0, delta)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, ref)


@settings(max_examples=40, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=80), t0=st.integers(2, 10))
def test_variants_coincide_at_zero_delta(bits, t0):
    stream = _stream(bits)
    a = synth_transition_stretch(stream, _transition(t0=t0, delta=0, p=0.5))
    b = synth_blank_shorten(stream, _blank(t0=t0, delta=0))
    assert np.array_equal(a, b)


def test_blank_rejects_transition_params():
    with pytest.raises(ValueError):
        synth_blank_shorten(_stream([1, 0]), _transition(t0=4, delta=1))


# --- interval statistics ---


def test_interval_stats_closed_forms():
    stats = interval_stats(_transition(t0=64, delta=3, p=0.55))
    assert stats.mean_tau == pytest.approx(64 / 0.45 + 3, rel=1e-14)
    assert stats.mean_l == pytest.approx(64 / 0.55 - 3, rel=1e-14)
    assert stats.mean_g == pytest.approx(stats.mean_tau + stats.mean_l, rel=1e-14)


def test_mean_front_spacing_is_delta_free():
    g0 = interval_stats(_transition(t0=64, delta=0, p=0.55)).mean_g
    g9 = interval_stats(_transition(t0=64, delta=9, p=0.55)).mean_g
    assert g0 == pytest.approx(g9, rel=1e-14)
    assert g0 == pytest.approx(64 / (0.55 * 0.45), rel=1e-14)


def test_measure_intervals_toy_signal():
    sig = np.array([1, 1, 0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
    stats = measure_intervals(sig)
    assert stats.mean_tau == 2.0
    assert stats.mean_l == 2.0
    assert stats.mean_g == 4.0


def test_measure_intervals_thresholds_analog_levels():
    sig = np.array([0.9, 0.9, 0.1, 0.1, 0.8, 0.8, 0.2, 0.2, 0.9])
    stats = measure_intervals(sig)
    assert stats.mean_g == 4.0


@pytest.mark.parametrize(
    "sig",
    [np.zeros(32), np.ones(32), np.array([0, 0, 1, 1, 1, 0, 0], dtype=float)],
)
def test_measure_intervals_needs_two_fronts(sig):
    with pytest.raises(InsufficientDataError):
        measure_intervals(sig)


@pytest.mark.parametrize("sig", [np.ones((4, 8)), np.array(1.0)])
def test_measure_intervals_refuses_a_signal_that_is_not_1d(sig):
    with pytest.raises(ValueError, match="1-D"):
        measure_intervals(sig)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=200))
def test_measured_front_spacing_is_sum_of_parts(bits):
    sig = np.asarray(bits, dtype=float)
    padded = np.concatenate(([0.0], sig))
    if int(np.sum((padded[1:] > 0.5) & (padded[:-1] < 0.5))) < 2:
        return  # too few fronts to measure; covered by the error test
    stats = measure_intervals(sig)
    assert stats.mean_g == pytest.approx(stats.mean_tau + stats.mean_l, abs=1e-12)


def _intervals_by_padded_masks(signal: np.ndarray) -> IntervalStats:
    """Reference interval measurement: rises and falls from two masks on a zero-padded copy."""
    padded = np.concatenate(([False], np.asarray(signal) > 0.5, [False]))
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


def _stats_or_error(measure, signal):
    try:
        return measure(signal)
    except InsufficientDataError as err:
        return f"InsufficientDataError: {err}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.51, 0.9, 1.0]), max_size=150))
@example([])
@example([1.0] * 9)
@example([0.9, 0.9, 0.1, 0.8, 0.0, 0.7])  # starts and ends high
@example([0.0, 0.0, 1.0, 1.0, 0.0])  # one front
@example([0.0, 1.0, 1.0, 1.0])  # one front, ends high
@example([0.5, 1.0, 0.5, 1.0, 0.5])  # 0.5 is low
def test_measure_intervals_equals_padded_masks(levels):
    sig = np.asarray(levels, dtype=np.float64)
    out = _stats_or_error(measure_intervals, sig)
    assert out == _stats_or_error(_intervals_by_padded_masks, sig)


def _intervals_unchunked(signal: np.ndarray) -> IntervalStats:
    """Reference interval measurement: one full-length mask, every edge, every run."""
    x = np.asarray(signal) > 0.5
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


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.integers(1, 2),
    tail=st.integers(0, 3),
    near=st.lists(st.tuples(st.integers(1, 2), st.integers(-1, 1)), max_size=6),
    spread=st.lists(st.integers(0, 3 * CHUNK), max_size=20),
    first_high=st.booleans(),
    last_high=st.booleans(),
    int_levels=st.tuples(st.sampled_from([-3, 0]), st.sampled_from([1, 7])),
)
@example(blocks=1, tail=1, near=[(1, 0)], spread=[2], first_high=True, last_high=False,
         int_levels=(-3, 7))
@example(blocks=2, tail=0, near=[(1, -1), (1, 1), (2, 0)], spread=[], first_high=False,
         last_high=True, int_levels=(0, 1))
def test_chunked_scan_equals_the_unchunked_scan(
    blocks, tail, near, spread, first_high, last_high, int_levels
):
    # edges at block boundaries -1, 0 and +1, anywhere else, and at either end
    n = blocks * CHUNK + tail
    toggle = np.zeros(n, dtype=bool)
    toggle[[b * CHUNK + o for b, o in near if b * CHUNK + o < n]] = True
    toggle[[i for i in spread if i < n]] = True
    toggle[0] = first_high
    levels = np.cumsum(toggle) % 2 == 1
    levels[-1] = last_high
    low, high = int_levels  # integer samples are thresholded as > 0, the reference as > 0.5
    for sig in (
        levels,
        levels.astype(np.uint8),
        np.where(levels, 0.51, 0.5),
        np.where(levels, high, low).astype(np.int8),
        np.where(levels, high, low).astype(np.int64),
    ):
        out = _stats_or_error(measure_intervals, sig)
        assert out == _stats_or_error(_intervals_unchunked, sig), sig.dtype


def _pulses(n: int, spans) -> np.ndarray:
    sig = np.zeros(n, dtype=np.uint8)
    for rise, fall in spans:
        sig[rise:fall] = 1
    return sig


@pytest.mark.parametrize(
    "spans, expected",
    [
        # last rise and last fall in block 1 of 5, then a low tail
        ([(10, 20), (CHUNK - 3, CHUNK + 4), (CHUNK + 100, 2 * CHUNK - 7)],
         IntervalStats(mean_tau=8.5, mean_l=(CHUNK + 73) / 2, mean_g=(CHUNK + 90) / 2)),
        # the same pulses, then a rise in block 1 whose high tail runs to the end
        ([(10, 20), (CHUNK - 3, CHUNK + 4), (CHUNK + 100, 2 * CHUNK - 7), (2 * CHUNK - 2, None)],
         IntervalStats(mean_tau=(CHUNK - 90) / 3, mean_l=(CHUNK + 78) / 3,
                       mean_g=(2 * CHUNK - 12) / 3)),
        # every edge in the last, partial block
        ([(4 * CHUNK + 5, 4 * CHUNK + 9), (4 * CHUNK + 20, 4 * CHUNK + 21)],
         IntervalStats(mean_tau=4.0, mean_l=11.0, mean_g=15.0)),
    ],
    ids=["low-tail", "high-tail", "first-rise-in-last-block"],
)
def test_edges_far_from_the_end_or_only_in_the_last_block(spans, expected):
    n = 4 * CHUNK + 30
    for sig in (_pulses(n, spans), _pulses(n, spans).astype(np.float64)):
        out = measure_intervals(sig)
        assert out == expected == _intervals_unchunked(sig), sig.dtype


@pytest.mark.parametrize("shape", ["alternating", "t0-64"])
def test_measure_intervals_temporaries_stay_a_few_mb(shape):
    n = 1 << 24
    if shape == "alternating":  # an edge at every sample: the most edges a block can hold
        sig = (np.arange(n) & 1).astype(np.uint8)
    else:
        sig = synth_transition_stretch(gen_bits(n // 64, 0.55, seed=3), _transition(t0=64))
    tracemalloc.start()
    try:
        measure_intervals(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"{peak / 1e6:.1f} MB for {sig.nbytes / 1e6:.0f} MB of signal"


def test_measured_means_approach_closed_forms():
    params = _transition(t0=64, delta=3, p=0.55)
    sig = synth_transition_stretch(gen_bits(20_000, 0.55, seed=42), params)
    measured = measure_intervals(sig)
    expected = interval_stats(params)
    assert measured.mean_tau == pytest.approx(expected.mean_tau, rel=0.03)
    assert measured.mean_l == pytest.approx(expected.mean_l, rel=0.03)
    assert measured.mean_g == pytest.approx(expected.mean_g, rel=0.03)
    # the blank run pair under both laws, at criterion 7's 1%
    for p, law, seed in ((0.5, BlankLaw.PAPER_K_DELTA, 43), (0.3, GEN, 44), (0.7, BlankLaw.PAPER_K_DELTA, 45)):
        params = _blank(t0=100, delta=10, prob_one=p, blank_law=law)
        measured = measure_intervals(synth_blank_shorten(gen_bits(400_000, p, seed=seed), params))
        expected = interval_stats(params)
        for field in ("mean_tau", "mean_l", "mean_g"):
            got, want = getattr(measured, field), getattr(expected, field)
            assert got == pytest.approx(want, rel=0.01), (p, law, field)
