"""Bit streams, waveform synthesis, and interval statistics."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pulsepsd import (
    InsufficientDataError,
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


def _stream(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint8)


# --- parameter validation ---


@pytest.mark.parametrize("t0", [0, -4, 3.5])
def test_params_reject_bad_t0(t0):
    with pytest.raises(ValueError):
        TrainParams(Variant.TRANSITION_STRETCH, t0=t0)


@pytest.mark.parametrize("delta", [-1, 64, 65, 2.5])
def test_params_reject_bad_delta(delta):
    with pytest.raises(ValueError):
        TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=delta)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
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


def test_transition_rejects_blank_params():
    with pytest.raises(ValueError):
        synth_transition_stretch(_stream([1, 0]), _blank(t0=4, delta=1))


# --- blank-shorten synthesis ---


def test_blank_worked_example():
    out = synth_blank_shorten(_stream([1, 0, 1]), _blank(t0=4, delta=1))
    assert out.tolist() == [1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]


def test_blank_gap_between_pulses():
    out = synth_blank_shorten(_stream([1, 0, 0, 1]), _blank(t0=4, delta=2))
    assert out.tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]


def test_blank_adjacent_ones_merge_without_gap():
    out = synth_blank_shorten(_stream([1, 1]), _blank(t0=4, delta=1))
    assert out.tolist() == [1] * 8


@settings(max_examples=50, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    t0=st.integers(2, 12),
    data=st.data(),
)
def test_blank_length_law(bits, t0, data):
    delta = data.draw(st.integers(0, t0 - 1))
    out = synth_blank_shorten(_stream(bits), _blank(t0=t0, delta=delta))
    n_ones = sum(bits)
    assert len(out) == n_ones * t0 + (len(bits) - n_ones) * (t0 - delta)
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
    out = synth_blank_shorten(stream, _blank(t0=t0, delta=delta))
    ref = _blank_by_difference_array(stream, t0, delta)
    assert out.dtype == ref.dtype == np.float64
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


def test_interval_stats_rejects_blank_variant():
    with pytest.raises(ValueError):
        interval_stats(_blank())


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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=200))
def test_measured_front_spacing_is_sum_of_parts(bits):
    sig = np.asarray(bits, dtype=float)
    padded = np.concatenate(([0.0], sig))
    if int(np.sum((padded[1:] > 0.5) & (padded[:-1] < 0.5))) < 2:
        return  # too few fronts to measure; covered by the error test
    stats = measure_intervals(sig)
    assert stats.mean_g == pytest.approx(stats.mean_tau + stats.mean_l, abs=1e-12)


def test_measured_means_approach_closed_forms():
    params = _transition(t0=64, delta=3, p=0.55)
    sig = synth_transition_stretch(gen_bits(20_000, 0.55, seed=42), params)
    measured = measure_intervals(sig)
    expected = interval_stats(params)
    assert measured.mean_tau == pytest.approx(expected.mean_tau, rel=0.03)
    assert measured.mean_l == pytest.approx(expected.mean_l, rel=0.03)
    assert measured.mean_g == pytest.approx(expected.mean_g, rel=0.03)
