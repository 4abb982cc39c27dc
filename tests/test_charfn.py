"""Characteristic functions: closed forms, series oracles, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsepsd import charfn
from pulsepsd import (
    BlankLaw,
    TrainParams,
    Variant,
    discrete_component_detector,
    theta1,
    theta2,
    theta_blank,
)


def _params(t0=64, delta=3, p=0.55) -> TrainParams:
    return TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=p)


def _blank(t0=100, delta=10.0, law=BlankLaw.PAPER_K_DELTA, p=0.5) -> TrainParams:
    return TrainParams(Variant.BLANK_SHORTEN, t0=t0, delta=delta, prob_one=p, blank_law=law)


# Series oracles built straight from the interval distributions. A pulse
# lasting k symbol slots has probability q*p^(k-1) and duration k*t0 +
# delta; a gap lasting k slots has probability p*q^(k-1) and duration
# k*t0 - delta. Blank-shorten fronts are spaced k*t0 minus a law-dependent
# multiple of delta, each with probability p*q^(k-1).


def _tail_terms(ratio: float) -> int:
    return int(np.ceil(np.log(1e-16) / np.log(ratio))) + 1


def _series_theta1(w: float, params: TrainParams) -> complex:
    p, q, t0, d = params.prob_one, params.prob_zero, params.t0, params.delta
    k = np.arange(1, _tail_terms(max(p, q)) + 1)
    return complex(np.sum(q * p ** (k - 1) * np.exp(1j * w * (k * t0 + d))))


def _series_theta2(w: float, params: TrainParams) -> complex:
    p, q, t0, d = params.prob_one, params.prob_zero, params.t0, params.delta
    k = np.arange(1, _tail_terms(max(p, q)) + 1)
    return complex(np.sum(p * q ** (k - 1) * np.exp(1j * w * (k * t0 - d))))


def _blank_interval_law(t0: float, delta: float, law: BlankLaw, p: float):
    """Probabilities and lengths of the blank front intervals over k slots."""
    q = 1.0 - p
    k = np.arange(1, _tail_terms(q) + 1)
    if law is BlankLaw.PAPER_K_DELTA:
        shortening = np.where(k == 1, 0.0, k * delta)
    else:
        shortening = (k - 1) * delta
    return p * q ** (k - 1), k * t0 - shortening


def _series_blank(w: float, t0: float, delta: float, law: BlankLaw, p: float = 0.5) -> complex:
    prob, length = _blank_interval_law(t0, delta, law, p)
    return complex(np.sum(prob * np.exp(1j * w * length)))


# --- basic invariants ---


def test_all_characteristic_functions_are_one_at_zero():
    params = _params()
    assert theta1(0.0, params) == pytest.approx(1.0, abs=1e-12)
    assert theta2(0.0, params) == pytest.approx(1.0, abs=1e-12)
    for law in BlankLaw:
        assert theta_blank(0.0, _blank(law=law)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    w=st.floats(-30.0, 30.0, allow_nan=False),
    p=st.floats(0.05, 0.95),
    t0=st.integers(4, 100),
    data=st.data(),
)
def test_magnitudes_never_exceed_one(w, p, t0, data):
    delta = data.draw(st.integers(0, t0 - 1))
    params = _params(t0=t0, delta=delta, p=p)
    assert abs(theta1(w, params)) <= 1 + 1e-12
    assert abs(theta2(w, params)) <= 1 + 1e-12
    # the paper law is a binary train only for delta <= t0/2
    paper_delta = data.draw(st.integers(0, t0 // 2))
    assert abs(theta_blank(w, _blank(t0, paper_delta, BlankLaw.PAPER_K_DELTA, p))) <= 1 + 1e-12
    gen = _blank(t0, delta, BlankLaw.GENERATOR_K_MINUS_ONE_DELTA, p)
    assert abs(theta_blank(w, gen)) <= 1 + 1e-12


def test_scalar_and_array_inputs_agree():
    params = _params()
    w = np.array([0.01, 0.37, 1.9])
    vec1, vec2 = theta1(w, params), theta2(w, params)
    assert vec1.shape == w.shape
    for i, wi in enumerate(w):
        assert theta1(float(wi), params) == pytest.approx(vec1[i], abs=1e-14)
        assert theta2(float(wi), params) == pytest.approx(vec2[i], abs=1e-14)
    vecb = theta_blank(w, _blank())
    for i, wi in enumerate(w):
        assert theta_blank(float(wi), _blank()) == pytest.approx(vecb[i], abs=1e-14)


# --- closed forms vs series oracles ---


def test_closed_forms_match_series_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        t0 = int(rng.integers(8, 128))
        delta = int(rng.integers(0, t0))
        p = float(rng.uniform(0.05, 0.95))
        w = float(rng.uniform(1e-3, 40.0) / t0 * 2 * np.pi)
        # the forms are continuous-time, so a fractional delta must match too
        for d in (delta, delta + 0.37):
            params = _params(t0=t0, delta=d, p=p)
            assert theta1(w, params) == pytest.approx(_series_theta1(w, params), abs=1e-12)
            assert theta2(w, params) == pytest.approx(_series_theta2(w, params), abs=1e-12)
            for law in BlankLaw:
                # the paper law is a binary train only for delta <= t0/2
                db = min(d, t0 / 2) if law is BlankLaw.PAPER_K_DELTA else d
                assert theta_blank(w, _blank(t0, db, law, p)) == pytest.approx(
                    _series_blank(w, t0, db, law, p), abs=1e-12
                )


def test_blank_laws_coincide_at_zero_delta():
    w = np.linspace(0.001, 0.6, 500)
    paper = theta_blank(w, _blank(64, 0.0, BlankLaw.PAPER_K_DELTA))
    gen = theta_blank(w, _blank(64, 0.0, BlankLaw.GENERATOR_K_MINUS_ONE_DELTA))
    expected = np.exp(1j * w * 64.0) / (2.0 - np.exp(1j * w * 64.0))
    np.testing.assert_allclose(paper, expected, atol=1e-12)
    np.testing.assert_allclose(gen, expected, atol=1e-12)


def test_blank_theta_matches_the_equiprobable_forms():
    # the equiprobable closed forms this package shipped before it took p;
    # theta = exp(jw t0)(1 - q (1 - theta_l)) reaches them in another float
    # order, within 1.3e-14 relative (paper law) and 1.0e-15 (generator) measured
    rng = np.random.default_rng(7)
    w = rng.uniform(-5.0, 5.0, 1000)
    for t0, delta in ((100, 10.0), (32, 3.0), (64, 0.0), (100, 10.5)):
        z = np.exp(1j * w * t0)
        u = 0.5 * np.exp(1j * w * (t0 - delta))
        paper = 0.5 * z + u * u / (1.0 - u)
        generator = z / (2.0 - 2.0 * u)
        np.testing.assert_allclose(theta_blank(w, _blank(t0, delta)), paper, rtol=2e-14, atol=0)
        np.testing.assert_allclose(
            theta_blank(w, _blank(t0, delta, BlankLaw.GENERATOR_K_MINUS_ONE_DELTA)), generator,
            rtol=2e-15, atol=0,
        )


def test_blank_theta_at_small_p_has_no_cancellation_near_dc():
    # at p = 1e-3 and w <= 1e-2 theta meets the series oracle to 1.2e-15; the
    # direct form p z + (p/q) u h / (1 - u) carried the rounding of 1 - u, 8.2e-14
    w = np.geomspace(1e-8, 1e-2, 13)
    for law in BlankLaw:
        theta = theta_blank(w, _blank(100, 10.0, law, 1e-3))
        expected = [_series_blank(wi, 100, 10.0, law, 1e-3) for wi in w]
        np.testing.assert_allclose(theta, expected, rtol=0, atol=2e-14)


def test_blank_laws_differ_for_positive_delta():
    w = 2 * np.pi * 0.7 / 100.0
    a = theta_blank(w, _blank(law=BlankLaw.PAPER_K_DELTA))
    b = theta_blank(w, _blank(law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA))
    assert abs(a - b) > 1e-3


# --- clock-harmonic structure ---


def test_duration_gap_product_is_unimodular_at_harmonics():
    params = _params(t0=64, delta=3, p=0.55)
    k = np.arange(1, 41)
    w = 2 * np.pi * k / 64.0
    prod = theta1(w, params) * theta2(w, params)
    np.testing.assert_allclose(np.abs(prod), 1.0, atol=1e-12)


def test_detector_flags_every_line_for_coprime_delta():
    # 3 and 64 share no factor, so no harmonic below k=64 cancels
    flags = discrete_component_detector(_params(t0=64, delta=3, p=0.55), k_max=40)
    assert flags == [(k, True) for k in range(1, 41)]


def test_detector_drops_harmonics_cancelled_by_delta():
    flags = dict(discrete_component_detector(_params(t0=64, delta=16, p=0.5), k_max=12))
    for k in range(1, 13):
        assert flags[k] is (k % 4 != 0)


def test_detector_is_all_false_without_predistortion():
    flags = discrete_component_detector(_params(t0=64, delta=0, p=0.55), k_max=40)
    assert all(flag is False for _, flag in flags)


# --- guard rails ---


def test_every_theta_is_exact_at_dc_next_to_either_end():
    # |P - (1 - P) E(r)| >= P and |1 - u| >= p: a probability of 1e-13 is no singularity,
    # nor is one that 1 - p rounds away
    params = _params(t0=8, delta=0, p=1 - 1e-13)
    assert theta1(0.0, params) == theta2(0.0, params) == 1.0
    for p in (1e-13, 1e-20):
        for law in BlankLaw:
            assert theta_blank(0.0, _blank(law=law, p=p)) == 1.0



# --- batches ---

_ITEM = st.builds(
    lambda variant, law, t0, fraction, p, whole: TrainParams(
        variant, t0, float(int(fraction * t0)) if whole else fraction * t0, p, law
    ),
    st.sampled_from(list(Variant)),
    st.sampled_from(list(BlankLaw)),
    st.sampled_from([7, 64, 100]),
    st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)),
    st.floats(0.05, 0.95),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(_ITEM, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_a_batched_run_pair_has_the_bits_of_each_params_alone(items, seed):
    # items derive their least length alike or not (delta 0, the generator
    # law, fractional deltas), so a batch may hold several groups
    rng = np.random.default_rng(seed)
    item = rng.integers(0, len(items), 200)
    omega = rng.uniform(1e-4, np.pi, 200)
    pair = charfn.run_pair(omega, items, item)
    slopes = charfn._run_slopes(omega, items, item)
    for i, params in enumerate(items):
        at = item == i
        alone, alone_slopes = charfn.run_pair(omega[at], params), charfn._run_slopes(omega[at], params)
        for run in (0, 1):
            assert pair[run][0][at].tobytes() == alone[run][0].tobytes()
            assert pair[run][1][at].tobytes() == alone[run][1].tobytes()
            assert slopes[run][at].tobytes() == alone_slopes[run].tobytes()
