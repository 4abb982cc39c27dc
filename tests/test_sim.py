"""Monte Carlo estimator: periodograms, seeding, parallel determinism."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pulsepsd.sim
from pulsepsd import (
    BlankLaw,
    FrequencyGrid,
    SimConfig,
    SpectrumGrid,
    TrainParams,
    Variant,
    bin_power,
    estimate_psd,
    periodogram_bins,
    psd_blank_shorten,
    synthesize_realization,
)
from pulsepsd.analytic import analytic_on_fft_grid
from pulsepsd.sim import _half_bins, _row_response, compare_on_common_bins, resolve_workers


def _transition(t0=64, delta=3, p=0.55) -> TrainParams:
    return TrainParams(Variant.TRANSITION_STRETCH, t0=t0, delta=delta, prob_one=p)


def _blank(t0=100, delta=10, law=BlankLaw.PAPER_K_DELTA, p=0.5) -> TrainParams:
    return TrainParams(Variant.BLANK_SHORTEN, t0=t0, delta=delta, prob_one=p, blank_law=law)


def _synthesizable_delta(t0: int, law: BlankLaw, draw: int) -> int:
    """A delta in [0, t0) that the law can synthesize: at most t0/2 under the paper law."""
    return draw % (t0 // 2 + 1 if law is BlankLaw.PAPER_K_DELTA else t0)


# --- configuration guard rails ---


def test_config_requires_power_of_two_fft():
    with pytest.raises(ValueError):
        SimConfig(n_symbols=8, n_realizations=2, fft_size=1000, seed=0, params=_transition())
    with pytest.raises(ValueError):
        SimConfig(n_symbols=1, n_realizations=2, fft_size=2, seed=0, params=_transition(t0=2))


def test_config_rejects_negative_seed_and_empty_runs():
    with pytest.raises(ValueError):
        SimConfig(n_symbols=8, n_realizations=2, fft_size=1024, seed=-1, params=_transition())
    with pytest.raises(ValueError):
        SimConfig(n_symbols=8, n_realizations=0, fft_size=1024, seed=0, params=_transition())


def test_config_refuses_what_the_seed_words_cannot_hold():
    # a float count or seed reached range() or numpy's SeedSequence as a
    # TypeError; an index past 2^32 - 1 would wrap in its uint32 entropy word
    base = dict(n_symbols=8, n_realizations=2, fft_size=1024, seed=0, params=_transition())
    for name, bad in (("seed", 2.0), ("seed", "7"), ("seed", None), ("n_symbols", 8.5),
                      ("n_realizations", 2.0), ("fft_size", 1024.0)):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{**base, name: bad})
    with pytest.raises(ValueError, match="n_realizations"):
        SimConfig(n_symbols=8, n_realizations=2**32 + 1, fft_size=1024, seed=0,
                  params=_transition())
    SimConfig(n_symbols=8, n_realizations=2**32, fft_size=1024, seed=np.uint64(2**63),
              params=_transition())


def test_config_transition_signal_must_fit_the_fft():
    with pytest.raises(ValueError):
        SimConfig(n_symbols=100, n_realizations=2, fft_size=1024, seed=0, params=_transition(t0=64))
    # blank realizations are cut to fft_size by design, any count works
    SimConfig(n_symbols=100, n_realizations=2, fft_size=1024, seed=0, params=_blank(t0=64, delta=6))


# --- periodogram normalization ---


def test_periodogram_bins_satisfy_parseval():
    rng = np.random.default_rng(7)
    for n, nfft in ((100, 128), (128, 128), (333, 1024)):
        x = rng.normal(size=n)
        bins = periodogram_bins(x, nfft)
        assert bins.shape == (nfft,)
        total = bins.sum() * (n / nfft)
        assert total == pytest.approx(np.var(x), rel=1e-12)


def test_periodogram_bins_mirror_the_one_sided_kernel_bin_for_bin():
    rng = np.random.default_rng(10)
    for n, nfft in ((100, 128), (128, 128), (333, 1024), (50, 63), (7, 8), (3, 3)):
        x = rng.normal(size=n)
        half = _half_bins(x, nfft)
        bins = periodogram_bins(x, nfft)
        assert half.shape == (nfft // 2 + 1,)
        assert bins.shape == (nfft,)
        np.testing.assert_array_equal(bins[: len(half)], half)
        np.testing.assert_array_equal(bins[1:], bins[:0:-1])  # bin nfft-k equals bin k
        full = np.abs(np.fft.fft(x - x.mean(), n=nfft) / n) ** 2
        np.testing.assert_allclose(bins, full, rtol=1e-12, atol=1e-15 * full.max())


def test_periodogram_removes_the_mean():
    # shifting by a constant only perturbs float rounding, not the content
    rng = np.random.default_rng(8)
    x = rng.normal(size=256)
    np.testing.assert_allclose(
        periodogram_bins(x, 512), periodogram_bins(x + 5.0, 512), atol=1e-12
    )


def test_periodogram_rejects_long_signals():
    x = np.random.default_rng(4).normal(size=600)
    with pytest.raises(ValueError):
        periodogram_bins(x, 512)


# --- realization synthesis ---


def test_realizations_are_deterministic_per_index():
    cfg = SimConfig(n_symbols=32, n_realizations=4, fft_size=4096, seed=11, params=_transition())
    a = synthesize_realization(cfg, 2)
    b = synthesize_realization(cfg, 2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, synthesize_realization(cfg, 3))
    assert len(a) == 32 * 64


@settings(max_examples=60, deadline=None)
@given(
    t0=st.integers(1, 64),
    draw=st.integers(0, 63),
    law=st.sampled_from(list(BlankLaw)),
    p=st.floats(0.01, 0.99),
    log_fft=st.integers(2, 13),
    seed=st.integers(0, 999),
)
# the tightest covers: the paper law at delta = t0/2, where a one and the empty zero after
# it last 2 (t0 - delta), and the generator law's near-all-zero stream
@example(t0=10, draw=5, law=BlankLaw.PAPER_K_DELTA, p=0.5, log_fft=13, seed=0)
@example(t0=10, draw=9, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA, p=0.01, log_fft=13, seed=0)
def test_blank_realizations_always_fill_the_fft_window(t0, draw, law, p, log_fft, seed):
    params = _blank(t0=t0, delta=_synthesizable_delta(t0, law, draw), law=law, p=p)
    cfg = SimConfig(n_symbols=10, n_realizations=2, fft_size=1 << log_fft, seed=seed,
                    params=params)
    for i in range(2):
        assert len(synthesize_realization(cfg, i)) == 1 << log_fft


def test_different_master_seeds_give_different_realizations():
    cfg_a = SimConfig(n_symbols=32, n_realizations=2, fft_size=4096, seed=1, params=_transition())
    cfg_b = SimConfig(n_symbols=32, n_realizations=2, fft_size=4096, seed=2, params=_transition())
    assert not np.array_equal(
        synthesize_realization(cfg_a, 0), synthesize_realization(cfg_b, 0)
    )


# --- ensemble averaging ---


def _manual_mean(cfg: SimConfig) -> np.ndarray:
    """The mean two-sided periodogram of the config's realizations, bins 1 .. fft_size/2."""
    acc = np.zeros(cfg.fft_size)
    for i in range(cfg.n_realizations):
        acc += periodogram_bins(synthesize_realization(cfg, i), cfg.fft_size)
    return (acc / cfg.n_realizations)[1 : cfg.fft_size // 2 + 1]


def test_estimate_equals_manual_periodogram_mean():
    # t0 = 48 does not divide 2048, so the estimator transforms the samples: bit for bit
    cfg = SimConfig(n_symbols=32, n_realizations=8, fft_size=2048, seed=9,
                    params=_transition(t0=48))
    est = estimate_psd(cfg)
    assert est.meta["transform_points"] == 2048
    np.testing.assert_array_equal(est.psd, _manual_mean(cfg))
    # t0 = 64 divides it: the symbol path, equal to rounding
    cfg = replace(cfg, params=_transition())
    est = estimate_psd(cfg)
    assert est.meta["transform_points"] == 32
    manual = _manual_mean(cfg)
    np.testing.assert_allclose(est.psd, manual, rtol=1e-12, atol=1e-15 * manual.max())


def _symbol_path_cases():
    cases = []
    for t0 in (1, 2, 8, 64):
        fft = 8192 if t0 == 64 else 1024
        for delta in sorted({0, 1, t0 - 1} - {t0}):
            for p in (0.01, 0.55, 0.99):
                for n_symbols in (fft // t0, fft // t0 * 2 // 3):  # L = fft_size, L < fft_size
                    cases.append(
                        pytest.param(t0, delta, p, n_symbols, fft,
                                     id=f"t0={t0}-delta={delta}-p={p}-L={n_symbols * t0}")
                    )
    cases.append(pytest.param(64, 32, 0.55, 1, 64, id="one-symbol-point"))  # fft_size/t0 = 1
    # 4096-point symbol transforms: 16 realizations per rfft call, so three calls
    cases.append(pytest.param(2, 1, 0.55, 4096, 8192, id="several-calls-per-block"))
    return cases


@pytest.mark.parametrize("t0, delta, p, n_symbols, fft", _symbol_path_cases())
def test_symbol_path_equals_the_sample_periodogram_mean(t0, delta, p, n_symbols, fft):
    # 33 realizations: two blocks, the second of one realization
    cfg = SimConfig(n_symbols=n_symbols, n_realizations=33, fft_size=fft, seed=17,
                    params=_transition(t0=t0, delta=delta, p=p))
    est = estimate_psd(cfg, workers=1)
    assert est.meta["transform_points"] == fft // t0
    manual = _manual_mean(cfg)
    np.testing.assert_allclose(est.psd, manual, rtol=1e-12, atol=1e-15 * manual.max())


@settings(max_examples=60, deadline=None)
@given(
    blank=st.booleans(),
    odd=st.sampled_from([1, 3, 5]),
    twos=st.integers(1, 5),
    half_delta=st.integers(0, 79),
    n_symbols=st.integers(1, 8),
    spare=st.integers(0, 8),
    n=st.integers(1, 4),
    seed=st.integers(0, 999),
    law=st.sampled_from(list(BlankLaw)),
)
# t0 = 32 against fft 16, and one 16-sample symbol in fft 16: g capped at 4
@example(blank=True, odd=1, twos=5, half_delta=0, n_symbols=1, spare=2, n=2, seed=0,
         law=BlankLaw.PAPER_K_DELTA)
@example(blank=False, odd=1, twos=4, half_delta=0, n_symbols=1, spare=0, n=2, seed=0,
         law=BlankLaw.PAPER_K_DELTA)
# paper law at delta = t0/2 = 16, so every zero after a one is empty
@example(blank=True, odd=1, twos=5, half_delta=8, n_symbols=1, spare=8, n=4, seed=0,
         law=BlankLaw.PAPER_K_DELTA)
def test_lattice_estimate_equals_the_full_rate_periodogram_mean(
    blank, odd, twos, half_delta, n_symbols, spare, n, seed, law
):
    # whole delta with gcd(t0, delta) even, so the estimator transforms
    # fft_size/g points and expands them with the hold response
    t0 = odd << twos
    delta = 2 * _synthesizable_delta(t0 // 2, law, half_delta)
    if blank:
        params, fft = _blank(t0=t0, delta=delta, law=law), 4 << spare
    else:
        params = _transition(t0=t0, delta=delta)
        fft = max(4, 1 << (n_symbols * t0 - 1).bit_length() + spare % 3)
    cfg = SimConfig(n_symbols=n_symbols, n_realizations=n, fft_size=fft, seed=seed, params=params)
    est = estimate_psd(cfg, workers=1)
    shared = math.gcd(t0, delta)
    g = min(shared & -shared, fft // 4)
    assert est.meta["lattice"] == g
    manual = np.zeros(fft // 2)
    for i in range(n):
        manual += periodogram_bins(synthesize_realization(cfg, i), fft)[1 : fft // 2 + 1]
    manual /= n
    np.testing.assert_allclose(est.psd, manual, rtol=1e-9, atol=1e-15 * manual.max())
    nulls = np.arange(fft // g, fft // 2 + 1, fft // g)  # the hold's nulls, k = m fft/g
    assert np.all(est.psd[nulls - 1] == 0.0)


def test_row_response_is_the_row_transform_and_exactly_0_at_its_nulls():
    # the N-point transform of row [a, b) of a t0-sample symbol, over t0, is the
    # signed response times exp(-j pi k (a + b - 1) / N)
    n = 4096
    k = np.arange(1, n // 2 + 1)
    for t0, delta in ((64, 3), (64, 8), (48, 16), (8, 1)):
        for a, b in ((0, delta), (delta, t0)):
            row = np.zeros(t0)
            row[a:b] = 1.0
            direct = np.fft.rfft(row, n=n)[1:] / t0
            response = _row_response(n, t0, b - a)
            phase = np.exp(-1j * np.pi * (k * (a + b - 1) % (2 * n)) / n)
            peak = (b - a) / t0
            np.testing.assert_allclose(response * phase, direct, rtol=0, atol=2e-15 * peak)
            nulls = k * (b - a) % n == 0
            assert np.all(response[nulls] == 0.0)
            assert not np.any(response[~nulls] == 0.0)
    # a 2-sample hold has response cos^2(pi k / N) = sin^2(pi (N/2 - k) / N),
    # which the second form evaluates to rounding up to the null at N/2
    n = 262144
    k = np.arange(1, n // 2 + 1)
    expected = np.sin(np.pi * (n // 2 - k) / n) ** 2
    np.testing.assert_allclose(_row_response(n, 2, 2) ** 2, expected, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(_row_response(n, 1, 1), np.ones(n // 2))


def test_estimate_is_bit_identical_for_any_worker_count():
    for cfg in (
        SimConfig(n_symbols=32, n_realizations=70, fft_size=2048, seed=5, params=_transition()),
        SimConfig(n_symbols=32, n_realizations=70, fft_size=2048, seed=5,
                  params=_transition(t0=48)),  # the sample path
        SimConfig(n_symbols=64, n_realizations=70, fft_size=2048, seed=5,
                  params=_blank(t0=32, delta=4)),  # lattice g = 4
        SimConfig(n_symbols=64, n_realizations=12 * 32 + 5, fft_size=1024, seed=2**70 + 3,
                  params=_transition(t0=16, delta=2)),  # many blocks of one seed pass
    ):
        serial = estimate_psd(cfg, workers=1)
        threaded = estimate_psd(cfg, workers=4)
        np.testing.assert_array_equal(serial.psd, threaded.psd)


def test_estimate_draws_its_bits_without_gen_bits(monkeypatch):
    # every block draws from the estimate's one seed pass; gen_bits stays the
    # per-index reference that synthesize_realization and the tests read
    calls = Counter()
    gen_bits = pulsepsd.sim.gen_bits

    def counting(*args, **kwargs):
        calls["gen_bits"] += 1
        return gen_bits(*args, **kwargs)

    monkeypatch.setattr(pulsepsd.sim, "gen_bits", counting)
    for params, n_symbols in (
        (_transition(t0=16, delta=2), 64),  # two rows
        (_transition(t0=24, delta=4), 40),  # one row, lattice 4
        (_blank(t0=32, delta=4), 64),
    ):
        cfg = SimConfig(n_symbols=n_symbols, n_realizations=3 * 32 + 1, fft_size=1024, seed=9,
                        params=params)
        estimate_psd(cfg, workers=1)
    assert calls == Counter()
    synthesize_realization(cfg, 0)
    assert calls == Counter(gen_bits=1)


def test_seed_words_hold_at_most_48_bytes_per_realization():
    # four uint64 words each; a list of Python ints would take about 150 bytes
    cfg = SimConfig(n_symbols=8, n_realizations=20_000, fft_size=64, seed=3,
                    params=_transition(t0=8, delta=3))
    estimate_psd(replace(cfg, n_realizations=40), workers=1)  # numpy's first-call caches
    tracemalloc.start()
    try:
        estimate_psd(cfg, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * cfg.n_realizations, f"{peak / cfg.n_realizations:.1f} bytes per realization"


def test_periodograms_are_taken_at_the_lattice_rate(monkeypatch):
    # criterion 4's gcd(100, 10) = 10 holds one factor 2, so its 262144-point
    # realizations are transformed on 131072 points; gcd(48, 3) = 1 keeps 8192
    seen = Counter()  # (row length, transform points) -> rows transformed
    synthesized = []
    rfft = np.fft.rfft

    def counting(x, n=None, *args, **kwargs):
        rows = np.reshape(x, (-1, np.shape(x)[-1]))
        seen[rows.shape[1], n] += rows.shape[0]
        return rfft(x, n, *args, **kwargs)

    def synthesizing(config, index):
        synthesized.append(index)
        return synthesize_realization(config, index)

    monkeypatch.setattr(pulsepsd.sim.np.fft, "rfft", counting)
    monkeypatch.setattr(pulsepsd.sim, "synthesize_realization", synthesizing)
    criterion4 = SimConfig(n_symbols=2000, n_realizations=2, fft_size=262144, seed=1,
                           params=_blank(t0=100, delta=10))
    assert estimate_psd(criterion4, workers=1).meta["lattice"] == 2
    assert seen == {(131072, 131072): 2}
    seen.clear()
    odd = SimConfig(n_symbols=128, n_realizations=2, fft_size=8192, seed=1,
                    params=_transition(t0=48))
    assert estimate_psd(odd, workers=1).meta["lattice"] == 1
    assert seen == {(6144, 8192): 2}
    seen.clear()
    synthesized.clear()
    # t0 = 64 divides 8192: two rows of symbol coefficients are transformed, no sample is made
    symbols = SimConfig(n_symbols=128, n_realizations=2, fft_size=8192, seed=1,
                        params=_transition())
    assert estimate_psd(symbols, workers=1).meta["transform_points"] == 128
    assert seen == {(128, 128): 4} and synthesized == []
    seen.clear()
    # at delta = 0 the lattice is t0 itself: one sample per symbol, one row
    plain = replace(symbols, params=_transition(delta=0))
    assert estimate_psd(plain, workers=1).meta["lattice"] == 64
    assert seen == {(128, 128): 2}


@pytest.mark.parametrize(
    "params, n_symbols",
    [
        (_transition(t0=2, delta=1), 131072),
        (_transition(t0=4, delta=1), 65536),
        (_blank(t0=100, delta=10, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA), 2000),  # criterion 4
    ],
    ids=["transition-t0=2", "transition-t0=4", "criterion-4"],
)
def test_estimate_memory_is_bounded_by_the_fft_size(params, n_symbols):
    # 96 bytes per FFT point, two dozen float64 arrays of fft_size/2 bins, over two blocks
    fft = 262144
    cfg = SimConfig(n_symbols=n_symbols, n_realizations=33, fft_size=fft, seed=1, params=params)
    tracemalloc.start()
    try:
        estimate_psd(cfg, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * fft, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(n_symbols=128, n_realizations=1, fft_size=8192, seed=2,
                  params=_transition(t0=64, delta=2)),  # lattice g = 2
        SimConfig(n_symbols=128, n_realizations=1, fft_size=8192, seed=2,
                  params=_transition()),  # g = 1
        SimConfig(n_symbols=100, n_realizations=1, fft_size=2048, seed=3,
                  params=_transition(t0=16, delta=2)),  # L = 1600 < N
        SimConfig(n_symbols=1, n_realizations=1, fft_size=8192, seed=2,
                  params=_blank(t0=32, delta=4)),  # g = 4
        SimConfig(n_symbols=1, n_realizations=1, fft_size=8192, seed=2,
                  params=_blank(t0=33, delta=3, law=BlankLaw.GENERATOR_K_MINUS_ONE_DELTA)),
    ],
    ids=["transition-even", "transition-odd", "transition-short", "blank-even", "blank-odd"],
)
def test_uint8_realizations_give_the_float64_periodogram_bit_for_bit(cfg):
    # a 0/1 sum is a whole number in any order, so uint8 and float64 share mean and bits;
    # the config g times shorter is the one whose samples the estimator transforms
    both = cfg.params.t0 | int(cfg.params.delta)
    g = min(both & -both, cfg.fft_size // 4)
    reduced = replace(cfg, fft_size=cfg.fft_size // g, params=replace(
        cfg.params, t0=cfg.params.t0 // g, delta=cfg.params.delta // g))
    for config in (cfg, reduced):
        for i in range(3):
            x = synthesize_realization(config, i)
            assert x.dtype == np.uint8
            half = _half_bins(x, config.fft_size)
            xf = x.astype(np.float64)
            np.testing.assert_array_equal(half, _half_bins(xf, config.fft_size))
            spec = np.fft.rfft(xf - xf.mean(), n=config.fft_size) / len(xf)
            np.testing.assert_array_equal(half, spec.real**2 + spec.imag**2)


@pytest.mark.parametrize(
    "params, drawn",
    [(_transition(t0=16, delta=2), 100), (_blank(t0=16, delta=2), 147)],  # ceil(2048/14)
)
def test_estimate_meta_records_the_symbols_each_realization_drew(params, drawn):
    cfg = SimConfig(n_symbols=100, n_realizations=2, fft_size=2048, seed=1, params=params)
    assert estimate_psd(cfg, workers=1).meta["symbols_drawn"] == drawn


def test_estimate_meta_documents_the_seed_scheme():
    cfg = SimConfig(n_symbols=16, n_realizations=2, fft_size=1024, seed=3, params=_transition())
    meta = estimate_psd(cfg).meta
    assert meta["seed_scheme"] == "SeedSequence((seed, realization_index))"
    assert meta["n_realizations"] == 2
    assert meta["kind"] == "simulated"
    assert meta["lattice"] == 1  # gcd(64, 3) = 1
    assert meta["transform_points"] == 16  # 1024 / 64 symbol slots
    blank = replace(cfg, params=_blank(t0=32, delta=4))
    assert estimate_psd(blank).meta["transform_points"] == 256  # 1024 / lattice 4
    assert estimate_psd(cfg, workers=4).meta["workers"] == 1  # one block, one worker


def test_thread_env_caps_requested_workers(monkeypatch):
    monkeypatch.setenv("PULSEPSD_THREADS", "2")
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    monkeypatch.setenv("PULSEPSD_THREADS", "banana")
    with pytest.raises(ValueError):
        resolve_workers(8)
    # a cap or a request below 1 is refused, not clamped to 1
    monkeypatch.setenv("PULSEPSD_THREADS", "0")
    with pytest.raises(ValueError, match="PULSEPSD_THREADS must be at least 1"):
        resolve_workers(8)
    monkeypatch.delenv("PULSEPSD_THREADS")
    assert resolve_workers(8) == 8
    assert resolve_workers() >= 1
    for requested in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            resolve_workers(requested)


def test_estimate_error_shrinks_like_root_realization_count():
    # group 256 single-shot periodograms and watch the spread of group
    # means fall with group size; the log-log slope should sit near -1/2
    params = TrainParams(Variant.TRANSITION_STRETCH, t0=8, delta=1, prob_one=0.5)
    cfg = SimConfig(n_symbols=64, n_realizations=256, fft_size=512, seed=3, params=params)
    bin_idx = np.arange(10, 210, 10)
    per_real = np.empty((256, len(bin_idx)))
    for i in range(256):
        per_real[i] = periodogram_bins(synthesize_realization(cfg, i), 512)[bin_idx]
    sizes = (2, 8, 32)
    log_std = np.array(
        [
            np.log10(per_real.reshape(256 // r, r, -1).mean(axis=1).std(axis=0, ddof=1))
            for r in sizes
        ]
    )
    x = np.log10(sizes)
    slopes = [np.polyfit(x, log_std[:, j], 1)[0] for j in range(len(bin_idx))]
    assert abs(float(np.mean(slopes)) + 0.5) <= 0.1


@pytest.mark.parametrize("law", list(BlankLaw))
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_biased_blank_estimate_sits_on_the_absolute_closed_form(p, law):
    # simulated bins over bin_power(K |F|^2 Re[(1+theta)/(1-theta)]), K = 1/<T>,
    # on 0.2 < f/f0 < 5 away from the |F|^2 nulls at integer f/f0; the
    # other law's closed form misses the band
    t0, delta, fft = 32, 3, 4096
    params = _blank(t0=t0, delta=delta, law=law, p=p)
    (other,) = set(BlankLaw) - {law}
    grid = FrequencyGrid.fft_bins(fft)
    own = bin_power(psd_blank_shorten(grid, params))
    cross = bin_power(psd_blank_shorten(grid, replace(params, blank_law=other)))
    x = own.freqs * t0
    use = (x > 0.2) & (x < 5.0) & (np.abs(x - np.round(x)) >= 0.1)
    for seed in (1, 2, 3):
        cfg = SimConfig(n_symbols=fft // t0, n_realizations=200, fft_size=fft, seed=seed,
                        params=params)
        simulated = estimate_psd(cfg, workers=1)
        idx = np.searchsorted(simulated.freqs, own.freqs)
        ratio, cross_ratio = (
            float(np.median(simulated.psd[idx][use] / analytic.psd[use]))
            for analytic in (own, cross)
        )
        # the ~3.5% left above 1 is aliasing: the simulator samples at 1 per
        # unit time while the closed form is continuous-time
        assert 0.98 <= ratio <= 1.08, (seed, ratio)
        assert not 0.98 <= cross_ratio <= 1.08, (seed, cross_ratio)


# --- the analytic join ---


def test_compare_join_of_identical_spectra_is_zero():
    fft = 1024
    grid = FrequencyGrid.fft_bins(fft)
    psd = np.linspace(1.0, 2.0, len(grid))
    left = SpectrumGrid(grid=grid, psd=psd)
    right = SpectrumGrid(grid=grid, psd=psd.copy())
    rows, stats = compare_on_common_bins(left, right, 64.0, (0.1, 10.0))
    assert stats["max_abs_diff_db"] == 0.0
    assert all(r[3] == 0.0 for r in rows)
    assert stats["bins_used"] < stats["bins_in_band"]  # null neighborhoods skipped
    assert rows.shape == (len(grid), 4)


def test_compare_rejects_mismatched_grids():
    sim_grid = FrequencyGrid.fft_bins(256)
    sim = SpectrumGrid(grid=sim_grid, psd=np.ones(len(sim_grid)))
    ana = analytic_on_fft_grid(
        TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=3, prob_one=0.55), 8192
    )
    with pytest.raises(ValueError, match="grid mismatch"):
        compare_on_common_bins(ana, sim, 64.0, (0.1, 10.0))
    # analytic bins past the last simulated bin do not join either
    short = SpectrumGrid(grid=FrequencyGrid(sim_grid.values[:-1]), psd=np.ones(len(sim_grid) - 1))
    with pytest.raises(ValueError, match="grid mismatch"):
        compare_on_common_bins(SpectrumGrid(grid=sim_grid, psd=sim.psd), short, 64.0, (0.1, 10.0))
    # nor does an analytic side that lacks some of the simulated bins
    keep = np.ones(len(sim_grid), dtype=bool)
    keep[[0, 15, 16, 100, len(sim_grid) - 1]] = False
    subset = SpectrumGrid(grid=FrequencyGrid(sim_grid.values[keep]), psd=np.ones(np.count_nonzero(keep)))
    with pytest.raises(ValueError, match="grid mismatch"):
        compare_on_common_bins(subset, sim, 64.0, (0.1, 10.0))
