"""Command-line front end: subcommands, files, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

import pulsepsd.peaks
from pulsepsd import (
    FrequencyGrid,
    SpectrumGrid,
    TrainParams,
    Variant,
    __version__,
    db10,
    discrete_lines_transition,
)
from pulsepsd.cli import (
    CliUsageError,
    _parse_deltas,
    analytic_on_fft_grid,
    compare_on_common_bins,
    main,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _load(path):
    return json.loads(path.read_text())


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _load_strict(path):
    """JSON as RFC 8259 defines it: NaN, Infinity and -Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


# --- analytic subcommand ---


def test_analytic_transition_writes_spectrum_lines_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "analytic", "--model", "transition", "--t0", "64", "--delta", "3",
            "--p", "0.55", "--fmax-norm", "10", "--points", "1024",
            "--out-dir", str(out), "--svg",
        ]
    )
    assert code == 0
    spectrum = _read_csv(out / "analytic_spectrum.csv")
    assert spectrum[0] == ["f_normalized", "psd_linear", "psd_db", "kind"]
    assert {r[3] for r in spectrum[1:]} == {"continuous"}
    lines = _read_csv(out / "analytic_lines.csv")
    assert {r[3] for r in lines[1:]} == {"line"}
    assert float(lines[1][0]) == 1.0
    manifest = _load(out / "analytic_manifest.json")
    assert manifest["schema_version"] == 1
    assert manifest["tool"] == "pulsepsd"
    assert manifest["version"] == __version__
    assert manifest["command"] == "analytic"
    assert "analytic_spectrum.csv" in manifest["outputs"]
    assert manifest["duration_s"] >= 0.0
    assert (out / "analytic_spectrum.svg").exists()


def test_analytic_hz_flag_switches_the_frequency_axis(tmp_path):
    norm_dir, hz_dir = tmp_path / "norm", tmp_path / "hz"
    for argv_extra, out in ((), norm_dir), (("--hz",), hz_dir):
        code = main(
            [
                "analytic", "--model", "transition", "--t0", "64", "--delta", "3",
                "--p", "0.55", "--points", "256", "--out-dir", str(out), *argv_extra,
            ]
        )
        assert code == 0
    f_norm = float(_read_csv(norm_dir / "analytic_spectrum.csv")[1][0])
    f_hz = float(_read_csv(hz_dir / "analytic_spectrum.csv")[1][0])
    assert f_hz == pytest.approx(f_norm / 64.0, rel=1e-12)


def test_analytic_blank_normalizes_to_the_second_lobe(tmp_path):
    out = tmp_path / "blank"
    code = main(
        [
            "analytic", "--model", "blank", "--t0", "100", "--delta", "10",
            "--points", "6001", "--out-dir", str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(out / "analytic_spectrum.csv")[1:]
    f = np.array([float(r[0]) for r in rows])
    s = np.array([float(r[1]) for r in rows])
    lobe = (f > 1.25) & (f < 2.0)
    assert s[lobe].max() == pytest.approx(1.0, rel=1e-9)
    assert s.max() > 1.5  # the clock peak rises above the normalized lobe


@pytest.mark.parametrize("command", ["analytic", "compare"])
def test_manifest_reports_what_the_closed_form_dropped_or_clamped(tmp_path, command):
    out = tmp_path / command
    argv = [command, "--model", "transition", "--t0", "16", "--delta", "2", "--p", "0.55"]
    if command == "compare":
        argv += ["--fft", "1024", "--realizations", "2", "--workers", "1"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    diagnostics = _load(out / f"{command}_manifest.json")["diagnostics"]
    assert diagnostics["clamped_points"] == 0
    if command == "analytic":
        # the offset grid never lands on a clock harmonic
        assert diagnostics["dropped_freqs"] == []
    else:
        # FFT bins 64, 128, ..., 512 of 1024 sit on the harmonics k/16
        assert diagnostics["dropped_freqs"] == [k / 16.0 for k in range(1, 9)]


def test_analytic_blank_needs_room_for_the_reference_window(tmp_path, capsys):
    code = main(
        [
            "analytic", "--model", "blank", "--t0", "100", "--delta", "10",
            "--fmax-norm", "1.5", "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "--scale" in capsys.readouterr().err


# --- simulate subcommand ---


def test_simulate_is_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    base = [
        "simulate", "--model", "transition", "--t0", "16", "--delta", "2",
        "--p", "0.55", "--fft", "2048", "--realizations", "70", "--seed", "13",
    ]
    outs = [tmp_path / name for name in ("w1", "w3", "env2")]
    assert main(base + ["--workers", "1", "--out-dir", str(outs[0])]) == 0
    assert main(base + ["--workers", "3", "--out-dir", str(outs[1])]) == 0
    monkeypatch.setenv("PULSEPSD_THREADS", "2")
    assert main(base + ["--out-dir", str(outs[2])]) == 0
    ref = (outs[0] / "simulated_spectrum.csv").read_bytes()
    assert (outs[1] / "simulated_spectrum.csv").read_bytes() == ref
    assert (outs[2] / "simulated_spectrum.csv").read_bytes() == ref


def test_simulate_writes_manifest_and_optional_signal_dump(tmp_path):
    out = tmp_path / "sim"
    dump = tmp_path / "first.txt"
    code = main(
        [
            "simulate", "--model", "transition", "--t0", "16", "--delta", "2",
            "--p", "0.55", "--fft", "1024", "--symbols", "32", "--realizations", "4",
            "--seed", "3", "--out-dir", str(out), "--dump-first-signal", str(dump),
        ]
    )
    assert code == 0
    rows = _read_csv(out / "simulated_spectrum.csv")
    assert rows[0] == ["f_normalized", "psd_linear", "psd_db", "kind"]
    assert {r[3] for r in rows[1:]} == {"simulated"}
    assert len(rows) == 1 + 512
    assert len(dump.read_text().splitlines()) == 32 * 16
    manifest = _load(out / "simulate_manifest.json")
    assert manifest["command"] == "simulate"
    assert "first.txt" in manifest["outputs"]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_manifest_records_the_resolved_config_and_workers_used(tmp_path, monkeypatch, command):
    # --symbols alone leaves the raw --fft flag null; the manifest must
    # still say which FFT size, seed scheme and worker count were used
    monkeypatch.setenv("PULSEPSD_THREADS", "2")
    out = tmp_path / command
    code = main(
        [
            command, "--model", "transition", "--t0", "16", "--delta", "2",
            "--p", "0.55", "--symbols", "100", "--realizations", "70", "--seed", "5",
            "--workers", "3", "--out-dir", str(out),
        ]
    )
    assert code == 0
    manifest = _load(out / f"{command}_manifest.json")
    assert manifest["params"]["fft"] is None
    assert manifest["sim"] == {
        "fft_size": 2048,
        "n_symbols": 100,
        "n_realizations": 70,
        "seed": 5,
        "seed_scheme": "SeedSequence((seed, realization_index))",
        "workers": 2,
        "lattice": 2,  # gcd(16, 2) = 2: each periodogram is taken on 1024 points
    }


# --- compare subcommand ---


def test_compare_runs_end_to_end(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare", "--model", "transition", "--t0", "64", "--delta", "3",
            "--p", "0.55", "--fft", "8192", "--realizations", "300", "--seed", "21",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert "max |analytic - simulated|" in capsys.readouterr().out
    rows = _read_csv(out / "compare.csv")
    assert rows[0] == ["f_normalized", "analytic_db", "simulated_db", "diff_db"]
    summary = _load(out / "compare_summary.json")
    assert summary["schema_version"] == 1
    assert summary["bins_used"] > 100
    assert summary["max_abs_diff_db"] < 3.0  # loose: 300 runs on a coarse fft


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
    # an analytic side that dropped bins joins the simulated bins it kept
    keep = np.ones(len(grid), dtype=bool)
    keep[[0, 15, 16, 200, len(grid) - 1]] = False
    subset = SpectrumGrid(grid=FrequencyGrid(grid.values[keep]), psd=psd[keep] * 2.0)
    rows, _ = compare_on_common_bins(subset, right, 64.0, (0.1, 10.0))
    assert rows.shape == (np.count_nonzero(keep), 4)
    np.testing.assert_array_equal(rows[:, 0], grid.values[keep] * 64.0)
    np.testing.assert_array_equal(rows[:, 2], db10(right.psd)[keep])


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


def test_analytic_on_fft_grid_keeps_line_power(tmp_path):
    params = TrainParams(Variant.TRANSITION_STRETCH, t0=64, delta=3, prob_one=0.55)
    spec = analytic_on_fft_grid(params, 4096)
    assert spec.meta["kind"] == "combined"
    # the bin nearest the clock frequency carries the k=1 line power plus
    # a deep-null continuum sliver, so it is line-dominated
    f = spec.freqs
    i_line = int(np.argmin(np.abs(f - 1.0 / 64.0)))
    line = discrete_lines_transition(1, params).power[0]
    assert spec.psd[i_line] == pytest.approx(line, rel=0.05)
    assert spec.psd[i_line] > 4 * spec.psd[i_line - 3]


# --- peaks-sweep subcommand ---


def test_peaks_sweep_analytic_writes_report_and_csv(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "peaks-sweep", "--t0", "100", "--deltas", "2,6,10", "--source", "analytic",
            "--law", "generator", "--out-dir", str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert rows[0] == ["delta", "center_freq_norm", "amplitude_linear", "fwhm_norm"]
    assert [float(r[0]) for r in rows[1:]] == [2.0, 6.0, 10.0]
    report = _load(out / "sweep_report.json")
    assert report["schema_version"] == 1
    assert report["monotonicity"]["peak_height_nonincreasing"]["holds"] is True
    assert report["monotonicity"]["fwhm_nondecreasing"]["holds"] is True
    assert report["center_fit"]["r_squared"] > 0.9
    item = report["items"][-1]
    assert set(item) == {
        "delta", "center_freq_norm", "amplitude_linear", "fwhm_norm",
        "second_lobe_max", "peak_height",
    }
    assert set(report["center_fit"]) == {"slope", "intercept", "r_squared"}
    assert item["delta"] == 10.0
    assert item["amplitude_linear"] == pytest.approx(2.1586283777211532, rel=1e-6)
    assert item["peak_height"] == pytest.approx(
        item["amplitude_linear"] * item["second_lobe_max"], rel=1e-12
    )
    assert (out / "peaks_sweep_manifest.json").exists()


def test_peaks_sweep_simulated_matches_frozen_reference(tmp_path):
    out = tmp_path / "psim"
    code = main(
        [
            "peaks-sweep", "--t0", "32", "--deltas", "3", "--source", "simulated",
            "--fft", "32768", "--realizations", "150", "--symbols", "512",
            "--seed", "5", "--out-dir", str(out),
        ]
    )
    assert code == 0
    report = _load(out / "sweep_report.json")
    assert report["sim"]["fft_size"] == 32768
    item = report["items"][0]
    assert item["center_freq_norm"] == pytest.approx(1.0478515625, abs=1e-9)
    assert item["amplitude_linear"] == pytest.approx(1.6732495563322902, rel=1e-9)


def test_peaks_sweep_simulated_passes_workers_on_and_is_byte_identical(tmp_path, monkeypatch):
    seen = []
    real_estimate = pulsepsd.peaks.estimate_psd

    def recording_estimate(config, workers=None):
        seen.append(workers)
        return real_estimate(config, workers=workers)

    monkeypatch.setattr(pulsepsd.peaks, "estimate_psd", recording_estimate)
    argv = [
        "peaks-sweep", "--t0", "32", "--deltas", "3", "--source", "simulated",
        "--fft", "32768", "--realizations", "40", "--symbols", "512", "--seed", "5",
    ]
    outs = [tmp_path / "w1", tmp_path / "w2"]
    assert main(argv + ["--workers", "1", "--out-dir", str(outs[0])]) == 0
    assert main(argv + ["--workers", "2", "--out-dir", str(outs[1])]) == 0
    assert seen == [1, 2]
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()


def test_peaks_sweep_windows_are_clipped_to_the_sweep_span(tmp_path, capsys):
    sweep = ["peaks-sweep", "--t0", "100", "--deltas", "2,6", "--source", "analytic"]
    runs = {name: tmp_path / name for name in ("default", "window", "lobe")}
    assert main(sweep + ["--out-dir", str(runs["default"])]) == 0
    assert main(sweep + ["--window", "0.8:inf", "--out-dir", str(runs["window"])]) == 0
    assert main(sweep + ["--lobe-window", "1:inf", "--out-dir", str(runs["lobe"])]) == 0
    # the clock peak is the maximum over all of (0.8, 3], so nothing moves
    default_csv = (runs["default"] / "sweep.csv").read_bytes()
    assert (runs["window"] / "sweep.csv").read_bytes() == default_csv
    assert [row[0] for row in _read_csv(runs["lobe"] / "sweep.csv")[1:]] == ["2.0", "6.0"]
    # the report records the windows searched, clipped to the 0.3..3 f/f0 span
    for name, window, lobe in (
        ("default", [0.8, 1.3], [1.0, 2.0]),
        ("window", [0.8, 3.0], [1.0, 2.0]),
        ("lobe", [0.8, 1.3], [1.0, 3.0]),
    ):
        for path in runs[name].glob("*.json"):
            _load_strict(path)
        report = _load_strict(runs[name] / "sweep_report.json")
        assert (report["window_norm"], report["lobe_window_norm"]) == (window, lobe)
    out = tmp_path / "outside"
    assert main(sweep + ["--window", "5:6", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no grid points inside the peak window" in err and err.count("\n") == 1
    assert not (out / "sweep.csv").exists()


def test_open_ended_windows_and_bands_are_recorded_clipped_as_json(tmp_path):
    # a simulated sweep searches FFT bins up to t0/2 f/f0; compare's band
    # is clipped to the same span
    sim = ["--fft", "4096", "--realizations", "8", "--seed", "3", "--workers", "1"]
    sweep = tmp_path / "sweep"
    argv = ["peaks-sweep", "--t0", "32", "--deltas", "4,8", "--source", "simulated",
            "--window", "0.8:inf", "--lobe-window=-inf:2", "--out-dir", str(sweep)]
    assert main(argv + sim) == 0
    report = _load_strict(sweep / "sweep_report.json")
    assert (report["window_norm"], report["lobe_window_norm"]) == ([0.8, 16.0], [0.0, 2.0])
    compare = tmp_path / "compare"
    argv = ["compare", "--model", "transition", "--t0", "32", "--delta", "2", "--p", "0.55",
            "--band", "0.2:inf", "--out-dir", str(compare)]
    assert main(argv + sim) == 0
    assert _load_strict(compare / "compare_summary.json")["band_norm"] == [0.2, 16.0]
    for path in [*sweep.glob("*.json"), *compare.glob("*.json")]:
        _load_strict(path)


def test_blank_closed_forms_take_any_p(tmp_path):
    for p in ("0.3", "0.7"):
        argv = ["analytic", "--model", "blank", "--t0", "100", "--delta", "10", "--p", p]
        assert main(argv + ["--out-dir", str(tmp_path / p)]) == 0
    out = tmp_path / "sweep"
    argv = ["peaks-sweep", "--t0", "100", "--deltas", "1:10:1", "--source", "analytic",
            "--p", "0.7", "--workers", "1"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    report = _load(out / "sweep_report.json")
    assert report["law"] == "paper"
    assert report["monotonicity"]["peak_height_nonincreasing"]["holds"] is True
    assert report["monotonicity"]["fwhm_nondecreasing"]["holds"] is True


def test_blank_compare_defaults_to_the_synthesized_law_in_absolute_units(tmp_path):
    argv = ["compare", "--model", "blank", "--t0", "32", "--delta", "3", "--fft", "8192",
            "--realizations", "200", "--seed", "9"]
    unset, generator = tmp_path / "unset", tmp_path / "generator"
    assert main(argv + ["--out-dir", str(unset)]) == 0
    assert main(argv + ["--law", "generator", "--out-dir", str(generator)]) == 0
    csv_bytes = (unset / "compare.csv").read_bytes()
    assert csv_bytes == (generator / "compare.csv").read_bytes()
    assert _load(unset / "compare_manifest.json")["params"]["law"] == "generator"
    # K = 1/<T> puts the closed form on the simulated level (17 dB off without it)
    assert _load(unset / "compare_summary.json")["mean_abs_diff_db"] < 1.0


# --- config files and precedence ---


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# simulation preset\n"
        "model = transition\n"
        "t0 = 16\n"
        "delta = 2\n"
        "p = 0.55\n"
        "fft = 1024\n"
        "realizations = 20\n"
        "seed = 4\n"
    )
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", str(conf), "--out-dir", str(b)]) == 0
    assert main(["simulate", "--config", str(conf), "--seed", "5", "--out-dir", str(c)]) == 0
    ref = (a / "simulated_spectrum.csv").read_bytes()
    assert (b / "simulated_spectrum.csv").read_bytes() == ref
    assert (c / "simulated_spectrum.csv").read_bytes() != ref


# --- exit codes ---


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["analytic", "--model", "transition", "--t0", "64", "--bogus"]) == 1
    code = main(
        ["analytic", "--model", "transition", "--t0", "64", "--delta", "70",
         "--out-dir", str(tmp_path / "x")]
    )
    assert code == 1
    assert "delta" in capsys.readouterr().err
    small = ["--t0", "16", "--delta", "2", "--fft", "1024", "--realizations", "4"]
    blank = ["--model", "blank", "--t0", "32", "--delta", "3"]
    sweep = ["peaks-sweep", "--t0", "100", "--deltas", "2,6,10", "--source", "analytic"]
    # a flag the chosen model or source would ignore is refused, not dropped
    for argv, flag in (
        (["analytic", *blank, "--k-max", "5"], "--k-max"),
        (["compare", *blank, "--fft", "1024", "--realizations", "4", "--k-max", "5"], "--k-max"),
        (["analytic", "--model", "transition", "--t0", "64", "--law", "paper"], "--law"),
        (["simulate", "--model", "transition", *small, "--law", "generator"], "--law"),
        (sweep + ["--fft", "7"], "--fft"),
        (sweep + ["--symbols", "40"], "--symbols"),
        (sweep + ["--realizations", "10"], "--realizations"),
        (sweep + ["--seed", "3"], "--seed"),
        (sweep + ["--workers", "0"], "workers"),
        # only analytic and simulate write raw frequencies
        (["compare", "--model", "transition", *small, "--hz"], "--hz"),
        (sweep + ["--hz"], "--hz"),
        # the paper law has no synthesizer yet
        (["simulate", *blank, "--fft", "1024", "--realizations", "4", "--law", "paper"], "--law"),
        (["compare", *blank, "--fft", "1024", "--realizations", "4", "--law", "paper"], "--law"),
        (["peaks-sweep", "--t0", "32", "--deltas", "3", "--source", "simulated",
          "--fft", "1024", "--law", "paper"], "--law"),
        # a harmonic count below 1 is refused, not raised to 1
        (["compare", "--model", "transition", *small, "--k-max", "0"], "k_max"),
        (["compare", "--model", "transition", *small, "--k-max=-3"], "k_max"),
    ):
        out = tmp_path / "y"
        assert main(argv + ["--out-dir", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert flag in err and err.count("\n") == 1, err
        assert not any(out.glob("*.csv"))
    # a worker count below 1 is refused, not clamped
    for workers in ("0", "-3"):
        code = main(["simulate", "--model", "transition", *small, "--workers", workers,
                     "--out-dir", str(tmp_path / "w")])
        assert code == 1
        err = capsys.readouterr().err
        assert "workers" in err and err.count("\n") == 1
    assert not (tmp_path / "w" / "simulated_spectrum.csv").exists()
    # a runaway --deltas range is refused from its count, before any list is built
    for text in ("0:1:1e-6", "0:1:1e-9", "0:inf:1", "0:10000:1"):
        with pytest.raises(CliUsageError, match="--deltas") as exc:
            _parse_deltas(text)
        assert "\n" not in str(exc.value)
    assert len(_parse_deltas("0:9999:1")) == 10_000
    # a summary band with no usable bins exits before writing any file
    band_out = tmp_path / "band"
    code = main(["compare", "--model", "transition", *small, "--band", "50:60",
                 "--out-dir", str(band_out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--band" in err and err.count("\n") == 1
    assert not (band_out / "compare.csv").exists()


@pytest.mark.parametrize("model", ["transition", "blank"])
def test_analytic_scale_outside_zero_to_inf_exits_one(tmp_path, capsys, model):
    for scale in ("-1", "0", "nan"):
        out = tmp_path / scale
        argv = ["analytic", "--model", model, "--t0", "64", "--delta", "3", "--scale", scale]
        assert main(argv + ["--out-dir", str(out)]) == 1, scale
        err = capsys.readouterr().err
        assert "scale" in err and err.count("\n") == 1, err
        assert not any(out.glob("*.csv"))


def test_fractional_delta_runs_closed_forms_and_is_refused_by_synthesis(tmp_path, capsys):
    for model in ("transition", "blank"):
        argv = ["analytic", "--model", model, "--t0", "64", "--delta", "2.5", "--scale", "1"]
        assert main(argv + ["--out-dir", str(tmp_path / model)]) == 0
    for argv in (
        ["simulate", "--model", "transition", "--t0", "16", "--delta", "2.5", "--fft", "1024",
         "--realizations", "4"],
        ["peaks-sweep", "--t0", "32", "--deltas", "1.5", "--source", "simulated",
         "--fft", "1024", "--realizations", "4"],
    ):
        out = tmp_path / "refused"
        assert main(argv + ["--out-dir", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert "delta" in err and err.count("\n") == 1, err
        assert not any(out.glob("*.csv"))


def test_detection_failures_exit_two(tmp_path, capsys):
    code = main(
        ["peaks-sweep", "--t0", "100", "--deltas", "0", "--source", "analytic",
         "--out-dir", str(tmp_path / "x")]
    )
    assert code == 2
    assert "detection failure" in capsys.readouterr().err
