"""Command-line front end: subcommands, files, exit codes, determinism."""

import csv
import json
import sys
import warnings

import numpy as np
import pytest

import pulsepsd.peaks
from pulsepsd import __version__
from pulsepsd.cli import CliUsageError, _parse_deltas, main


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


def test_analytic_transition_runs_next_to_p_one(tmp_path):
    # a zero has probability 1e-13: every run law is still finite, so lines are written
    out = tmp_path / "run"
    argv = ["analytic", "--model", "transition", "--t0", "64", "--delta", "3",
            "--p", "0.9999999999999", "--out-dir", str(out)]
    assert main(argv) == 0
    rows = _read_csv(out / "analytic_lines.csv")[1:]
    k = np.array([float(r[0]) for r in rows])
    p = 0.9999999999999
    expected = (np.sin(np.pi * k * 3 / 64) * p * (1 - p) / (k * np.pi)) ** 2
    np.testing.assert_allclose([float(r[1]) for r in rows], expected, rtol=1e-9)


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
def test_manifest_reports_limit_freqs(tmp_path, command):
    out = tmp_path / command
    argv = [command, "--model", "transition", "--t0", "16", "--delta", "2", "--p", "0.55"]
    if command == "compare":
        argv += ["--fft", "1024", "--realizations", "200", "--seed", "3", "--workers", "1"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    diagnostics = _load(out / f"{command}_manifest.json")["diagnostics"]
    # nothing is dropped or clamped: the manifest names where the limit was taken
    assert set(diagnostics) == {"limit_freqs"}
    if command == "analytic":
        # the offset grid never lands on a clock harmonic
        assert diagnostics["limit_freqs"] == []
    else:
        # FFT bins 64, 128, ..., 512 of 1024 sit on the harmonics k/16
        assert diagnostics["limit_freqs"] == [k / 16.0 for k in range(1, 9)]
        # each has its row, which holds the line, and agrees with the estimate
        # like the row below it does (0.05 and 0.12 dB at k = 1, 0.49 and 0.62 dB at k = 2)
        rows = {float(r[0]): float(r[3]) for r in _read_csv(out / "compare.csv")[1:]}
        for k in (1.0, 2.0):
            assert abs(rows[k]) < 1.0 and abs(rows[k - 16 / 1024]) < 1.0


def test_analytic_blank_needs_room_for_the_reference_window(tmp_path, capsys):
    code = main(
        [
            "analytic", "--model", "blank", "--t0", "100", "--delta", "10",
            "--fmax-norm", "1.5", "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "--scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, scale",
    [("transition", "0.25"), ("blank", "0.25"), ("transition", "1e306")],
)
def test_analytic_scale_multiplies_the_written_spectrum_bit_for_bit(tmp_path, model, scale):
    # the density is absolute; --scale multiplies the finished spectrum, so
    # a scale that would overflow a closed form's prefactor still writes
    argv = ["analytic", "--model", model, "--t0", "64", "--delta", "3", "--p", "0.55"]
    runs = {}
    for name, given in (("unscaled", "1"), ("scaled", scale)):
        assert main(argv + ["--scale", given, "--out-dir", str(tmp_path / name)]) == 0
        rows = _read_csv(tmp_path / name / "analytic_spectrum.csv")[1:]
        runs[name] = np.array([[float(r[0]), float(r[1])] for r in rows])
    unscaled, scaled = runs["unscaled"], runs["scaled"]
    np.testing.assert_array_equal(scaled[:, 0], unscaled[:, 0])
    np.testing.assert_array_equal(scaled[:, 1], float(scale) * unscaled[:, 1])


def test_analytic_manifest_records_the_scale_of_each_data_file(tmp_path):
    # --scale multiplies the spectrum, never the lines, which stay unit-amplitude
    transition = ["analytic", "--model", "transition", "--t0", "64", "--delta", "3"]
    assert main(transition + ["--scale", "0.25", "--out-dir", str(tmp_path / "scaled")]) == 0
    scale = _load(tmp_path / "scaled" / "analytic_manifest.json")["scale"]
    assert scale == {"analytic_spectrum.csv": 0.25, "analytic_lines.csv": 1.0}
    assert main(transition + ["--out-dir", str(tmp_path / "unscaled")]) == 0
    lines = "analytic_lines.csv"
    assert (tmp_path / "scaled" / lines).read_bytes() == (tmp_path / "unscaled" / lines).read_bytes()
    unscaled = _load(tmp_path / "unscaled" / "analytic_manifest.json")["scale"]
    assert unscaled == {"analytic_spectrum.csv": 1.0, "analytic_lines.csv": 1.0}
    # blank without --scale is divided by its second-lobe maximum
    blank = ["analytic", "--model", "blank", "--t0", "100", "--delta", "10"]
    assert main(blank + ["--out-dir", str(tmp_path / "normed")]) == 0
    assert main(blank + ["--scale", "1", "--out-dir", str(tmp_path / "raw")]) == 0
    (factor,) = _load(tmp_path / "normed" / "analytic_manifest.json")["scale"].values()
    raw, normed = (
        np.array([float(r[1]) for r in _read_csv(tmp_path / d / "analytic_spectrum.csv")[1:]])
        for d in ("raw", "normed")
    )
    np.testing.assert_allclose(normed, raw * factor, rtol=1e-15)


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
        "symbols_drawn": 100,
        "n_realizations": 70,
        "seed": 5,
        "seed_scheme": "SeedSequence((seed, realization_index))",
        "workers": 2,
        "lattice": 2,  # gcd(16, 2) = 2
        # 16 divides 2048: each realization's symbol sequences are transformed on 128 points
        "transform_points": 128,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--model", "transition", "--t0", "64", "--delta", "3", "--p", "0.55"],
        ["simulate", "--model", "transition", "--t0", "16", "--delta", "2", "--fft", "2048",
         "--realizations", "40", "--seed", "3"],
    ],
    ids=["analytic", "simulate"],
)
def test_manifest_records_the_environment_and_data_files_repeat_byte_for_byte(tmp_path, argv):
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert main(argv + ["--out-dir", str(out)]) == 0
    manifest = f"{argv[0]}_manifest.json"
    environment = _load(runs[0] / manifest)["environment"]
    assert set(environment) == {"cpu_count", "numpy", "python", "peak_rss_mb"}
    assert environment["numpy"] == np.__version__
    assert environment["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert environment["peak_rss_mb"] > 0.0
    outputs = _load(runs[0] / manifest)["outputs"]
    assert outputs == _load(runs[1] / manifest)["outputs"] and outputs
    for name in outputs:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


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
    for p in ("0.3", "0.7", "1e-13"):
        argv = ["analytic", "--model", "blank", "--t0", "100", "--delta", "10", "--p", p]
        assert main(argv + ["--out-dir", str(tmp_path / p)]) == 0
    # the FFT-grid join evaluates the same run pair as analytic, at every bin
    argv = ["compare", "--model", "blank", "--t0", "100", "--delta", "10", "--fft", "1024",
            "--p", "1e-13", "--realizations", "4"]
    assert main(argv + ["--out-dir", str(tmp_path / "compare")]) == 0
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
    # and the paper law's closed form sits on the paper-law synthesizer
    paper = tmp_path / "paper"
    assert main(argv + ["--law", "paper", "--out-dir", str(paper)]) == 0
    assert _load(paper / "compare_summary.json")["mean_abs_diff_db"] < 1.0


def test_blank_simulations_run_the_paper_law(tmp_path):
    # compare runs it above; delta up to t0/2, at 16 every zero after a one is empty
    paper = ["--t0", "32", "--realizations", "16", "--seed", "9", "--law", "paper"]
    for name, argv in (
        ("simulate", ["simulate", "--model", "blank", "--delta", "3", "--fft", "2048", *paper]),
        ("peaks_sweep", ["peaks-sweep", "--source", "simulated", "--deltas", "2,4,16",
                         "--fft", "8192", *paper]),
    ):
        out = tmp_path / name
        assert main(argv + ["--out-dir", str(out)]) == 0, argv
        assert _load(out / f"{name}_manifest.json")["params"]["law"] == "paper"


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


def test_config_flag_prefix_loads_the_file(tmp_path):
    # argparse takes --conf for --config, so the file must be read, not dropped
    conf = tmp_path / "run.conf"
    conf.write_text("p = 0.55\ndelta = 3\n")
    out = tmp_path / "out"
    argv = ["analytic", "--model", "transition", "--t0", "64", "--conf", str(conf)]
    assert main(argv + ["--out-dir", str(out)]) == 0
    params = _load(out / "analytic_manifest.json")["params"]
    assert (params["prob-one"], params["delta"]) == (0.55, 3.0)


def test_config_files_splice_in_order_and_flags_still_win(tmp_path):
    first, second = tmp_path / "first.conf", tmp_path / "second.conf"
    first.write_text(
        "model = transition\nt0 = 16\ndelta = 2\nfft = 1024\nrealizations = 4\nseed = 4\n"
    )
    second.write_text("realizations = 8\nseed = 6\n")
    runs = []

    def resolved(*argv):
        out = tmp_path / f"run{len(runs)}"
        runs.append(out)
        assert main(["simulate", *argv, "--out-dir", str(out)]) == 0
        params = _load(out / "simulate_manifest.json")["params"]
        return params["delta"], params["realizations"], params["seed"]

    assert resolved("--config", str(first), f"--config={second}") == (2.0, 8, 6)
    assert resolved("--config", str(second), "--config", str(first)) == (2.0, 4, 4)
    assert resolved("--config", str(first), "--config", str(second), "--seed", "9") == (2.0, 8, 9)
    assert resolved("--seed", "9", "--config", str(first), "--config", str(second)) == (2.0, 8, 9)


def test_config_without_a_path_or_nested_exits_one(tmp_path, capsys):
    assert main(["simulate", "--config"]) == 1
    err = capsys.readouterr().err
    assert "--config" in err and err.count("\n") == 1, err
    inner = tmp_path / "inner.conf"
    inner.write_text("seed = 5\n")
    nested = tmp_path / "nested.conf"
    out = tmp_path / "out"
    for key in ("config", "conf"):
        nested.write_text(
            f"model = transition\nt0 = 16\nfft = 1024\nrealizations = 4\n{key} = {inner}\n"
        )
        assert main(["simulate", "--config", str(nested), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "nested.conf:5" in err and err.count("\n") == 1, err
    assert not out.exists()


def test_config_booleans_switch_both_ways(tmp_path, capsys):
    on, off = tmp_path / "on.conf", tmp_path / "off.conf"
    on.write_text("model = blank\nt0 = 100\ndelta = 10\nsvg = true\nhz = true\n")
    off.write_text("svg = false\nhz = false\n")

    def run(*argv):
        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        assert main(["analytic", *argv, "--out-dir", str(out)]) == 0
        params = _load(out / "analytic_manifest.json")["params"]
        assert (out / "analytic_spectrum.svg").exists() == params["svg"]
        return params["svg"], params["hz"]

    assert run("--config", str(on)) == (True, True)
    assert run("--config", str(on), "--no-svg") == (False, True)
    assert run("--config", str(on), "--config", str(off)) == (False, False)
    assert run("--config", str(off), "--config", str(on)) == (True, True)
    law = tmp_path / "law.conf"
    law.write_text("law = false\n")
    argv = ["analytic", "--model", "blank", "--t0", "100", "--config", str(law)]
    assert main(argv + ["--out-dir", str(tmp_path / "law")]) == 1
    assert "--no-law" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, chart",
    [
        (["simulate", "--model", "transition", "--t0", "16", "--delta", "2", "--fft", "1024",
          "--realizations", "4", "--seed", "1"], "simulated_spectrum.svg"),
        (["compare", "--model", "transition", "--t0", "16", "--delta", "2", "--fft", "1024",
          "--realizations", "4", "--seed", "1"], "compare.svg"),
        (["peaks-sweep", "--t0", "100", "--deltas", "2,6,10"], "sweep.svg"),
    ],
    ids=["simulate", "compare", "peaks-sweep"],
)
def test_svg_adds_a_listed_chart_and_leaves_the_data_files_alone(tmp_path, argv, chart):
    manifest = f"{argv[0].replace('-', '_')}_manifest.json"
    outputs = {}
    for flag in ("--svg", "--no-svg"):
        out = tmp_path / flag
        assert main(argv + [flag, "--workers", "1", "--out-dir", str(out)]) == 0
        outputs[flag] = _load(out / manifest)["outputs"]
    assert outputs["--svg"] == outputs["--no-svg"] + [chart]
    assert (tmp_path / "--svg" / chart).read_text().startswith("<svg")
    assert not (tmp_path / "--no-svg" / chart).exists()
    for name in outputs["--no-svg"]:
        assert (tmp_path / "--svg" / name).read_bytes() == (tmp_path / "--no-svg" / name).read_bytes()


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
    paper_over = ["--t0", "32", "--fft", "1024", "--law", "paper"]
    compare = ["compare", "--model", "transition", *small]
    missing = tmp_path / "missing.conf"
    no_equals = tmp_path / "no_equals.conf"
    no_equals.write_text("model = transition\nt0 16\n")
    no_key = tmp_path / "no_key.conf"
    no_key.write_text("model = transition\n = 16\n")
    for argv, flag in (
        # a malformed LO:HI pair or --deltas list is refused before any work
        (compare + ["--band", "5"], "--band"),
        (compare + ["--band", "a:b"], "--band"),
        (compare + ["--band", "3:1"], "--band"),
        (sweep + ["--window", "1.3:0.8"], "--window"),
        (sweep + ["--lobe-window", "x"], "--lobe-window"),
        (sweep + ["--deltas", "1:2"], "--deltas"),
        (sweep + ["--deltas", "a:b:c"], "--deltas"),
        (sweep + ["--deltas", "5:1:1"], "--deltas"),
        (sweep + ["--deltas", "x,y"], "--deltas"),
        (sweep + ["--deltas", ","], "--deltas"),
        (sweep + ["--deltas", ",".join(["1"] * 10_001)], "--deltas"),
        # a config file that cannot be read or parsed
        (["simulate", "--config", str(missing)], "missing.conf"),
        (["simulate", "--config", str(no_equals)], "no_equals.conf:2"),
        (["simulate", "--config", str(no_key)], "no_key.conf:2: empty key"),
        # a simulation needs a length
        (["simulate", "--model", "transition", "--t0", "16", "--realizations", "4"], "--fft"),
        # a flag the chosen model or source would ignore is refused, not dropped
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
        # the paper law cuts a zero after a one to t0 - 2 delta samples
        (["simulate", *paper_over, "--model", "blank", "--delta", "17"], "delta"),
        (["compare", *paper_over, "--model", "blank", "--delta", "17"], "delta"),
        (["peaks-sweep", *paper_over, "--deltas", "2,17", "--source", "simulated"], "delta"),
        # so the paper-law closed forms refuse it too: pulses would overlap
        (["analytic", "--model", "blank", "--t0", "100", "--delta", "60", "--law", "paper"],
         "delta <= t0/2"),
        (sweep + ["--deltas", "10,60"], "delta <= t0/2"),
        # P^2 of a run law would underflow
        (["simulate", "--model", "transition", *small, "--p", "1e-200"], "prob_one"),
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
    for scale in ("-1", "0", "nan", "inf"):
        out = tmp_path / scale
        argv = ["analytic", "--model", model, "--t0", "64", "--delta", "3", "--scale", scale]
        assert main(argv + ["--out-dir", str(out)]) == 1, scale
        err = capsys.readouterr().err
        assert "scale" in err and err.count("\n") == 1, err
        assert not any(out.glob("*.csv"))


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--model", "blank", "--t0", "64", "--delta", "3", "--scale", "1e308"],
         ["--scale 1e+308 overflows", "peak is 15.7896"]),
        (["--model", "transition", "--t0", "64", "--fmax-norm", "1e-300"],
         ["--fmax-norm 1e-300", "--points 4096", "f/f0 = 1.2207e-304", "must be finite"]),
        (["--model", "blank", "--t0", "64", "--delta", "3", "--fmax-norm", "1e-300",
          "--scale", "1"],
         ["--fmax-norm 1e-300", "--points 20001", "f/f0 = 2.49988e-305", "must be finite"]),
    ],
    ids=["overflowing-scale", "vanishing-grid", "vanishing-blank-grid"],
)
def test_non_finite_spectra_exit_one_with_one_line_and_no_warning(tmp_path, capsys, argv, cause):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analytic", *argv, "--out-dir", str(tmp_path / "x")]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(part in err for part in cause), err
    assert not any((tmp_path / "x").glob("*.csv"))


def test_a_grid_on_a_blank_resonance_writes_the_limit_zero(tmp_path):
    # the one grid point sits on the clock harmonic, where delta = 0 makes the
    # front process periodic: the continuum takes its limit there, exactly 0
    argv = ["analytic", "--model", "blank", "--t0", "64", "--delta", "0", "--fmax-norm", "2",
            "--points", "1", "--scale", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "analytic_spectrum.csv")[1:]
    assert [(float(r[0]), float(r[1])) for r in rows] == [(1.0, 0.0)]
    assert _load(tmp_path / "analytic_manifest.json")["diagnostics"]["limit_freqs"] == [1 / 64]


def test_an_unallocatable_grid_exits_one_with_one_line(tmp_path, capsys):
    # numpy refuses the 7.28 TiB grid at once, so no memory is committed
    argv = ["analytic", "--model", "transition", "--t0", "64", "--points", "1000000000000"]
    assert main(argv + ["--out-dir", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err, err
    assert not any((tmp_path / "x").glob("*.csv"))


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


def test_unwritable_paths_exit_one(tmp_path, capsys):
    small = ["simulate", "--model", "transition", "--t0", "16", "--delta", "2",
             "--fft", "1024", "--realizations", "4"]
    out = tmp_path / "out"
    dump = tmp_path / "nodir" / "x.txt"
    assert main(small + ["--out-dir", str(out), "--dump-first-signal", str(dump)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nodir" in err and err.count("\n") == 1, err
    assert not (out / "simulated_spectrum.csv").exists()
    # an --out-dir naming an existing file
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(small + ["--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "taken" in err and err.count("\n") == 1, err
