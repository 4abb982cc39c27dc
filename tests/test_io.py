"""Deterministic CSV/JSON/SVG writers and dB conversion."""

import csv
import json
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsepsd import (
    DiscreteLineSet,
    FrequencyGrid,
    SimConfig,
    SpectrumGrid,
    TrainParams,
    Variant,
    synthesize_realization,
)
from pulsepsd.io import (
    _CHUNK_ROWS,
    _repr_rows,
    db10,
    write_compare_csv,
    write_json,
    write_lines_csv,
    write_signal_txt,
    write_spectrum_csv,
    write_svg,
    write_sweep_csv,
)


SPECTRUM = ["f_normalized", "psd_linear", "psd_db", "kind"]
COMPARE = ["f_normalized", "analytic_db", "simulated_db", "diff_db"]
SWEEP = ["delta", "center_freq_norm", "amplitude_linear", "fwhm_norm"]


def _spectrum() -> SpectrumGrid:
    grid = FrequencyGrid(np.array([0.25 / 64, 0.5 / 64, 0.75 / 64]))
    return SpectrumGrid(grid=grid, psd=np.array([1.5, 0.0, 3.25e-7]), meta={"kind": "binned"})


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_db_conversion_and_floor():
    assert db10(100.0) == pytest.approx(20.0)
    assert db10(1.0) == 0.0
    assert db10(0.0) == -300.0
    assert db10(1e-31) == -300.0
    out = db10(np.array([10.0, 0.0, 1e-40]))
    np.testing.assert_allclose(out, [10.0, -300.0, -300.0])


def test_spectrum_csv_schema_and_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, _spectrum(), t0=64.0)
    rows = _read(path)
    assert rows[0] == ["f_normalized", "psd_linear", "psd_db", "kind"]
    assert len(rows) == 4
    assert [r[3] for r in rows[1:]] == ["binned"] * 3
    # shortest round-trip floats: parsing the text recovers exact values
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)
    assert float(rows[1][1]) == 1.5
    assert float(rows[3][1]) == 3.25e-7
    assert float(rows[2][2]) == -300.0


def test_spectrum_csv_hz_mode_keeps_raw_frequencies(tmp_path):
    path = tmp_path / "spec_hz.csv"
    write_spectrum_csv(path, _spectrum(), t0=64.0, hz=True)
    rows = _read(path)
    assert float(rows[1][0]) == 0.25 / 64


def test_lines_csv_uses_line_kind_and_harmonic_axis(tmp_path):
    lines = DiscreteLineSet(
        k=np.array([1, 2]), freq=np.array([1 / 64, 2 / 64]), power=np.array([1e-4, 0.0])
    )
    path = tmp_path / "lines.csv"
    write_lines_csv(path, lines, t0=64.0)
    rows = _read(path)
    assert rows[0] == ["f_normalized", "psd_linear", "psd_db", "kind"]
    assert [r[3] for r in rows[1:]] == ["line", "line"]
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0]
    assert float(rows[2][2]) == -300.0


def test_compare_csv_schema(tmp_path):
    path = tmp_path / "cmp.csv"
    write_compare_csv(path, [(0.5, -10.0, -10.5, 0.5)])
    rows = _read(path)
    assert rows[0] == ["f_normalized", "analytic_db", "simulated_db", "diff_db"]
    assert [float(v) for v in rows[1]] == [0.5, -10.0, -10.5, 0.5]


def test_sweep_csv_schema(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [(1.0, 1.005, 2.15, 1.6e-4)])
    rows = _read(path)
    assert rows[0] == ["delta", "center_freq_norm", "amplitude_linear", "fwhm_norm"]
    assert float(rows[1][3]) == 1.6e-4


def test_json_output_is_canonical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"zeta": 1, "alpha": [1.5, None], "mid": {"y": 2, "x": 1}})
    write_json(b, {"mid": {"x": 1, "y": 2}, "alpha": [1.5, None], "zeta": 1})
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == ["alpha", "mid", "zeta"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_json_refuses_values_json_cannot_hold(tmp_path, value):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(path, {"window_norm": [0.8, value]})
    assert not path.exists()


def test_signal_txt_one_sample_per_line(tmp_path):
    path = tmp_path / "sig.txt"
    write_signal_txt(path, np.array([1.0, 0.0, 1.0]))
    assert path.read_text().splitlines() == ["1.0", "0.0", "1.0"]


def test_svg_chart_is_well_formed(tmp_path):
    path = tmp_path / "chart.svg"
    xs = np.linspace(0.1, 3.0, 50)
    write_svg(path, xs, np.sin(xs) ** 2, title="t", x_label="f", y_label="S")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    assert "polyline" in path.read_text()


@pytest.mark.parametrize(
    "xs, ys, points",
    [([0.5], [2.0], "60.00,420.00"), ([1.0, 2.0], [3.0, 3.0], "60.00,420.00 780.00,420.00")],
    ids=["one-point", "constant-ys"],
)
def test_svg_chart_of_a_degenerate_span_draws_finite_points(tmp_path, xs, ys, points):
    # a zero x or y span is widened to 1, so the polyline stays finite
    path = tmp_path / "chart.svg"
    write_svg(path, xs, ys, title="t", x_label="f", y_label="S")
    polyline = ET.fromstring(path.read_text()).find("{http://www.w3.org/2000/svg}polyline")
    assert polyline.get("points") == points


def _polyline_points(path) -> np.ndarray:
    polyline = ET.fromstring(path.read_text()).find("{http://www.w3.org/2000/svg}polyline")
    return np.array([p.split(",") for p in polyline.get("points").split()], dtype=float)


def test_svg_polyline_stays_under_four_vertices_per_pixel_column(tmp_path):
    # 131072 points on a 720-pixel plot: each column keeps its first,
    # lowest, highest and last point, the chart's ends and extremes included
    path = tmp_path / "chart.svg"
    xs = np.arange(1, 131073) / 2048.0
    ys = np.sin(xs) + np.random.default_rng(3).normal(0.0, 0.1, len(xs))
    write_svg(path, xs, ys, title="t", x_label="f", y_label="S")
    pts = _polyline_points(path)
    assert len(pts) <= 4 * (720 + 1)
    assert np.all(np.diff(pts[:, 0]) >= 0.0)
    assert (pts[0, 0], pts[-1, 0]) == (60.0, 780.0)
    assert (pts[:, 1].min(), pts[:, 1].max()) == (60.0, 420.0)


def test_svg_polyline_keeps_every_point_of_a_sparse_chart(tmp_path):
    path = tmp_path / "chart.svg"
    xs = np.linspace(0.1, 3.0, 2000)  # under 3 points per pixel column
    write_svg(path, xs, np.cos(7.0 * xs), title="t", x_label="f", y_label="S")
    assert len(_polyline_points(path)) == 2000


def test_writers_are_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_spectrum_csv(p1, _spectrum(), t0=64.0)
    write_spectrum_csv(p2, _spectrum(), t0=64.0)
    assert p1.read_bytes() == p2.read_bytes()


# --- chunked writer against a csv.writer + repr reference ---


def _reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


@pytest.mark.parametrize("n_rows", [1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_chunked_writers_match_csv_writer_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    t0 = 100.0
    freqs = np.sort(rng.uniform(1e-6, 0.5, n_rows)) + np.arange(n_rows) * 1e-9
    psd = rng.random(n_rows) * 10.0 ** rng.integers(-40, 3, n_rows)
    # the -300 dB floor, its edge, and denormals, first and last row included
    psd[np.linspace(0, n_rows - 1, 4).astype(int)] = [0.0, 1e-30, 1e-310, 5e-324]
    db = db10(psd)
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    for kind, hz in (("simulated", False), ('odd,"kind"', True)):
        spectrum = SpectrumGrid(grid=FrequencyGrid(freqs), psd=psd, meta={"kind": kind})
        f = freqs if hz else freqs * t0
        _reference_csv(ref, SPECTRUM, [(f[i], psd[i], db[i], kind) for i in range(n_rows)])
        write_spectrum_csv(new, spectrum, t0, hz=hz)
        assert new.read_bytes() == ref.read_bytes()

    lines = DiscreteLineSet(k=np.arange(1, n_rows + 1), freq=freqs, power=psd)
    _reference_csv(ref, SPECTRUM, [(freqs[i] * t0, psd[i], db[i], "line") for i in range(n_rows)])
    write_lines_csv(new, lines, t0)
    assert new.read_bytes() == ref.read_bytes()

    rows = [(freqs[i] * t0, db[i], -db[i], psd[i] - db[i]) for i in range(n_rows)]
    for writer, header in ((write_compare_csv, COMPARE), (write_sweep_csv, SWEEP)):
        _reference_csv(ref, header, rows)
        writer(new, rows)
        assert new.read_bytes() == ref.read_bytes()


def test_chunked_writers_with_no_rows_write_the_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_compare_csv(path, [])
    assert path.read_text() == ",".join(COMPARE) + "\n"


# --- the vectorized float formatter against repr ---


def _repr_lines(values) -> bytes:
    return "".join(f"{float(v)!r}\n" for v in values).encode()


def _formatted(values) -> bytes:
    return _repr_rows(np.asarray(values, dtype=np.float64)[:, None], b"\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_formatter_matches_repr_on_any_bit_pattern(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _formatted(x) == _repr_lines(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_formatter_matches_repr_on_floats(values):
    assert _formatted(values) == _repr_lines(values)


def test_formatter_matches_repr_at_powers_and_notation_switches():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # 2^53 - 1, 2^53 and 2^53 + 2 bound the odd integer 2^53 + 1 no float holds;
    # repr leaves positional notation below 1e-4 and from 1e16 on
    edges = np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e-5, 1e-4, 1e16])
    x = np.concatenate([twos, tens, edges])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    x = np.concatenate([x, -x, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    assert _formatted(x) == _repr_lines(x)


def test_signal_dump_matches_repr_on_a_blank_realization(tmp_path):
    params = TrainParams(Variant.BLANK_SHORTEN, t0=100, delta=10)
    config = SimConfig(n_symbols=2000, n_realizations=1, fft_size=262144, seed=7, params=params)
    samples = synthesize_realization(config, 0)
    path = tmp_path / "first.txt"
    write_signal_txt(path, samples)
    assert path.read_bytes() == _repr_lines(np.asarray(samples, dtype=np.float64))


def test_spectrum_writer_peak_memory_is_bounded_by_the_chunk(tmp_path):
    rng = np.random.default_rng(5)
    peaks = []
    for chunks in (2, 16):
        n = chunks * _CHUNK_ROWS
        grid = FrequencyGrid(np.arange(1, n + 1) / (2.0 * n))
        spectrum = SpectrumGrid(grid=grid, psd=rng.random(n) ** 3, meta={"kind": "simulated"})
        tracemalloc.start()
        try:
            write_spectrum_csv(tmp_path / "spec.csv", spectrum, t0=100.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a temporary as long as the spectrum would add 8 bytes per row: 14 chunks' worth
    assert max(peaks) <= 2048 * _CHUNK_ROWS
    assert peaks[1] - peaks[0] < 2 * _CHUNK_ROWS
