"""CSV, JSON, SVG, and text writers shared by the command-line front end.

All writers are deterministic: float fields use shortest round-trip
formatting, JSON keys are sorted, and line endings are fixed to "\\n", so
identical data always produces identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .analytic import DiscreteLineSet, SpectrumGrid

__all__ = [
    "db10",
    "write_spectrum_csv",
    "write_lines_csv",
    "write_compare_csv",
    "write_sweep_csv",
    "write_json",
    "write_signal_txt",
    "write_svg",
]

DB_FLOOR = -300.0
_DB_FLOOR_LINEAR = 1e-30
_CHUNK_ROWS = 8192

SPECTRUM_COLUMNS = ["f_normalized", "psd_linear", "psd_db", "kind"]
COMPARE_COLUMNS = ["f_normalized", "analytic_db", "simulated_db", "diff_db"]
SWEEP_COLUMNS = ["delta", "center_freq_norm", "amplitude_linear", "fwhm_norm"]


def db10(values):
    """10*log10 with zero and denormal inputs floored at -300 dB."""
    v = np.asarray(values, dtype=np.float64)
    out = np.full(v.shape, DB_FLOOR)
    ok = v > _DB_FLOOR_LINEAR
    out[ok] = 10.0 * np.log10(v[ok])
    return float(out) if np.isscalar(values) else out


def _write_columns(
    path: Path, header: Sequence[str], columns: Sequence[np.ndarray], text: str | None = None
) -> None:
    """Equal-length float columns as CSV rows, written _CHUNK_ROWS rows at a time.

    Each float is its shortest round-trip ``repr``; ``text``, when given,
    fills one more column with the same string on every row. The bytes
    equal those of a ``csv.writer`` fed the same fields row by row.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    end = "\n"
    if text is not None:  # quote it once, the way csv.writer would in a later column
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(["", text])
        end = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cols[0]), _CHUNK_ROWS):
            fields = [map(repr, c[start : start + _CHUNK_ROWS].tolist()) for c in cols]
            fh.write(end.join(map(",".join, zip(*fields))) + end)


def _row_columns(rows: Sequence[Sequence[float]], width: int) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64).reshape(-1, width).T


def write_spectrum_csv(path: Path, spectrum: SpectrumGrid, t0: float, hz: bool = False) -> None:
    """Spectrum rows as f_normalized, psd_linear, psd_db, kind.

    Frequencies are divided by f0 = 1/t0 unless ``hz`` is set, in which
    case the same column carries absolute cycles/sample.
    """
    kind = spectrum.meta.get("kind", "continuous")
    f = spectrum.freqs if hz else spectrum.freqs * t0
    _write_columns(path, SPECTRUM_COLUMNS, [f, spectrum.psd, db10(spectrum.psd)], kind)


def write_lines_csv(path: Path, lines: DiscreteLineSet, t0: float, hz: bool = False) -> None:
    """Discrete lines in the spectrum schema with kind = line."""
    f = lines.freq if hz else lines.freq * t0
    _write_columns(path, SPECTRUM_COLUMNS, [f, lines.power, db10(lines.power)], "line")


def write_compare_csv(path: Path, rows: Sequence[Sequence[float]]) -> None:
    _write_columns(path, COMPARE_COLUMNS, _row_columns(rows, len(COMPARE_COLUMNS)))


def write_sweep_csv(path: Path, rows: Sequence[Sequence[float]]) -> None:
    _write_columns(path, SWEEP_COLUMNS, _row_columns(rows, len(SWEEP_COLUMNS)))


def write_json(path: Path, payload: dict) -> None:
    """Sorted, indented JSON; a NaN or infinity, which JSON cannot hold, is a ValueError."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_signal_txt(path: Path, samples: np.ndarray) -> None:
    """One sample per line, for eyeballing synthesized waveforms."""
    with open(path, "w") as fh:
        fh.writelines(f"{v!r}\n" for v in np.asarray(samples, dtype=np.float64).tolist())


def write_svg(
    path: Path,
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Minimal single-polyline chart, enough for a quick visual check."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, margin = 840.0, 480.0, 60.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = margin + (xs - x0) / (x1 - x0) * (width - 2 * margin)
    py = height - margin - (ys - y0) / (y1 - y0) * (height - 2 * margin)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    body = f"""<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">
<rect width="100%" height="100%" fill="white"/>
<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>
<line x1="{margin:.0f}" y1="{height - margin:.0f}" x2="{width - margin:.0f}" y2="{height - margin:.0f}" stroke="black"/>
<line x1="{margin:.0f}" y1="{margin:.0f}" x2="{margin:.0f}" y2="{height - margin:.0f}" stroke="black"/>
<text x="{width / 2:.0f}" y="{height - 16:.0f}" text-anchor="middle" font-size="12">{x_label}</text>
<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 18 {height / 2:.0f})">{y_label}</text>
<text x="{margin:.0f}" y="{height - margin + 16:.0f}" text-anchor="middle" font-size="10">{x0:.4g}</text>
<text x="{width - margin:.0f}" y="{height - margin + 16:.0f}" text-anchor="middle" font-size="10">{x1:.4g}</text>
<text x="{margin - 6:.0f}" y="{height - margin:.0f}" text-anchor="end" font-size="10">{y0:.4g}</text>
<text x="{margin - 6:.0f}" y="{margin:.0f}" text-anchor="end" font-size="10">{y1:.4g}</text>
<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1"/>
</svg>
"""
    Path(path).write_text(body)
