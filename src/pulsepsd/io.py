"""CSV, JSON, SVG, and text writers shared by the command-line front end.

All writers are deterministic: float fields use shortest round-trip
formatting, JSON keys are sorted, and line endings are fixed to "\\n" on
every platform, so identical data always produces identical bytes.

Every float a CSV or the signal dump holds is the text of
``repr(float(v))``. The writers do not call ``repr``: they compute the same
bytes for _CHUNK_ROWS rows at a time in numpy (shortest digits by
Schubfach, laid out by CPython's rules) and write them as binary, so a
writer's temporaries are bounded by the chunk, not by the row count.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Sequence

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
_CHUNK_ROWS = 1024

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


# --- float text: each value's repr, computed for a whole chunk at once ---
#
# The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
# doubles", 2020): the shortest decimal inside the value's rounding interval,
# the one nearest the value when several are that short, which are the digits
# CPython's repr prints. Every 128-bit product is built from 32-bit halves in
# uint64 arrays, whose arithmetic wraps silently where numpy scalars would warn.

_M32 = np.uint64(0xFFFFFFFF)
_G_MIN, _G_MAX = -292, 326


def _pow10_limbs() -> np.ndarray:
    """g(e) = ceil(10^e * 2^(127 - floor(log2 10^e))) for e in _G_MIN.._G_MAX.

    Four rows of 32-bit limbs, high first, and one column per e.
    """
    gs = []
    for e in range(_G_MIN, _G_MAX + 1):
        p = 10 ** abs(e)
        if e >= 0:
            shift = 128 - p.bit_length()
            g = p << shift if shift >= 0 else -(-p >> -shift)
        else:
            g = -(-(1 << (127 + p.bit_length())) // p)
        gs.append(g.to_bytes(16, "big"))
    return np.frombuffer(b"".join(gs), dtype=">u4").reshape(-1, 4).T.astype(np.uint64)


_G = _pow10_limbs()
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_QUAD_DIGITS = np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
# the four ASCII digits of 0..9999, one uint32 each
_QUADS = (_QUAD_DIGITS + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _mul(a1, a0, b1, b0):
    """(a1:a0) * (b1:b0) of 32-bit halves, as its high and low 64-bit words."""
    p00 = a0 * b0
    p01 = a0 * b1
    mid = a1 * b0 + (p00 >> 32) + (p01 & _M32)
    return a1 * b1 + (mid >> 32) + (p01 >> 32), (mid << 32) | (p00 & _M32)


def _product(g, cp):
    """g * cp as three 64-bit words, high first."""
    c1, c0 = cp >> 32, cp & _M32
    x1, x0 = _mul(g[2], g[3], c1, c0)
    y1, y0 = _mul(g[0], g[1], c1, c0)
    p1 = y0 + x1
    return y1 + (p1 < x1), p1, x0


def _shifted(hi, lo, left):
    """The 128-bit hi:lo times 2^left, 1 <= left <= 5, as three words."""
    right = 64 - left
    return hi >> right, (hi << left) | (lo >> right), lo << left


def _add(p, e):
    """p + e for three-word p and e."""
    s0 = p[2] + e[2]
    t1 = p[1] + e[1]
    s1 = t1 + (s0 < e[2])
    return p[0] + e[0] + ((t1 < e[1]) | (s1 < t1)), s1, s0


def _sub(p, e):
    """p - e for three-word p >= e."""
    t1 = p[1] - e[1]
    borrow = p[2] < e[2]
    return p[0] - e[0] - ((p[1] < e[1]) | (t1 < borrow)), t1 - borrow, p[2] - e[2]


def _round_to_odd(p):
    """floor(p / 2^128), its lowest bit set when the middle word, which it drops, exceeds 1."""
    return p[0] | (p[1] > 1)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d and exponent k with |x| = d * 10^k, for the bit patterns of finite nonzero x."""
    biased = (bits >> 52) & 0x7FF
    m = bits & ((1 << 52) - 1)
    c = m | (np.minimum(biased, 1) << 52)
    q = np.maximum(biased.astype(np.int64), 1) - 1075
    closer = (m == 0) & (biased > 1)  # the lower neighbour is half as far as the upper
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10 of 2^q, or of 3/4 * 2^q)
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)  # 1..4
    g = _G.take(-k - _G_MIN, axis=1)
    hi, lo = (g[0] << 32) | g[1], (g[2] << 32) | g[3]
    # the interval's ends are 4c -+ 2 (4c - 1 when closer), scaled by 2^h; their
    # products with g are g * 4c * 2^h shifted by g * 2^(h+1) or g * 2^h
    vb = _product(g, c << (h + 2))
    odd = c & 1  # ties round to even, so an even c owns its interval's ends
    lower = _round_to_odd(_sub(vb, _shifted(hi, lo, h + 1 - closer))) + odd
    upper = _round_to_odd(_add(vb, _shifted(hi, lo, h + 1))) - odd
    vb = _round_to_odd(vb)
    s = vb >> 2
    sp = s // 10  # one digit fewer: taken when exactly one of its neighbours is inside
    upin = lower <= 40 * sp
    wpin = 40 * sp + 40 <= upper
    short = (s >= 10) & (upin != wpin)
    uin = lower <= 4 * s
    win = 4 * s + 4 <= upper
    mid = 4 * s + 2
    up = (vb > mid) | ((vb == mid) & (s & 1).astype(bool))
    d = np.where(short, sp + wpin, s + ((win & ~uin) | ((uin == win) & up)))
    return d, k + short


# A field is laid out by gathering from its row of _ALPHABET bytes: "0" and the
# exponent's three digits, digits 2..17, digit 1, then these constants.
_CONSTANTS = b"\0,-.e+infa"
_ALPHABET = 32
_FIELD = 25  # the longest repr, "-1.2345678901234567e-308", and a separator
_FORMS = 24  # decimal point positions -3..16, then e+XX, e+XXX, e-XX, e-XXX
_DECPT = 330  # _FORM covers decimal point positions -_DECPT.._DECPT
_AT = {"0": 0, **{chr(ch): 21 + i for i, ch in enumerate(_CONSTANTS)}}


def _layout(negative: bool, form: int, n: int) -> list[int]:
    """Alphabet positions of repr's characters for n significant digits in one form."""
    digits = [20] + list(range(4, 3 + n))
    zero, dot = _AT["0"], _AT["."]
    if form < 20:  # positional: the decimal point sits after digit decpt = form - 3
        decpt = form - 3
        if decpt <= 0:
            text = [zero, dot] + [zero] * -decpt + digits
        elif decpt < n:
            text = digits[:decpt] + [dot] + digits[decpt:]
        else:
            text = digits + [zero] * (decpt - n) + [dot, zero]
    else:
        negative_exp, three = divmod(form - 20, 2)
        text = digits[:1] + ([dot] + digits[1:] if n > 1 else [])
        text += [_AT["e"], _AT["-" if negative_exp else "+"]] + ([1, 2, 3] if three else [2, 3])
    return [_AT["-"]] * negative + text


def _layouts() -> np.ndarray:
    texts = [_layout(neg, f, n) for neg in (0, 1) for f in range(_FORMS) for n in range(1, 18)]
    texts += [[_AT[ch] for ch in t] for t in ("0.0", "-0.0", "inf", "-inf", "nan")]
    padded = b"".join(bytes(t + [_AT["\0"]] * (_FIELD - 1 - len(t)) + [_AT[","]]) for t in texts)
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), _FIELD).astype(np.intp)


def _form(decpt: int) -> int:
    if -4 < decpt <= 16:  # repr's rule for positional notation
        return decpt + 3
    return 20 + 2 * (decpt <= 0) + (abs(decpt - 1) >= 100)


def _last_digits() -> np.ndarray:
    """[j, q]: how many of digits 2..17 run up to the last nonzero one in quad j = q, 0 if q = 0."""
    zeros = np.cumprod(_QUAD_DIGITS[:, ::-1] == 0, axis=1, dtype=np.uint8)
    kept = 4 - zeros.sum(axis=1, dtype=np.uint8)
    return (np.arange(0, 16, 4, dtype=np.uint8)[:, None] + kept) * (kept > 0)


_LAYOUTS = _layouts()
_SPECIALS = 2 * _FORMS * 17  # rows of 0.0, -0.0, inf, -inf, nan
_FORM = np.array([_form(p) for p in range(-_DECPT, _DECPT + 1)], dtype=np.intp)
_LAST = _last_digits()


def _repr_fields(x: np.ndarray) -> np.ndarray:
    """(len(x), _FIELD) bytes: each repr(float(v)), NUL-padded, then a comma."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    d, k = _shortest(bits)
    n_digits = np.searchsorted(_POW10[1:], d, side="right") + 1
    decpt = k + n_digits
    s = (d * _POW10[17 - n_digits]).view(np.int64)  # 17 digits, the first nonzero
    top, low = np.divmod(s, 10**16)
    quads = np.divmod(low // 10**8, 10**4) + np.divmod(low % 10**8, 10**4)
    alphabet = np.empty((len(bits), _ALPHABET), dtype=np.uint8)
    words = alphabet.view(np.uint32)
    words[:, 0] = _QUADS[np.abs(decpt - 1)]
    for j, quad in enumerate(quads, 1):
        words[:, j] = _QUADS[quad]
    alphabet[:, 20] = top + ord("0")
    alphabet[:, 21 : 21 + len(_CONSTANTS)] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    last = [_LAST[j].take(quad) for j, quad in enumerate(quads)]
    n = 1 + np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    layout = ((bits >> 63).astype(np.intp) * _FORMS + _FORM[decpt + _DECPT]) * 17 + n - 1
    special = np.flatnonzero((bits << 1 == 0) | (bits << 1 >= 0xFFE << 52))  # 0, inf, nan
    if special.size:
        sb = bits[special]
        sign = (sb >> 63).astype(np.intp)
        inf_or_nan = np.where(sb << 12 == 0, 2 + sign, 4)
        layout[special] = _SPECIALS + np.where(sb << 1 == 0, sign, inf_or_nan)
    index = _LAYOUTS.take(layout, axis=0)
    index += np.arange(0, alphabet.size, _ALPHABET)[:, None]
    return alphabet.ravel().take(index)


def _repr_rows(block: np.ndarray, end: bytes) -> bytes:
    """Rows of floats as comma-separated reprs, each row ended by ``end``."""
    n_rows, width = block.shape
    rows = np.empty((n_rows, width * _FIELD + len(end) - 1), dtype=np.uint8)
    rows[:, : width * _FIELD] = _repr_fields(block.ravel()).reshape(n_rows, -1)
    rows[:, width * _FIELD - 1 :] = np.frombuffer(end, dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


def _write_rows(fh, n_rows: int, block_of: Callable[[slice], np.ndarray], end: bytes) -> None:
    """Write the (rows, columns) float blocks ``block_of`` gives, _CHUNK_ROWS rows at a time."""
    for start in range(0, n_rows, _CHUNK_ROWS):
        fh.write(_repr_rows(block_of(slice(start, start + _CHUNK_ROWS)), end))


def _write_columns(
    path: Path,
    header: Sequence[str],
    n_rows: int,
    block_of: Callable[[slice], np.ndarray],
    text: str | None = None,
) -> None:
    """CSV of a header and n_rows rows of floats, each its shortest round-trip ``repr``.

    ``text``, when given, fills one more column with the same string on
    every row. The bytes equal those of a ``csv.writer`` fed the same
    fields row by row.
    """
    end = "\n"
    if text is not None:  # quote it once, the way csv.writer would in a later column
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(["", text])
        end = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, n_rows, block_of, end.encode())


def _spectrum_block(freqs: np.ndarray, scale: float | None, psd: np.ndarray):
    def block_of(rows: slice) -> np.ndarray:
        f = freqs[rows] if scale is None else freqs[rows] * scale
        return np.stack([f, psd[rows], db10(psd[rows])], axis=1)

    return block_of


def _write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    table = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    _write_columns(path, header, len(table), table.__getitem__)


def write_spectrum_csv(path: Path, spectrum: SpectrumGrid, t0: float, hz: bool = False) -> None:
    """Spectrum rows as f_normalized, psd_linear, psd_db, kind.

    Frequencies are divided by f0 = 1/t0 unless ``hz`` is set, in which
    case the same column carries absolute cycles/sample.
    """
    kind = spectrum.meta.get("kind", "continuous")
    block_of = _spectrum_block(spectrum.freqs, None if hz else t0, spectrum.psd)
    _write_columns(path, SPECTRUM_COLUMNS, len(spectrum.psd), block_of, kind)


def write_lines_csv(path: Path, lines: DiscreteLineSet, t0: float, hz: bool = False) -> None:
    """Discrete lines in the spectrum schema with kind = line."""
    block_of = _spectrum_block(lines.freq, None if hz else t0, lines.power)
    _write_columns(path, SPECTRUM_COLUMNS, len(lines.power), block_of, "line")


def write_compare_csv(path: Path, rows: Sequence[Sequence[float]]) -> None:
    _write_table(path, COMPARE_COLUMNS, rows)


def write_sweep_csv(path: Path, rows: Sequence[Sequence[float]]) -> None:
    _write_table(path, SWEEP_COLUMNS, rows)


def write_json(path: Path, payload: dict) -> None:
    """Sorted, indented JSON; a NaN or infinity, which JSON cannot hold, is a ValueError."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", newline="")


def write_signal_txt(path: Path, samples: np.ndarray) -> None:
    """One sample per line, each its ``repr`` as a float, for eyeballing synthesized waveforms."""
    samples = np.asarray(samples)
    with open(path, "wb") as fh:
        _write_rows(fh, len(samples), lambda rows: samples[rows, None], b"\n")


def _column_extremes(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Indices of the points a polyline needs: per pixel column its first, lowest, highest and last.

    Consecutive points in one column form a run, drawn as one vertical
    stroke; a run of at most 4 points keeps them all. Points ordered by x
    thus keep at most 4 per column.
    """
    col = np.floor(px)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    lengths = np.diff(np.r_[starts, len(px)])
    run = np.repeat(np.arange(len(starts)), lengths)
    keep = np.repeat(lengths <= 4, lengths)
    keep[starts] = keep[starts + lengths - 1] = True
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(py == np.repeat(extreme.reduceat(py, starts), lengths))
        keep[hit[np.r_[True, run[hit][1:] != run[hit][:-1]]]] = True  # the first of each run
    return np.flatnonzero(keep)


def write_svg(
    path: Path,
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Minimal single-polyline chart, enough for a quick visual check.

    The polyline keeps the points of :func:`_column_extremes`, so a chart
    of 131072 points writes a few thousand vertices and looks the same.
    """
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
    keep = _column_extremes(px, py)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px[keep], py[keep]))
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
    Path(path).write_text(body, newline="")
