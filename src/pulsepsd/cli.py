"""Command-line front end: analytic, simulate, compare, peaks-sweep.

Every command is pure with respect to its flags and seed; rerunning
writes byte-identical data files. Each run also writes a manifest JSON
recording the flags, the produced files, the wall clock and the
environment (cores, numpy and Python versions, peak RSS), which is
enough to reproduce the run; simulate and compare add the estimator
config they resolved, the worker count they used, the lattice and the
transform size their periodograms were taken at, analytic and compare
the frequencies where the closed form took its limit, and analytic the
factor each data file carries. Output frequencies are normalized to f0
= 1/t0 unless analytic or simulate is given --hz. A flat key = value
config file can stand in for any flag; explicit flags win.

Exit codes: 0 success, 1 usage, validation, file or allocation error, 2
peak detection failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (  # bin_power, combine: perfbench/tracing.py patches them here
    FrequencyGrid,
    SpectrumGrid,
    analytic_on_fft_grid,
    bin_power,
    combine,
    continuous_psd_transition,
    discrete_lines_transition,
    psd_blank_shorten,
)
from .io import (
    SWEEP_COLUMNS,
    db10,
    write_compare_csv,
    write_json,
    write_lines_csv,
    write_signal_txt,
    write_spectrum_csv,
    write_sweep_csv,
    write_svg,
)
from .model import BlankLaw, TrainParams, Variant
from .peaks import (
    SWEEP_SPAN,
    PeakDetectionError,
    _second_lobe_max,
    linear_fit,
    sweep_delta,
)
from .sim import (
    SimConfig,
    compare_on_common_bins,
    estimate_psd,
    synthesize_realization,
)

SCHEMA_VERSION = 1
# a peaks-sweep longer than this is a typo in --deltas, not a run
MAX_DELTAS = 10_000


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise CliUsageError(message)


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliUsageError(f"{what} must look like LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliUsageError(f"{what} must hold two numbers, got {text!r}") from None
    if not lo < hi:
        raise CliUsageError(f"{what} needs LO < HI, got {text!r}")
    return lo, hi


def _clipped(pair: tuple[float, float], span: tuple[float, float]) -> list[float]:
    """The part of a LO:HI flag inside the span searched, as a report records it."""
    return [max(pair[0], span[0]), min(pair[1], span[1])]


def _parse_deltas(text: str) -> list[float]:
    text = text.strip()
    if not text:
        raise CliUsageError("--deltas must not be empty")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliUsageError(f"--deltas range must look like START:STOP:STEP, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise CliUsageError(f"--deltas range must hold numbers, got {text!r}") from None
        if not (step > 0 and stop >= start):  # nan fails both
            raise CliUsageError(f"--deltas range needs STOP >= START and STEP > 0, got {text!r}")
        steps = (stop - start) / step
        if not steps < MAX_DELTAS:  # counted before any list is built; inf fails too
            raise CliUsageError(f"--deltas range {text!r} holds more than {MAX_DELTAS} deltas")
        n = int(round(steps))
        values = [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-9]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip() != ""]
        except ValueError:
            raise CliUsageError(f"--deltas must be a comma list or START:STOP:STEP, got {text!r}") from None
    if not values:
        raise CliUsageError("--deltas resolved to an empty list")
    if len(values) > MAX_DELTAS:
        raise CliUsageError(f"--deltas holds {len(values)} deltas, more than {MAX_DELTAS}")
    return values


def _next_pow2(n: int) -> int:
    return 1 << max(2, (n - 1).bit_length())


def _load_config_args(path: Path) -> list[str]:
    """Flat key = value lines to flag tokens; true and false become --KEY and --no-KEY."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliUsageError(f"cannot read config file {path}: {err}") from None
    out: list[str] = []
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise CliUsageError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = s.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key:
            raise CliUsageError(f"{path}:{ln}: empty key")
        if "config".startswith(key):  # argparse would take any prefix for --config
            raise CliUsageError(f"{path}:{ln}: a config file cannot name another config file")
        if value.lower() in ("true", "false"):
            out.append(f"--{key}" if value.lower() == "true" else f"--no-{key}")
        else:
            out.extend([f"--{key}", value])
    return out


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file flags, file by file, right after the subcommand so CLI flags win.

    A pre-parse knowing only --config lets argparse take --config=FILE, repeats and prefixes.
    """
    if not argv or argv[0].startswith("-"):
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config", type=Path, action="append", default=[])
    known, rest = pre.parse_known_args(argv[1:])
    return [argv[0], *(tok for path in known.config for tok in _load_config_args(path)), *rest]


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["transition", "blank"], required=True)
    p.add_argument("--t0", type=int, required=True, help="samples per nominal symbol")
    p.add_argument("--delta", type=float, default=0.0, help="predistortion, samples")
    _add_symbol_flags(p)


def _add_symbol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", dest="prob_one", type=float, default=0.5, help="P(symbol = 1)")
    p.add_argument("--law", choices=["paper", "generator"], default=None,
                   help="blank-model front-interval shortening law "
                        "(default paper for closed forms, generator for simulations)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", type=Path, default=Path("."))
    p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=False,
                   help="also write a quick-look chart")
    p.add_argument("--config", type=Path, default=None,
                   help="flat key = value file mirroring any flag (flags win)")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fft", type=int, default=None, help="FFT size, power of two")
    p.add_argument("--symbols", type=int, default=None, help="symbols per realization")
    p.add_argument("--realizations", type=int, default=None, help="default 500")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads, at most the cores (never changes results); "
                   "default one per core, one for transforms under 2048 points")


def _train_params(args, variant: Variant, delta: float, simulated: bool) -> TrainParams:
    """Model parameters from the shared flags, at the given delta.

    Refuses a flag the model would ignore; TrainParams checks the values.
    Resolves an unset --law in place, so the manifest records it: paper
    for closed forms, generator for simulations; either law runs on both.
    """
    if variant is Variant.TRANSITION_STRETCH:
        if args.law is not None:
            raise CliUsageError("--law applies to --model blank only")
    elif getattr(args, "k_max", None) is not None:
        raise CliUsageError("--k-max applies to --model transition only")
    elif args.law is None:
        args.law = "generator" if simulated else "paper"
    return TrainParams(variant, args.t0, delta, args.prob_one, BlankLaw(args.law or "paper"))


def _sim_config(args, params: TrainParams) -> SimConfig:
    if args.fft is None and args.symbols is None:
        raise CliUsageError("provide --fft, --symbols, or both")
    fft = args.fft if args.fft is not None else _next_pow2(args.symbols * params.t0)
    symbols = args.symbols if args.symbols is not None else max(1, fft // params.t0)
    return SimConfig(
        n_symbols=symbols,
        n_realizations=args.realizations if args.realizations is not None else 500,
        fft_size=fft,
        seed=args.seed if args.seed is not None else 0,
        params=params,
    )


def _sim_record(simulated: SpectrumGrid) -> dict:
    """The estimator config estimate_psd resolved, the workers it used and its lattice."""
    return {key: value for key, value in simulated.meta.items() if key != "kind"}


def _diagnostics(spectrum: SpectrumGrid) -> dict:
    """Where the closed-form evaluation took its removable limit, from its meta."""
    return {"limit_freqs": spectrum.meta["limit_freqs"]}


def _environment() -> dict:
    """Cores, numpy and Python versions, and this process's peak resident set so far."""
    import os
    import resource  # here, not at module import: importing the CLI stays as cheap as it was

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "peak_rss_mb": round(rss / (2**20 if sys.platform == "darwin" else 2**10), 3),
    }


def _manifest(args, command: str, outputs: list[Path], extra: dict, started: float) -> None:
    params = {
        key.replace("_", "-"): str(value) if isinstance(value, Path) else value
        for key, value in vars(args).items()
        if key not in ("func", "config")
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "pulsepsd",
        "version": __version__,
        "command": command,
        "params": params,
        "outputs": [p.name for p in outputs],
        "duration_s": round(time.perf_counter() - started, 6),
        "environment": _environment(),
        **extra,
    }
    write_json(args.out_dir / f"{command.replace('-', '_')}_manifest.json", payload)


def _svg_of_spectrum(path: Path, spectrum: SpectrumGrid, t0: float, hz: bool, title: str) -> None:
    x = spectrum.freqs if hz else spectrum.freqs * t0
    write_svg(path, x, db10(spectrum.psd), title,
              "frequency (cycles/sample)" if hz else "f / f0", "PSD (dB)")


def cmd_analytic(args) -> tuple[list[Path], dict]:
    t0 = float(args.t0)
    params = _train_params(args, Variant(args.model), args.delta, simulated=False)
    blank = params.variant is Variant.BLANK_SHORTEN
    fmax_norm = args.fmax_norm if args.fmax_norm is not None else (3.0 if blank else 10.0)
    points = args.points if args.points is not None else (20001 if blank else 4096)
    grid = FrequencyGrid.offset_linspace(fmax_norm / t0, points)
    if args.scale is not None and not 0.0 < args.scale < np.inf:
        raise CliUsageError(f"--scale must be positive and finite, got {args.scale!r}")
    if blank and args.scale is None and fmax_norm < 2.0:
        raise CliUsageError(
            "default second-lobe normalization needs --fmax-norm >= 2; pass --scale to skip"
        )
    spectrum_path = args.out_dir / "analytic_spectrum.csv"
    outputs = [spectrum_path]
    try:  # params are valid, so a refusal here is the closed form's value on this grid
        spectrum = psd_blank_shorten(grid, params) if blank else continuous_psd_transition(grid, params)
    except ValueError as err:
        raise CliUsageError(
            f"the closed form fails on the grid of --fmax-norm {fmax_norm!r} and --points "
            f"{points}, whose lowest point is f/f0 = {grid.values[0] * t0:.6g}: {err}"
        ) from None
    # the factor each data file's psd carries: lines stay unit-amplitude
    scale = {spectrum_path.name: 1.0}
    if args.scale is not None:
        try:
            spectrum = replace(spectrum, psd=spectrum.psd * args.scale)
        except ValueError:
            raise CliUsageError(
                f"--scale {args.scale!r} overflows the spectrum, whose peak is "
                f"{spectrum.psd.max():.6g}"
            ) from None
        scale[spectrum_path.name] = args.scale
    elif blank:
        ref = _second_lobe_max(spectrum, t0)
        scale[spectrum_path.name] = 1.0 / ref
        spectrum = replace(spectrum, psd=spectrum.psd / ref)
    if not blank:
        k_in_span = int(np.floor(grid.values[-1] * t0))
        k_max = args.k_max if args.k_max is not None else max(1, min(40, k_in_span))
        lines_path = args.out_dir / "analytic_lines.csv"
        write_lines_csv(lines_path, discrete_lines_transition(k_max, params), t0, hz=args.hz)
        outputs.append(lines_path)
        scale[lines_path.name] = 1.0
    write_spectrum_csv(spectrum_path, spectrum, t0, hz=args.hz)
    if args.svg:
        svg_path = args.out_dir / "analytic_spectrum.svg"
        _svg_of_spectrum(svg_path, spectrum, t0, args.hz, f"analytic {args.model} PSD")
        outputs.append(svg_path)
    return outputs, {"diagnostics": _diagnostics(spectrum), "scale": scale}


def cmd_simulate(args) -> tuple[list[Path], dict]:
    params = _train_params(args, Variant(args.model), args.delta, simulated=True)
    config = _sim_config(args, params)
    outputs = [args.out_dir / "simulated_spectrum.csv"]
    if args.dump_first_signal is not None:  # first, so a bad path fails before the long run
        write_signal_txt(args.dump_first_signal, synthesize_realization(config, 0))
        outputs.append(args.dump_first_signal)
    spectrum = estimate_psd(config, workers=args.workers)
    write_spectrum_csv(outputs[0], spectrum, float(params.t0), hz=args.hz)
    if args.svg:
        svg_path = args.out_dir / "simulated_spectrum.svg"
        _svg_of_spectrum(svg_path, spectrum, float(params.t0), args.hz,
                         f"simulated {args.model} PSD")
        outputs.append(svg_path)
    return outputs, {"sim": _sim_record(spectrum)}


def cmd_compare(args) -> tuple[list[Path], dict]:
    band = _parse_pair(args.band, "--band")
    params = _train_params(args, Variant(args.model), args.delta, simulated=True)
    config = _sim_config(args, params)
    analytic_spec = analytic_on_fft_grid(params, config.fft_size, args.k_max)
    simulated = estimate_psd(config, workers=args.workers)
    rows, stats = compare_on_common_bins(analytic_spec, simulated, float(params.t0), band)
    if stats["bins_used"] == 0:
        raise CliUsageError(f"--band {args.band} selects no bins away from the continuum nulls")
    if stats["max_abs_diff_db"] > 1.0:
        stats["note"] = "analytic and simulated disagree beyond 1 dB"
    outputs = [args.out_dir / "compare.csv", args.out_dir / "compare_summary.json"]
    write_compare_csv(outputs[0], rows)
    write_json(outputs[1], {"schema_version": SCHEMA_VERSION, **stats})
    if args.svg:
        svg_path = args.out_dir / "compare.svg"
        write_svg(svg_path, rows[:, 0], rows[:, 3], "analytic minus simulated",
                  "f / f0", "diff (dB)")
        outputs.append(svg_path)
    print(
        f"compare: max |analytic - simulated| = {stats['max_abs_diff_db']:.3f} dB "
        f"over f/f0 in ({band[0]}, {band[1]}), {stats['bins_used']} bins"
        + ("; " + stats["note"] if "note" in stats else "")
    )
    return outputs, {"sim": _sim_record(simulated), "diagnostics": _diagnostics(analytic_spec)}


def cmd_peaks_sweep(args) -> tuple[list[Path], dict]:
    deltas = _parse_deltas(args.deltas)
    window = _parse_pair(args.window, "--window")
    lobe_window = _parse_pair(args.lobe_window, "--lobe-window")
    simulated = args.source == "simulated"
    base = _train_params(args, Variant.BLANK_SHORTEN, 0, simulated)
    if args.workers is not None and args.workers < 1:
        raise CliUsageError(f"workers must be at least 1, got {args.workers}")
    given = [f for f in ("fft", "symbols", "realizations", "seed") if getattr(args, f) is not None]
    if given and not simulated:
        raise CliUsageError(f"--{given[0]} applies to --source simulated only")
    source = _sim_config(args, base) if simulated else base
    # the f/f0 span searched: the FFT bins up to t0/2, or the analytic sweep grid
    span = (0.0, args.t0 / 2) if simulated else SWEEP_SPAN
    results = sweep_delta(source, deltas, window, lobe_window, args.workers)
    items = [{"delta": d, **asdict(r), "peak_height": r.peak_height} for d, r in results]
    column = {key: [item[key] for item in items] for key in items[0]}
    fit = linear_fit(column["delta"], column["center_freq_norm"]) if len(items) >= 3 else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "source": args.source,
        "t0": args.t0,
        "law": base.blank_law.value,
        "deltas": column["delta"],
        "window_norm": _clipped(window, span),
        "lobe_window_norm": _clipped(lobe_window, span),
        "items": items,
        "monotonicity": {
            "peak_height_nonincreasing": _nonincreasing(column["peak_height"]),
            "amplitude_linear_nonincreasing": _nonincreasing(column["amplitude_linear"]),
            "fwhm_nondecreasing": _nonincreasing([-w for w in column["fwhm_norm"]]),
        },
        "center_fit": None if fit is None else asdict(fit),
    }
    if simulated:
        keys = ("fft_size", "n_symbols", "n_realizations", "seed")
        report["sim"] = {key: getattr(source, key) for key in keys}
    outputs = [args.out_dir / "sweep.csv", args.out_dir / "sweep_report.json"]
    write_sweep_csv(outputs[0], [[item[key] for key in SWEEP_COLUMNS] for item in items])
    write_json(outputs[1], report)
    if args.svg:
        svg_path = args.out_dir / "sweep.svg"
        write_svg(svg_path, column["delta"], column["center_freq_norm"],
                  "clock-peak center vs delta", "delta (samples)", "center f / f0")
        outputs.append(svg_path)
    return outputs, {}


def _nonincreasing(seq: list[float]) -> dict:
    diffs = np.diff(np.asarray(seq, dtype=float))
    return {
        "holds": bool(np.all(diffs <= 0.0)),
        "ties": int(np.count_nonzero(diffs == 0.0)),
        "violations": int(np.count_nonzero(diffs > 0.0)),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pulsepsd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"pulsepsd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form spectra to CSV")
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--hz", action=argparse.BooleanOptionalAction, default=False,
                   help="emit cycles/sample instead of f/f0")
    p.add_argument("--fmax-norm", type=float, default=None,
                   help="grid extent as f/f0 (default 10 transition, 3 blank)")
    p.add_argument("--points", type=int, default=None,
                   help="grid size (default 4096 transition, 20001 blank)")
    p.add_argument("--scale", type=float, default=None,
                   help="multiplies the PSD (0.25 for the quarter-amplitude convention); "
                        "default 1, or for blank the second-lobe normalization")
    p.add_argument("--k-max", type=int, default=None, help="highest line harmonic")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="averaged-periodogram estimate to CSV")
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--hz", action=argparse.BooleanOptionalAction, default=False,
                   help="emit cycles/sample instead of f/f0")
    _add_sim_flags(p)
    p.add_argument("--dump-first-signal", type=Path, default=None,
                   help="also write realization 0 as one sample per line")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="binned analytic vs simulated, joined CSV")
    _add_model_flags(p)
    _add_output_flags(p)
    _add_sim_flags(p)
    p.add_argument("--band", default="0.1:10", help="normalized band LO:HI for the summary")
    p.add_argument("--k-max", type=int, default=None, help="highest line harmonic")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("peaks-sweep", help="clock-peak measurements across deltas")
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--deltas", required=True, help="comma list or START:STOP:STEP, samples")
    p.add_argument("--source", choices=["analytic", "simulated"], default="analytic")
    _add_symbol_flags(p)
    p.add_argument("--window", default="0.8:1.3", help="peak search window, f/f0")
    p.add_argument("--lobe-window", default="1.0:2.0", help="second lobe window, f/f0")
    _add_output_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_peaks_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(_expand_config(argv))
        args.out_dir.mkdir(parents=True, exist_ok=True)
        # every non-finite result is refused where it is made, in one line
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            outputs, extra = args.func(args)
        _manifest(args, args.command, outputs, extra, started)
    except PeakDetectionError as err:
        print(f"detection failure: {err}", file=sys.stderr)
        return 2
    except (CliUsageError, ValueError, OSError, MemoryError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
