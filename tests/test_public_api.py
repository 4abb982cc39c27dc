"""The package's public surface: one list, no dead names, demos and README in step."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pulsepsd

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
README = ROOT / "README.md"

PUBLIC = {
    "__version__",
    # model
    "Variant", "BlankLaw", "TrainParams", "IntervalStats", "InsufficientDataError",
    "gen_bits", "synth_transition_stretch", "synth_blank_shorten",
    "interval_stats", "measure_intervals",
    # charfn
    "NearSingularError", "theta1", "theta2", "theta_blank", "discrete_component_detector",
    # analytic
    "FrequencyGrid", "SpectrumGrid", "DiscreteLineSet", "continuous_psd_transition",
    "discrete_lines_transition", "psd_blank_shorten", "bin_power", "combine",
    # sim
    "SimConfig", "periodogram_bins", "estimate_psd", "synthesize_realization",
    # peaks
    "PeakReport", "PeakDetectionError", "LinearFit", "find_clock_peak",
    "normalize_second_lobe", "sweep_delta", "linear_fit",
    # io
    "db10", "write_spectrum_csv", "write_lines_csv", "write_compare_csv",
    "write_sweep_csv", "write_json", "write_signal_txt", "write_svg",
}


def test_public_surface_is_pinned_and_every_demo_import_resolves():
    names = pulsepsd.__all__
    assert len(names) == len(set(names)) == 43
    assert set(names) == PUBLIC
    assert all(hasattr(pulsepsd, name) for name in names)
    for demo in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pulsepsd"):
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"


def _demo_calls(tree: ast.AST) -> list[tuple[str, object, ast.Call]]:
    """(label, callee, call) for every call to a name imported from pulsepsd.

    Covers ``name(...)`` and ``name.attr(...)``; calls that splat
    ``*args`` or ``**kwargs`` cannot be bound statically and are left out.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pulsepsd"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            calls.append((func.id, imported[func.id], node))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in imported
        ):
            callee = getattr(imported[func.value.id], func.attr)
            calls.append((f"{func.value.id}.{func.attr}", callee, node))
    return calls


def _readme_python_blocks() -> list[tuple[str, str]]:
    """(label, source) for every ```python block of README.md."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return [(f"README.md block {i}", block) for i, block in enumerate(blocks, 1)]


def test_every_demo_call_binds_to_the_current_signature():
    checked = set()
    sources = [(demo.name, demo.read_text()) for demo in sorted(DEMOS.glob("*.py"))]
    assert _readme_python_blocks()  # the quick start is checked too
    for name, source in sources + _readme_python_blocks():
        for label, callee, call in _demo_calls(ast.parse(source)):
            args = [None] * len(call.args)
            kwargs = {k.arg: None for k in call.keywords}
            try:
                inspect.signature(callee).bind(*args, **kwargs)
            except TypeError as err:
                raise AssertionError(f"{name}:{call.lineno} {label}(...): {err}") from None
            checked.add(label)
    # the join the convergence demo runs is among the calls checked
    assert {"compare_on_common_bins", "analytic_on_fft_grid", "estimate_psd"} <= checked
