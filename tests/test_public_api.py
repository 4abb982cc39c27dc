"""The package's public surface: one list, no dead names, demos and README in step."""

import ast
import importlib
import importlib.util
import inspect
import re
import runpy
from pathlib import Path

import pytest

import pulsepsd

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"

PUBLIC = {
    "__version__",
    # model
    "Variant", "BlankLaw", "TrainParams", "IntervalStats", "InsufficientDataError",
    "gen_bits", "synth_transition_stretch", "synth_blank_shorten",
    "interval_stats", "measure_intervals",
    # charfn
    "theta1", "theta2", "theta_blank", "discrete_component_detector",
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
    assert len(names) == len(set(names)) == 42
    assert set(names) == PUBLIC
    assert all(hasattr(pulsepsd, name) for name in names)
    for demo in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pulsepsd"):
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"


def test_every_name_the_benchmark_reaches_resolves():
    # perfbench patches LAYERS targets by (module, attribute) and its workloads
    # import from pulsepsd; a rename there would fail every benchmark operation
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for layer, _ in tracing.LAYERS.values() for target in layer]
    assert targets
    missing = [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])]
    assert not missing, f"perfbench/tracing.py LAYERS targets missing: {missing}"
    imports = 0
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("pulsepsd")]
            imports += len(names)
            for name in names:
                importlib.import_module(name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pulsepsd"):
            module = importlib.import_module(node.module)
            imports += 1
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"perfbench/workloads.py imports {missing} from {node.module}"
    assert imports


@pytest.mark.parametrize("density", ["continuous_psd_transition", "psd_blank_shorten"])
def test_both_densities_take_only_a_grid_and_params(density):
    # a density is absolute; rescaling a written spectrum is the CLI's --scale
    assert list(inspect.signature(getattr(pulsepsd, density)).parameters) == ["grid", "params"]


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


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_every_demo_runs_and_writes_only_into_demo_out(demo, tmp_path, monkeypatch):
    # binding a call checks its signature only; running the demo checks what it does
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert {path.name for path in tmp_path.iterdir()} == {"demo_out"}
    assert any((tmp_path / "demo_out").iterdir()), f"{demo} wrote no file"


def _imported_modules(tree: ast.AST):
    """Every module an import names, as pulsepsd.x for relative imports, with its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pulsepsd" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_the_library_stays_out_of_the_cli_and_the_cli_holds_no_library_logic():
    import pulsepsd.cli

    package = Path(pulsepsd.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "cli.py":
            imported = set(_imported_modules(ast.parse(path.read_text())))
            assert "pulsepsd.cli" not in imported, f"{path.name} imports pulsepsd.cli"
    own = [
        name
        for name, fn in inspect.getmembers(pulsepsd.cli, inspect.isfunction)
        if fn.__module__ == "pulsepsd.cli"
    ]
    assert "main" in own and "build_parser" in own
    stray = [
        name for name in own
        if name not in ("main", "build_parser") and not name.startswith(("cmd_", "_"))
    ]
    assert not stray, f"library functions defined in pulsepsd.cli: {stray}"


def _law_names(tree: ast.AST) -> list[int]:
    """Lines that name BlankLaw or read a ``.blank_law`` attribute."""
    lines = []
    for node in ast.walk(tree):
        named = (
            (isinstance(node, ast.Name) and node.id == "BlankLaw")
            or (isinstance(node, ast.Attribute) and node.attr in ("BlankLaw", "blank_law"))
            or (isinstance(node, ast.alias) and node.name == "BlankLaw")
        )
        if named:
            lines.append(node.lineno)
    return lines


def test_only_the_model_reads_the_blank_law():
    # the law is decided once, as model.front_head; theta, <T> and synthesis
    # read that head, and the CLI only maps --law onto the enum
    package = Path(pulsepsd.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name not in ("model.py", "cli.py"):
            lines = _law_names(ast.parse(path.read_text()))
            assert not lines, f"{path.name} names the blank law on lines {lines}"
    assert _law_names(ast.parse((package / "model.py").read_text()))


def test_only_the_run_pair_tells_the_trains_apart_in_the_closed_forms():
    # charfn and analytic name a Variant member or read .variant only to
    # refuse the other train; model.run_laws is where the trains differ
    package = Path(pulsepsd.__file__).parent
    for name in ("charfn.py", "analytic.py"):
        tree = ast.parse((package / name).read_text())
        refusals = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_variant"
            for inner in ast.walk(node)
        }
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and id(node) not in refusals
            and (node.attr == "variant" or getattr(node.value, "id", None) == "Variant")
        ]
        assert not lines, f"{name} tells the trains apart on lines {lines}"


def test_only_the_alphabet_tells_the_trains_apart_in_the_estimator():
    # sim reads .variant or names Variant only to check a config, to draw and
    # synthesize a realization and to pick the symbol alphabet; past the
    # alphabet one transform path serves both trains
    allowed = {"SimConfig", "_symbols_drawn", "synthesize_realization", "_alphabet"}
    tree = ast.parse((Path(pulsepsd.__file__).parent / "sim.py").read_text())
    readers = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "variant")
        or (isinstance(node, ast.Name) and node.id == "Variant")
    }
    assert readers <= allowed, f"sim tells the trains apart in {sorted(readers - allowed)}"
    assert "_alphabet" in readers


def test_no_module_reads_the_environment():
    # every setting is a flag or an argument; the worker cap is the core count
    package = Path(pulsepsd.__file__).parent
    env = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "os" else set()
            else:
                continue
            reads += [f"{path.name}:{node.lineno} os.{name}" for name in sorted(names & env)]
    assert not reads, f"environment reads: {reads}"
