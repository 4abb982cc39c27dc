"""The package's public surface: one list, no dead names, demos in step."""

import ast
import importlib
from pathlib import Path

import pulsepsd

DEMOS = Path(__file__).resolve().parents[1] / "demos"

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
