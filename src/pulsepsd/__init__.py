"""Analytic and Monte Carlo spectra of random NRZ pulse trains.

The package models two unit-amplitude binary pulse trains whose symbol
durations are deliberately made non-uniform by a small predistortion
delta, computes their power spectral densities in closed form (a
continuous part plus discrete clock-harmonic lines), cross-checks the
formulas against a deterministic seeded averaged-periodogram estimator,
and characterizes the clock-frequency peak that the predistortion
creates.
"""

__version__ = "0.1.0"

from . import analytic, charfn, io, model, peaks, sim
from .analytic import *  # noqa: F401,F403
from .charfn import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .peaks import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (model, charfn, analytic, sim, peaks, io) for name in module.__all__
]
