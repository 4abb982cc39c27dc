"""Characteristic functions of pulse durations, gaps, and front intervals.

For the transition-stretch model the pulse duration tau and the gap l are
geometric sums of whole symbols with a +delta/-delta end shift, giving the
closed forms

    theta1(w) = q * exp(jw delta) * exp(jw t0) / (1 - p exp(jw t0))
    theta2(w) = p * exp(-jw delta) * exp(jw t0) / (1 - q exp(jw t0))

with q = 1 - p. For the blank-shorten model the front-to-front interval
covers k symbol slots with probability p q^(k-1) and lasts t0*k minus a
shortening that depends on the chosen law; both closed forms are
geometric-series limits. All functions accept a scalar
or array ``omega`` in rad/sample and are pure.
"""

from __future__ import annotations

import numpy as np

from .model import BlankLaw, TrainParams, Variant

__all__ = [
    "NearSingularError",
    "theta1",
    "theta2",
    "theta_blank",
    "discrete_component_detector",
]

DETECTOR_TOL = 1e-9
_DENOM_FLOOR = 1e-12


class NearSingularError(ArithmeticError):
    """A closed-form denominator fell below the safe floor at some omega."""

    def __init__(self, omega: float, message: str):
        super().__init__(message)
        self.omega = omega


def _require_transition(params: TrainParams) -> None:
    if params.variant is not Variant.TRANSITION_STRETCH:
        raise ValueError(f"params.variant must be TRANSITION_STRETCH, got {params.variant}")


def _check_denominator(den: np.ndarray, omega: np.ndarray, what: str) -> None:
    bad = np.abs(den) <= _DENOM_FLOOR
    if np.any(bad):
        w = float(np.asarray(omega, dtype=float).reshape(-1)[np.argmax(bad.reshape(-1))])
        raise NearSingularError(w, f"{what} denominator nearly singular at omega={w!r}")


def _geometric(omega, params: TrainParams, first: float, repeat: float, shift: float, what: str):
    """first * exp(jw shift) * z / (1 - repeat z) with z = exp(jw t0)."""
    _require_transition(params)
    w = np.asarray(omega, dtype=float)
    z = np.exp(1j * w * params.t0)
    den = 1.0 - repeat * z
    _check_denominator(den, w, what)
    out = first * np.exp(1j * w * shift) * z / den
    return complex(out) if np.isscalar(omega) else out


def theta1(omega, params: TrainParams):
    """Characteristic function of the pulse duration tau; |theta1| <= 1, theta1(0) = 1."""
    return _geometric(omega, params, params.prob_zero, params.prob_one, params.delta, "theta1")


def theta2(omega, params: TrainParams):
    """Characteristic function of the gap l between pulses; |theta2| <= 1."""
    return _geometric(omega, params, params.prob_one, params.prob_zero, -params.delta, "theta2")


def theta_blank(
    omega, t0: float, delta: float, law: BlankLaw = BlankLaw.PAPER_K_DELTA, prob_one: float = 0.5
):
    """Characteristic function of the blank-shorten front-to-front interval.

    A front is followed by j >= 0 zeros and then a one, with probability
    p q^j (p = ``prob_one``, q = 1 - p), so the interval covers k = j + 1
    symbol slots. With z = exp(jw t0) and v = exp(jw(t0-delta)):

    * PAPER_K_DELTA: interval over k slots shortened by k*delta for k >= 2,
      single slot unshortened: theta = p z + p q v^2 / (1 - q v).
    * GENERATOR_K_MINUS_ONE_DELTA: shortened by (k-1)*delta, k >= 1, which
      sums to theta = p z / (1 - q v).

    Both laws coincide at delta = 0 with the fixed-slot renewal form
    p z/(1 - q z), and theta(0) = 1 for either law.
    """
    if not 0 <= delta < t0:
        raise ValueError(f"need 0 <= delta < t0, got delta={delta!r}, t0={t0!r}")
    if not 0.0 < prob_one < 1.0:
        raise ValueError(f"prob_one must lie in (0, 1), got {prob_one!r}")
    w = np.asarray(omega, dtype=float)
    p, q = prob_one, 1.0 - prob_one
    z = np.exp(1j * w * t0)
    u = q * np.exp(1j * w * (t0 - delta))
    den = 1.0 - u
    _check_denominator(den, w, "theta_blank")
    # p q v^2 = (p/q) u^2; the factors p and p/q are exact at p = 1/2
    if law is BlankLaw.PAPER_K_DELTA:
        out = p * z + (p / q) * u * u / den
    elif law is BlankLaw.GENERATOR_K_MINUS_ONE_DELTA:
        out = p * z / den
    else:
        raise ValueError(f"unknown blank law {law!r}")
    return complex(out) if np.isscalar(omega) else out


def discrete_component_detector(
    params: TrainParams, k_max: int, tol: float = DETECTOR_TOL
) -> list[tuple[int, bool]]:
    """Decide which clock harmonics k/t0 carry a discrete spectral line.

    A line exists at harmonic k iff |theta1*theta2| at w_k = 2 pi k / t0
    reaches 1 (periodicity of the front process, necessary) AND the line
    power factor sin^2(pi k delta / t0) is nonzero (sufficiency); with
    delta = 0 the periodicity condition still holds but every line
    vanishes.
    """
    _require_transition(params)
    if k_max <= 0:
        raise ValueError(f"k_max must be positive, got {k_max}")
    k = np.arange(1, k_max + 1)
    w_k = 2.0 * np.pi * k / params.t0
    product_mag = np.abs(theta1(w_k, params) * theta2(w_k, params))
    sin_sq = np.sin(np.pi * k * params.delta / params.t0) ** 2
    exists = (product_mag >= 1.0 - tol) & (sin_sq > tol)
    return [(int(ki), bool(ei)) for ki, ei in zip(k, exists)]
