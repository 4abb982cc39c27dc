"""Characteristic functions of a pulse train's runs, and its clock lines.

Both trains alternate independent high runs tau and low runs l. A run
law (P, a, r) lasts a with probability P, each further symbol adding r,
so theta(w) = P exp(jwa) / (1 - (1 - P) exp(jwr)). The pair, from
:func:`~pulsepsd.model.run_laws` (p = P(one), q = 1 - p, head the
:func:`~pulsepsd.model.front_head` of the law), is

    transition:  tau = (q, t0 + delta, t0)   l = (p, t0 - delta, t0)
    blank:       tau = (q, t0, t0)           l = (p, head - delta, t0 - delta)

:func:`run_pair` gives 1 - theta and 1 - |theta|^2 of both without
cancellation as w -> 0, from E(x) = exp(jwx) - 1 = -2 sin^2(wx/2) + j sin(wx):

    1 - theta     = -[(1 - P) E(r) + P E(a)] / (P - (1 - P) E(r))
    1 - |theta|^2 = 4 (1 - P) sin^2(wr/2) / |P - (1 - P) E(r)|^2

The denominator has real part P + 2 (1 - P) sin^2(wr/2) >= P, so it never
vanishes; :class:`~pulsepsd.model.TrainParams` keeps P^2 normal, so both
values are finite at every finite w and nothing here can refuse one.

theta1 and theta2 are the transition train's tau and l, theta_blank the
blank front-to-front interval's, a pulse of t0 and, with probability q, a
low run: theta_blank = exp(jw t0) (1 - q (1 - theta_l)). ``omega`` is in
rad/sample throughout.
"""

from __future__ import annotations

import numpy as np

from .model import TrainParams, Variant, require_variant, run_laws

__all__ = [
    "theta1",
    "theta2",
    "theta_blank",
    "discrete_component_detector",
]

DETECTOR_TOL = 1e-9


def _expm1j(w, x):
    """exp(jwx) - 1 as -2 sin^2(wx/2) + j sin(wx): no cancellation as wx -> 0."""
    t = np.multiply(w, x)
    out = np.empty(t.shape, dtype=complex)
    np.sin(t, out=out.imag)
    np.sin(0.5 * t, out=t)
    np.multiply(-2.0 * t, t, out=out.real)
    return out


def _run(run, e: dict):
    """(1 - theta, 1 - |theta|^2) of the law ``run``; ``e`` maps x to exp(j omega x) - 1."""
    P, a, r = run
    loss = -2.0 * (1.0 - P) * e[r].real  # g = 4 (1 - P) sin^2(omega r / 2)
    loss /= loss + P * P  # |P - (1 - P) E(r)|^2 = P^2 + g
    den = (1.0 - P) * e[r]
    num = P * e[a]
    num += den
    den -= P
    return np.divide(num, den, out=num), loss


def _pair(params: TrainParams, expm1j):
    """:func:`_run` of tau and of l, with ``expm1j`` the map x -> exp(j omega x) - 1.

    Of three equally spaced lengths, the least follows from the others as
    exp(j w lo) = exp(j w mid)^2 exp(-j w hi): one transcendental fewer.
    """
    runs = run_laws(params)
    lengths = sorted({x for _, a, r in runs for x in (a, r)})
    derive = len(lengths) == 3 and lengths[0] + lengths[2] == 2 * lengths[1]
    e = {x: expm1j(x) for x in (lengths[1:] if derive else lengths)}
    if derive:
        lo, mid, hi = lengths
        e[lo] = (e[mid] + 2.0) * e[mid] * np.conj(1.0 + e[hi]) + np.conj(e[hi])
    tau, l = runs
    pair_tau = _run(tau, e)
    for x in set(tau[1:]) - set(l[1:]):  # free what only tau reads
        del e[x]
    return pair_tau, _run(l, e)


def run_pair(omega, params: TrainParams):
    """((1 - theta, 1 - |theta|^2) of tau, the same of l) at ``omega``, each at least 1-D."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return _pair(params, lambda x: _expm1j(w, x))


def _run_slopes(omega: np.ndarray, params: TrainParams):
    """d/domega of 1 - theta of tau and of l at ``omega`` (1-D, away from 0).

    For a law (P, a, r), theta' = j theta (a + r z / (1 - z)) with z = (1 - P) exp(j omega r).
    """
    slopes = []
    for P, a, r in run_laws(params):
        z = (1.0 - P) * np.exp(1j * omega * r)
        slopes.append(-1j * P * np.exp(1j * omega * a) / (1.0 - z) * (a + r * z / (1.0 - z)))
    return slopes


def _harmonic_pair(params: TrainParams, k):
    """:func:`run_pair` at the clock harmonics w = 2 pi k / t0 of the integers ``k``.

    Lengths are reduced modulo t0, so a whole number of periods gives exactly 0.
    """
    return _pair(params, lambda x: _expm1j(2.0 * np.pi / params.t0, np.mod(k * x, params.t0)))


def clock_harmonics(params: TrainParams, k_max: int):
    """k = 1..k_max, w_k = 2 pi k / t0, 1 - theta_tau there, and where theta_tau theta_l = 1."""
    if k_max <= 0:
        raise ValueError(f"k_max must be positive, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=np.int64)
    (a, _), (b, _) = _harmonic_pair(params, k)
    return k, 2.0 * np.pi * k / params.t0, a, np.abs(a + b - a * b) < DETECTOR_TOL


def _shaped(omega, out):
    """``out``, computed on the 1-D form of ``omega``, in the shape of ``omega``."""
    return complex(out[0]) if np.isscalar(omega) else out.reshape(np.shape(omega))


def theta1(omega, params: TrainParams):
    """Characteristic function of the pulse duration tau; |theta1| <= 1, theta1(0) = 1."""
    require_variant(params, Variant.TRANSITION_STRETCH)
    return _shaped(omega, 1.0 - run_pair(omega, params)[0][0])


def theta2(omega, params: TrainParams):
    """Characteristic function of the gap l between pulses; |theta2| <= 1."""
    require_variant(params, Variant.TRANSITION_STRETCH)
    return _shaped(omega, 1.0 - run_pair(omega, params)[1][0])


def theta_blank(omega, params: TrainParams):
    """Characteristic function of the blank-shorten front-to-front interval.

    The interval covers k symbol slots with probability p q^(k-1): t0 for
    k = 1, else a :func:`~pulsepsd.model.front_head` and k - 1 slots of
    t0 - delta; that is a pulse of t0 and, with probability q, a low run.
    """
    require_variant(params, Variant.BLANK_SHORTEN)
    out = 1.0 - params.prob_zero * run_pair(omega, params)[1][0]
    out *= np.exp(1j * params.t0 * np.asarray(omega, dtype=float))
    return _shaped(omega, out)


def discrete_component_detector(params: TrainParams, k_max: int) -> list[tuple[int, bool]]:
    """Flag the clock harmonics k/t0 that carry a line.

    There theta_tau theta_l = 1 (periodic fronts) and |1 - theta_tau|^2 / 4
    = sin^2(pi k delta / t0) > DETECTOR_TOL; with delta = 0 no line exists.
    """
    require_variant(params, Variant.TRANSITION_STRETCH)
    k, _, a, periodic = clock_harmonics(params, k_max)
    exists = periodic & (np.abs(a / 2.0) ** 2 > DETECTOR_TOL)
    return [(int(ki), bool(ei)) for ki, ei in zip(k, exists)]
