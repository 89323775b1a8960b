"""The package's odd-p solves against an independent reference kink (tests/reference_kink.py).

Every check of a solve in the package reads a proxy computed with its own
rules; these read the true error, max |phi - phi_ref| on 4000 points of
[-9.5, 9.5].  Each bound is set a little above the figure it was measured at.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from padic_string import solver

from reference_kink import ReferenceKink

_WINDOW = np.linspace(-9.5, 9.5, 4000)


@pytest.mark.parametrize("p", [3, 5])
def test_reference_refines_to_rounding(reference_kinks, p):
    # 40 nodes per panel, width 0.4, 6 side panels: phi moved by 1.1e-16 for both p
    refined = ReferenceKink(p, side_panels=6, nodes=40, width=0.4)
    ts = np.linspace(0.01, 9.5, 4000)
    assert np.max(np.abs(refined(ts) - reference_kinks[p](ts))) <= 2e-16


@pytest.mark.parametrize("p", [3, 5])
def test_reference_meets_its_equation_at_30_digits(reference_kinks, p):
    # K phi_ref by mpmath.quad at 30 digits against phi_ref^p: 3.7e-17 (p = 3) and
    # 2.9e-16 (p = 5) at most, about p ulps of phi near 1
    ref = reference_kinks[p]
    with mpmath.workdps(30):
        for t in (0.3, 1.0, 2.5):
            k_phi = mpmath.quad(lambda tau: mpmath.exp(-(t - tau) ** 2) * float(ref(float(tau))),
                                [-mpmath.inf, -4, 0, 4, mpmath.inf]) / mpmath.sqrt(mpmath.pi)
            assert abs(float(k_phi - mpmath.mpf(float(ref(t))) ** p)) < 5e-16


def test_reference_is_odd_and_tends_to_one(reference_kinks):
    for ref in reference_kinks.values():
        assert ref(0.0) == 0.0
        assert np.array_equal(ref(-_WINDOW), -ref(_WINDOW))
        assert ref(19.0) == pytest.approx(1.0, abs=1e-15)  # 1 - phi decays like e^{-2 sqrt(ln p) t}


# (p, --step): the measured true error of the solve from erf(1.3 t), and its bound
_STEP_TABLE = {
    (3, 0.025): (3.6e-11, 4e-11),
    (3, 0.05): (3.6e-11, 4e-11),  # the default step
    (3, 0.1): (1.8e-9, 2e-9),
    (3, 0.125): (1.05e-8, 1.2e-8),
    (3, 0.25): (2.25e-6, 2.5e-6),
    (5, 0.025): (2.7e-12, 3e-12),
    (5, 0.05): (9.4e-12, 1.1e-11),  # the default step
    (5, 0.1): (1.7e-9, 2e-9),
    (5, 0.125): (1.02e-8, 1.2e-8),
    (5, 0.25): (2.43e-6, 2.7e-6),
}


@pytest.mark.parametrize("p, step", list(_STEP_TABLE))
def test_solve_true_error_by_step(reference_kinks, p, step):
    result = solver.fixed_point_iterate(solver.SolverConfig(p=p, grid_step=step), lambda t: erf(1.3 * t))
    assert result.converged
    measured, bound = _STEP_TABLE[p, step]
    assert np.max(np.abs(result.phi(_WINDOW) - reference_kinks[p](_WINDOW))) < bound, f"measured {measured:.2e}"


@pytest.mark.parametrize("p, bound", [(3, 4.5e-11), (5, 1.1e-11)])  # measured 4.0e-11 and 9.5e-12
def test_off_centre_solve_against_the_shifted_reference(reference_kinks, p, bound):
    # K commutes with shifts, so the solve from erf(1.3 (t - s)) approximates phi_ref(t - s)
    s = 0.051
    result = solver.fixed_point_iterate(solver.SolverConfig(p=p), lambda t: erf(1.3 * (t - s)))
    assert result.converged
    assert np.max(np.abs(result.phi(_WINDOW) - reference_kinks[p](_WINDOW - s))) < bound
