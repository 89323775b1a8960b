"""What each check of a solve result can see: defects planted into the converged p=3 solution.

Each candidate is power_interpolant of the solution's grid values, modified.
A check flags a candidate when its figure exceeds the tolerance it is held
to today: the benchmark's grid residual gate, the CI bound on the midpoint
residual, criterion 7's bound on the conservation laws and the benchmark's
energy gate on (-8, 8); local_zero_analysis flags by raising.  Only the
flags are pinned, so a check that stops seeing a defect fails here; the
figures measured on this construction are in each case's comment.
"""
import numpy as np
import pytest
from scipy.special import erf

from padic_string import basis, bvp, heatflow, solver

TOLERANCES = {"grid": 1e-6, "midpoint": 1e-9, "law": 1e-6, "energy": 1e-2}


def flags(nodes, values, p: int = 3) -> set:
    """The checks whose figure on power_interpolant(nodes, values, p) exceeds its tolerance."""
    phi = solver.power_interpolant(nodes, values, p)
    breaks = solver.detect_sign_changes(phi)
    figures = {
        "grid": solver.residual(phi, p, ts=nodes, breaks=breaks),
        "midpoint": solver.residual(phi, p, ts=0.5 * (nodes[1:] + nodes[:-1]), breaks=breaks),
        "law": float(np.max(solver.conservation_laws_check(phi, p, 8, breaks))),
        "energy": heatflow.energy_identity_residual(phi, p, domain=(-8.0, 8.0)),
    }
    flagged = {name for name, figure in figures.items() if not figure < TOLERANCES[name]}
    try:
        bvp.local_zero_analysis(basis.GridFunction(nodes, values), (p - 1) // 2)
    except ValueError:
        flagged.add("zero")
    return flagged


@pytest.mark.parametrize("plant, flagged", [
    # grid 5.3e-12, midpoint 5.3e-12, law 4.1e-10, energy 1.4e-11
    pytest.param(lambda r: r.grid.values, set(), id="the solution"),
    # a solution too: the same figures
    pytest.param(lambda r: r.phi(r.grid.nodes - 1e-3), set(), id="shifted by 1e-3"),
    # grid 2.0e-6, midpoint 2.0e-6, law 1.5e-5, energy 5.6e-5
    pytest.param(lambda r: r.grid.values * (1.0 + 1e-6), {"grid", "midpoint", "law"}, id="scaled by 1+1e-6"),
    # grid 7.7e-7, midpoint 7.7e-7, law 4.4e-4: only the laws and the midpoints see it
    pytest.param(lambda r: r.grid.values + 1e-6 * np.exp(-r.grid.nodes**2), {"midpoint", "law"},
                 id="plus 1e-6 exp(-t^2)"),
    # grid 2.5e-4, midpoint 2.8e-4, law 3.6e-8, energy 1.6e-3: only the residuals see it
    pytest.param(lambda r: r.grid.values * np.where(np.abs(r.grid.nodes) > 6.0, 1.0 - 1e-4, 1.0),
                 {"grid", "midpoint"}, id="times 1-1e-4 on |t|>6"),
    # grid 0.17, midpoint 0.17, law 17.7, energy 0.54
    pytest.param(lambda r: np.cbrt(erf(1.3 * r.grid.nodes)), {"grid", "midpoint", "law", "energy"},
                 id="cbrt(erf(1.3t))"),
    # grid 2.2e-16, law 1.3e-13, energy 0: a solution with no zero, which only the zero analysis rejects
    pytest.param(lambda r: np.ones_like(r.grid.nodes), {"zero"}, id="the constant 1"),
])
def test_each_check_flags_what_it_can_see(solved_p3, plant, flagged):
    got = flags(solved_p3.grid.nodes, plant(solved_p3))
    if flagged:
        assert flagged <= got
    else:
        assert got == set()
