import numpy as np
import pytest
from scipy.special import erf

from padic_string import basis, solver
from reference_kink import ReferenceKink


@pytest.fixture(scope="session")
def rule96():
    return basis.gauss_hermite_rule(96)


@pytest.fixture(scope="session")
def rule64():
    return basis.gauss_hermite_rule(64)


@pytest.fixture(scope="session")
def solved_p3():
    """Converged odd p=3 boundary-value solution, shared across modules."""
    cfg = solver.SolverConfig(p=3, grid_step=0.025)
    result = solver.fixed_point_iterate(cfg, lambda t: erf(t))
    assert result.converged
    return result


@pytest.fixture(scope="session")
def reference_kinks():
    """The independent Nystrom references of the odd kink for p = 3 and p = 5, built once."""
    return {p: ReferenceKink(p) for p in (3, 5)}


def hermite_fn(n):
    return lambda t: basis.eval_H(n, t)


def modified_hermite_fn(n):
    return lambda t: basis.eval_V(n, t)


def const_one(t):
    return np.ones_like(np.asarray(t, dtype=float))
