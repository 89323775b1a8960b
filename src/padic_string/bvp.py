"""Boundary-value ansatz solvers built on the error function.

For the even-power boundary problem (limits 0 at -inf, 1 at +inf) the
candidate is

    phi(t) = 1/2 + 1/2 erf(t) + e^{-(alpha^2-1) t^2} sum_m c_m H_m(alpha t),

with alpha > 1 so the correction decays.  Its Hermite coefficients a_n are
an explicit triangular function of the c_m (ansatz_to_hermite), so matching
any four target coefficients a_0..a_3 inverts in closed form
(solve_bvp_3approx); the default targets are the mixed branch of the
truncated p=2 coefficient system.  local_zero_analysis measures the
fractional-power law of an odd solution at the zero it locates: the slope
a_1 from the weighted first moment and the exponent 1/(2q+1) from a log-log
fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SQRT_PI, GridFunction, _erf, hermite_table
from .solver import _zero_exponent, detect_sign_changes, panel_rule, power_interpolant, solve_3approx

__all__ = [
    "ErfAnsatz",
    "LocalZeroReport",
    "erf_base_coeff",
    "ansatz_to_hermite",
    "branch_c_targets",
    "solve_bvp_3approx",
    "gaussian_part_monomials",
    "local_zero_analysis",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ErfAnsatz:
    """Boundary-respecting candidate: erf step plus Gaussian-damped Hermite tail."""

    alpha: float
    c: np.ndarray

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError(f"alpha must exceed 1 (the damping needs alpha^2 > 1), got {self.alpha}")
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c", c)

    def correction(self, t):
        """The damped Hermite part e^{-(alpha^2-1)t^2} sum c_m H_m(alpha t)."""
        t = np.asarray(t, dtype=float)
        table = hermite_table(self.c.size - 1, self.alpha * t)
        out = np.exp(-(self.alpha**2 - 1.0) * t.ravel() ** 2) * (self.c @ table)
        return out.reshape(t.shape) if t.shape else float(out[0])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 + 0.5 * _erf(t) + self.correction(t)


def erf_base_coeff(n: int) -> float:
    """Hermite coefficient e_n = (1/2 + erf/2, H_n)_1 of the base step.

    1/2 at n = 0, zero for the remaining even n, and for odd n = 2j+1 the
    half-integer Gamma closed form collapses to (-1)^j (n-2)!! / sqrt(2 pi).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return 0.5
    if n % 2 == 0:
        return 0.0
    j = (n - 1) // 2
    double_fact = math.prod(range(1, n - 1, 2)) if n > 1 else 1  # (n-2)!!
    return (-1.0) ** j * double_fact * _INV_SQRT_2PI


def ansatz_to_hermite(az: ErfAnsatz, n: int) -> float:
    """Hermite coefficient a_n = (phi, H_n)_1 of the ansatz, in closed form.

    a_n = e_n + n! alpha^{-n-1} sum_{m<=n, m=n mod 2}
          c_m 2^m / ((n-m)/2)! (1 - alpha^2)^{(n-m)/2}.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    alpha = az.alpha
    total = 0.0
    for m in range(n % 2, min(n, az.c.size - 1) + 1, 2):
        j = (n - m) // 2
        total += az.c[m] * 2.0**m / math.factorial(j) * (1.0 - alpha**2) ** j
    return erf_base_coeff(n) + math.factorial(n) * alpha ** (-n - 1) * total


def branch_c_targets(sign: int = +1) -> tuple[float, float, float, float]:
    """Default target coefficients: the mixed branch of the truncated p=2 system."""
    branch = [s for s in solve_3approx() if s.label == "branch_c" and math.copysign(1, s.a1) == sign]
    a = branch[0]
    return a.a0, a.a1, a.a2, a.a3


def solve_bvp_3approx(alpha: float, a_targets=None) -> np.ndarray:
    """Invert the triangular coefficient relations for given targets a_0..a_3.

    c0 = alpha (a0 - 1/2)
    c1 = alpha^2 (a1 - 1/sqrt(2 pi)) / 2
    c2 = alpha^3 a2 / 8 + c0 (alpha^2 - 1) / 4
    c3 = alpha^4 (a3 + 1/sqrt(2 pi)) / 48 + c1 (alpha^2 - 1) / 4
    """
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if a_targets is None:
        a_targets = branch_c_targets(+1)
    a0, a1, a2, a3 = (float(v) for v in a_targets)
    c0 = alpha * (a0 - 0.5)
    c1 = alpha**2 * (a1 - _INV_SQRT_2PI) / 2.0
    c2 = alpha**3 * a2 / 8.0 + c0 * (alpha**2 - 1.0) / 4.0
    c3 = alpha**4 * (a3 + _INV_SQRT_2PI) / 48.0 + c1 * (alpha**2 - 1.0) / 4.0
    return np.array([c0, c1, c2, c3])


def gaussian_part_monomials(az: ErfAnsatz) -> np.ndarray:
    """Monomial coefficients (ascending) of the polynomial sum c_m H_m(alpha t)."""
    # herm2poly trims trailing zeros; pad back to one coefficient per c_m
    mono = np.polynomial.hermite.herm2poly(az.c)
    mono = np.pad(mono, (0, az.c.size - mono.size))
    return mono * az.alpha ** np.arange(az.c.size)


@dataclass(frozen=True)
class LocalZeroReport:
    """Fractional-power law of an odd solution at its zero."""

    a1: float
    fitted_exponent: float
    expected_exponent: float
    violation: bool  # the slope coefficient a1 must be positive


_FIT_S = np.geomspace(1e-3, 1e-1, 25)  # offsets s of the exponent fit


def local_zero_analysis(phi, q: int) -> LocalZeroReport:
    """Measure phi ~ (a1 (t - t0))^{1/(2q+1)} at the zero t0 of an odd candidate.

    t0 is the one sign change detect_sign_changes finds on |t| <= 6 (none or
    several raise ValueError).  a1 comes from the weighted first moment
    (4/sqrt(pi)) int_0^inf phi(t0 + s) e^{-s^2} s ds, a panel quadrature of
    the even integrand over |s| <= 12 with sides substituted at its kink
    s = 0 (480 nodes); the exponent is a log-log fit of |phi(t0 + s)| at 25
    geometric steps of s from 1e-3 to 1e-1.  A GridFunction input is evaluated through the smooth power
    interpolant for p = 2q+1, which keeps the fit meaningful below the grid
    spacing.
    """
    if q < 0:
        raise ValueError("q must be a non-negative integer")
    f = power_interpolant(phi.nodes, phi.values, 2 * q + 1) if isinstance(phi, GridFunction) else phi
    zeros = detect_sign_changes(f)
    if len(zeros) != 1:
        raise ValueError(f"candidate must change sign exactly once on |t| <= 6, found {len(zeros)}")
    [t0] = zeros
    probes = np.array([0.5, 1.0, 2.0])
    odd_dev = float(np.max(np.abs(np.asarray(f(t0 + probes)) + np.asarray(f(t0 - probes)))))
    if odd_dev > 1e-3:
        raise ValueError(f"candidate is not odd about t0={t0} within 1e-3 (deviation {odd_dev:.2e})")
    tau, w = panel_rule(-12.0, 12.0, breaks=(0.0,))
    fv = np.asarray(f(t0 + tau), dtype=float)
    a1 = 2.0 * float((w * tau * np.exp(-tau * tau)) @ fv) / SQRT_PI
    return LocalZeroReport(
        a1=a1,
        fitted_exponent=_zero_exponent(f, t0, _FIT_S),
        expected_exponent=1.0 / (2 * q + 1),
        violation=not a1 > 0,
    )
