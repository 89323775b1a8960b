"""The unit-Gaussian convolution operator K and its linear theory.

K acts by (K f)(t) = pi^(-1/2) int exp(-(t-u)^2) f(u) du.  Its exact action
on Hermite data is the backbone of the package: if f has H-coefficients
a_n = (f, H_n)_1 then K f is the entire function with Taylor series
sum a_n t^n / n!, and the adjoint satisfies K* H_n = V_n, which yields the
conservation identity (K f, H_n)_1 = (f, V_n)_{1/2}.

The linear fixed-point equation K phi = phi has continuous spectrum
e^{-xi^2/4} on [0, 1] with plane-wave eigenfunctions, a pair of growing
oscillating solutions e^{+-2 sqrt(k pi) t} cos(2 sqrt(k pi) t) coming from
x-periodic caloric functions, and an infinite triangular system tying the
Hermite coefficients of any L2_{1/2} solution into four independent
factorial-weighted blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    SQRT_PI,
    HermiteSeries,
    QuadratureRule,
    gauss_hermite_rule,  # noqa: F401 -- unused here; perfbench/test_perfbench.py expects this binding
)

__all__ = [
    "TaylorSeries",
    "EigenfunctionSpec",
    "EvaluationError",
    "gauss_moment",
    "apply_K_point",
    "apply_K_series",
    "norm_bound",
    "entire_bound",
    "eigenfunction",
    "periodic_solution",
    "linear_block_residual",
]



class EvaluationError(ValueError):
    """A function produced a non-finite value at a required node."""

    def __init__(self, message: str, node: float):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated entire-function data A(t) = sum coeffs[n] t^n / n!."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("Taylor coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        fact = np.array([math.factorial(k) for k in range(self.coeffs.size)])
        mono = self.coeffs / fact
        out = np.polynomial.polynomial.polyval(t, mono)
        return out if out.shape else float(out)


def gauss_moment(f, t, rule: QuadratureRule, x: float = 1.0, k: int = 0):
    """pi^(-1/2) sum_i w_i u_i^k f(t - sqrt(x) u_i), vectorized over t.

    With k = 0 this is the heat flow of f at time x, so x = 1 gives (K f)(t);
    k >= 1 gives the kernel moments behind its t-derivatives.

    f is called once, on a 1-D array in t-major order: t - sqrt(x) u_i
    for every node u_i of the first t, then of the second, and so on.  The
    sums are one dot product per t.  A non-finite integrand value raises
    EvaluationError naming the first offending sample in that order.
    """
    t = np.asarray(t, dtype=float)
    shifted = t[..., None] - math.sqrt(x) * rule.nodes
    fv = np.asarray(f(shifted.ravel()), dtype=float).reshape(shifted.shape)
    bad = ~np.isfinite(fv)
    if bad.any():
        node = float(shifted[bad][0])
        raise EvaluationError(f"non-finite integrand value at tau={node}", node)
    out = fv @ (rule.weights * rule.nodes**k) / SQRT_PI
    return out if out.shape else float(out)


def apply_K_point(f, t, rule: QuadratureRule):
    """(K f)(t) = pi^(-1/2) sum_i w_i f(t - u_i), vectorized over t."""
    return gauss_moment(f, t, rule)


def apply_K_series(s: HermiteSeries) -> TaylorSeries:
    """Exact action on H-basis data: Taylor coefficients of K f equal the a_n."""
    if s.basis != "H":
        raise ValueError("apply_K_series expects an H-basis series (weight 1)")
    return TaylorSeries(coeffs=s.coeffs.copy())


def norm_bound(alpha: float, beta: float) -> float:
    """Operator-norm constant of K: L2_alpha -> L2_beta.

    Valid for 0 < alpha < 2 and beta > 2 alpha / (2 - alpha); the constant is
    (2 alpha - 2 alpha^2/beta - alpha^2)^(-1/4).
    """
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if not beta > 2 * alpha / (2 - alpha):
        raise ValueError(f"beta must exceed 2*alpha/(2-alpha)={2 * alpha / (2 - alpha)}, got {beta}")
    return (2 * alpha - 2 * alpha**2 / beta - alpha**2) ** -0.25


def entire_bound(z_re: float, z_im: float, alpha: float, norm_f: float) -> float:
    """Pointwise bound |K f(z)| <= |f|_a (2-a)^(-1/4) exp(y^2 + a t^2/(2-a))."""
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    return norm_f * (2 - alpha) ** -0.25 * math.exp(z_im**2 + alpha / (2 - alpha) * z_re**2)


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Frequency/shape tag for a generalized eigenfunction of K."""

    xi: float
    kind: str  # cos | sin | const | linear

    def __post_init__(self):
        if self.kind not in ("cos", "sin", "const", "linear"):
            raise ValueError(f"unknown eigenfunction kind {self.kind!r}")
        if self.xi < 0:
            raise ValueError("frequency must be non-negative")
        if (self.xi == 0) != (self.kind in ("const", "linear")):
            raise ValueError("kind const/linear iff xi == 0")


def eigenfunction(spec: EigenfunctionSpec):
    """Return (callable, eigenvalue e^{-xi^2/4}) for the given spec."""
    lam = math.exp(-spec.xi**2 / 4)
    if spec.kind == "const":
        return (lambda t: np.ones_like(np.asarray(t, dtype=float))), lam
    if spec.kind == "linear":
        return (lambda t: np.asarray(t, dtype=float)), lam
    if spec.kind == "cos":
        return (lambda t, xi=spec.xi: np.cos(xi * np.asarray(t, dtype=float))), lam
    return (lambda t, xi=spec.xi: np.sin(xi * np.asarray(t, dtype=float))), lam


def periodic_solution(k: int, sign: int = +1):
    """Fixed point of K from the x-periodic caloric family.

    Returns (phi, u) with phi(t) = e^{s a t} cos(a t), a = 2 sqrt(k pi),
    s = sign, and u(x, t) = e^{s a t} cos(a t + s 2 k pi x) solving
    u_x = u_tt / 4 with period 1 in x and u(1, .) = phi.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    a = 2.0 * math.sqrt(k * math.pi)

    def phi(t):
        t = np.asarray(t, dtype=float)
        return np.exp(sign * a * t) * np.cos(a * t)

    def u(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(sign * a * t) * np.cos(a * t + sign * 2 * k * math.pi * x)

    return phi, u


def linear_block_residual(s: HermiteSeries, kappa: int) -> list[float]:
    """Residuals of the two factorial-weighted block sums for residue class kappa.

    For each block index k with 2 + 4k + kappa inside the truncation, the
    returned flat list holds the pair

        sum_l a_{2+4k+4l+kappa} / (2^{4l} (2l+1)!),
        sum_l a_{2+4k+4l+kappa} / (2^{4l} (2l+2)!),

    both of which vanish for Hermite coefficients of a solution of the
    linear equation K phi = phi.  Coefficients beyond the stored order
    count as zero, so every stored term enters the sums.
    """
    if kappa not in (0, 1, 2, 3):
        raise ValueError("kappa must be one of 0, 1, 2, 3")
    if s.basis != "H":
        raise ValueError("block residuals are defined for H-basis coefficients")
    # every stored term enters: solution coefficients can grow like (2 sqrt(2 pi))^n, so a cutoff
    # on the factorial weight alone would drop terms that are still O(1)
    longest = s.coeffs[2 + kappa :: 4].size
    weights = np.array([[1.0 / (16.0**l * math.factorial(2 * l + j)) for l in range(longest)] for j in (1, 2)])
    out: list[float] = []
    for start in range(2 + kappa, s.order + 1, 4):
        block = s.coeffs[start::4]
        out.extend((weights[:, : block.size] @ block).tolist())
    return out

