"""Weighted Hermite bases, Gauss-Hermite quadrature and coefficient algebra.

Everything in this package is built on the scale of Gaussian-weighted
Hilbert spaces with unit-mass measure

    dmu_a(t) = sqrt(a/pi) exp(-a t^2) dt,      (f, g)_a = int f g dmu_a.

Two orthogonal polynomial families are used side by side:

    H_n  -- Hermite polynomials, orthogonal for dmu_1,    |H_n|_1^2    = 2^n n!
    V_n  -- modified Hermite, V_n(x) = 2^(-n/2) H_n(x/sqrt 2),
            orthogonal for dmu_{1/2},                     |V_n|_{1/2}^2 = n!

so a function can carry two truncated expansions

    f = sum_n a_n H_n / (2^n n!)  =  sum_n b_n V_n / n!

and the two coefficient sequences are related by an exact triangular pair
of conversions (one of them alternating in sign).  This module provides
the quadrature rules for integrals against exp(-u^2), pointwise polynomial
evaluation by the stable three-term recurrences, projections, the closed
monomial/duality tables, the conversions, and Parseval diagnostics.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SQRT_PI",
    "QuadratureRule",
    "HermiteSeries",
    "GridFunction",
    "gauss_hermite_rule",
    "eval_H",
    "eval_V",
    "hermite_table",
    "modified_hermite_table",
    "coeff_c",
    "inner_product",
    "inner_xm_Hn",
    "duality_HV_half",
    "duality_HV_one",
    "project",
    "convert_a_to_b",
    "convert_b_to_a",
    "parseval_residual",
]

SQRT_PI = math.sqrt(math.pi)

_MAX_DEGREE = 200
_MAX_QUAD_ORDER = 512


def _as_alpha(w) -> float:
    alpha = float(w)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"weight exponent must be positive, got {alpha}")
    return alpha


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for int f(u) exp(-u^2) du ~= sum w_i f(u_i)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise ValueError("nodes/weights must both have shape (order,)")


@functools.lru_cache(maxsize=None)
def gauss_hermite_rule(M: int) -> QuadratureRule:
    """Gauss-Hermite rule of order M (exact for degree <= 2M-1), built once per M.

    The nodes start as the eigenvalues of the Jacobi matrix of the
    orthonormal Hermite polynomials h_k (off-diagonal sqrt(k/2); Golub &
    Welsch, 1969), and two Newton steps on the recurrence of h_k polish the
    non-negative half.  The recurrence runs on h_k(x) exp(-x^2/2), so
    nothing overflows through M = 512.  The weights
    sqrt(pi) / (M h_{M-1}(x)^2), with h_0 = 1, are taken in log form, so the
    outermost ones underflow to 0 or a subnormal, never to nan.  The
    negative half mirrors the positive one: the nodes are exactly
    antisymmetric and the weights exactly symmetric.  The arrays are
    read-only.
    """
    if not 1 <= M <= _MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be in 1..{_MAX_QUAD_ORDER}, got {M}")
    off = np.sqrt(np.arange(1, M) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[M // 2 :]
    if M % 2:
        x[0] = 0.0
    # the first step takes the eigenvalues' ~1e-14 error to rounding level;
    # the second, itself at rounding level, supplies h_{M-1} for the weights
    for _ in range(2):
        below, at = np.zeros_like(x), np.exp(-0.5 * x * x)
        for k in range(M):
            below, at = at, math.sqrt(2.0 / (k + 1)) * x * at - math.sqrt(k / (k + 1)) * below
        x = x - at / (math.sqrt(2.0 * M) * below)
    w = np.exp(math.log(SQRT_PI / M) - x * x - 2.0 * np.log(np.abs(below)))
    half = M // 2
    nodes = np.concatenate([-x[::-1][:half], x])
    weights = np.concatenate([w[::-1][:half], w])
    if abs(weights.sum() - SQRT_PI) > 1e-12:
        raise RuntimeError("quadrature weights do not sum to sqrt(pi)")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, order=M)


_ERF = np.frompyfunc(math.erf, 1, 1)


def _erf(t):
    """erf elementwise by math.erf; a float for scalar t, else a float array."""
    out = _ERF(t)
    return out.astype(float) if isinstance(out, np.ndarray) else float(out)


def _flag_overflow(values: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    # recurrence overflow surfaces as inf-inf = nan; flag it as a signed
    # infinity following the (2x)^n leading behaviour
    bad = ~np.isfinite(values)
    if bad.any():
        sign = np.where(x >= 0, 1.0, (-1.0) ** n)
        values = np.where(bad, sign * np.inf, values)
    return values


def _three_term(N: int, x: np.ndarray, scale: float, variance: float = 1.0) -> np.ndarray:
    """Rows P_0(x) .. P_N(x) of P_{k+1} = scale (x P_k - variance k P_{k-1}), P_0 = 1.

    scale 2 gives H_n, scale 1 gives V_n, and scale 1 with variance s the
    monic Hermite polynomials of variance s (the heat polynomials); the
    shape is (N+1,) + x.shape.
    """
    table = np.empty((N + 1,) + x.shape)
    table[0] = 1.0
    if N >= 1:
        table[1] = scale * x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, N):
            table[k + 1] = scale * (x * table[k] - variance * k * table[k - 1])
    return table


def eval_H(n: int, x) -> np.ndarray:
    """H_n(x) by the recurrence H_{n+1} = 2x H_n - 2n H_{n-1}."""
    if not 0 <= n <= _MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{_MAX_DEGREE}, got {n}")
    x = np.asarray(x, dtype=float)
    return _flag_overflow(_three_term(n, x, 2.0)[n], n, x)


def eval_V(n: int, x) -> np.ndarray:
    """V_n(x) = 2^(-n/2) H_n(x/sqrt 2) via V_{n+1} = x V_n - n V_{n-1}."""
    if not 0 <= n <= _MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{_MAX_DEGREE}, got {n}")
    x = np.asarray(x, dtype=float)
    return _flag_overflow(_three_term(n, x, 1.0)[n], n, x)


def hermite_table(N: int, x) -> np.ndarray:
    """Rows H_0(x) .. H_N(x) in one recurrence sweep; shape (N+1, len(x))."""
    return _three_term(N, np.asarray(x, dtype=float).ravel(), 2.0)


def modified_hermite_table(N: int, x) -> np.ndarray:
    """Rows V_0(x) .. V_N(x); shape (N+1, len(x))."""
    return _three_term(N, np.asarray(x, dtype=float).ravel(), 1.0)


def coeff_c(n: int, m: int) -> float:
    """Monomial coefficient of H_n: H_n(x) = n! sum_m c_{n,m} x^m."""
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    if m > n or (n - m) % 2 != 0:
        return 0.0
    j = (n - m) // 2
    return (-1.0) ** j * 2.0**m / (math.factorial(m) * math.factorial(j))


def inner_xm_Hn(m: int, n: int) -> float:
    """Closed form of (x^m, H_n)_1; zero for m < n or parity mismatch."""
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    if m < n or (m - n) % 2 != 0:
        return 0.0
    j = (m - n) // 2
    return 2.0 ** (n - m) * math.factorial(m) / math.factorial(j)


def duality_HV_half(m: int, n: int) -> float:
    """Closed form of (H_m, V_n)_{1/2}; zero for m < n or parity mismatch."""
    if m < n or (m - n) % 2 != 0:
        return 0.0
    j = (m - n) // 2
    return 2.0**n * math.factorial(m) / math.factorial(j)


def duality_HV_one(n: int, m: int) -> float:
    """Closed form of (H_n, V_m)_1; zero for m < n or parity mismatch."""
    if m < n or (m - n) % 2 != 0:
        return 0.0
    j = (m - n) // 2
    return (-1.0) ** j * 2.0 ** (n - m) * math.factorial(m) / math.factorial(j)


@dataclass(frozen=True)
class GridFunction:
    """Sampled function on strictly increasing nodes; piecewise linear off-node."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1D arrays of equal length")
        if nodes.size >= 2 and not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.nodes, self.values)


@dataclass(frozen=True)
class HermiteSeries:
    """Truncated expansion sum a_n H_n/(2^n n!) (basis 'H') or sum b_n V_n/n! ('V')."""

    basis: str
    coeffs: np.ndarray

    def __post_init__(self):
        if self.basis not in ("H", "V"):
            raise ValueError(f"basis must be 'H' or 'V', got {self.basis!r}")
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def norms(self) -> np.ndarray:
        """Squared basis norms 2^n n! (H) or n! (V) for each stored index."""
        n = np.arange(self.coeffs.size)
        fact = np.array([math.factorial(k) for k in n], dtype=float)
        return 2.0**n * fact if self.basis == "H" else fact

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        table = hermite_table(self.order, t) if self.basis == "H" else modified_hermite_table(self.order, t)
        out = (self.coeffs / self.norms()) @ table
        return out.reshape(np.shape(t)) if np.shape(t) else float(out[0])


def inner_product(f, g, w, rule: QuadratureRule) -> float:
    """(f, g)_a by Gauss-Hermite quadrature after the substitution t = u/sqrt(a)."""
    alpha = _as_alpha(w)
    t = rule.nodes / math.sqrt(alpha)
    fv = np.asarray(f(t), dtype=float)
    gv = np.asarray(g(t), dtype=float)
    return float(rule.weights @ (fv * gv)) / SQRT_PI


def project(f, w, N: int, rule: QuadratureRule) -> HermiteSeries:
    """Project onto H (weight 1) or V (weight 1/2); coeffs[n] = (f, H_n)_1 resp. (f, V_n)_{1/2}."""
    alpha = _as_alpha(w)
    if math.isclose(alpha, 1.0):
        basis = "H"
    elif math.isclose(alpha, 0.5):
        basis = "V"
    else:
        raise ValueError("projection weight must be 1 (H basis) or 1/2 (V basis)")
    t = rule.nodes / math.sqrt(alpha)
    fv = np.asarray(f(t), dtype=float)
    table = hermite_table(N, t) if basis == "H" else modified_hermite_table(N, t)
    coeffs = table @ (rule.weights * fv) / SQRT_PI
    return HermiteSeries(basis=basis, coeffs=coeffs)


def _conversion_matrix(rows: int, cols: int, signed: bool) -> np.ndarray:
    """T[n, m] = (+-1)^j 2^(n-m) / j! for m = n + 2j, zero otherwise.

    T @ a converts H-coefficients a to V-coefficients; with signed=True,
    T @ b converts V-coefficients b back to H-coefficients.
    """
    n = np.arange(rows)[:, None]
    gap = np.arange(cols)[None, :] - n
    j = np.clip(gap, 0, None) // 2
    fact = np.array([math.factorial(k) for k in range(cols)], dtype=float)
    entries = 2.0 ** -gap / fact[j] * ((-1.0) ** j if signed else 1.0)
    return np.where((gap >= 0) & (gap % 2 == 0), entries, 0.0)


def _convert(s: HermiteSeries, M: int | None, source: str, message: str) -> HermiteSeries:
    """s, which must be in basis source (else ValueError(message)), in the other basis to order M.

    M defaults to s.order + 16 and must cover the stored coefficients.
    """
    if s.basis != source:
        raise ValueError(message)
    if M is None:
        M = s.order + 16
    if M < s.order:
        raise ValueError("truncation order must cover the stored coefficients")
    signed = source == "V"
    coeffs = _conversion_matrix(M + 1, s.coeffs.size, signed) @ s.coeffs
    return HermiteSeries(basis="H" if signed else "V", coeffs=coeffs)


def convert_a_to_b(s: HermiteSeries, M: int | None = None) -> HermiteSeries:
    """b_n = sum_{m>=n, m=n mod 2} 2^(n-m) / ((m-n)/2)! a_m, truncated at M.

    Coefficients beyond the stored order are exact zeros, so the sums are
    finite and the conversion is exact up to rounding.
    """
    return _convert(s, M, "H", "convert_a_to_b expects an H-basis series")


def convert_b_to_a(s: HermiteSeries, M: int | None = None) -> HermiteSeries:
    """a_n = sum_{m>=n, m=n mod 2} (-1)^((m-n)/2) 2^(n-m) / ((m-n)/2)! b_m."""
    return _convert(s, M, "V", "convert_b_to_a expects a V-basis series")


def parseval_residual(f, s: HermiteSeries, rule: QuadratureRule) -> float:
    """| quadrature norm^2 of f - sum coeffs_n^2 / norm_n | in the basis weight."""
    alpha = 1.0 if s.basis == "H" else 0.5
    norm_sq = inner_product(f, f, alpha, rule)
    return abs(norm_sq - float(np.sum(s.coeffs**2 / s.norms())))
