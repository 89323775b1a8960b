"""Heat-flow interpolation between phi and phi^p, and the zero-branching toolkit.

A candidate solution phi and its power are the x=0 and x=1 slices of a
caloric function u solving u_x = u_tt / 4, recovered from phi by the
Poisson formula

    u(x, t) = (pi x)^(-1/2) int phi(tau) exp(-(t-tau)^2 / x) dtau,

which after tau = t - sqrt(x) v is a plain Gauss-Hermite sum.  The module
evaluates u and u_t, checks the energy law that any boundary-value
solution must satisfy, provides the exact polynomial caloric solution
whose zeros branch out of a multiple zero of u(1, .) (at x = 1 - eps the
Hermite polynomial of variance eps/2, by basis's three-term recurrence),
locates and classifies zeros (multiplicity by a dyadic log-log fit, jumps
by saltus scan), and evaluates the a-priori kernel bound for even powers.

For the heat polynomial the branching predictions (lambda_k/2) sqrt(eps)
are its exact zeros for every eps > 0, lambda_k being twice the zeros of
H_{2n}; for a general u they hold only asymptotically as eps -> 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import GridFunction, QuadratureRule, _three_term, gauss_hermite_rule
from .gaussop import gauss_moment
from .solver import _sign_brackets, _zero_exponent, apply_K_panels, detect_sign_changes, panel_rule

__all__ = [
    "ZeroReport",
    "TrackedZeros",
    "poisson_eval",
    "poisson_dt",
    "caloric_residual",
    "energy_identity_residual",
    "heat_polynomial",
    "heat_polynomial_interpolant",
    "branching_roots",
    "track_zeros",
    "kernel_estimate_bound",
    "kernel_estimate_check",
    "zero_report",
]


def poisson_eval(phi, x: float, t, rule: QuadratureRule):
    """u(x, t) = pi^(-1/2) sum_i w_i phi(t - sqrt(x) v_i); u(0, .) is phi itself.

    phi must obey |phi(t)| <= C exp((1-eps) t^2); this is a documented
    contract, not a runtime check.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"heat time x must be finite and non-negative, got {x}")
    t = np.asarray(t, dtype=float)
    if x == 0:
        out = np.asarray(phi(t), dtype=float)
        return out if out.shape else float(out)
    return gauss_moment(phi, t, rule, x)


def poisson_dt(phi, x: float, t, rule: QuadratureRule):
    """u_t(x, t) by differentiating the kernel: -2 (pi x)^(-1/2) sum w_i v_i phi(t - sqrt(x) v_i).

    Uses only values of phi, so it stays meaningful when phi has a
    fractional-power zero whose derivative is unbounded.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"kernel derivative needs a finite x > 0, got {x}")
    return -2.0 / math.sqrt(x) * gauss_moment(phi, t, rule, x, k=1)


def caloric_residual(u, x: float, t: float, h: float = 1e-3) -> float:
    """|u_x - u_tt / 4| by fourth-order central differences with step h."""
    ux = (-u(x + 2 * h, t) + 8 * u(x + h, t) - 8 * u(x - h, t) + u(x - 2 * h, t)) / (12 * h)
    utt = (
        -u(x, t + 2 * h) + 16 * u(x, t + h) - 30 * u(x, t) + 16 * u(x, t - h) - u(x, t - 2 * h)
    ) / (12 * h * h)
    return abs(ux - utt / 4.0)


def energy_identity_residual(phi, p: int, domain: tuple[float, float] = (-10.0, 10.0)) -> float:
    """|int (K phi)^2 - phi^{2p} dt| on the window: the energy law in closed form.

    The law int phi^2 (1 - phi^{2p-2}) = (1/2) int_0^1 int u_t^2 holds for a
    solution of K phi = phi^p.  Since u_x = u_tt / 4, integration by parts
    gives d/dx int u^2 dt = (1/2) [u u_t] - (1/2) int u_t^2 dt, so on the
    full line the right side is int phi^2 - int (K phi)^2 and the law's
    residual is |int (K phi)^2 - int phi^{2p}|.  The window drops the
    boundary flux (1/2) int_0^1 [u u_t]_a^b dx.

    (K phi)^2 and phi^{2p} = (phi^p)^2 are both entire, so one plain
    panel_rule of the window (16 nodes per unit panel: 256 on (-8, 8), 320
    on the default window) takes both t-integrals.  K phi is one
    apply_K_panels call at those nodes, its sides substituted at the sign
    changes that detect_sign_changes finds on 801 points of the window;
    phi is so sampled up to 12 beyond the window.
    """
    a, b = domain
    ts, wt = panel_rule(a, b)
    kphi = apply_K_panels(phi, ts, detect_sign_changes(phi, a, b, 801))
    pv = np.asarray(phi(ts), dtype=float)
    return abs(float(wt @ kphi**2 - wt @ pv ** (2 * p)))


def heat_polynomial(n: int, eps: float, t):
    """Exact caloric polynomial with u(1, t) = t^{2n} / (2n)!, evaluated at x = 1 - eps.

    u(1-eps, t) = sum_{m=0}^{n} (-1)^m t^{2n-2m} / ((2n-2m)! m!) (eps/4)^m
    solves u_x = u_tt / 4 identically in (eps, t).  It is the degree-2n monic
    Hermite polynomial of variance eps/2 over (2n)!, so the recurrence
    P_{k+1} = t P_k - (eps/2) k P_{k-1} takes it without the alternating
    sum's cancellation, for every real eps (eps < 0 is x > 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    t = np.asarray(t, dtype=float)
    out = _three_term(2 * n, t, 1.0, eps / 2.0)[-1] / math.factorial(2 * n)
    return out if out.shape else float(out)


def heat_polynomial_interpolant(n: int):
    """The caloric polynomial as a function of (x, t)."""
    return lambda x, t: heat_polynomial(n, 1.0 - x, t)


def branching_roots(n: int) -> np.ndarray:
    """The 2n branching locations lambda_k, sorted increasing: twice the zeros of H_{2n}.

    The caloric polynomial with u(1, t) = t^{2n} / (2n)! is exactly
    u(1-eps, t) = (eps/4)^n H_{2n}(t / sqrt(eps)) / (2n)!, so its zeros are
    (lambda_k / 2) sqrt(eps) with lambda_k twice the nodes of the order-2n
    Gauss-Hermite rule.
    """
    if not 1 <= n <= 20:
        raise ValueError("n must be in 1..20")
    return 2.0 * gauss_hermite_rule(2 * n).nodes


@dataclass(frozen=True)
class TrackedZeros:
    """Roots of u(1-eps, .) near a branching zero, with asymptotic predictions."""

    n: int
    eps: float
    roots: np.ndarray
    predicted: np.ndarray
    mismatch: bool


def track_zeros(u, n: int, eps: float) -> TrackedZeros:
    """Locate the roots of u(1-eps, .) with detect_sign_changes (scan, then bisection).

    u is a callable u(x, t).  The tracked eps is the one the scan evaluates,
    1 - (1 - eps) in floating point; it is the returned eps, and the
    predictions (lambda_k/2) sqrt(eps) use it.  The scan covers
    |t| <= 3 sqrt(eps) max|lambda| with step about sqrt(eps)/50.  A root
    count different from 2n is reported via the mismatch flag.  For the heat
    polynomial the predictions are its exact zeros for every eps > 0, so a
    mismatch there can only come from the scan; for a general u the count of
    2n is only asymptotic in eps.
    """
    if not 0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 0.5], got {eps}")
    eps = 1.0 - (1.0 - eps)
    lam = branching_roots(n)
    predicted = 0.5 * lam * math.sqrt(eps)
    half = 3.0 * math.sqrt(eps) * float(np.max(np.abs(lam)))
    steps = math.ceil(half / (math.sqrt(eps) / 50.0))
    roots = np.array(detect_sign_changes(lambda t: u(1.0 - eps, t), -half, half, 2 * steps + 1))
    return TrackedZeros(
        n=n, eps=eps, roots=roots, predicted=predicted, mismatch=roots.size != 2 * n
    )


def kernel_estimate_bound(q: int, x: float) -> float:
    """A-priori bound on the x-smoothed power of a solution with even power 2q.

    Defined for integer q >= 1 and x > 1/(2q-1); at x = 1 this reduces to
    2^(-1/(4q-2)) sqrt((2q-1)/(2q-2)), which exists only for q >= 2.
    """
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    if not x > 1.0 / (2 * q - 1):
        raise ValueError(
            f"x must exceed 1/(2q-1)={1.0 / (2 * q - 1)}, got {x}"
            + (" (the x=1 constant requires q >= 2)" if q == 1 else "")
        )
    return (
        x ** (q / (2 * q - 1))
        * (1 + x) ** (-1.0 / (4 * q - 2))
        * math.sqrt((2 * q - 1) / (2 * q * x - x - 1))
    )


def kernel_estimate_check(phi, q: int, x: float, ts, rule: QuadratureRule) -> float:
    """Worst-case margin bound - J(x, t) over the sample points ts.

    J(x, t) is the x-smoothed 2q-th power, (pi x)^(-1/2) int phi^{2q}(tau)
    exp(-(t-tau)^2/x) dtau; a negative margin means the bound is violated
    (phi cannot be a solution).
    """
    bound = kernel_estimate_bound(q, x)
    power = lambda t: np.asarray(phi(t), dtype=float) ** (2 * q)
    jv = np.atleast_1d(poisson_eval(power, x, np.asarray(ts, dtype=float), rule))
    return float(np.min(bound - jv))


@dataclass(frozen=True)
class ZeroReport:
    """Zeros (location, multiplicity) and first-kind jumps (location, saltus)."""

    zeros: list
    jumps: list


_JUMP_FACTOR = 8.0  # a gap this many median neighbour changes wide is a jump


def zero_report(g: GridFunction) -> ZeroReport:
    """Classify sign changes of grid data into genuine zeros and jumps.

    A node gap whose value change exceeds _JUMP_FACTOR = 8 times the median
    neighbour change is reported as a discontinuity of the first kind (at
    the gap's midpoint) with its saltus; remaining sign changes are located
    where g, linear between nodes, crosses 0 and, with exact zeros at nodes,
    classified by the log-log fit of |g(t0 + s)| (multiplicity, rounded
    to the nearest integer >= 1; 1 where g vanishes on the ladder).  The
    ladder is whole grid steps, s = 2^m h <= 1/2 for m >= 1 (two rungs at
    least), where linear interpolation is exact at a zero on a node;
    between nodes its chord would flatten a high-order zero.
    """
    t, v = g.nodes, g.values
    h_grid = float(np.median(np.diff(t)))
    ladder = h_grid * 2.0 ** np.arange(1, max(2, math.floor(math.log2(0.5 / h_grid))) + 1)
    dv = np.abs(np.diff(v))
    med = max(float(np.median(dv)), 1e-300)

    def multiplicity_at(t0: float) -> int:
        try:
            return max(1, round(_zero_exponent(g, t0, ladder)))
        except ValueError:
            return 1

    idx, exact = _sign_brackets(t, v)
    is_jump = dv[idx] > _JUMP_FACTOR * med
    jumps = [(float(0.5 * (t[i] + t[i + 1])), float(v[i + 1] - v[i])) for i in idx[is_jump]]
    smooth = idx[~is_jump]
    located = t[smooth] + (t[smooth + 1] - t[smooth]) * v[smooth] / (v[smooth] - v[smooth + 1])  # the chord's 0
    zeros = sorted((float(z), multiplicity_at(float(z))) for z in np.concatenate([located, exact]))
    return ZeroReport(zeros=zeros, jumps=jumps)
