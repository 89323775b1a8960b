"""Nonlinear solvers for the Gaussian-convolution power equation K phi = phi^p.

Two attack routes live here.  For p = 2, matching the Taylor expansion of
phi^2 against the exact Taylor action of K on Hermite data yields an
infinite quadratic system in the Hermite coefficients a_n; its truncation
to four unknowns is solved in closed form (solve_3approx, which enumerates
every branch).  For general p >= 2 a grid fixed-point iteration inverts
the equation as phi <- p-th root of K phi, with a secant step (Anderson
mixing of depth 1) on the map preconditioned by K's plane-wave spectrum, and a
caller-supplied sign template in the even-p case where the root loses the
sign.  The remaining functions verify
candidates: equation residual, the integral conservation laws
(phi^p, H_n)_1 = (phi, V_n)_{1/2} and boundary-limit diagnostics.

Off-grid evaluation of iterates goes through an interpolant of the
equation's power phi^p (|phi|^p for even p) rather than of phi itself:
phi^p = K phi is entire across a fractional-power zero of phi, and for
even p across a first-kind jump, so the root of the interpolant keeps full
accuracy there (interpolating phi would lose ~h^(1/3) at a cube-root zero).
Each grid interval takes the degree-7 polynomial through the 8 nearest
nodes, so the error is O(h^8) and needs no global solve (Berrut &
Trefethen, SIAM Rev. 46, 2004); uneven nodes, or fewer than 8, are rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import (
    SQRT_PI,
    GridFunction,
    gauss_hermite_rule,  # noqa: F401 -- unused here; perfbench/test_perfbench.py expects this binding
    hermite_table,
    modified_hermite_table,
)
from .gaussop import EvaluationError

__all__ = [
    "SolverConfig",
    "ApproxSolution3",
    "IterationResult",
    "LimitReport",
    "solve_3approx",
    "power_interpolant",
    "detect_sign_changes",
    "panel_rule",
    "apply_K_panels",
    "fixed_point_iterate",
    "residual",
    "conservation_laws_check",
    "limit_diagnostics",
    "exact_gaussian_solution",
]

_GL_NODES, _GL_WEIGHTS = leggauss(16)
# The widest panel of panel_rule.  K's spectrum e^{-xi^2/4} is below rounding
# past |xi| = 12, and the 16-point rule resolves cos(xi t) to rounding on
# panels of width 1 up to that xi (Trefethen, SIAM Rev. 50, 2008).  Max error
# of apply_K_panels(cos(xi .)) against e^{-xi^2/4} cos(xi t), over 20 random
# row sets in [-5, 5] with up to 3 breaks:
#
#   width   xi = 6    xi = 8    xi = 10   xi = 12
#   0.5     4.9e-16   4.2e-16   7.9e-16   1.6e-15
#   1       1.0e-15   8.1e-16   8.6e-16   1.6e-15
#   2       2.3e-15   3.1e-13   2.1e-11   1.3e-09
_PANEL = 1.0
# Near a break b a candidate is psi^(1/p) with psi smooth and psi(b) = 0, as phi^p = K phi is
# entire.  On a side [b, b + H] the substitution tau = b + H s^5, with its Jacobian 5 H s^4,
# turns the kink |tau - b|^(1/p) into s^(4 + 5/p), which _SIDE_PANELS 16-point panels of s in
# [0, 1] integrate to rounding (Kress, Numer. Math. 58, 1990); the tests hold p = 2 .. 7 to
# 1e-14 against mpmath.  The nodes s^5 and weights 5 s^4 w_s of one side, on [0, 1]:
_SIDE_POWER = 5
_SIDE_PANELS = 4
_SIDE_S = (np.arange(0.5, _SIDE_PANELS) / _SIDE_PANELS)[:, None] + 0.5 / _SIDE_PANELS * _GL_NODES  # s, by panel
_SIDE_NODES = _SIDE_S.ravel() ** _SIDE_POWER
_SIDE_WEIGHTS = (_SIDE_POWER * _SIDE_S ** (_SIDE_POWER - 1) * (0.5 / _SIDE_PANELS) * _GL_WEIGHTS).ravel()


def _distinct(x) -> np.ndarray:
    """x sorted, without repeats: np.unique, which would import numpy.ma on first use."""
    x = np.sort(x)
    return np.concatenate([x[:1], x[1:][x[1:] > x[:-1]]])


def panel_rule(lo: float, hi: float, breaks=()) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre rule on [lo, hi], with substituted sides at breaks.

    Plain panels have width at most _PANEL = 1.  Every interior break b
    gets two sides, [b - H, b] and [b, b + H], each as wide as _PANEL, the
    distance to the window end and half the gap to the neighbouring break
    allow, so the sides of two breaks closer than 2 meet at their midpoint.
    A side takes tau = b -+ H s^5 on _SIDE_PANELS panels of s in [0, 1]:
    an integrand with an algebraic kink at b (a fractional-power zero of a
    candidate solution) is then smooth in s and integrated to near machine
    accuracy.  A plain edge strictly inside a side gives way to it; a break
    outside (lo, hi) adds nothing.  The nodes come out in increasing order.
    """
    if not hi > lo:
        raise ValueError("empty integration window")
    plain = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / _PANEL)) + 1))
    inner = _distinct(np.array([b for b in breaks if lo < b < hi], dtype=float))
    halfway = 0.5 * (inner[1:] + inner[:-1])
    outer_lo = np.maximum(inner - _PANEL, np.concatenate([[lo], halfway]))  # the far ends of the sides
    outer_hi = np.minimum(inner + _PANEL, np.concatenate([halfway, [hi]]))
    inside = np.any((outer_lo < plain[:, None]) & (plain[:, None] < outer_hi), axis=1)
    edges = _distinct(np.concatenate([plain[~inside], outer_lo, outer_hi, inner]))
    at_break = np.zeros(edges.size, dtype=bool)
    at_break[np.searchsorted(edges, inner)] = True
    grid = ~(at_break[:-1] | at_break[1:])  # the plain panels: no end at a break
    mids = 0.5 * (edges[1:] + edges[:-1])[grid]
    halves = 0.5 * (edges[1:] - edges[:-1])[grid]
    below, above = (inner - outer_lo)[:, None], (outer_hi - inner)[:, None]
    nodes = np.concatenate([(mids[:, None] + halves[:, None] * _GL_NODES).ravel(),
                            (inner[:, None] - below * _SIDE_NODES[::-1]).ravel(),
                            (inner[:, None] + above * _SIDE_NODES).ravel()])
    weights = np.concatenate([(halves[:, None] * _GL_WEIGHTS).ravel(),
                              (below * _SIDE_WEIGHTS[::-1]).ravel(), (above * _SIDE_WEIGHTS).ravel()])
    order = np.argsort(nodes, kind="stable")
    return nodes[order], weights[order]


def _sign_brackets(ts, fv) -> tuple[np.ndarray, np.ndarray]:
    """Indices i where fv changes sign strictly between ts[i] and ts[i+1], and the exact zeros."""
    return np.flatnonzero(np.sign(fv[:-1]) * np.sign(fv[1:]) < 0), ts[fv == 0.0]


def _bisect(f, lo, hi) -> np.ndarray:
    """Bisect the float arrays of brackets [lo, hi] of a vectorised f together, to a few ulp.

    f must change sign across each bracket; a midpoint where f is 0 ends its bracket there.
    """
    sign_lo = np.sign(f(lo))
    for _ in range(64):  # enough to shrink a bracket of width 1e3 below 1e-16
        mid = 0.5 * (lo + hi)
        sign_mid = np.sign(f(mid))
        lo = np.where(sign_mid == -sign_lo, lo, mid)
        hi = np.where(sign_mid == sign_lo, hi, mid)
    return 0.5 * (lo + hi)


def _zero_exponent(f, t0: float, s) -> float:
    """Exponent e of |f(t0 + s)| ~ c s^e: the slope of a log-log least-squares fit over the offsets s."""
    vals = np.abs(np.asarray(f(t0 + s), dtype=float))
    if np.any(vals == 0):
        raise ValueError(f"function vanishes on the fit offsets at t0={t0}; cannot fit an exponent")
    x = np.log(s)
    x = x - x.mean()
    return float(x @ np.log(vals) / (x @ x))  # the centred normal equation of a line


def _refined_sign_changes(f, ts, fv) -> list[float]:
    """Sign changes of a vectorised f from its values fv at the sorted samples ts.

    The samples where fv is exactly 0 are kept as they are, and each strict
    bracket [ts[i], ts[i+1]] is refined by _bisect on f itself.
    """
    idx, exact = _sign_brackets(ts, fv)
    found = _bisect(f, ts[idx], ts[idx + 1]) if idx.size else idx
    return sorted(float(t) for t in np.concatenate([found, exact]))


def detect_sign_changes(f, lo: float = -6.0, hi: float = 6.0, samples: int = 961) -> list[float]:
    """Sign changes of a vectorised f on [lo, hi]: a uniform scan of samples points.

    The refinement is the one fixed_point_iterate runs on its grid values
    (_refined_sign_changes): exact zeros at samples are reported once, and
    each strict sign bracket is bisected on f to a few ulp.  Changes closer
    than the scan step can be missed.
    """
    ts = np.linspace(lo, hi, samples)
    return _refined_sign_changes(f, ts, np.asarray(f(ts), dtype=float))


_KERNEL_BLOCK = 40  # kernel rows per band block, in sorted-t order
_BREAK_TOL = 1e-10  # a kernel built at b integrates a kink at b + 1e-10 to within 1e-12 (p = 3, 5, 7)
_BAND = 6.5  # the narrow band: e^{-6.5^2} < 5e-19 and erfc(6.5) < 4e-20


def _breaks_agree(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= _BREAK_TOL for x, y in zip(a, b))


class _PanelKernel:
    """The map f -> K f at the rows ts, on the panel rule of [min ts - halfwidth, max ts + halfwidth].

    halfwidth is the integration window: a row's band reaches halfwidth
    from it unless the integrand's bound shows the tail past _BAND below
    rounding.  That band, the truncation step of the fast Gauss transform
    (Greengard & Strain, SIAM J. Sci. Stat. Comput. 12, 1991), makes one
    kernel cheap enough to serve a whole solve.  The nodes are
    panel_rule's, 16 per panel of width at most _PANEL = 1 and 64 on each
    side of a break: on the 801 rows of [-10, 10] with break 0 that is 800
    nodes and 233,128 band entries.  The rows are ts itself, sorted.

    Banding by the integrand's own bound: rows are stored in blocks of
    _KERNEL_BLOCK sorted t over the contiguous slice of nodes that some row
    of the block reaches, first for |t - tau| <= _BAND.  An apply keeps that
    band when the tail it drops, at most e^{-_BAND^2} sum_j w_j |f_j|, is
    below one rounding unit of every row's sum_j e^{-(t - tau_j)^2} w_j |f_j|,
    which the same product gives from the row of |f|.  Otherwise, for an f
    that grows too fast for that, the band of the whole halfwidth is built
    the same way, once, and used.
    """

    def __init__(self, ts, breaks=(), halfwidth: float = 12.0):
        self.ts = np.array(ts, dtype=float, ndmin=1)  # a copy: fits must not follow a change in place
        self.breaks = list(breaks)
        self.halfwidth = halfwidth
        self.tau, self.w = panel_rule(float(self.ts.min()) - halfwidth, float(self.ts.max()) + halfwidth, self.breaks)
        self.order = np.argsort(self.ts, kind="stable")
        self.rows = self.ts[self.order]
        self.narrow = self._band(min(_BAND, halfwidth))
        self.full = self.narrow if halfwidth <= _BAND else None

    def _band(self, cut: float) -> list:
        """Blocks of rows with every node within cut of some row of the block.

        A row may thus sum a few nodes past cut, which only makes it more exact.
        """
        # row t reaches the nodes [reach_lo, reach_hi): those within cut of t
        reach_lo = np.searchsorted(self.tau, self.rows - cut)
        reach_hi = np.searchsorted(self.tau, self.rows + cut, "right")
        starts = np.arange(0, self.rows.size, _KERNEL_BLOCK)
        stops = np.minimum(starts + _KERNEL_BLOCK, self.rows.size)
        los, his = reach_lo[starts], reach_hi[stops - 1]
        # one buffer for all blocks, so that a freed kernel's memory serves the next build
        store = np.empty(int(np.sum((stops - starts) * (his - los))))
        # t - c as the product [t, -1] @ [1, c]: one rounding per entry, so the
        # same bits as the broadcast difference, which numpy writes slower
        rows = np.stack([self.rows, np.full(self.rows.size, -1.0)], axis=1)
        nodes = np.stack([np.ones(self.tau.size), self.tau])
        blocks, used = [], 0
        for start, stop, lo, hi in zip(starts, stops, los, his):
            band = store[used : used + (stop - start) * (hi - lo)].reshape(stop - start, hi - lo)
            used += band.size
            np.matmul(rows[start:stop], nodes[:, lo:hi], out=band)
            np.square(band, out=band)
            np.negative(band, out=band)
            np.exp(band, out=band)
            blocks.append((slice(start, stop), slice(lo, hi), band))
        return blocks

    def fits(self, ts, breaks, halfwidth: float) -> bool:
        return halfwidth == self.halfwidth and np.array_equal(self.ts, ts) and _breaks_agree(breaks, self.breaks)

    def _product(self, blocks, weighted) -> np.ndarray:
        """Band sums at self.rows of the rows of weighted, values times weights at self.tau."""
        near = np.empty((weighted.shape[0], self.rows.size))
        for part, cols, band in blocks:
            near[:, part] = weighted[:, cols] @ band.T
        return near

    def __call__(self, fv) -> tuple[np.ndarray, np.ndarray]:
        """K f and, on the narrow band, K|f| at ts, from the values fv of f at self.tau.

        The second is the scale of K f's rounding.  A scalar fv is a constant f.
        """
        fv = np.broadcast_to(np.asarray(fv, dtype=float), self.tau.shape)
        if not np.isfinite(fv).all():
            node = float(self.tau[np.argmin(np.isfinite(fv))])
            raise EvaluationError(f"non-finite integrand value at tau={node}", node)
        weighted = self.w * fv
        weighted = np.stack([weighted, np.abs(weighted)])  # the rows of f and |f|
        near = self._product(self.narrow, weighted)
        tail = math.exp(-_BAND * _BAND) * weighted[1].sum()  # a bound on what the narrow band drops
        if self.full is not self.narrow and not tail <= 2.0**-53 * near[1].min():
            if self.full is None:
                self.full = self._band(self.halfwidth)
            near[:1] = self._product(self.full, weighted[:1])
        out = np.empty_like(near)
        out[:, self.order] = near / SQRT_PI
        return out[0], out[1]


def apply_K_panels(f, ts, breaks=(), halfwidth: float = 12.0) -> np.ndarray:
    """K f on the sample points via the kink-aware composite panel rule.

    The rule is panel_rule's: 16 Gauss-Legendre nodes per panel of width at
    most _PANEL = 1, and a substituted side of width at most 1 on each side
    of every break, which integrates a kink there to rounding.  That
    resolves every frequency that K's spectrum e^{-xi^2/4} leaves above
    rounding (|xi| <= 12), so K cos(xi .) comes out as e^{-xi^2/4} cos(xi t)
    to about 1e-15.
    halfwidth is the integration window: each row integrates
    pi^(-1/2) int f(tau) e^{-(t-tau)^2} dtau over [t - halfwidth,
    t + halfwidth].  Per call the kernel narrows its band to
    |t - tau| <= 6.5 when e^{-6.5^2} sum_j w_j |f_j| is below one rounding
    unit of every row's sum_j e^{-(t-tau_j)^2} w_j |f_j|, so that the tail
    it drops cannot show, and sums over the whole window otherwise: an f
    growing like exp(c t^2) gets the full halfwidth, which must then be
    wide enough for the kernel to beat the growth (see _PanelKernel).  A
    non-finite value of f raises EvaluationError naming the first panel
    node where it occurs.  An f that carries a _panel_kernel attribute, as
    the evaluator a fixed_point_iterate run made does, has it reused when
    it fits ts, breaks and halfwidth, and when f also carries the run's
    last product, _panel_product, a copy of that K f is returned without
    applying the kernel again; any other call builds a kernel.
    """
    kernel = getattr(f, "_panel_kernel", None)
    if kernel is None or not kernel.fits(ts, breaks, halfwidth):
        kernel = _PanelKernel(ts, breaks, halfwidth)
    elif hasattr(f, "_panel_product"):
        return f._panel_product[0].copy()
    return kernel(f(kernel.tau))[0]


@dataclass(frozen=True)
class SolverConfig:
    """The power p, the stopping rule and the grid of fixed_point_iterate.

    The iteration stops once its residual max-norm drops below tol, or
    after max_iter steps.  p must be at least 2.  The grid has step
    grid_step on [-grid_halfwidth, grid_halfwidth]; a step that leaves
    fewer nodes than one stencil of power_interpolant (_STENCIL = 8), or
    that does not divide the halfwidth, is rejected, naming the largest
    step that fits or the nearest that divides.
    """

    p: int
    tol: float = 1e-10
    max_iter: int = 500
    grid_halfwidth: float = 10.0
    grid_step: float = 0.05

    def __post_init__(self):
        if not (self.p >= 2 and float(self.p).is_integer()):
            raise ValueError(f"power p must be an integer >= 2, got {self.p}")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 5 <= self.grid_halfwidth < math.inf:
            raise ValueError(f"grid halfwidth must be finite and >= 5, got {self.grid_halfwidth}")
        if not 0 < self.grid_step < math.inf:
            raise ValueError(f"grid step must be positive and finite, got {self.grid_step}")
        n = round(self.grid_halfwidth / self.grid_step)
        if 2 * n + 1 < _STENCIL:
            raise ValueError(f"grid step {self.grid_step} leaves {2 * n + 1} grid nodes, fewer than the "
                             f"{_STENCIL} of one interpolation stencil; the largest step that fits is "
                             f"{self.grid_halfwidth / (_STENCIL // 2)}")
        if abs(self.grid_halfwidth / self.grid_step - n) > 1e-9 * n:
            raise ValueError(f"grid step {self.grid_step} does not divide the halfwidth "
                             f"{self.grid_halfwidth}; the nearest step that does is {self.grid_halfwidth / n}")


@dataclass(frozen=True)
class ApproxSolution3:
    """One branch of the four-unknown truncation, with branch metadata.

    eps_branch is the sign chosen for sqrt(a0); D is the determinant
    1 + 10 a0 - 10 eps sqrt(a0) of the odd-coefficient subsystem, whose
    vanishing is what allows the nonzero odd branch.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    eps_branch: int
    D: float
    label: str  # trivial | parabolic | branch_c | zero_head

    def coefficients(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3])

    def equation_residual(self) -> float:
        """Max violation of the defining equations of this branch."""
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        if a0 > 0:
            s = self.eps_branch * math.sqrt(a0)
            r = [
                a0 - (s + a2 / 4.0),
                a1 - 2.0 * s * (a1 - a3 / 4.0),
                a2 - (a1**2 / (2.0 * a0) + 2.0 * s * a2),
                a3 - (2.0 * s * a3 + 3.0 * a1 * a2 / s),
            ]
            return max(abs(v) for v in r)
        # a0 = 0 head: a1 = 0 and the reduced pair a3^2 = 8 a2 = 18 a2^3
        return max(abs(a0), abs(a1), abs(a3**2 - 8.0 * a2), abs(a3**2 - 18.0 * a2**3))


def solve_3approx() -> list[ApproxSolution3]:
    """Every branch of the truncated four-unknown system, in closed form.

    Branches: the constants phi = 1 and phi = 0, the even parabolic branch
    (1/4, 0, -1, 0), the two mixed branches that exist exactly when the odd
    subsystem degenerates (D = 0, a0 = 0.4 + sqrt(0.15)), and the pair with
    vanishing head a0 = a1 = 0, a2 = 2/3, a3 = +-4/sqrt(3).
    """

    def determinant(a0: float, eps: int) -> float:
        return 1.0 + 10.0 * a0 - 10.0 * eps * math.sqrt(a0)

    sols = [
        ApproxSolution3(1.0, 0.0, 0.0, 0.0, +1, determinant(1.0, +1), "trivial"),
        ApproxSolution3(0.25, 0.0, -1.0, 0.0, +1, determinant(0.25, +1), "parabolic"),
    ]
    # degenerate odd subsystem: sqrt(a0) = 1/2 + sqrt(0.15), a2 = -0.4 exactly
    s = 0.5 + math.sqrt(0.15)
    a0 = 0.4 + math.sqrt(0.15)
    a2 = -0.4
    a1 = math.sqrt(2.0 * a0 * a2 * (1.0 - 2.0 * s))
    a3 = 3.0 * a1 * a2 / (s * (1.0 - 2.0 * s))
    for sgn in (+1, -1):
        sols.append(
            ApproxSolution3(a0, sgn * a1, a2, sgn * a3, +1, determinant(a0, +1), "branch_c")
        )
    sols.append(ApproxSolution3(0.0, 0.0, 0.0, 0.0, +1, 1.0, "zero_head"))
    for sgn in (+1, -1):
        sols.append(
            ApproxSolution3(0.0, 0.0, 2.0 / 3.0, sgn * 4.0 / math.sqrt(3.0), +1, 1.0, "zero_head")
        )
    return sols


def _equation_power(v, p: int):
    """phi^p of the equation: the signed power v |v|^(p-1), and its modulus for even p."""
    power = v * np.abs(v) ** (p - 1)
    return np.abs(power) if p % 2 == 0 else power


def _default_even_template(t):
    return np.where(np.asarray(t, dtype=float) >= 0, 1.0, -1.0)


def _equation_root(psi, p: int, t, sign_template=None):
    """phi from its equation's power psi at t: sgn(psi) |psi|^(1/p) for odd p; for even p, which
    loses the sign, the template's sign (default sgn(t)) times max(psi, 0)^(1/p)."""
    if p % 2 == 1:
        return np.sign(psi) * np.abs(psi) ** (1.0 / p)
    template = _default_even_template if sign_template is None else sign_template
    return template(t) * np.clip(psi, 0.0, None) ** (1.0 / p)


_STENCIL = 8  # nodes per interpolating polynomial of power_interpolant: degree 7, error O(h^8)


def _lagrange_maps() -> np.ndarray:
    """maps[k] takes values at y = -k, .., 7 - k to the coefficients of y^0 .. y^7 through them.

    Column j of maps[k] is the Lagrange polynomial of the j-th node: the
    integer polynomial prod_{l != j} (y - y_l), exact in floats, over the
    integer prod_{l != j} (j - l), so each entry is rounded once.  The
    inverse of the Vandermonde matrix of y = 0 .. 7 is off by up to 3e-11.
    """
    m = _STENCIL
    ys = np.arange(m) - np.arange(m - 1)[:, None]  # row k: the nodes of maps[k]
    numerators = np.zeros((m - 1, m, m))  # [k, j, power of y]
    numerators[..., 0] = 1.0
    for l in range(m):  # times (y - y_l) for every node j but l
        times = np.concatenate([np.zeros((m - 1, m, 1)), numerators[..., :-1]], axis=-1)
        times -= ys[:, l, None, None] * numerators
        numerators = np.where(np.arange(m)[:, None] == l, numerators, times)
    denominators = [(-1) ** (m - 1 - j) * math.factorial(j) * math.factorial(m - 1 - j) for j in range(m)]
    return np.swapaxes(numerators / np.array(denominators, dtype=float)[:, None], 1, 2)


_STENCIL_MAPS = _lagrange_maps()


def _uniform_knots(nodes) -> tuple[np.ndarray, float]:
    """The nodes of power_interpolant with +inf appended, and their step h; ValueError if unfit."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if n < _STENCIL:
        raise ValueError(f"the power interpolant needs at least {_STENCIL} nodes, got {n}")
    lo, hi = float(nodes[0]), float(nodes[-1])
    h = (hi - lo) / (n - 1)
    gaps = np.diff(nodes)
    if not (h > 0 and np.all(np.abs(gaps - h) <= 64 * np.finfo(float).eps * max(abs(lo), abs(hi)))):
        raise ValueError(f"the power interpolant needs evenly spaced increasing nodes, got gaps "
                         f"from {float(np.min(gaps))} to {float(np.max(gaps))}")
    return np.append(nodes, np.inf), h


def _locate(knots, h: float, t) -> tuple[np.ndarray, np.ndarray]:
    """The piece i of each t clipped to the nodes, knots[i] <= t < knots[i+1], and y = (t - knots[i]) / h.

    knots are _uniform_knots', so the last node is a piece of its own.
    """
    x = np.minimum(np.maximum(t, knots[0]), knots[-2])
    # the floor, as x >= knots[0]; mode "clip" takes a NaN's index to a NaN value
    i = ((x - knots[0]) / h).astype(np.intp)
    i += x >= knots.take(i + 1, mode="clip")  # a node whose quotient rounds below its index
    # the offset from the node itself: (x - knots[0]) / h - i loses ~400 ulp at the far end
    return i, (x - knots.take(i, mode="clip")) / h


def power_interpolant(nodes, values, p: int, sign_template=None):
    """Evaluate a grid iterate anywhere via a local degree-7 interpolant of its p-th power.

    On each interval [x_i, x_i+1] the interpolant is the polynomial through
    the equation's powers at the _STENCIL = 8 nearest nodes, x_i-3 ..
    x_i+4, moved inside at the two ends; the returned callable maps back
    with fixed_point_iterate's root.  For odd p that is the real p-th root
    of v |v|^(p-1); for even p, of |v|^p, which stays entire across a jump
    of phi, with the sign template's sign (default sgn(t)), so a node value
    of the other sign comes back with the template's.  Outside the grid the
    edge powers extend as constants.  The nodes must be at least 8 and rise by
    one step h = (last - first) / (n - 1), each gap within 64 eps max |node|
    of h, as linspace and arange round them, and each must have a value
    with a finite power; other input raises ValueError.  Each piece is
    stored as coefficients in y = (t - x_i) / h, with its node's power as
    the constant term, so it meets every node value exactly.  Its values
    at points fixed in advance, as the panel nodes of fixed_point_iterate's
    kernel, are also a linear map of the powers (_stencil_map), which
    locates the points as the evaluator does and agrees with it to a few
    ulp of the stencil's powers.
    """
    knots, h = _uniform_knots(nodes)
    nodes, n = knots[:-1], knots.size - 1
    powers = _equation_power(np.asarray(values, dtype=float), p)
    if powers.shape != nodes.shape or not np.all(np.isfinite(powers)):
        raise ValueError("the power interpolant needs one value per node, with a finite p-th power")
    # column i: the piece on [nodes[i], nodes[i+1]], which takes the map of stencil offset
    # k = i - (first stencil node); column n-1 is the constant from the last node on
    coeffs = np.zeros((_STENCIL, n))
    coeffs[:, :3] = (_STENCIL_MAPS[:3] @ powers[:_STENCIL]).T  # the first three pieces, k = 0, 1, 2
    coeffs[:, n - 4 : n - 1] = (_STENCIL_MAPS[-3:] @ powers[-_STENCIL:]).T  # the last three, k = 4, 5, 6
    coeffs[:, 3 : n - 4] = _STENCIL_MAPS[3] @ np.lib.stride_tricks.sliding_window_view(powers, _STENCIL).T
    coeffs[0] = powers

    def phi(t):
        t = np.asarray(t, dtype=float)
        i, y = _locate(knots, h, t)
        c = coeffs.take(i, axis=1, mode="clip")
        sv = c[-1]  # a row of this call's own gather, so Horner runs in place
        for row in c[-2::-1]:
            sv *= y
            sv += row
        out = _equation_root(sv, p, t, sign_template)
        return out if out.shape else float(out)

    return phi


# _STENCIL_MAPS by [power of y, node, offset k], and at k = 7 the constant from the last node,
# which is a piece of its own
_PIECE_MAPS = np.zeros((_STENCIL, _STENCIL, _STENCIL))
_PIECE_MAPS[..., :-1] = _STENCIL_MAPS.transpose(1, 2, 0)
_PIECE_MAPS[0, -1, -1] = 1.0


def _stencil_map(nodes, t):
    """The linear map from the equation's powers at nodes to power_interpolant's power at the points t.

    Each point is located as power_interpolant's evaluator locates it
    (_locate), clipped to the grid, so past its ends the edge power repeats
    as a constant.  The map keeps, per point, the first node of its piece's
    stencil and the 8 weights of the piece's polynomial at its offset y:
    the rows of its Lagrange map, summed by Horner in y.  The returned
    callable takes the powers psi at nodes to sum_j w_j psi_j at each
    point: one gather and one product, with no interpolant to build.
    """
    knots, h = _uniform_knots(nodes)
    i, y = _locate(knots, h, np.asarray(t, dtype=float))
    start = np.clip(i - 3, 0, knots.size - 1 - _STENCIL)  # power_interpolant's stencil of each piece
    maps = _PIECE_MAPS.take(i - start, axis=2)  # [power of y, node of the stencil, point]
    weights = maps[-1]
    for row in maps[-2::-1]:
        weights *= y
        weights += row
    cols = start + np.arange(_STENCIL)[:, None]
    return lambda psi: np.einsum("jk,jk->k", weights, psi.take(cols))


@dataclass
class IterationResult:
    """Grid iterate, smooth evaluator, and convergence trace of the fixed point run."""

    grid: GridFunction
    phi: object  # callable
    status: str  # converged | max_iter | diverged | infeasible
    iterations: int
    trace: list

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _preconditioner(p: int, h: float, n: int):
    """P = (I - K/p)^{-1} on n grid values of step h, as a map of numpy arrays.

    K e^{i xi t} = e^{-xi^2/4} e^{i xi t} (the paper's section 6), so P
    multiplies the plane wave of frequency xi by 1/(1 - e^{-xi^2/4}/p): one
    rfft/irfft pair of the values zero-padded to nfft, the first power of 2
    >= n + 8/h.  The multiplier's poles nearest the real line sit at
    xi = +-2i sqrt(ln p), so P's kernel decays like e^{-lambda |t|} with
    lambda = 2 sqrt(ln p), and 8 units of zeros keep the periodic
    wrap-around below e^{-8 lambda}.
    """
    nfft = 1 << (math.ceil(n + 8.0 / h) - 1).bit_length()
    xi = (2.0 * math.pi / (nfft * h)) * np.arange(nfft // 2 + 1)
    gain = 1.0 / (1.0 - np.exp(-0.25 * xi * xi) / p)
    return lambda f: np.fft.irfft(np.fft.rfft(f, nfft) * gain, nfft)[:n]


def fixed_point_iterate(cfg: SolverConfig, phi0, sign_template=None) -> IterationResult:
    """Iterate phi <- signed p-th root of K phi on a uniform grid, with a preconditioned secant step.

    For odd p the root keeps the sign of K phi; for even p the sign comes
    from the template (default sgn(t)) and K phi must stay >= -tol, since a
    solution's power is non-negative; a violation stops the run with status
    'infeasible'.  phi0 is a callable (a GridFunction is one) and is the
    first iterate, so it need not be smooth: every iteration applies K with
    the panel kernel whose sides are substituted at the iterate's sign
    changes, built once per break set and rebuilt only when a break
    appears, vanishes or moves by more than _BREAK_TOL.  The breaks come
    from the signs of the grid values: a node value of exactly 0 is a
    break, and each strict sign bracket between nodes is bisected on the
    iterate's power_interpolant, the refinement detect_sign_changes runs on
    its own samples.  The first iteration applies K to phi0 at the kernel's
    nodes tau, and a step whose bracket built an interpolant, as an
    off-centre zero makes, to that interpolant at tau.  A step with no
    bracket, as when the zero is a grid node, builds no interpolant: it
    applies K to the root of psi_tau = M psi, with psi the grid powers and
    M the stencil map of power_interpolant onto tau (_stencil_map), built
    by the first such step of each kernel.  The returned evaluator is built
    once, after the loop.
    When the run made it (never on the caller's seed), it carries the last
    kernel as its _panel_kernel and, when the last step applied K to the
    returned iterate, that K phi and K|phi| as its _panel_product, for
    apply_K_panels and residual on the grid at those breaks.

    The steps are Anderson mixing (Anderson, J. ACM 12, 1965; Walker & Ni,
    SIAM J. Numer. Anal. 49, 2011) in the power variable psi = phi^p of the
    equation, on the map preconditioned by the paper's spectrum of K.  With
    A = K phi and f = A - phi^p on the grid, the plain map psi <- A has the
    linearisation d psi -> K d psi / (p phi^(p-1)), which is K/p about the
    limits +-1.  K e^{i xi t} = e^{-xi^2/4} e^{i xi t} (section 6), so the
    plain map contracts the plane wave of frequency xi only by
    e^{-xi^2/4}/p, which is near 1/p on the smooth modes, and a Krylov
    method such as Anderson mixing on that continuous spectrum is held to
    about (sqrt kappa - 1)/(sqrt kappa + 1) per step, kappa = p/(p - 1).
    Newton's step for f there is P f with P = (I - K/p)^{-1}, the
    multiplier 1/(1 - e^{-xi^2/4}/p) on plane waves: one zero-padded FFT
    pair on the grid (_preconditioner).  That leaves the mixing little to
    do, so it has depth 1, a secant step: it runs on g = phi^p + P f with
    the residual P f, and with the differences dg, dPf from the last step,
    gamma = (dPf . P f)/(dPf . dPf) and psi <- g - gamma dg.  The first step,
    and every step after a restart, is the plain map psi <- K phi; the last
    step is forgotten whenever the grid residual fails to decrease, so a
    growing run takes plain steps.  A psi below 64 eps K|phi|, the rounding
    that the p-th root would amplify, snaps to 0.
    The run converges when the grid residual max |K phi - phi^p| of the
    current iterate (the trace's 'residual'; the preconditioned residual
    only steers the mixing) drops below cfg.tol; that iterate is returned
    and the step is declined, though the trace still records its 'change',
    the max change of phi the step would make (None on an infeasible step,
    which takes none).  Each trace entry also has 'depth', the number of
    history differences its step mixed (0 for a plain step, 1 for a secant), and
    'kernel_built', whether that iteration built a panel kernel.  An
    infeasible entry also has 'min_Kphi', the least grid value of K phi,
    and 'min_Kphi_at', the node where it falls.
    The change of phi, which stalls at eps^(1/p) at a zero on a grid node,
    decides only 'diverged'.  A seed with a non-finite value at a grid or
    panel node raises EvaluationError naming the first such node.
    """
    L = cfg.grid_halfwidth
    n_half = int(round(L / cfg.grid_step))
    ts = np.linspace(-L, L, 2 * n_half + 1)
    precondition = _preconditioner(cfg.p, L / n_half, ts.size)

    vals = np.asarray(phi0(ts), dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        node = float(ts[bad[0]])
        raise EvaluationError(f"non-finite seed value at t={node}", node)
    evaluate = phi0  # vals' evaluator; None until a bracket or the result needs one

    def evaluate_lazily(t):
        nonlocal evaluate
        if evaluate is None:
            evaluate = power_interpolant(ts, vals, cfg.p, sign_template)
        return evaluate(t)

    trace = []
    status = "max_iter"
    iterations = 0
    apply_K = product = None
    previous = None  # (phi^p + P f, P f) of the last step, None before the first and after a restart
    for it in range(cfg.max_iter):
        iterations = it + 1
        breaks = _refined_sign_changes(evaluate_lazily, ts, vals)
        built = apply_K is None or not _breaks_agree(breaks, apply_K.breaks)
        if built:
            apply_K, to_tau = _PanelKernel(ts, breaks), None
        power = _equation_power(vals, cfg.p)
        if evaluate is not None:  # the seed, or the interpolant a bracket needed
            fv = evaluate(apply_K.tau)
        else:
            if to_tau is None:  # once per kernel, and only if a step needs it
                to_tau = _stencil_map(ts, apply_K.tau)
            fv = _equation_root(to_tau(power), cfg.p, apply_K.tau, sign_template)
        A, scale = product = apply_K(fv)
        f = A - power
        eq_res = float(np.max(np.abs(f)))
        low = int(np.argmin(A))
        if cfg.p % 2 == 0 and A[low] < -cfg.tol:
            trace.append({"iteration": it, "change": None, "residual": eq_res, "depth": 0, "kernel_built": built,
                          "min_Kphi": float(A[low]), "min_Kphi_at": float(ts[low])})
            status = "infeasible"
            break
        if trace and eq_res >= trace[-1]["residual"]:
            previous = None  # restart: mixing across a growing residual could fit its way onto phi = 0
        pf = precondition(f)
        g = power + pf
        psi, depth = A, 0
        if previous is not None:  # Anderson mixing of depth 1: the secant through the last step
            dg, dpf = g - previous[0], pf - previous[1]
            psi, depth = g - (dpf @ pf) / (dpf @ dpf) * dg, 1
        previous = (g, pf)
        # the p-th root amplifies rounding noise near psi = 0 (|eps|^(1/p) is
        # ~1e-6 at double precision); snap sub-noise values to an exact zero
        psi = np.where(np.abs(psi) < 64 * np.finfo(float).eps * scale, 0.0, psi)
        root = _equation_root(psi, cfg.p, ts, sign_template)
        trace.append({"iteration": it, "change": float(np.max(np.abs(root - vals))), "residual": eq_res,
                      "depth": depth, "kernel_built": built})
        if eq_res < cfg.tol:
            status = "converged"
            break
        vals, evaluate, product = root, None, None
        recent = [entry["change"] for entry in trace[-20:]]
        if len(recent) == 20 and all(x < y for x, y in zip(recent, recent[1:])):
            status = "diverged"
            break
    if evaluate is None:
        evaluate = power_interpolant(ts, vals, cfg.p, sign_template)
    if evaluate is not phi0:  # the caller's seed outlives the run
        evaluate._panel_kernel = apply_K
        if product is not None:  # K of the returned iterate: its own, not the kernel's, which serves any fit
            evaluate._panel_product = product
    return IterationResult(
        grid=GridFunction(nodes=ts, values=vals),
        phi=evaluate,
        status=status,
        iterations=iterations,
        trace=trace,
    )


def residual(phi, p: int, ts=None, breaks=None, halfwidth: float = 12.0) -> float:
    """max_t |K phi(t) - phi(t)^p| over the evaluation grid, phi^p being |phi|^p for even p.

    K phi is one apply_K_panels call: the kink-aware panel rule, with break
    points defaulting to the sign changes of phi, which is where candidate
    solutions lose smoothness.  halfwidth is the integration window beyond
    the samples.  The kernel narrows its band per call when the stated
    tail bound allows it (the banded _PanelKernel), so only candidates
    growing like exp(c t^2) use the whole window, which must then be
    widened until the kernel beats the growth.  The evaluator of a
    fixed_point_iterate result carries its run's kernel, which is reused on
    the run's grid and breaks, and, when the run's last step applied K to
    the returned iterate, that K phi, which is then taken as it is: the
    grid check of a converged run applies no kernel.
    """
    if ts is None:
        ts = phi.nodes if isinstance(phi, GridFunction) else np.arange(-2.0, 2.0 + 0.025, 0.05)
    ts = np.asarray(ts, dtype=float)
    if breaks is None:
        breaks = detect_sign_changes(phi)
    A = apply_K_panels(phi, ts, breaks, halfwidth)
    pv = np.asarray(phi(ts), dtype=float)
    return float(np.max(np.abs(A - _equation_power(pv, p))))


_LAWS_WINDOW = 18.5  # conservation_laws_check integrates over |t| <= _LAWS_WINDOW


def conservation_laws_check(phi, p: int, N: int, breaks=None) -> np.ndarray:
    """|(phi^p, H_n)_1 - (phi, V_n)_{1/2}| for n = 0..N, phi^p being |phi|^p for even p.

    Both weighted integrals use one panel rule on |t| <= _LAWS_WINDOW, with
    sides substituted at the sign changes of phi, and one evaluation of phi:
    the window makes the discarded weight-1/2 tail negligible for bounded
    candidates, and past |t| = 13 the weight-1 integrand is below e^{-169},
    too small to change a rounded sum.
    """
    if breaks is None:
        breaks = detect_sign_changes(phi)
    t, w = panel_rule(-_LAWS_WINDOW, _LAWS_WINDOW, breaks)
    fv = np.asarray(phi(t), dtype=float)
    lhs = hermite_table(N, t) @ (w * np.exp(-t * t) * _equation_power(fv, p)) / SQRT_PI
    rhs = modified_hermite_table(N, t) @ (w * np.exp(-t * t / 2.0) * fv) / (SQRT_PI * math.sqrt(2.0))
    return np.abs(lhs - rhs)


@dataclass(frozen=True)
class LimitReport:
    """Tail behaviour of a grid candidate against the admissible limit set."""

    left_mean: float
    right_mean: float
    left_limit: float
    right_limit: float
    left_distance: float
    right_distance: float
    admissible: bool
    dpow_left: float
    dpow_right: float


def _admissible_limits(p: int) -> tuple[float, ...]:
    """The constant solutions of K phi = phi^p: {0, 1} for even p, {0, +-1} for odd p."""
    return (0.0, 1.0) if p % 2 == 0 else (-1.0, 0.0, 1.0)


def limit_diagnostics(phi: GridFunction, p: int, edge: float = 8.0) -> LimitReport:
    """Tail averages of phi, nearest admissible limit, and (phi^p)' at +-edge.

    The admissible limit set is {0, 1} for even p and {0, +-1} for odd p;
    the report is flagged admissible when both tail means sit within 1e-2
    of the set.  (phi^p)' is of the equation's power (|phi|^p for even p):
    central differences, one-sided at the grid's ends, interpolated to +-edge.
    """
    t, v = phi.nodes, phi.values
    if t[0] > -edge or t[-1] < edge:
        raise ValueError(f"grid must extend past |t| = {edge}")
    limits = _admissible_limits(p)
    left_mean = float(np.mean(v[t <= -edge]))
    right_mean = float(np.mean(v[t >= edge]))
    left_limit = min(limits, key=lambda c: abs(c - left_mean))
    right_limit = min(limits, key=lambda c: abs(c - right_mean))
    left_distance = abs(left_mean - left_limit)
    right_distance = abs(right_mean - right_limit)
    slope = np.gradient(_equation_power(v, p), float(np.median(np.diff(t))))
    dpow_left, dpow_right = (float(d) for d in np.interp([-edge, edge], t, slope))
    return LimitReport(
        left_mean=left_mean,
        right_mean=right_mean,
        left_limit=left_limit,
        right_limit=right_limit,
        left_distance=left_distance,
        right_distance=right_distance,
        admissible=left_distance <= 1e-2 and right_distance <= 1e-2,
        dpow_left=dpow_left,
        dpow_right=dpow_right,
    )


def exact_gaussian_solution(p: int):
    """The closed-form growing solution and its caloric interpolant.

    phi(t) = p^{1/(2(p-1))} exp((p-1) t^2 / p) solves K phi = phi^p exactly;
    the pair (phi, u) is returned with u(x, t) the heat evolution
    p^{1/(2(p-1))} (1 - x + x/p)^{-1/2} exp(t^2 (p-1) / (p - x p + x)).
    """
    if p < 2:
        raise ValueError("the closed-form solution needs p >= 2")
    amp = p ** (1.0 / (2 * (p - 1)))
    c = (p - 1.0) / p

    def phi(t):
        t = np.asarray(t, dtype=float)
        return amp * np.exp(c * t * t)

    def u(x, t):
        t = np.asarray(t, dtype=float)
        return amp * (1.0 - x + x / p) ** -0.5 * np.exp(t * t * (p - 1.0) / (p - x * p + x))

    return phi, u
