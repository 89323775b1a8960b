"""Nonlinear solvers for the Gaussian-convolution power equation K phi = phi^p.

Three attack routes live here.  For p = 2, matching the Taylor expansion of
phi^2 against the exact Taylor action of K on Hermite data yields an
infinite quadratic system in the Hermite coefficients a_n; its truncations
are assembled exactly (TruncatedSystem) and solved either in closed form
for the four-unknown case (solve_3approx, which enumerates every branch of
the truncated system) or by damped Newton iteration on the exact Jacobian
(newton_solve).  For general p >= 2 a grid fixed-point iteration inverts
the equation as phi <- p-th root of K phi, with Anderson mixing over the
last few steps of the map preconditioned by K's plane-wave spectrum, and a
caller-supplied sign template in the even-p case where the root loses the
sign.  The remaining functions verify
candidates: equation residual, the integral conservation laws
(phi^p, H_n)_1 = (phi, V_n)_{1/2} and boundary-limit diagnostics.

Off-grid evaluation of iterates goes through a cubic spline of the p-th
power rather than of phi itself: the power is smooth even where phi has a
fractional-power zero, so the root of the spline keeps full accuracy near
sign changes (plain interpolation of phi would lose ~h^(1/3) there).  The
spline is the not-a-knot cubic on evenly spaced nodes, solved with numpy
alone; uneven nodes, or fewer than 4, are rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

from .basis import (
    SQRT_PI,
    GridFunction,
    HermiteSeries,
    _conversion_matrix,
    gauss_hermite_rule,  # noqa: F401 -- unused here; perfbench/test_perfbench.py expects this binding
    hermite_table,
    modified_hermite_table,
)
from .gaussop import EvaluationError

__all__ = [
    "SolverConfig",
    "TruncatedSystem",
    "ApproxSolution3",
    "NewtonResult",
    "IterationResult",
    "LimitReport",
    "solve_3approx",
    "newton_solve",
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
_INNERMOST = 1e-8  # the innermost panel on each side of a break
# the graded edges' offsets from a break: _INNERMOST, doubling while below _PANEL
_GRADING = _INNERMOST * 2.0 ** np.arange(math.ceil(math.log2(_PANEL / _INNERMOST)))


def panel_rule(lo: float, hi: float, breaks=()) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre rule on [lo, hi], graded at breaks.

    Panels have width at most _PANEL = 1; around every interior break the
    panels halve down to _INNERMOST = 1e-8 on each side, so integrands with
    an algebraic kink (a fractional-power zero of a candidate solution) are
    integrated to near machine accuracy instead of the slow algebraic rate
    a smooth-weight rule would give.  A break outside (lo, hi) adds nothing;
    an inner plain edge within _INNERMOST of a break gives way to the break,
    and any edge within _INNERMOST of a window end gives way to that end, so
    no panel is narrower than _INNERMOST (a window narrower than that aside).
    """
    if not hi > lo:
        raise ValueError("empty integration window")
    plain = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / _PANEL)) + 1))
    inner = np.array([b for b in breaks if lo < b < hi], dtype=float)
    # an inner plain edge within _INNERMOST of a break, but not on it, would cut a sliver panel
    gaps = np.abs(plain[1:-1, None] - inner)
    kept = plain[1:-1][np.all((gaps == 0) | (gaps >= _INNERMOST), axis=1)]
    graded = (inner[:, None] + np.concatenate([-_GRADING, _GRADING])).ravel()
    edges = np.sort(np.concatenate([plain[[0, -1]], kept, graded[(lo < graded) & (graded < hi)], inner]))
    # an edge within _INNERMOST inside a window end gives way to that end, the break included
    near_end = np.minimum(edges - lo, hi - edges) < _INNERMOST
    grid = edges[(np.diff(edges, prepend=-np.inf) > 0) & ~(near_end & (edges != lo) & (edges != hi))]
    mids = 0.5 * (grid[1:] + grid[:-1])
    halves = 0.5 * (grid[1:] - grid[:-1])
    nodes = (mids[:, None] + halves[:, None] * _GL_NODES).ravel()
    weights = (halves[:, None] * _GL_WEIGHTS).ravel()
    return nodes, weights


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
    return float(np.polyfit(np.log(s), np.log(vals), 1)[0])


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
_BREAK_TOL = 1e-10  # far below the 1e-8 innermost panel: a kernel graded at either break fits both
_BAND = 6.5  # the narrow band: e^{-6.5^2} < 5e-19 and erfc(6.5) < 4e-20
_CHEB = 20  # Chebyshev nodes standing for the points within 1/2 of a break
_CHEB_NODES = np.cos((2 * np.arange(_CHEB, 0, -1) - 1) * np.pi / (2 * _CHEB))  # first kind, ascending
# l_m(x) = sum_k c_k T_k(x_m) T_k(x) with c_0 = 1/n and c_k = 2/n: the discrete
# orthogonality of T_0 .. T_{n-1} on the n Chebyshev nodes x_m of the first kind
_CHEB_COEFFS = chebvander(_CHEB_NODES, _CHEB - 1) * np.where(np.arange(_CHEB) == 0, 1.0, 2.0) / _CHEB


def _breaks_agree(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= _BREAK_TOL for x, y in zip(a, b))


def _chebyshev_pieces(x, breaks) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Cut sorted points x into runs, with _CHEB Chebyshev nodes in place of each run near a break.

    A break's run is the points within 1/2 of it; the runs of two breaks
    closer than 1 meet at their midpoint.  A run is kept as it is when the
    nodes would not halve it, or when it repeats one value.  Returns the
    pieces (src, dst, L): x[src] stands at the slice dst of the new points,
    one for one when L is None, and through L[m, k] = l_m(x_k), the Lagrange
    basis of the Chebyshev nodes on the span of x[src], when not.  Also
    returns the new points, sorted, and the span [first, last] of x that
    each one stands for.
    """
    bs = np.sort(np.asarray(breaks, dtype=float))
    bs = bs[np.diff(bs, prepend=-np.inf) > 0]  # np.unique, which would import numpy.ma on first use
    mids = 0.5 * (bs[1:] + bs[:-1])
    starts = np.searchsorted(x, np.maximum(bs - 0.5, np.concatenate([[-np.inf], mids])))
    stops = np.searchsorted(x, np.minimum(bs + 0.5, np.concatenate([mids, [np.inf]])))
    pieces, points, first, last = [], [], [], []
    pos = out = 0
    for start, stop in zip(starts, stops):
        if stop - start <= 2 * _CHEB or not x[stop - 1] > x[start]:
            continue
        a, b = x[start], x[stop - 1]
        s = np.clip((x[start:stop] - 0.5 * (a + b)) / (0.5 * (b - a)), -1.0, 1.0)
        lagrange = _CHEB_COEFFS @ chebvander(s, _CHEB - 1).T
        kept = start - pos
        pieces += [(slice(pos, start), slice(out, out + kept), None),
                   (slice(start, stop), slice(out + kept, out + kept + _CHEB), lagrange)]
        points += [x[pos:start], 0.5 * (a + b) + 0.5 * (b - a) * _CHEB_NODES]
        first += [x[pos:start], np.full(_CHEB, a)]
        last += [x[pos:start], np.full(_CHEB, b)]
        pos, out = stop, out + kept + _CHEB
    pieces.append((slice(pos, x.size), slice(out, out + x.size - pos), None))
    return (pieces, *(np.concatenate(v + [x[pos:]]) for v in (points, first, last)))


class _PanelKernel:
    """The map f -> K f at the rows ts, on the panel rule of [min ts - halfwidth, max ts + halfwidth].

    halfwidth is the integration window: a row's band reaches halfwidth
    from it unless the integrand's bound shows the tail past _BAND below
    rounding.  Two steps of the fast Gauss transform (Greengard & Strain,
    SIAM J. Sci. Stat. Comput. 12, 1991) make one kernel cheap enough to
    serve a whole solve.  The nodes are panel_rule's, 16 per panel of width
    at most _PANEL = 1: on the 801 rows of [-10, 10] with break 0 that is
    1568 nodes, 740 after compression, and 199,528 band entries.

    * Compression.  On a span of width 1, e^{-(t-tau)^2} is a polynomial of
      degree _CHEB - 1 in tau to rounding.  So the graded panel nodes within
      1/2 of a break become _CHEB Chebyshev nodes c_m, with weights
      g_m = sum_k l_m(tau_k) w_k f(tau_k) (_chebyshev_pieces).  The rows
      are ts itself, sorted.
    * Banding by the integrand's own bound.  Rows are stored in blocks of
      _KERNEL_BLOCK sorted t over the contiguous slice of nodes that some
      row of the block reaches, first for |t - tau| <= _BAND (a row that
      reaches any of a compressed span takes it whole).  An apply keeps that
      band when the tail it drops, at most e^{-_BAND^2} sum_j w_j |f_j|, is
      below one rounding unit of every row's sum_j e^{-(t - tau_j)^2} w_j |f_j|,
      which the same product gives from |f| columns.  Otherwise, for an f
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
        self.node_pieces, self.nodes, self.first, self.last = _chebyshev_pieces(self.tau, self.breaks)
        self.narrow = self._band(min(_BAND, halfwidth))
        self.full = self.narrow if halfwidth <= _BAND else None

    def _band(self, cut: float) -> list:
        """Blocks of rows with every node within cut of some row of the block.

        A row may thus sum a few nodes past cut, which only makes it more exact.
        """
        # row t reaches the nodes [reach_lo, reach_hi): those whose span is within cut of t
        reach_lo = np.searchsorted(self.last, self.rows - cut)
        reach_hi = np.searchsorted(self.first, self.rows + cut, "right")
        starts = np.arange(0, self.rows.size, _KERNEL_BLOCK)
        stops = np.minimum(starts + _KERNEL_BLOCK, self.rows.size)
        los, his = reach_lo[starts], reach_hi[stops - 1]
        # one buffer for all blocks, so that a freed kernel's memory serves the next build
        store = np.empty(int(np.sum((stops - starts) * (his - los))))
        # t - c as the product [t, -1] @ [1, c]: one rounding per entry, so the
        # same bits as the broadcast difference, which numpy writes slower
        rows = np.stack([self.rows, np.full(self.rows.size, -1.0)], axis=1)
        nodes = np.stack([np.ones(self.nodes.size), self.nodes])
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
        reduced = np.empty((weighted.shape[0], self.nodes.size))
        for src, dst, lagrange in self.node_pieces:
            reduced[:, dst] = weighted[:, src] if lagrange is None else weighted[:, src] @ lagrange.T
        near = np.empty((weighted.shape[0], self.rows.size))
        for part, cols, band in blocks:
            near[:, part] = reduced[:, cols] @ band.T
        return near

    def _at_ts(self, near) -> np.ndarray:
        out = np.empty_like(near)
        out[:, self.order] = near
        return out / SQRT_PI

    def __call__(self, f, with_size: bool = False):
        """K f at ts; with_size adds K|f| on the narrow band, the scale of K f's rounding."""
        fv = np.asarray(f(self.tau), dtype=float)
        if fv.shape[:1] != self.tau.shape:  # a constant f may return a scalar
            fv = np.broadcast_to(fv, self.tau.shape + fv.shape[1:])
        if not np.isfinite(fv).all():
            node = float(self.tau[np.argmin(np.isfinite(fv).reshape(fv.shape[:1] + (-1,)).all(axis=-1))])
            raise EvaluationError(f"non-finite integrand value at tau={node}", node)
        weighted = np.multiply(self.w, fv.reshape(self.tau.size, -1).T, order="C")
        r = weighted.shape[0]
        size = np.abs(weighted)
        near = self._product(self.narrow, np.concatenate([weighted, size]))  # K f rows, then K|f| rows
        if self.full is not self.narrow and not np.all(
            math.exp(-_BAND * _BAND) * size.sum(axis=1) <= 2.0**-53 * near[r:].min(axis=1)
        ):
            if self.full is None:
                self.full = self._band(self.halfwidth)
            near[:r] = self._product(self.full, weighted)
        shape = self.ts.shape + fv.shape[1:]
        if not with_size:
            return self._at_ts(near[:r]).T.reshape(shape)
        both = self._at_ts(near)
        return both[:r].T.reshape(shape), both[r:].T.reshape(shape)


def apply_K_panels(f, ts, breaks=(), halfwidth: float = 12.0) -> np.ndarray:
    """K f on the sample points via the kink-aware composite panel rule.

    The rule is panel_rule's: 16 Gauss-Legendre nodes per panel of width at
    most _PANEL = 1, graded at the breaks.  That resolves every frequency
    that K's spectrum e^{-xi^2/4} leaves above rounding (|xi| <= 12), so
    K cos(xi .) comes out as e^{-xi^2/4} cos(xi t) to about 1e-15.
    halfwidth is the integration window: each row integrates
    pi^(-1/2) int f(tau) e^{-(t-tau)^2} dtau over [t - halfwidth,
    t + halfwidth].  Per call the kernel narrows its band to
    |t - tau| <= 6.5 when e^{-6.5^2} sum_j w_j |f_j| is below one rounding
    unit of every row's sum_j e^{-(t-tau_j)^2} w_j |f_j|, so that the tail
    it drops cannot show, and sums over the whole window otherwise: an f
    growing like exp(c t^2) gets the full halfwidth, which must then be
    wide enough for the kernel to beat the growth.  The graded panels at
    the breaks are compressed onto Chebyshev nodes, the interpolation step
    of the fast Gauss transform (Greengard & Strain, SIAM J. Sci. Stat.
    Comput. 12, 1991; see _PanelKernel).  An f returning an (n, r) block of
    r functions gives an (len(ts), r) result from one kernel.  A non-finite
    value of f raises EvaluationError naming the first panel node where it
    occurs.  An f that carries a _panel_kernel attribute, as the evaluator
    a fixed_point_iterate run made does, has it reused when it fits ts,
    breaks and halfwidth; any other call builds a kernel.
    """
    kernel = getattr(f, "_panel_kernel", None)
    if kernel is None or not kernel.fits(ts, breaks, halfwidth):
        kernel = _PanelKernel(ts, breaks, halfwidth)
    return kernel(f)


@dataclass(frozen=True)
class SolverConfig:
    """The power p, the stopping rule and the grid of the solvers.

    Newton and the fixed-point iteration stop once their residual max-norm
    drops below tol, or after max_iter steps.  The fixed-point grid has step
    grid_step on [-grid_halfwidth, grid_halfwidth]; a step that does not
    divide the halfwidth is rejected, naming the nearest that does.
    """

    p: int
    tol: float = 1e-10
    max_iter: int = 500
    grid_halfwidth: float = 10.0
    grid_step: float = 0.05

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"power p must be a positive integer, got {self.p}")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 5 <= self.grid_halfwidth < math.inf:
            raise ValueError(f"grid halfwidth must be finite and >= 5, got {self.grid_halfwidth}")
        if not 0 < self.grid_step < math.inf:
            raise ValueError(f"grid step must be positive and finite, got {self.grid_step}")
        n = max(1, round(self.grid_halfwidth / self.grid_step))
        if abs(self.grid_halfwidth / self.grid_step - n) > 1e-9 * n:
            raise ValueError(f"grid step {self.grid_step} does not divide the halfwidth "
                             f"{self.grid_halfwidth}; the nearest step that does is {self.grid_halfwidth / n}")


class TruncatedSystem:
    """The first N+1 equations of the p=2 coefficient system, a_{N+1}.. = 0.

    With S_k(a) = sum_{m>=k, m=k mod 2} a_m c_{m,k} / 2^m the equations read
    a_n = n! sum_{k+i=n} S_k(a) S_i(a).  The exact constant solution
    a = (1, 0, ..., 0) has residual zero.
    """

    def __init__(self, N: int):
        if N < 3:
            raise ValueError(f"truncation order must be >= 3, got {N}")
        self.N = N
        self._fact = np.array([math.factorial(n) for n in range(N + 1)], dtype=float)
        self._C = _conversion_matrix(N + 1, N + 1, signed=True) / self._fact[:, None]

    def inner_sums(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.size != self.N + 1:
            raise ValueError(f"coefficient vector must have length {self.N + 1}")
        return self._C @ a

    def rhs(self, a) -> np.ndarray:
        S = self.inner_sums(a)
        return self._fact * np.convolve(S, S)[: self.N + 1]

    def residual(self, a) -> np.ndarray:
        return np.asarray(a, dtype=float) - self.rhs(a)

    def jacobian(self, a) -> np.ndarray:
        """The exact Jacobian I - 2 diag(n!) T(S) C of the quadratic residual.

        T(S)[n, k] = S_{n-k} for k <= n is the lower-triangular Toeplitz
        matrix of the inner sums, and C maps a to S.
        """
        S = self.inner_sums(a)
        n = np.arange(self.N + 1)
        return np.eye(self.N + 1) - 2.0 * self._fact[:, None] * (np.tril(S[n[:, None] - n]) @ self._C)


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

    def series(self) -> HermiteSeries:
        return HermiteSeries(basis="H", coeffs=self.coefficients())

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


@dataclass
class NewtonResult:
    """Outcome of a damped Newton run on a truncated system."""

    series: HermiteSeries
    status: str  # converged | diverged | singular
    iterations: int
    residual_norm: float
    condition: float
    trace: list = field(default_factory=list)


def newton_solve(system: TruncatedSystem, init, cfg: SolverConfig) -> NewtonResult:
    """Damped Newton iteration on the exact Jacobian (TruncatedSystem.jacobian).

    Stops when the residual max-norm drops below cfg.tol; a Jacobian with
    condition number above 1e12 yields status 'singular' and the current
    iterate; exhausting max_iter yields 'diverged'.  Each trace entry has
    the residual, the condition number of the Jacobian formed there and the
    step length lam taken from there (NaN where none was).  The result's
    condition is that of the last Jacobian formed, NaN if there was none.
    """
    a = np.asarray(init, dtype=float).copy()
    if a.size != system.N + 1:
        raise ValueError(f"initial vector must have length {system.N + 1}")
    trace = []
    cond = math.nan
    for it in range(cfg.max_iter):
        r = system.residual(a)
        rn = float(np.max(np.abs(r)))
        entry = {"iteration": it, "residual": rn, "condition": math.nan, "lam": math.nan}
        trace.append(entry)
        if rn < cfg.tol:
            return NewtonResult(HermiteSeries("H", a), "converged", it, rn, cond, trace)
        J = system.jacobian(a)
        cond = entry["condition"] = float(np.linalg.cond(J))
        if not np.isfinite(cond) or cond > 1e12:
            return NewtonResult(HermiteSeries("H", a), "singular", it, rn, cond, trace)
        step = np.linalg.solve(J, r)
        lam = 1.0
        while True:
            candidate = a - lam * step
            if float(np.max(np.abs(system.residual(candidate)))) < rn or lam <= 1.0 / 64:
                break
            lam /= 2.0
        entry["lam"] = lam
        a = candidate
    rn = float(np.max(np.abs(system.residual(a))))
    return NewtonResult(HermiteSeries("H", a), "diverged", cfg.max_iter, rn, cond, trace)


def _equation_power(v, p: int):
    """phi^p of the equation: the signed power v |v|^(p-1), and its modulus for even p."""
    power = v * np.abs(v) ** (p - 1)
    return np.abs(power) if p % 2 == 0 else power


def _default_even_template(t):
    return np.where(np.asarray(t, dtype=float) >= 0, 1.0, -1.0)


# M_{i-1} + 4 M_i + M_{i+1} = b_i on the whole line is solved by M = g * b with
# g_k = (-r)^|k| / (2 sqrt 3), r = 2 - sqrt 3, and its homogeneous solutions are
# (-r)^i and (-r)^-i.  sum |g_k| = 1/2, so the sum rounds by about 2^-53 max |b|;
# the terms past k = 32 add less than r^33 / (1 - r) < 2^-60 max |b|, and the
# homogeneous terms past i = 32 as little of theirs, so both are cut there.
_SPLINE_R = 2.0 - math.sqrt(3.0)
_SPLINE_TAPS = 32
_SPLINE_DECAY = (-_SPLINE_R) ** np.arange(_SPLINE_TAPS + 1)
_SPLINE_INVERSE = np.concatenate([_SPLINE_DECAY[:0:-1], _SPLINE_DECAY]) / (2.0 * math.sqrt(3.0))


def _not_a_knot_moments(y, h: float) -> np.ndarray:
    """Second derivatives M of the not-a-knot cubic spline through y on nodes of step h.

    The rows M_{i-1} + 4 M_i + M_{i+1} = 6 (y_{i-1} - 2 y_i + y_{i+1}) / h^2
    are solved by the line inverse plus a (-r)^i + b (-r)^(n-1-i), with a
    and b fixed by the not-a-knot rows M_0 - 2 M_1 + M_2 = 0 and
    M_{n-3} - 2 M_{n-2} + M_{n-1} = 0: no Python loop and no banded solve.
    """
    n = y.size
    b = (6.0 / (h * h)) * (y[:-2] - 2.0 * y[1:-1] + y[2:])  # rows 1 .. n-2
    M = np.convolve(b, _SPLINE_INVERSE)[_SPLINE_TAPS - 1 : _SPLINE_TAPS - 1 + n]
    # x_0 - 2 x_1 + x_2 is (1 + r)^2 for x_i = (-r)^i and c (1 + r)^2 for (-r)^(n-1-i),
    # and the reverse at the far end: a symmetric 2x2 system for a and b
    e0, e1 = M[0] - 2.0 * M[1] + M[2], M[-3] - 2.0 * M[-2] + M[-1]
    c = (-_SPLINE_R) ** (n - 3)
    scale = -1.0 / ((1.0 + _SPLINE_R) ** 2 * (1.0 - c * c))
    m = min(n, _SPLINE_TAPS + 1)
    M[:m] += scale * (e0 - c * e1) * _SPLINE_DECAY[:m]
    M[n - m :] += scale * (e1 - c * e0) * _SPLINE_DECAY[m - 1 :: -1]
    return M


def power_interpolant(nodes, values, p: int, sign_template=None):
    """Evaluate a grid iterate anywhere via a cubic spline of its p-th power.

    The spline is the not-a-knot cubic through the signed powers
    v |v|^(p-1) on evenly spaced nodes; the returned callable maps back with
    the real p-th root (odd p) or with the given sign template (even p).
    Outside the grid the edge powers extend as constants.  The nodes must
    be at least 4 and rise by one step h = (last - first) / (n - 1), each
    gap within 64 eps max |node| of h, as linspace and arange round them,
    and each must have a value with a finite power; other input raises
    ValueError.  The second derivatives are solved on the
    step h and each piece takes its own gap, so the spline meets every node
    value to rounding.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    n = nodes.size
    if n < 4:
        raise ValueError(f"the power spline needs at least 4 nodes, got {n}")
    lo, hi = float(nodes[0]), float(nodes[-1])
    h = (hi - lo) / (n - 1)
    gaps = np.diff(nodes)
    if not (h > 0 and np.all(np.abs(gaps - h) <= 64 * np.finfo(float).eps * max(abs(lo), abs(hi)))):
        raise ValueError(f"the power spline needs evenly spaced increasing nodes, got gaps "
                         f"from {float(np.min(gaps))} to {float(np.max(gaps))}")
    powers = values * np.abs(values) ** (p - 1)
    if powers.shape != nodes.shape or not np.all(np.isfinite(powers)):
        raise ValueError("the power spline needs one value per node, with a finite p-th power")
    M = _not_a_knot_moments(powers, h)
    # Taylor coefficients in t - nodes[i] of the cubic on [nodes[i], nodes[i+1]],
    # and a constant piece n-1 from the last node on; knots[i+1] ends piece i.
    # The gap of each piece, not h, makes it end at the next node value.
    coeffs = np.zeros((4, n))
    coeffs[0] = powers
    coeffs[1, :-1] = np.diff(powers) / gaps - gaps * (2.0 * M[:-1] + M[1:]) / 6.0
    coeffs[2, :-1] = 0.5 * M[:-1]
    coeffs[3, :-1] = np.diff(M) / (6.0 * gaps)
    knots = np.append(nodes, np.inf)

    def phi(t):
        t = np.asarray(t, dtype=float)
        x = np.minimum(np.maximum(t, lo), hi)
        # the floor, as x >= lo; mode "clip" takes a NaN's index to a NaN value
        i = ((x - lo) / h).astype(np.intp)
        i += x >= knots.take(i + 1, mode="clip")  # a node whose quotient rounds below its index
        # the offset from the node itself: (x - lo) / h - i loses ~400 ulp at the far end
        d = x - nodes.take(i, mode="clip")
        c0, c1, c2, c3 = coeffs.take(i, axis=1, mode="clip")
        sv = c0 + d * (c1 + d * (c2 + d * c3))
        if p % 2 == 1:
            out = np.sign(sv) * np.abs(sv) ** (1.0 / p)
        else:
            out = sign_template(t) * np.abs(sv) ** (1.0 / p)
        return out if out.shape else float(out)

    return phi


_ANDERSON_DEPTH = 5  # the m of fixed_point_iterate's Anderson mixing: differences of past steps kept


@dataclass
class IterationResult:
    """Grid iterate, smooth evaluator, and convergence trace of the fixed point run."""

    grid: GridFunction
    phi: object  # callable
    status: str  # converged | max_iter | diverged | infeasible
    iterations: int
    trace: list
    config: SolverConfig

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
    """Iterate phi <- signed p-th root of K phi on a uniform grid, with preconditioned Anderson mixing.

    For odd p the root keeps the sign of K phi; for even p the sign comes
    from the template (default sgn(t)) and K phi must stay >= -tol, since a
    solution's power is non-negative; a violation stops the run with status
    'infeasible'.  phi0 is a callable (a GridFunction is one) and is the
    first iterate, so it need not be smooth: every iteration applies K with
    the panel kernel graded at the iterate's sign changes, built once per
    break set and rebuilt only when a break appears, vanishes or moves by
    more than _BREAK_TOL.  The breaks come from the signs of the grid
    values: a node value of exactly 0 is a break, and each strict sign
    bracket between nodes is bisected on the iterate's evaluator, the
    refinement detect_sign_changes runs on its own samples.  The last
    kernel travels with the returned evaluator as its _panel_kernel, when
    the run made that evaluator (never on the caller's seed), for
    apply_K_panels and residual on the grid at those breaks.

    Each step is Anderson mixing (Anderson, J. ACM 12, 1965; Walker & Ni,
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
    pair on the grid (_preconditioner).  So the mixing runs on
    g = phi^p + P f with the residual P f: with the differences dg, dPf of
    the last _ANDERSON_DEPTH steps, gamma minimises |P f - dPf gamma| and
    psi <- g - dg gamma, and the convergence turns superlinear.  The least
    squares drops the singular directions of dPf below about cfg.tol / 10:
    K commutes with shifts, so a kink off the grid's centre has a
    translation mode that leaves the residual flat, and a gamma fitted to
    residual differences at the noise level (about 1e-12) moved such a
    kink's zero by up to 6e-6 where the plain map moves it by 1e-9.  A mixed psi below
    64 eps K|phi| snaps to 0, as K phi does.  The first step, and
    every step after a restart, is the plain map psi <- K phi; the history
    is cleared whenever the grid residual fails to decrease, so a growing
    run takes plain steps, and _ANDERSON_DEPTH = 0 is the plain map.
    The run converges when the grid residual max |K phi - phi^p| of the
    current iterate (the trace's 'residual'; the preconditioned residual
    only steers the mixing) drops below cfg.tol; that iterate is returned
    and the step is declined, though the trace still records its 'change',
    the max change of phi the step would make (None on an infeasible step,
    which takes none).  Each trace entry also has 'depth', the number of
    history differences its step mixed (0 for a plain step), and
    'kernel_built', whether that iteration built a panel kernel.
    The change of phi, which stalls at eps^(1/p) at a zero on a grid node,
    decides only 'diverged'.  A seed with a non-finite value at a grid or
    panel node raises EvaluationError naming the first such node.
    """
    if cfg.p < 2:
        raise ValueError("fixed-point iteration needs p >= 2")
    even = cfg.p % 2 == 0
    if even and sign_template is None:
        sign_template = _default_even_template
    L = cfg.grid_halfwidth
    n_half = int(round(L / cfg.grid_step))
    ts = np.linspace(-L, L, 2 * n_half + 1)
    precondition = _preconditioner(cfg.p, L / n_half, ts.size)

    vals = np.asarray(phi0(ts), dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        node = float(ts[bad[0]])
        raise EvaluationError(f"non-finite seed value at t={node}", node)
    evaluate = phi0

    trace = []
    status = "max_iter"
    iterations = 0
    apply_K = None
    history = []  # (phi^p + P f, P f) of the latest iterates, oldest first
    for it in range(cfg.max_iter):
        iterations = it + 1
        breaks = _refined_sign_changes(evaluate, ts, vals)
        built = apply_K is None or not _breaks_agree(breaks, apply_K.breaks)
        if built:
            apply_K = _PanelKernel(ts, breaks)
        A, scale = apply_K(evaluate, with_size=True)
        # the p-th root amplifies rounding noise near A = 0 (|eps|^(1/p) is
        # ~1e-6 at double precision); snap sub-noise values to an exact zero
        noise = 64 * np.finfo(float).eps * scale
        A = np.where(np.abs(A) < noise, 0.0, A)
        power = _equation_power(vals, cfg.p)
        f = A - power
        eq_res = float(np.max(np.abs(f)))
        if even and float(np.min(A)) < -cfg.tol:
            trace.append({"iteration": it, "change": None, "residual": eq_res, "depth": 0, "kernel_built": built})
            status = "infeasible"
            break
        if trace and eq_res >= trace[-1]["residual"]:
            history = []  # restart: mixing across a growing residual could fit its way onto phi = 0
        pf = precondition(f)
        history = (history + [(power + pf, pf)])[-1 - _ANDERSON_DEPTH :]
        psi = A
        if len(history) > 1:
            G, F = (np.diff(np.array(v), axis=0) for v in zip(*history))
            # fit no direction whose residual differences are below tol/10, far below what the
            # stopping rule can see: there gamma would chase noise along the translation mode
            psi = power + pf - np.linalg.lstsq(F.T, pf, rcond=0.1 * cfg.tol / np.linalg.norm(F))[0] @ G
            psi = np.where(np.abs(psi) < noise, 0.0, psi)
        if even:
            root = sign_template(ts) * np.clip(psi, 0.0, None) ** (1.0 / cfg.p)
        else:
            root = np.sign(psi) * np.abs(psi) ** (1.0 / cfg.p)
        trace.append({"iteration": it, "change": float(np.max(np.abs(root - vals))), "residual": eq_res,
                      "depth": len(history) - 1, "kernel_built": built})
        if eq_res < cfg.tol:
            status = "converged"
            break
        vals = root
        evaluate = power_interpolant(ts, vals, cfg.p, sign_template)
        recent = [entry["change"] for entry in trace[-20:]]
        if len(recent) == 20 and all(x < y for x, y in zip(recent, recent[1:])):
            status = "diverged"
            break
    if evaluate is not phi0:  # the caller's seed outlives the run
        evaluate._panel_kernel = apply_K
    return IterationResult(
        grid=GridFunction(nodes=ts, values=vals),
        phi=evaluate,
        status=status,
        iterations=iterations,
        trace=trace,
        config=cfg,
    )


def residual(phi, p: int, ts=None, breaks=None, halfwidth: float = 12.0) -> float:
    """max_t |K phi(t) - phi(t)^p| over the evaluation grid, phi^p being |phi|^p for even p.

    K phi is one apply_K_panels call: the kink-aware panel rule, with break
    points defaulting to the sign changes of phi, which is where candidate
    solutions lose smoothness.  halfwidth is the integration window beyond
    the samples.  The kernel narrows its band per call when the stated
    tail bound allows it (the compressed, banded _PanelKernel of the fast
    Gauss transform), so only candidates growing like exp(c t^2) use the
    whole window, which must then be widened until the kernel beats the
    growth.  The evaluator of a fixed_point_iterate result carries its
    run's kernel, which is reused on the run's grid and breaks.
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

    Both weighted integrals use one panel rule on |t| <= _LAWS_WINDOW, graded
    at the sign changes of phi, and one evaluation of phi: the window makes the
    discarded weight-1/2 tail negligible for bounded candidates, and past
    |t| = 13 the weight-1 integrand is below e^{-169}, too small to change
    a rounded sum.
    """
    if breaks is None:
        breaks = detect_sign_changes(phi)
    t, w = panel_rule(-_LAWS_WINDOW, _LAWS_WINDOW, breaks)
    fv = np.asarray(phi(t), dtype=float)
    # the equation's power, |phi|^p for even p, as the modulus of the weighted
    # signed power: the same product and rounding as for odd p
    weighted = w * np.exp(-t * t) * fv * np.abs(fv) ** (p - 1)
    lhs = hermite_table(N, t) @ (np.abs(weighted) if p % 2 == 0 else weighted) / SQRT_PI
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
    of the set.
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
    power = v * np.abs(v) ** (p - 1)
    h = float(np.median(np.diff(t)))
    interp = lambda s: float(np.interp(s, t, power))
    dpow_left = (interp(-edge + h) - interp(-edge - h)) / (2 * h)
    dpow_right = (interp(edge + h) - interp(edge - h)) / (2 * h)
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
