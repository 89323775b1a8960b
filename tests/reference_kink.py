"""An independent reference for the odd kink of K phi = phi^p, odd p, by Nystrom's method.

It shares no code with the package.  For an odd phi with phi = 1 - delta on
t > 0, and K sgn = erf,

    K phi(t) = erf(t) - pi^(-1/2) int_0^inf delta(tau) [e^{-(t-tau)^2} - e^{-(t+tau)^2}] dtau,

and the bracket is -e^{-(t-tau)^2} expm1(-4 t tau), which keeps its digits
for small t tau.  The rule on tau > 0 has a side [0, 1] with tau = s^p,
which makes phi ~ tau^(1/p) smooth in s, on Gauss-Legendre panels in s,
then Gauss-Legendre panels of one width from 1 on to 20 or just past it,
where delta is about 1e-18.  The plain iteration phi <- (K phi)^(1/p) on
the nodes from tanh converges (Atkinson, The Numerical Solution of
Integral Equations of the Second Kind, CUP 1997, for the method), and phi
at any t is sgn(t) (K phi(|t|))^(1/p) on the same rule (Nystrom
interpolation).  The defaults give 4 side panels of 32 nodes and 38 panels
of 32 nodes and width 0.5 on [1, 20]: 1344 nodes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_TAIL_END = 20.0
_MAX_ITER = 200


def _rule(p: int, side_panels: int, nodes: int, width: float):
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0  # on [0, 1]
    s = ((np.arange(side_panels)[:, None] + x) / side_panels).ravel()
    ws = np.tile(w / side_panels, side_panels)
    panels = math.ceil((_TAIL_END - 1.0) / width - 1e-9)
    tail = (1.0 + width * (np.arange(panels)[:, None] + x)).ravel()
    return np.concatenate([s**p, tail]), np.concatenate([p * s ** (p - 1) * ws, np.tile(width * w, panels)])


class ReferenceKink:
    """The odd kink phi of K phi = phi^p for odd p, as a callable of t."""

    def __init__(self, p: int, side_panels: int = 4, nodes: int = 32, width: float = 0.5):
        if p < 3 or p % 2 == 0:
            raise ValueError(f"the reference kink needs an odd p >= 3, got {p}")
        self.p = p
        self.tau, self.weights = _rule(p, side_panels, nodes, width)
        matrix = self._kernel(self.tau)  # formed once; each iteration is one product
        phi = np.tanh(self.tau)
        for _ in range(_MAX_ITER):
            new = (erf(self.tau) - matrix @ (1.0 - phi)) ** (1.0 / p)
            change = float(np.max(np.abs(new - phi)))
            phi = new
            if change <= 1e-16:  # it reaches 0: 36 iterations for p = 3, 26 for p = 5
                break
        else:
            raise RuntimeError(f"the reference iteration did not settle in {_MAX_ITER} steps (change {change:.1e})")
        self.delta = 1.0 - phi

    def _kernel(self, t):
        """Rows pi^(-1/2) w_j [e^{-(t-tau_j)^2} - e^{-(t+tau_j)^2}] for the t > 0 given."""
        rows = t[:, None] - self.tau[None, :]
        rows *= -rows
        np.exp(rows, out=rows)
        rows *= np.expm1(-4.0 * t[:, None] * self.tau[None, :])
        rows *= -self.weights / math.sqrt(math.pi)
        return rows

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t).ravel()
        # in slices of 256 points, so that the kernel rows stay a few MB
        k_phi = erf(a) - np.concatenate([self._kernel(a[i : i + 256]) @ self.delta for i in range(0, a.size, 256)])
        return (np.sign(t).ravel() * k_phi ** (1.0 / self.p)).reshape(t.shape)
