import dataclasses
import functools
import gc
import inspect
import math
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from padic_string import basis, bvp, gaussop, solver

from conftest import const_one


def truncation_sums(a) -> np.ndarray:
    """S_k(a), the monomial coefficients of the H-series with data a: its V-to-H conversion over k!."""
    a = np.asarray(a, dtype=float)
    fact = np.array([math.factorial(k) for k in range(a.size)], dtype=float)
    return basis.convert_b_to_a(basis.HermiteSeries("V", a), a.size - 1).coeffs / fact


def truncation_residual(a) -> np.ndarray:
    """The p=2 coefficient system cut at N = len(a) - 1: a_n - n! sum_{k+i=n} S_k(a) S_i(a).

    The reference the closed-form branches are resubstituted into.
    np.convolve, not polymul, which trims trailing zeros off the product.
    """
    a = np.asarray(a, dtype=float)
    S = truncation_sums(a)
    fact = np.array([math.factorial(n) for n in range(a.size)], dtype=float)
    return a - fact * np.convolve(S, S)[: a.size]


class TestTruncatedSystem:
    def test_constant_solution_is_exact_root(self):
        a = np.zeros(7)
        a[0] = 1.0
        assert np.max(np.abs(truncation_residual(a))) < 1e-12

    def test_zero_solution_is_exact_root(self):
        assert np.max(np.abs(truncation_residual(np.zeros(5)))) == 0.0

    def test_head_component_by_hand(self):
        # at a = (4, 0, 0, 0) the head equation reads 4 - 4^2 = -12, and the rest 0
        np.testing.assert_array_equal(truncation_residual([4.0, 0.0, 0.0, 0.0]), [-12.0, 0.0, 0.0, 0.0])

    def test_inner_sums_match_monomial_coefficients(self):
        # S_k is exactly the k-th monomial coefficient of phi
        rng = np.random.default_rng(23)
        a = rng.standard_normal(6)
        S = truncation_sums(a)
        series = basis.HermiteSeries("H", a)
        ts = np.linspace(-1.5, 1.5, 13)
        assert np.polynomial.polynomial.polyval(ts, S) == pytest.approx(series(ts), abs=1e-12)

    def test_rhs_matches_independent_polynomial_square(self):
        # square phi with plain polynomial multiplication and read off the
        # Taylor data t^n/n!; must equal the convolution assembly
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = rng.standard_normal(4)
            squared = np.polynomial.polynomial.polymul(truncation_sums(a), truncation_sums(a))
            rhs = a - truncation_residual(a)
            for n in range(4):
                assert rhs[n] == pytest.approx(math.factorial(n) * squared[n], abs=1e-8)

    def test_wide_square_consistency(self):
        # the same check against a grid: sample phi^2 and fit monomials
        rng = np.random.default_rng(31)
        a = rng.standard_normal(4)
        series = basis.HermiteSeries("H", a)
        ts = np.linspace(-1.0, 1.0, 41)
        fitted = np.polyfit(ts, series(ts) ** 2, 6)[::-1]
        S = truncation_sums(a)
        squared = np.polynomial.polynomial.polymul(S, S)
        assert fitted[:7] == pytest.approx(squared[:7], abs=1e-8)

    def test_inner_sums_are_scaled_conversion(self):
        # the conversion over k! is the double sum S_k(a) = sum_{m>=k, m=k mod 2} a_m c_{m,k} / 2^m
        N = 16
        a = np.random.default_rng(37).standard_normal(N + 1)
        double_sum = [math.fsum(a[m] * basis.coeff_c(m, k) / 2.0**m for m in range(k, N + 1)) for k in range(N + 1)]
        assert truncation_sums(a) == pytest.approx(double_sum, rel=1e-12, abs=0)


PRINTED_BRANCH_C = (0.7873, 0.6984, -0.4000, 1.219)


class TestThreeApproximation:
    def test_branch_inventory(self):
        sols = solver.solve_3approx()
        labels = sorted(s.label for s in sols)
        assert labels == ["branch_c", "branch_c", "parabolic", "trivial", "zero_head", "zero_head", "zero_head"]

    def test_printed_values(self):
        sols = {(s.label, s.a1 >= 0): s for s in solver.solve_3approx()}
        plus = sols[("branch_c", True)]
        for got, printed in zip(plus.coefficients(), PRINTED_BRANCH_C):
            assert got == pytest.approx(printed, abs=1e-3)
        assert plus.a0 == pytest.approx(0.4 + math.sqrt(0.15), abs=1e-15)
        parabolic = sols[("parabolic", True)]
        assert parabolic.coefficients() == pytest.approx([0.25, 0.0, -1.0, 0.0])
        assert parabolic.eps_branch == 1
        heads = [s for s in solver.solve_3approx() if s.label == "zero_head" and s.a2 > 0]
        for s in heads:
            assert s.a2 == pytest.approx(2.0 / 3.0)
            assert abs(s.a3) == pytest.approx(4.0 / math.sqrt(3.0))

    def test_equations_resubstitute(self):
        for s in solver.solve_3approx():
            assert s.equation_residual() < 1e-9

    def test_positive_head_branches_solve_full_truncation(self):
        for s in solver.solve_3approx():
            if s.a0 > 0 or s.label == "trivial":
                assert np.max(np.abs(truncation_residual(s.coefficients()))) < 1e-12

    def test_degenerate_branch_has_singular_odd_subsystem(self):
        for s in solver.solve_3approx():
            if s.label == "branch_c":
                assert abs(s.D) < 1e-9
            else:
                assert abs(s.D) > 0.5

    def test_parabolic_branch_approximates_half_one_minus_t_squared(self):
        sols = {s.label: s for s in solver.solve_3approx() if s.label == "parabolic"}
        series = basis.HermiteSeries("H", sols["parabolic"].coefficients())
        ts = np.linspace(-1, 1, 21)
        assert series(ts) == pytest.approx(0.5 * (1 - ts**2), abs=1e-12)

    def test_squared_mixed_branch_reproduces_taylor_line(self):
        # squaring the degree-3 polynomial approximant reproduces the
        # coefficients (a0, a1, a2/2, a3/6) through order t^3
        plus = [s for s in solver.solve_3approx() if s.label == "branch_c" and s.a1 > 0][0]
        S = truncation_sums(plus.coefficients())
        squared = np.polynomial.polynomial.polymul(S, S)
        taylor_line = [plus.a0, plus.a1, plus.a2 / 2.0, plus.a3 / 6.0]
        assert squared[:4] == pytest.approx(taylor_line, abs=1e-12)
        # and both match the printed four digits 0.7873, 0.6984, -0.2000, 0.2032
        assert squared[:4] == pytest.approx([0.7873, 0.6984, -0.2, 0.2032], abs=1e-4)


class TestPowerInterpolant:
    def test_cube_root_profile_resolved_below_grid(self):
        nodes = np.linspace(-10, 10, 801)
        values = np.cbrt(nodes)
        phi = solver.power_interpolant(nodes, values, 3)
        for t in (1e-3, 3e-3, 0.011, 0.5):
            assert phi(t) == pytest.approx(t ** (1 / 3), rel=1e-6)

    def test_even_power_uses_template(self):
        nodes = np.linspace(-10, 10, 401)
        values = np.abs(nodes) ** 0.5 * np.sign(nodes)
        phi = solver.power_interpolant(nodes, values, 2, sign_template=lambda t: np.where(np.asarray(t) >= 0, 1.0, -1.0))
        assert phi(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-8)
        assert phi(-2.0) == pytest.approx(-math.sqrt(2.0), rel=1e-8)

    def test_even_power_defaults_to_the_sign_of_t(self):
        # without a template, even p takes fixed_point_iterate's default sgn(t)
        x = np.linspace(-1, 1, 41)
        phi = solver.power_interpolant(x, np.abs(x), 2)
        assert phi(0.3) == pytest.approx(0.3, rel=1e-12)
        assert phi(-0.3) == pytest.approx(-0.3, rel=1e-12)

    def test_even_power_is_entire_across_a_jump(self):
        # section 7: an even-p phi may jump where |phi|^p stays entire; here
        # |phi|^2 = 2 and phi jumps at 0, the template's sign change
        nodes = np.linspace(-10, 10, 801)
        step = np.where(nodes >= 0, 1.0, -1.0) * math.sqrt(2.0)
        phi = solver.power_interpolant(nodes, step, 2)
        mid = 0.5 * (nodes[1:] + nodes[:-1])
        np.testing.assert_allclose(phi(mid), np.where(mid >= 0, 1.0, -1.0) * math.sqrt(2.0), rtol=0, atol=1e-15)
        kphi = solver.apply_K_panels(phi, nodes, [0.0])
        np.testing.assert_allclose(kphi, math.sqrt(2.0) * erf(nodes), rtol=0, atol=1e-14)

    def test_constant_extension(self):
        nodes = np.linspace(-5, 5, 101)
        phi = solver.power_interpolant(nodes, np.tanh(nodes), 3)
        assert phi(9.0) == pytest.approx(math.tanh(5.0), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 1000), lo=st.integers(-2**20, 2**20), step=st.integers(1, 2**12), seed=st.integers(0, 2**32))
    @example(n=8, lo=5, step=3, seed=2)  # one centred piece
    @example(n=9, lo=0, step=256, seed=0)  # two stencils
    def test_each_piece_is_the_polynomial_through_its_stencil(self, n, lo, step, seed):
        # dyadic lo and step make every node lo + i h exact, so both sides
        # interpolate the same data on the same nodes
        from scipy.interpolate import BarycentricInterpolator

        rng = np.random.default_rng(seed)
        lo, h = lo / 1024, step / 256
        nodes = lo + h * np.arange(n)
        values = rng.uniform(-1e3, 1e3, n)
        t = lo + (nodes[-1] - lo) * rng.uniform(-0.25, 1.25, 40)
        powers = values * np.abs(values) ** 2
        # p = 1 returns the interpolant itself; p = 3 its real cube root
        got = solver.power_interpolant(nodes, powers, 1)(t)
        assert np.array_equal(solver.power_interpolant(nodes, values, 3)(t), np.sign(got) * np.abs(got) ** (1 / 3))
        # the piece of [x_i, x_i+1] interpolates the 8 nodes from x_i-3 on, moved inside the grid
        x = np.clip(t, lo, nodes[-1])
        piece = np.clip(np.searchsorted(nodes, x, "right") - 1, 0, n - 2)
        for xk, i, gk in zip(x, piece, got):
            stencil = slice(min(max(i - 3, 0), n - 8), None)
            near = powers[stencil][:8]
            reference = BarycentricInterpolator(nodes[stencil][:8], near)(xk)
            assert abs(gk - reference) <= 1e-12 * np.max(np.abs(near))
        # so a polynomial of degree up to 7 comes back to rounding; in u = (t - lo) / (hi - lo)
        # in [0, 1], the offset from lo rounds once, where a far domain's own mapping would lose digits
        coef = rng.uniform(-1.0, 1.0, rng.integers(1, 9))
        q = lambda s: np.polynomial.polynomial.polyval((s - lo) / (nodes[-1] - lo), coef)
        assert np.max(np.abs(solver.power_interpolant(nodes, q(nodes), 1)(x) - q(x))) <= 1e-13 * np.sum(np.abs(coef))

    def test_stencil_maps_are_the_lagrange_coefficients_rounded_once(self):
        maps = solver._STENCIL_MAPS
        assert maps.shape == (7, 8, 8)
        for k in range(7):
            ys = range(-k, 8 - k)
            for j, yj in enumerate(ys):
                coeffs = [Fraction(1)]  # of y^0, y^1, ..: times (y - yl) / (yj - yl) for each other node
                for yl in ys:
                    if yl != yj:
                        coeffs = [(a - yl * b) / (yj - yl) for a, b in zip([0] + coeffs, coeffs + [0])]
                assert maps[k, :, j].tolist() == [float(c) for c in coeffs]

    @pytest.mark.parametrize("nodes", [np.linspace(-10, 10, 801), np.arange(-2.0, 2.025, 0.05),
                                       np.linspace(0.1, 7.3, 999), np.linspace(-1.0, 2.0, 8)])
    def test_node_values_are_the_node_powers(self, nodes):
        values = np.sin(3.0 * nodes) + 0.1 * nodes
        phi = solver.power_interpolant(nodes, values, 1)
        assert np.array_equal(phi(nodes), values)
        assert phi(nodes[0] - 1.0) == values[0] and phi(nodes[-1] + 1.0) == values[-1]

    @pytest.mark.parametrize("nodes, message", [
        ([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], "evenly spaced"),
        (np.linspace(1.0, -1.0, 9), "evenly spaced"),
        (np.linspace(-1.0, 1.0, 401) + 1e-9 * (np.arange(401) % 2), "evenly spaced"),
        (np.arange(7.0), "at least 8 nodes"),
        (np.arange(4.0), "at least 8 nodes"),
        ([0.0], "at least 8 nodes"),
    ])
    def test_rejects_uneven_or_too_few_nodes(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            solver.power_interpolant(nodes, np.ones(len(nodes)), 3)

    @pytest.mark.parametrize("values", [[0.0, 1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0],
                                        [0.0, 1.0, 2.0, 1e200, 4.0, 5.0, 6.0, 7.0], [0.0, 1.0, 2.0]])
    def test_rejects_values_without_a_finite_power_per_node(self, values):
        with pytest.raises(ValueError, match="one value per node"), np.errstate(over="ignore"):
            solver.power_interpolant(np.arange(8.0), values, 3)


class TestStencilMap:
    @staticmethod
    def stencil_scale(nodes, psi, t):
        """max |psi| over the 8 nodes of each point's stencil, located apart from the package."""
        x = np.clip(t, nodes[0], nodes[-1])
        piece = np.clip(np.searchsorted(nodes, x, "right") - 1, 0, nodes.size - 2)
        start = np.clip(piece - 3, 0, nodes.size - 8)
        return np.max(np.abs(psi[start[:, None] + np.arange(8)]), axis=1)

    @pytest.mark.parametrize("p", range(2, 8))
    @pytest.mark.parametrize("breaks", [[0.0], [0.3137]])
    def test_agrees_with_the_evaluator_at_the_kernels_nodes(self, p, breaks):
        # the map and the evaluator share one locator; they sum the same polynomial in another
        # order, so they agree to a few ulp of the stencil's powers, also past the grid's ends
        ts = np.linspace(-10.0, 10.0, 801)
        tau = np.concatenate([solver._PanelKernel(ts, breaks).tau, [-30.0, -10.0, 10.0, 25.0]])
        assert tau.min() < ts[0] and tau.max() > ts[-1]
        to_tau = solver._stencil_map(ts, tau)
        kink = np.cbrt(erf(1.3 * (ts - breaks[0])))
        jump = np.where(ts >= 0.1, 1.0, -1.0) * math.sqrt(2.0) * (1.0 + 0.1 * np.cos(ts))  # even p: |phi|^p is smooth
        for vals in (kink, jump):
            psi = solver._equation_power(vals, p)
            mapped = to_tau(psi)
            # p = 1: the evaluator's own power, as its root is then the identity
            evaluated = solver.power_interpolant(ts, psi, 1)(tau)
            assert np.all(np.abs(mapped - evaluated) <= 4 * np.spacing(self.stencil_scale(ts, psi, tau)))
            outside = (tau < ts[0]) | (tau > ts[-1])
            np.testing.assert_array_equal(mapped[outside], np.where(tau[outside] < 0, psi[0], psi[-1]))
            np.testing.assert_array_equal(solver._equation_root(evaluated, p, tau),
                                          solver.power_interpolant(ts, vals, p)(tau))

    def test_node_points_take_the_node_powers(self):
        ts = np.linspace(-2.0, 3.0, 101)
        psi = np.sin(3.0 * ts) + 0.1 * ts
        assert np.array_equal(solver._stencil_map(ts, ts)(psi), psi)

    def test_a_centred_solve_builds_one_interpolant(self, monkeypatch):
        # the zero of a centred kink is the node 0, so no step has a bracket to bisect:
        # the one interpolant is the returned evaluator, and each kernel gets one map
        built, maps = [], []
        original, original_map = solver.power_interpolant, solver._stencil_map
        monkeypatch.setattr(solver, "power_interpolant", lambda *args: built.append(args) or original(*args))
        monkeypatch.setattr(solver, "_stencil_map", lambda *args: maps.append(args) or original_map(*args))
        result = solver.fixed_point_iterate(solver.SolverConfig(3), erf)
        assert result.converged and result.iterations > 2
        assert len(built) == 1
        assert len(maps) == sum(entry["kernel_built"] for entry in result.trace)
        # an off-centre zero is bisected on every step after the seed's, whose interpolant then gives
        # the kernel's node values, so no map is built; the last interpolant serves the result
        built.clear(), maps.clear()
        result = solver.fixed_point_iterate(solver.SolverConfig(3), lambda t: erf(1.3 * (np.asarray(t) - 1.2345)))
        assert result.converged and len(built) == result.iterations - 1
        assert maps == []


class TestFixedPoint:
    def test_exact_solution_is_fixed_in_one_step(self):
        for p, template in ((2, const_one), (3, None)):
            phi, _ = solver.exact_gaussian_solution(p)
            cfg = solver.SolverConfig(p=p, max_iter=1, grid_halfwidth=12.0, grid_step=0.05, tol=1e-12)
            result = solver.fixed_point_iterate(cfg, phi, sign_template=template)
            sel = np.abs(result.grid.nodes) <= 2.0
            drift = np.max(np.abs(result.grid.values[sel] - phi(result.grid.nodes[sel])))
            assert drift < 1e-9

    def test_constant_start_stays_constant(self):
        cfg = solver.SolverConfig(p=3)
        result = solver.fixed_point_iterate(cfg, const_one)
        assert result.converged
        assert np.max(np.abs(result.grid.values - 1.0)) < 1e-12

    def test_converged_even_run_returns_the_measured_iterate(self):
        # phi = 1 solves K phi = phi^2 exactly; the step it would take maps
        # it to sgn(t) through the default template, so that step is declined
        result = solver.fixed_point_iterate(solver.SolverConfig(p=2), const_one)
        assert result.converged
        assert np.all(result.grid.values == 1.0)
        assert solver.residual(result.phi, 2, ts=result.grid.nodes) < 1e-12

    def test_returned_iterate_has_the_traced_residual(self):
        r = centred_kink(3)
        own = solver.residual(r.phi, 3, ts=r.grid.nodes, breaks=[0.0])
        assert own == pytest.approx(r.trace[-1]["residual"], abs=1e-14)

    def test_odd_p3_solution(self, solved_p3):
        assert solved_p3.converged
        assert solved_p3.trace[-1]["change"] < 1e-8
        values = solved_p3.grid.values
        assert np.max(np.abs(values)) < 1.0
        ts = np.linspace(0.01, 9.0, 400)
        assert np.max(np.abs(solved_p3.phi(ts) + solved_p3.phi(-ts))) < 1e-6

    def test_even_p_infeasibility_reported(self):
        # a candidate whose smoothing goes negative cannot satisfy an even
        # power equation; the run reports instead of raising
        wiggle = lambda t: np.sin(np.asarray(t, dtype=float))
        cfg = solver.SolverConfig(p=2, max_iter=10)
        result = solver.fixed_point_iterate(cfg, wiggle)
        assert result.status == "infeasible"

    def test_even_p_residual_uses_the_equations_power(self, rule96):
        # phi^p is |phi|^p for even p, also where the sign template is -1
        result = solver.fixed_point_iterate(solver.SolverConfig(p=2, max_iter=1), erf)
        ts = result.grid.nodes
        expected = np.max(np.abs(gaussop.apply_K_point(erf, ts, rule96) - erf(ts) ** 2))
        assert result.trace[0]["residual"] == pytest.approx(expected, abs=1e-12)
        assert solver.residual(erf, 2, ts=ts, breaks=[0.0]) == pytest.approx(expected, abs=1e-12)

    def test_sign_seed_is_smoothed_exactly(self):
        # a non-smooth callable seed goes through the panel kernel graded at
        # its jump: K sgn = erf, so the first iterate is cbrt(erf)
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3, max_iter=1), np.sign)
        ts = result.grid.nodes
        assert result.trace[0]["residual"] == pytest.approx(np.max(np.abs(erf(ts) - np.sign(ts))), abs=1e-12)
        assert np.max(np.abs(result.grid.values - np.cbrt(erf(ts)))) < 1e-12

    def test_growing_changes_end_diverged(self, monkeypatch):
        # a kernel whose every step doubles phi: the change of phi then grows
        # strictly, and 20 such changes in a row stop the run
        class Doubling:
            def __init__(self, ts, breaks=(), halfwidth=12.0):
                self.tau, self.breaks = ts, list(breaks)  # its nodes are the rows

            def __call__(self, fv):
                A = (2.0 * np.broadcast_to(fv, self.tau.shape)) ** 3
                return A, np.abs(A)

        monkeypatch.setattr(solver, "_PanelKernel", Doubling)
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3), erf)
        assert (result.status, result.iterations) == ("diverged", 20)
        changes = [entry["change"] for entry in result.trace]
        assert changes == sorted(changes) and changes[-1] / changes[0] == pytest.approx(2.0**19, rel=1e-9)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            solver.fixed_point_iterate(solver.SolverConfig(p=1), const_one)

    def test_trace_is_json_friendly(self, solved_p3):
        entry = solved_p3.trace[0]
        assert set(entry) == {"iteration", "change", "residual", "depth", "kernel_built"}

    def test_nonfinite_grid_seed_reports_node(self):
        nodes = np.linspace(-10.0, 10.0, 401)
        values = np.tanh(nodes)
        values[250] = np.nan
        with pytest.raises(gaussop.EvaluationError) as err:
            solver.fixed_point_iterate(solver.SolverConfig(p=3), basis.GridFunction(nodes, values))
        assert err.value.node == nodes[250]

    def test_nonfinite_callable_seed_reports_node(self):
        seed = lambda t: np.where(np.asarray(t) == 0, np.nan, np.tanh(t))
        with pytest.raises(gaussop.EvaluationError) as err:
            solver.fixed_point_iterate(solver.SolverConfig(p=3), seed)
        assert err.value.node == 0.0

    def test_grid_function_seed_matches_the_callable_seed(self):
        # a GridFunction is a callable seed: its linear interpolant is the first iterate
        nodes = np.linspace(-10.0, 10.0, 401)
        cfg = solver.SolverConfig(p=3, grid_step=0.025)
        sampled = solver.fixed_point_iterate(cfg, basis.GridFunction(nodes, erf(nodes)))
        smooth = centred_kink(3)
        assert sampled.status == "converged"
        assert sampled.iterations == smooth.iterations
        np.testing.assert_allclose(sampled.grid.values**3, smooth.grid.values**3, rtol=0, atol=1e-12)


class TestZeroLocator:
    def test_sine_zeros_to_rounding(self):
        zeros = solver.detect_sign_changes(np.sin, -6.0, 6.0)
        np.testing.assert_allclose(zeros, [-math.pi, 0.0, math.pi], rtol=0, atol=1e-14)

    def test_exact_node_zero_reported_once(self):
        # 0 is a scan node; the cube has no strict sign change beside it
        zeros = solver.detect_sign_changes(lambda t: np.asarray(t, dtype=float) ** 3, -1.0, 1.0, 21)
        assert zeros == [0.0]

    def test_jump_located_at_the_discontinuity(self):
        step = lambda t: np.where(np.asarray(t, dtype=float) < 0.3, -1.0, 2.0)
        [jump] = solver.detect_sign_changes(step, -1.0, 1.0, 21)
        assert jump == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.7, 1.2345, -1.8866])
    def test_solver_breaks_are_the_locators(self, s, monkeypatch):
        # the solver refines the sign brackets of its grid values as the locator does its scan's
        seen = []
        refine = solver._refined_sign_changes
        monkeypatch.setattr(solver, "_refined_sign_changes", lambda *args: seen.append(refine(*args)) or seen[-1])
        result = solver.fixed_point_iterate(
            solver.SolverConfig(p=3, grid_step=0.025), lambda t: erf(1.3 * (np.asarray(t, dtype=float) - s))
        )
        assert result.converged
        assert seen[-1] == solver.detect_sign_changes(result.phi)
        assert abs(seen[-1][0] - s) < 1e-8

    @pytest.mark.parametrize("f, t0, s", [
        (np.cbrt, 0.0, 2.0 ** -np.arange(6, 18)),
        (lambda t: np.cbrt(t) * np.exp(-t * t), 0.0, bvp._FIT_S),
        (lambda t: t, 0.0, bvp._FIT_S),
        (lambda t: np.cbrt(t - 0.7) * np.exp(-(t - 0.7) ** 2), 0.7, bvp._FIT_S),
        (lambda t: t**4, 0.0, 0.025 * 2.0 ** np.arange(1, 5)),
        (lambda t: (t - 0.3) ** 3, 0.3, 0.05 * 2.0 ** np.arange(1, 4)),
    ])
    def test_zero_exponent_is_the_least_squares_slope(self, f, t0, s):
        # the closed-form slope of the log-log line, against numpy's polyfit of the same points
        want = np.polyfit(np.log(s), np.log(np.abs(f(t0 + s))), 1)[0]
        assert abs(solver._zero_exponent(f, t0, s) - want) <= 1e-13

    def test_bisect_refines_every_bracket_together(self):
        roots = solver._bisect(np.cos, np.array([1.0, 4.0, 7.0]), np.array([2.0, 5.0, 8.0]))
        np.testing.assert_allclose(roots, [0.5, 1.5, 2.5] * np.array(math.pi), rtol=0, atol=1e-14)


@functools.cache
def centred_kink(p: int) -> solver.IterationResult:
    return solver.fixed_point_iterate(solver.SolverConfig(p, grid_step=0.025), erf)


def plain_map(p: int) -> tuple[list, np.ndarray]:
    """phi <- root(K phi) from erf on the step-0.025 grid, written out: the unmixed reference.

    It takes the solver's kernel, snap and stopping rule; the centred kink
    keeps its one break at the node 0, so one kernel serves every step.
    """
    ts = np.linspace(-10.0, 10.0, 801)
    kernel = solver._PanelKernel(ts, [0.0])
    vals, evaluate, trace = erf(ts), erf, []
    while True:
        A, scale = kernel(evaluate(kernel.tau))
        A = np.where(np.abs(A) < 64 * np.finfo(float).eps * scale, 0.0, A)
        res = float(np.max(np.abs(A - vals * np.abs(vals) ** (p - 1))))
        root = np.sign(A) * np.abs(A) ** (1.0 / p)
        trace.append({"iteration": len(trace), "change": float(np.max(np.abs(root - vals))), "residual": res,
                      "depth": 0, "kernel_built": not trace})
        if res < 1e-10:
            return trace, vals
        vals = root
        evaluate = solver.power_interpolant(ts, vals, p)


def secant_map(p: int) -> tuple[list, np.ndarray]:
    """The preconditioned secant iteration from erf on the step-0.025 grid, written out.

    As plain_map, with the mixed step: g = phi^p + P f with P f the
    preconditioned residual, psi <- g - gamma dg with gamma = (dPf . P f) /
    (dPf . dPf) from the differences to the last step, which a residual
    that fails to fall clears.  After the seed, K applies to the root of the
    powers mapped onto the kernel's nodes by the interpolant's stencils.
    """
    ts = np.linspace(-10.0, 10.0, 801)
    kernel = solver._PanelKernel(ts, [0.0])
    to_tau = solver._stencil_map(ts, kernel.tau)
    precondition = solver._preconditioner(p, 0.025, ts.size)
    vals, trace, previous = erf(ts), [], None
    at_tau = erf(kernel.tau)
    while True:
        A, scale = kernel(at_tau)
        power = vals * np.abs(vals) ** (p - 1)
        res = float(np.max(np.abs(A - power)))
        if trace and res >= trace[-1]["residual"]:
            previous = None
        pf = precondition(A - power)
        psi, depth = A, 0
        if previous is not None:
            dg, dpf = power + pf - previous[0], pf - previous[1]
            psi, depth = power + pf - (dpf @ pf) / (dpf @ dpf) * dg, 1
        previous = (power + pf, pf)
        psi = np.where(np.abs(psi) < 64 * np.finfo(float).eps * scale, 0.0, psi)
        root = np.sign(psi) * np.abs(psi) ** (1.0 / p)
        trace.append({"iteration": len(trace), "change": float(np.max(np.abs(root - vals))), "residual": res,
                      "depth": depth, "kernel_built": not trace})
        if res < 1e-10:
            return trace, vals
        vals = root
        mapped = to_tau(vals * np.abs(vals) ** (p - 1))
        at_tau = np.sign(mapped) * np.abs(mapped) ** (1.0 / p)


class TestAndersonMixing:
    @pytest.mark.parametrize("p, bound", [(3, 13), (5, 11)])
    def test_centred_kink_takes_few_steps(self, p, bound):
        # the plain map takes 20 (p = 3) and 15 (p = 5) steps here
        result = centred_kink(p)
        assert result.converged and result.iterations <= bound

    @pytest.mark.parametrize("p", [3, 5])
    def test_mixing_is_the_written_out_secant(self, p):
        trace, vals = secant_map(p)
        result = centred_kink(p)
        assert result.trace == trace
        np.testing.assert_array_equal(result.grid.values, vals)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("a", [0.6, 1.3, 2.0])
    def test_preconditioned_mixing_takes_at_most_nine_steps(self, a, p):
        # mixing the plain map took 10-13 steps on these seeds
        result = solver.fixed_point_iterate(
            solver.SolverConfig(p, grid_step=0.025), lambda t: erf(a * np.asarray(t, dtype=float))
        )
        assert result.converged and result.iterations <= 9

    def test_trace_states_each_steps_depth(self):
        depths = [entry["depth"] for entry in centred_kink(3).trace]
        assert depths == [0] + [1] * (len(depths) - 1)

    def test_restart_takes_a_plain_step(self):
        # from 1/2 + erf/2 with template +1 the residual of p = 4 grows for
        # the first steps; each growth forgets the last step, so that step is plain
        result = solver.fixed_point_iterate(
            solver.SolverConfig(4), lambda t: 0.5 + 0.5 * erf(t), sign_template=const_one
        )
        residuals = [entry["residual"] for entry in result.trace]
        depths = [entry["depth"] for entry in result.trace]
        assert result.converged
        assert depths == [0] + [int(now < before) for before, now in zip(residuals, residuals[1:])]
        assert 0 in depths[1:] and 1 in depths

    @pytest.mark.parametrize("p", [3, 5])
    def test_mixing_lands_on_the_plain_map_solution(self, p):
        _, vals = plain_map(p)
        mixed = centred_kink(p).grid.values
        assert np.max(np.abs(mixed * np.abs(mixed) ** (p - 1) - vals * np.abs(vals) ** (p - 1))) < 1e-9


class TestPreconditioner:
    # K cos(xi t) = e^{-xi^2/4} cos(xi t), so P = (I - K/p)^{-1} divides the plane wave by 1 - e^{-xi^2/4}/p
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("xi", [0.5, 2.0, 6.0])
    def test_plane_waves_take_the_spectral_multiplier(self, p, xi):
        lam = 2.0 * math.sqrt(math.log(p))  # P's kernel decays like e^{-lam |t|}
        for halfwidth in (10.0, 25.0):
            ts = np.linspace(-halfwidth, halfwidth, int(round(80 * halfwidth)) + 1)
            sel = np.abs(ts) <= 5.0
            got = solver._preconditioner(p, 0.025, ts.size)(np.cos(xi * ts))[sel]
            err = np.abs(got - np.cos(xi * ts[sel]) / (1.0 - math.exp(-xi * xi / 4.0) / p))
            if halfwidth == 10.0:
                # the 801-node grid: the wave stops at |t| = 10, and P reaches past it by its kernel's tail
                assert np.all(err <= np.exp(-lam * (halfwidth - np.abs(ts[sel]))))
            else:
                assert err.max() < 1e-10

    @pytest.mark.parametrize("step", [0.0125, 0.025, 0.05, 0.25])
    def test_wrap_around_bound_holds_at_each_step(self, step):
        p, xi = 3, 2.0
        lam = 2.0 * math.sqrt(math.log(p))
        ts = np.linspace(-10.0, 10.0, 2 * round(10.0 / step) + 1)
        sel = np.abs(ts) <= 5.0
        got = solver._preconditioner(p, step, ts.size)(np.cos(xi * ts))[sel]
        err = np.abs(got - np.cos(xi * ts[sel]) / (1.0 - math.exp(-xi * xi / 4.0) / p))
        assert np.all(err <= np.exp(-lam * (10.0 - np.abs(ts[sel]))))


class TestTranslationCovariance:
    # K commutes with shifts, so erf(a (t - s)) must converge to the centred
    # kink moved by s, with its zero located at s
    @settings(max_examples=6, deadline=None)
    @given(s=st.floats(-2.0, 2.0), a=st.floats(0.6, 2.0), p=st.sampled_from([3, 5]))
    @example(s=0.3, a=1.3, p=3)  # the zero falls on a grid node
    @example(s=1.2345, a=1.3, p=3)
    # zeros whose break sides swallow a plain edge of the solve kernel (0 or -1)
    @example(s=0.0625, a=1.0, p=3)
    @example(s=0.0625, a=1.0, p=5)
    @example(s=0.0135, a=1.3, p=3)
    @example(s=0.0135, a=1.3, p=5)
    @example(s=0.003, a=1.3, p=3)
    @example(s=0.003, a=1.3, p=5)
    @example(s=-0.9997, a=1.0, p=3)
    @example(s=-0.9997, a=1.0, p=5)
    def test_off_centre_seed_converges_to_the_shifted_kink(self, s, a, p):
        result = solver.fixed_point_iterate(
            solver.SolverConfig(p, grid_step=0.025), lambda t: erf(a * (np.asarray(t, dtype=float) - s))
        )
        assert result.converged
        [t0] = solver.detect_sign_changes(result.phi)
        assert abs(t0 - s) < 1e-8
        centred = centred_kink(p)
        ts = np.linspace(-6.0, 6.0, 1201)
        assert np.max(np.abs(result.phi(ts) ** p - centred.phi(ts - s) ** p)) < 1e-8
        assert solver.residual(result.phi, p, ts=result.grid.nodes) < 1e-6
        local = bvp.local_zero_analysis(result.grid, (p - 1) // 2)
        assert abs(local.fitted_exponent - 1.0 / p) < 0.05 / p
        assert local.a1 > 0
        assert local.a1 == pytest.approx(bvp.local_zero_analysis(centred.grid, (p - 1) // 2).a1, abs=1e-8)

    @pytest.mark.parametrize("s", [-0.8011524378504609, 0.75, -1.8656576987781426, 0.16584488099636685])
    def test_mixing_keeps_an_off_centre_zero_in_place(self, s):
        # the translation mode leaves the residual flat, and the least squares
        # of the mixing fits every direction; the zero still stays put
        result = solver.fixed_point_iterate(
            solver.SolverConfig(5, grid_step=0.025), lambda t: erf(0.75 * (np.asarray(t, dtype=float) - s))
        )
        assert result.converged
        [t0] = solver.detect_sign_changes(result.phi)
        assert abs(t0 - s) < 1e-9

    @pytest.mark.parametrize("s", [0.7, 0.3, -1.8866])
    def test_coarse_step_keeps_the_zero_and_its_kernel(self, s):
        # the h^4 error of a cubic spline of phi^p let these zeros drift at step 0.05:
        # 500 iterations to max_iter, with a kernel built on 499 of them
        result = solver.fixed_point_iterate(
            solver.SolverConfig(3, grid_step=0.05), lambda t: erf(1.3 * (np.asarray(t, dtype=float) - s))
        )
        assert result.converged
        [t0] = solver.detect_sign_changes(result.phi)
        assert abs(t0 - s) < 1e-8
        assert sum(entry["kernel_built"] for entry in result.trace) == 1

    @pytest.mark.parametrize("step", [0.05, 0.025])
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("s", [0.7, 0.3, -1.8866, 1.2345])
    def test_off_centre_seed_reaches_a_tenfold_tighter_tol(self, s, p, step):
        # an off-centre grid residual floored at 1.2e-11 to 5e-11 with the cubic spline
        result = solver.fixed_point_iterate(
            solver.SolverConfig(p, tol=1e-11, max_iter=60, grid_step=step),
            lambda t: erf(1.3 * (np.asarray(t, dtype=float) - s)),
        )
        assert result.converged


class TestKernelReuse:
    @staticmethod
    def count_panel_rules(monkeypatch) -> list:
        calls = []
        original = solver.panel_rule

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "panel_rule", counted)
        return calls

    def test_one_kernel_for_the_erf_kink_solve(self, monkeypatch):
        # the seed and every later iterate share the break set [0.0], so a
        # single panel kernel serves the whole run, the seed step included
        calls = self.count_panel_rules(monkeypatch)
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3), erf)
        assert result.converged and result.iterations > 2
        assert len(calls) == 1

    def test_kernel_rebuilt_only_when_breaks_change(self, monkeypatch):
        calls = self.count_panel_rules(monkeypatch)
        schedule = iter([[0.0], [0.0], [0.1], [0.1], [0.0]])
        monkeypatch.setattr(solver, "_refined_sign_changes", lambda *args, **kwargs: next(schedule))
        nodes = np.linspace(-10.0, 10.0, 401)
        seed = basis.GridFunction(nodes, np.tanh(nodes))
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3, max_iter=5), seed)
        assert result.iterations == 5
        assert len(calls) == 3

    def test_kernel_kept_while_breaks_agree_within_tolerance(self, monkeypatch):
        calls = self.count_panel_rules(monkeypatch)
        schedule = iter([[0.0], [5e-11], [-5e-11], [2e-10], [2e-10]])
        monkeypatch.setattr(solver, "_refined_sign_changes", lambda *args, **kwargs: next(schedule))
        nodes = np.linspace(-10.0, 10.0, 401)
        seed = basis.GridFunction(nodes, np.tanh(nodes))
        solver.fixed_point_iterate(solver.SolverConfig(p=3, max_iter=5), seed)
        assert len(calls) == 2

    def test_solve_and_grid_check_share_one_kernel(self, monkeypatch):
        calls = self.count_panel_rules(monkeypatch)
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3), erf)
        ts = result.grid.nodes
        own = solver.residual(result.phi, 3, ts=ts, breaks=[0.0])
        assert len(calls) == 1
        assert own == pytest.approx(result.trace[-1]["residual"], abs=1e-14)
        # the kernel belongs to that result: another evaluator, the same
        # function or not, and a later run build their own
        solver.residual(lambda t: result.phi(t), 3, ts=ts, breaks=[0.0])
        assert len(calls) == 2
        solver.fixed_point_iterate(solver.SolverConfig(p=3), erf)
        assert len(calls) == 3

    def test_no_kernel_kept_under_a_seed_the_run_returns(self, monkeypatch):
        # the seed outlives the run, so its kernel must not stay with it
        calls = self.count_panel_rules(monkeypatch)
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3), const_one)
        assert result.phi is const_one
        assert not hasattr(const_one, "_panel_kernel")
        solver.residual(const_one, 3, ts=result.grid.nodes, breaks=[])
        assert len(calls) == 2

    def test_grid_changed_in_place_gets_a_fresh_kernel(self, monkeypatch):
        # the kernel keeps its own copy of the rows, so moving the result's
        # grid in place no longer fits the run's kernel
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3), erf)
        nodes = result.grid.nodes
        nodes += 0.0125
        calls = self.count_panel_rules(monkeypatch)
        got = solver.apply_K_panels(result.phi, nodes, [0.0])
        assert len(calls) == 1
        kernel = solver._PanelKernel(nodes, [0.0])
        np.testing.assert_array_equal(got, kernel(result.phi(kernel.tau))[0])

    def test_shared_kernel_needs_the_same_rows_breaks_and_window(self, monkeypatch):
        calls = self.count_panel_rules(monkeypatch)
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3), erf)
        ts = result.grid.nodes
        solver.apply_K_panels(result.phi, ts, [5e-11])  # within _BREAK_TOL: shared
        assert len(calls) == 1
        for args in ((ts, [0.1]), (ts, [0.0], 18.0), (ts[1:], [0.0]), (ts, [])):
            solver.apply_K_panels(result.phi, *args)
        assert len(calls) == 5

    def test_trace_marks_each_kernel_build(self, monkeypatch):
        # a seed that is no solution up to a shift: its zero moves past _BREAK_TOL on the first steps
        calls = self.count_panel_rules(monkeypatch)
        result = solver.fixed_point_iterate(
            solver.SolverConfig(p=3, grid_step=0.025), lambda t: erf(1.3 * np.asarray(t, dtype=float)) + 0.2
        )
        built = [entry["kernel_built"] for entry in result.trace]
        assert result.converged and built[0] and sum(built) == len(calls) > 1

    @pytest.mark.parametrize("p, s", [(3, 0.0), (5, 0.0), (3, 1.2345)])
    def test_result_carries_its_last_product(self, p, s):
        result = solver.fixed_point_iterate(solver.SolverConfig(p), lambda t: erf(1.3 * (np.asarray(t) - s)))
        kphi, scale = result.phi._panel_product
        ts, breaks = result.grid.nodes, result.phi._panel_kernel.breaks
        fresh = solver._PanelKernel(ts, breaks)
        assert np.all(np.abs(kphi - fresh(result.phi(fresh.tau))[0]) <= 1e-15 * scale)
        assert solver.residual(result.phi, p, ts=ts, breaks=breaks) == result.trace[-1]["residual"]
        got = solver.apply_K_panels(result.phi, ts, breaks)
        np.testing.assert_array_equal(got, kphi)
        got[:] = 0.0  # a copy: the caller's array is its own
        assert np.all(result.phi._panel_product[0] == kphi) and np.any(kphi != 0.0)

    def test_a_run_that_stops_after_a_step_carries_no_product(self):
        # max_iter stops after a step, whose new iterate K has not been applied to
        result = solver.fixed_point_iterate(solver.SolverConfig(3, max_iter=2), erf)
        assert result.status == "max_iter"
        assert hasattr(result.phi, "_panel_kernel") and not hasattr(result.phi, "_panel_product")
        ts = result.grid.nodes
        kernel = solver._PanelKernel(ts, [0.0])
        np.testing.assert_array_equal(solver.apply_K_panels(result.phi, ts, [0.0]), kernel(result.phi(kernel.tau))[0])

    def test_the_kernel_dies_with_the_result(self):
        # the product lives on the evaluator, so no cycle keeps the kernel's band alive
        gc.disable()
        try:
            result = solver.fixed_point_iterate(solver.SolverConfig(3), erf)
            kernel = weakref.ref(result.phi._panel_kernel)
            assert kernel() is not None
            del result
            assert kernel() is None
        finally:
            gc.enable()

    def test_apply_K_panels_signature_is_stable(self):
        # the per-layer benchmark tracer binds these arguments by name
        params = inspect.signature(solver.apply_K_panels).parameters
        assert list(params) == ["f", "ts", "breaks", "halfwidth"]
        assert params["breaks"].default == ()
        assert params["halfwidth"].default == 12.0


def dense_K(f, ts, breaks, halfwidth=12.0):
    """K f with the full kernel exp(-(t - tau)^2) over the whole panel window."""
    tau, w = solver.panel_rule(ts.min() - halfwidth, ts.max() + halfwidth, breaks)
    return np.exp(-((ts[:, None] - tau) ** 2)) @ (w * f(tau)) / math.sqrt(math.pi)


def pieces(lo, hi, breaks=()):
    """panel_rule split into its plain panels and the two sides of each inner break.

    The plain panels come as (left, right, nodes, weights), nodes and weights
    of shape (n, 16); the sides as a list of (break, far end, nodes, weights),
    the side below each break first.  Each side is found from where
    side_widths puts its far end, and its width read back from its weights.
    """
    t, w = solver.panel_rule(lo, hi, breaks)
    n = solver._SIDE_NODES.size
    plain = np.ones(t.size, dtype=bool)
    sides = []
    for b, (below, _) in zip(sorted({b for b in breaks if lo < b < hi}), side_widths(lo, hi, breaks)):
        i = np.searchsorted(t, b - below, "right")  # the first node of the side below b
        for part, sign in ((slice(i, i + n), -1.0), (slice(i + n, i + 2 * n), 1.0)):
            plain[part] = False
            sides.append((b, b + sign * w[part].sum(), t[part], w[part]))
    t, w = t[plain].reshape(-1, 16), w[plain].reshape(-1, 16)
    mids, halves = t.mean(axis=1), 0.5 * w.sum(axis=1)
    return (mids - halves, mids + halves, t, w), sides


def side_widths(lo, hi, breaks):
    """The widths (below, above) of each inner break's sides: 1, or less by the window end or half the gap."""
    inner = sorted({b for b in breaks if lo < b < hi})
    bounds = [lo] + [0.5 * (a + b) for a, b in zip(inner, inner[1:])] + [hi]
    return [(min(1.0, b - bounds[i]), min(1.0, bounds[i + 1] - b)) for i, b in enumerate(inner)]


def loop_panel_rule(lo, hi, breaks=()):
    """panel_rule written as loops over its pieces: the reference of its vectorised form."""
    inner = sorted({b for b in breaks if lo < b < hi})
    sides = []  # (break, far end) of each side
    for i, b in enumerate(inner):
        sides.append((b, max(b - solver._PANEL, lo if i == 0 else 0.5 * (inner[i - 1] + b))))
        sides.append((b, min(b + solver._PANEL, hi if i == len(inner) - 1 else 0.5 * (b + inner[i + 1]))))
    plain = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / solver._PANEL)) + 1))
    edges = {e for e in plain if not any(min(b, end) < e < max(b, end) for b, end in sides)}
    edges.update(x for side in sides for x in side)
    grid = sorted(edges)
    nodes, weights = [], []
    for a, c in zip(grid, grid[1:]):
        if a not in inner and c not in inner:
            mid, half = 0.5 * (a + c), 0.5 * (c - a)
            nodes.append(mid + half * solver._GL_NODES)
            weights.append(half * solver._GL_WEIGHTS)
    for b, end in sides:
        width = abs(end - b)
        nodes.append(b - width * solver._SIDE_NODES if end < b else b + width * solver._SIDE_NODES)
        weights.append(width * solver._SIDE_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


class TestPanelRule:
    WINDOWS = [(-22.0, 22.0, []), (-8.0, 8.0, [0.0]), (-3.3, 4.1, [-1.2, 0.25, 0.7]), (0.0, 0.7, [0.3]),
               (-8.0, 8.0, [0.0625, -0.9997])]

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_no_panel_is_wider_than_the_widest(self, lo, hi, breaks):
        # the plain panels and the sides, no side wider than a panel, tile the window
        (left, right, _, _), sides = pieces(lo, hi, breaks)
        assert np.all(right - left <= solver._PANEL * (1 + 1e-12))
        assert all(abs(end - b) <= solver._PANEL * (1 + 1e-12) for b, end, _, _ in sides)
        ends = sorted([*zip(left, right), *((min(b, end), max(b, end)) for b, end, _, _ in sides)])
        starts, stops = np.array(ends).T
        np.testing.assert_allclose([starts[0], stops[-1]], [lo, hi], rtol=0, atol=1e-14)
        np.testing.assert_allclose(starts[1:], stops[:-1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_weights_sum_to_the_window(self, lo, hi, breaks):
        _, w = solver.panel_rule(lo, hi, breaks)
        assert w.sum() == pytest.approx(hi - lo, rel=1e-14)

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_degree_31_is_exact_on_every_panel(self, lo, hi, breaks):
        # sum_j w_j x_j^k over a panel, x the panel mapped to [-1, 1], is (b - a)/2 int x^k
        (left, right, t, w), _ = pieces(lo, hi, breaks)
        half = 0.5 * (right - left)
        x = (t - 0.5 * (left + right)[:, None]) / half[:, None]
        k = np.arange(32)
        got = np.einsum("pj,pjk->pk", w, x[:, :, None] ** k)
        exact = half[:, None] * np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-14 * half.max(initial=0.0))

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_each_side_is_exact_up_to_degree_5_in_tau(self, lo, hi, breaks):
        # (tau - b)^d = (+-H)^d s^(5d) times the Jacobian 5 H s^4 has degree 5d + 4 <= 31 in s
        _, sides = pieces(lo, hi, breaks)
        assert len(sides) == 2 * len(breaks)
        for b, end, t, w in sides:
            x = (t - b) / (end - b)  # in (0, 1)
            width = abs(end - b)
            for d in range(6):
                assert w @ x**d == pytest.approx(width / (d + 1), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(-12.0, -1.0),
        width=st.floats(2.0, 24.0),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    )
    def test_every_inner_break_gets_both_sides(self, lo, width, fractions):
        # each side is 1 wide, or less by the window end or half the gap to the neighbouring break
        hi = lo + width
        breaks = sorted(lo + f * width for f in fractions)
        assume(all(b - a == 0 or b - a > 1e-6 for a, b in zip(breaks, breaks[1:])))
        _, sides = pieces(lo, hi, breaks)
        got = [w.sum() for _, _, _, w in sides]
        want = [h for pair in side_widths(lo, hi, breaks) for h in pair]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("b", [0.3, 0.30000000001, 0.29999999999])
    def test_a_break_near_a_plain_edge_cuts_no_sliver(self, b):
        # the plain edge 0.3 gives way to a break near it: two sides fill the window
        t, w = solver.panel_rule(-0.3, 0.9, [b])
        assert t.size == 2 * solver._SIDE_NODES.size
        _, sides = pieces(-0.3, 0.9, [b])
        np.testing.assert_allclose([end for _, end, _, _ in sides], [-0.3, 0.9], rtol=0, atol=1e-15)
        assert w.sum() == pytest.approx(1.2, rel=1e-14)

    @pytest.mark.parametrize("lo, hi, b", [
        *((-8.0, 8.0, b) for b in (0.3, 0.30000000001, 0.003, 0.0625, -0.9997, 1e-12)),  # 0 or -1 inside a side
        (-0.3, 0.9, -0.3 + 1e-12), (-0.3, 0.9, 0.9 - 1e-12), (-0.3, 0.9, -0.3 + 1.5e-8), (-0.3, 0.9, 0.9 - 1.5e-8),
    ])
    def test_no_plain_edge_survives_inside_a_side(self, lo, hi, b):
        # a plain edge inside a side gives way to it, and a side towards a near window end reaches it
        (left, right, _, _), sides = pieces(lo, hi, [b])
        [(below, above)] = side_widths(lo, hi, [b])
        assert [w.sum() for _, _, _, w in sides] == pytest.approx([below, above], rel=1e-14)
        ends = np.concatenate([left, right])
        assert not np.any((b - below + 1e-14 < ends) & (ends < b + above - 1e-14))
        _, w = solver.panel_rule(lo, hi, [b])
        assert w.sum() == pytest.approx(hi - lo, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(-25.0, 0.0),
        width=st.floats(0.01, 45.0),
        picks=st.lists(st.tuples(st.sampled_from(["any", "edge", "near"]), st.floats(-0.1, 1.1)), max_size=4),
    )
    def test_vectorised_rule_equals_the_loops(self, lo, width, picks):
        hi = lo + width
        plain = np.linspace(lo, hi, max(2, int(math.ceil(width)) + 1))
        breaks = []
        for kind, x in picks:
            b = lo + x * width
            if kind == "edge":
                b = float(plain[min(int(abs(x) * plain.size), plain.size - 1)])
            elif kind == "near" and breaks:
                b = breaks[-1] + x * 1e-7
            breaks.append(b)
        t, w = solver.panel_rule(lo, hi, breaks)
        assert np.all(np.diff(t) >= 0)
        want_t, want_w = loop_panel_rule(lo, hi, breaks)
        # the same nodes and weights; ties at a break may come in either order
        got, want = np.lexsort((w, t)), np.lexsort((want_w, want_t))
        np.testing.assert_array_equal(t[got], want_t[want])
        np.testing.assert_array_equal(w[got], want_w[want])

    @pytest.mark.parametrize("b", [-9.0, -4.0, 4.0, 30.0])
    def test_break_outside_the_window_adds_no_nodes(self, b):
        t, w = solver.panel_rule(-4.0, 4.0, [b])
        t0, w0 = solver.panel_rule(-4.0, 4.0)
        np.testing.assert_array_equal(t, t0)
        np.testing.assert_array_equal(w, w0)


KINK_ROWS = np.array([-3.0, -0.7, -0.01, 0.0, 1e-5, 0.3, 1.0, 2.5])


def kink(p: int, a: float, b: float):
    """sign(t - b) |erf(a (t - b))|^(1/p) for odd p, |erf(a (t - b))|^(2/p) for even p: a kink at b."""
    def f(t):
        e = erf(a * (np.asarray(t, dtype=float) - b))
        return np.sign(e) * np.abs(e) ** (1.0 / p) if p % 2 else np.abs(e) ** (2.0 / p)
    return f


@functools.lru_cache(maxsize=None)
def kink_reference(p: int, a: float) -> np.ndarray:
    """K of the kink at 0 on KINK_ROWS, by mpmath.quad at 30 digits; K commutes with shifts."""
    with mpmath.workdps(30):
        power = mpmath.mpf(1 if p % 2 else 2) / p

        def f(tau):
            v = abs(mpmath.erf(a * tau)) ** power
            return mpmath.sign(tau) * v if p % 2 else v

        def K(r):
            splits = sorted({mpmath.mpf(0), r})
            integral = mpmath.quad(lambda tau: f(tau) * mpmath.exp(-((r - tau) ** 2)), [-mpmath.inf, *splits, mpmath.inf])
            return float(integral / mpmath.sqrt(mpmath.pi))

        return np.array([K(mpmath.mpf(r)) for r in KINK_ROWS])


def solve_window_rows(b: float) -> np.ndarray:
    """KINK_ROWS + b, then -10 and 10: the rows span the solve grid's, so the window is [-22, 22] and
    its plain edges are the integers."""
    return np.concatenate([KINK_ROWS + b, [-10.0, 10.0]])


class TestKinkFamily:
    # the sides of a break take the kink phi = psi^(1/p) out; the last four b put
    # a plain edge (0 or -1) inside a side, where it must give way
    @pytest.mark.parametrize("b", [0.0, 0.37, 1e-12, 0.003, 0.0625, -0.9997])
    @pytest.mark.parametrize("a", [0.6, 1.3, 2.0])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7])
    def test_kink_matches_mpmath(self, p, a, b):
        got = solver.apply_K_panels(kink(p, a, b), solve_window_rows(b), [b])[:-2]
        np.testing.assert_allclose(got, kink_reference(p, a), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("a", [0.6, 1.3, 2.0])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_a_kernel_serves_a_kink_within_the_break_tolerance(self, p, a):
        # fixed_point_iterate keeps a kernel while the breaks move by at most _BREAK_TOL
        b = solver._BREAK_TOL
        got = solver.apply_K_panels(kink(p, a, b), solve_window_rows(b), [0.0])[:-2]
        np.testing.assert_allclose(got, kink_reference(p, a), rtol=0, atol=1e-12)


class TestBandedKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        ts=hnp.arrays(np.float64, st.integers(1, 60), elements=st.floats(-10.0, 10.0)),
        breaks=st.lists(st.floats(-10.0, 10.0), max_size=3),
        xi=st.floats(0.25, 3.0),
    )
    def test_plane_wave_eigenvalue(self, ts, breaks, xi):
        # K cos(xi .) = e^{-xi^2/4} cos(xi .) at unsorted samples, in input order
        got = solver.apply_K_panels(lambda t: np.cos(xi * t), ts, breaks)
        assert got.shape == ts.shape
        np.testing.assert_allclose(got, math.exp(-xi * xi / 4.0) * np.cos(xi * ts), rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        ts=hnp.arrays(np.float64, st.integers(1, 60), elements=st.floats(-10.0, 10.0)),
        breaks=st.lists(st.floats(-10.0, 10.0), max_size=3),
        xi=st.sampled_from([8.0, 10.0, 12.0]),
    )
    def test_plane_wave_to_rounding_up_to_the_spectrum_cutoff(self, ts, breaks, xi):
        # e^{-xi^2/4} falls below rounding past xi = 12; up to there the panel
        # width must leave K cos(xi .) exact to rounding (width 2 misses by 3e-13 at xi = 8)
        got = solver.apply_K_panels(lambda t: np.cos(xi * t), ts, breaks, 12.0)
        np.testing.assert_allclose(got, math.exp(-xi * xi / 4.0) * np.cos(xi * ts), rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        ts=st.one_of(
            hnp.arrays(np.float64, st.integers(1, 60), elements=st.floats(-10.0, 10.0)),
            st.builds(np.linspace, st.floats(-10.0, -0.5), st.floats(0.5, 10.0), st.integers(2, 400)),
        ),
        breaks=st.lists(st.floats(-18.0, 18.0), max_size=4),
        xi=st.floats(0.25, 3.0),
        halfwidth=st.sampled_from([6.5, 9.0, 12.0]),
    )
    @example(ts=np.linspace(-3.0, 3.0, 241), breaks=[0.2, 0.9], xi=1.0, halfwidth=12.0)  # closer than 1
    @example(ts=np.linspace(-3.0, 3.0, 241), breaks=[0.2, 0.2 + 1e-9, 0.7], xi=2.0, halfwidth=12.0)
    @example(ts=np.linspace(-2.0, 2.0, 161), breaks=[8.3], xi=1.5, halfwidth=6.5)  # 0.2 from the window end
    @example(ts=np.linspace(-2.0, 2.0, 161), breaks=[-13.9, 13.7], xi=0.5, halfwidth=12.0)
    @example(ts=np.linspace(-10.0, 10.0, 801), breaks=[], xi=1.0, halfwidth=12.0)  # no breaks
    @example(ts=solver.panel_rule(-2.0, 2.0, [0.3])[0], breaks=[0.3], xi=1.0, halfwidth=12.0)  # rows on the sides
    def test_matches_dense_kernel_for_any_break_set(self, ts, breaks, xi, halfwidth):
        # substituted break sides, a narrowed band: still the dense sum to rounding, for a plane
        # wave and for a cube-root kink at every zero of sin(xi t)
        for f in (lambda t: np.cos(xi * t), lambda t: np.cbrt(np.sin(xi * t))):
            got = solver.apply_K_panels(f, ts, breaks, halfwidth)
            assert got.shape == ts.shape
            np.testing.assert_allclose(got, dense_K(f, ts, breaks, halfwidth), rtol=0, atol=1e-13)

    def test_growing_integrand_gets_the_full_halfwidth(self):
        phi, _ = solver.exact_gaussian_solution(3)
        ts = np.arange(-2.0, 2.01, 0.05)
        kernel = solver._PanelKernel(ts, [], 18.0)
        kernel(np.cos(kernel.tau))  # bounded: the narrow band's tail is below rounding
        assert kernel.full is None
        got, _ = kernel(phi(kernel.tau))  # phi(20) / phi(2) = e^264: only the whole window will do
        assert kernel.full is not None and kernel.full is not kernel.narrow
        np.testing.assert_allclose(got, dense_K(phi, ts, [], halfwidth=18.0), rtol=1e-12)
        np.testing.assert_allclose(got, phi(ts) ** 3, rtol=1e-10)

    def test_matches_dense_kernel_on_the_kink(self, solved_p3):
        ts = solved_p3.grid.nodes
        breaks = solver.detect_sign_changes(solved_p3.phi)
        banded = solver.apply_K_panels(solved_p3.phi, ts, breaks)
        np.testing.assert_allclose(banded, dense_K(solved_p3.phi, ts, breaks), rtol=0, atol=1e-15)

    def test_matches_dense_kernel_on_growing_solution(self):
        phi, _ = solver.exact_gaussian_solution(3)
        ts = np.arange(-2.0, 2.01, 0.05)
        banded = solver.apply_K_panels(phi, ts, [], halfwidth=18.0)
        np.testing.assert_allclose(banded, dense_K(phi, ts, [], halfwidth=18.0), rtol=1e-12)

    def test_constant_integrand_may_return_a_scalar(self):
        got = solver.apply_K_panels(lambda t: 2.0, np.linspace(-3.0, 3.0, 7), [0.0])
        np.testing.assert_allclose(got, 2.0, rtol=1e-14)

    def test_apply_rejects_nonfinite_integrand(self):
        f = lambda t: np.where(np.asarray(t) > 3.0, np.nan, np.tanh(t))
        with pytest.raises(gaussop.EvaluationError) as err:
            solver.apply_K_panels(f, np.linspace(-2.0, 2.0, 9))
        assert 3.0 < err.value.node < 3.5

    def test_residual_rejects_nonfinite_candidate(self):
        f = lambda t: np.where(np.asarray(t) < -5.0, np.inf, np.tanh(t))
        with pytest.raises(gaussop.EvaluationError) as err:
            solver.residual(f, 3)
        # the first panel node below -5 in a window reaching 12 past |t| <= 2
        assert -14.0 <= err.value.node < -5.0


class TestResidual:
    def test_constant(self):
        assert solver.residual(const_one, 3) < 1e-12

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_solution(self, p):
        phi, _ = solver.exact_gaussian_solution(p)
        assert solver.residual(phi, p, ts=np.arange(-2, 2.01, 0.05), halfwidth=18.0) < 1e-9

    def test_parabolic_approximation_quality(self):
        # K((1-t^2)/2) = (1-t^2)/2 - 1/4, so the defect is exactly t^4/4
        phi = lambda t: 0.5 * (1 - np.asarray(t, dtype=float) ** 2)
        ts = np.arange(-0.5, 0.51, 0.05)
        value = solver.residual(phi, 2, ts=ts)
        assert value == pytest.approx(0.5**4 / 4.0, abs=1e-10)
        assert value < 0.15

    def test_translation_invariance_of_exact_solution(self):
        phi, _ = solver.exact_gaussian_solution(2)
        base = solver.residual(phi, 2, ts=np.arange(-1.0, 1.01, 0.1), halfwidth=18.0)
        for shift in (0.5, -0.5):
            shifted = lambda t: phi(np.asarray(t, dtype=float) + shift)
            moved = solver.residual(shifted, 2, ts=np.arange(-1.0, 1.01, 0.1), halfwidth=18.0)
            assert abs(moved - base) < 1e-8


class TestConservationLaws:
    def test_constant_all_orders(self):
        laws = solver.conservation_laws_check(const_one, 2, 8)
        assert np.max(laws) < 1e-12

    def test_linear_p1_edge(self):
        # (t, H_1)_1 = 1 and (t, V_1)_{1/2} = 1
        ident = lambda t: np.asarray(t, dtype=float)
        laws = solver.conservation_laws_check(ident, 1, 4)
        assert np.max(laws) < 1e-12

    def test_converged_solution(self, solved_p3):
        laws = solver.conservation_laws_check(solved_p3.phi, 3, 8)
        assert np.max(laws) < 1e-6

    def test_even_p_laws_use_the_equations_power(self):
        # the erf seed of `solve --p 2`: (erf, V_n)_{1/2} vanishes for even n by
        # parity, so the even laws are (|erf|^2, H_n)_1, where the signed power
        # erf |erf| would give 0
        laws = solver.conservation_laws_check(basis._erf, 2, 8)
        with mpmath.workdps(20):
            for n in range(0, 9, 2):
                integral = mpmath.quad(lambda t: mpmath.erf(t) ** 2 * mpmath.hermite(n, t) * mpmath.exp(-t * t),
                                       [-mpmath.inf, 0, mpmath.inf])
                reference = abs(float(integral / mpmath.sqrt(mpmath.pi)))
                assert reference > 0.1
                assert laws[n] == pytest.approx(reference, rel=1e-10)

    def test_zero_moment_structure_at_multiple_zero(self, rule96):
        # K H_4 = 16 t^4 has a multiplicity-4 zero at 0: the first four
        # shifted moments vanish and 2^4 times the fourth recovers a_4
        moments = np.array([gaussop.gauss_moment(lambda t: basis.eval_H(4, t), 0.0, rule96, k=k) for k in range(5)])
        assert np.max(np.abs(moments[:4])) < 1e-6
        assert 2.0**4 * moments[4] == pytest.approx(2.0**4 * math.factorial(4), abs=1e-8)


class TestLimitDiagnostics:
    def test_constant(self):
        ts = np.linspace(-10, 10, 401)
        report = solver.limit_diagnostics(basis.GridFunction(ts, np.ones_like(ts)), 2)
        assert report.admissible
        assert report.left_limit == report.right_limit == 1.0
        assert abs(report.dpow_left) < 1e-12

    def test_converged_solution(self, solved_p3):
        report = solver.limit_diagnostics(solved_p3.grid, 3)
        assert report.admissible
        assert (report.left_limit, report.right_limit) == (-1.0, 1.0)

    def test_parabola_not_admissible(self):
        ts = np.linspace(-10, 10, 401)
        report = solver.limit_diagnostics(basis.GridFunction(ts, 0.5 * (1 - ts**2)), 2)
        assert not report.admissible

    def test_edge_slope_is_one_sided_at_the_grids_end(self):
        # a grid ending at the edge has no node past it: the slope there is
        # the one-sided difference, not half of it
        result = solver.fixed_point_iterate(solver.SolverConfig(p=3, grid_halfwidth=8.0), erf)
        assert result.converged
        t, power = result.grid.nodes, result.grid.values**3
        report = solver.limit_diagnostics(result.grid, 3)
        assert report.dpow_right == pytest.approx((power[-1] - power[-2]) / (t[-1] - t[-2]), rel=1e-12)

    def test_even_p_slope_is_of_the_equations_power(self):
        # phi = sgn(t) (1 - e^{-|t|}): the equation's power is (1 - e^{-|t|})^2,
        # falling towards t = -8, where the signed power rises
        ts = np.linspace(-10, 10, 401)
        values = np.sign(ts) * (1.0 - np.exp(-np.abs(ts)))
        report = solver.limit_diagnostics(basis.GridFunction(ts, values), 2)
        assert report.dpow_left == pytest.approx(-2.0 * (1.0 - math.exp(-8.0)) * math.exp(-8.0), rel=1e-3)

    def test_narrow_grid_rejected(self):
        ts = np.linspace(-5, 5, 101)
        with pytest.raises(ValueError):
            solver.limit_diagnostics(basis.GridFunction(ts, np.ones_like(ts)), 2)


class TestExactSolutionFamily:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_interpolant_endpoints(self, p):
        phi, u = solver.exact_gaussian_solution(p)
        ts = np.linspace(-1.5, 1.5, 11)
        assert u(0.0, ts) == pytest.approx(phi(ts))
        assert u(1.0, ts) == pytest.approx(phi(ts) ** p, rel=1e-12)

    def test_needs_p_at_least_two(self):
        with pytest.raises(ValueError):
            solver.exact_gaussian_solution(1)


class TestConfigValidation:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(p=0)
        with pytest.raises(ValueError):
            solver.SolverConfig(p=2, tol=0.0)
        with pytest.raises(ValueError):
            solver.SolverConfig(p=2, grid_halfwidth=3.0)
        with pytest.raises(ValueError, match="grid halfwidth must be finite"):
            solver.SolverConfig(p=2, grid_halfwidth=math.inf)

    @pytest.mark.parametrize("p", [1, 2.5, math.nan, math.inf])
    def test_p_must_be_an_integer_of_at_least_two(self, p):
        # a fractional p took neither the odd nor the even branch and failed inside the solve
        with pytest.raises(ValueError, match="power p must be an integer >= 2"):
            solver.SolverConfig(p=p)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_must_be_positive(self, max_iter):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            solver.SolverConfig(p=3, max_iter=max_iter)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    def test_grid_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="grid step must be positive and finite"):
            solver.SolverConfig(p=3, grid_step=step)

    def test_grid_step_must_divide_the_halfwidth(self):
        with pytest.raises(ValueError, match=r"grid step 0\.03 does not divide .* is 0\.03003"):
            solver.SolverConfig(p=3, grid_step=0.03)

    @pytest.mark.parametrize("step", [10.0, 5.0, 3.0])
    def test_grid_must_hold_one_interpolation_stencil(self, step):
        # 3, 5 and 7 nodes: fewer than the 8 of power_interpolant's stencil, which
        # fixed_point_iterate would reach only after its first kernel apply
        with pytest.raises(ValueError, match=r"fewer than the 8 .* largest step that fits is 2\.5"):
            solver.SolverConfig(p=3, grid_step=step)

    @pytest.mark.parametrize("halfwidth, step", [(10.0, 0.025), (10.0, 0.05), (10.0, 0.1), (12.0, 0.05)])
    def test_steps_in_use_divide_their_halfwidth(self, halfwidth, step):
        solver.SolverConfig(p=3, grid_halfwidth=halfwidth, grid_step=step)

    def test_fields(self):
        fields = [f.name for f in dataclasses.fields(solver.SolverConfig)]
        assert fields == ["p", "tol", "max_iter", "grid_halfwidth", "grid_step"]
