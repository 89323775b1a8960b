import dataclasses
import functools
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from padic_string import basis, bvp, gaussop, solver

from conftest import const_one


class TestTruncatedSystem:
    def test_constant_solution_is_exact_root(self):
        system = solver.TruncatedSystem(6)
        a = np.zeros(7)
        a[0] = 1.0
        assert np.max(np.abs(system.residual(a))) < 1e-12

    def test_zero_solution_is_exact_root(self):
        system = solver.TruncatedSystem(4)
        assert np.max(np.abs(system.residual(np.zeros(5)))) == 0.0

    def test_head_component_by_hand(self):
        # at a = (4, 0, 0, 0) the head equation reads 4 - 4^2 = -12
        system = solver.TruncatedSystem(3)
        r = system.residual([4.0, 0.0, 0.0, 0.0])
        assert r[0] == pytest.approx(-12.0)

    def test_inner_sums_match_monomial_coefficients(self):
        # S_k is exactly the k-th monomial coefficient of phi
        system = solver.TruncatedSystem(5)
        rng = np.random.default_rng(23)
        a = rng.standard_normal(6)
        S = system.inner_sums(a)
        series = basis.HermiteSeries("H", a)
        ts = np.linspace(-1.5, 1.5, 13)
        assert np.polynomial.polynomial.polyval(ts, S) == pytest.approx(series(ts), abs=1e-12)

    def test_rhs_matches_independent_polynomial_square(self):
        # square phi with plain polynomial multiplication and read off the
        # Taylor data t^n/n!; must equal the double-sum assembly
        system = solver.TruncatedSystem(3)
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = np.zeros(4)
            a[:4] = rng.standard_normal(4)
            S = system.inner_sums(a)
            squared = np.polynomial.polynomial.polymul(S, S)
            rhs = system.rhs(a)
            for n in range(4):
                assert rhs[n] == pytest.approx(math.factorial(n) * squared[n], abs=1e-8)

    def test_wide_square_consistency(self):
        # the same check against a grid: sample phi^2 and fit monomials
        system = solver.TruncatedSystem(3)
        rng = np.random.default_rng(31)
        a = rng.standard_normal(4)
        series = basis.HermiteSeries("H", a)
        ts = np.linspace(-1.0, 1.0, 41)
        fitted = np.polyfit(ts, series(ts) ** 2, 6)[::-1]
        S = system.inner_sums(a)
        squared = np.polynomial.polynomial.polymul(S, S)
        assert fitted[:7] == pytest.approx(squared[:7], abs=1e-8)

    def test_inner_sums_are_scaled_conversion(self):
        # S_k(a) is the k-th H-coefficient of the V-series with data a, over k!
        N = 16
        a = np.random.default_rng(37).standard_normal(N + 1)
        converted = basis.convert_b_to_a(basis.HermiteSeries("V", a), N).coeffs
        fact = np.array([math.factorial(k) for k in range(N + 1)], dtype=float)
        assert solver.TruncatedSystem(N).inner_sums(a) == pytest.approx(converted / fact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("N", [3, 8, 20])
    def test_jacobian_is_exact(self, N):
        # the residual is a - rhs(a) with rhs a quadratic form, so its Taylor
        # expansion stops at second order: r(a + d) - r(a) - J(a) d = -rhs(d)
        system = solver.TruncatedSystem(N)
        rng = np.random.default_rng(41 + N)
        for _ in range(5):
            a, d = rng.standard_normal((2, N + 1))
            step = system.jacobian(a) @ d
            remainder = system.residual(a + d) - system.residual(a) - step
            scale = max(np.max(np.abs(t)) for t in (system.residual(a + d), system.residual(a), step))
            assert np.max(np.abs(remainder + system.rhs(d))) <= 1e-12 * scale

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            solver.TruncatedSystem(2)


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
        system = solver.TruncatedSystem(3)
        for s in solver.solve_3approx():
            if s.a0 > 0 or s.label == "trivial":
                assert np.max(np.abs(system.residual(s.coefficients()))) < 1e-12

    def test_degenerate_branch_has_singular_odd_subsystem(self):
        for s in solver.solve_3approx():
            if s.label == "branch_c":
                assert abs(s.D) < 1e-9
            else:
                assert abs(s.D) > 0.5

    def test_parabolic_branch_approximates_half_one_minus_t_squared(self):
        sols = {s.label: s for s in solver.solve_3approx() if s.label == "parabolic"}
        series = sols["parabolic"].series()
        ts = np.linspace(-1, 1, 21)
        assert series(ts) == pytest.approx(0.5 * (1 - ts**2), abs=1e-12)

    def test_squared_mixed_branch_reproduces_taylor_line(self):
        # squaring the degree-3 polynomial approximant reproduces the
        # coefficients (a0, a1, a2/2, a3/6) through order t^3
        plus = [s for s in solver.solve_3approx() if s.label == "branch_c" and s.a1 > 0][0]
        S = solver.TruncatedSystem(3).inner_sums(plus.coefficients())
        squared = np.polynomial.polynomial.polymul(S, S)
        taylor_line = [plus.a0, plus.a1, plus.a2 / 2.0, plus.a3 / 6.0]
        assert squared[:4] == pytest.approx(taylor_line, abs=1e-12)
        # and both match the printed four digits 0.7873, 0.6984, -0.2000, 0.2032
        assert squared[:4] == pytest.approx([0.7873, 0.6984, -0.2, 0.2032], abs=1e-4)


class TestNewton:
    def test_recovers_constant_quickly(self):
        system = solver.TruncatedSystem(3)
        cfg = solver.SolverConfig(p=2, tol=1e-12)
        result = solver.newton_solve(system, [1.001, 0, 0, 0], cfg)
        assert result.status == "converged"
        assert result.iterations == 2
        assert result.series.coeffs == pytest.approx([1, 0, 0, 0], abs=1e-10)

    def test_trace_records_condition_and_step_length(self):
        system = solver.TruncatedSystem(3)
        result = solver.newton_solve(system, [1.001, 0, 0, 0], solver.SolverConfig(p=2, tol=1e-12))
        *steps, last = result.trace
        assert [e["iteration"] for e in result.trace] == list(range(result.iterations + 1))
        assert steps[0]["condition"] == float(np.linalg.cond(system.jacobian([1.001, 0, 0, 0])))
        assert all(1.0 <= e["condition"] < 1e12 and 0 < e["lam"] <= 1.0 for e in steps)
        assert result.condition == steps[-1]["condition"]
        # the converged iterate takes no step, so it forms no Jacobian
        assert math.isnan(last["condition"]) and math.isnan(last["lam"])

    def test_condition_is_nan_without_a_jacobian(self):
        # the closed-form branch already solves the truncation: Newton stops at iteration 0
        branch = [s for s in solver.solve_3approx() if s.label == "branch_c" and s.a1 > 0][0]
        result = solver.newton_solve(solver.TruncatedSystem(3), branch.coefficients(), solver.SolverConfig(p=2, tol=1e-12))
        assert (result.status, result.iterations) == ("converged", 0)
        assert math.isnan(result.condition)

    def test_stays_on_closed_branch(self):
        system = solver.TruncatedSystem(3)
        cfg = solver.SolverConfig(p=2, tol=1e-12)
        branch = [s for s in solver.solve_3approx() if s.label == "branch_c" and s.a1 > 0][0]
        result = solver.newton_solve(system, branch.coefficients(), cfg)
        assert result.status == "converged"
        assert result.series.coeffs == pytest.approx(branch.coefficients(), abs=1e-9)

    def test_order_seven_converges_and_squares_consistently(self):
        system = solver.TruncatedSystem(7)
        cfg = solver.SolverConfig(p=2, tol=1e-12)
        init = np.zeros(8)
        branch = [s for s in solver.solve_3approx() if s.label == "branch_c" and s.a1 > 0][0]
        init[:4] = branch.coefficients()
        result = solver.newton_solve(system, init, cfg)
        assert result.status == "converged"
        a = result.series.coeffs
        S = system.inner_sums(a)
        squared = np.polynomial.polynomial.polymul(S, S)
        fact = np.array([math.factorial(n) for n in range(8)])
        assert fact * squared[:8] == pytest.approx(a, abs=1e-9)

    def test_singular_jacobian_stops_at_once(self):
        # N = 20 from the head of the closed-form branch: the Jacobian there
        # has condition 2.3e14 > 1e12, so no step is taken
        branch = [s for s in solver.solve_3approx() if s.label == "branch_c" and s.a1 > 0][0]
        init = np.zeros(21)
        init[:4] = branch.coefficients()
        result = solver.newton_solve(solver.TruncatedSystem(20), init, solver.SolverConfig(p=2, tol=1e-12))
        assert (result.status, result.iterations) == ("singular", 0)
        assert result.condition == pytest.approx(2.26e14, rel=1e-2)
        np.testing.assert_array_equal(result.series.coeffs, init)
        assert math.isnan(result.trace[0]["lam"])

    def test_exhausted_iterations_end_diverged(self):
        system = solver.TruncatedSystem(3)
        result = solver.newton_solve(system, [3.0, 1.0, 0.5, 0.2], solver.SolverConfig(p=2, max_iter=1))
        assert (result.status, result.iterations) == ("diverged", 1)
        assert len(result.trace) == 1 and result.trace[0]["lam"] == 1.0
        # the residual is that of the iterate returned, after the one step
        assert result.residual_norm == float(np.max(np.abs(system.residual(result.series.coeffs))))
        assert result.residual_norm > 1e-10

    def test_wrong_init_length(self):
        with pytest.raises(ValueError):
            solver.newton_solve(solver.TruncatedSystem(3), [1.0], solver.SolverConfig(p=2))


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

    def test_constant_extension(self):
        nodes = np.linspace(-5, 5, 101)
        phi = solver.power_interpolant(nodes, np.tanh(nodes), 3)
        assert phi(9.0) == pytest.approx(math.tanh(5.0), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(4, 1000), lo=st.integers(-2**20, 2**20), step=st.integers(1, 2**12))
    def test_matches_scipy_not_a_knot_spline(self, data, n, lo, step):
        # dyadic lo and step make every node lo + i h exact, so both splines
        # interpolate the same data on the same evenly spaced nodes
        from scipy.interpolate import CubicSpline

        lo, h = lo / 1024, step / 256
        nodes = lo + h * np.arange(n)
        values = data.draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
        t = lo + (nodes[-1] - lo) * data.draw(hnp.arrays(float, 40, elements=st.floats(-0.25, 1.25)))
        powers = values * np.abs(values) ** 2
        # p = 1 returns the spline itself; p = 3 its real cube root
        spline = solver.power_interpolant(nodes, powers, 1)(t)
        assert np.array_equal(solver.power_interpolant(nodes, values, 3)(t), np.sign(spline) * np.abs(spline) ** (1 / 3))
        reference = CubicSpline(nodes, powers)(np.clip(t, lo, nodes[-1]))
        assert np.max(np.abs(spline - reference)) <= 16 * np.finfo(float).eps * np.max(np.abs(powers))

    @pytest.mark.parametrize("nodes", [np.linspace(-10, 10, 801), np.arange(-2.0, 2.025, 0.05),
                                       np.linspace(0.1, 7.3, 999), np.linspace(-1.0, 2.0, 4)])
    def test_node_values_are_the_node_powers(self, nodes):
        values = np.sin(3.0 * nodes) + 0.1 * nodes
        phi = solver.power_interpolant(nodes, values, 1)
        assert np.array_equal(phi(nodes), values)
        assert phi(nodes[0] - 1.0) == values[0] and phi(nodes[-1] + 1.0) == values[-1]

    @pytest.mark.parametrize("nodes, message", [
        ([0.0, 1.0, 3.0, 4.0, 5.0], "evenly spaced"),
        (np.linspace(1.0, -1.0, 9), "evenly spaced"),
        (np.linspace(-1.0, 1.0, 401) + 1e-9 * (np.arange(401) % 2), "evenly spaced"),
        ([0.0, 1.0, 2.0], "at least 4 nodes"),
        ([0.0], "at least 4 nodes"),
    ])
    def test_rejects_uneven_or_too_few_nodes(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            solver.power_interpolant(nodes, np.ones(len(nodes)), 3)

    @pytest.mark.parametrize("values", [[0.0, 1.0, np.nan, 3.0, 4.0], [0.0, 1.0, 2.0, 1e200, 4.0], [0.0, 1.0, 2.0]])
    def test_rejects_values_without_a_finite_power_per_node(self, values):
        with pytest.raises(ValueError, match="one value per node"), np.errstate(over="ignore"):
            solver.power_interpolant(np.arange(5.0), values, 3)


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
                self.ts, self.breaks = ts, list(breaks)

            def __call__(self, f, with_size=False):
                A = (2.0 * np.asarray(f(self.ts), dtype=float)) ** 3
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
        A, scale = kernel(evaluate, with_size=True)
        A = np.where(np.abs(A) < 64 * np.finfo(float).eps * scale, 0.0, A)
        res = float(np.max(np.abs(A - vals * np.abs(vals) ** (p - 1))))
        root = np.sign(A) * np.abs(A) ** (1.0 / p)
        trace.append({"iteration": len(trace), "change": float(np.max(np.abs(root - vals))), "residual": res,
                      "depth": 0, "kernel_built": not trace})
        if res < 1e-10:
            return trace, vals
        vals = root
        evaluate = solver.power_interpolant(ts, vals, p)


class TestAndersonMixing:
    @pytest.mark.parametrize("p, bound", [(3, 13), (5, 11)])
    def test_centred_kink_takes_few_steps(self, p, bound):
        # the plain map takes 20 (p = 3) and 15 (p = 5) steps here
        result = centred_kink(p)
        assert result.converged and result.iterations <= bound

    @pytest.mark.parametrize("p", [3, 5])
    def test_depth_zero_is_the_plain_map(self, p, monkeypatch):
        monkeypatch.setattr(solver, "_ANDERSON_DEPTH", 0)
        result = solver.fixed_point_iterate(solver.SolverConfig(p, grid_step=0.025), erf)
        trace, vals = plain_map(p)
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
        assert depths[0] == 0 and depths == [min(i, solver._ANDERSON_DEPTH) for i in range(len(depths))]

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


class TestTranslationCovariance:
    # K commutes with shifts, so erf(a (t - s)) must converge to the centred
    # kink moved by s, with its zero located at s
    @settings(max_examples=6, deadline=None)
    @given(s=st.floats(-2.0, 2.0), a=st.floats(0.6, 2.0), p=st.sampled_from([3, 5]))
    @example(s=0.3, a=1.3, p=3)  # the zero falls on a grid node
    @example(s=1.2345, a=1.3, p=3)
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
        # the translation mode leaves the residual flat; fitting the mixing to
        # residual differences at the noise level moved these zeros by 2e-8 to 6e-6
        result = solver.fixed_point_iterate(
            solver.SolverConfig(5, grid_step=0.025), lambda t: erf(0.75 * (np.asarray(t, dtype=float) - s))
        )
        assert result.converged
        [t0] = solver.detect_sign_changes(result.phi)
        assert abs(t0 - s) < 1e-9


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
        np.testing.assert_array_equal(got, solver._PanelKernel(nodes, [0.0])(result.phi))

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
        # the zero of an off-centre seed moves past _BREAK_TOL on the first steps
        calls = self.count_panel_rules(monkeypatch)
        result = solver.fixed_point_iterate(
            solver.SolverConfig(p=3, grid_step=0.025), lambda t: erf(1.3 * (np.asarray(t, dtype=float) - 1.2345))
        )
        built = [entry["kernel_built"] for entry in result.trace]
        assert result.converged and built[0] and sum(built) == len(calls) > 1

    def test_apply_K_panels_signature_is_stable(self):
        # the per-layer benchmark tracer binds these arguments by name
        params = inspect.signature(solver.apply_K_panels).parameters
        assert list(params) == ["f", "ts", "breaks", "halfwidth"]
        assert params["breaks"].default == ()
        assert params["halfwidth"].default == 12.0


def dense_K(f, ts, breaks, halfwidth=12.0):
    """K f with the full kernel exp(-(t - tau)^2) over the whole panel window; f may be a block."""
    tau, w = solver.panel_rule(ts.min() - halfwidth, ts.max() + halfwidth, breaks)
    fv = f(tau)
    return np.exp(-((ts[:, None] - tau) ** 2)) @ (w * fv.T).T / math.sqrt(math.pi)


def kinked_block(xi):
    """Two bounded columns: a plane wave and a cube-root kink at every zero of sin(xi t)."""
    return lambda t: np.stack([np.cos(xi * t), np.cbrt(np.sin(xi * t))], axis=-1)


def panels(lo, hi, breaks=()):
    """panel_rule's panels as (left, right, nodes, weights), in order."""
    t, w = solver.panel_rule(lo, hi, breaks)
    t, w = t.reshape(-1, 16), w.reshape(-1, 16)
    mids, halves = t.mean(axis=1), 0.5 * w.sum(axis=1)
    return mids - halves, mids + halves, t, w


def loop_panel_rule(lo, hi, breaks=()):
    """panel_rule's edges written as loops over sets: the reference of its vectorised form."""
    plain = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / solver._PANEL)) + 1))
    inner = [b for b in breaks if lo < b < hi]
    edges = {plain[0], plain[-1]}
    edges.update(e for e in plain[1:-1] if all(e == b or abs(e - b) >= solver._INNERMOST for b in inner))
    for b in inner:
        step = solver._INNERMOST
        while step < solver._PANEL:
            edges.update(edge for edge in (b - step, b + step) if lo < edge < hi)
            step *= 2.0
        edges.add(b)
    grid = np.array(sorted(e for e in edges if e in (lo, hi) or min(e - lo, hi - e) >= solver._INNERMOST))
    mids, halves = 0.5 * (grid[1:] + grid[:-1]), 0.5 * (grid[1:] - grid[:-1])
    return (mids[:, None] + halves[:, None] * solver._GL_NODES).ravel(), (halves[:, None] * solver._GL_WEIGHTS).ravel()


class TestPanelRule:
    WINDOWS = [(-22.0, 22.0, []), (-8.0, 8.0, [0.0]), (-3.3, 4.1, [-1.2, 0.25, 0.7]), (0.0, 0.7, [0.3])]

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_no_panel_is_wider_than_the_widest(self, lo, hi, breaks):
        left, right, _, _ = panels(lo, hi, breaks)
        assert np.all(right - left <= solver._PANEL * (1 + 1e-12))
        np.testing.assert_allclose([left[0], right[-1]], [lo, hi], rtol=0, atol=1e-14)
        np.testing.assert_allclose(left[1:], right[:-1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_weights_sum_to_the_window(self, lo, hi, breaks):
        _, w = solver.panel_rule(lo, hi, breaks)
        assert w.sum() == pytest.approx(hi - lo, rel=1e-14)

    @pytest.mark.parametrize("lo, hi, breaks", WINDOWS)
    def test_degree_31_is_exact_on_every_panel(self, lo, hi, breaks):
        # sum_j w_j x_j^k over a panel, x the panel mapped to [-1, 1], is (b - a)/2 int x^k
        left, right, t, w = panels(lo, hi, breaks)
        half = 0.5 * (right - left)
        x = (t - 0.5 * (left + right)[:, None]) / half[:, None]
        k = np.arange(32)
        got = np.einsum("pj,pjk->pk", w, x[:, :, None] ** k)
        exact = half[:, None] * np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-14 * half.max())

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(-12.0, -1.0),
        width=st.floats(2.0, 24.0),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    )
    def test_every_inner_break_gets_the_innermost_panel_on_each_side(self, lo, width, fractions):
        hi = lo + width
        breaks = sorted(lo + f * width for f in fractions)
        assume(all(b - a == 0 or b - a > 1e-6 for a, b in zip(breaks, breaks[1:])))
        left, right, _, _ = panels(lo, hi, breaks)
        innermost = np.isclose(right - left, solver._INNERMOST, rtol=1e-6, atol=0)
        for b in breaks:
            assert np.any(innermost & np.isclose(right, b, rtol=0, atol=1e-12))
            assert np.any(innermost & np.isclose(left, b, rtol=0, atol=1e-12))

    @pytest.mark.parametrize("b", [0.3, 0.30000000001, 0.29999999999])
    def test_a_break_near_a_plain_edge_cuts_no_sliver(self, b):
        # the plain edge 0.3 gives way to a break within _INNERMOST of it
        left, right, t, _ = panels(-0.3, 0.9, [b])
        assert t.size == 864
        assert np.min(right - left) == pytest.approx(solver._INNERMOST, rel=1e-6)

    @pytest.mark.parametrize("lo, hi, b", [(-0.3, 0.9, -0.3 + 1e-12), (-0.3, 0.9, 0.9 - 1e-12),
                                           (-0.3, 0.9, -0.3 + 1.5e-8), (-0.3, 0.9, 0.9 - 1.5e-8)])
    def test_a_break_near_a_window_end_cuts_no_sliver(self, lo, hi, b):
        # an edge within _INNERMOST inside a window end gives way to that end;
        # the grading on the break's inner side stays
        left, right, _, w = panels(lo, hi, [b])
        assert np.min(right - left) == pytest.approx(solver._INNERMOST, rel=1e-6)
        assert w.sum() == pytest.approx(hi - lo, rel=1e-14)
        inner = right if b - lo < hi - b else left
        inward = math.copysign(solver._INNERMOST, 0.5 * (lo + hi) - b)
        assert np.any(np.isclose(inner, b + inward, rtol=0, atol=1e-15))

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
        for got, want in zip(solver.panel_rule(lo, hi, breaks), loop_panel_rule(lo, hi, breaks)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("b", [-9.0, -4.0, 4.0, 30.0])
    def test_break_outside_the_window_adds_no_nodes(self, b):
        t, w = solver.panel_rule(-4.0, 4.0, [b])
        t0, w0 = solver.panel_rule(-4.0, 4.0)
        np.testing.assert_array_equal(t, t0)
        np.testing.assert_array_equal(w, w0)


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
    @example(ts=solver.panel_rule(-2.0, 2.0, [0.3])[0], breaks=[0.3], xi=1.0, halfwidth=12.0)  # graded rows
    def test_matches_dense_kernel_for_any_break_set(self, ts, breaks, xi, halfwidth):
        # compressed break panels, a narrowed band: still the dense sum to rounding
        f = kinked_block(xi)
        got = solver.apply_K_panels(f, ts, breaks, halfwidth)
        assert got.shape == ts.shape + (2,)
        np.testing.assert_allclose(got, dense_K(f, ts, breaks, halfwidth), rtol=0, atol=1e-13)

    def test_growing_integrand_gets_the_full_halfwidth(self):
        phi, _ = solver.exact_gaussian_solution(3)
        ts = np.arange(-2.0, 2.01, 0.05)
        kernel = solver._PanelKernel(ts, [], 18.0)
        kernel(np.cos)  # bounded: the narrow band's tail is below rounding
        assert kernel.full is None
        got = kernel(phi)  # phi(20) / phi(2) = e^264: only the whole window will do
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

    def test_panel_block_matches_single_columns(self):
        ts = np.linspace(-2.0, 2.0, 41)
        f = lambda t: np.cbrt(np.asarray(t, dtype=float))
        g = lambda t: np.abs(f(t))
        block = solver.apply_K_panels(lambda t: np.stack([f(t), g(t)], axis=-1), ts, [0.0])
        assert block.shape == (ts.size, 2)
        # one matrix product in place of two: equal up to summation order
        assert block[:, 0] == pytest.approx(solver.apply_K_panels(f, ts, [0.0]), rel=1e-13, abs=1e-15)
        assert block[:, 1] == pytest.approx(solver.apply_K_panels(g, ts, [0.0]), rel=1e-13, abs=1e-15)


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

    @pytest.mark.parametrize("halfwidth, step", [(10.0, 0.025), (10.0, 0.05), (10.0, 0.1), (12.0, 0.05)])
    def test_steps_in_use_divide_their_halfwidth(self, halfwidth, step):
        solver.SolverConfig(p=3, grid_halfwidth=halfwidth, grid_step=step)

    def test_fields(self):
        fields = [f.name for f in dataclasses.fields(solver.SolverConfig)]
        assert fields == ["p", "tol", "max_iter", "grid_halfwidth", "grid_step"]
