import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from padic_string import basis, gaussop, heatflow, solver

from conftest import const_one


class TestPoisson:
    def test_matches_exact_interpolant(self, rule96):
        phi, u = solver.exact_gaussian_solution(2)
        value = heatflow.poisson_eval(phi, 0.5, 0.3, rule96)
        closed = math.sqrt(2) * (1 - 0.25) ** -0.5 * math.exp(0.09 / 1.5)
        assert value == pytest.approx(u(0.5, 0.3), abs=1e-9)
        assert value == pytest.approx(closed, abs=1e-9)

    def test_constant_boundary(self, rule96):
        ts = np.linspace(-4, 4, 17)
        for x in (0.1, 0.7, 1.0, 2.5):
            assert heatflow.poisson_eval(const_one, x, ts, rule96) == pytest.approx(
                np.ones(17), abs=1e-13
            )

    def test_quadratic_second_moment(self, rule96):
        # u(x, t) = t^2 + x/2 for boundary t^2
        f = lambda t: np.asarray(t, dtype=float) ** 2
        assert heatflow.poisson_eval(f, 1.0, 0.0, rule96) == pytest.approx(0.5, abs=1e-12)
        assert heatflow.poisson_eval(f, 0.3, 1.1, rule96) == pytest.approx(1.21 + 0.15, abs=1e-12)

    def test_zero_time_returns_boundary(self, rule96):
        f = lambda t: np.sin(t)
        assert heatflow.poisson_eval(f, 0.0, 0.7, rule96) == pytest.approx(math.sin(0.7))

    def test_negative_time_rejected(self, rule96):
        with pytest.raises(ValueError):
            heatflow.poisson_eval(const_one, -0.1, 0.0, rule96)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: heatflow.poisson_eval(const_one, x, 0.0, basis.gauss_hermite_rule(96)),
            lambda x: heatflow.poisson_dt(const_one, x, 0.0, basis.gauss_hermite_rule(96)),
        ],
        ids=["poisson_eval", "poisson_dt"],
    )
    def test_non_finite_time_rejected(self, call, x):
        with pytest.raises(ValueError, match="finite"):
            call(x)

    def test_caloric_property_random_points(self, rule96):
        f = lambda t: np.cos(1.3 * np.asarray(t, dtype=float))
        u = lambda x, t: heatflow.poisson_eval(f, x, t, rule96)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0.2, 1.0)
            t = rng.uniform(-2.0, 2.0)
            assert heatflow.caloric_residual(u, x, t) < 1e-6

    def test_semigroup_on_polynomial_boundary(self, rule96):
        poly = lambda t: 1 + 0.5 * np.asarray(t, dtype=float) ** 3 - np.asarray(t, dtype=float)
        first = lambda t: heatflow.poisson_eval(poly, 0.3, t, rule96)
        for t in (-1.0, 0.0, 0.7):
            two_step = heatflow.poisson_eval(first, 0.5, t, rule96)
            one_step = heatflow.poisson_eval(poly, 0.8, t, rule96)
            assert two_step == pytest.approx(one_step, abs=1e-8)

    def test_agrees_with_K_at_unit_time(self, rule96):
        f = lambda t: np.cos(t)
        ts = np.linspace(-3, 3, 25)
        via_poisson = heatflow.poisson_eval(f, 1.0, ts, rule96)
        via_K = gaussop.apply_K_point(f, ts, rule96)
        assert np.max(np.abs(via_poisson - via_K)) < 1e-10

    def test_kernel_derivative_matches_difference_quotient(self, rule96):
        f = lambda t: np.cos(1.3 * np.asarray(t, dtype=float))
        h = 1e-5
        for x, t in ((0.4, 0.2), (0.9, -1.0)):
            fd = (heatflow.poisson_eval(f, x, t + h, rule96) - heatflow.poisson_eval(f, x, t - h, rule96)) / (2 * h)
            assert heatflow.poisson_dt(f, x, t, rule96) == pytest.approx(fd, abs=1e-8)


def sliced_energy_reference(phi, p, a, b, rule, xsteps=32):
    """The energy law integrated over heat-time slices, with the window's boundary flux.

    Signed int phi^2 (1 - phi^{2p-2}) - (1/2) int_0^1 int_a^b u_t^2
    + (1/2) int_0^1 [u u_t]_a^b dx with x = s^3 and a Gauss-Legendre rule
    in s; by u_x = u_tt / 4 it equals int_a^b (K phi)^2 - phi^{2p}.
    """
    ts, wt = solver.panel_rule(a, b, solver.detect_sign_changes(phi, a, b, 801))
    pv = phi(ts)
    lhs = wt @ (pv**2 * (1.0 - pv ** (2 * p - 2)))
    ends = np.array([a, b])
    s_nodes, s_weights = np.polynomial.legendre.leggauss(xsteps)
    rhs = flux = 0.0
    for s, w in zip(0.5 * (s_nodes + 1.0), 0.5 * s_weights):
        x = s**3
        rhs += w * 3.0 * s**2 * (wt @ heatflow.poisson_dt(phi, x, ts, rule) ** 2)
        uut = heatflow.poisson_eval(phi, x, ends, rule) * heatflow.poisson_dt(phi, x, ends, rule)
        flux += w * 3.0 * s**2 * (uut[1] - uut[0])
    return lhs - 0.5 * rhs + 0.5 * flux


class TestConservationLaws:
    def test_energy_identity_trivial(self):
        assert heatflow.energy_identity_residual(const_one, 2) < 1e-12

    def test_energy_identity_reports_for_surrogate(self):
        # a tanh step is not a solution: the residual stays finite and far from 0
        f = lambda t: np.tanh(np.asarray(t, dtype=float))
        value = heatflow.energy_identity_residual(f, 3, domain=(-8, 8))
        assert math.isfinite(value)
        assert value > 0.1

    def test_energy_identity_converged_solution(self, solved_p3):
        assert heatflow.energy_identity_residual(solved_p3.phi, 3, domain=(-8, 8)) < 1e-8

    def test_energy_identity_converged_p5_kink(self):
        result = solver.fixed_point_iterate(solver.SolverConfig(p=5, grid_step=0.025), erf)
        assert result.converged
        assert heatflow.energy_identity_residual(result.phi, 5, domain=(-8, 8)) < 1e-8

    def test_energy_identity_takes_one_plain_rule(self, solved_p3, monkeypatch):
        # (K phi)^2 and phi^{2p} = (phi^p)^2 are both entire, so one plain
        # t-rule takes both integrals, even across the kink's zero at 0
        breaks = []
        original = heatflow.panel_rule

        def spy(lo, hi, brk=(), *args, **kwargs):
            breaks.append(list(brk))
            return original(lo, hi, brk, *args, **kwargs)

        monkeypatch.setattr(heatflow, "panel_rule", spy)
        heatflow.energy_identity_residual(solved_p3.phi, 3, domain=(-8, 8))
        assert breaks == [[]]

    @pytest.mark.parametrize(
        "p, seed", [(3, None), (5, erf), (3, lambda t: erf(1.3 * (np.asarray(t, dtype=float) - 0.051)))],
        ids=["solved_p3", "p5_kink", "off_centre_p3"],
    )
    def test_energy_identity_loses_no_digits_to_the_second_rule(self, p, seed, solved_p3):
        # phi^{2p} on the plain rule against the rule graded at phi's sign
        # changes: on a solution the two agree to rounding
        if seed is None:
            result = solved_p3
        else:
            result = solver.fixed_point_iterate(solver.SolverConfig(p=p, grid_step=0.025), seed)
            assert result.converged
        phi, (a, b) = result.phi, (-8.0, 8.0)
        breaks = solver.detect_sign_changes(phi, a, b, 801)
        ts, wt = solver.panel_rule(a, b)
        tg, wg = solver.panel_rule(a, b, breaks)
        graded = abs(float(wt @ solver.apply_K_panels(phi, ts, breaks) ** 2 - wg @ phi(tg) ** (2 * p)))
        assert heatflow.energy_identity_residual(phi, p, domain=(a, b)) == pytest.approx(graded, rel=0, abs=1e-13)

    @pytest.mark.parametrize(
        "f",
        [
            np.tanh,
            lambda t: erf(np.asarray(t) / 2.0),
            lambda t: erf(2.0 * np.asarray(t)),
            lambda t: np.exp(-np.asarray(t) ** 2),
        ],
        ids=["tanh", "erf_half", "erf_double", "gaussian"],
    )
    def test_energy_identity_matches_sliced_reference(self, f, rule96):
        # the closed form against the heat-flow integral it replaces, taken
        # over 32 slices with every Gauss-Hermite node and the boundary flux
        reference = sliced_energy_reference(f, 3, -8.0, 8.0, rule96)
        got = heatflow.energy_identity_residual(f, 3, domain=(-8, 8))
        assert got == pytest.approx(abs(reference), rel=1e-12, abs=0)

    def test_energy_identity_is_one_K_apply(self, solved_p3, monkeypatch):
        calls = []
        original = heatflow.apply_K_panels

        def spy(f, ts, breaks=(), *args, **kwargs):
            calls.append((np.asarray(ts), list(breaks)))
            return original(f, ts, breaks, *args, **kwargs)

        monkeypatch.setattr(heatflow, "apply_K_panels", spy)
        heatflow.energy_identity_residual(solved_p3.phi, 3, domain=(-8, 8))
        assert len(calls) == 1
        ts, breaks = calls[0]
        # K phi is taken at the nodes of the plain t-rule, its kernel graded at the breaks
        assert breaks == [0.0]
        np.testing.assert_array_equal(ts, solver.panel_rule(-8.0, 8.0)[0])

    def test_energy_identity_rejects_nan_within_reach(self, solved_p3):
        # K phi on the window (-8, 8) reaches 12 beyond it: NaN from 14 on
        # lies outside the window but inside the kernel's reach
        cut = 14.0
        phi = lambda t: np.where(np.asarray(t) > cut, np.nan, solved_p3.phi(t))
        with pytest.raises(gaussop.EvaluationError) as err:
            heatflow.energy_identity_residual(phi, 3, domain=(-8, 8))
        assert cut < err.value.node <= 20.0


class TestHeatPolynomial:
    def test_boundary_slice(self):
        ts = np.linspace(-2, 2, 9)
        assert heatflow.heat_polynomial(1, 0.0, ts) == pytest.approx(ts**2 / 2)

    def test_first_order_zeros(self):
        for eps in (0.5, 0.1, 1e-3):
            root = math.sqrt(eps / 2)
            assert heatflow.heat_polynomial(1, eps, root) == pytest.approx(0.0, abs=1e-15)
            assert heatflow.heat_polynomial(1, eps, 0.5) == pytest.approx(0.125 - eps / 4)

    def test_solves_heat_equation(self):
        u = heatflow.heat_polynomial_interpolant(2)
        assert heatflow.caloric_residual(u, 0.9, 0.3) < 1e-10

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            heatflow.heat_polynomial(0, 0.1, 0.0)

    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("eps", [-0.3, 0.0, 1e-3, 0.5])
    def test_matches_40_digit_monomial_sum(self, n, eps):
        # within rounding of the alternating sum's terms, for eps <= 0 (x >= 1) too;
        # the points include the exact zeros, where the sum cancels worst
        ts = np.linspace(-6.0, 6.0, 25)
        if eps > 0:
            ts = np.concatenate([ts, 0.5 * heatflow.branching_roots(n) * math.sqrt(eps)])
        for t, value in zip(ts, heatflow.heat_polynomial(n, eps, ts)):
            with mpmath.workdps(40):
                terms = [
                    (-1) ** m
                    * mpmath.mpf(t) ** (2 * n - 2 * m)
                    / (mpmath.factorial(2 * n - 2 * m) * mpmath.factorial(m))
                    * (mpmath.mpf(eps) / 4) ** m
                    for m in range(n + 1)
                ]
                assert abs(value - sum(terms)) <= 2e-15 * sum(abs(term) for term in terms)


class TestBranchingRoots:
    def test_n1_exact(self):
        roots = heatflow.branching_roots(1)
        assert roots == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)

    def test_n2_nested_radicals(self):
        roots = heatflow.branching_roots(2)
        expected = sorted(
            [
                -math.sqrt(6 + 2 * math.sqrt(6)),
                -math.sqrt(6 - 2 * math.sqrt(6)),
                math.sqrt(6 - 2 * math.sqrt(6)),
                math.sqrt(6 + 2 * math.sqrt(6)),
            ]
        )
        assert roots == pytest.approx(expected, abs=1e-10)

    def test_n3_printed_values(self):
        roots = heatflow.branching_roots(3)
        assert roots == pytest.approx([-4.70, -2.67, -0.87, 0.87, 2.67, 4.70], abs=1e-2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_symmetry_and_positivity(self, n):
        roots = heatflow.branching_roots(n)
        assert roots.size == 2 * n
        assert roots == pytest.approx(-roots[::-1], abs=1e-12)
        squared = np.sort(roots[roots > 0] ** 2)
        assert np.all(np.diff(squared) > 0)  # distinct Lambda roots

    @pytest.mark.parametrize("n", range(1, 21))
    def test_against_mpmath_roots(self, n):
        with mpmath.workdps(30):
            coeffs = [
                mpmath.mpf(-1) ** m / (mpmath.factorial(2 * n - 2 * m) * mpmath.factorial(m))
                for m in range(n + 1)
            ]
            lam = sorted(mpmath.re(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=60))
            positive = np.array([float(mpmath.sqrt(L)) for L in lam])
        reference = np.concatenate([-positive[::-1], positive])
        ulps = np.abs(heatflow.branching_roots(n) - reference) / np.spacing(np.abs(reference))
        assert np.max(ulps) <= 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            heatflow.branching_roots(0)
        with pytest.raises(ValueError):
            heatflow.branching_roots(21)


class TestTrackZeros:
    def test_exact_roots_first_order(self):
        u = heatflow.heat_polynomial_interpolant(1)
        for eps in (0.3, 0.01, 1e-4):
            tracked = heatflow.track_zeros(u, 1, eps)
            assert not tracked.mismatch
            root = math.sqrt(eps / 2)
            assert tracked.roots == pytest.approx([-root, root], abs=1e-12)
            assert tracked.predicted == pytest.approx([-root, root], abs=1e-15)

    def test_second_order_matches_prediction(self):
        u = heatflow.heat_polynomial_interpolant(2)
        tracked = heatflow.track_zeros(u, 2, 1e-4)
        assert not tracked.mismatch
        assert np.max(np.abs(tracked.roots - tracked.predicted)) < 1e-6

    def test_rate_on_perturbed_interpolant(self):
        # boundary t^4/4! + t^6/200 still has a multiplicity-4 zero: the
        # tracked roots approach the predictions at the sqrt(eps) rate
        def u(x, t):
            s = (1.0 - x) / 4.0
            t = np.asarray(t, dtype=float)
            caloric_t6 = t**6 - 30 * s * t**4 + 180 * s**2 * t**2 - 120 * s**3
            return heatflow.heat_polynomial(2, 1.0 - x, t) + caloric_t6 / 200.0

        deviations = []
        for eps in (1e-2, 1e-3, 1e-4):
            tracked = heatflow.track_zeros(u, 2, eps)
            assert not tracked.mismatch
            deviations.append(np.max(np.abs(tracked.roots - tracked.predicted)) / math.sqrt(eps))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] / deviations[0] < 0.2

    def test_mismatch_reported_not_raised(self):
        # claiming n=2 for the first-order polynomial finds 2 roots, not 4
        u = heatflow.heat_polynomial_interpolant(1)
        tracked = heatflow.track_zeros(u, 2, 1e-2)
        assert tracked.mismatch
        assert tracked.roots.size == 2

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 20])
    @pytest.mark.parametrize("eps", [0.5, 1e-2, 1e-4, 1e-8, 1e-12])
    def test_roots_are_the_exact_zeros(self, n, eps):
        # the predictions are the heat polynomial's exact zeros at the tracked eps
        tracked = heatflow.track_zeros(heatflow.heat_polynomial_interpolant(n), n, eps)
        assert not tracked.mismatch
        assert tracked.eps == 1.0 - (1.0 - eps)
        assert np.max(np.abs(tracked.roots - tracked.predicted) / np.abs(tracked.predicted)) <= 1e-15

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            heatflow.track_zeros(heatflow.heat_polynomial_interpolant(1), 1, 0.0)
        with pytest.raises(ValueError):
            heatflow.track_zeros(heatflow.heat_polynomial_interpolant(1), 1, 0.7)


class TestKernelEstimate:
    def test_unit_time_constant(self):
        assert heatflow.kernel_estimate_bound(2, 1.0) == pytest.approx(
            2 ** (-1 / 6) * math.sqrt(1.5), abs=1e-12
        )
        assert heatflow.kernel_estimate_bound(2, 1.0) == pytest.approx(1.0911, abs=1e-4)

    def test_margin_for_constant_solution(self, rule96):
        margin = heatflow.kernel_estimate_check(const_one, 2, 1.0, np.linspace(-2, 2, 9), rule96)
        assert margin == pytest.approx(heatflow.kernel_estimate_bound(2, 1.0) - 1.0, abs=1e-10)

    def test_q1_at_unit_time_rejected(self):
        with pytest.raises(ValueError):
            heatflow.kernel_estimate_bound(1, 1.0)

    def test_q1_beyond_threshold_allowed(self):
        assert heatflow.kernel_estimate_bound(1, 2.0) > 0

    def test_x_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            heatflow.kernel_estimate_bound(2, 0.3)  # needs x > 1/3


class TestZeroClassification:
    def test_multiplicity_of_quartic(self):
        # the zero sits on a node (0 exactly), so no sign change is needed to find it
        ts = np.arange(-80, 81) / 40.0
        report = heatflow.zero_report(basis.GridFunction(ts, ts**4))
        assert report.zeros == [(0.0, 4)]
        assert not report.jumps

    def test_fractional_exponent_detected(self):
        ladder = 2.0 ** -np.arange(6, 18)
        assert solver._zero_exponent(np.cbrt, 0.0, ladder) == pytest.approx(1 / 3, abs=1e-6)

    def test_zero_report_separates_jumps_and_zeros(self):
        ts = np.linspace(-3, 3, 241)
        vals = np.where(ts < 1.0, ts, ts - 4.0)
        report = heatflow.zero_report(basis.GridFunction(ts, vals))
        assert len(report.zeros) == 1
        loc, mult = report.zeros[0]
        assert loc == pytest.approx(0.0, abs=1e-10)
        assert mult == 1
        assert len(report.jumps) == 1
        jump_loc, saltus = report.jumps[0]
        assert jump_loc == pytest.approx(1.0, abs=0.05)
        assert saltus == pytest.approx(-4.0, abs=0.1)

    def test_zero_report_multiplicity_three(self):
        ts = np.linspace(-2, 2, 161)
        report = heatflow.zero_report(basis.GridFunction(ts, ts**3))
        assert len(report.zeros) == 1
        assert report.zeros[0][1] == 3
        assert not report.jumps

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_zero_report_high_multiplicity_on_a_coarse_grid(self, n):
        # step 0.025: the ladder's whole grid steps keep the linear
        # interpolant exact at the node zero, so a high order is not flattened
        ts = np.arange(-80, 81) / 40.0
        report = heatflow.zero_report(basis.GridFunction(ts, ts**n))
        assert report.zeros == [(0.0, n)]
        assert not report.jumps


class TestSolutionDiagnostics:
    def test_limits_and_flat_power_derivative(self, solved_p3):
        # boundary limits of the converged solution sit near +-1 and the
        # derivative of its cube flattens out in the tails
        report = solver.limit_diagnostics(solved_p3.grid, 3)
        assert (report.left_limit, report.right_limit) == (-1.0, 1.0)
        assert report.left_distance < 1e-2 and report.right_distance < 1e-2
        assert abs(report.dpow_left) < 1e-2 and abs(report.dpow_right) < 1e-2
