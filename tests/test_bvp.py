import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from padic_string import basis, bvp, solver

ALPHA = math.sqrt(1.1)
PRINTED_C = np.array([0.3014, 0.1648, -0.05016, 0.04494])
PRINTED_MONOMIALS = np.array([0.4017, -0.2200, -0.2207, 0.4149])
INV_SQRT_2PI = 1.0 / math.sqrt(2 * math.pi)


def _closed_form_monomials(az):
    n = az.c.size
    return np.array(
        [az.alpha**k * math.fsum(az.c[m] * math.factorial(m) * basis.coeff_c(m, k) for m in range(n)) for k in range(n)]
    )


def erf_step(t):
    return 0.5 + 0.5 * erf(np.asarray(t, dtype=float))


class TestBaseCoefficients:
    def test_head(self):
        assert bvp.erf_base_coeff(0) == 0.5

    def test_even_vanish(self):
        for n in (2, 4, 6, 10):
            assert bvp.erf_base_coeff(n) == 0.0

    def test_first_odd(self):
        assert bvp.erf_base_coeff(1) == pytest.approx(INV_SQRT_2PI, abs=1e-15)
        assert bvp.erf_base_coeff(3) == pytest.approx(-INV_SQRT_2PI, abs=1e-15)
        assert bvp.erf_base_coeff(5) == pytest.approx(3 * INV_SQRT_2PI, abs=1e-14)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_against_quadrature(self, n):
        rule = basis.gauss_hermite_rule(128)
        quad = basis.inner_product(erf_step, lambda t, m=n: basis.eval_H(m, t), 1.0, rule)
        closed = bvp.erf_base_coeff(n)
        assert abs(quad - closed) < 1e-10 * max(1.0, abs(closed))

    @pytest.mark.parametrize("n", range(1, 16, 2))
    def test_odd_against_mpmath(self, n):
        # for odd n the integrand erf(t) H_n(t) e^{-t^2} is even, so the
        # coefficient of 1/2 + erf/2 is pi^(-1/2) int_0^inf of it
        with mpmath.workdps(20):
            integral = mpmath.quad(lambda t: mpmath.erf(t) * mpmath.hermite(n, t) * mpmath.exp(-t * t), [0, mpmath.inf])
            reference = float(integral / mpmath.sqrt(mpmath.pi))
        assert abs(bvp.erf_base_coeff(n) - reference) <= 1e-14 * abs(reference)


class TestAnsatzCoefficients:
    def test_head_relation(self):
        az = bvp.ErfAnsatz(alpha=ALPHA, c=[0.2, 0.0, 0.0, 0.0])
        assert bvp.ansatz_to_hermite(az, 0) == pytest.approx(0.5 + 0.2 / ALPHA, abs=1e-15)

    def test_cubic_relation(self):
        c = [0.0, 0.3, 0.0, 0.1]
        az = bvp.ErfAnsatz(alpha=ALPHA, c=c)
        expected = (
            -INV_SQRT_2PI
            - 12 * 0.3 * (ALPHA**2 - 1) / ALPHA**4
            + 48 * 0.1 / ALPHA**4
        )
        assert bvp.ansatz_to_hermite(az, 3) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_reduces_to_base_without_correction(self, n):
        az = bvp.ErfAnsatz(alpha=ALPHA, c=[0.0, 0.0, 0.0, 0.0])
        assert bvp.ansatz_to_hermite(az, n) == bvp.erf_base_coeff(n)

    def test_matches_projection(self):
        rng = np.random.default_rng(3)
        rule = basis.gauss_hermite_rule(128)
        az = bvp.ErfAnsatz(alpha=ALPHA, c=rng.normal(scale=0.05, size=5))
        series = basis.project(az, 1.0, 8, rule)
        closed = np.array([bvp.ansatz_to_hermite(az, n) for n in range(9)])
        assert series.coeffs == pytest.approx(closed, abs=1e-8)


class TestTriangularInversion:
    def test_printed_table(self):
        c = bvp.solve_bvp_3approx(ALPHA)
        assert np.max(np.abs(c - PRINTED_C)) < 2e-4

    def test_generic_alpha_head(self):
        for alpha in (1.02, ALPHA, 1.3):
            c = bvp.solve_bvp_3approx(alpha)
            a0 = bvp.branch_c_targets(+1)[0]
            assert c[0] == pytest.approx(alpha * (a0 - 0.5), abs=1e-14)
            assert c[0] == pytest.approx(0.2873 * alpha, abs=1e-4)

    def test_bare_base_targets_need_no_correction(self):
        targets = (0.5, INV_SQRT_2PI, 0.0, -INV_SQRT_2PI)
        c = bvp.solve_bvp_3approx(ALPHA, targets)
        assert np.max(np.abs(c)) < 1e-14

    def test_round_trip_is_exact(self):
        targets = bvp.branch_c_targets(+1)
        c = bvp.solve_bvp_3approx(ALPHA, targets)
        az = bvp.ErfAnsatz(alpha=ALPHA, c=c)
        back = np.array([bvp.ansatz_to_hermite(az, n) for n in range(4)])
        assert back == pytest.approx(np.asarray(targets), abs=1e-10)

    def test_minus_branch(self):
        # negating the odd targets keeps c0, c2 and shifts c1, c3 (the erf
        # base contributes fixed odd coefficients, so the c's do not just
        # change sign)
        a0, a1, a2, a3 = bvp.branch_c_targets(+1)
        assert bvp.branch_c_targets(-1) == pytest.approx((a0, -a1, a2, -a3))
        c_plus = bvp.solve_bvp_3approx(ALPHA, (a0, a1, a2, a3))
        c_minus = bvp.solve_bvp_3approx(ALPHA, (a0, -a1, a2, -a3))
        assert c_minus[0] == pytest.approx(c_plus[0])
        assert c_minus[2] == pytest.approx(c_plus[2])
        assert c_minus[1] == pytest.approx(ALPHA**2 * (-a1 - INV_SQRT_2PI) / 2, abs=1e-14)
        assert c_minus[1] == pytest.approx(-0.60358, abs=1e-4)
        expected_c3 = ALPHA**4 * (-a3 + INV_SQRT_2PI) / 48 + c_minus[1] * (ALPHA**2 - 1) / 4
        assert c_minus[3] == pytest.approx(expected_c3, abs=1e-14)
        # the two assembled candidates are not mirror images of each other
        plus = bvp.ErfAnsatz(alpha=ALPHA, c=c_plus)
        minus = bvp.ErfAnsatz(alpha=ALPHA, c=c_minus)
        ts = np.linspace(-2, 2, 21)
        assert np.max(np.abs(minus(ts) - plus(-ts))) > 0.01
        back = [bvp.ansatz_to_hermite(minus, n) for n in range(4)]
        assert back == pytest.approx([a0, -a1, a2, -a3], abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            bvp.solve_bvp_3approx(1.0)
        with pytest.raises(ValueError):
            bvp.ErfAnsatz(alpha=0.9, c=[0.0])


class TestAssembledSolution:
    def test_value_at_origin(self):
        az = bvp.ErfAnsatz(alpha=ALPHA, c=PRINTED_C)
        assert az(0.0) == pytest.approx(0.5 + 0.4017, abs=2e-4)

    def test_monomial_form_matches_printed_line(self):
        az = bvp.ErfAnsatz(alpha=ALPHA, c=PRINTED_C)
        mono = bvp.gaussian_part_monomials(az)
        assert np.max(np.abs(mono - PRINTED_MONOMIALS)) < 3e-4

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("alpha_sq", [1.05, 1.1, 1.5, 2.5])
    def test_monomials_match_the_closed_form_on_the_cli_draws(self, alpha_sq, sign):
        # H_m(x) = m! sum_k c_{m,k} x^k, so the coefficient of t^k is alpha^k sum_m c_m m! c_{m,k}
        alpha = math.sqrt(alpha_sq)
        az = bvp.ErfAnsatz(alpha=alpha, c=bvp.solve_bvp_3approx(alpha, bvp.branch_c_targets(sign)))
        assert bvp.gaussian_part_monomials(az) == pytest.approx(_closed_form_monomials(az), rel=1e-14, abs=1e-16)

    @pytest.mark.parametrize("c", [[0.3014, 0.1648, -0.05016, 0.0], [0.3014, 0.0, 0.0], [0.0]])
    def test_monomials_keep_one_entry_per_c_when_its_tail_is_zero(self, c):
        az = bvp.ErfAnsatz(alpha=ALPHA, c=c)
        mono = bvp.gaussian_part_monomials(az)
        assert mono.shape == (len(c),)
        assert mono == pytest.approx(_closed_form_monomials(az), rel=1e-14, abs=1e-16)

    def test_hermite_vs_monomial_evaluation(self):
        # the printed monomial line of the damped factor against the
        # Hermite form; the four-digit rounding of the cubic coefficient
        # alone contributes ~1.3e-4 * t^3 * e^{-0.1 t^2}, which passes 3e-4
        # near the origin and grows to ~7e-4 by |t| = 2
        az = bvp.ErfAnsatz(alpha=ALPHA, c=PRINTED_C)
        ts = np.linspace(-1.4, 1.4, 57)
        printed = np.exp(-0.1 * ts**2) * np.polynomial.polynomial.polyval(ts, PRINTED_MONOMIALS)
        assert np.max(np.abs(printed - az.correction(ts))) < 3e-4
        wide = np.linspace(-2, 2, 81)
        printed_wide = np.exp(-0.1 * wide**2) * np.polynomial.polynomial.polyval(wide, PRINTED_MONOMIALS)
        assert np.max(np.abs(printed_wide - az.correction(wide))) < 1e-3

    def test_boundary_limits(self):
        # the bare erf base settles by |t| = 8; with the printed correction
        # the Gaussian damping needs |t| ~ 16 to beat the cubic growth
        bare = bvp.ErfAnsatz(alpha=ALPHA, c=[0.0])
        assert bare(-8.0) == pytest.approx(0.0, abs=1e-6)
        assert bare(8.0) == pytest.approx(1.0, abs=1e-6)
        az = bvp.ErfAnsatz(alpha=ALPHA, c=PRINTED_C)
        assert az(-25.0) == pytest.approx(0.0, abs=1e-6)
        assert az(25.0) == pytest.approx(1.0, abs=1e-6)

    def test_eval_alias(self):
        az = bvp.ErfAnsatz(alpha=ALPHA, c=PRINTED_C)
        ts = np.linspace(-1, 1, 5)
        assert az(ts) == pytest.approx(0.5 + 0.5 * erf(ts) + az.correction(ts))

    def test_residual_reported_without_bar(self):
        # which residual the truncation minimizes is left open; the value
        # is recorded as evidence only
        az = bvp.ErfAnsatz(alpha=ALPHA, c=PRINTED_C)
        value = solver.residual(az, 2, ts=np.arange(-1.0, 1.01, 0.1))
        assert math.isfinite(value)


class TestOddAnsatz:
    def test_erf_seed_residual_is_order_one(self):
        value = solver.residual(lambda t: erf(np.asarray(t, dtype=float)), 3)
        assert 0.1 < value < 0.5


class TestLocalZeroAnalysis:
    def test_synthetic_cube_root(self):
        f = lambda t: np.cbrt(np.asarray(t, dtype=float)) * np.exp(-np.asarray(t, dtype=float) ** 2)
        report = bvp.local_zero_analysis(f, 1)
        assert report.fitted_exponent == pytest.approx(1 / 3, rel=0.02)
        assert not report.violation

    def test_linear_degenerate_case(self):
        report = bvp.local_zero_analysis(lambda t: np.asarray(t, dtype=float), 0)
        assert report.fitted_exponent == pytest.approx(1.0, rel=0.02)
        assert report.expected_exponent == 1.0

    def test_converged_solution(self, solved_p3):
        report = bvp.local_zero_analysis(solved_p3.grid, 1)
        assert abs(report.fitted_exponent - 1 / 3) < 0.05 / 3
        assert report.a1 > 0
        assert not report.violation

    def test_a1_against_grid_quadrature(self, solved_p3):
        # independent evaluation of the defining moment on a fine grid
        ts = np.linspace(0.0, 10.0, 20001)
        integrand = solved_p3.phi(ts) * np.exp(-(ts**2)) * ts
        a1 = 4.0 / math.sqrt(math.pi) * np.trapezoid(integrand, ts)
        report = bvp.local_zero_analysis(solved_p3.grid, 1)
        assert report.a1 == pytest.approx(a1, abs=1e-6)

    def test_measures_about_the_located_zero(self):
        cube_root = lambda t: np.cbrt(np.asarray(t, dtype=float)) * np.exp(-np.asarray(t, dtype=float) ** 2)
        centred = bvp.local_zero_analysis(cube_root, 1)
        shifted = bvp.local_zero_analysis(lambda t: cube_root(np.asarray(t, dtype=float) - 0.7), 1)
        assert shifted.fitted_exponent == pytest.approx(centred.fitted_exponent, abs=1e-9)
        assert shifted.a1 == pytest.approx(centred.a1, abs=1e-12)

    def test_rejects_candidates_without_a_zero(self):
        with pytest.raises(ValueError, match="exactly once"):
            bvp.local_zero_analysis(lambda t: 2.0 + np.tanh(np.asarray(t, dtype=float)), 1)

    def test_rejects_even_candidates(self):
        with pytest.raises(ValueError):
            bvp.local_zero_analysis(lambda t: np.cos(np.asarray(t, dtype=float)), 1)

    def test_sign_change_count_is_odd(self, solved_p3):
        flips = solver.detect_sign_changes(solved_p3.phi, -8.0, 8.0)
        assert len(flips) % 2 == 1


class TestChiSystemCompleteness:
    def test_projection_reproduces_base(self):
        # completeness sanity for the damped Hermite system
        # chi_n(t) = e^{-(alpha^2-1)t^2} H_n(t): a least-squares projection
        # with 21 members recovers the erf step to ~1e-6 on |t| <= 3.  The
        # fit uses a uniform measure on [-3.2, 3.2] with scaled columns; the
        # L2_1-weighted projection spans the same space but leaves ~1e-3 at
        # the window edge, where its weight e^{-t^2} no longer looks.
        N = 20
        grid = np.linspace(-3.2, 3.2, 400)
        damp = np.exp(-(ALPHA**2 - 1) * grid**2)
        design = np.column_stack([damp * basis.eval_H(n, grid) for n in range(N + 1)])
        scale = np.linalg.norm(design, axis=0)
        coeffs = np.linalg.lstsq(design / scale, erf_step(grid), rcond=None)[0] / scale
        ts = np.linspace(-3, 3, 121)
        synth = np.exp(-(ALPHA**2 - 1) * ts**2) * sum(
            c * basis.eval_H(n, ts) for n, c in enumerate(coeffs)
        )
        assert np.max(np.abs(synth - erf_step(ts))) < 1e-4
