import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from padic_string import basis, gaussop, heatflow, solver

from conftest import const_one, hermite_fn

SQRT_PI = math.sqrt(math.pi)
_GRID = np.linspace(-20.0, 20.0, 161)
_POWER_INTERPOLANT = solver.power_interpolant(_GRID, np.tanh(_GRID), 3)


class TestApplyKGrid:
    def test_fixes_constants(self, rule96):
        ts = np.linspace(-3, 3, 25)
        out = gaussop.apply_K_point(const_one, ts, rule96)
        assert out == pytest.approx(np.ones_like(ts), abs=1e-14)

    def test_cosine_eigenrelation(self, rule64):
        ts = np.arange(-3.0, 3.01, 0.05)
        out = gaussop.apply_K_point(lambda t: np.cos(t), ts, rule64)
        assert np.max(np.abs(out - math.exp(-0.25) * np.cos(ts))) < 1e-10

    def test_gaussian_growth(self, rule96):
        # K e^{t^2/3} = sqrt(3/2) e^{t^2/2} by completing the square
        ts = np.arange(-2.0, 2.01, 0.1)
        out = gaussop.apply_K_point(lambda t: np.exp(np.asarray(t) ** 2 / 3), ts, rule96)
        expected = math.sqrt(1.5) * np.exp(ts**2 / 2)
        assert np.max(np.abs(out - expected)) < 1e-9

    @pytest.mark.parametrize(
        "smooth",
        [
            lambda f, t, rule: gaussop.apply_K_point(f, t, rule),
            lambda f, t, rule: heatflow.poisson_eval(f, 1.0, t, rule),
            lambda f, t, rule: heatflow.poisson_dt(f, 1.0, t, rule),
        ],
        ids=["apply_K_point", "poisson_eval", "poisson_dt"],
    )
    def test_nonfinite_value_reports_node(self, rule96, smooth):
        def bad(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 4.0) & (t < 5.0), np.nan, t)

        # t = -1 meets the bad window at a lower node index than t = 0 does,
        # so only the t-major order (t first, then node) reports t = 0
        ts = np.array([0.0, -1.0])
        samples = (ts[:, None] - rule96.nodes).ravel()
        expected = samples[np.flatnonzero(np.isnan(bad(samples)))[0]]
        with pytest.raises(gaussop.EvaluationError) as err:
            smooth(bad, ts, rule96)
        assert err.value.node == expected
        node_major = (ts[None, :] - rule96.nodes[:, None]).ravel()
        assert node_major[np.flatnonzero(np.isnan(bad(node_major)))[0]] != expected


class TestGaussMomentOrder:
    """gauss_moment calls f once, in t-major order, and sums exactly as the t-major formula."""

    @given(
        shape=hnp.array_shapes(min_dims=0, max_dims=2, max_side=8),
        data=st.data(),
        k=st.integers(min_value=0, max_value=3),
        x=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
        M=st.sampled_from([5, 32, 96]),
        which=st.sampled_from(["erf", "tanh", "interpolant"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_t_major_reference(self, shape, data, k, x, M, which):
        t = data.draw(hnp.arrays(float, shape, elements=st.floats(-6.0, 6.0)))
        rule = basis.gauss_hermite_rule(M)
        base = {"erf": erf, "tanh": np.tanh, "interpolant": _POWER_INTERPOLANT}[which]
        calls = []

        def f(tau):
            calls.append(np.shape(tau))
            return base(tau)

        got = gaussop.gauss_moment(f, t, rule, x, k)
        shifted = np.asarray(t)[..., None] - math.sqrt(x) * rule.nodes
        ref = base(shifted) @ (rule.weights * rule.nodes**k) / SQRT_PI
        assert np.array_equal(got, ref)
        assert calls == [(int(np.size(t)) * M,)]


class TestApplyKSeries:
    def test_H2_maps_to_monomial(self, rule96):
        # K H_2 = 4 t^2: Taylor data (0, 0, 8) means 8 t^2/2!
        series = basis.HermiteSeries("H", [0, 0, 8.0])
        taylor = gaussop.apply_K_series(series)
        assert taylor.coeffs == pytest.approx([0, 0, 8.0])
        ts = np.linspace(-2, 2, 9)
        direct = gaussop.apply_K_point(hermite_fn(2), ts, rule96)
        assert taylor(ts) == pytest.approx(direct, abs=1e-12)

    def test_constant(self):
        taylor = gaussop.apply_K_series(basis.HermiteSeries("H", [1.0]))
        assert taylor(np.linspace(-5, 5, 7)) == pytest.approx(np.ones(7))

    def test_H1_path_agreement(self, rule96):
        # f = H_1 = 2t has a_1 = 2, and K(2t) = 2t
        series = basis.project(hermite_fn(1), 1.0, 3, rule96)
        assert series.coeffs == pytest.approx([0, 2, 0, 0], abs=1e-12)
        taylor = gaussop.apply_K_series(series)
        ts = np.linspace(-3, 3, 13)
        assert taylor(ts) == pytest.approx(2 * ts, abs=1e-10)
        assert gaussop.apply_K_point(hermite_fn(1), ts, rule96) == pytest.approx(2 * ts, abs=1e-12)

    def test_rejects_V_basis(self):
        with pytest.raises(ValueError):
            gaussop.apply_K_series(basis.HermiteSeries("V", [1.0]))

    def test_path_agreement_random_polynomials(self, rule96):
        rng = np.random.default_rng(5)
        ts = np.arange(-3.0, 3.01, 0.25)
        for _ in range(10):
            coeffs = rng.standard_normal(11) / np.array([math.factorial(k) for k in range(11)])
            f = lambda t, c=coeffs: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)
            taylor = gaussop.apply_K_series(basis.project(f, 1.0, 10, rule96))
            grid = gaussop.apply_K_point(f, ts, rule96)
            assert np.max(np.abs(taylor(ts) - grid)) < 1e-8


class TestAdjoint:
    def test_adjoint_identity_gaussian(self, rule96):
        f = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2)
        kf = lambda t: gaussop.apply_K_point(f, t, rule96)
        lhs = basis.inner_product(kf, hermite_fn(2), 1.0, rule96)
        rhs = basis.inner_product(f, lambda t: basis.eval_V(2, t), 0.5, rule96)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_adjoint_identity_random_polynomial(self, rule96):
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal(7) / np.array([math.factorial(k) for k in range(7)])
        f = lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)
        kf = lambda t: gaussop.apply_K_point(f, t, rule96)
        lhs = basis.inner_product(kf, hermite_fn(5), 1.0, rule96)
        rhs = basis.inner_product(f, lambda t: basis.eval_V(5, t), 0.5, rule96)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_conservation_identity_over_random_data(self, n, rule96):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            coeffs = rng.standard_normal(6) / np.array([math.factorial(k) for k in range(6)])
            f = lambda t, c=coeffs: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)
            kf = lambda t, g=f: gaussop.apply_K_point(g, t, rule96)
            lhs = basis.inner_product(kf, hermite_fn(n), 1.0, rule96)
            rhs = basis.inner_product(f, lambda t, m=n: basis.eval_V(m, t), 0.5, rule96)
            assert abs(lhs - rhs) < 1e-8


class TestBounds:
    def test_half_to_one_constant(self):
        assert gaussop.norm_bound(0.5, 1.0) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_alpha_one_large_beta_limit(self):
        assert gaussop.norm_bound(1.0, 1e12) == pytest.approx(1.0, abs=1e-6)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            gaussop.norm_bound(2.0, 10.0)
        with pytest.raises(ValueError):
            gaussop.norm_bound(0.5, 0.5)  # needs beta > 2/3

    def test_norm_inequality_random_polynomials(self, rule96):
        rng = np.random.default_rng(2)
        bound = gaussop.norm_bound(0.5, 1.0)
        for _ in range(50):
            coeffs = rng.standard_normal(9) / np.array([math.factorial(k) for k in range(9)])
            f = lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)
            kf = gaussop.apply_K_series(basis.project(f, 1.0, 8, rule96))
            norm_kf = math.sqrt(max(basis.inner_product(kf, kf, 1.0, rule96), 0.0))
            norm_f = math.sqrt(max(basis.inner_product(f, f, 0.5, rule96), 0.0))
            assert norm_kf <= bound * norm_f + 1e-9

    def test_entire_bound_values(self):
        assert gaussop.entire_bound(0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)
        assert gaussop.entire_bound(0.0, 1.0, 1.0, 1.0) == pytest.approx(math.e)
        with pytest.raises(ValueError):
            gaussop.entire_bound(0.0, 0.0, 2.5, 1.0)

    def test_entire_bound_dominates_KH2_on_imaginary_axis(self):
        # K H_2 extends to 4 z^2; |4 (iy)^2| = 4 y^2
        norm_H2 = math.sqrt(8.0)
        for y in np.linspace(0, 2, 9):
            assert 4 * y**2 <= gaussop.entire_bound(0.0, y, 1.0, norm_H2) + 1e-12


class TestSpectrum:
    def test_const_and_linear(self, rule96):
        f, lam = gaussop.eigenfunction(gaussop.EigenfunctionSpec(xi=0.0, kind="const"))
        assert lam == 1.0
        assert f(2.5) == pytest.approx(1.0)
        g, lam_lin = gaussop.eigenfunction(gaussop.EigenfunctionSpec(xi=0.0, kind="linear"))
        assert lam_lin == 1.0
        ts = np.arange(-3.0, 3.01, 0.05)
        assert np.max(np.abs(gaussop.apply_K_point(g, ts, rule96) - ts)) < 1e-10

    def test_eigenvalue_formula(self):
        _, lam = gaussop.eigenfunction(gaussop.EigenfunctionSpec(xi=2.0, kind="cos"))
        assert lam == pytest.approx(math.exp(-1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            gaussop.EigenfunctionSpec(xi=0.0, kind="cos")
        with pytest.raises(ValueError):
            gaussop.EigenfunctionSpec(xi=1.0, kind="const")
        with pytest.raises(ValueError):
            gaussop.EigenfunctionSpec(xi=1.0, kind="sawtooth")

    def test_spectral_containment_random_frequencies(self, rule96):
        rng = np.random.default_rng(4)
        ts = np.arange(-3.0, 3.01, 0.05)
        for xi in rng.uniform(0.0, 4.0, size=20):
            f = lambda t: np.cos(xi * np.asarray(t, dtype=float))
            kv = gaussop.apply_K_point(f, ts, rule96)
            assert np.max(np.abs(kv - math.exp(-(xi**2) / 4) * f(ts))) < 1e-8

    def test_positivity_and_contraction_on_L2(self, rule96):
        # compactly supported random profiles; operator is positive and
        # non-expansive on the unweighted L2 line
        rng = np.random.default_rng(8)
        knots = np.linspace(-2, 2, 17)
        wide = np.linspace(-10, 10, 4001)
        for _ in range(10):
            vals = rng.standard_normal(17)
            vals[0] = vals[-1] = 0.0
            f = lambda t: np.interp(np.asarray(t, dtype=float), knots, vals, left=0.0, right=0.0)
            kf = gaussop.apply_K_point(f, wide, rule96)
            quad_kf_f = np.trapezoid(kf * f(wide), wide)
            assert quad_kf_f >= -1e-10
            norm_f = math.sqrt(np.trapezoid(f(wide) ** 2, wide))
            norm_kf = math.sqrt(np.trapezoid(kf**2, wide))
            assert norm_kf <= norm_f * (1 + 1e-10)


class TestPeriodicSolutions:
    def test_k_zero_is_constant(self):
        phi, u = gaussop.periodic_solution(0, +1)
        ts = np.linspace(-3, 3, 7)
        assert phi(ts) == pytest.approx(np.ones(7))
        assert u(0.37, ts) == pytest.approx(np.ones(7))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_fixed_point_of_K(self, sign, rule96):
        phi, _ = gaussop.periodic_solution(1, sign)
        ts = np.arange(-1.5, 1.51, 0.05)
        kv = gaussop.apply_K_point(phi, ts, rule96)
        assert np.max(np.abs(kv - phi(ts))) < 1e-7

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_heat_equation_residual(self, sign):
        from padic_string.heatflow import caloric_residual

        _, u = gaussop.periodic_solution(1, sign)
        assert caloric_residual(u, 0.3, 0.2, h=1e-3) < 1e-8

    def test_period_one_and_boundary_slice(self):
        phi, u = gaussop.periodic_solution(2, +1)
        ts = np.linspace(-1, 1, 11)
        assert u(1.0, ts) == pytest.approx(phi(ts), abs=1e-12)
        assert u(0.25, ts) == pytest.approx(u(1.25, ts), abs=1e-12)


def _term_by_term_blocks(coeffs, kappa):
    """The (6.8) block sums one term at a time, as a reference for linear_block_residual."""
    out = []
    k = 0
    while 2 + 4 * k + kappa < len(coeffs):
        start = 2 + 4 * k + kappa
        r1 = 0.0
        r2 = 0.0
        for l, idx in enumerate(range(start, len(coeffs), 4)):
            r1 += coeffs[idx] / (2.0 ** (4 * l) * math.factorial(2 * l + 1))
            r2 += coeffs[idx] / (2.0 ** (4 * l) * math.factorial(2 * l + 2))
        out.extend([r1, r2])
        k += 1
    return out


class TestLinearBlocks:
    def test_free_head_coefficients(self):
        series = basis.HermiteSeries("H", [3.7, -1.2])
        for kappa in range(4):
            assert gaussop.linear_block_residual(series, kappa) == []

    def test_single_H4_chain_value(self):
        # the alternating chain behind the blocks is the signed conversion minus the diagonal
        a4 = 2.0**4 * math.factorial(4)
        series = basis.HermiteSeries("V", [0, 0, 0, 0, a4])
        assert basis.convert_b_to_a(series, 4).coeffs[0] == pytest.approx(12.0)

    def test_oscillating_solution_blocks_vanish(self):
        # coefficients of e^{2 sqrt(pi) t} cos(2 sqrt(pi) t) are Re[(2 sqrt(pi) (1+i))^n];
        # the factorial damping beats their growth only past index ~57
        lam = 2 * math.sqrt(math.pi) * complex(1, 1)
        coeffs = np.array([(lam**n).real for n in range(61)])
        series = basis.HermiteSeries("H", coeffs)
        for kappa in range(4):
            res = gaussop.linear_block_residual(series, kappa)
            assert abs(res[0]) < 1e-4 and abs(res[1]) < 1e-4

    def test_projection_matches_closed_form(self):
        phi, _ = gaussop.periodic_solution(1, +1)
        rule = basis.gauss_hermite_rule(160)
        proj = basis.project(phi, 1.0, 40, rule)
        lam = 2 * math.sqrt(math.pi) * complex(1, 1)
        closed = np.array([(lam**n).real for n in range(41)])
        scale = np.maximum(np.abs(lam) ** np.arange(41), 1.0)
        assert np.max(np.abs(proj.coeffs - closed) / scale) < 1e-10

    @pytest.mark.parametrize("kappa", range(4))
    def test_matches_the_term_by_term_sums(self, kappa):
        # coefficients grown like 5^n, so the alternating blocks mix large middle terms
        rng = np.random.default_rng(31 + kappa)
        for order in range(2, 41):
            coeffs = rng.standard_normal(order + 1) * 5.0 ** np.arange(order + 1)
            got = gaussop.linear_block_residual(basis.HermiteSeries("H", coeffs), kappa)
            assert got == pytest.approx(_term_by_term_blocks(coeffs, kappa), rel=1e-13)  # 3.5e-14 at most

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            gaussop.linear_block_residual(basis.HermiteSeries("H", [1.0]), 4)
        with pytest.raises(ValueError):
            gaussop.linear_block_residual(basis.HermiteSeries("V", [1.0]), 0)


def test_taylor_series_convention():
    taylor = gaussop.TaylorSeries([1.0, 0.0, -3.0])
    # entry n multiplies t^n/n!
    assert taylor(2.0) == pytest.approx(1.0 - 3.0 * 4.0 / 2.0)
