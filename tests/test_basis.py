import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_string import basis

from conftest import const_one, hermite_fn, modified_hermite_fn

SQRT_PI = math.sqrt(math.pi)


class TestQuadrature:
    def test_order_one_is_midpoint(self):
        rule = basis.gauss_hermite_rule(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([SQRT_PI])

    def test_order_two_solves_moment_equations(self):
        # from int e^{-u^2} = sqrt(pi) and int u^2 e^{-u^2} = sqrt(pi)/2
        rule = basis.gauss_hermite_rule(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], abs=1e-14)

    @pytest.mark.parametrize("M", [1, 2, 7, 16, 64, 96, 512])
    def test_second_moment(self, M):
        rule = basis.gauss_hermite_rule(M)
        if M == 1:
            assert rule.weights @ rule.nodes**2 == pytest.approx(0.0)
        else:
            assert rule.weights @ rule.nodes**2 == pytest.approx(SQRT_PI / 2, abs=1e-12)

    @pytest.mark.parametrize("M", [3, 8, 11, 32, 96])
    def test_even_moment_exactness(self, M):
        # int u^{2k} e^{-u^2} = (2k-1)!! sqrt(pi) / 2^k for 2k <= min(2M-1, 20)
        rule = basis.gauss_hermite_rule(M)
        for k in range(0, min(2 * M - 1, 20) // 2 + 1):
            exact = math.prod(range(1, 2 * k, 2)) * SQRT_PI / 2**k
            approx = float(rule.weights @ rule.nodes ** (2 * k))
            assert approx == pytest.approx(exact, rel=1e-10)

    def test_nodes_symmetric_and_increasing(self):
        rule = basis.gauss_hermite_rule(33)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes == pytest.approx(-rule.nodes[::-1])
        assert rule.weights.sum() == pytest.approx(SQRT_PI, abs=1e-12)

    @pytest.mark.parametrize("M", [64, 96, 151, 200, 512])
    def test_against_mpmath_newton_polish(self, M):
        # every 16th node polished by Newton on H_{k+1} = 2x H_k - 2k H_{k-1}
        # at 40 digits; w = 2^{M-1} M! sqrt(pi) / (M H_{M-1}(x))^2
        rule = basis.gauss_hermite_rule(M)
        with mpmath.workdps(40):

            def hermite_pair(x):  # (H_{M-1}(x), H_M(x))
                prev, cur = mpmath.mpf(0), mpmath.mpf(1)
                for k in range(M):
                    prev, cur = cur, 2 * x * cur - 2 * k * prev
                return prev, cur

            for i in range(0, M, 16):
                x = mpmath.mpf(float(rule.nodes[i]))
                for _ in range(8):
                    below, value = hermite_pair(x)
                    step = value / (2 * M * below)
                    x -= step
                    if abs(step) < mpmath.mpf(10) ** -38 * max(1, abs(x)):
                        break
                below, _ = hermite_pair(x)
                weight = mpmath.mpf(2) ** (M - 1) * mpmath.factorial(M) * mpmath.sqrt(mpmath.pi) / (M * below) ** 2
                assert abs(rule.nodes[i] - x) <= 1e-12 * abs(x)
                if weight > 1e-300:
                    assert abs(rule.weights[i] - weight) <= 1e-12 * weight
                else:  # past the double range: the rule's weight underflows too
                    assert rule.weights[i] <= 1e-300

    @pytest.mark.parametrize("M", [1, 2, 33, 96, 512])
    def test_exact_symmetry_and_total_mass(self, M):
        rule = basis.gauss_hermite_rule(M)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert not np.isnan(rule.weights).any()
        assert abs(rule.weights.sum() - SQRT_PI) <= 1e-13

    def test_rule_is_built_once_and_read_only(self):
        rule = basis.gauss_hermite_rule(96)
        assert basis.gauss_hermite_rule(96) is rule
        for arr in (rule.nodes, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("M", [0, -3, 513])
    def test_order_out_of_range(self, M):
        with pytest.raises(ValueError):
            basis.gauss_hermite_rule(M)


class TestErf:
    def test_against_mpmath(self):
        tiny = np.geomspace(5e-324, 7.0, 400)  # from the smallest subnormal up
        t = np.concatenate([np.linspace(-7.0, 7.0, 2801), tiny, -tiny])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.erf(mpmath.mpf(float(x)))) for x in t])
        got = basis._erf(t)
        assert got.dtype == np.float64 and got.shape == t.shape
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_special_values_and_scalars(self):
        got = basis._erf(np.array([np.inf, -np.inf, np.nan, -0.0]))
        assert got[:2].tolist() == [1.0, -1.0] and np.isnan(got[2])
        assert got[3] == 0.0 and math.copysign(1.0, got[3]) == -1.0
        assert type(basis._erf(0.5)) is float and basis._erf(0.5) == math.erf(0.5)
        assert type(basis._erf(np.float64(-1.0))) is float


class TestPolynomials:
    def test_H_small_values(self):
        assert basis.eval_H(2, 1.0) == pytest.approx(2.0)  # H_2 = 4x^2 - 2
        assert basis.eval_H(0, 7.3) == pytest.approx(1.0)
        assert basis.eval_H(4, 0.0) == pytest.approx(12.0)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_H_even_values_at_zero(self, n):
        expected = (-1.0) ** n * math.factorial(2 * n) / math.factorial(n)
        assert basis.eval_H(2 * n, 0.0) == pytest.approx(expected)
        if n <= 12:
            assert basis.eval_H(2 * n + 1 if 2 * n + 1 <= 200 else 1, 0.0) == pytest.approx(0.0)

    def test_V_small_values(self):
        assert basis.eval_V(2, 1.0) == pytest.approx(0.0)  # V_2 = x^2 - 1
        x = np.linspace(-3, 3, 13)
        assert basis.eval_V(1, x) == pytest.approx(x)
        assert basis.eval_V(3, 2.0) == pytest.approx(2.0)  # V_3 = x^3 - 3x

    @pytest.mark.parametrize("n", range(0, 16))
    def test_V_consistent_with_scaled_H(self, n):
        x = np.linspace(-4, 4, 41)
        via_H = 2.0 ** (-n / 2) * basis.eval_H(n, x / math.sqrt(2))
        scale = np.maximum(np.abs(via_H), 1.0)
        assert np.max(np.abs(basis.eval_V(n, x) - via_H) / scale) < 1e-12

    @pytest.mark.parametrize("n", range(0, 13))
    def test_recurrence_matches_monomial_expansion(self, n):
        x = np.linspace(-4, 4, 33)
        expansion = math.factorial(n) * sum(
            basis.coeff_c(n, m) * x**m for m in range(n % 2, n + 1, 2)
        )
        scale = np.maximum(np.abs(expansion), 1.0)
        assert np.max(np.abs(basis.eval_H(n, x) - expansion) / scale) < 1e-9

    @pytest.mark.parametrize("n", range(0, 11))
    def test_V_as_alternating_H_combination(self, n):
        # V_n = 2^{-n} n! sum_{m = n mod 2}^{n} (-1)^{(n-m)/2} H_m / (((n-m)/2)! m!)
        x = np.linspace(-3, 3, 25)
        total = np.zeros_like(x)
        for m in range(n % 2, n + 1, 2):
            j = (n - m) // 2
            total += (-1.0) ** j / (math.factorial(j) * math.factorial(m)) * basis.eval_H(m, x)
        total *= 2.0**-n * math.factorial(n)
        scale = np.maximum(np.abs(total), 1.0)
        assert np.max(np.abs(total - basis.eval_V(n, x)) / scale) < 1e-10

    @pytest.mark.parametrize("n", range(0, 11))
    def test_H_as_V_combination(self, n):
        # H_n = n! sum_{m = n mod 2}^{n} 2^m V_m / (m! ((n-m)/2)!)
        x = np.linspace(-3, 3, 25)
        total = np.zeros_like(x)
        for m in range(n % 2, n + 1, 2):
            j = (n - m) // 2
            total += 2.0**m / (math.factorial(m) * math.factorial(j)) * basis.eval_V(m, x)
        total *= math.factorial(n)
        scale = np.maximum(np.abs(total), 1.0)
        assert np.max(np.abs(total - basis.eval_H(n, x)) / scale) < 1e-10

    def test_overflow_returns_infinity_not_error(self):
        value = basis.eval_H(200, 30.0)
        assert np.isinf(value)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            basis.eval_H(201, 0.0)
        with pytest.raises(ValueError):
            basis.eval_V(-1, 0.0)

    def test_tables_match_single_evaluations(self):
        x = np.linspace(-2, 2, 9)
        table = basis.hermite_table(8, x)
        vtable = basis.modified_hermite_table(8, x)
        for n in range(9):
            assert table[n] == pytest.approx(basis.eval_H(n, x))
            assert vtable[n] == pytest.approx(basis.eval_V(n, x))


class TestCoefficients:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_known_columns(self, n):
        assert basis.coeff_c(2 * n, 0) == pytest.approx((-1.0) ** n / math.factorial(n))
        assert basis.coeff_c(n, n) == pytest.approx(2.0**n / math.factorial(n))
        if n >= 1:
            assert basis.coeff_c(2 * n + 1, 1) == pytest.approx(2 * (-1.0) ** n / math.factorial(n))
            assert basis.coeff_c(2 * n, 2) == pytest.approx(-2 * (-1.0) ** n / math.factorial(n - 1))
            assert basis.coeff_c(2 * n + 1, 3) == pytest.approx(-4 * (-1.0) ** n / (3 * math.factorial(n - 1)))

    def test_parity_and_range(self):
        assert basis.coeff_c(3, 2) == 0.0
        assert basis.coeff_c(2, 4) == 0.0
        with pytest.raises(ValueError):
            basis.coeff_c(-1, 0)

    def test_monomial_inner_products(self):
        assert basis.inner_xm_Hn(2, 0) == pytest.approx(0.5)
        assert basis.inner_xm_Hn(3, 3) == pytest.approx(6.0)
        assert basis.inner_xm_Hn(1, 2) == 0.0

    @pytest.mark.parametrize("m,n", [(2, 0), (4, 2), (5, 1), (6, 6), (7, 3)])
    def test_monomial_inner_products_against_quadrature(self, m, n, rule64):
        quad = basis.inner_product(lambda t: t**m, hermite_fn(n), 1.0, rule64)
        assert quad == pytest.approx(basis.inner_xm_Hn(m, n), rel=1e-12, abs=1e-12)


class TestInnerProducts:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_H_norms(self, n, rule64):
        value = basis.inner_product(hermite_fn(n), hermite_fn(n), 1.0, rule64)
        exact = 2.0**n * math.factorial(n)
        assert abs(value - exact) < 1e-9 * max(1.0, exact)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_V_norms(self, n, rule64):
        value = basis.inner_product(modified_hermite_fn(n), modified_hermite_fn(n), 0.5, rule64)
        exact = float(math.factorial(n))
        assert abs(value - exact) < 1e-9 * max(1.0, exact)

    def test_mixed_closed_form_example(self, rule64):
        value = basis.inner_product(hermite_fn(2), modified_hermite_fn(4), 1.0, rule64)
        assert value == pytest.approx(-6.0, abs=1e-10)

    @pytest.mark.parametrize("m", range(0, 11))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_duality_tables(self, m, n, rule64):
        # (H_m, V_n)_{1/2} and (H_n, V_m)_1 against their closed forms;
        # tolerance 1e-9 at the Cauchy-Schwarz scale of each entry (the
        # nonzero entries grow factorially, and for the parity zeros the
        # quadrature cancellation is limited by the same conditioning)
        for alpha, f, g, closed in (
            (0.5, hermite_fn(m), modified_hermite_fn(n), basis.duality_HV_half(m, n)),
            (1.0, hermite_fn(n), modified_hermite_fn(m), basis.duality_HV_one(n, m)),
        ):
            value = basis.inner_product(f, g, alpha, rule64)
            scale = math.sqrt(
                basis.inner_product(f, f, alpha, rule64)
                * basis.inner_product(g, g, alpha, rule64)
            )
            assert abs(value - closed) < 1e-9 * max(1.0, scale)

    def test_embedding_continuity(self, rule96):
        # the unnormalized integrals int f^2 e^{-a t^2} decrease in a, and
        # the unit-mass norms obey |f|_b <= (b/a)^(1/4) |f|_a; the sharper
        # unit-constant claim fails already for f = 2 - t^2 (the unit-mass
        # weight concentrates at the local maximum of f^2)
        alphas = (0.25, 0.5, 1.0, 2.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            coeffs = rng.standard_normal(7) / np.array([math.factorial(k) for k in range(7)])
            f = lambda t, c=coeffs: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)
            norms_sq = [basis.inner_product(f, f, alpha, rule96) for alpha in alphas]
            raw = [ns / math.sqrt(alpha) for ns, alpha in zip(norms_sq, alphas)]
            for low, high in zip(raw, raw[1:]):
                assert high <= low + 1e-10
            for (a, ns_a), (b, ns_b) in zip(zip(alphas, norms_sq), list(zip(alphas, norms_sq))[1:]):
                assert math.sqrt(ns_b) <= (b / a) ** 0.25 * math.sqrt(ns_a) + 1e-10

    def test_embedding_unit_constant_counterexample(self, rule96):
        # E_a[(2-t^2)^2] = 4 - 2/a + 3/(4 a^2) grows from 2.75 (a=1) to
        # 3.1875 (a=2)
        f = lambda t: 2.0 - np.asarray(t, dtype=float) ** 2
        assert basis.inner_product(f, f, 1.0, rule96) == pytest.approx(2.75, abs=1e-12)
        assert basis.inner_product(f, f, 2.0, rule96) == pytest.approx(3.1875, abs=1e-12)

    def test_weight_validation(self, rule64):
        for w in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="weight exponent"):
                basis.inner_product(const_one, const_one, w, rule64)
            with pytest.raises(ValueError, match="weight exponent"):
                basis.project(const_one, w, 4, rule64)

    def test_grid_function_input(self, rule64):
        # sampled data is accepted wherever a callable is
        ts = np.linspace(-14, 14, 2801)
        g = basis.GridFunction(ts, basis.eval_H(2, ts))
        value = basis.inner_product(g, hermite_fn(2), 1.0, rule64)
        assert value == pytest.approx(8.0, abs=1e-3)  # linear-interp limited


class TestProjection:
    def test_projects_H3_onto_itself(self, rule64):
        series = basis.project(hermite_fn(3), 1.0, 6, rule64)
        expected = np.zeros(7)
        expected[3] = 48.0  # |H_3|^2 = 2^3 3!
        assert series.coeffs == pytest.approx(expected, abs=1e-9)

    def test_projects_constant(self, rule64):
        series = basis.project(const_one, 1.0, 5, rule64)
        assert series.coeffs == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-12)

    def test_exponential_coefficients(self, rule64):
        # (e^{lam t}, H_n)_1 = lam^n e^{lam^2/4}, by completing the square
        lam = 1.0
        series = basis.project(lambda t: np.exp(lam * t), 1.0, 6, rule64)
        expected = lam ** np.arange(7) * math.exp(lam**2 / 4)
        assert series.coeffs == pytest.approx(expected, abs=1e-8)

    def test_V_basis_projection(self, rule64):
        series = basis.project(modified_hermite_fn(4), 0.5, 6, rule64)
        expected = np.zeros(7)
        expected[4] = math.factorial(4)
        assert series.coeffs == pytest.approx(expected, abs=1e-9)
        assert series.basis == "V"

    def test_rejects_other_weights(self, rule64):
        with pytest.raises(ValueError):
            basis.project(const_one, 0.7, 4, rule64)


class TestConversions:
    def test_constant_maps_to_constant(self):
        b = basis.convert_a_to_b(basis.HermiteSeries("H", [1.0]), M=6)
        assert b.coeffs == pytest.approx([1, 0, 0, 0, 0, 0, 0])
        a = basis.convert_b_to_a(basis.HermiteSeries("V", [1.0]), M=6)
        assert a.coeffs == pytest.approx([1, 0, 0, 0, 0, 0, 0])

    def test_H2_in_modified_basis(self):
        # H_2 = 4x^2 - 2 = 4(V_2 + 1) - 2 = 2 V_0 + 4 V_2, i.e. b = (2, 0, 8)
        b = basis.convert_a_to_b(basis.HermiteSeries("H", [0, 0, 8.0]), M=4)
        assert b.coeffs == pytest.approx([2, 0, 8, 0, 0])

    def test_V2_in_hermite_basis(self):
        # V_2 = x^2 - 1 = H_2/4 - 1/2, i.e. a = (-1/2, 0, 2)
        a = basis.convert_b_to_a(basis.HermiteSeries("V", [0, 0, 2.0]), M=4)
        assert a.coeffs == pytest.approx([-0.5, 0, 2, 0, 0])

    def test_matches_termwise_sums(self):
        # reference: the defining sums over m = n + 2j, term by term
        c = np.random.default_rng(41).standard_normal(9)
        for sign, convert, kind in ((1.0, basis.convert_a_to_b, "H"), (-1.0, basis.convert_b_to_a, "V")):
            ref = [
                sum(sign**j * 2.0 ** (-2 * j) / math.factorial(j) * c[n + 2 * j] for j in range((8 - n) // 2 + 1))
                for n in range(13)
            ]
            assert convert(basis.HermiteSeries(kind, c), 12).coeffs == pytest.approx(ref, rel=1e-13, abs=1e-15)

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, ints):
        coeffs = np.array(ints, dtype=float)
        series = basis.HermiteSeries("H", coeffs)
        back = basis.convert_b_to_a(basis.convert_a_to_b(series, M=24), M=24)
        assert back.coeffs[: coeffs.size] == pytest.approx(coeffs, abs=1e-9)
        assert np.max(np.abs(back.coeffs[coeffs.size :]), initial=0.0) < 1e-9

    def test_conversion_agrees_with_projection(self, rule96):
        # three roads to the V-coefficients of e^{t/2}: direct projection in
        # weight 1/2, conversion of the weight-1 data, and the closed form
        # lam^n e^{lam^2/2}; geometric decay keeps the conversion tail tiny
        lam = 0.5
        f = lambda t: np.exp(lam * np.asarray(t, dtype=float))
        closed = lam ** np.arange(11) * math.exp(lam**2 / 2)
        direct = basis.project(f, 0.5, 10, rule96)
        converted = basis.convert_a_to_b(basis.project(f, 1.0, 26, rule96), M=26)
        assert direct.coeffs == pytest.approx(closed, abs=1e-10)
        assert converted.coeffs[:11] == pytest.approx(closed, abs=1e-8)

    def test_truncation_must_cover_stored_order(self):
        with pytest.raises(ValueError):
            basis.convert_a_to_b(basis.HermiteSeries("H", np.ones(9)), M=4)

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            basis.convert_a_to_b(basis.HermiteSeries("V", [1.0]))
        with pytest.raises(ValueError):
            basis.convert_b_to_a(basis.HermiteSeries("H", [1.0]))


class TestParseval:
    def test_single_term_is_tight(self, rule96):
        series = basis.project(hermite_fn(1), 1.0, 4, rule96)
        assert basis.parseval_residual(hermite_fn(1), series, rule96) < 1e-10

    def test_gaussian(self, rule96):
        # |e^{-t^2}|_1^2 = pi^{-1/2} int e^{-3t^2} = 1/sqrt(3)
        f = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2)
        series = basis.project(f, 1.0, 30, rule96)
        assert basis.parseval_residual(f, series, rule96) < 1e-8
        norm_sq = basis.inner_product(f, f, 1.0, rule96)
        assert norm_sq == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_cosine(self, rule96):
        # |cos|_1^2 = (1 + e^{-1})/2 via int cos(2t) e^{-t^2} = sqrt(pi) e^{-1}
        f = lambda t: np.cos(t)
        series = basis.project(f, 1.0, 30, rule96)
        assert basis.parseval_residual(f, series, rule96) < 1e-8
        norm_sq = basis.inner_product(f, f, 1.0, rule96)
        assert norm_sq == pytest.approx((1 + math.exp(-1)) / 2, abs=1e-12)


class TestSerialization:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            basis.GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            basis.GridFunction(np.array([0.0, 1.0]), np.zeros(3))

    def test_series_evaluation(self):
        # f = 2 V_0 + 4 V_2 should be H_2 = 4x^2 - 2
        series = basis.HermiteSeries("V", [2.0 * 1, 0, 8.0])  # b_n/n! weights: 2 + 8 V_2/2
        x = np.linspace(-2, 2, 9)
        assert series(x) == pytest.approx(basis.eval_H(2, x))
        assert isinstance(series(0.5), float)
