"""Unit tests for eigenfunction construction, normalization, residuals."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, special

from kgbound import coulomb_mixed as cm, scalar_linear as sl, wavefunctions as wf
from kgbound.errors import InvalidParameter, KGBoundError, NonNormalizable, NotBound


def bound_level(params, n, l):
    e_plus, _ = cm.candidate_energies(params, n, l)
    return cm.validate(params, n, l, e_plus, "particle")


def norm_by_quad(u):
    """Reference normalization: scipy's adaptive quadrature on (0, r_cut),
    r_cut grown until the integrand is below 1e-14 of its peak."""
    shape = replace(u, norm=1.0)

    def integrand(r):
        return shape.evaluate(r) ** 2

    m = u.radial_exponent
    r_star = (u.power / (m * u.decay)) ** (1.0 / m)
    peak = float(np.max(integrand(np.linspace(r_star / 8.0, 8.0 * r_star, 257))))
    r_cut = 4.0 * r_star
    while integrand(r_cut) > 1e-14 * peak:
        r_cut *= 2.0
    value, _ = integrate.quad(
        integrand, 0.0, r_cut, epsabs=0.0, epsrel=1e-12, limit=400, points=[r_star]
    )
    return 1.0 / math.sqrt(value)


def rule_integral(u, count):
    """The integral of u^2 by the count-node Gauss-Laguerre rule in t = 2 decay r^m."""
    m = u.radial_exponent
    e = (2.0 * u.power + 1.0) / m
    t, v, v_exp = wf.gauss_laguerre(count, e - 1.0)
    lag, lag_exp = wf.laguerre(u.n, u.laguerre_alpha, t)
    total = float(np.sum(np.ldexp(v * lag, v_exp + lag_exp) ** 2))
    return u.norm**2 * math.gamma(e) / m * (2.0 * u.decay) ** -e * total


def norm_closed_scalar(params, n, l):
    """sqrt(2 n! alpha1^(Lambda + 3/2) / Gamma(n + Lambda + 3/2)), by the
    Laguerre orthogonality relation, with n! / Gamma(n + Lambda + 3/2) taken
    as a product of factors below 1 over Gamma(Lambda + 3/2)."""
    Lambda = params.Lambda(l)
    ratio = math.prod(k / (k + Lambda + 0.5) for k in range(1, n + 1))
    return math.sqrt(2.0 * ratio * params.alpha1 ** (Lambda + 1.5) / math.gamma(Lambda + 1.5))


def shapes(n_values):
    """Built wavefunctions of both models, the scalar one in both modes."""
    mixed = cm.MixedCoulombParams(q=0.5, b=0.5, beta=-1.0, V0=0.1)
    for n in n_values:
        for l in (0, 3):
            for branch, energy in zip(("particle", "antiparticle"), cm.candidate_energies(mixed, n, l)):
                level = cm.validate(mixed, n, l, energy, branch)
                if level.status == "bound":
                    yield wf.build_mixed(mixed, level)
            for params in (sl.LinearMassParams(s=1.0), sl.LinearMassParams(s=-0.4, length_scale=2.5)):
                for as_printed in (False, True):
                    yield wf.build_scalar(params, n, l, 1.0, as_printed=as_printed)


class TestLaguerre:
    def test_against_scipy(self):
        x = np.linspace(0.0, 20.0, 101)
        for n in range(7):
            for alpha in (0.0, 0.5, 1.7, 3.0):
                mine = np.ldexp(*wf.laguerre(n, alpha, x))
                ref = special.eval_genlaguerre(n, alpha, x)
                assert np.allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_scalar_input_scalar_output(self):
        mantissa, exponent = wf.laguerre(2, 1.0, 0.5)
        assert np.ndim(mantissa) == np.ndim(exponent) == 0
        assert float(np.ldexp(mantissa, exponent)) == pytest.approx(
            special.eval_genlaguerre(2, 1.0, 0.5))

    def test_scaling_is_exact(self):
        # where the unscaled recurrence stays in range, the scaled one has its bits
        x = np.linspace(0.0, 60.0, 241)
        for alpha in (0.0, 1.5, 7.25):
            prev, cur = np.ones_like(x), 1.0 + alpha - x
            for k in range(2, 41):
                prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
            mantissa, exponent = wf.laguerre(40, alpha, x)
            assert np.array_equal(np.ldexp(mantissa, exponent), cur)
            nonzero = mantissa != 0.0
            assert np.all((0.5 <= np.abs(mantissa[nonzero])) & (np.abs(mantissa[nonzero]) < 1.0))

    def test_far_beyond_float_range(self):
        # L_n^alpha(x) = (-x)^n / n! (1 + O(n (n + alpha) / x)) for large x
        n, x = 400, np.array([1e20, 1e300, sys.float_info.max])
        mantissa, exponent = wf.laguerre(n, 0.5, x)
        assert np.all(mantissa > 0.0)  # (-x)^n with n even
        log2 = np.log2(mantissa) + exponent
        assert np.allclose(log2, n * np.log2(x) - math.lgamma(n + 1) / math.log(2.0), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            wf.laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            wf.laguerre(2, -1.0, 1.0)


class TestBuildMixed:
    def test_ground_state_shape(self):
        params = cm.MixedCoulombParams(q=0.5)
        u = wf.build_mixed(params, bound_level(params, 0, 0))
        assert u.power == pytest.approx(1.0, abs=1e-14)
        assert u.decay == pytest.approx(0.8, abs=1e-14)
        assert u.laguerre_alpha == pytest.approx(1.0, abs=1e-14)
        assert u.radial_exponent == 1

    def test_requires_bound(self):
        params = cm.MixedCoulombParams(q=0.5)
        row = cm.validate(params, 0, 0, -1.0, "antiparticle")
        with pytest.raises(NotBound):
            wf.build_mixed(params, row)

    def test_node_count_matches_n(self):
        params = cm.MixedCoulombParams(q=0.5)
        for n in range(4):
            u = wf.build_mixed(params, bound_level(params, n, 0))
            r = np.linspace(1e-3, 30.0, 20000)
            vals = u.evaluate(r)
            signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))])
            assert int(np.count_nonzero(signs[1:] != signs[:-1])) == n


class TestNormalization:
    def test_closed_equals_quadrature(self):
        params = cm.MixedCoulombParams(q=0.5)
        for n, l in [(0, 0), (2, 1), (4, 0)]:
            level = bound_level(params, n, l)
            u = wf.build_mixed(params, level)
            assert wf.norm_closed_mixed(params, level) == pytest.approx(
                wf.norm_quadrature(u), rel=1e-10
            )

    def test_unit_norm_integral(self):
        params = cm.MixedCoulombParams(q=0.3, b=0.5, beta=-1.0)
        e_minus = cm.candidate_energies(params, 1, 1)[1]
        level = cm.validate(params, 1, 1, e_minus, "antiparticle")
        u = replace(wf.build_mixed(params, level), norm=wf.norm_closed_mixed(params, level))
        peak = (u.power + u.n) / u.decay
        total, _ = integrate.quad(
            lambda r: u.evaluate(r) ** 2, 0.0, 1000.0, points=[peak], limit=800
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rule_is_exact(self):
        # n + 2 nodes integrate the degree-2n polynomial exactly, so ten more change nothing
        for u in shapes((0, 1, 4, 17, 40)):
            assert rule_integral(u, u.n + 2) == pytest.approx(rule_integral(u, u.n + 12), rel=1e-13)
            assert rule_integral(u, u.n + 2) == pytest.approx(1.0, rel=1e-13)

    def test_agrees_with_adaptive_quadrature(self):
        for u in shapes((0, 3, 40)):
            assert u.norm == pytest.approx(norm_by_quad(u), rel=1e-12)

    @pytest.mark.parametrize("n", [309, 340, 362, 400])
    def test_large_n_normalizes(self, n):
        # the unscaled Laguerre recurrence overflowed from n = 309 on, and the
        # unscaled rule's v_i underflowed from n = 362 on
        for params in (sl.LinearMassParams(s=1.0), sl.LinearMassParams(s=-0.4, length_scale=2.5)):
            for l in (0, 3):
                u = wf.build_scalar(params, n, l, 1.0)
                assert u.norm == pytest.approx(norm_closed_scalar(params, n, l), rel=1e-12)
        params = cm.MixedCoulombParams(q=0.5)
        for l in (0, 3):
            level = bound_level(params, n, l)
            u = wf.build_mixed(params, level)
            assert u.norm == pytest.approx(wf.norm_closed_mixed(params, level), rel=1e-12)

    @pytest.mark.parametrize("n", [wf.MAX_N + 1, 10**9])
    def test_above_max_n_rejected_before_the_rule(self, monkeypatch, n):
        def no_rule(count, a):
            raise AssertionError(f"a {count}-node rule was built")

        monkeypatch.setattr(wf, "gauss_laguerre", no_rule)
        with pytest.raises(NonNormalizable):
            wf.build_scalar(sl.LinearMassParams(s=1.0), n, 0, 1.0)
        for model in ("mixed", "scalar_linear"):
            u = wf.RadialWavefunction(model, n, 0, power=1.0, decay=0.8, laguerre_alpha=1.0)
            with pytest.raises(NonNormalizable):
                wf.norm_quadrature(u)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, wf.MAX_N])
    def test_evaluate_in_range_at_extreme_radii(self, n):
        # r^power, exp(-decay r^m) and L_n^alpha leave float range here, and
        # 2 decay r^2 overflows; u is finite, and ±0 where it underflows
        r = np.geomspace(1e-300, 1e300, 2001)
        params = cm.MixedCoulombParams(q=0.5)
        for u in (wf.build_scalar(sl.LinearMassParams(s=1.0), n, 0, 1.0),
                  wf.build_mixed(params, bound_level(params, n, 0))):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                values = u.evaluate(r)
            assert np.all(np.isfinite(values))
            assert values[-1] == 0.0

    @pytest.mark.parametrize("power", [math.nan, math.inf, 1e308, 1e306])
    def test_weight_out_of_range_rejected(self, power):
        for model in ("mixed", "scalar_linear"):
            u = wf.RadialWavefunction(model, 2, 0, power=power, decay=1.0, laguerre_alpha=1.0)
            with pytest.raises(NonNormalizable):
                wf.norm_quadrature(u)

    def test_quadrature_rejects_bad_shapes(self):
        for model, n, power, decay, alpha in [
            ("mixed", 0, 1.0, -1.0, 1.0),  # no decay
            ("mixed", 0, 0.0, 1.0, 1.0),  # u(0) != 0
            ("scalar_linear", 0, 1e100, 0.5, 1.0),  # u^2 at its peak is out of range
            ("scalar_linear", 2, 3.0, 2.2609593981523416e95, 2.5),  # the integral underflows
        ]:
            u = wf.RadialWavefunction(model, n, 0, power=power, decay=decay, laguerre_alpha=alpha)
            with pytest.raises(NonNormalizable):
                wf.norm_quadrature(u)

    def test_builders_normalize_by_quadrature(self):
        params = cm.MixedCoulombParams(q=0.5, b=0.5, V0=0.1)
        u = wf.build_mixed(params, bound_level(params, 1, 1))
        assert u.norm == wf.norm_quadrature(u)
        params = sl.LinearMassParams(s=1.3, length_scale=0.7)
        u = wf.build_scalar(params, 2, 1, math.sqrt(sl.energy_squared(params, 2, 1)))
        assert u.norm == wf.norm_quadrature(u)

    @settings(derandomize=True, deadline=None, database=None, max_examples=50)
    @given(q=st.floats(0.01, 2.0), b=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0),
           V0=st.floats(-1.0, 1.0), n=st.integers(0, wf.MAX_N), l=st.integers(0, 8),
           branch=st.sampled_from(("particle", "antiparticle")))
    # Gamma(n + 2L + 2) overflowed from n = 170 on, L_n^alpha from n = 309 on
    @example(q=0.5, b=0.0, beta=1.0, V0=0.0, n=170, l=0, branch="particle")
    @example(q=0.5, b=0.0, beta=1.0, V0=0.0, n=309, l=0, branch="particle")
    def test_closed_equals_quadrature_random_levels(self, q, b, beta, V0, n, l, branch):
        params = cm.MixedCoulombParams(q=q, b=b, beta=beta, V0=V0)
        try:
            e_plus, e_minus = cm.candidate_energies(params, n, l)
            level = cm.validate(params, n, l, e_plus if branch == "particle" else e_minus, branch)
        except KGBoundError:
            level = None
        assume(level is not None and level.status == "bound")
        u = wf.build_mixed(params, level)
        assert wf.norm_closed_mixed(params, level) == pytest.approx(u.norm, rel=1e-12)

    def test_closed_norm_out_of_range(self):
        params = cm.MixedCoulombParams(q=0.5, b=-1e94)
        with pytest.raises(NonNormalizable):
            wf.norm_closed_mixed(params, bound_level(params, 0, 0))

    def test_printed_scalar_norm_only_ground_state(self):
        params = sl.LinearMassParams(s=1.0)
        E = math.sqrt(sl.energy_squared(params, 0, 0))
        u = wf.build_scalar(params, 0, 0, E)
        assert wf.norm_closed_scalar_printed(params, 0, 0) == pytest.approx(
            u.norm, rel=1e-10
        )
        assert math.isinf(wf.norm_closed_scalar_printed(params, 1, 0))
        assert math.isinf(wf.norm_closed_scalar_printed(params, 3, 2))

    @pytest.mark.parametrize("s, length_scale", [(1.0, 1e-200), (1e4, 1e-3)])
    def test_printed_scalar_norm_out_of_range(self, s, length_scale):
        # alpha1 = 1e200, squared overflow; alpha1 = 1e3 raised to ~1e4
        params = sl.LinearMassParams(s=s, length_scale=length_scale)
        with pytest.raises(InvalidParameter):
            wf.norm_closed_scalar_printed(params, 0, 0)


class TestBuildScalar:
    @pytest.mark.parametrize("n, l", [(-1, 0), (0, -1)])
    def test_negative_quantum_numbers_rejected(self, n, l):
        with pytest.raises(InvalidParameter):
            wf.build_scalar(sl.LinearMassParams(s=1.0), n, l, 1.0)


class TestResiduals:
    def test_mixed_eigenfunction_satisfies_ode(self):
        params = cm.MixedCoulombParams(q=0.5)
        level = bound_level(params, 1, 1)
        u = wf.build_mixed(params, level)
        grid = np.geomspace(0.1, 20.0, 60)
        assert wf.ode_residual(u, params, level.energy, grid) < 1e-6

    def test_scalar_corrected_vs_printed_exponent(self):
        params = sl.LinearMassParams(s=1.0)
        E = math.sqrt(sl.energy_squared(params, 0, 0))
        grid = np.geomspace(0.1, 10.0, 50)
        good = wf.build_scalar(params, 0, 0, E)
        bad = wf.build_scalar(params, 0, 0, E, as_printed=True)
        assert wf.ode_residual(good, params, E, grid) < 1e-6
        assert wf.ode_residual(bad, params, E, grid) > 1e-2

    def test_wrong_energy_leaves_residual(self):
        params = cm.MixedCoulombParams(q=0.5)
        level = bound_level(params, 0, 0)
        u = wf.build_mixed(params, level)
        grid = np.geomspace(0.1, 20.0, 60)
        assert wf.ode_residual(u, params, 0.9, grid) > 1e-2

    def test_scalar_alpha1_square_overflow_rejected(self):
        params = sl.LinearMassParams(s=1.0)
        E = math.sqrt(sl.energy_squared(params, 0, 0))
        u = wf.build_scalar(params, 0, 0, E)
        grid = np.geomspace(0.1, 10.0, 50)
        with pytest.raises(InvalidParameter):
            wf.ode_residual(u, sl.LinearMassParams(s=1.0, length_scale=1e-200), E, grid)

    def test_positive_grid_required(self):
        params = cm.MixedCoulombParams(q=0.5)
        u = wf.build_mixed(params, bound_level(params, 0, 0))
        with pytest.raises(ValueError):
            wf.ode_residual(u, params, 0.6, [0.0, 1.0])


def test_scalar_gaussian_ground_state():
    params = sl.LinearMassParams(s=0.0)
    E = math.sqrt(sl.energy_squared(params, 0, 0))
    u = wf.build_scalar(params, 0, 0, E)
    r = np.linspace(0.05, 4.0, 40)
    expected = r * np.exp(-0.5 * r**2)
    scale = u.evaluate(1.0) / (1.0 * math.exp(-0.5))
    assert np.allclose(u.evaluate(r), scale * expected, rtol=1e-10)
