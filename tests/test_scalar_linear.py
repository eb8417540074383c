"""Unit tests for the linear-mass pure-scalar model."""

import math

import pytest

from kgbound import scalar_linear as sl
from kgbound.errors import InvalidParameter
from kgbound.levels import BOUND
from kgbound.units import PhysicalConstants


class TestParams:
    def test_length_scale_validation(self):
        with pytest.raises(ValueError):
            sl.LinearMassParams(s=1.0, length_scale=0.0)

    @pytest.mark.parametrize("s, L", [(math.nan, 1.0), (-math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, s, L):
        with pytest.raises(InvalidParameter):
            sl.LinearMassParams(s=s, length_scale=L)

    def test_alpha1(self):
        p = sl.LinearMassParams(s=1.0, length_scale=2.0)
        assert p.alpha1 == pytest.approx(0.5, abs=1e-14)

    def test_alpha2(self):
        p = sl.LinearMassParams(s=1.0)
        assert p.alpha2(0) == pytest.approx(1.0, abs=1e-14)
        assert p.alpha2(2) == pytest.approx(7.0, abs=1e-14)

    def test_lambda_effective(self):
        p = sl.LinearMassParams(s=1.0)
        assert p.Lambda(0) == pytest.approx(0.5 * (math.sqrt(5.0) - 1.0), abs=1e-14)
        assert sl.LinearMassParams(s=0.0).Lambda(3) == pytest.approx(3.0, abs=1e-14)


class TestDerive:
    """The reduced equation's constants, from the params methods."""

    def test_signed_epsilon_sq(self):
        p = sl.LinearMassParams(s=1.0)
        E = math.sqrt(sl.energy_squared(p, 0, 0))
        # quantized kappa = -eps_sq = alpha1*(4n + 2 + sqrt(4 alpha2 + 1))
        assert -p.epsilon_sq(E) == pytest.approx(2.0 + math.sqrt(5.0), abs=1e-12)

    def test_negative_l_rejected(self):
        p = sl.LinearMassParams(s=1.0)
        with pytest.raises(InvalidParameter):
            sl.nu_problem(p, -1, 1.0)

    def test_nu_problem_coefficients(self):
        p = sl.LinearMassParams(s=1.0)
        E = math.sqrt(sl.energy_squared(p, 0, 0))
        problem = sl.nu_problem(p, 0, E)
        assert (problem.tau_tilde.c0, problem.tau_tilde.c1) == (1.0, 0.0)
        assert problem.sigma.c1 == 2.0
        assert problem.sigma_tilde.c2 == pytest.approx(-1.0, abs=1e-14)
        assert problem.sigma_tilde.c0 == pytest.approx(-1.0, abs=1e-14)


class TestEnergySquared:
    def test_massless_coupling_ladder(self):
        p = sl.LinearMassParams(s=0.0)
        for n in range(4):
            for l in range(4):
                assert sl.energy_squared(p, n, l) == pytest.approx(
                    4 * n + 2 * l + 3, abs=1e-13
                )

    def test_length_scale_dependence(self):
        p = sl.LinearMassParams(s=0.0, length_scale=2.0)
        assert sl.energy_squared(p, 0, 0) == pytest.approx(1.5, abs=1e-14)

    def test_mode_offset(self):
        p = sl.LinearMassParams(s=0.5, length_scale=2.0)
        for n in range(4):
            gap = sl.energy_squared(p, n, 1, "as_printed") - sl.energy_squared(
                p, n, 1, "corrected"
            )
            assert gap == pytest.approx(-0.5 * (2 * n + 1), abs=1e-13)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            sl.energy_squared(sl.LinearMassParams(s=1.0), 0, 0, "fixed")

    def test_positive_for_any_coupling_sign(self):
        # 2s/L is dominated by the square root term, so E^2 stays positive,
        # also where the two cancel in floating point (s << 0)
        for s in (-1e17, -5.0, -1.0, 0.0, 1.0, 5.0):
            p = sl.LinearMassParams(s=s)
            for mode in sl.MODES:
                assert sl.energy_squared(p, 0, 0, mode) > 0.0
        # 2s + sqrt(1 + 4s^2) = 1/(sqrt(1 + 4s^2) - 2s) ~ 1/(4|s|) for s << 0
        p = sl.LinearMassParams(s=-1e8)
        assert sl.energy_squared(p, 0, 0) == pytest.approx(2.0 + 0.25e-8, rel=1e-15)

    def test_units_scaling(self):
        c = PhysicalConstants(hbar_c=197.3269804, rest_energy=0.511)
        p = sl.LinearMassParams(s=0.0, length_scale=197.3269804 / 0.511, constants=c)
        assert sl.energy_squared(p, 1, 2) == pytest.approx(
            0.511**2 * 11.0, rel=1e-13
        )


class TestSpectrum:
    def test_symmetric_pairs(self):
        rows = sl.spectrum(sl.LinearMassParams(s=1.0), 2, 2)
        assert len(rows) == 3 * 3 * 2
        by_level = {}
        for r in rows:
            by_level.setdefault((r.n, r.l), []).append(r)
        for pair in by_level.values():
            anti, part = sorted(pair, key=lambda r: r.energy)
            assert part.energy == pytest.approx(-anti.energy, abs=1e-14)
            assert {anti.branch, part.branch} == {"antiparticle", "particle"}

    def test_all_bound(self):
        rows = sl.spectrum(sl.LinearMassParams(s=2.0), 3, 3)
        assert all(r.status == BOUND and r.residual == 0.0 for r in rows)

    def test_sorted(self):
        rows = sl.spectrum(sl.LinearMassParams(s=1.0), 2, 2)
        keys = [(r.l, r.n, r.branch) for r in rows]
        assert keys == sorted(keys)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            sl.spectrum(sl.LinearMassParams(s=1.0), 1, -1)
