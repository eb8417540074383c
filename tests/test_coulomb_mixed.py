"""Unit tests for the mixed vector-scalar Coulomb model."""

import math

import pytest

from kgbound import coulomb_mixed as cm, verify
from kgbound.errors import EnergyOutOfWindow, InvalidParameter, UnrealRadicand
from kgbound.levels import BOUND, SPURIOUS, THRESHOLD, UNREAL
from kgbound.units import PhysicalConstants


class TestParams:
    def test_constructors(self):
        eq = cm.MixedCoulombParams.equal_mix(0.4)
        assert (eq.beta, eq.V0) == (1.0, 0.0)
        op = cm.MixedCoulombParams.opposite_mix(0.4, b=0.2)
        assert (op.beta, op.b) == (-1.0, 0.2)

    def test_dual_roundtrip(self):
        p = cm.MixedCoulombParams(q=0.25, b=0.0, beta=1.0)
        d = p.dual()
        assert (d.q, d.b, d.beta) == (-0.25, -0.5, -1.0)
        assert d.dual() == p

    def test_dual_undefined(self):
        with pytest.raises(ValueError):
            cm.MixedCoulombParams(q=0.25, b=0.3).dual()

    @pytest.mark.parametrize("field", ["q", "b", "beta", "V0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidParameter):
            cm.MixedCoulombParams(**{"q": 0.5, field: value})

    def test_effective_l_constant_mass(self):
        p = cm.MixedCoulombParams(q=0.5)
        # gamma2 = l(l+1) + q^2(1-1) = l(l+1), so L = l exactly
        for l in range(4):
            assert p.effective_L(l) == pytest.approx(l, abs=1e-14)

    def test_effective_l_unreal(self):
        p = cm.MixedCoulombParams(q=3.0, b=1.0, beta=1.0)
        with pytest.raises(UnrealRadicand):
            p.effective_L(0)

    def test_fractional_effective_l(self):
        p = cm.MixedCoulombParams(q=0.3, b=0.5, beta=1.0)
        rad = 0.25 + 0.5 * (0.5 - 0.6) + 0.0
        assert p.effective_L(0) == pytest.approx(math.sqrt(rad) - 0.5, abs=1e-14)

    def test_epsilon_window(self):
        p = cm.MixedCoulombParams(q=0.5)
        assert p.epsilon(0.6) == pytest.approx(0.8, abs=1e-14)
        assert p.epsilon(1.0) == 0.0
        for E in (1.5, 1e200, -1e308):  # (E + V0)^2 overflows for the last two
            with pytest.raises(EnergyOutOfWindow):
                p.epsilon(E)


class TestDerive:
    """The reduced equation's constants, from the params methods."""

    def test_reference_values(self):
        p = cm.MixedCoulombParams(q=0.5)
        assert p.epsilon(0.6) == pytest.approx(0.8, abs=1e-14)
        assert p.gamma1(0.6) == pytest.approx(-1.6, abs=1e-14)
        assert p.gamma2(0) == 0.0
        assert p.B(0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_offset_enters_through_e_tilde(self):
        base = cm.MixedCoulombParams(q=0.5)
        shifted = cm.MixedCoulombParams(q=0.5, V0=0.1)
        assert shifted.epsilon(0.5) == pytest.approx(base.epsilon(0.6), abs=1e-14)
        assert shifted.gamma1(0.5) == pytest.approx(base.gamma1(0.6), abs=1e-14)

    def test_nu_problem_coefficients(self):
        p = cm.MixedCoulombParams(q=0.5)
        problem = cm.nu_problem(p, 0, 0.6)
        assert (problem.sigma.c0, problem.sigma.c1, problem.sigma.c2) == (0, 1, 0)
        assert problem.sigma_tilde.c2 == pytest.approx(-0.64, abs=1e-14)
        assert problem.sigma_tilde.c1 == pytest.approx(1.6, abs=1e-14)
        assert problem.sigma_tilde.c0 == 0.0


class TestCandidates:
    def test_equal_mix_closed_form(self):
        for q in (0.1, 0.5, 0.9):
            p = cm.MixedCoulombParams.equal_mix(q)
            for n in range(3):
                for l in range(3):
                    N = n + l + 1
                    e_plus, e_minus = cm.candidate_energies(p, n, l)
                    assert e_plus == pytest.approx(
                        (N * N - q * q) / (N * N + q * q), abs=1e-13
                    )
                    assert e_minus == pytest.approx(-1.0, abs=1e-13)

    def test_ground_state_reference(self):
        p = cm.MixedCoulombParams(q=0.5)
        assert cm.candidate_energies(p, 0, 0) == pytest.approx((0.6, -1.0))

    def test_offset_shifts_candidates(self):
        p0 = cm.MixedCoulombParams(q=0.5)
        p1 = cm.MixedCoulombParams(q=0.5, V0=0.1)
        e0 = cm.candidate_energies(p0, 1, 1)
        e1 = cm.candidate_energies(p1, 1, 1)
        assert e1[0] == pytest.approx(e0[0] - 0.1, abs=1e-14)
        assert e1[1] == pytest.approx(e0[1] - 0.1, abs=1e-14)

    def test_unreal_inner_root(self):
        p = cm.MixedCoulombParams(q=3.0, b=1.0)
        with pytest.raises(UnrealRadicand):
            cm.candidate_energies(p, 0, 0)

    @pytest.mark.parametrize("n, l", [(-1, 0), (0, -1)])
    def test_negative_quantum_numbers_rejected(self, n, l):
        p = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(InvalidParameter):
            cm.candidate_energies(p, n, l)
        with pytest.raises(InvalidParameter):
            cm.validate(p, n, l, 0.6, "particle")

    def test_rest_energy_scaling(self):
        c = PhysicalConstants(hbar_c=197.3269804, rest_energy=938.272)
        p = cm.MixedCoulombParams(q=0.5, constants=c)
        e_plus, _ = cm.candidate_energies(p, 0, 0)
        assert e_plus == pytest.approx(0.6 * 938.272, rel=1e-14)


class TestValidate:
    def test_bound(self):
        p = cm.MixedCoulombParams(q=0.5)
        row = cm.validate(p, 0, 0, 0.6, "particle")
        assert row.status == BOUND
        assert row.residual < 1e-12

    def test_threshold(self):
        p = cm.MixedCoulombParams(q=0.5)
        row = cm.validate(p, 0, 0, -1.0, "antiparticle")
        assert row.status == THRESHOLD

    def test_spurious_squaring_artifact(self):
        # b = 2q, beta = +1: the antiparticle candidate flips the sign of
        # the unsquared condition, leaving a finite residual
        p = cm.MixedCoulombParams(q=0.5, b=1.0, beta=1.0)
        row = cm.validate(p, 0, 0, -0.6, "antiparticle")
        assert row.status == SPURIOUS
        assert row.residual == pytest.approx(3.2, abs=1e-12)

    def test_energy_off_its_candidate_is_spurious(self):
        # gamma1(0.5) < 0, but 0.5 is neither candidate of (0, 0): the label
        # is that of the energy, not of the sign alone
        p = cm.MixedCoulombParams(q=0.5)
        row = cm.validate(p, 0, 0, 0.5, "particle")
        assert p.gamma1(0.5) < 0.0
        assert row.status == SPURIOUS
        assert row.residual == pytest.approx(0.2320508075688772, rel=1e-12)
        # the other branch's candidate is not this branch's either
        assert cm.validate(p, 0, 0, 0.6, "antiparticle").status == SPURIOUS

    @pytest.mark.parametrize("V0", [1e9, -1e9])
    def test_bound_at_large_offset(self, V0):
        # E + V0 carries the rounding of E, an ulp of 1e9 being 1.2e-7, so the
        # n = 0 particle level's residual is far past RESIDUAL_TOL; its gamma1
        # is negative, so it is bound
        p = cm.MixedCoulombParams(q=0.5, V0=V0)
        e_plus, _ = cm.candidate_energies(p, 0, 0)
        row = cm.spectrum(p, 0, 0)[1]
        assert (row.branch, row.energy, row.status) == ("particle", e_plus, BOUND)
        assert row.residual > verify.RESIDUAL_TOL
        assert cm.validate(p, 0, 0, e_plus, "particle").status == BOUND
        # the squaring artifact of test_spurious_squaring_artifact stays spurious
        p = cm.MixedCoulombParams(q=0.5, b=1.0, beta=1.0, V0=V0)
        _, e_minus = cm.candidate_energies(p, 0, 0)
        assert cm.validate(p, 0, 0, e_minus, "antiparticle").status == SPURIOUS

    @pytest.mark.parametrize("params, n", [
        # a squaring artifact in exact arithmetic, which misses the unsquared
        # condition by 4e-9
        (cm.MixedCoulombParams(q=1.0, beta=1.000000001, V0=-1.9158713332215074), 14),
        # a level in exact arithmetic, eps = 9.6e-11 m0c^2/hbar*c
        (cm.MixedCoulombParams(q=-1.0507214285116873, beta=1.000000001), 10),
    ], ids=["artifact", "level"])
    def test_one_ulp_from_the_edge_is_threshold(self, params, n):
        # E + V0 sits one ulp from -m0c^2, which resolves eps*hbar*c no finer
        # than 1.5e-8 m0c^2, so a level cannot be told from an artifact there
        _, e_minus = cm.candidate_energies(params, n, 0)
        assert e_minus + params.V0 == math.nextafter(-1.0, 0.0)
        assert cm.validate(params, n, 0, e_minus, "antiparticle").status == THRESHOLD

    def test_unreal_energy(self):
        p = cm.MixedCoulombParams(q=0.5)
        row = cm.validate(p, 0, 0, 1.5, "particle")
        assert row.status == UNREAL
        assert math.isinf(row.residual)


class TestSpectrum:
    def test_sorted_and_complete(self):
        p = cm.MixedCoulombParams(q=0.5)
        rows = cm.spectrum(p, 2, 1)
        assert len(rows) == 3 * 2 * 2
        keys = [(r.l, r.n, r.branch) for r in rows]
        assert keys == sorted(keys)

    def test_zero_coupling_all_threshold(self):
        rows = cm.spectrum(cm.MixedCoulombParams(q=0.0), 1, 1)
        assert all(r.status == THRESHOLD for r in rows)

    def test_unreal_rows_recorded_not_raised(self):
        rows = cm.spectrum(cm.MixedCoulombParams(q=3.0, b=1.0), 1, 1)
        assert all(r.status == UNREAL and math.isnan(r.energy) for r in rows)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            cm.spectrum(cm.MixedCoulombParams(q=0.5), -1, 0)

    def test_bound_levels_filter(self):
        rows = cm.spectrum(cm.MixedCoulombParams(q=0.5), 1, 1)
        bound = cm.bound_levels(rows)
        assert bound and all(r.status == BOUND for r in bound)
        assert all(r.branch == "particle" for r in bound)

    def test_opposite_mix_binds_antiparticles(self):
        rows = cm.spectrum(cm.MixedCoulombParams.opposite_mix(0.5), 1, 1)
        bound = cm.bound_levels(rows)
        assert bound and all(r.branch == "antiparticle" for r in bound)
        assert all(r.energy < 0 for r in bound)


def test_duality_of_candidate_tables():
    for q in (0.25, 0.5):
        for beta in (1.0, -1.0):
            varying = cm.MixedCoulombParams(q=q, b=2.0 * q, beta=beta)
            partner = varying.dual()
            for a, b in zip(cm.spectrum(varying, 3, 3), cm.spectrum(partner, 3, 3)):
                assert a.energy == pytest.approx(b.energy, abs=1e-13)
                assert (a.n, a.l, a.branch, a.status) == (b.n, b.l, b.branch, b.status)
