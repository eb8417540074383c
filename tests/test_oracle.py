"""Self-tests and model checks for the finite-difference verifier."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from kgbound import coulomb_mixed as cm, oracle, scalar_linear as sl
from kgbound.errors import ConvergenceFailure, InvalidParameter, NoBracket, UnrealRadicand
from kgbound.levels import ANTIPARTICLE, BOUND, PARTICLE
from kgbound.units import PhysicalConstants


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            oracle.RadialGrid(0.0, 1.0)
        with pytest.raises(ValueError):
            oracle.RadialGrid(2.0, 1.0)
        with pytest.raises(ValueError):
            oracle.RadialGrid(0.1, 1.0, points=50)

    def test_nodes_and_spacing(self):
        grid = oracle.RadialGrid(1e-6, 1.0, points=999)
        r = grid.nodes()
        assert len(r) == 999
        assert r[0] == pytest.approx(grid.r_min + grid.h)
        assert r[-1] == pytest.approx(grid.r_max - grid.h)

    def test_refined_halves_spacing(self):
        grid = oracle.RadialGrid(1e-6, 1.0, points=511)
        fine = grid.refined()
        assert fine.h == pytest.approx(grid.h / 2.0, rel=1e-14)


def _lowest(c_inv, c_r2, grid, count, check_nodes=False):
    """Lowest eigenvalues of -u'' + (c_inv/r + c_r2 r^2) u on the solvers' p = 1 operator."""
    system = oracle._TransformedOperator(1.0, c_r2, grid).system(c_inv)
    return oracle.eigen_lowest(system, count, check_nodes=check_nodes)


class TestSelfTests:
    """Textbook fixtures on the solvers' coarse operator; acceptance criterion 8
    adds the Richardson values and an l = 1 case."""

    def test_particle_in_a_box(self):
        vals = _lowest(0.0, 0.0, oracle.RadialGrid(1e-9, 1.0, points=6000), 4)
        for i, v in enumerate(vals):
            exact = ((i + 1) * math.pi) ** 2
            assert abs(v - exact) / exact < 1e-4

    def test_hydrogen_like(self):
        # -u'' - (2/r) u = E u: E_n = -1/(n+1)^2
        vals = _lowest(-2.0, 0.0, oracle.RadialGrid(1e-8, 70.0, points=6000), 3)
        for i, v in enumerate(vals):
            exact = -1.0 / (i + 1) ** 2
            assert abs(v - exact) / abs(exact) < 1e-4

    def test_radial_oscillator(self):
        # -u'' + r^2 u = E u with u(0) = 0: E = 4n + 3
        vals = _lowest(0.0, 1.0, oracle.RadialGrid(1e-8, 12.0, points=6000), 3)
        for i, v in enumerate(vals):
            assert abs(v - (4 * i + 3)) / (4 * i + 3) < 1e-4

    def test_node_count_indexing(self):
        # eigen_lowest raises if eigenvector i does not have i nodes
        _lowest(0.0, 0.0, oracle.RadialGrid(1e-9, 1.0, points=2000), 6, check_nodes=True)

    def test_h2_convergence_factor(self):
        exact = math.pi**2
        errors = [
            abs(_lowest(0.0, 0.0, oracle.RadialGrid(1e-9, 1.0, points=pts), 1)[0] - exact)
            for pts in (1500, 3001)
        ]
        factor = errors[0] / errors[1]
        assert 3.5 <= factor <= 4.5

    def test_count_validation(self):
        grid = oracle.RadialGrid(1e-9, 1.0, points=2000)
        system = oracle._TransformedOperator(1.0, 0.0, grid).system(0.0)
        with pytest.raises(ValueError):
            oracle.eigen_lowest(system, 0)
        with pytest.raises(ValueError):
            oracle.eigen_lowest(system, 500)


class TestTransformedOperator:
    @staticmethod
    def direct(p, c_inv, c_r2, grid):
        """The scheme built in one pass, as the solvers once did per evaluation."""
        h, r, tp = grid.h, grid.nodes(), 2.0 * p
        face_right = (r + 0.5 * h) ** tp
        face_left = np.concatenate(([(grid.r_min + 0.5 * h) ** tp], face_right[:-1]))
        weight = r**tp
        diagonal = (
            (face_left + face_right) / (h * h)
            + c_inv * r ** (tp - 1.0)
            + c_r2 * r ** (tp + 2.0)
        )
        c1 = c_inv / (2.0 * p)
        diagonal[0] -= face_left[0] * (1.0 + c1 * grid.r_min) / (1.0 + c1 * r[0]) / (h * h)
        sw = np.sqrt(weight)
        return diagonal / weight, -face_right[:-1] / (h * h) / (sw[:-1] * sw[1:])

    @pytest.mark.parametrize("p", [0.5, 0.618, 1.7, 3.2])
    @pytest.mark.parametrize("c_inv, c_r2", [(-1.3, 0.0), (0.4, 0.0), (0.0, 0.81)])
    def test_matches_direct_build(self, p, c_inv, c_r2):
        grid = oracle.RadialGrid(1e-4, 300.0, points=2000)
        system = oracle._TransformedOperator(p, c_r2, grid).system(c_inv)
        diagonal, off = self.direct(p, c_inv, c_r2, grid)
        # same arithmetic up to reassociation and pow rounding: 64 ulp
        tol = 64 * np.finfo(float).eps
        assert np.max(np.abs(system.diagonal / diagonal - 1.0)) <= tol
        assert np.array_equal(system.off_diagonal, off)


class TestModelB:
    def test_massless_coupling_ladder(self):
        params = sl.LinearMassParams(s=0.0)
        for n, l in [(0, 0), (1, 1), (2, 0)]:
            e2 = oracle.solve_modelB(params, n, l)
            assert abs(e2 - (4 * n + 2 * l + 3)) / (4 * n + 2 * l + 3) < 1e-7

    def test_coupled_case(self):
        params = sl.LinearMassParams(s=2.0, length_scale=1.5)
        e2_cf = sl.energy_squared(params, 1, 1)
        e2 = oracle.solve_modelB(params, 1, 1)
        assert abs(e2 - e2_cf) / e2_cf < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle.solve_modelB(sl.LinearMassParams(s=0.0), -1, 0)

    def test_alpha1_square_overflow_rejected(self):
        # alpha1 = 1e200: its square, the oscillator's c_r2, overflows
        with pytest.raises(InvalidParameter):
            oracle.solve_modelB(sl.LinearMassParams(s=1.0, length_scale=1e-200), 0, 0)


class TestWarmEigenpairs:
    """The certified Rayleigh-quotient kernel behind solve_modelA."""

    GRID = oracle.RadialGrid(1e-4, 60.0, 6000)

    @staticmethod
    def vectors(system, count):
        _, vecs = scipy.linalg.eigh_tridiagonal(
            system.diagonal, system.off_diagonal, select="i", select_range=(0, count - 1)
        )
        return vecs

    def test_sturm_count(self):
        system = oracle._TransformedOperator(1.0, 0.0, self.GRID).system(-1.0)
        vals = oracle.eigen_lowest(system, 4, check_nodes=False)
        assert oracle._sturm_count(system, vals[0] - 1e-3) == 0
        for i in range(3):
            assert oracle._sturm_count(system, 0.5 * (vals[i] + vals[i + 1])) == i + 1

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("c_inv", [-2.0, -0.9, -0.35])
    @pytest.mark.parametrize("n", [0, 2])
    def test_warm_matches_bisection(self, p, c_inv, n):
        # seeded, as within one solve, by the eigenvector at a nearby c_inv
        operator = oracle._TransformedOperator(p, 0.0, self.GRID)
        pair = oracle._Eigenpair(operator, n)
        pair.value(c_inv * (1.0 + 1e-5))
        system = operator.system(c_inv)
        mu, x = oracle._certified(system, pair.vector, n)
        exact = oracle.eigen_lowest(system, n + 1, check_nodes=False)[n]
        assert abs(mu - exact) <= 4.0 * oracle._ULP * oracle._norm(system)
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-14)
        assert oracle._count_nodes(x) == n

    @pytest.mark.parametrize("n, wrong", [(0, 1), (1, 0), (1, 2), (2, 3)])
    def test_neighbour_seed_fails_and_falls_back(self, n, wrong, monkeypatch):
        operator = oracle._TransformedOperator(1.0, 0.0, self.GRID)
        system = operator.system(-1.0)
        near = self.vectors(operator.system(-1.0001), wrong + 1)[:, wrong]
        assert oracle._certified(system, near, n) is None
        exact = oracle.eigen_lowest(system, n + 1, check_nodes=False)[n]
        calls = []
        original = oracle.eigen_lowest
        monkeypatch.setattr(oracle, "eigen_lowest", lambda *a, **k: calls.append(1) or original(*a, **k))
        pair = oracle._Eigenpair(operator, n)
        pair.vector = near
        assert pair.value(-1.0) == exact
        assert len(calls) == 1
        assert oracle._count_nodes(pair.vector) == n

    def test_prolong_keeps_coarse_nodes(self):
        grid = oracle.RadialGrid(0.5, 2.0, 400)
        fine = grid.refined()
        np.testing.assert_allclose(fine.nodes()[1::2], grid.nodes(), rtol=1e-14)

        def bump(r):  # vanishes at both walls
            return (r - grid.r_min) * (grid.r_max - r)

        out = oracle._prolong(bump(grid.nodes()))
        assert len(out) == fine.points
        np.testing.assert_allclose(out[1::2], bump(grid.nodes()), rtol=1e-12)
        # linear interpolation of a parabola is off by (h/2)^2 at midpoints
        assert np.max(np.abs(out - bump(fine.nodes()))) <= grid.h**2


class TestModelA:
    def test_ground_state(self):
        params = cm.MixedCoulombParams(q=0.5)
        E = oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=5)
        assert abs(E - 0.6) < 1e-8

    def test_excited_state(self):
        params = cm.MixedCoulombParams(q=0.5)
        e_cf = cm.candidate_energies(params, 1, 0)[0]
        E = oracle.solve_modelA(
            params, 1, 0, window=(e_cf - 0.01, e_cf + 0.01), scan_points=3
        )
        assert abs(E - e_cf) / e_cf < 1e-8

    def test_no_bracket(self):
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(NoBracket) as info:
            oracle.solve_modelA(params, 0, 0, window=(0.7, 0.75), scan_points=3)
        assert len(info.value.scan) == 3
        # every scan point is evaluated and listed, none of them a sign change
        energies, values = zip(*info.value.scan)
        assert np.allclose(energies, np.linspace(0.7, 0.75, 3), rtol=0, atol=1e-15)
        assert len({math.copysign(1.0, v) for v in values}) == 1

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        """Grid sizes of every oracle.eigen_lowest call, in order."""
        calls = []
        original = oracle.eigen_lowest

        def counted(*args, **kwargs):
            calls.append(args[0].grid.points)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "eigen_lowest", counted)
        return calls

    def test_eigensolves_per_level(self, eigensolves):
        # criterion 2's traffic: 3 scan points, a +/-1e-5 window per level
        params = cm.MixedCoulombParams(q=0.3, beta=0.5)
        rows = [r for r in cm.spectrum(params, 2, 1) if r.status == BOUND]
        for row in rows:
            E = oracle.solve_modelA(
                params, row.n, row.l, window=(row.energy - 1e-5, row.energy + 1e-5),
                scan_points=3,
            )
            assert abs(E - row.energy) / abs(row.energy) < 1e-6
        assert len(rows) >= 8
        # one stebz index solve per level; every later eigenvalue is warm
        assert len(eigensolves) / len(rows) <= 2.0

    def test_node_check_on_warm_vector(self, monkeypatch):
        calls = []

        def miscount(vec):
            calls.append(len(vec))
            return 1

        monkeypatch.setattr(oracle, "_count_nodes", miscount)
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(ConvergenceFailure):
            oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        # the coarse vector, not a node-checking eigen_lowest call
        assert calls == [6000]

    def test_first_of_two_sign_changes(self, eigensolves):
        # one window holding both the antiparticle and the particle root of
        # n = 0; the scan stops at the first sign change, next to its start
        params = cm.MixedCoulombParams(q=0.5, beta=0.5)
        e_plus, e_minus = cm.candidate_energies(params, 0, 0)
        E = oracle.solve_modelA(params, 0, 0, window=(e_minus - 0.015, e_plus + 0.012))
        assert abs(E - e_minus) / abs(e_minus) < 1e-6
        assert len(eigensolves) < 33

    def test_brent_nonconvergence_is_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "brentq", functools.partial(scipy.optimize.brentq, maxiter=1)
        )
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(ConvergenceFailure):
            oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)

    @pytest.mark.parametrize("window", [None, (0.0, 1.0), (-2.0, 2.0), (0.5, 5.0)])
    def test_ground_state_any_window(self, window):
        # (-2, 2) clips to the full window; (0.5, 5) has its midpoint outside
        # the physical window.  The window only limits the search, never the grid
        E = oracle.solve_modelA(cm.MixedCoulombParams(q=0.5), 0, 0, window=window)
        assert abs(E - 0.6) < 1e-8

    @pytest.mark.parametrize("n", [0, 2])
    def test_window_clipped_at_continuum(self, n):
        # the +/-0.02 window runs past E = -m0c^2, where eps -> 0: a grid in r
        # sized from the window misses these levels (4e-6 off for n = 0,
        # NoBracket for n = 2); the grid in x = eps r does not move
        params = cm.MixedCoulombParams(q=0.3, beta=0.5)
        e_minus = cm.candidate_energies(params, n, 2)[1]
        assert cm.validate(params, n, 2, e_minus, "antiparticle").status == BOUND
        E = oracle.solve_modelA(params, n, 2, window=(e_minus - 0.02, e_minus + 0.02))
        assert abs(E - e_minus) / abs(e_minus) < 1e-6

    @pytest.mark.parametrize("q, b", [(0.3, 0.0), (0.5, 0.5)])
    def test_window_clipped_at_continuum_deep_level(self, q, b):
        # n = 2 particle level 0.02 below the continuum: a grid in r sized at
        # the window end nearer the continuum (r_max = 2500 lambda0 on 6000
        # points) puts it 1.3e-6 (q = 0.3) and 4.8e-6 (q = 0.5) off
        params = cm.MixedCoulombParams(q=q, b=b)
        e_plus = cm.candidate_energies(params, 2, 0)[0]
        assert cm.validate(params, 2, 0, e_plus, "particle").status == BOUND
        E = oracle.solve_modelA(params, 2, 0, window=(e_plus - 0.02, e_plus + 0.02))
        assert abs(E - e_plus) / abs(e_plus) < 1e-6

    def test_bound_level_near_continuum_without_window(self):
        # antiparticle level 1.3e-3 m0c^2 above E = -m0c^2, where eps ~ 0.05;
        # the search over the whole physical window must find it
        params = cm.MixedCoulombParams(q=0.3, b=0.5, beta=-1.0)
        row = cm.validate(params, 0, 1, cm.candidate_energies(params, 0, 1)[1], ANTIPARTICLE)
        assert row.status == BOUND
        assert abs(row.energy - (-0.998738)) < 1e-6
        E = oracle.solve_modelA(params, 0, 1)
        assert abs(E - row.energy) < 1e-6

    @staticmethod
    def half_window(params, row):
        """The half of the physical window between the branch split and
        the continuum edge on the row's side."""
        e_plus, e_minus = cm.candidate_energies(params, row.n, row.l)
        split = 0.5 * (e_plus + e_minus)
        edge = params.constants.rest_energy
        if row.branch == PARTICLE:
            return split, edge - params.V0
        return -edge - params.V0, split

    @pytest.mark.parametrize(
        "params",
        [cm.MixedCoulombParams(q=0.5, beta=0.5), cm.MixedCoulombParams(q=0.3, b=0.5, beta=-1.0)],
    )
    def test_window_independence(self, params):
        # the same level from a +/-1e-5 window, a +/-0.02 window and half the
        # physical window; only the search changes, not the grid
        rows = cm.bound_levels(cm.spectrum(params, 1, 1))
        assert len(rows) >= 4
        for row in rows:
            energies = [
                oracle.solve_modelA(
                    params, row.n, row.l, window=(row.energy - 1e-5, row.energy + 1e-5),
                    scan_points=3,
                ),
                oracle.solve_modelA(
                    params, row.n, row.l, window=(row.energy - 0.02, row.energy + 0.02)
                ),
                oracle.solve_modelA(params, row.n, row.l, window=self.half_window(params, row)),
            ]
            assert (max(energies) - min(energies)) / abs(row.energy) <= 1e-9

    def test_non_natural_units(self):
        constants = PhysicalConstants(hbar_c=0.37, rest_energy=2.5)
        params = cm.MixedCoulombParams(q=0.5, beta=0.5, V0=0.3, constants=constants)
        half = 0.02 * constants.rest_energy
        rows = cm.bound_levels(cm.spectrum(params, 1, 1))
        assert len(rows) >= 4
        for row in rows:
            E = oracle.solve_modelA(
                params, row.n, row.l, window=(row.energy - half, row.energy + half)
            )
            assert abs(E - row.energy) / abs(row.energy) < 1e-6

    def test_fall_to_center_rejected(self):
        params = cm.MixedCoulombParams(q=3.0, b=1.0)
        with pytest.raises(UnrealRadicand):
            oracle.solve_modelA(params, 0, 0)

    def test_empty_window_rejected(self):
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(ValueError):
            oracle.solve_modelA(params, 0, 0, window=(2.0, 3.0))

