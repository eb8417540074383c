"""Self-tests and model checks for the finite-difference verifier."""

import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.linalg import eigh_tridiagonal
from hypothesis import assume, example, given, settings, strategies as st

from kgbound import coulomb_mixed as cm, oracle, scalar_linear as sl, verify
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


def _lowest(system, count, check_nodes=False):
    return [oracle.eigen_lowest(system, i, check_nodes=check_nodes) for i in range(count)]


def _p1(c_r2, grid):
    """-u'' + c_r2 r^2 u on the oscillator's r^p-factored scheme at p = 1."""
    return oracle._transformed_system(1.0, c_r2, grid)


class TestSelfTests:
    """Textbook fixtures on the solvers' coarse operators; acceptance criterion
    8 adds the Richardson values and checks lam_n(p) and sigma_n(p) over p."""

    def test_particle_in_a_box(self):
        vals = _lowest(_p1(0.0, oracle.RadialGrid(1e-9, 1.0, points=6000)), 4)
        for i, v in enumerate(vals):
            exact = ((i + 1) * math.pi) ** 2
            assert abs(v - exact) / exact < 1e-4

    def test_hydrogen_like(self):
        # -u'' - (lam/x) u = -u at l = 0 (p = 1) is bound for lam = 2(n + 1),
        # hydrogen's E_n = -1/(n+1)^2 rescaled: the coarse log-grid Sturmian
        grid = oracle.LogGrid(-20.0, math.log(26.0), 3000)
        vals = _lowest(oracle._sturmian_system(1.0, grid), 3, check_nodes=True)
        for i, v in enumerate(vals):
            assert abs(v - 2.0 * (i + 1)) / (2.0 * (i + 1)) < 1e-4

    def test_radial_oscillator(self):
        # -u'' + r^2 u = E u with u(0) = 0: E = 4n + 3
        vals = _lowest(_p1(1.0, oracle.RadialGrid(1e-8, 12.0, points=6000)), 3)
        for i, v in enumerate(vals):
            assert abs(v - (4 * i + 3)) / (4 * i + 3) < 1e-4

    def test_node_count_indexing(self):
        # eigen_lowest raises if eigenvector i does not have i nodes
        _lowest(_p1(0.0, oracle.RadialGrid(1e-9, 1.0, points=2000)), 6, check_nodes=True)

    def test_h2_convergence_factor(self):
        exact = math.pi**2
        errors = [
            abs(_lowest(_p1(0.0, oracle.RadialGrid(1e-9, 1.0, points=pts)), 1)[0] - exact)
            for pts in (1500, 3001)
        ]
        factor = errors[0] / errors[1]
        assert 3.5 <= factor <= 4.5

    def test_count_validation(self):
        system = _p1(0.0, oracle.RadialGrid(1e-9, 1.0, points=2000))
        with pytest.raises(ValueError):
            oracle.eigen_lowest(system, -1)
        with pytest.raises(ValueError):
            oracle.eigen_lowest(system, 200)
        assert oracle.eigen_lowest(system, 199, check_nodes=False) > 0.0


class TestLapackRoute:
    """eigen_lowest calls LAPACK's stebz (and stein) as scipy's
    eigh_tridiagonal does, with the oracle's one absolute tolerance, whether
    it loaded scipy's LAPACK module on its own or through scipy.linalg, so
    both routes return eigh_tridiagonal's floats."""

    # (system expression in `oracle`, index, node check): the log-grid
    # Sturmian and the oscillator, each on a coarse grid and its refinement
    CASES = [
        (f"oracle._sturmian_system({p!r}, oracle.LogGrid(-20.0, 3.4, {pts}))", n, pts == 3000)
        for p in (0.5, 1.37) for pts in (3000, 6000) for n in (0, 2)
    ] + [
        (f"oracle._transformed_system({p!r}, 1.0, oracle.RadialGrid(1e-4, 10.0, {pts}))", n,
         pts == 6000)
        for p in (1.0, 2.0) for pts in (6000, 12001) for n in (0, 2)
    ]

    def _reference(self):
        out = []
        for expression, n, nodes in self.CASES:
            system = eval(expression)
            result = eigh_tridiagonal(system.diagonal, system.off_diagonal, eigvals_only=not nodes,
                                      select="i", select_range=(n, n), tol=oracle.STEBZ_TOL)
            out.append(float((result[0] if nodes else result)[0]))
        return out

    def test_fresh_interpreter_matches_eigh_tridiagonal(self):
        probe = (
            "import json, sys\n"
            "from kgbound import oracle\n"
            f"cases = {self.CASES!r}\n"
            "vals = [oracle.eigen_lowest(eval(expression), n, check_nodes=nodes)\n"
            "        for expression, n, nodes in cases]\n"
            "print(json.dumps({'vals': [repr(v) for v in vals],\n"
            "                  'loaded': sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        # LAPACK was loaded on its own: no scipy module is registered
        assert report["loaded"] == []
        assert [float(v) for v in report["vals"]] == self._reference()

    def test_in_process_matches_eigh_tridiagonal(self):
        got = [oracle.eigen_lowest(eval(expression), n, check_nodes=nodes)
               for expression, n, nodes in self.CASES]
        assert got == self._reference()

    def test_non_finite_rejected(self):
        system = _p1(0.0, oracle.RadialGrid(1e-4, 25.0, 6000))
        for bad in (math.nan, math.inf):
            diagonal = system.diagonal.copy()
            diagonal[7] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                oracle.eigen_lowest(oracle.TridiagonalSystem(diagonal, system.off_diagonal, system.grid), 0)


class TestTransformedOperator:
    @staticmethod
    def direct(p, c_r2, grid):
        """The scheme built in one pass, as the solvers once did per evaluation."""
        h, r, tp = grid.h, grid.nodes(), 2.0 * p
        face_right = (r + 0.5 * h) ** tp
        face_left = np.concatenate(([(grid.r_min + 0.5 * h) ** tp], face_right[:-1]))
        weight = r**tp
        diagonal = (face_left + face_right) / (h * h) + c_r2 * r ** (tp + 2.0)
        # no flux through the wall face: w(r_min) = w(r_0)
        diagonal[0] -= face_left[0] / (h * h)
        sw = np.sqrt(weight)
        return diagonal / weight, -face_right[:-1] / (h * h) / (sw[:-1] * sw[1:])

    @pytest.mark.parametrize("p", [0.5, 0.618, 1.7, 3.2])
    def test_matches_direct_build(self, p):
        grid = oracle.RadialGrid(1e-4, 300.0, points=2000)
        system = oracle._transformed_system(p, 0.81, grid)
        diagonal, off = self.direct(p, 0.81, grid)
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
        # alpha1 = 1e200: the oscillator term alpha1^2 r^2 of the model's own
        # equation overflows, so solve_modelB rejects the alpha1 that
        # scalar_linear.nu_problem and wavefunctions.ode_residual reject
        with pytest.raises(InvalidParameter):
            oracle.solve_modelB(sl.LinearMassParams(s=1.0, length_scale=1e-200), 0, 0)

    @pytest.fixture
    def eigen_calls(self, monkeypatch):
        """(grid, check_nodes) of every oracle.eigen_lowest call, in order."""
        calls = []
        original = oracle.eigen_lowest

        def recorded(system, index, check_nodes=True):
            calls.append((system.grid, check_nodes))
            return original(system, index, check_nodes)

        monkeypatch.setattr(oracle, "eigen_lowest", recorded)
        return calls

    def test_eigensolves_depend_on_p_and_n_only(self, eigen_calls):
        # Richardson coarse and fine, then the node check on the coarse grid;
        # L and the constants scale y = sqrt(alpha1) r, not the grid
        oracle.solve_modelB(sl.LinearMassParams(s=0.5), 2, 1)
        assert [(g.points, check) for g, check in eigen_calls] == [
            (6000, False), (12001, False), (6000, True)]
        first = list(eigen_calls)
        eigen_calls.clear()
        constants = PhysicalConstants(hbar_c=0.2, rest_energy=3.0)
        oracle.solve_modelB(sl.LinearMassParams(s=0.1, length_scale=1e-4, constants=constants),
                            2, 1)
        assert eigen_calls == first

    @pytest.mark.parametrize("length_scale, constants", [
        (1e-4, PhysicalConstants()),
        (1e3, PhysicalConstants()),
        (1e-4, PhysicalConstants(hbar_c=0.2, rest_energy=3.0)),
    ])
    def test_scale_invariance(self, length_scale, constants):
        # in y = sqrt(alpha1) r neither L nor the constants enter the grid,
        # so L << hbar/(m0 c) is served as well as L = 1
        params = sl.LinearMassParams(s=0.5, length_scale=length_scale, constants=constants)
        for n, l in itertools.product(range(3), range(3)):
            e2 = sl.energy_squared(params, n, l)
            assert abs(oracle.solve_modelB(params, n, l) - e2) / e2 < 1e-6

    @pytest.mark.parametrize("s, n, l", [(0.0, 200, 11), (-11.48, 0, 0)])
    def test_range_edge_served(self, s, n, l):
        # p = 12 at the largest n, and p just below 12 with s < 0, where
        # E^2 amplifies sigma's error twelvefold
        params = sl.LinearMassParams(s=s)
        assert 11.9 < params.Lambda(l) + 1.0 <= 12.0
        e2 = sl.energy_squared(params, n, l)
        assert abs(oracle.solve_modelB(params, n, l) - e2) / e2 < 1e-6

    @pytest.mark.parametrize("s, n, l", [(0.5, 0, 11), (0.0, 201, 0)])
    def test_range_rejected(self, eigen_calls, s, n, l):
        # p = 12.01, and n = 201: refused before any eigensolve
        with pytest.raises(InvalidParameter, match="serves p"):
            oracle.solve_modelB(sl.LinearMassParams(s=s), n, l)
        assert eigen_calls == []


class TestSturmian:
    """The E-independent eigenproblem behind solve_modelA: in s = ln x it is
    A v = lam B v with A = -d^2/ds^2 + (p - 1/2)^2 + e^{2s} and B = e^s, and
    the coupling c at which -1 is the n-th eigenvalue of
    (A - e^{2s} + c B) v = mu e^{2s} v is -lam_n."""

    @staticmethod
    def weights(grid):
        """The diagonal weights e^s and e^{2s}, each halved on the Robin row."""
        s = grid.s_min + grid.h * np.arange(grid.points)
        b, c = np.exp(s), np.exp(2.0 * s)
        b[0] *= 0.5
        c[0] *= 0.5
        return b, c

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n", [0, 2])
    def test_coupling_has_eigenvalue_minus_one(self, p, n):
        grid = oracle.LogGrid(-20.0, math.log(30.0), 3000)
        system = oracle._sturmian_system(p, grid)
        lam = oracle.eigen_lowest(system, n)
        b, c = self.weights(grid)
        # A - lam B from the symmetrized B^-1/2 A B^-1/2, symmetrized with e^{2s}
        diagonal = (b * system.diagonal - c - lam * b) / c
        off = system.off_diagonal * np.sqrt(b[:-1] * b[1:] / (c[:-1] * c[1:]))
        fixed = oracle.TridiagonalSystem(diagonal, off, grid)
        assert abs(oracle.eigen_lowest(fixed, n) + 1.0) <= 1e-9

    @pytest.mark.parametrize("p", [0.5, 2.3])
    def test_symmetrizes_ghost_point_scheme(self, p):
        # the full ghost-point rows, Robin wall v' = (p - 1/2) v at s_min,
        # solved as a non-symmetric generalized problem
        grid = oracle.LogGrid(-6.0, 3.0, 400)
        h, kappa = grid.h, p - 0.5
        s = grid.s_min + h * np.arange(grid.points)
        a = np.diag(2.0 / h**2 + kappa**2 + np.exp(2.0 * s))
        a += np.diag(np.full(grid.points - 1, -1.0 / h**2), 1)
        a += np.diag(np.full(grid.points - 1, -1.0 / h**2), -1)
        a[0, 0] += 2.0 * kappa / h
        a[0, 1] = -2.0 / h**2
        exact = np.sort(scipy.linalg.eigvals(a, np.diag(np.exp(s))).real)[:3]
        system = oracle._sturmian_system(p, grid)
        got = [oracle.eigen_lowest(system, i) for i in range(3)]
        assert np.allclose(got, exact, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_richardson_matches_rotenberg(self, p, n):
        # -u'' + (p(p-1)/x^2 + c/x) u = -u is bound for c = -2(n + p)
        lam = oracle.sturmian_eigenvalue(p, n)
        assert abs(lam - 2.0 * (n + p)) <= 1e-9 * 2.0 * (n + p)


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
        assert list(energies) == np.linspace(0.7, 0.75, 3).tolist()
        assert len({math.copysign(1.0, v) for v in values}) == 1

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(
        window=st.one_of(
            st.tuples(st.floats(-10.0, 10.0), st.floats(1e-6, 10.0)),  # ordinary
            st.tuples(st.floats(-10.0, 10.0), st.floats(1e-10, 1e-9)),  # tiny
            st.tuples(  # subnormal: the step may underflow to 0
                st.integers(-(2**40), 2**40).map(lambda i: i * 5e-324),
                st.integers(1, 64).map(lambda m: m * 5e-324),
            ),
        ),
        points=st.sampled_from([2, 3, 33]),
    )
    @example(window=(0.0, 5e-324), points=3)
    @example(window=(-5e-324, 16 * 5e-324), points=33)
    def test_scan_is_linspace(self, window, points):
        # the scan points are np.linspace's floats, bit for bit
        lo, width = window
        hi = lo + width
        assume(lo < hi)
        scan = oracle._linspace(lo, hi, points)
        assert list(map(float.hex, scan)) == list(
            map(float.hex, np.linspace(lo, hi, points).tolist())
        )

    def test_memo_hit_makes_no_numpy_call(self, monkeypatch):
        # criterion 2's traffic on a warm lam_n memo runs in Python floats
        params = cm.MixedCoulombParams(q=0.5)
        e_cf = cm.candidate_energies(params, 0, 0)[0]
        window = (e_cf - 1e-5, e_cf + 1e-5)
        warm = oracle.solve_modelA(params, 0, 0, window=window, scan_points=3)

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} called on a memo hit")

        monkeypatch.setattr(oracle, "np", NoNumpy())
        again = oracle.solve_modelA(params, 0, 0, window=window, scan_points=3)
        assert type(again) is float
        assert again == warm

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        """Grid sizes of every oracle.eigen_lowest call, in order, from a cold
        lam_n memo."""
        oracle.sturmian_eigenvalue.cache_clear()
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
        # one stebz index solve per grid and distinct (p, n), none per scan
        # point: lam_n(p) is memoized, and both branches of a level share it
        keys = {(params.effective_L(row.l) + 1.0, row.n) for row in rows}
        assert len(keys) < len(rows)
        assert eigensolves == [3000, 6000] * len(keys)

    @pytest.fixture
    def miscounted_nodes(self, monkeypatch):
        """Lengths of the vectors whose nodes are counted, each miscounted as
        1, from a cold lam_n memo."""
        oracle.sturmian_eigenvalue.cache_clear()
        calls = []

        def miscount(vec):
            calls.append(len(vec))
            return 1

        monkeypatch.setattr(oracle, "_count_nodes", miscount)
        return calls

    def test_node_check_on_warm_vector(self, miscounted_nodes):
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(ConvergenceFailure):
            oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        # once per solve, on the coarse Sturmian eigenvector
        assert miscounted_nodes == [3000]

    def test_memo_hit_skips_eigensolves(self, eigensolves):
        # lam_n(p) is solved once per (p, n): a second call with the same key
        # costs no eigensolve and gets the identical float
        params = cm.MixedCoulombParams(q=0.5)
        first = oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        again = oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        assert eigensolves == [3000, 6000]
        assert again == first
        # the memo holds exactly what the scheme computes
        p = params.effective_L(0) + 1.0
        assert oracle.sturmian_eigenvalue(p, 0) == oracle.sturmian_eigenvalue.__wrapped__(p, 0)

    def test_failures_not_memoized(self, miscounted_nodes):
        params = cm.MixedCoulombParams(q=0.5)
        for _ in range(2):
            with pytest.raises(ConvergenceFailure):
                oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        # a failed node check raises again: the second call solves again
        assert miscounted_nodes == [3000, 3000]

    @pytest.mark.parametrize("scan_points", [-1, 0, 1, 2.5, 3.0, "3", None])
    def test_scan_points_validated(self, eigensolves, scan_points):
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(InvalidParameter, match="scan_points"):
            oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=scan_points)
        # refused before any eigensolve
        assert eigensolves == []

    @pytest.mark.parametrize("p, n", [
        (9.0, 0), (1.0, 5), (2.0, 4), (3.5, 2),  # 3.5, 2: criterion 2's widest key
        (9.05, 0), (1.0, 6), (2.0, 5),  # once refused: turning point past x = 12
        (0.5, 20), (10.0, 0), (10.0, 20),  # the box's corners
    ])
    def test_sturmian_range_served(self, p, n):
        # within 3.2e-7 of 2(n + p), worst at the corner (10, 20)
        assert abs(oracle.sturmian_eigenvalue(p, n) - 2.0 * (n + p)) <= 3.2e-7 * 2.0 * (n + p)

    @pytest.mark.parametrize("p, n", [(10.01, 0), (0.5, 21)])
    def test_sturmian_range_rejected(self, eigensolves, p, n):
        # just outside the box p <= 10, n <= 20
        with pytest.raises(InvalidParameter, match="serves p"):
            oracle.sturmian_eigenvalue(p, n)
        assert eigensolves == []

    @pytest.mark.parametrize("n, l", [(6, 3), (10, 2), (20, 0)])
    def test_level_past_old_wall_served(self, n, l):
        # outer turning points 19.4, 25.1 and 42: the fixed x-grid ending at
        # x = 25 refused them, the log grid puts its wall at x_t + 20
        params = cm.MixedCoulombParams(q=0.5)
        e_plus = cm.candidate_energies(params, n, l)[0]
        assert cm.validate(params, n, l, e_plus, PARTICLE).status == BOUND
        E = oracle.solve_modelA(params, n, l, window=(e_plus - 0.02, e_plus + 0.02))
        assert abs(E - e_plus) / abs(e_plus) < 1e-6

    def test_level_outside_box_rejected(self, eigensolves):
        # n = 21 is past the box edge: refused before any eigensolve
        params = cm.MixedCoulombParams(q=0.5)
        e_plus = cm.candidate_energies(params, 21, 0)[0]
        with pytest.raises(InvalidParameter, match="serves p"):
            oracle.solve_modelA(params, 21, 0, window=(e_plus - 0.02, e_plus + 0.02))
        assert eigensolves == []

    def test_two_scan_points(self):
        params = cm.MixedCoulombParams(q=0.5)
        E = oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=2)
        assert abs(E - 0.6) < 1e-8

    def test_first_of_two_sign_changes(self, eigensolves):
        # one window holding both the antiparticle and the particle root of
        # n = 0; Brent narrows the first sign change of the scan.  The 33 scan
        # points cost no eigensolve
        params = cm.MixedCoulombParams(q=0.5, beta=0.5)
        e_plus, e_minus = cm.candidate_energies(params, 0, 0)
        E = oracle.solve_modelA(params, 0, 0, window=(e_minus - 0.015, e_plus + 0.012))
        assert abs(E - e_minus) / abs(e_minus) < 1e-6
        assert eigensolves == [3000, 6000]

    def test_brent_nonconvergence_is_convergence_failure(self, monkeypatch):
        # one Brent step does not reach 1e-10; the message names the step
        # count and the scanned bracket, which holds the root 0.6 well inside
        monkeypatch.setattr(oracle, "BRENT_MAX_ITERATIONS", 1)
        params = cm.MixedCoulombParams(q=0.5)
        message = re.escape("after 1 iterations on [0.55, 0.605]")
        with pytest.raises(ConvergenceFailure, match=message):
            oracle.solve_modelA(params, 0, 0, window=(0.55, 0.66), scan_points=3)

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

    def test_fractional_exponent_level(self):
        # q = 0.5, b = 0.42, beta = 1, l = 0: p = L + 1 = 0.58, where the
        # r^p-factored uniform x-grid left 6.9e-6 behind
        params = cm.MixedCoulombParams(q=0.5, b=0.42, beta=1.0)
        assert params.effective_L(0) + 1.0 == pytest.approx(0.58)
        e_plus = cm.candidate_energies(params, 0, 0)[0]
        assert cm.validate(params, 0, 0, e_plus, PARTICLE).status == BOUND
        E = oracle.solve_modelA(params, 0, 0, window=(e_plus - 0.02, e_plus + 0.02))
        assert abs(E - e_plus) / abs(e_plus) < 1e-6

    def test_fall_to_center_rejected(self):
        params = cm.MixedCoulombParams(q=3.0, b=1.0)
        with pytest.raises(UnrealRadicand):
            oracle.solve_modelA(params, 0, 0)

    def test_empty_window_rejected(self):
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(ValueError):
            oracle.solve_modelA(params, 0, 0, window=(2.0, 3.0))


class TestBrent:
    """`_brent` returns scipy's brentq float, bit for bit."""

    @pytest.fixture
    def brent_calls(self, monkeypatch):
        """(f, a, b, xtol, root) of every `_brent` call made by solve_modelA."""
        calls = []
        original = oracle._brent

        def recorded(f, a, b, fa, fb, xtol):
            root = original(f, a, b, fa, fb, xtol)
            calls.append((f, a, b, xtol, root))
            return root

        monkeypatch.setattr(oracle, "_brent", recorded)
        return calls

    @pytest.mark.parametrize("half_width, scan_points", [(1e-5, 3), (0.02, 33)])
    def test_criterion_2_levels(self, brent_calls, half_width, scan_points):
        fx = next(spec.full for spec in verify.REGISTRY if spec.measure is verify._mixed_oracle)
        levels = [
            (params, row)
            for params in fx.params
            for row in cm.bound_levels(cm.spectrum(params, fx.n_max, fx.l_max))
        ]
        assert len(levels) == 234
        for params, row in levels:
            half = half_width * params.constants.rest_energy
            E = oracle.solve_modelA(
                params, row.n, row.l, window=(row.energy - half, row.energy + half),
                scan_points=scan_points,
            )
            assert E == brent_calls[-1][-1]
        # no scan point hit a root: every level went through _brent
        assert len(brent_calls) == len(levels)
        for f, a, b, xtol, root in brent_calls:
            assert root == scipy.optimize.brentq(f, a, b, xtol=xtol)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        shape=st.sampled_from(["cubic", "tanh"]),
        root=st.floats(-10.0, 10.0),
        left=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        right=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        slope=st.floats(0.0, 3.0),
        sign=st.sampled_from([1.0, -1.0]),
        xtol=st.floats(1e-14, 1e-3),
    )
    def test_smooth_brackets(self, shape, root, left, right, slope, sign, xtol):
        # a shifted cubic or tanh with its root in [a, b]; left = 0 or
        # right = 0 puts an exact root on an endpoint
        if shape == "cubic":
            def f(x):
                return sign * ((x - root) ** 3 + slope * (x - root))
        else:
            def f(x):
                return sign * math.tanh((0.1 + slope) * (x - root))
        a, b = root - left, root + right
        assume(a < b)
        fa, fb = f(a), f(b)
        assume(fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0))
        expected, info = scipy.optimize.brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
        if info.converged:
            assert oracle._brent(f, a, b, fa, fb, xtol) == expected
        else:
            with pytest.raises(ConvergenceFailure):
                oracle._brent(f, a, b, fa, fb, xtol)
