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


def _lowest(c_inv, c_r2, grid, count, check_nodes=False):
    """Lowest eigenvalues of -u'' + (c_inv/r + c_r2 r^2) u on the solvers' p = 1 operator."""
    system = oracle._TransformedOperator(1.0, c_r2, grid).system(c_inv)
    return [oracle.eigen_lowest(system, i, check_nodes=check_nodes) for i in range(count)]


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
            oracle.eigen_lowest(system, -1)
        with pytest.raises(ValueError):
            oracle.eigen_lowest(system, 200)
        assert oracle.eigen_lowest(system, 199, check_nodes=False) > 0.0


def _route_system(p, c_r2, level, c_inv):
    operator = getattr(oracle._TransformedScheme(p, c_r2, oracle.MIXED_GRID), level)
    return operator.sturmian() if c_inv is None else operator.system(c_inv)


class TestLapackRoute:
    """eigen_lowest calls LAPACK's stebz (and stein) as scipy's
    eigh_tridiagonal does, whether it loaded scipy's LAPACK module on its own
    or through scipy.linalg, so both routes return eigh_tridiagonal's floats."""

    # (p, c_r2, coarse/fine, c_inv or None for the Sturmian system, index, node check)
    CASES = [
        (p, c_r2, level, c_inv, n, level == "coarse")
        for p, c_r2, c_inv in ((0.5, 0.0, None), (1.37, 0.0, None), (2.0, 0.0, -1.3), (1.0, 0.04, 0.0))
        for level in ("coarse", "fine")
        for n in (0, 2)
    ]

    def _reference(self):
        out = []
        for p, c_r2, level, c_inv, n, nodes in self.CASES:
            system = _route_system(p, c_r2, level, c_inv)
            result = eigh_tridiagonal(system.diagonal, system.off_diagonal, eigvals_only=not nodes,
                                      select="i", select_range=(n, n))
            out.append(float((result[0] if nodes else result)[0]))
        return out

    def test_fresh_interpreter_matches_eigh_tridiagonal(self):
        probe = (
            "import json, sys\n"
            "from kgbound import oracle\n"
            f"cases = {self.CASES!r}\n"
            "vals = []\n"
            "for p, c_r2, level, c_inv, n, nodes in cases:\n"
            "    op = getattr(oracle._TransformedScheme(p, c_r2, oracle.MIXED_GRID), level)\n"
            "    system = op.sturmian() if c_inv is None else op.system(c_inv)\n"
            "    vals.append(oracle.eigen_lowest(system, n, check_nodes=nodes))\n"
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
        got = [oracle.eigen_lowest(_route_system(p, c_r2, level, c_inv), n, check_nodes=nodes)
               for p, c_r2, level, c_inv, n, nodes in self.CASES]
        assert got == self._reference()

    def test_non_finite_rejected(self):
        system = _route_system(1.0, 0.0, "coarse", 0.0)
        for bad in (math.nan, math.inf):
            diagonal = system.diagonal.copy()
            diagonal[7] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                oracle.eigen_lowest(oracle.TridiagonalSystem(diagonal, system.off_diagonal, system.grid), 0)


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
        # the wall value folded in through w(r_min)/w(r_0) ~ 1 - c_inv h/(2p)
        diagonal[0] -= face_left[0] * (1.0 - c_inv * h / (2.0 * p)) / (h * h)
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
    """The E-independent eigenproblem behind solve_modelA: on a fixed grid the
    coupling c_inv at which -1 is the n-th eigenvalue is -lam_n."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n", [0, 2])
    def test_coupling_has_eigenvalue_minus_one(self, p, n):
        operator = oracle._TransformedOperator(p, 0.0, oracle.MIXED_GRID)
        lam = oracle.eigen_lowest(operator.sturmian(), n)
        assert abs(oracle.eigen_lowest(operator.system(-lam), n) + 1.0) <= 1e-9

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_richardson_matches_rotenberg(self, p, n):
        # -u'' + (p(p-1)/x^2 + c/x) u = -u is bound for c = -2(n + p)
        lam = oracle._TransformedScheme(p, 0.0, oracle.MIXED_GRID).sturmian(n)
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
        assert eigensolves == [6000, 12001] * len(keys)

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
        assert miscounted_nodes == [6000]

    def test_memo_hit_skips_eigensolves(self, eigensolves):
        # lam_n(p) is solved once per (p, n): a second call with the same key
        # costs no eigensolve and gets the identical float
        params = cm.MixedCoulombParams(q=0.5)
        first = oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        again = oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        assert eigensolves == [6000, 12001]
        assert again == first
        # the memo holds exactly what the scheme computes
        p = params.effective_L(0) + 1.0
        scheme = oracle._TransformedScheme(p, 0.0, oracle.MIXED_GRID)
        assert oracle.sturmian_eigenvalue(p, 0) == scheme.sturmian(0)

    def test_failures_not_memoized(self, miscounted_nodes):
        params = cm.MixedCoulombParams(q=0.5)
        for _ in range(2):
            with pytest.raises(ConvergenceFailure):
                oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=3)
        # a failed node check raises again: the second call solves again
        assert miscounted_nodes == [6000, 6000]

    @pytest.mark.parametrize("scan_points", [-1, 0, 1, 2.5, 3.0, "3", None])
    def test_scan_points_validated(self, eigensolves, scan_points):
        params = cm.MixedCoulombParams(q=0.5)
        with pytest.raises(InvalidParameter, match="scan_points"):
            oracle.solve_modelA(params, 0, 0, window=(0.55, 0.65), scan_points=scan_points)
        # refused before any eigensolve
        assert eigensolves == []

    @pytest.mark.parametrize("p, n", [(9.0, 0), (1.0, 5), (2.0, 4), (3.5, 2)])
    def test_sturmian_range_served(self, p, n):
        # turning points 12, 12, 11.8 and 10.1 (criterion 2's widest key)
        assert abs(oracle.sturmian_eigenvalue(p, n) - 2.0 * (n + p)) <= 2e-7 * 2.0 * (n + p)

    @pytest.mark.parametrize("p, n", [(9.05, 0), (1.0, 6), (2.0, 5)])
    def test_sturmian_range_rejected(self, eigensolves, p, n):
        # turning points 12.06, 14 and 13.9: the wall at x = 25 shows
        with pytest.raises(InvalidParameter, match="turning point"):
            oracle.sturmian_eigenvalue(p, n)
        assert eigensolves == []

    def test_truncated_level_rejected(self, eigensolves):
        # p = 4, n = 6 (turning point 19.4): the wall at x = 25 would put
        # the level 3.7e-6 off its closed form; refused before any eigensolve
        params = cm.MixedCoulombParams(q=0.5)
        e_plus = cm.candidate_energies(params, 6, 3)[0]
        with pytest.raises(InvalidParameter, match="turning point"):
            oracle.solve_modelA(params, 6, 3, window=(e_plus - 0.02, e_plus + 0.02))
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
        assert eigensolves == [6000, 12001]

    def test_brent_nonconvergence_is_convergence_failure(self, monkeypatch):
        # one Brent step does not reach 1e-10; the message names the step
        # count and the scanned bracket
        monkeypatch.setattr(oracle, "BRENT_MAX_ITERATIONS", 1)
        params = cm.MixedCoulombParams(q=0.5)
        message = re.escape("after 1 iterations on [0.55, 0.6000000000000001]")
        with pytest.raises(ConvergenceFailure, match=message):
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

    @pytest.mark.xfail(
        strict=True,
        reason="Richardson's h^2 step leaves 6.9e-6 at p = 0.58: "
        "the frozen 1e-6 is missed for 0.51 <~ p <~ 0.8",
    )
    def test_fractional_exponent_level(self):
        # q = 0.5, b = 0.42, beta = 1, l = 0: p = L + 1 = 0.58
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
