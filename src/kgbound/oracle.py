"""Independent finite-difference verifier for the two radial models.

Each model is solved in a scale-free variable (Rotenberg, Ann. Phys. 19, 262
(1962)), so its eigenvalue depends only on the origin exponent p and the
index n.  Both reduce to one E-independent Sturmian eigenproblem

    (-d^2/dx^2 + p(p-1)/x^2 + 1) u = lam u/x,

differenced on one grid with the origin behavior u ~ x^p built in, with one
Richardson step over the grid and its refinement.  Each solver rejects the
(p, n) outside the box it was measured to serve before any eigensolve.

The mixed model is solved in x = eps(E) r, where the coupling
c = gamma1(E)/eps(E) of a level equals -lam_n(p).  lam_n(p) is solved once
per (p, n) per process (`sturmian_eigenvalue`), and the energy is the root of
a scalar matching function, bound once per solve with its E-independent
floats computed once (`MixedCoulombParams.matching_function`), bracketed by a
scan that stops at its first sign change and narrowed by Brent's method
(`_brent`, which follows the brentq C loop step for step).

The scalar model, in y = sqrt(alpha1) r, is the oscillator
-u_yy + (p(p-1)/y^2 + y^2) u = sigma u.  With x = y^2 and u = y^(-1/2) w(x)
it becomes (-d^2/dx^2 + P(P-1)/x^2 + 1/4) w = (sigma/4) w/x, P = p/2 + 1/4,
and in x/2 that is the Sturmian problem at P with lam = sigma/2.  The map is
monotone, so the level keeps its node count, and u ~ y^p is w ~ x^P, so
sigma_n(p) = 2 lam_n(p/2 + 1/4) (`oscillator_eigenvalue`).

The Sturmian problem is solved in s = ln x: with u = e^{s/2} v it is
-v'' + (p - 1/2)^2 v + e^{2s} v = lam e^s v, whose solution is smooth in s
for every p, so the error is a clean h^2 on a uniform s-grid (the standard
radial grid of atomic codes; W. R. Johnson, Atomic Structure Theory, 2007).

Eigenvalues come from a Sturm-sequence bisection solver (LAPACK stebz, through
scipy's f2py wrapper) in index mode, one eigenvalue per call, run to LAPACK's
most accurate absolute tolerance: the log-grid matrix is graded, and
bisection resolves its small eigenvalues to high relative accuracy (Barlow
and Demmel, SIAM J. Numer. Anal. 27, 762 (1990)).  The textbook self-tests
(acceptance criterion 8) run on this same scheme.  The oracle imports no
scipy subpackage: it loads the LAPACK extension module on its own
(`_tridiagonal_lapack`).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .coulomb_mixed import MixedCoulombParams
from .errors import ConvergenceFailure, EnergyOutOfWindow, InvalidParameter, NoBracket
from .levels import require_quantum_numbers
from .scalar_linear import LinearMassParams
from .units import require_finite_square

BISECTION_TOL = 1e-10  # root tolerance on E, in units of the rest energy
BRENT_MAX_ITERATIONS = 100  # Brent steps per root before ConvergenceFailure
STURMIAN_CACHE_SIZE = 4096  # memoized (p, n) keys; each holds one float
BRENT_RTOL = 4.0 * sys.float_info.epsilon  # brentq's relative root tolerance
# stebz's absolute tolerance: twice the underflow threshold, LAPACK's most
# accurate value.  Its default, eps * |T|, stops up to 4e-2 off on the graded
# log-grid matrix, whose entries reach 3e13
STEBZ_TOL = 2.0 * sys.float_info.min


@dataclass(frozen=True)
class LogGrid:
    """Points s_min + i h, i < points, of s = ln x on [s_min, s_max): a Robin
    wall on the first point, a Dirichlet wall at s_max."""

    s_min: float
    s_max: float
    points: int

    @property
    def h(self) -> float:
        return (self.s_max - self.s_min) / self.points

    def refined(self) -> "LogGrid":
        """Same interval with exactly halved spacing."""
        return LogGrid(self.s_min, self.s_max, 2 * self.points)


@dataclass(frozen=True)
class TridiagonalSystem:
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: LogGrid


def _count_nodes(vec: np.ndarray) -> int:
    tol = 1e-9 * float(np.max(np.abs(vec)))
    signs = np.sign(vec[np.abs(vec) > tol])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@functools.cache
def _tridiagonal_lapack():
    """LAPACK's dstebz and dstein, as scipy.linalg.lapack wraps them.

    Importing the scipy.linalg package loads over 300 modules (its array-API
    layer pulls in numpy.testing, numpy.random, numpy.f2py, email, ...) and
    adds about 18000 objects that every later full garbage collection walks;
    the two routines need none of that.  So unless scipy.linalg is loaded
    already, the extension module that holds them, scipy/linalg/_flapack, is
    loaded on its own from scipy's directory, and left out of sys.modules.
    Where that fails, the public scipy.linalg.lapack is imported instead.
    Both routes reach the same f2py wrapper of the same LAPACK, so no float
    depends on the route.
    """
    scipy_spec = None if "scipy.linalg" in sys.modules else importlib.util.find_spec("scipy")
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        finder = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.linalg._flapack")
        if spec is not None:
            try:
                flapack = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(flapack)
                return flapack.dstebz, flapack.dstein
            except (ImportError, AttributeError):
                pass
            finally:
                # CPython registers the module as it creates it; without the
                # entry, a later import of scipy.linalg builds the package
                # (and its _flapack attribute) as usual
                sys.modules.pop(spec.name, None)
    from scipy.linalg.lapack import dstebz, dstein

    return dstebz, dstein


def eigen_lowest(system: TridiagonalSystem, index: int, check_nodes: bool = True) -> float:
    """The index-th algebraically smallest eigenvalue, by Sturm-sequence
    bisection (stebz in index mode, the call scipy's eigh_tridiagonal makes
    for select="i"); with `check_nodes`, its eigenvector (stein) must have
    `index` interior nodes."""
    if index < 0:
        raise InvalidParameter("index must not be negative")
    if index >= system.grid.points // 10:
        raise InvalidParameter("index must be below points/10")
    d, e = system.diagonal, system.off_diagonal
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    # loaded on first use, so the closed-form commands never load LAPACK
    stebz, stein = _tridiagonal_lapack()
    # range 2 (by index), unused value bounds 0 and 1; order "B" (by block)
    # is what stein takes
    m, vals, iblock, isplit, info = stebz(
        d, e, 2, 0.0, 1.0, index + 1, index + 1, STEBZ_TOL, "B" if check_nodes else "E"
    )
    if info != 0:
        raise ConvergenceFailure(f"stebz exited with info = {info}")
    vals = vals[:m]
    if check_nodes:
        vecs, info = stein(d, e, vals, iblock, isplit)
        if info != 0:
            raise ConvergenceFailure(f"stein: {info} eigenvectors failed to converge")
        nodes = _count_nodes(vecs[:, 0])
        if nodes != index:
            raise ConvergenceFailure(f"eigenvector {index} has {nodes} interior nodes")
    return float(vals[0])


# ---------------------------------------------------------------------------
# the scheme


def _sturmian_system(p: float, grid: LogGrid) -> TridiagonalSystem:
    """-v'' + (p - 1/2)^2 v + e^{2s} v = lam e^s v, which is (-d^2/dx^2 +
    p(p-1)/x^2 + 1) u = lam u/x in x = e^s, u = e^{s/2} v, differenced on
    `grid` and symmetrized with its weight e^s.  The regular solution
    u ~ x^p gives the Robin wall v' = (p - 1/2) v at s_min, closed by a ghost
    point; that row is halved, and so is its weight, to keep the matrix
    symmetric."""
    h, kappa = grid.h, p - 0.5
    weight = np.exp(grid.s_min + h * np.arange(grid.points))
    diagonal = 2.0 / (h * h) + kappa * kappa + weight * weight
    diagonal[0] = 0.5 * diagonal[0] + kappa / h
    weight[0] *= 0.5
    sw = np.sqrt(weight)
    return TridiagonalSystem(diagonal / weight, -1.0 / (h * h) / (sw[:-1] * sw[1:]), grid)


def _sturmian_grid(p: float, n: int) -> LogGrid:
    """The coarse grid of lam_n(p), for both solvers: s = ln x from -20 to a
    Dirichlet wall at ln(x_t + 20 + n), x_t = n + p + sqrt((n + p)^2 -
    p(p - 1)) the outer turning point, with 3000 + 90 n points."""
    turning = n + p + math.sqrt((n + p) ** 2 - p * (p - 1.0))
    return LogGrid(-20.0, math.log(turning + 20.0 + n), 3000 + 90 * n)


def _linspace(lo: float, hi: float, points: int) -> list[float]:
    """np.linspace(lo, hi, points).tolist() for floats lo < hi and points >= 2,
    by numpy's own float operations in the same order, without numpy: point i
    is i * step + lo, or (i / div) * delta + lo where the step underflows to 0
    (numpy's branch for subnormal widths), and the last point is hi."""
    div = points - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        scan = [i / div * delta + lo for i in range(div)]
    else:
        scan = [i * step + lo for i in range(div)]
    scan.append(hi)
    return scan


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """A root of f on [a, b] by Brent's method (Brent 1973, ch. 4), given
    fa = f(a) and fb = f(b) of opposite signs (or one of them zero).

    It follows scipy's brentq C loop step for step, with the same float
    operations in the same order: rtol = 4 eps (BRENT_RTOL), the same
    interpolate / extrapolate / bisect rule and the same minimum step delta.
    So it returns brentq's float, without evaluating f at a and b again.
    After BRENT_MAX_ITERATIONS steps it raises ConvergenceFailure.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise ConvergenceFailure(
        f"Brent's method stopped unconverged after {BRENT_MAX_ITERATIONS} "
        f"iterations on [{a!r}, {b!r}]"
    )


# ---------------------------------------------------------------------------
# model solvers


@functools.lru_cache(maxsize=STURMIAN_CACHE_SIZE)
def sturmian_eigenvalue(p: float, n: int) -> float:
    """lam_n(p): the n-th eigenvalue of the Sturmian problem (-d^2/dx^2 +
    p(p-1)/x^2 + 1) u = lam u/x, on `_sturmian_grid(p, n)` and on its
    refinement, Richardson-extrapolated (the coarse eigenvector checked to
    have n nodes).  It depends on nothing else, so it is memoized per (p, n)
    for the life of the process; a failed solve raises again on every call.

    It serves p <= 10 and n <= 20: there lam_n(p) is within 4.9e-8 of
    2(n + p), worst at the corner (10, 20), and within 8.8e-9 for n <= 8.
    Anything else is rejected before any eigensolve.
    """
    if p > 10.0 or n > 20:
        raise InvalidParameter(
            f"(p, n) = ({p!r}, {n}): the Sturmian grid serves p = L + 1 <= 10 and n <= 20"
        )
    grid = _sturmian_grid(p, n)
    coarse = eigen_lowest(_sturmian_system(p, grid), n)
    fine = eigen_lowest(_sturmian_system(p, grid.refined()), n, check_nodes=False)
    return (4.0 * fine - coarse) / 3.0


def oscillator_eigenvalue(p: float, n: int) -> float:
    """sigma_n(p): the n-th eigenvalue of -u'' + (p(p-1)/y^2 + y^2) u = sigma u,
    which is 2 lam_n(p/2 + 1/4) (the module docstring): lam_n is solved as
    `sturmian_eigenvalue` solves it, to the same float, but not memoized; the
    coarse eigenvector is checked to have n nodes after the Richardson step.

    It serves p <= 12 and n <= 200: there sigma_n(p) is within 5.2e-7 of
    4n + 2p + 1, worst at the corner (12, 200), within 1.1e-7 for n <= 40 and
    within 4.3e-9 for n <= 4.  Anything else is rejected before any
    eigensolve.
    """
    if p > 12.0 or n > 200:
        raise InvalidParameter(
            f"(p, n) = ({p!r}, {n}): the oscillator grid serves p = Lambda + 1 <= 12 and n <= 200"
        )
    P = 0.5 * p + 0.25
    grid = _sturmian_grid(P, n)
    system = _sturmian_system(P, grid)
    coarse = eigen_lowest(system, n, check_nodes=False)
    fine = eigen_lowest(_sturmian_system(P, grid.refined()), n, check_nodes=False)
    eigen_lowest(system, n)  # the coarse eigenvector must have n nodes
    return 2.0 * ((4.0 * fine - coarse) / 3.0)


def solve_modelB(params: LinearMassParams, n: int, l: int) -> float:
    """E^2 for the scalar linear-mass model from the oscillator eigenvalue.

    In y = sqrt(alpha1) r the reduced equation -u'' + (alpha1^2 r^2 +
    alpha2/r^2) u = kappa u becomes -u_yy + (p(p-1)/y^2 + y^2) u = sigma u,
    with kappa = alpha1 sigma and p = Lambda + 1, so sigma_n(p) depends on
    (p, n) alone and E^2 = alpha1 sigma (hbar c)^2 + 2 m0c^2 s/L.
    `oscillator_eigenvalue` solves sigma_n(p) as 2 lam_n(p/2 + 1/4) on the
    Sturmian grid, in three eigensolves per call (it is not memoized), and
    rejects p > 12 and n > 200.  The relative error of E^2 is that of sigma
    times sigma/(sigma + 2s/(hbar c)), which exceeds 1 for s < 0: about 12
    at p = 12, n = 0.
    """
    require_quantum_numbers(n, l)
    require_finite_square(alpha1=params.alpha1)
    c = params.constants
    kappa = params.alpha1 * oscillator_eigenvalue(params.Lambda(l) + 1.0, n)
    return kappa * (c.hbar_c * c.hbar_c) + 2.0 * c.rest_energy * params.s / params.length_scale


def solve_modelA(
    params: MixedCoulombParams,
    n: int,
    l: int,
    window: tuple[float, float] | None = None,
    scan_points: int = 33,
) -> float:
    """Bound energy of the mixed model by Brent's method on a scanned bracket.

    In x = eps(E) r the reduced equation u'' = (eps^2 + gamma1/r + gamma2/r^2) u
    becomes -u_xx + (gamma2/x^2 + c/x) u = -u with c = gamma1(E)/eps(E), one
    E-independent Sturmian problem (-d^2/dx^2 + p(p-1)/x^2 + 1) u = lam u/x
    with lam = -c.  Its n-th eigenvalue lam_n, solved once per (p, n) per
    process by `sturmian_eigenvalue` (which rejects p > 10 and n > 20),
    gives a level as a root of f(E) = gamma1(E)/eps(E) + lam_n.  f has the
    signs and roots of mu_n(c(E)) + 1, mu_n the n-th eigenvalue at fixed c,
    since mu_n increases with c.  f is bound once per call
    (`params.matching_function`, the floats of gamma1/eps + lam_n bit for
    bit) and evaluated along a scan of the (open) energy window, at
    np.linspace's points computed in Python floats (`_linspace`).  The scan
    stops at the first exact zero or sign change, and Brent's method
    (`_brent`, starting from the two scan values) narrows that bracket to
    1e-10 * m0c^2; only a scan with no sign change evaluates every point, and
    NoBracket lists them all.  On a memo hit for lam_n no numpy call is made.
    `window` restricts the search, e.g. to isolate one of the
    particle/antiparticle roots; it does not change lam_n.  The physical
    window is padded 1e-9 m0c^2 inside the continuum edges; where |V0| is so
    large that rounding loses the pad, a window end with eps = 0 raises
    EnergyOutOfWindow before any evaluation.  `scan_points` must be an
    integer of at least 2.
    """
    require_quantum_numbers(n, l)
    # int first: numbers.Integral's ABC check costs 0.4 us even for an int
    if not isinstance(scan_points, (int, numbers.Integral)) or scan_points < 2:
        raise InvalidParameter("scan_points must be an integer of at least 2")
    mc2 = params.constants.rest_energy
    p = params.effective_L(l) + 1.0

    pad = 1e-9 * mc2
    lo_phys, hi_phys = -mc2 - params.V0 + pad, mc2 - params.V0 - pad
    if window is None:
        window = (lo_phys, hi_phys)
    lo, hi = float(max(window[0], lo_phys)), float(min(window[1], hi_phys))
    if not lo < hi:
        raise InvalidParameter("empty energy window")
    # at |V0| >> m0c^2 the pad can be lost when the ends are rounded
    if params.epsilon(lo) == 0.0 or params.epsilon(hi) == 0.0:
        raise EnergyOutOfWindow(f"eps = 0 at an end of the energy window [{lo!r}, {hi!r}]")
    f = params.matching_function(sturmian_eigenvalue(p, n))
    scan = _linspace(lo, hi, scan_points)
    values = []
    for E in scan:
        value = f(E)
        if value == 0.0:
            return E
        if values and values[-1] * value < 0.0:
            return _brent(f, scan[len(values) - 1], E, values[-1], value, BISECTION_TOL * mc2)
        values.append(value)
    table = ", ".join(f"f({E:.6g})={v:.6g}" for E, v in zip(scan, values))
    raise NoBracket(
        f"no sign change of the matching function on the scanned window: {table}",
        scan=list(zip(scan, values)),
    )
