"""Independent finite-difference verifier for the two radial models.

One discretization lives here.  The radial equation

    -u'' + (p(p-1)/r^2 + c_inv/r + c_r2 r^2) u = mu u

is solved with its known origin behavior factored out, u = r^p w, by
differencing the equivalent Sturm-Liouville problem for the smooth factor w:

    -(r^2p w')' + (c_inv r^{2p-1} + c_r2 r^{2p+2}) w = mu r^2p w.

That keeps second-order accuracy for non-integer and even critical (p = 1/2)
exponents, where a plain three-point scheme on u stalls; one Richardson step
then removes the leading h^2 error (for 0.51 <~ p <~ 0.8 it leaves enough
behind that a mixed level misses 1e-6).  Both model solvers and the textbook
self-tests (box, hydrogen-like, oscillator; acceptance criterion 8) run on
this one scheme.  Eigenvalues come from a Sturm-sequence bisection solver
(LAPACK stebz, through scipy's f2py wrapper) in index mode, one eigenvalue
per call.  Each model is solved in a scale-free variable (Rotenberg, Ann.
Phys. 19, 262 (1962)), so its eigenvalue depends only on the origin exponent
p and the index n.  The scalar model, in y = sqrt(alpha1) r, is the oscillator
-u_yy + (p(p-1)/y^2 + y^2) u = sigma u on a grid sized from (p, n) alone.
The mixed model is solved in x = eps(E) r on one fixed x-grid, where its
levels solve one E-independent Sturmian eigenproblem: the coupling
c = gamma1(E)/eps(E) is the eigenvalue, solved once per (p, n) per process
(`sturmian_eigenvalue`), and the energy is the root of a scalar matching
function, bracketed by a scan and narrowed by Brent's method (`_brent`, which
follows the brentq C loop step for step).  Each solver rejects the (p, n) its
grid does not serve.  The oracle imports no scipy subpackage: it loads the
LAPACK extension module on its own (`_tridiagonal_lapack`).
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
from .errors import ConvergenceFailure, InvalidParameter, NoBracket
from .levels import require_quantum_numbers
from .scalar_linear import LinearMassParams
from .units import require_finite_square

BISECTION_TOL = 1e-10  # root tolerance on E, in units of the rest energy
BRENT_MAX_ITERATIONS = 100  # Brent steps per root before ConvergenceFailure
STURMIAN_CACHE_SIZE = 4096  # memoized (p, n) keys; each holds one float


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of interior points on (r_min, r_max), Dirichlet walls."""

    r_min: float
    r_max: float
    points: int = 6000

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise InvalidParameter("require 0 < r_min < r_max")
        if self.points < 200:
            raise InvalidParameter("require at least 200 grid points")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.points + 1)

    def nodes(self) -> np.ndarray:
        return self.r_min + self.h * np.arange(1, self.points + 1)

    def refined(self) -> "RadialGrid":
        """Same interval with exactly halved spacing."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.points + 1)


@dataclass(frozen=True)
class TridiagonalSystem:
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: RadialGrid


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
    # range 2 (by index), unused value bounds 0 and 1, absolute tolerance 0
    # (LAPACK's default); order "B" (by block) is what stein takes
    m, vals, iblock, isplit, info = stebz(
        d, e, 2, 0.0, 1.0, index + 1, index + 1, 0.0, "B" if check_nodes else "E"
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
# transformed scheme used by the model solvers


class _TransformedOperator:
    """Symmetrized discretization of the r^p-factored radial equation on one grid.

    Everything but the 1/r coefficient c_inv is fixed per (p, c_r2, grid) and
    built once, and the operator is affine in c_inv: T(c_inv) = base + c_inv W.
    W is diag(1/r) but for element 0, where the left wall value is folded in
    through the regular series w = 1 + c_inv r/(2p) + ..., linearized to
    w(r_min)/w(r_0) = 1 - c_inv h/(2p) so that T stays affine.
    """

    def __init__(self, p: float, c_r2: float, grid: RadialGrid):
        h = grid.h
        r = grid.nodes()
        tp = 2.0 * p
        face_right = (r + 0.5 * h) ** tp
        face_wall = (grid.r_min + 0.5 * h) ** tp
        weight = r**tp
        face_left = np.concatenate(([face_wall], face_right[:-1]))
        fold = face_wall / (h * h * weight[0])
        self._base = (face_left + face_right) / (h * h * weight) + c_r2 * r * r
        self._base[0] -= fold
        self._w = 1.0 / r
        self._w[0] += fold * h / tp
        sw = np.sqrt(weight)
        self._off = -face_right[:-1] / (h * h) / (sw[:-1] * sw[1:])
        self.grid = grid

    def system(self, c_inv: float) -> TridiagonalSystem:
        return TridiagonalSystem(self._base + c_inv * self._w, self._off, self.grid)

    def sturmian(self) -> TridiagonalSystem:
        """W^-1/2 (base + 1) W^-1/2: its index-th eigenvalue lam is the c_inv =
        -lam at which system(c_inv) has -1 as its index-th eigenvalue."""
        s = 1.0 / np.sqrt(self._w)
        return TridiagonalSystem((self._base + 1.0) * s * s, self._off * s[:-1] * s[1:], self.grid)


class _TransformedScheme:
    """Coarse and refined operators of one grid, for one Richardson step."""

    def __init__(self, p: float, c_r2: float, grid: RadialGrid):
        self.coarse = _TransformedOperator(p, c_r2, grid)
        self.fine = _TransformedOperator(p, c_r2, grid.refined())

    def eigenvalue(self, c_inv: float, index: int) -> float:
        """Richardson-extrapolated index-th eigenvalue of system(c_inv)."""
        coarse = eigen_lowest(self.coarse.system(c_inv), index, check_nodes=False)
        fine = eigen_lowest(self.fine.system(c_inv), index, check_nodes=False)
        return (4.0 * fine - coarse) / 3.0

    def check_nodes(self, c_inv: float, index: int) -> None:
        eigen_lowest(self.coarse.system(c_inv), index, check_nodes=True)

    def sturmian(self, index: int) -> float:
        """Richardson-extrapolated index-th eigenvalue of sturmian(); the
        coarse eigenvector must have `index` interior nodes."""
        coarse = eigen_lowest(self.coarse.sturmian(), index)
        fine = eigen_lowest(self.fine.sturmian(), index, check_nodes=False)
        return (4.0 * fine - coarse) / 3.0


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
    operations in the same order: rtol = 4 eps, the same interpolate /
    extrapolate / bisect rule and the same minimum step delta.  So it returns
    brentq's float, without evaluating f at a and b again.  After
    BRENT_MAX_ITERATIONS steps it raises ConvergenceFailure.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    rtol = 4.0 * sys.float_info.epsilon
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
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


# the mixed model's grid in x = eps(E) r, where every bound level has mu = -1
MIXED_GRID = RadialGrid(1e-5, 25.0, 6000)


@functools.lru_cache(maxsize=STURMIAN_CACHE_SIZE)
def sturmian_eigenvalue(p: float, n: int) -> float:
    """lam_n(p): the Richardson-extrapolated n-th eigenvalue of the Sturmian
    problem (-d^2/dx^2 + p(p-1)/x^2 + 1) u = lam u/x on MIXED_GRID (the coarse
    eigenvector checked to have n nodes).  It depends on nothing else, so it
    is memoized per (p, n) for the life of the process; a failed solve raises
    again on every call.

    MIXED_GRID ends at x = 25, so (p, n) is served only where the level's
    outer turning point, n + p + sqrt((n + p)^2 - p(p - 1)), is at most 12;
    there lam_n(p) is within 2e-7 of 2(n + p) for p >= 1.  Beyond it the wall
    shows: 8.8e-7 at (p, n) = (10, 0), 3.7e-4 at (4, 6).  Anything else is
    rejected before any eigensolve.  (For p < 1 the Richardson step leaves
    more behind, inside the region too: up to 1.7e-6 at p = 1/2 and 2e-5 for
    0.55 <= p <= 0.7.)
    """
    turning = n + p + math.sqrt((n + p) ** 2 - p * (p - 1.0))
    if turning > 12.0:
        raise InvalidParameter(
            f"(p, n) = ({p!r}, {n}) has its turning point at x = {turning:.4g} > 12: "
            "MIXED_GRID ends at x = 25"
        )
    return _TransformedScheme(p, 0.0, MIXED_GRID).sturmian(n)


def solve_modelB(params: LinearMassParams, n: int, l: int) -> float:
    """E^2 for the scalar linear-mass model from the oscillator eigenvalue.

    In y = sqrt(alpha1) r the reduced equation -u'' + (alpha1^2 r^2 +
    alpha2/r^2) u = kappa u becomes -u_yy + (p(p-1)/y^2 + y^2) u = sigma u,
    with kappa = alpha1 sigma and p = Lambda + 1, so sigma_n(p) depends on
    (p, n) alone and E^2 = alpha1 sigma (hbar c)^2 + 2 m0c^2 s/L.  sigma_n(p)
    is bisected on the grid (1e-4, sqrt(4n + 2p + 1) + 7) of 6000 points and
    on its refinement, Richardson-extrapolated, and the coarse eigenvector is
    checked to have n nodes.

    The grid serves p <= 12 and n <= 200: there sigma_n(p) is within 3.2e-8
    of 4n + 2p + 1 for n <= 40 and within 2.1e-7 up to n = 200.  Past them
    the error grows (1.8e-6 at p = 18, 2.7e-4 at p = 25, ConvergenceFailure
    at p = 30; 2.4e-6 at n = 400), so anything else is rejected before any
    eigensolve.  The relative error of E^2 is that of sigma times
    sigma/(sigma + 2s/(hbar c)), which exceeds 1 for s < 0: about 12 at
    p = 12, n = 0.
    """
    require_quantum_numbers(n, l)
    require_finite_square(alpha1=params.alpha1)
    c = params.constants
    p = params.Lambda(l) + 1.0
    if p > 12.0 or n > 200:
        raise InvalidParameter(
            f"(p, n) = ({p!r}, {n}): the oscillator grid serves p = Lambda + 1 <= 12 and n <= 200"
        )
    grid = RadialGrid(1e-4, math.sqrt(4.0 * n + 2.0 * p + 1.0) + 7.0, 6000)
    scheme = _TransformedScheme(p, 1.0, grid)
    kappa = params.alpha1 * scheme.eigenvalue(0.0, n)
    scheme.check_nodes(0.0, n)
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
    becomes -u_xx + (gamma2/x^2 + c/x) u = -u with c = gamma1(E)/eps(E).  On
    the fixed grid MIXED_GRID that is one E-independent Sturmian problem
    (A + 1) w = lam W w with lam = -c: its n-th eigenvalue lam_n, bisected on
    the grid and on its refinement (the coarse eigenvector checked to have n
    nodes) and Richardson-extrapolated once per (p, n) per process by
    `sturmian_eigenvalue`, gives a level as a root of
    f(E) = gamma1(E)/eps(E) + lam_n.  f has the signs and roots of
    mu_n(c(E)) + 1, mu_n the n-th eigenvalue at fixed c, since mu_n increases
    with c.  f is evaluated on a scan of the (open) energy window, at
    np.linspace's points computed in Python floats (`_linspace`), and Brent's
    method (`_brent`, starting from the two scan values) narrows the first
    sign change to 1e-10 * m0c^2.  On a memo hit for lam_n no numpy call is
    made.
    `window` restricts the search, e.g. to isolate one of the
    particle/antiparticle roots; it does not change the grid.  `scan_points`
    must be an integer of at least 2.
    """
    require_quantum_numbers(n, l)
    if not isinstance(scan_points, numbers.Integral) or scan_points < 2:
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
    lam = sturmian_eigenvalue(p, n)

    def f(E: float) -> float:
        return params.gamma1(E) / params.epsilon(E) + lam

    scan = _linspace(lo, hi, scan_points)
    values = [f(E) for E in scan]
    for i, value in enumerate(values):
        if value == 0.0:
            return scan[i]
        if i and values[i - 1] * value < 0.0:
            break
    else:
        table = ", ".join(f"f({E:.6g})={v:.6g}" for E, v in zip(scan, values))
        raise NoBracket(
            f"no sign change of the matching function on the scanned window: {table}",
            scan=list(zip(scan, values)),
        )

    return float(_brent(f, scan[i - 1], scan[i], values[i - 1], values[i], BISECTION_TOL * mc2))
