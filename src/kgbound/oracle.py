"""Independent finite-difference verifier for the two radial models.

One discretization lives here.  The radial equation

    -u'' + (p(p-1)/r^2 + c_inv/r + c_r2 r^2) u = mu u

is solved with its known origin behavior factored out, u = r^p w, by
differencing the equivalent Sturm-Liouville problem for the smooth factor w:

    -(r^2p w')' + (c_inv r^{2p-1} + c_r2 r^{2p+2}) w = mu r^2p w.

That keeps second-order accuracy for non-integer and even critical (p = 1/2)
exponents, where a plain three-point scheme on u stalls; one Richardson step
then removes the leading h^2 error.  Both model solvers and the textbook
self-tests (box, hydrogen-like, oscillator; acceptance criterion 8) run on
this one scheme.  Eigenvalues come from a Sturm-sequence bisection solver
(LAPACK stebz via scipy) in index mode.  The mixed model is solved in the
scale-free variable x = eps(E) r (Rotenberg, Ann. Phys. 19, 262 (1962)) on
one fixed x-grid: its energy is the root of an eigenvalue matching function,
bracketed by a scan and narrowed by Brent's method (scipy's brentq); every
E-independent part of its discretization is built once per solve.  Only the
first evaluation of a mixed solve bisects: each later eigenvalue is followed
from the previous eigenvector by Rayleigh-quotient iteration (LAPACK gtsv),
and is accepted only when two Sturm counts and the Kato-Temple bound certify
it to stebz's own tolerance (Parlett, The Symmetric Eigenvalue Problem,
ch. 4 and 10); otherwise it is bisected after all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, lapack
from scipy.optimize import brentq

from .coulomb_mixed import MixedCoulombParams
from .errors import ConvergenceFailure, InvalidParameter, NoBracket
from .levels import require_quantum_numbers
from .scalar_linear import LinearMassParams
from .units import require_finite_square

BISECTION_TOL = 1e-10  # root tolerance on E, in units of the rest energy


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


def eigen_lowest(system: TridiagonalSystem, count: int, check_nodes: bool = True):
    """The `count` algebraically smallest eigenvalues, index = node count."""
    if count < 1:
        raise InvalidParameter("count must be positive")
    if count > system.grid.points // 10:
        raise InvalidParameter("count must not exceed points/10")
    try:
        result = eigh_tridiagonal(
            system.diagonal,
            system.off_diagonal,
            eigvals_only=not check_nodes,
            select="i",
            select_range=(0, count - 1),
        )
    except LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    vals = result
    if check_nodes:
        vals, vecs = result
        for i in range(count):
            nodes = _count_nodes(vecs[:, i])
            if nodes != i:
                raise ConvergenceFailure(f"eigenvector {i} has {nodes} interior nodes")
    return [float(v) for v in vals]


# ---------------------------------------------------------------------------
# transformed scheme used by the model solvers


class _TransformedOperator:
    """Symmetrized discretization of the r^p-factored radial equation on one grid.

    Everything but the 1/r coefficient c_inv is fixed per (p, c_r2, grid) and
    built once: the face weights, r^2p, the symmetrized off-diagonal, the c_r2
    term and the left-wall fold factor.  c_inv enters the diagonal linearly
    and through the wall ratio of element 0.
    """

    def __init__(self, p: float, c_r2: float, grid: RadialGrid):
        h = grid.h
        r = grid.nodes()
        tp = 2.0 * p
        face_right = (r + 0.5 * h) ** tp
        face_wall = (grid.r_min + 0.5 * h) ** tp
        weight = r**tp
        face_left = np.concatenate(([face_wall], face_right[:-1]))
        self._base = (face_left + face_right) / (h * h * weight) + c_r2 * r * r
        self._inv_r = 1.0 / r
        self._fold = face_wall / (h * h * weight[0])
        self._two_p, self._r_wall, self._r0 = tp, grid.r_min, r[0]
        sw = np.sqrt(weight)
        self._off = -face_right[:-1] / (h * h) / (sw[:-1] * sw[1:])
        self.grid = grid

    def system(self, c_inv: float) -> TridiagonalSystem:
        diagonal = self._base + c_inv * self._inv_r
        # fold the left wall value in through the two-term regular series of w
        c1 = c_inv / self._two_p
        diagonal[0] -= self._fold * (1.0 + c1 * self._r_wall) / (1.0 + c1 * self._r0)
        return TridiagonalSystem(diagonal, self._off, self.grid)


class _TransformedScheme:
    """Coarse and refined operators of one grid, for one Richardson step."""

    def __init__(self, p: float, c_r2: float, grid: RadialGrid):
        self.coarse = _TransformedOperator(p, c_r2, grid)
        self.fine = _TransformedOperator(p, c_r2, grid.refined())

    def eigenvalue(self, c_inv: float, index: int) -> float:
        """Richardson-extrapolated index-th eigenvalue."""
        coarse = eigen_lowest(self.coarse.system(c_inv), index + 1, check_nodes=False)[index]
        fine = eigen_lowest(self.fine.system(c_inv), index + 1, check_nodes=False)[index]
        return (4.0 * fine - coarse) / 3.0

    def check_nodes(self, c_inv: float, index: int) -> None:
        eigen_lowest(self.coarse.system(c_inv), index + 1, check_nodes=True)


# ---------------------------------------------------------------------------
# warm-started eigenpairs for the mixed model's matching function

RQI_STEPS = 3  # Rayleigh-quotient solves before a warm eigenpair falls back
# half-width g of the Sturm-certified interval around mu, relative to |mu|:
# hydrogen-like levels -c^2/(4(n + p)^2) with n + p < 14 lie further than
# |mu|/8 from their neighbours.  g stays at 64 ulp*||T|| or more, where a
# computed Sturm count is reliable.
GAP_FRACTION = 0.125
_ULP = float(np.finfo(float).eps)  # LAPACK dlamch('P')


def _apply(system: TridiagonalSystem, x: np.ndarray) -> np.ndarray:
    tx = system.diagonal * x
    tx[:-1] += system.off_diagonal * x[1:]
    tx[1:] += system.off_diagonal * x[:-1]
    return tx


def _norm(system: TridiagonalSystem) -> float:
    """max(|lower|, |upper|) of the Gershgorin interval, stebz's ||T||."""
    e = np.abs(system.off_diagonal)
    radius = np.concatenate((e, [0.0])) + np.concatenate(([0.0], e))
    d = system.diagonal
    return max(abs(float(np.min(d - radius))), abs(float(np.max(d + radius))))


def _sturm_count(system: TridiagonalSystem, x: float) -> int:
    """Number of eigenvalues at or below x, or -1 if stebz reports an error.

    stebz in value-range mode counts the eigenvalues in (vl, x] before it
    bisects; an abstol larger than any interval stops it there.  stebz clips
    vl = -inf to the Gershgorin interval.
    """
    m, _, _, _, info = lapack.dstebz(
        system.diagonal, system.off_diagonal, 1, -math.inf, x, 0, 0, math.inf, b"B"
    )
    return int(m) if info == 0 else -1


def _shift_solve(system: TridiagonalSystem, shift: float, rhs: np.ndarray):
    """(T - shift)^-1 rhs scaled to unit length (LAPACK gtsv), or None if singular."""
    e = system.off_diagonal
    *_, y, info = lapack.dgtsv(e, system.diagonal - shift, e, rhs)
    size = float(np.linalg.norm(y))
    if info != 0 or not 0.0 < size < math.inf:
        return None
    return y / size


def _certified(system: TridiagonalSystem, seed: np.ndarray, index: int):
    """(mu, x) for the index-th eigenpair by Rayleigh-quotient iteration from
    `seed`, or None.

    The Rayleigh quotient mu of a unit x with residual rho = |Tx - mu x| is
    accepted when the Sturm counts put exactly one eigenvalue, the index-th,
    in (mu - g, mu + g]: the Kato-Temple bound then puts it within rho^2/g of
    mu, and that must not exceed stebz's own tolerance ulp*||T||.
    """
    tol = _ULP * _norm(system)
    x = seed / np.linalg.norm(seed)
    for step in range(RQI_STEPS + 1):
        if step:
            x = _shift_solve(system, mu, x)
            if x is None:
                return None
        tx = _apply(system, x)
        mu = float(x @ tx)
        rho = float(np.linalg.norm(tx - mu * x))
        g = max(GAP_FRACTION * abs(mu), 64.0 * tol)
        if rho * rho <= g * tol:
            if _sturm_count(system, mu - g) == index and _sturm_count(system, mu + g) == index + 1:
                return mu, x
            return None
    return None


class _Eigenpair:
    """The index-th eigenpair of one operator, followed across one solve.

    With a stored vector the certified warm solve is tried first; the first
    call, and any warm solve that fails, bisects with `eigen_lowest` and
    takes the vector by two steps of inverse iteration at that eigenvalue.
    """

    def __init__(self, operator: _TransformedOperator, index: int):
        self.operator, self.index = operator, index
        self.vector: np.ndarray | None = None

    def value(self, c_inv: float) -> float:
        system = self.operator.system(c_inv)
        warm = None if self.vector is None else _certified(system, self.vector, self.index)
        if warm is not None:
            mu, self.vector = warm
        else:
            mu = eigen_lowest(system, self.index + 1, check_nodes=False)[self.index]
            x = _shift_solve(system, mu, np.ones(system.grid.points))
            self.vector = None if x is None else _shift_solve(system, mu, x)
        return mu


def _prolong(v: np.ndarray) -> np.ndarray:
    """A coarse-grid vector on the refined grid: odd fine nodes are the coarse
    nodes, even ones their midpoints (the Dirichlet walls are 0)."""
    out = np.empty(2 * len(v) + 1)
    out[1::2] = v
    walled = np.concatenate(([0.0], v, [0.0]))
    out[0::2] = 0.5 * (walled[:-1] + walled[1:])
    return out


class _WarmScheme:
    """Coarse and refined eigenpairs of one grid for one mixed-model solve."""

    def __init__(self, p: float, grid: RadialGrid, index: int):
        self.coarse = _Eigenpair(_TransformedOperator(p, 0.0, grid), index)
        self.fine = _Eigenpair(_TransformedOperator(p, 0.0, grid.refined()), index)

    def eigenvalue(self, c_inv: float) -> float:
        """Richardson-extrapolated eigenvalue; the first refined seed is the
        coarse eigenvector prolonged."""
        coarse = self.coarse.value(c_inv)
        if self.fine.vector is None and self.coarse.vector is not None:
            self.fine.vector = _prolong(self.coarse.vector)
        fine = self.fine.value(c_inv)
        return (4.0 * fine - coarse) / 3.0

    def check_nodes(self, c_inv: float) -> None:
        """The coarse eigenvector at c_inv must have `index` interior nodes."""
        index = self.coarse.index
        self.coarse.value(c_inv)
        vector = self.coarse.vector
        nodes = None if vector is None else _count_nodes(vector)
        if nodes != index:
            raise ConvergenceFailure(f"eigenvector {index} has {nodes} interior nodes")


# ---------------------------------------------------------------------------
# model solvers


def default_grid_scalar(params: LinearMassParams, n: int, l: int) -> RadialGrid:
    """Domain sized from the oscillator turning point of level (n, l)."""
    lam0 = params.constants.compton_length
    a1 = params.alpha1
    p = params.Lambda(l) + 1.0
    turning = math.sqrt((4.0 * n + 2.0 * p + 1.0) / a1)
    r_max = max(8.0 * lam0, turning + 7.0 / math.sqrt(a1))
    return RadialGrid(1e-4 * lam0, r_max, 6000)


# the mixed model's grid in x = eps(E) r, where every bound level has mu = -1
MIXED_GRID = RadialGrid(1e-5, 25.0, 6000)


def solve_modelB(params: LinearMassParams, n: int, l: int) -> float:
    """E^2 for the scalar linear-mass model from the oscillator eigenvalue, on
    the grid `default_grid_scalar` sizes for level (n, l)."""
    require_quantum_numbers(n, l)
    require_finite_square(alpha1=params.alpha1)
    c = params.constants
    p = params.Lambda(l) + 1.0
    scheme = _TransformedScheme(p, params.alpha1**2, default_grid_scalar(params, n, l))
    kappa = scheme.eigenvalue(0.0, n)
    scheme.check_nodes(0.0, n)
    return kappa * c.hbar_c**2 + 2.0 * c.rest_energy * params.s / params.length_scale


def solve_modelA(
    params: MixedCoulombParams,
    n: int,
    l: int,
    window: tuple[float, float] | None = None,
    scan_points: int = 33,
) -> float:
    """Bound energy of the mixed model by Brent's method on a scanned bracket.

    In x = eps(E) r the reduced equation u'' = (eps^2 + gamma1/r + gamma2/r^2) u
    becomes -u_xx + (gamma2/x^2 + c/x) u = -u with c = gamma1(E)/eps(E), so a
    level is a root of f(E) = mu_n(c(E)) + 1, with mu_n the n-th eigenvalue on
    the fixed grid MIXED_GRID.  f is evaluated along a scan of the (open)
    energy window up to its first sign change, which Brent's method (scipy's
    brentq) then narrows to 1e-10 * m0c^2.  `window` restricts the search,
    e.g. to isolate one of the particle/antiparticle roots; it does not
    change the grid.

    Each evaluation needs mu_n of the coarse and of the refined operator.
    Only the first coarse one is bisected (stebz in index mode); every other
    is followed from that operator's previous eigenvector, the first refined
    one from the coarse eigenvector prolonged, and is used only once Sturm
    counts and the Kato-Temple bound certify it to stebz's own tolerance.
    An uncertified one is bisected instead.  The node check at the root runs
    on the certified coarse eigenvector there.
    """
    require_quantum_numbers(n, l)
    mc2 = params.constants.rest_energy
    p = params.effective_L(l) + 1.0

    pad = 1e-9 * mc2
    lo_phys, hi_phys = -mc2 - params.V0 + pad, mc2 - params.V0 - pad
    if window is None:
        window = (lo_phys, hi_phys)
    lo, hi = max(window[0], lo_phys), min(window[1], hi_phys)
    if not lo < hi:
        raise InvalidParameter("empty energy window")
    scheme = _WarmScheme(p, MIXED_GRID, n)

    def c_inv(E: float) -> float:
        return params.gamma1(E) / params.epsilon(E)

    def f(E: float) -> float:
        return scheme.eigenvalue(c_inv(E)) + 1.0

    scan = np.linspace(lo, hi, scan_points).tolist()
    values: list[float] = []
    for E in scan:
        values.append(f(E))
        if values[-1] == 0.0:
            return E
        if len(values) > 1 and values[-2] * values[-1] < 0.0:
            break
    else:
        table = ", ".join(f"f({E:.6g})={v:.6g}" for E, v in zip(scan, values))
        raise NoBracket(
            f"no sign change of the matching function on the scanned window: {table}",
            scan=list(zip(scan, values)),
        )

    # the scan already holds f at both bracket ends, so brentq's first two
    # calls are answered from it
    a, b = scan[len(values) - 2], scan[len(values) - 1]
    known = {a: values[-2], b: values[-1]}
    root, info = brentq(
        lambda E: known[E] if E in known else f(E),
        a,
        b,
        xtol=BISECTION_TOL * mc2,
        full_output=True,
        disp=False,
    )
    if not info.converged:
        raise ConvergenceFailure(
            f"Brent's method stopped unconverged ({info.flag}) after "
            f"{info.iterations} iterations on [{a!r}, {b!r}]"
        )
    scheme.check_nodes(c_inv(root))
    return float(root)
