"""Radial eigenfunctions: power * exponential * generalized Laguerre.

L_n^alpha is computed as a mantissa and a power of two, and u(r) from one
exponential of the logarithms of its factors, so u is a float wherever it is
in float range, however far r^power, exp(-decay r^m) or L_n^alpha alone would
overflow or underflow.  Every built wavefunction is normalized by a
generalized Gauss-Laguerre rule in t = 2 decay r^m, which integrates its u^2
(a weight t^a e^(-t) times a squared Laguerre polynomial) exactly with numpy
alone; the closed-form norm of the mixed model is a check on it.  An
independent finite-difference residual check verifies that a constructed u(r)
actually solves its radial equation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import coulomb_mixed, scalar_linear
from .errors import InvalidParameter, NonNormalizable, NotBound
from .levels import BOUND, EnergyLevel, require_quantum_numbers

MIXED = "mixed"
SCALAR = "scalar_linear"
# the (n + 2)-node quadrature rule diagonalizes an (n + 2)^2 Jacobi matrix;
# MAX_N bounds its size
MAX_N = 400


def _rescaled(prev, cur):
    """prev and cur divided by the power of two of cur, and that power."""
    cur, shift = np.frexp(cur)
    return np.ldexp(prev, -shift), cur, shift


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre L_n^alpha(x) as arrays (mantissa, exponent), its
    value being mantissa * 2**exponent.

    The three-term recurrence divides both of its terms at every step by the
    power of two of the newer one, so neither leaves float range; a power of
    two scales exactly, so the mantissas carry the unscaled recurrence's bits
    wherever that stays in range.
    """
    if n < 0:
        raise InvalidParameter("n must be nonnegative")
    if alpha <= -1.0:
        raise InvalidParameter("alpha must exceed -1")
    x = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    exponent = np.zeros(x.shape, dtype=int)
    for k in range(1, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
        prev, cur, shift = _rescaled(prev, cur)
        exponent = exponent + shift
    return cur, exponent


@dataclass(frozen=True)
class RadialWavefunction:
    """u(r) = norm * r^power * exp(-decay * r^m) * L_n^alpha(2*decay*r^m).

    m = 1 for the mixed model, m = 2 for the scalar linear-mass model.
    """

    model: str
    n: int
    l: int
    power: float
    decay: float
    laguerre_alpha: float
    norm: float = 1.0

    @property
    def radial_exponent(self) -> int:
        return 1 if self.model == MIXED else 2

    def evaluate(self, r):
        """u(r) as norm * mantissa * exp(power log r - x/2 + k log 2), where
        L_n^alpha(x) = mantissa * 2**k: no factor is formed on its own."""
        r = np.asarray(r, dtype=float)
        m = self.radial_exponent
        # r is capped where x nears overflow; for any decay above 1e-300,
        # exp(-x/2) is 0 there whatever L_n is
        r_cap = (sys.float_info.max / max(2.0 * self.decay, 1.0)) ** (1.0 / m) / 2.0
        x = 2.0 * self.decay * np.minimum(r, r_cap) ** m
        mantissa, k = laguerre(self.n, self.laguerre_alpha, x)
        out = self.norm * mantissa * np.exp(self.power * np.log(r) - x / 2.0 + k * math.log(2.0))
        return out if out.ndim else float(out)


def build_mixed(params: coulomb_mixed.MixedCoulombParams, level: EnergyLevel) -> RadialWavefunction:
    """Eigenfunction of a bound mixed-model level, normalized by norm_quadrature."""
    if level.status != BOUND:
        raise NotBound(f"level n={level.n} l={level.l} branch={level.branch} is "
                       f"{level.status}, not bound")
    L = params.effective_L(level.l)
    wf = RadialWavefunction(
        model=MIXED,
        n=level.n,
        l=level.l,
        power=L + 1.0,
        decay=params.epsilon(level.energy),
        laguerre_alpha=2.0 * L + 1.0,
    )
    return replace(wf, norm=norm_quadrature(wf))


def build_scalar(
    params: scalar_linear.LinearMassParams,
    n: int,
    l: int,
    E: float,
    as_printed: bool = False,
) -> RadialWavefunction:
    """Eigenfunction of a scalar-model level, normalized by norm_quadrature.

    The default exponent of r is Lambda + 1, which the residual check
    confirms; `as_printed` selects the published (Lambda + 1)/2 instead so
    the discrepancy can be exhibited.  E, the level's energy, is fixed by
    (n, l) and is not read.
    """
    require_quantum_numbers(n, l)
    Lambda = params.Lambda(l)
    wf = RadialWavefunction(
        model=SCALAR,
        n=n,
        l=l,
        power=(Lambda + 1.0) / 2.0 if as_printed else Lambda + 1.0,
        decay=0.5 * params.alpha1,
        laguerre_alpha=(2.0 * Lambda + 1.0) / 2.0,
    )
    return replace(wf, norm=norm_quadrature(wf))


def norm_closed_mixed(params: coulomb_mixed.MixedCoulombParams, level: EnergyLevel) -> float:
    """Closed-form normalization from the Laguerre orthogonality relation.

    Its n! / Gamma(n + 2L + 2) is taken as 1 / Gamma(2L + 2) times the
    product of k / (k + 2L + 1) over k = 1..n, whose factors lie below 1, so
    the norm is a float for every n <= MAX_N where the two gammas are not.
    """
    if level.status != BOUND:
        raise NotBound(f"level n={level.n} l={level.l} branch={level.branch} is "
                       f"{level.status}, not bound")
    n, L, eps = level.n, params.effective_L(level.l), params.epsilon(level.energy)
    if n > MAX_N:
        raise NonNormalizable(f"n = {n} > {MAX_N}, the size limit of the quadrature rule")
    ratio = math.prod(k / (k + 2.0 * L + 1.0) for k in range(1, n + 1))
    try:
        return math.sqrt(
            ratio * (2.0 * eps) ** (2.0 * L + 3.0)
            / (2.0 * (n + L + 1.0) * math.gamma(2.0 * L + 2.0))
        )
    except OverflowError as exc:
        raise NonNormalizable(f"closed-form norm out of float range: {exc}") from exc


def norm_closed_scalar_printed(params: scalar_linear.LinearMassParams, n: int, l: int) -> float:
    """The published scalar-model normalization, reproduced literally.

    Its binomial factor C(n-1, n) vanishes for every n >= 1, so the value is
    infinite there; it is reported for auditing, not used.
    """
    Q = params.constants.hbar_c
    two_s_over_hbar_c = 2.0 * params.s / Q
    half_root = 0.5 * math.sqrt((2 * l + 1) ** 2 + two_s_over_hbar_c * two_s_over_hbar_c)
    binom = 1.0 if n == 0 else 0.0
    if binom == 0.0:
        return math.inf
    alpha1 = params.alpha1
    try:
        return math.sqrt(
            2.0 * alpha1 ** (half_root + 1.0) / (binom * math.gamma(half_root + 1.0))
        )
    except OverflowError as exc:
        raise InvalidParameter(
            f"alpha1^{half_root + 1.0!r} or its gamma factor overflows at alpha1 = {alpha1!r}"
        ) from exc


def gauss_laguerre(count: int, a: float):
    """Nodes t_i of the generalized Gauss-Laguerre rule for the weight
    t^a e^(-t) on (0, inf), and the first eigenvector components v_i as arrays
    (mantissa, exponent), v_i = mantissa * 2**exponent.

    The rule, sum_i Gamma(a + 1) v_i^2 f(t_i), is exact for every polynomial
    f of degree below 2 * count.  The nodes are the eigenvalues of the Jacobi
    matrix (Golub-Welsch): diagonal 2k + a + 1, off-diagonal sqrt(k (k + a)).
    The eigenvector of node t is (p_0(t), ..., p_{count-1}(t)), the
    orthonormal polynomials, which the rows of (J - t) p = 0 give from
    p_0 = 1, over its length; v is built that way, because the eigenvectors
    of a dense eigh carry an absolute error near 1e-16, which swamps the small
    v_i of the outer nodes once count exceeds about 25.  The rows are rescaled
    as in :func:`laguerre`, their sum of squares with them, so neither the
    p_k(t) nor v leave float range.
    """
    k = np.arange(count, dtype=float)
    diag = 2.0 * k + a + 1.0
    # off[j] = sqrt(j (j + a)) couples p_j to p_(j-1); off[0] meets p_(-1) = 0
    off = np.append(0.0, np.sqrt(k[1:]) * np.sqrt(k[1:] + a))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], 1), UPLO="U")
    prev, cur = np.zeros_like(t), np.ones_like(t)
    squares, exponent = np.ones_like(t), np.zeros(count, dtype=int)
    for j in range(count - 1):
        prev, cur = cur, ((t - diag[j]) * cur - off[j] * prev) / off[j + 1]
        prev, cur, shift = _rescaled(prev, cur)
        squares = np.ldexp(squares, -2 * shift) + cur * cur
        exponent = exponent + shift
    return t, 1.0 / np.sqrt(squares), -exponent


def norm_quadrature(wf: RadialWavefunction) -> float:
    """N such that the integral of u^2 over (0, inf) equals one.

    With t = 2 decay r^m, u^2 dr is (1/m) (2 decay)^(-e) t^(e-1) e^(-t)
    L_n^alpha(t)^2 dt, e = (2 power + 1)/m: a weight times a polynomial of
    degree 2n, which the (n + 2)-node Gauss-Laguerre rule integrates exactly.
    v_i and L_n^alpha(t_i) come as mantissas and powers of two; each term
    v_i L_n^alpha(t_i) is at most the square root of the rule's sum, so it is
    a float wherever that sum is.  A shape whose integral overflows or
    underflows, or whose n exceeds MAX_N, is NonNormalizable.
    """
    if wf.decay <= 0.0:
        raise NonNormalizable("decay rate must be positive")
    if wf.power <= 0.0:
        raise NonNormalizable("power must be positive for u(0) = 0")
    if wf.n > MAX_N:
        raise NonNormalizable(f"n = {wf.n} > {MAX_N}, the size limit of the quadrature rule")
    m = wf.radial_exponent
    e = (2.0 * wf.power + 1.0) / m
    # out-of-range values are rejected below, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            log_gamma = math.lgamma(e)
            t, v, v_exp = gauss_laguerre(wf.n + 2, e - 1.0)
        except (OverflowError, np.linalg.LinAlgError) as exc:
            raise NonNormalizable(f"no quadrature rule for the weight t^{e - 1.0!r} e^(-t)") from exc
        lag, lag_exp = laguerre(wf.n, wf.laguerre_alpha, t)
        total = np.sum(np.ldexp(v * lag, v_exp + lag_exp) ** 2)
        value = float(np.exp(
            log_gamma - math.log(m) - e * math.log(2.0 * wf.decay) + np.log(total)
        ))
    if not 0.0 < value < math.inf:
        raise NonNormalizable(f"the integral of u^2 is {value!r}")
    return 1.0 / math.sqrt(value)


def ode_residual(wf: RadialWavefunction, params, E: float, grid) -> float:
    """max |u'' - W(r) u| / max |u| over the grid.

    u'' is a 5-point central difference with a radius-proportional step; W is
    `params.reduced_w`, the effective potential minus the eigenvalue term of
    the model's radial equation.
    """
    r = np.asarray(grid, dtype=float)
    if np.any(r <= 0.0):
        raise InvalidParameter("grid points must be strictly positive")
    w = params.reduced_w(E, wf.l, r)
    h = 0.01 * r
    u = wf.evaluate(r)
    u2 = (
        -wf.evaluate(r - 2 * h)
        + 16.0 * wf.evaluate(r - h)
        - 30.0 * u
        + 16.0 * wf.evaluate(r + h)
        - wf.evaluate(r + 2 * h)
    ) / (12.0 * h * h)
    return float(np.max(np.abs(u2 - w * u)) / np.max(np.abs(u)))
