"""Pure scalar Coulomb-like potential S = s/r with linear mass m(r) = m0*r/L.

In z = r^2 the radial problem becomes a pseudoharmonic oscillator

    -u'' + (alpha1^2 r^2 + alpha2/r^2) u = kappa u,

so E^2 is linear in the oscillator eigenvalue kappa.  Two spectrum modes are
shipped: `corrected` (kappa = alpha1*(4n + 2 + sqrt(4*alpha2 + 1)), which the
finite-difference oracle confirms) and `as_printed` (the same with 2n + 1 in
place of 4n + 2), retained so the discrepancy can be reported rather than
silently fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import levels, nu
from .errors import InvalidParameter
from .levels import BOUND, BRANCHES, EnergyLevel, require_quantum_numbers
from .units import NATURAL, PhysicalConstants, require_finite_square

MODES = ("corrected", "as_printed")


@dataclass(frozen=True)
class LinearMassParams:
    """Scalar coupling s (energy*length) and the mass slope length L."""

    s: float
    length_scale: float = 1.0
    constants: PhysicalConstants = NATURAL

    def __post_init__(self):
        if not self.admits(self.s, self.length_scale):
            if not math.isfinite(self.s):
                raise InvalidParameter("s must be finite")
            require_finite_square(s=self.s)
            raise InvalidParameter("length_scale must be positive and finite")

    @staticmethod
    def admits(s, length_scale):
        """Whether the couplings pass the check of `__post_init__`: s has a
        finite square and 0 < length_scale < inf.  Floats, or arrays that
        broadcast, elementwise; a sweep checks its values with it."""
        return (s * s < np.inf) & (0.0 < length_scale) & (length_scale < np.inf)

    @property
    def alpha1(self) -> float:
        """Oscillator stiffness m0*c^2/(hbar*c*L), units 1/length^2."""
        c = self.constants
        hbar_c_L = c.hbar_c * self.length_scale
        if hbar_c_L == 0.0:
            raise InvalidParameter("hbar_c * length_scale underflows to 0")
        return c.rest_energy / hbar_c_L

    def alpha2(self, l: int) -> float:
        Q = self.constants.hbar_c
        return (self.s * self.s + l * (l + 1) * Q * Q) / (Q * Q)

    def Lambda(self, l: int) -> float:
        """Effective angular momentum absorbing the coupling."""
        Q = self.constants.hbar_c
        two_s_over_hbar_c = 2.0 * self.s / Q
        require_finite_square(two_s_over_hbar_c=two_s_over_hbar_c)
        return 0.5 * (math.sqrt((2 * l + 1) ** 2 + two_s_over_hbar_c * two_s_over_hbar_c) - 1.0)

    def epsilon_sq(self, E: float) -> float:
        """Signed (2 m0c^2 s/L - E^2)/(hbar c)^2, never rooted."""
        c = self.constants
        return (2.0 * c.rest_energy * self.s / self.length_scale - E * E) / (c.hbar_c * c.hbar_c)

    def reduced_w(self, E: float, l: int, r):
        """W(r) of the reduced equation u'' = W(r) u at energy E."""
        require_finite_square(alpha1=self.alpha1)
        return self.alpha1**2 * r**2 + self.alpha2(l) / r**2 + self.epsilon_sq(E)


def nu_problem(params: LinearMassParams, l: int, E: float) -> nu.NUProblem:
    """The hypergeometric-type reduction in the variable z = r^2."""
    if l < 0:
        raise InvalidParameter("l must be nonnegative")
    alpha1 = params.alpha1
    require_finite_square(alpha1=alpha1)
    return nu.NUProblem(
        tau_tilde=nu.QuadPoly(1.0, 0.0, 0.0),
        sigma=nu.QuadPoly(0.0, 2.0, 0.0),
        sigma_tilde=nu.QuadPoly(-params.alpha2(l), -params.epsilon_sq(E), -alpha1**2),
    )


def _energy_squared(s, length_scale, Q, mc2, coef, l):
    """E^2 of the level whose radial quantum number n enters as `coef` (4n + 2
    or 2n + 1 by mode), for floats or broadcasting arrays."""
    with np.errstate(all="ignore"):
        centrifugal = (2 * l + 1) * (2 * l + 1)
        root = np.sqrt(centrifugal + 4.0 * (s * s) / (Q * Q))
        # 2s/Q + root cancels for s << 0; its rationalized form keeps E^2 > 0
        rationalized = mc2 * (Q / length_scale) * (coef + centrifugal / (root - 2.0 * s / Q))
        direct = mc2 * (2.0 * s / length_scale + (Q / length_scale) * (coef + root))
        return np.where(s < 0.0, rationalized, direct)


def _coef(n, mode: str):
    if mode not in MODES:
        raise InvalidParameter(f"mode must be one of {MODES}")
    return 4 * n + 2 if mode == "corrected" else 2 * n + 1


def _couplings(params: LinearMassParams, key: str | None = None, values=None):
    """s, L, hbar*c and m0c^2 of `params`; a swept field `key` takes the float
    array `values` on the first axis of (value, l, n)."""
    c = params.constants
    return (*levels.swept(params, ("s", "length_scale"), key, values, 3), c.hbar_c, c.rest_energy)


def energy_squared(params: LinearMassParams, n: int, l: int, mode: str = "corrected") -> float:
    """E^2 for level (n, l) in the requested mode.

    The two modes differ by exactly (m0c^2 * hbar*c / L) * (2n + 1).
    """
    coef = _coef(n, mode)
    require_quantum_numbers(n, l)
    return float(_energy_squared(*_couplings(params), coef, l))


def spectrum_columns(
    params: LinearMassParams, n_max: int, l_max: int, mode: str = "corrected",
    key: str | None = None, values=None
) -> dict[str, np.ndarray]:
    """The `spectrum` table of `params` as columns named after the EnergyLevel
    fields, plus each row's `energy_squared`; given a field `key` and a float
    array `values`, the tables of `params` with `key` set to each value, one
    after another.  The values are checked as one array by
    `LinearMassParams.admits` before any table is built.  One array pass:
    rows run over (value, l, n, branch).
    """
    # axes (value, l, n)
    s, length_scale, Q, mc2 = _couplings(params, key, values)
    levels.require_table(n_max, l_max, 1 if key is None else len(values))
    n = np.arange(n_max + 1)
    coef = _coef(n, mode)
    l = np.arange(l_max + 1).reshape(-1, 1)
    e2 = _energy_squared(s, length_scale, Q, mc2, coef, l)
    e = np.sqrt(e2)
    shape = e2.shape + (2,)  # and branch
    return {
        "n": np.broadcast_to(n[:, None], shape).ravel(),
        "l": np.broadcast_to(l[..., None], shape).ravel(),
        "branch": np.broadcast_to(np.array(BRANCHES, dtype=object), shape).ravel(),
        "energy": np.stack((-e, e), axis=-1).ravel(),
        "energy_squared": np.repeat(e2.ravel(), 2),
        "status": np.full(e.size * 2, BOUND, dtype=object),
        "residual": np.zeros(e.size * 2),
    }


def spectrum(
    params: LinearMassParams, n_max: int, l_max: int, mode: str = "corrected"
) -> list[EnergyLevel]:
    """Level table; energies come in exact +/- pairs, symmetric about zero.

    Rows come in (l, n, branch) order: antiparticle sorts before particle.
    """
    return levels.from_columns(spectrum_columns(params, n_max, l_max, mode))
