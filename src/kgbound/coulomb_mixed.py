"""Mixed vector-scalar Coulomb model with mass m(r) = m0*(1 + lambda0*b/r).

The scalar potential is S(r) = -hbar*c*q/r and the vector one follows the
mixing V = beta*S - V0, so the levels carry the offset as E + V0 (every level
moves by -V0).  The radial problem reduces to

    u'' - (eps^2 + gamma1/r + gamma2/r^2) u = 0,

whose closed-form levels come in a particle/antiparticle pair per (n, l).
The pair is obtained by squaring the unsquared condition 2*B*eps = -gamma1,
so every candidate is re-validated by back-substitution before it is called
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import levels, nu
from .errors import EnergyOutOfWindow, InvalidParameter, UnrealRadicand
from .levels import BOUND, BRANCHES, SPURIOUS, THRESHOLD, UNREAL, EnergyLevel
from .units import NATURAL, PhysicalConstants, require_finite_square

# epsilon below this (in units of m0*c^2/hbar*c) counts as a continuum edge
THRESHOLD_TOL = 1e-12
# unsquared-condition residual below this (in units of m0*c^2) counts as bound
RESIDUAL_TOL = 1e-10

# statuses by the codes `_classify` gives them, and the branches of a level
_STATUSES = np.array([UNREAL, THRESHOLD, BOUND, SPURIOUS], dtype=object)
_BRANCHES = np.array(BRANCHES, dtype=object)


def _radicand(q, b, beta, l):
    """(l + 1/2)^2 + b(b - 2q) + q^2(1 - beta^2), for floats or arrays."""
    return (l + 0.5) * (l + 0.5) + b * (b - 2.0 * q) + q * q * (1.0 - beta * beta)


@dataclass(frozen=True)
class MixedCoulombParams:
    """Couplings of the mixed model.

    q     -- dimensionless scalar coupling
    b     -- dimensionless mass-shape constant (b = 0 is constant mass)
    beta  -- mixing slope of V = beta*S - V0
    V0    -- mixing offset, energy units
    """

    q: float
    b: float = 0.0
    beta: float = 1.0
    V0: float = 0.0
    constants: PhysicalConstants = NATURAL

    def __post_init__(self):
        if not self.admits(self.q, self.b, self.beta, self.V0):
            if not all(map(math.isfinite, (self.q, self.b, self.beta, self.V0))):
                raise InvalidParameter("q, b, beta and V0 must be finite")
            require_finite_square(q=self.q, b=self.b, beta=self.beta)

    @staticmethod
    def admits(q, b, beta, V0):
        """Whether the couplings pass the check of `__post_init__`: V0 is
        finite and q, b and beta have finite squares.  Floats, or arrays
        that broadcast, elementwise; a sweep checks its values with it."""
        return (q * q < np.inf) & (b * b < np.inf) & (beta * beta < np.inf) & (abs(V0) < np.inf)

    @classmethod
    def equal_mix(cls, q, b=0.0, constants=NATURAL):
        """V = S (beta = +1, V0 = 0)."""
        return cls(q=q, b=b, beta=1.0, V0=0.0, constants=constants)

    @classmethod
    def opposite_mix(cls, q, b=0.0, constants=NATURAL):
        """V = -S (beta = -1, V0 = 0)."""
        return cls(q=q, b=b, beta=-1.0, V0=0.0, constants=constants)

    def dual(self) -> "MixedCoulombParams":
        """The q = b/2 duality partner: (q, b=2q, beta) <-> (-q, b=0, -beta).

        m(r)c^2 + S(r) = m0c^2 + hbar*c*(b - q)/r and V + V0 = -beta*q*hbar*c/r
        are the same for both, so the partner has the same levels and the
        same bound/spurious labels.  The printed partner (q, b=0, -beta) shares
        the candidate energies only: its gamma1 has the opposite sign.
        """
        if self.b == 0.0:
            return replace(self, q=-self.q, b=-2.0 * self.q, beta=-self.beta)
        if self.b == 2.0 * self.q:
            return replace(self, q=-self.q, b=0.0, beta=-self.beta)
        raise InvalidParameter("duality partner defined only for b = 0 or b = 2q")

    def gamma2(self, l: int) -> float:
        return (
            self.b * (self.b - 2.0 * self.q)
            + self.q * self.q * (1.0 - self.beta * self.beta)
            + l * (l + 1)
        )

    def effective_L(self, l: int) -> float:
        rad = _radicand(self.q, self.b, self.beta, l)
        if rad < 0.0:
            raise UnrealRadicand(
                f"(l+1/2)^2 + b(b-2q) + q^2(1-beta^2) = {rad} < 0"
            )
        return math.sqrt(rad) - 0.5

    def B(self, n: int, l: int) -> float:
        return n + 1.0 + self.effective_L(l)

    def gamma1(self, E: float) -> float:
        """Coulomb-strength coefficient at energy E, in 1/length."""
        c = self.constants
        e_tilde = E + self.V0
        return (
            2.0 * (self.b - self.q) * c.rest_energy
            - 2.0 * self.q * self.beta * e_tilde
        ) / c.hbar_c

    def epsilon(self, E: float) -> float:
        """Binding wavenumber sqrt(m0^2 c^4 - E_tilde^2)/(hbar c)."""
        c = self.constants
        e_tilde = E + self.V0
        mc2_sq = c.rest_energy * c.rest_energy
        arg = mc2_sq - e_tilde * e_tilde
        if arg < 0.0:
            if arg < -1e-12 * mc2_sq:
                raise EnergyOutOfWindow(f"|E + V0| = {abs(e_tilde)} > m0c^2")
            arg = 0.0
        return math.sqrt(arg) / c.hbar_c

    def matching_function(self, lam: float):
        """E -> gamma1(E)/epsilon(E) + lam, the oracle's matching function.

        Every E-independent float of `gamma1` and `epsilon` is computed once
        here, and the returned function repeats their float operations in the
        same order, with `epsilon`'s EnergyOutOfWindow check: each value
        is the two methods' float, bit for bit.
        """
        c = self.constants
        V0, Q = self.V0, c.hbar_c
        strength = 2.0 * (self.b - self.q) * c.rest_energy
        slope = 2.0 * self.q * self.beta
        mc2_sq = c.rest_energy * c.rest_energy
        floor = -1e-12 * mc2_sq

        def f(E: float) -> float:
            e_tilde = E + V0
            arg = mc2_sq - e_tilde * e_tilde
            if arg < 0.0:
                if arg < floor:
                    raise EnergyOutOfWindow(f"|E + V0| = {abs(e_tilde)} > m0c^2")
                arg = 0.0
            return (strength - slope * e_tilde) / Q / (math.sqrt(arg) / Q) + lam

        return f

    def reduced_w(self, E: float, l: int, r):
        """W(r) of the reduced equation u'' = W(r) u at energy E."""
        return self.epsilon(E) ** 2 + self.gamma1(E) / r + self.gamma2(l) / r**2


def nu_problem(params: MixedCoulombParams, l: int, E: float) -> nu.NUProblem:
    """The hypergeometric-type reduction in the variable z = r."""
    eps = params.epsilon(E)
    return nu.NUProblem(
        tau_tilde=nu.QuadPoly(),
        sigma=nu.QuadPoly(0.0, 1.0, 0.0),
        sigma_tilde=nu.QuadPoly(-params.gamma2(l), -params.gamma1(E), -eps * eps),
    )


def _candidates(q, b, beta, V0, mc2, B):
    """The radicand of the squared condition and its energy pair (E+, E-),
    NaN where the radicand is negative.  Floats or broadcasting arrays."""
    with np.errstate(all="ignore"):
        inner = B * B - q * q * (1.0 - beta * beta) - b * (b - 2.0 * q)
        num = q * (b - q) * beta
        den = q * q * beta * beta + B * B
        spread = B * np.sqrt(inner)
        return inner, -V0 + mc2 * (num + spread) / den, -V0 + mc2 * (num - spread) / den


def _outside(e_tilde, mc2):
    """|E + V0| beyond m0c^2: the energy is unreal whatever B is."""
    return abs(e_tilde) > mc2 * (1.0 + 1e-12)


def _classify(q, b, beta, V0, mc2, Q, B, E):
    """Status codes (indices into _STATUSES) and residuals of the energies E
    at B, by back-substituting the unsquared condition 2*B*eps = -gamma1.
    Floats or broadcasting arrays; the energies and their flattened order
    set the result's.  An in-window energy whose eps^2 is below
    -1e-12 m0^2c^4 raises EnergyOutOfWindow, the first in that order."""
    with np.errstate(all="ignore"):
        e_tilde = E + V0
        outside = _outside(e_tilde, mc2)
        # eps(E), as MixedCoulombParams.epsilon gives it inside the window
        inside = np.where(outside, 0.0, e_tilde)
        mc2_sq = mc2 * mc2
        arg = mc2_sq - inside * inside
        far = arg < -1e-12 * mc2_sq
        if far.any():
            first = np.extract(far, np.broadcast_to(e_tilde, far.shape))[0]
            raise EnergyOutOfWindow(f"|E + V0| = {float(abs(first))} > m0c^2")
        eps = np.sqrt(np.maximum(arg, 0.0)) / Q
        gamma1 = (2.0 * (b - q) * mc2 - 2.0 * q * beta * e_tilde) / Q
        residual = abs(2.0 * B * eps + gamma1) * Q
        # the first rule that holds sets the status: unreal, threshold, bound, else spurious
        code = np.where(outside, 0, np.where(eps <= THRESHOLD_TOL * mc2 / Q, 1,
                                             np.where(residual < RESIDUAL_TOL * mc2, 2, 3)))
        return code, np.where(outside, math.inf, residual)


def _couplings(params: MixedCoulombParams, key: str | None = None, values=None):
    """q, b, beta, V0, m0c^2 and hbar*c of `params`; a swept field `key` takes
    the float array `values` on the first axis of (value, l, n, branch)."""
    return (*levels.swept(params, ("q", "b", "beta", "V0"), key, values, 4),
            params.constants.rest_energy, params.constants.hbar_c)


def candidate_energies(params: MixedCoulombParams, n: int, l: int):
    """The squared-condition energy pair (E_plus, E_minus)."""
    levels.require_quantum_numbers(n, l)
    q, b, beta, V0, mc2, _ = _couplings(params)
    inner, e_plus, e_minus = _candidates(q, b, beta, V0, mc2, params.B(n, l))
    if inner < 0.0:
        raise UnrealRadicand(f"B^2 - q^2(1-beta^2) - b(b-2q) = {inner} < 0")
    return float(e_plus), float(e_minus)


def validate(params: MixedCoulombParams, n: int, l: int, E: float, branch: str) -> EnergyLevel:
    """Classify a candidate energy by back-substituting the unsquared condition."""
    levels.require_quantum_numbers(n, l)
    B = math.nan if _outside(E + params.V0, params.constants.rest_energy) else params.B(n, l)
    code, residual = _classify(*_couplings(params), B, E)
    return EnergyLevel(n, l, branch, E, _STATUSES[code], float(residual))


def spectrum_columns(
    params: MixedCoulombParams, n_max: int, l_max: int, key: str | None = None, values=None
) -> dict[str, np.ndarray]:
    """The `spectrum` table of `params` as columns named after the EnergyLevel
    fields; given a field `key` and a float array `values`, the tables of
    `params` with `key` set to each value, one after another.

    The values are checked as one array by `MixedCoulombParams.admits`
    before any table is built. One array pass: rows run over (value, l, n,
    branch), and B, with its effective L, is computed once per (value, l, n).
    """
    # axes (value, l, n, branch)
    q, b, beta, V0, mc2, Q = _couplings(params, key, values)
    levels.require_table(n_max, l_max, 1 if key is None else len(values))
    l = np.arange(l_max + 1).reshape(-1, 1, 1)
    n = np.arange(n_max + 1).reshape(-1, 1)
    with np.errstate(all="ignore"):
        rad = _radicand(q, b, beta, l)
        B = n + 1.0 + (np.sqrt(rad) - 0.5)
    inner, e_plus, e_minus = _candidates(q, b, beta, V0, mc2, B)
    unreal = (rad < 0.0) | (inner < 0.0)
    energy = np.where(unreal, math.nan, np.concatenate((e_minus, e_plus), axis=-1))
    code, residual = _classify(q, b, beta, V0, mc2, Q, B, energy)
    shape = energy.shape
    return {
        "n": np.broadcast_to(n, shape).ravel(),
        "l": np.broadcast_to(l, shape).ravel(),
        "branch": np.broadcast_to(_BRANCHES, shape).ravel(),
        "energy": energy.ravel(),
        "status": _STATUSES[np.where(unreal, 0, code)].ravel(),
        "residual": np.where(unreal, math.nan, residual).ravel(),
    }


def spectrum(params: MixedCoulombParams, n_max: int, l_max: int) -> list[EnergyLevel]:
    """All validated levels for n <= n_max, l <= l_max, both branches.

    Per-entry failures (unreal radicands) are recorded in-row with NaN
    energies, never aborting the table.  Rows come in (l, n, branch) order:
    antiparticle sorts before particle.
    """
    return levels.from_columns(spectrum_columns(params, n_max, l_max))


def bound_levels(rows: list[EnergyLevel]) -> list[EnergyLevel]:
    return [r for r in rows if r.status == levels.BOUND]
