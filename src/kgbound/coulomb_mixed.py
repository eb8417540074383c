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

from . import levels, nu
from .errors import EnergyOutOfWindow, InvalidParameter, UnrealRadicand
from .levels import ANTIPARTICLE, BOUND, PARTICLE, SPURIOUS, THRESHOLD, UNREAL, EnergyLevel
from .units import NATURAL, PhysicalConstants, require_finite_square

# epsilon below this (in units of m0*c^2/hbar*c) counts as a continuum edge
THRESHOLD_TOL = 1e-12
# unsquared-condition residual below this (in units of m0*c^2) counts as bound
RESIDUAL_TOL = 1e-10


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
        if not all(map(math.isfinite, (self.q, self.b, self.beta, self.V0))):
            raise InvalidParameter("q, b, beta and V0 must be finite")
        require_finite_square(q=self.q, b=self.b, beta=self.beta)

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

    def ell_radicand(self, l: int) -> float:
        """(l + 1/2)^2 + b(b - 2q) + q^2(1 - beta^2)."""
        return (
            (l + 0.5) ** 2
            + self.b * (self.b - 2.0 * self.q)
            + self.q**2 * (1.0 - self.beta**2)
        )

    def gamma2(self, l: int) -> float:
        return (
            self.b * (self.b - 2.0 * self.q)
            + self.q**2 * (1.0 - self.beta**2)
            + l * (l + 1)
        )

    def effective_L(self, l: int) -> float:
        rad = self.ell_radicand(l)
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
        # the check below raises here too; comparing first keeps e_tilde**2 finite
        if abs(e_tilde) > (1.0 + 1e-6) * c.rest_energy:
            raise EnergyOutOfWindow(f"|E + V0| = {abs(e_tilde)} > m0c^2")
        arg = c.rest_energy**2 - e_tilde**2
        if arg < 0.0:
            if arg < -1e-12 * c.rest_energy**2:
                raise EnergyOutOfWindow(f"|E + V0| = {abs(e_tilde)} > m0c^2")
            arg = 0.0
        return math.sqrt(arg) / c.hbar_c

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


def candidate_energies(params: MixedCoulombParams, n: int, l: int):
    """The squared-condition energy pair (E_plus, E_minus)."""
    levels.require_quantum_numbers(n, l)
    c = params.constants
    B = params.B(n, l)
    q, b, beta = params.q, params.b, params.beta
    inner = B * B - q * q * (1.0 - beta * beta) - b * (b - 2.0 * q)
    if inner < 0.0:
        raise UnrealRadicand(f"B^2 - q^2(1-beta^2) - b(b-2q) = {inner} < 0")
    num = q * (b - q) * beta
    den = q * q * beta * beta + B * B
    spread = B * math.sqrt(inner)
    e_plus = -params.V0 + c.rest_energy * (num + spread) / den
    e_minus = -params.V0 + c.rest_energy * (num - spread) / den
    return e_plus, e_minus


def validate(params: MixedCoulombParams, n: int, l: int, E: float, branch: str) -> EnergyLevel:
    """Classify a candidate energy by back-substituting the unsquared condition."""
    levels.require_quantum_numbers(n, l)
    c = params.constants
    mc2, Q = c.rest_energy, c.hbar_c
    e_tilde = E + params.V0
    if abs(e_tilde) > mc2 * (1.0 + 1e-12):
        return EnergyLevel(n, l, branch, E, UNREAL, math.inf)
    eps = params.epsilon(E)
    residual = abs(2.0 * params.B(n, l) * eps + params.gamma1(E)) * Q
    if eps <= THRESHOLD_TOL * mc2 / Q:
        return EnergyLevel(n, l, branch, E, THRESHOLD, residual)
    if residual < RESIDUAL_TOL * mc2:
        return EnergyLevel(n, l, branch, E, BOUND, residual)
    return EnergyLevel(n, l, branch, E, SPURIOUS, residual)


def spectrum(params: MixedCoulombParams, n_max: int, l_max: int) -> list[EnergyLevel]:
    """All validated levels for n <= n_max, l <= l_max, both branches.

    Per-entry failures (unreal radicands) are recorded in-row with NaN
    energies, never aborting the table.  Rows come in (l, n, branch) order:
    antiparticle sorts before particle.
    """
    if n_max < 0 or l_max < 0:
        raise InvalidParameter("n_max and l_max must be nonnegative")
    rows = []
    for l in range(l_max + 1):
        for n in range(n_max + 1):
            try:
                e_plus, e_minus = candidate_energies(params, n, l)
            except UnrealRadicand:
                for branch in (ANTIPARTICLE, PARTICLE):
                    rows.append(EnergyLevel(n, l, branch, math.nan, UNREAL, math.nan))
                continue
            rows.append(validate(params, n, l, e_minus, ANTIPARTICLE))
            rows.append(validate(params, n, l, e_plus, PARTICLE))
    return rows


def bound_levels(rows: list[EnergyLevel]) -> list[EnergyLevel]:
    return [r for r in rows if r.status == levels.BOUND]
