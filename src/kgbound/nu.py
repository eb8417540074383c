"""Generic solver for hypergeometric-type second-order ODEs.

Works on equations of the form

    y'' + (tau_tilde/sigma) y' + (sigma_tilde/sigma^2) y = 0,

with sigma, sigma_tilde at most quadratic and tau_tilde at most linear.
The solution is factored as phi(z) * y_n(z); a linear shift polynomial pi(z)
is built from the square root of

    R_k(z) = ((sigma' - tau_tilde)/2)^2 - sigma_tilde + k*sigma,

where k is fixed by forcing R_k to be a perfect square (zero discriminant).
Each real k and each sign of the square root gives one candidate branch;
the physical one has tau' < 0 and a normalizable phi factor.  Eigenvalues
follow from lambda = lambda_n = -n*tau' - n(n-1)*sigma''/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    DegenerateProblem,
    InvalidParameter,
    MultipleBranches,
    NoAdmissibleBranch,
    UnsupportedSigma,
)

_REL_TOL = 1e-12


@dataclass(frozen=True)
class QuadPoly:
    """c0 + c1*z + c2*z^2 with real coefficients."""

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def degree(self) -> int:
        if self.c2 != 0.0:
            return 2
        if self.c1 != 0.0:
            return 1
        return 0

    def evaluate(self, z: float) -> float:
        return self.c0 + z * (self.c1 + z * self.c2)

    def derivative(self) -> "QuadPoly":
        return QuadPoly(self.c1, 2.0 * self.c2, 0.0)

    def scale(self) -> float:
        return max(abs(self.c0), abs(self.c1), abs(self.c2))


def _add(a: QuadPoly, b: QuadPoly, fb: float = 1.0) -> QuadPoly:
    return QuadPoly(a.c0 + fb * b.c0, a.c1 + fb * b.c1, a.c2 + fb * b.c2)


@dataclass(frozen=True)
class NUProblem:
    """Coefficient triple (tau_tilde, sigma, sigma_tilde) of the ODE."""

    tau_tilde: QuadPoly
    sigma: QuadPoly
    sigma_tilde: QuadPoly

    def __post_init__(self):
        if self.tau_tilde.degree() > 1:
            raise InvalidParameter("tau_tilde must have degree <= 1")
        if self.sigma.degree() not in (1, 2):
            raise InvalidParameter("sigma must have degree 1 or 2")
        if self.sigma_tilde.degree() > 2:
            raise InvalidParameter("sigma_tilde must have degree <= 2")


@dataclass(frozen=True)
class NUBranch:
    """One admissible (k, pi, tau, lambda) combination."""

    k: float
    pi: QuadPoly
    tau: QuadPoly
    lam: float
    sqrt_radicand: QuadPoly
    sign_choice: int  # +1 or -1

    @property
    def tau_prime(self) -> float:
        return self.tau.c1


@dataclass(frozen=True)
class FactorForms:
    """rho(z) = z^rho_power * exp(rho_exp_rate*z), same shape for phi(z)."""

    rho_power: float
    rho_exp_rate: float
    phi_power: float
    phi_exp_rate: float


def _half_shift(problem: NUProblem) -> QuadPoly:
    """(sigma'(z) - tau_tilde(z)) / 2, a linear polynomial."""
    sp = problem.sigma.derivative()
    return QuadPoly(
        0.5 * (sp.c0 - problem.tau_tilde.c0),
        0.5 * (sp.c1 - problem.tau_tilde.c1),
        0.0,
    )


def radicand(problem: NUProblem, k: float) -> QuadPoly:
    """R_k(z) = ((sigma' - tau_tilde)/2)^2 - sigma_tilde + k*sigma."""
    half = _half_shift(problem)
    square = QuadPoly(half.c0 * half.c0, 2.0 * half.c0 * half.c1, half.c1 * half.c1)
    return _add(_add(square, problem.sigma_tilde, -1.0), problem.sigma, k)


def solve_k(problem: NUProblem) -> list[float]:
    """All real k for which R_k has zero discriminant in z.

    R_k's coefficients are affine in k, so the discriminant is at most a
    quadratic in k; complex root pairs yield an empty list.  Coefficients
    too large to square, or a discriminant that overflows, raise
    InvalidParameter.
    """
    base = radicand(problem, 0.0)
    s = problem.sigma
    # discriminant_z(R_k) = c1(k)^2 - 4 c0(k) c2(k), coefficients affine in k
    a = s.c1 * s.c1 - 4.0 * s.c0 * s.c2
    b = 2.0 * base.c1 * s.c1 - 4.0 * (base.c0 * s.c2 + base.c2 * s.c0)
    c = base.c1 * base.c1 - 4.0 * base.c0 * base.c2
    disc = b * b - 4.0 * a * c
    big = max(base.scale(), s.scale())
    if not all(map(math.isfinite, (disc, big * big))):
        raise InvalidParameter("NU coefficients out of float range: the discriminant overflows")
    scale = max(base.scale() ** 2, s.scale() ** 2, 1e-300)
    tol = _REL_TOL * scale
    if abs(a) <= tol:
        if abs(b) <= tol:
            raise DegenerateProblem("discriminant does not depend on k")
        return [-c / b]
    if disc < 0.0:
        if disc < -_REL_TOL * (b * b + abs(4.0 * a * c) + tol):
            return []
        disc = 0.0
    root = math.sqrt(disc)
    k_hi = (-b + root) / (2.0 * a)
    k_lo = (-b - root) / (2.0 * a)
    if k_hi == k_lo:
        return [k_hi]
    return [max(k_hi, k_lo), min(k_hi, k_lo)]


def _linear_sqrt(poly: QuadPoly) -> QuadPoly:
    """Exact linear square root of a perfect-square quadratic.

    Sign convention: the leading coefficient is >= 0 (and the constant is
    >= 0 when the result is constant).
    """
    scale = max(poly.scale(), 1e-300)
    c2 = poly.c2 if poly.c2 > 0.0 else 0.0
    p1 = math.sqrt(c2)
    if p1 * p1 > _REL_TOL * scale:
        return QuadPoly(poly.c1 / (2.0 * p1), p1, 0.0)
    c0 = poly.c0 if poly.c0 > 0.0 else 0.0
    return QuadPoly(math.sqrt(c0), 0.0, 0.0)


def branches(problem: NUProblem) -> list[NUBranch]:
    """All candidate branches: one per solved k per sign of the square root."""
    half = _half_shift(problem)
    out = []
    for k in solve_k(problem):
        root = _linear_sqrt(radicand(problem, k))
        for sign in (+1, -1):
            pi = _add(half, root, float(sign))
            tau = _add(problem.tau_tilde, pi, 2.0)
            out.append(
                NUBranch(
                    k=k,
                    pi=pi,
                    tau=tau,
                    lam=k + pi.c1,
                    sqrt_radicand=root,
                    sign_choice=sign,
                )
            )
    return out


def select(candidates: list[NUBranch], problem: NUProblem) -> NUBranch:
    """The physical branch: tau' < 0 and, when sigma = c*z, normalizable phi.

    If several branches qualify the smallest-lambda one is returned and a
    MultipleBranches warning is issued.
    """
    if not candidates:
        raise NoAdmissibleBranch("no branches supplied")
    sigma = problem.sigma
    through_origin = sigma.c2 == 0.0 and sigma.c0 == 0.0 and sigma.c1 > 0.0
    admissible = []
    for br in candidates:
        if br.tau_prime >= 0.0:
            continue
        if through_origin:
            forms = derive_factors(br, problem)
            if forms.phi_power <= 0.0 or forms.phi_exp_rate >= 0.0:
                continue
        admissible.append(br)
    if not admissible:
        raise NoAdmissibleBranch(
            "every branch has tau' >= 0 or a non-normalizable phi factor"
        )
    if len(admissible) > 1:
        warnings.warn(
            "multiple admissible branches; choosing the smallest lambda",
            MultipleBranches,
            stacklevel=2,
        )
    return min(admissible, key=lambda br: br.lam)


def quantize(branch: NUBranch, problem: NUProblem, n: int) -> tuple[float, float]:
    """(lambda, lambda_n); the eigenvalue condition is equality of the two."""
    if n < 0:
        raise InvalidParameter("n must be a nonnegative integer")
    lam_n = -n * branch.tau.c1 - n * (n - 1) * problem.sigma.c2
    return branch.lam, lam_n


def derive_factors(branch: NUBranch, problem: NUProblem) -> FactorForms:
    """Closed forms of rho and phi from (sigma*rho)' = tau*rho, phi'/phi = pi/sigma.

    Only sigma(z) = c*z with c > 0 is supported; both solved systems have
    this shape.
    """
    sigma = problem.sigma
    if sigma.c2 != 0.0 or sigma.c0 != 0.0 or sigma.c1 <= 0.0:
        raise UnsupportedSigma("sigma must be c*z with c > 0")
    c = sigma.c1
    return FactorForms(
        rho_power=(branch.tau.c0 - c) / c,
        rho_exp_rate=branch.tau.c1 / c,
        phi_power=branch.pi.c0 / c,
        phi_exp_rate=branch.pi.c1 / c,
    )
