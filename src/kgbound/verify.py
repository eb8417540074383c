"""Check registry: the single definition of every check.

Each check compares a closed-form quantity, or the oracle itself, against an
independent route (the finite-difference oracle, quadrature, a textbook
spectrum or an algebraic identity) and reports one or more pass/fail rows.  It
carries two fixture sets: `full`, run by the acceptance gate
(tests/test_acceptance.py, one test per criterion over this registry), and
`quick`, run by the `verify` CLI command.  A check with no `quick` set is not
in `verify`.  A row whose `in_verify` is False is an acceptance condition of
a check that `verify` runs, printed by the gate only.  Each `<=` row is
reduced by `_upper` from one deviation per level (or case): its observed
value is the worst deviation, a NaN anywhere makes it NaN and fails the row,
and its level count is the number of deviations.  A check marks a level it
cannot measure (unconfirmed by the oracle, mislabelled) with an infinite
deviation, and a counting row gives 0.0 or 1.0 per case.  A fixture set may
state `min_levels`, the level count its rows must cover: a row over fewer
levels fails, so levels relabelled out of the checked set cannot leave a row
passing over what remains.
The printed-formula discrepancies of the scalar model are *reproduced* here
on purpose: those checks pass when the expected mismatch is observed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace as Fixtures
from typing import Callable

import numpy as np

from . import coulomb_mixed, nu, oracle, scalar_linear, wavefunctions
from .coulomb_mixed import MixedCoulombParams
from .errors import InvalidParameter, KGBoundError
from .levels import BOUND, PARTICLE, THRESHOLD
from .units import PhysicalConstants

# back-substitution residual |2*B*eps + gamma1|*hbar*c of a bound level, in
# units of m0c^2 (the mixed fixtures' natural units); the label does not read it
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    comparison: str  # "<=" or ">="
    tolerance: float
    observed: float
    levels: int  # levels (or cases) the observed value was taken over
    in_verify: bool = True  # False: an acceptance condition with no `verify` row
    min_levels: int = 0  # the count its fixture set states; a row over fewer fails

    @property
    def passed(self) -> bool:
        if self.levels < self.min_levels:
            return False
        if self.comparison == "<=":
            return self.observed <= self.tolerance
        return self.observed >= self.tolerance


def _upper(name, tol, deviations, in_verify=True, fx=None):
    """A `<=` row over a list of deviations, one per level: it observes the
    worst, NaN if any is NaN and 0.0 over none.  Over a fixture set `fx` that
    states `min_levels`, it must cover that many levels."""
    return Check(name, "<=", tol, float(np.max(deviations, initial=0.0)), len(deviations),
                 in_verify, getattr(fx, "min_levels", 0))


@dataclass(frozen=True)
class CheckDef:
    """One check: `measure(fixtures, mode)` returns its rows.  `model` None:
    the check belongs to both models' `verify`; `quick` None: to neither."""

    criterion: int
    model: str | None
    measure: Callable[[Fixtures, str], list[Check]]
    quick: Fixtures | None
    full: Fixtures


def _levels(fx):
    """(params, level) pairs: each listed (params, n, l, branch), validated,
    or else every bound row of spectrum(p, n_max, l_max) for p in fx.params."""
    if hasattr(fx, "levels"):
        for params, n, l, branch in fx.levels:
            e_plus, e_minus = coulomb_mixed.candidate_energies(params, n, l)
            energy = e_plus if branch == PARTICLE else e_minus
            yield params, coulomb_mixed.validate(params, n, l, energy, branch)
        return
    for params in fx.params:
        for row in coulomb_mixed.bound_levels(coulomb_mixed.spectrum(params, fx.n_max, fx.l_max)):
            yield params, row


def _quantum_numbers(fx):
    return itertools.product(range(fx.n_max + 1), range(fx.l_max + 1))


# ---------------------------------------------------------------------------
# engine regression


def _nu_engine(fx, mode):
    # Coulomb-form reduction at a known bound energy
    params = MixedCoulombParams(q=fx.q)
    eps = params.epsilon(fx.energy)
    problem = coulomb_mixed.nu_problem(params, 0, fx.energy)
    branch = nu.select(nu.branches(problem), problem)
    root = math.sqrt(1.0 + 4.0 * params.gamma2(0))
    coulomb = [
        abs(branch.pi.c1 + eps),
        abs(branch.pi.c0 - 0.5 * (1.0 + root)),
        abs(branch.k + params.gamma1(fx.energy) + eps * root),
        abs(branch.tau_prime + 2.0 * eps),
        abs(branch.tau.c0 - (1.0 + root)),
    ]

    # oscillator-form reduction at its ground-state energy
    sparams = scalar_linear.LinearMassParams(s=fx.s)
    e0 = math.sqrt(scalar_linear.energy_squared(sparams, 0, 0))
    sproblem = scalar_linear.nu_problem(sparams, 0, e0)
    sbranch = nu.select(nu.branches(sproblem), sproblem)
    sroot = math.sqrt(4.0 * sparams.alpha2(0) + 1.0)
    oscillator = [abs(sbranch.tau.c1 + 2.0 * sparams.alpha1), abs(sbranch.tau.c0 - (2.0 + sroot))]

    # perfect-square property of every solved k, relative to the radicand's scale
    radicands = [nu.radicand(prob, k) for prob in (problem, sproblem) for k in nu.solve_k(prob)]
    discriminant = [abs(rad.c1**2 - 4.0 * rad.c0 * rad.c2) / max(rad.scale() ** 2, 1.0)
                    for rad in radicands]

    # ground-state quantization vanishes identically
    ground = [abs(nu.quantize(branch, problem, 0)[1]), abs(nu.quantize(sbranch, sproblem, 0)[1])]
    return [
        _upper("nu-branch-regression-coulomb", 1e-12, coulomb),
        _upper("nu-branch-regression-oscillator", 1e-12, oscillator),
        _upper("nu-discriminant-zero", 1e-12, discriminant),
        _upper("nu-quantize-ground", 0.0, ground),
    ]


# ---------------------------------------------------------------------------
# reduction against the physical fields
#
# k^2(r) = [(E - V)^2 - (m(r)c^2 + S)^2]/(hbar c)^2 - l(l+1)/r^2, rebuilt point
# by point from V, S and m, must equal -W(r) of each model's reduced equation
# u'' = W(r) u: the params' `reduced_w`, which wavefunctions.ode_residual uses
# too.  The mismatch is taken relative to the sum of the magnitudes of the
# terms, which bounds the rounding of either side.


def mixed_field_mismatch(params: MixedCoulombParams, E: float, l: int, r: float) -> float:
    """S = -hbar*c*q/r, V = beta*S - V0, m c^2 = m0c^2 (1 + lambda0*b/r):
    k^2 against -reduced_w = -(eps^2 + gamma1/r + gamma2/r^2)."""
    c = params.constants
    Q, mc2 = c.hbar_c, c.rest_energy
    S = -Q * params.q / r
    V = params.beta * S - params.V0
    mass = mc2 * (1.0 + c.compton_length * params.b / r)
    centrifugal = l * (l + 1) / r**2
    fields = ((E - V) ** 2 - (mass + S) ** 2) / Q**2 - centrifugal
    reduced = -params.reduced_w(E, l, r)
    scale = ((abs(E) + abs(params.beta * S) + abs(params.V0)) ** 2
             + (mc2 + abs(Q * params.b / r) + abs(S)) ** 2) / Q**2 + centrifugal
    return abs(fields - reduced) / scale


def scalar_field_mismatch(params: scalar_linear.LinearMassParams, E: float, l: int,
                          r: float) -> float:
    """S = s/r, V = 0, m = m0 r/L: k^2 against -reduced_w = kappa - alpha1^2 r^2
    - alpha2/r^2, with kappa = (E^2 - 2 m0c^2 s/L)/(hbar c)^2 = -epsilon_sq(E)."""
    c = params.constants
    Q = c.hbar_c
    S = params.s / r
    mass = c.rest_energy * r / params.length_scale
    centrifugal = l * (l + 1) / r**2
    fields = (E**2 - (mass + S) ** 2) / Q**2 - centrifugal
    reduced = -params.reduced_w(E, l, r)
    scale = (E**2 + (mass + abs(S)) ** 2) / Q**2 + centrifugal
    return abs(fields - reduced) / scale


def _mixed_fields(fx, mode):
    """Every params of the set at E = -V0 + m0c^2 cos(theta), l <= l_max."""
    return [_upper("mixed-field-reduction", 1e-12, [
        mixed_field_mismatch(params, -params.V0 + params.constants.rest_energy * math.cos(theta),
                             l, r)
        for params, theta, l, r in itertools.product(fx.params, fx.thetas, range(fx.l_max + 1),
                                                     fx.radii)
    ])]


def _scalar_fields(fx, mode):
    return [_upper("scalar-field-reduction", 1e-12, [
        scalar_field_mismatch(scalar_linear.LinearMassParams(s=s, length_scale=L), E, l, r)
        for s, L, E, l, r in itertools.product(fx.s_values, fx.length_scales, fx.energies,
                                               range(fx.l_max + 1), fx.radii)
    ])]


# ---------------------------------------------------------------------------
# mixed model


def _constant_mass(fx, mode):
    """Equal-mix E+ against m0c^2 (N^2 - q^2)/(N^2 + q^2), relative to m0c^2,
    at each rest energy; E- must sit at the threshold -m0c^2, a 1.0 flag
    where it does not."""
    spectrum, mislabeled = [], []
    for q, mc2 in itertools.product(fx.qs, fx.rest_energies):
        params = MixedCoulombParams.equal_mix(q, constants=PhysicalConstants(rest_energy=mc2))
        for n, l in _quantum_numbers(fx):
            e_plus, e_minus = coulomb_mixed.candidate_energies(params, n, l)
            N = n + l + 1
            spectrum.append(abs(e_plus - mc2 * (N * N - q * q) / (N * N + q * q)) / mc2)
            row = coulomb_mixed.validate(params, n, l, e_minus, "antiparticle")
            mislabeled.append(float(row.status != THRESHOLD
                                    or not abs(row.energy + mc2) <= 1e-12 * mc2))
    return [
        _upper("mixed-constant-mass-spectrum", 1e-12, spectrum),
        _upper("mixed-antiparticle-threshold", 0.0, mislabeled),
    ]


def _bound_residuals(fx, mode):
    return [_upper("mixed-bound-residuals", RESIDUAL_TOL,
                   [row.residual for _, row in _levels(fx)], fx=fx)]


def _duality(fx, mode):
    """q = b/2 varying-mass tables equal their constant-mass partners', row by
    row: energies, and labels (n, l, branch, status).  A label mismatch
    deviates infinitely; an unreal row's NaN energy would read NaN (the
    fixtures have no unreal rows)."""
    deviations = []
    for q, beta in itertools.product(fx.qs, fx.betas):
        varying = MixedCoulombParams(q=q, b=2.0 * q, beta=beta)
        for a, b in zip(
            coulomb_mixed.spectrum(varying, fx.n_max, fx.l_max),
            coulomb_mixed.spectrum(varying.dual(), fx.n_max, fx.l_max),
        ):
            same = (a.n, a.l, a.branch, a.status) == (b.n, b.l, b.branch, b.status)
            deviations.append(abs(a.energy - b.energy) if same else math.inf)
    return [_upper("mixed-mass-duality", 1e-12, deviations)]


def _oracle_deviation(fx, params, row):
    """Relative deviation of one level from the oracle, searching
    +/- half_width * m0c^2 around it; a level that is not bound, or that the
    oracle cannot confirm, deviates infinitely."""
    if row.status != BOUND:
        return math.inf
    half = fx.half_width * params.constants.rest_energy
    try:
        e_num = oracle.solve_modelA(params, row.n, row.l, (row.energy - half, row.energy + half),
                                    fx.scan_points)
    except KGBoundError:  # NoBracket, ConvergenceFailure, ...
        return math.inf
    return abs(e_num - row.energy) / abs(row.energy)


def _mixed_oracle(fx, mode):
    return [_upper("mixed-oracle-agreement", 1e-6,
                   [_oracle_deviation(fx, params, row) for params, row in _levels(fx)], fx=fx)]


def _mixed_normalization(fx, mode):
    """Closed-form norm against quadrature, and the unit integral of u^2."""
    ratios = [wavefunctions.norm_closed_mixed(params, row)
              / wavefunctions.build_mixed(params, row).norm for params, row in _levels(fx)]
    return [
        _upper("mixed-normalization-closed-vs-quadrature", 1e-8,
               [abs(ratio - 1.0) for ratio in ratios], fx=fx),
        _upper("mixed-normalization-unit-integral", 1e-8,
               [abs(ratio**2 - 1.0) for ratio in ratios], in_verify=False, fx=fx),
    ]


# ---------------------------------------------------------------------------
# scalar model


def _scalar_oracle(fx, mode):
    """E^2 of `mode` against the oracle; at s = 0, also against (4n + 2l + 3)/L."""
    agreement, ladder = [], []
    for s, L in itertools.product(fx.s_values, fx.length_scales):
        params = scalar_linear.LinearMassParams(s=s, length_scale=L)
        for n, l in _quantum_numbers(fx):
            e2 = scalar_linear.energy_squared(params, n, l, mode)
            e2_num = oracle.solve_modelB(params, n, l)
            agreement.append(abs(e2 - e2_num) / abs(e2_num))
            if s == 0.0:
                exact = (4 * n + 2 * l + 3) / L
                ladder.append(abs(e2 - exact) / exact)
    return [
        _upper(f"scalar-oracle-agreement[{mode}]", 1e-6, agreement),
        _upper("scalar-uncoupled-ladder", 1e-6, ladder, in_verify=False),
    ]


def _printed_offset(fx, mode):
    """The two modes differ by exactly (m0c^2 hbar c / L)(2n + 1)."""
    deviations = []
    for L in fx.length_scales:
        params = scalar_linear.LinearMassParams(s=fx.s, length_scale=L)
        c = params.constants
        unit = c.rest_energy * c.hbar_c / params.length_scale
        for n, l in _quantum_numbers(fx):
            gap = scalar_linear.energy_squared(params, n, l, "as_printed") - \
                scalar_linear.energy_squared(params, n, l, "corrected")
            deviations.append(abs(gap + unit * (2 * n + 1)))
    return [_upper("scalar-printed-offset-identity", 1e-12, deviations)]


def _printed_forms(fx, mode):
    """The corrected exponent solves the radial equation and the printed one
    does not; the printed norm is right at n = 0 and infinite for n >= 1, a
    1.0 flag for each (n, l) where it is not."""
    params = scalar_linear.LinearMassParams(s=fx.s)
    E = math.sqrt(scalar_linear.energy_squared(params, 0, 0))
    good = wavefunctions.build_scalar(params, 0, 0, E)
    bad = wavefunctions.build_scalar(params, 0, 0, E, as_printed=True)
    n0 = abs(wavefunctions.norm_closed_scalar_printed(params, 0, 0) / good.norm - 1.0)
    finite = [float(not math.isinf(wavefunctions.norm_closed_scalar_printed(params, n, l)))
              for n, l in itertools.product(fx.ns, fx.ls)]
    return [
        _upper("scalar-corrected-exponent-residual", 1e-6,
               [wavefunctions.ode_residual(good, params, E, fx.grid)]),
        Check("scalar-printed-exponent-residual", ">=", 1e-2,
              wavefunctions.ode_residual(bad, params, E, fx.grid), 1),
        _upper("scalar-printed-normalization-n0", 1e-8, [n0]),
        _upper("scalar-printed-normalization-unusable-n>=1", 0.0, finite),
    ]


# ---------------------------------------------------------------------------
# oracle self-test


def _universal_eigenvalues(fx, mode):
    """The oracle's two scale-free eigenvalues against their textbook values,
    not the NU closed form: lam_n(p) = 2(n + p), the Coulomb-Sturmian
    (hydrogen-like) coupling, and sigma_n(p) = 4n + 2p + 1, the radial
    oscillator."""
    deviations = []
    for p, n in itertools.product(fx.ps, range(fx.n_max + 1)):
        lam, sigma = 2.0 * (n + p), 4.0 * n + 2.0 * p + 1.0
        deviations += [abs(oracle.sturmian_eigenvalue(p, n) - lam) / lam,
                       abs(oracle.oscillator_eigenvalue(p, n) - sigma) / sigma]
    return [_upper("oracle-universal-eigenvalues", 1e-7, deviations)]


def _textbook_schemes(fx, mode):
    """The oracle's one scheme, the log-grid Sturmian, on hydrogen: at p = 1
    its levels are lam_n = 2(n + 1), hydrogen's E_n = -1/(n + 1)^2 rescaled.
    On `points`, the coarse eigenvalues, eigenvector i checked to have i
    nodes, and their Richardson values; and the h^2 convergence factor,
    about 4, of the ground state from `h2_points[0]` to `h2_points[1]`."""
    grid = oracle.LogGrid(*fx.span, fx.points)
    coarse_system = oracle._sturmian_system(fx.p, grid)
    fine_system = oracle._sturmian_system(fx.p, grid.refined())
    coarse = [
        oracle.eigen_lowest(coarse_system, i, check_nodes=True) for i in range(len(fx.exact))
    ]
    richardson = [
        (4.0 * oracle.eigen_lowest(fine_system, i, check_nodes=False) - c) / 3.0
        for i, c in enumerate(coarse)
    ]
    rows = [
        _upper(f"hydrogen-{kind}", 1e-4, [abs(v - e) / e for v, e in zip(values, fx.exact)])
        for kind, values in (("coarse", coarse), ("richardson", richardson))
    ]
    errors = [
        abs(oracle.eigen_lowest(oracle._sturmian_system(fx.p, oracle.LogGrid(*fx.span, points)), 0)
            - fx.exact[0])
        for points in fx.h2_points
    ]
    rows.append(_upper("hydrogen-h2-factor", 0.5, [abs(errors[0] / errors[1] - 4.0)]))
    return rows


# ---------------------------------------------------------------------------
# the registry, in `verify` row order

_ACCEPTANCE_GRID = tuple(
    MixedCoulombParams(q=q, b=b, beta=beta, V0=V0)
    for q, b, beta, V0 in itertools.product(
        (0.3, 0.5), (0.0, 0.5, 1.0), (1.0, -1.0, 0.5), (0.0, 0.1)
    )
)
_NU = Fixtures(q=0.5, energy=0.6, s=1.0)
_MIXED_FIELDS = Fixtures(params=_ACCEPTANCE_GRID, l_max=2, thetas=(0.3, 1.2, 2.5),
                         radii=(0.05, 1.0, 20.0))
_SCALAR_FIELDS = Fixtures(s_values=(-1.0, 0.0, 0.5, 2.0), length_scales=(0.5, 1.0, 2.0),
                          energies=(-3.0, 0.5, 4.0), l_max=3, radii=(0.05, 1.0, 20.0))
_DUALITY = Fixtures(qs=(0.25, 0.5), betas=(1.0, -1.0), n_max=3, l_max=3)

REGISTRY = (
    CheckDef(7, None, _nu_engine, quick=_NU, full=_NU),
    CheckDef(7, "mixed", _mixed_fields, quick=None, full=_MIXED_FIELDS),
    CheckDef(7, "scalar-linear", _scalar_fields, quick=None, full=_SCALAR_FIELDS),
    CheckDef(
        1, "mixed", _constant_mass,
        quick=Fixtures(qs=(0.3, 0.5), rest_energies=(1.0,), n_max=2, l_max=2),
        full=Fixtures(qs=(0.1, 0.3, 0.5, 0.9), rest_energies=(1.0, 0.511, 204.94, 938.272),
                      n_max=3, l_max=3),
    ),
    CheckDef(
        2, "mixed", _bound_residuals,
        quick=Fixtures(params=(
            MixedCoulombParams(q=0.5),
            MixedCoulombParams(q=0.3, b=0.5, beta=-1.0),
            MixedCoulombParams(q=0.5, b=1.0, beta=1.0, V0=0.1),
        ), n_max=2, l_max=2, min_levels=18),
        full=Fixtures(params=_ACCEPTANCE_GRID, n_max=2, l_max=2, min_levels=234),
    ),
    CheckDef(3, "mixed", _duality, quick=_DUALITY, full=_DUALITY),
    CheckDef(
        2, "mixed", _mixed_oracle,
        quick=Fixtures(levels=(
            (MixedCoulombParams(q=0.5), 0, 0, "particle"),
            (MixedCoulombParams(q=0.5), 1, 0, "particle"),
            (MixedCoulombParams(q=0.3, b=0.5, beta=-1.0), 0, 0, "antiparticle"),
            (MixedCoulombParams(q=0.5, b=0.5, beta=1.0, V0=0.1), 0, 1, "particle"),
        ), half_width=0.02, scan_points=33, min_levels=4),
        full=Fixtures(params=_ACCEPTANCE_GRID, n_max=2, l_max=2, half_width=1e-5, scan_points=3,
                      min_levels=234),
    ),
    CheckDef(
        6, "mixed", _mixed_normalization,
        quick=Fixtures(params=(MixedCoulombParams(q=0.5),), n_max=3, l_max=1, min_levels=8),
        full=Fixtures(params=_ACCEPTANCE_GRID, n_max=5, l_max=2, min_levels=468),
    ),
    CheckDef(
        4, "scalar-linear", _scalar_oracle,
        quick=Fixtures(s_values=(0.0, 1.0), length_scales=(1.0,), n_max=1, l_max=1),
        full=Fixtures(s_values=(0.0, 0.5, 1.0, 2.0), length_scales=(0.5, 1.0, 2.0), n_max=3, l_max=3),
    ),
    CheckDef(
        5, "scalar-linear", _printed_offset,
        quick=Fixtures(s=0.5, length_scales=(2.0,), n_max=3, l_max=3),
        full=Fixtures(s=0.7, length_scales=(0.5, 2.0), n_max=3, l_max=2),
    ),
    CheckDef(
        5, "scalar-linear", _printed_forms,
        quick=Fixtures(s=1.0, grid=np.geomspace(0.1, 10.0, 50), ns=(1, 2), ls=(0,)),
        full=Fixtures(s=1.0, grid=np.array([0.1 * 1.26**i for i in range(20)]), ns=(1, 2, 3), ls=(0, 1)),
    ),
    CheckDef(
        8, None, _universal_eigenvalues, quick=None,
        full=Fixtures(ps=(0.5, 0.51, 0.55, 0.58, 0.65, 0.75, 0.9, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0,
                          10.0), n_max=4),
    ),
    CheckDef(
        8, None, _textbook_schemes, quick=None,
        # span: (s_min, s_max) of s = ln x; exact: lam_n of each checked level
        full=Fixtures(p=1.0, span=(-20.0, math.log(40.0)),
                      exact=tuple(2.0 * (n + 1) for n in range(6)), points=3000,
                      h2_points=(1500, 3000)),
    ),
)


def run_verify(model: str, mode: str = "corrected") -> list[Check]:
    """The `verify` rows of one model, from each check's quick fixtures; the
    command passes iff every row passes."""
    if model not in ("mixed", "scalar-linear"):
        raise InvalidParameter(f"unknown model {model!r}")
    if mode not in scalar_linear.MODES:
        raise InvalidParameter(f"mode must be one of {scalar_linear.MODES}")
    return [
        check
        for spec in REGISTRY
        if spec.model in (None, model) and spec.quick is not None
        for check in spec.measure(spec.quick, mode)
        if check.in_verify
    ]
