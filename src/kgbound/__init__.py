"""Bound-state spectra of the (3+1)-D radial Klein-Gordon equation with
mixed scalar-vector Coulomb couplings and a linearly rising scalar mass
term, solved by reduction to hypergeometric form, with an independent
finite-difference oracle for verification."""

from .coulomb_mixed import (
    MixedCoulombParams,
    bound_levels,
    candidate_energies,
    spectrum as mixed_spectrum,
    validate,
)
from .errors import (
    ConvergenceFailure,
    DegenerateProblem,
    EnergyOutOfWindow,
    InvalidParameter,
    KGBoundError,
    MultipleBranches,
    NoAdmissibleBranch,
    NoBracket,
    NonNormalizable,
    NotBound,
    UnrealRadicand,
    UnsupportedSigma,
)
from .levels import (
    ANTIPARTICLE,
    BOUND,
    PARTICLE,
    SPURIOUS,
    THRESHOLD,
    UNREAL,
    EnergyLevel,
)
from .nu import NUBranch, NUProblem, QuadPoly, branches, quantize, select, solve_k
from .oracle import solve_modelA, solve_modelB
from .scalar_linear import (
    LinearMassParams,
    energy_squared,
    spectrum as scalar_spectrum,
)
from .units import NATURAL, PhysicalConstants
from .wavefunctions import (
    RadialWavefunction,
    build_mixed,
    build_scalar,
    norm_closed_mixed,
    norm_quadrature,
    ode_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ANTIPARTICLE",
    "BOUND",
    "ConvergenceFailure",
    "DegenerateProblem",
    "EnergyLevel",
    "EnergyOutOfWindow",
    "InvalidParameter",
    "KGBoundError",
    "LinearMassParams",
    "MixedCoulombParams",
    "MultipleBranches",
    "NATURAL",
    "NoAdmissibleBranch",
    "NoBracket",
    "NonNormalizable",
    "NotBound",
    "NUBranch",
    "NUProblem",
    "PARTICLE",
    "PhysicalConstants",
    "QuadPoly",
    "RadialWavefunction",
    "SPURIOUS",
    "THRESHOLD",
    "UNREAL",
    "UnrealRadicand",
    "UnsupportedSigma",
    "bound_levels",
    "branches",
    "build_mixed",
    "build_scalar",
    "candidate_energies",
    "energy_squared",
    "mixed_spectrum",
    "norm_closed_mixed",
    "norm_quadrature",
    "ode_residual",
    "quantize",
    "scalar_spectrum",
    "select",
    "solve_k",
    "solve_modelA",
    "solve_modelB",
    "validate",
]
