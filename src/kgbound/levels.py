"""Validated energy levels as emitted by the spectrum tables."""

from dataclasses import asdict, dataclass, fields

from .errors import InvalidParameter

BOUND = "bound"
THRESHOLD = "threshold"
SPURIOUS = "spurious"
UNREAL = "unreal"

PARTICLE = "particle"
ANTIPARTICLE = "antiparticle"
# the order of a level's two rows in a table
BRANCHES = (ANTIPARTICLE, PARTICLE)


@dataclass(frozen=True)
class EnergyLevel:
    """One candidate energy with its quantum numbers and validity status.

    `residual` is the unsquared quantization-condition mismatch in energy
    units; squaring artifacts show up as a large residual (status 'spurious').
    """

    n: int
    l: int
    branch: str
    energy: float
    status: str
    residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def require_quantum_numbers(n: int, l: int) -> None:
    """Reject a negative radial or orbital quantum number."""
    if n < 0 or l < 0:
        raise InvalidParameter("n and l must be nonnegative")


def from_columns(columns: dict) -> list[EnergyLevel]:
    """The rows of a level table given as columns named after the fields."""
    return list(map(EnergyLevel, *(columns[f.name].tolist() for f in fields(EnergyLevel))))
