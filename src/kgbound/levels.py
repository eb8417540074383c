"""Validated energy levels as emitted by the spectrum tables."""

import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

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


def require_table(n_max: int, l_max: int, blocks: int = 1) -> None:
    """Reject a negative n_max or l_max, and `blocks` tables of (l, n) rows
    too large for their columns to be allocated."""
    if n_max < 0 or l_max < 0:
        raise InvalidParameter("n_max and l_max must be nonnegative")
    # numpy refuses an array of over sys.maxsize bytes with a bare ValueError;
    # a column holds two 8-byte cells per (block, l, n)
    if 16 * blocks * (n_max + 1) * (l_max + 1) > sys.maxsize:
        raise InvalidParameter("--n-max and --l-max ask for a table larger than an array can hold")


def swept(params, names: tuple[str, ...], key: str | None, values, ndim: int) -> list:
    """The fields `names` of `params`; given a swept field `key`, that one is
    the float array `values` on the first of `ndim` axes.

    The values are checked by `params.admits`, the rule that the parameters'
    own `__post_init__` applies; the first value it refuses is set on a copy
    of `params`, whose check raises its own error.
    """
    found = [getattr(params, name) for name in names]
    if key is not None:
        found[names.index(key)] = values
        with np.errstate(over="ignore"):
            refused = values[~params.admits(*found)]
        if len(refused):
            replace(params, **{key: float(refused[0])})
        found[names.index(key)] = values.reshape((-1,) + (1,) * (ndim - 1))
    return found
