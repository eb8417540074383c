"""Unit system: everything is expressed through hbar*c and the rest energy."""

import math
import sys
from dataclasses import dataclass

from .errors import InvalidParameter


# the smallest positive value whose square is still a normal float
_SQUARE_FLOOR = math.sqrt(sys.float_info.min)


def require_finite_square(**values: float) -> None:
    """Reject a value the models square whose square overflows."""
    for name, value in values.items():
        if not math.isfinite(value * value):
            raise InvalidParameter(f"{name} = {value!r} is too large: its square overflows")


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar*c (energy*length) and the rest energy m0*c^2 of the particle.

    Defaults give natural units (both equal to 1); the Compton-like
    wavelength hbar/(m0*c) is derived, never stored.
    """

    hbar_c: float = 1.0
    rest_energy: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hbar_c < math.inf and 0.0 < self.rest_energy < math.inf):
            raise InvalidParameter("hbar_c and rest_energy must be positive and finite")
        require_finite_square(hbar_c=self.hbar_c, rest_energy=self.rest_energy)
        # both are divided by, or set the scale of, squared quantities
        if min(self.hbar_c, self.rest_energy) < _SQUARE_FLOOR:
            raise InvalidParameter(
                f"hbar_c and rest_energy must be at least {_SQUARE_FLOOR:.4g}: their squares underflow"
            )

    @property
    def compton_length(self) -> float:
        return self.hbar_c / self.rest_energy


NATURAL = PhysicalConstants()
