"""Unit system: everything is expressed through hbar*c and the rest energy."""

import math
from dataclasses import dataclass

from .errors import InvalidParameter


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

    @property
    def compton_length(self) -> float:
        return self.hbar_c / self.rest_energy


NATURAL = PhysicalConstants()
