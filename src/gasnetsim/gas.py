"""Gas-law parameters shared by all modules.

Everything here works in SI units: pressure in Pa, density in kg/m^3,
momentum density in kg/(m^2 s). The isothermal closure p = c^2 rho with
c^2 = z * R_s * T turns pressure into a linear function of density, so the
effort of a pipe state is the pair e = [c^2 rho; m] and its stored energy
the weighted quadratic H = z' W e(z) / 2 (`network.GlobalSystem`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, require_positive


@dataclass(frozen=True)
class GasProperties:
    """Constant gas-law parameters and the derived isothermal sound speed.

    Parameters
    ----------
    specific_gas_constant : J/(kg K)
    temperature : K
    compressibility : dimensionless, constant (1 = ideal gas)
    isentropic_exponent : dimensionless, > 1
    """

    specific_gas_constant: float
    temperature: float
    compressibility: float = 1.0
    isentropic_exponent: float = 1.4
    sound_speed: float = field(init=False)

    def __post_init__(self):
        require_positive("specific gas constant", self.specific_gas_constant)
        require_positive("temperature", self.temperature)
        require_positive("compressibility factor", self.compressibility)
        kappa = self.isentropic_exponent
        if not (math.isfinite(kappa) and kappa > 1):
            raise ConfigurationError(
                f"isentropic exponent must be finite and exceed 1, got {kappa!r}")
        c = math.sqrt(self.compressibility * self.specific_gas_constant * self.temperature)
        object.__setattr__(self, "sound_speed", c)

    @property
    def c2(self) -> float:
        """Squared sound speed, the pressure/density proportionality constant."""
        return self.sound_speed * self.sound_speed
