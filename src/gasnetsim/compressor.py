"""Compressor station models: one table of the four jump-condition variants.

A compressor between two pipes is specified in one of two frameworks,
  FC: fixed compression ratio  (outlet pressure = ratio * inlet pressure),
  FP: fixed outlet pressure    (ratio varies with the inlet pressure),
combined with one of two momentum assumptions,
  AV: constant gas velocity across the machine, so the momentum jumps by
      ratio^(1/kappa) (adiabatic density ratio, constant compressibility),
  AM: constant momentum (no jump).

`VARIANTS` holds one row per combination, and no other module tests the
combination. A row gives, for setpoint sp and inlet pressure p:
  - the outlet rule (sp * p or sp);
  - the inlet factor k in m_in = k * m_out (1, or ratio^(-1/kappa); NaN,
    without a warning, where an fp-av ratio would need p <= 0, so a Newton
    trial state there reads as non-finite and the line search rejects it);
  - the name of the station's default setpoint field, which is also its
    scenario profile suffix;
  - which station rows read p (the momentum row, the pressure row), for the
    Jacobian sparsity pattern.
The station power, energy out minus energy in, follows from the first two
(`station_power`): outlet * m - p * k * m, with m the momentum fed
downstream. The network binds each station to its row
(`network.StationBinding`) and applies the rules in one place
(`network.GlobalSystem._add_state_terms`), with kappa the gas's
isentropic exponent.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .errors import ConfigurationError


class Framework(str, Enum):
    """What the station controls: the ratio (fc) or the outlet pressure (fp)."""

    FIXED_RATIO = "fc"
    FIXED_PRESSURE = "fp"


class Assumption(str, Enum):
    """Momentum rule across the station: constant velocity (av) or momentum (am)."""

    CONST_VELOCITY = "av"
    CONST_MOMENTUM = "am"


class Variant(NamedTuple):
    """One row of the station-variant table (sp setpoint, p inlet pressure)."""

    setpoint: str                    # default-setpoint field and profile suffix
    outlet: Callable                 # (sp, p) -> outlet pressure
    factor: Callable                 # (sp, p, kappa) -> inlet factor k
    reads_inlet: tuple[bool, bool]   # (momentum row, pressure row) read p


_FC, _FP = Framework("fc"), Framework("fp")       # the tags of --model and the file
_AV, _AM = Assumption("av"), Assumption("am")

VARIANTS = {
    (_FC, _AV): Variant("ratio", lambda sp, p: sp * p,
                        lambda sp, p, k: sp ** (-1.0 / k),
                        (False, True)),
    (_FC, _AM): Variant("ratio", lambda sp, p: sp * p,
                        lambda sp, p, k: 1.0,
                        (False, True)),
    (_FP, _AV): Variant("pressure", lambda sp, p: sp,
                        lambda sp, p, k: (sp / p) ** (-1.0 / k) if p > 0 else math.nan,
                        (True, False)),
    (_FP, _AM): Variant("pressure", lambda sp, p: sp,
                        lambda sp, p, k: 1.0,
                        (False, False)),
}


def station_power(variant: Variant, kappa: float, setpoint: float, p_in: float,
                  m_feed: float) -> float:
    """Station power per unit area: outlet pressure times m_feed minus p_in times m_in.

    m_feed is the momentum at the downstream pipe inlet and
    m_in = k * m_feed, so the power is (outlet - p_in * k) * m_feed. It
    vanishes for a neutral setpoint (ratio 1, or outlet pressure equal
    to the inlet pressure).
    """
    if p_in <= 0:
        raise ConfigurationError("compressor inlet pressure must be positive")
    return (variant.outlet(setpoint, p_in)
            - p_in * variant.factor(setpoint, p_in, kappa)) * m_feed

