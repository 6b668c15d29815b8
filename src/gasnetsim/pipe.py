"""Pipe geometry on the staggered port-Hamiltonian grid, and the steady oracle.

The grid is staggered: densities live at the n cell centers, momenta at the
inlet interface and the n-1 interior interfaces. The outlet-interface
momentum is a boundary input, the inlet pressure is the other one, matching
the input pair u = [p_in; -m_out]. With the cell-measure weights W (dx per
degree of freedom, dx/2 for the inlet half cell) the semi-discrete system is

    W dz/dt = (J - R(z)) e(z) + B u,

where J is skew-symmetric as a matrix, R(z) is the diagonal nonnegative
friction operator and e(z) = [p; m]. The weighted energy rate then reduces
exactly to boundary terms minus friction dissipation.

`PipeSpec` holds one pipe's geometry, friction and cell count. The grid
and the weights W are built for all pipes at once by the pipe bank
(`network.PipeBank`), and J e + B u by the residual's constant table
(`network.GlobalSystem.coupling`); the stored energy and the residual read
the same weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import (ConfigurationError, InfeasibleFlowError, require_column_id,
                     require_positive)
from .gas import GasProperties


@dataclass(frozen=True)
class PipeSpec:
    """Geometry and friction of one pipe."""

    id: str
    length: float
    diameter: float
    friction: float
    n_cells: int = 32

    def __post_init__(self):
        require_column_id("pipe", self.id)
        require_positive(f"pipe {self.id!r}: length", self.length)
        require_positive(f"pipe {self.id!r}: diameter", self.diameter)
        if not (math.isfinite(self.friction) and self.friction >= 0):
            raise ConfigurationError(
                f"pipe {self.id!r}: friction factor must be finite and nonnegative, "
                f"got {self.friction!r}")
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, numbers.Integral):
            raise ConfigurationError(
                f"pipe {self.id!r}: cell count must be an integer, got {self.n_cells!r}")
        if self.n_cells < 2:
            raise ConfigurationError(
                f"pipe {self.id!r}: need at least 2 cells, got {self.n_cells}"
            )


def steady_pipe_oracle(spec: PipeSpec, gas: GasProperties, p_in: float, m: float) -> float:
    """Closed-form steady outlet pressure for constant momentum m.

    With time derivatives dropped the momentum balance integrates to
    p(x)^2 = p_in^2 - (lambda c^2 / D) m |m| x, giving the outlet value
    directly. Raises if the flow cannot be sustained over the full length.
    """
    drop = spec.friction * gas.c2 / spec.diameter * m * abs(m) * spec.length
    disc = p_in * p_in - drop
    if disc <= 0.0:
        raise InfeasibleFlowError(
            f"pipe {spec.id!r}: steady flow m={m} not sustainable from p_in={p_in}"
        )
    return math.sqrt(disc)
