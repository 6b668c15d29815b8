"""Direct formulation of two pipes coupled through one compressor station.

This is the explicit coupled form: the station's boundary conditions are
substituted into the two pipe systems, so the only unknowns are the pipe
states. It exists as an independent cross-check for the incidence-assembled
network (both must produce identical trajectories) and implements the same
stepping protocol, so the shared solver drives either.

The pipe rows are the network's own (`network.PipeStates`): the station
substitution fills the four pipe inputs [p0, -m_L_up, p_in_dn, -m_L_dn]
behind the states, and the Jacobian pattern replaces those four columns by
the state columns the station's variant reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compressor import CompressorModel
from .network import PipeStates, color_columns
from .pipe import PipeSystem


@dataclass
class _StationView:
    """Minimal station descriptor matching the network system's interface."""

    station: object
    model: CompressorModel
    pipe_up: int
    pipe_down: int


@dataclass
class _StationId:
    id: str

    def default_setpoint(self):
        return None


class TwoPipeDirect(PipeStates):
    """Upstream pipe -> compressor -> downstream pipe, states only."""

    def __init__(self, pipe_up: PipeSystem, pipe_down: PipeSystem,
                 model: CompressorModel, supply_id: str, demand_id: str,
                 station_id: str):
        super().__init__([pipe_up, pipe_down], pipe_up.gas)
        self.model = model
        self.supply_id = supply_id
        self.demand_id = demand_id
        self.station_id = station_id
        self.n = self.n_z
        kind = np.empty(self.n, dtype="U1")
        kind[self.bank.rho] = "m"
        kind[self.bank.mom] = "p"
        self.row_kind = kind
        self.stations = [_StationView(_StationId(station_id), model, 0, 1)]

    def required_inputs(self):
        return [(self.supply_id, "pressure"), (self.demand_id, "momentum"),
                (self.station_id, self.model.variant.kind)]

    # -- coupling ------------------------------------------------------

    def _with_ports(self, z, inputs):
        """[z | p0, -m_L_up, p_in_dn, -m_L_dn]: the pipe inputs the station implies at z."""
        sp = inputs[self.station_id]
        p1L = self._outlet_pressures(z)[0]
        m_L_up = self.model.inlet_match_factor(sp, p1L) * z[self.bank.m_in[1]]
        return np.concatenate([z, [inputs[self.supply_id], -m_L_up,
                                   self.model.outlet_pressure(sp, p1L),
                                   -inputs[self.demand_id]]])

    def _rows(self, z, zdot, inputs):
        F = np.empty(self.n)
        self._pipe_rows(F, self._with_ports(z, inputs), zdot)
        return F

    def steady_residual(self, z, inputs):
        return self._rows(np.asarray(z, float), np.zeros(self.n_z), inputs)

    def make_step_residual(self, z_prev, dt, inputs_mid):
        z_prev = np.asarray(z_prev, float)

        def fun(z_new):
            z_mid = 0.5 * (z_prev + z_new)
            return self._rows(z_mid, (z_new - z_prev) / dt, inputs_mid)

        return fun

    # -- solver protocol -------------------------------------------------

    def jac_colors(self):
        if self._colors is None:
            b, n_z = self.bank, self.n_z
            cells = [b.tail[0], b.tail[0] - 1]
            reads_m, reads_p = self.model.variant.reads_inlet
            # the state columns behind each pipe input
            reads = [[], [b.m_in[1]] + (cells if reads_m else []),
                     cells if reads_p else [], []]
            ent = np.concatenate([np.column_stack(rc) for rc in self._pipe_pattern()])
            state = ent[:, 1] < n_z
            sub = [(row, c) for row, col in ent[~state] for c in reads[col - n_z]]
            self._colors = color_columns(
                np.concatenate([ent[state], np.reshape(sub, (-1, 2))]), self.n, self.n)
        return self._colors

    def initial_guess(self, inputs):
        z = np.empty(self.n_z)
        z[self.bank.rho] = inputs[self.supply_id] / self.gas.c2
        z[self.bank.mom] = inputs[self.demand_id]
        return z

    def net_mass_influx(self, z_mid, x_new, inputs_mid):
        x = self._with_ports(z_mid, inputs_mid)
        return float(np.sum(z_mid[self.bank.m_in] + x[self.mu_m]))

    def snapshot(self, z, t, inputs, anchor=None):
        if callable(inputs):
            inputs = inputs(t)
        return self._records(self._with_ports(z, inputs), inputs), None
