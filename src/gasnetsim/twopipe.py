"""Direct formulation of two pipes coupled through one compressor station.

This is the explicit coupled form: the station's boundary conditions are
substituted into the two pipe systems, so the only unknowns are the pipe
states. It exists as an independent cross-check for the incidence-assembled
network (both must produce identical trajectories) and implements the same
stepping protocol, so the shared solver drives either.

The pipe rows are the network's own (`network.PipeStates`), and so is the
station: it is bound as a `network.StationBinding` and applied by the same
station pass, from the same input vector. The substitution fills the four
pipe inputs [p0, -m_L_up, p_in_dn, -m_L_dn] behind the states, and the
Jacobian pattern replaces those four columns by the state columns the
station's variant reads.
"""

from __future__ import annotations

import numpy as np

from .compressor import CompressorModel
from .network import PipeStates, StationBinding, color_columns
from .pipe import PipeSystem


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
        self.boundary_inputs = [(supply_id, "pressure"), (demand_id, "momentum")]
        # the setpoint is the third input; a scenario profile must give it
        self.stations = [StationBinding(station_id, model, None, 0, 1, 2)]
        self.input_ids = [supply_id, demand_id, station_id]

    # -- coupling ------------------------------------------------------

    def _with_ports(self, z, u):
        """[z | p0, -m_L_up, p_in_dn, -m_L_dn]: the pipe inputs the station implies at z."""
        (p_in_dn, k), = self._station_pass(self._outlet_pressures(z), u)
        return np.concatenate([z, [u[0], -k * z[self.bank.m_in[1]], p_in_dn, -u[1]]])

    def _residual_core(self, z, zdot, u):
        F = np.empty(self.n)
        self._pipe_rows(F, self._with_ports(z, u), zdot)
        return F

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
        u = self._input_vector(inputs)
        z = np.empty(self.n_z)
        z[self.bank.rho] = u[0] / self.gas.c2
        z[self.bank.mom] = u[1]
        return z

    def net_mass_influx(self, z_mid, x_new, inputs_mid):
        x = self._with_ports(z_mid, self._input_vector(inputs_mid))
        return float(np.sum(z_mid[self.bank.m_in] + x[self.mu_m]))

    def algebraic_solve(self, z, inputs, anchor=None):
        """[z | ports]: the pipe inputs the station implies at z (records read them)."""
        return self._with_ports(np.asarray(z, float), self._input_vector(inputs))
