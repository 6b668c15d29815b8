"""Shared test cases: the benchmark files, small systems and a sealed-pipe system.

Plain helpers, imported by name; the pytest fixtures stay in conftest.py.
"""

import numpy as np

import gasnetsim as gn
from gasnetsim.network import color_columns

NET_JSON = """{
  "gas": {"Rs": 530.0, "T": 276.25, "z": 1.0, "kappa": 1.4},
  "units": {"pressure": "bar", "length": "km", "diameter": "m"},
  "nodes": [
    {"id": "source", "type": "supply"},
    {"id": "station_in", "type": "junction"},
    {"id": "station_out", "type": "junction"},
    {"id": "sink", "type": "demand"}
  ],
  "pipes": [
    {"id": "west", "from": "source", "to": "station_in",
     "length": 181.5, "diameter": 1.422, "friction": 0.0018, "cells": 32},
    {"id": "east", "from": "station_out", "to": "sink",
     "length": 181.5, "diameter": 1.422, "friction": 0.0018, "cells": 32}
  ],
  "compressors": [
    {"id": "station", "from": "station_in", "to": "station_out",
     "framework": "fc", "assumption": "am", "ratio": 1.2, "pressure": 84.0}
  ]
}
"""

SCN_JSON = """{
  "t_end": 86400,
  "dt": 100,
  "units": {"pressure": "bar"},
  "profiles": {
    "source": [[0, 80.0]],
    "sink": [[0, 200.0], [21600, 300.0], [43200, 250.0], [64800, 150.0]],
    "station.ratio": [[0, 1.2]],
    "station.pressure": [[0, 84.0]]
  }
}
"""


def benchmark_with_model(tag):
    """Benchmark network with the compressor model overridden by CLI tag."""
    spec = gn.parse_network(NET_JSON)
    if tag == "none":
        scen = gn.parse_scenario(SCN_JSON, spec)
        return gn.fuse_compressors(spec), scen
    fw, asm = tag.split("-")
    for st in spec.compressors:
        st.framework = gn.Framework(fw)
        st.assumption = gn.Assumption(asm)
    scen = gn.parse_scenario(SCN_JSON, spec)
    return spec, scen


def single_pipe_system(gas, demand_id="d", supply_id="s", n_cells=32,
                       length=363e3, diameter=1.422, friction=0.0018):
    spec = gn.NetworkSpec(
        gas,
        [gn.Node(supply_id, gn.NodeKind.SUPPLY), gn.Node(demand_id, gn.NodeKind.DEMAND)],
        [gn.PipeEdge(gn.PipeSpec("line", length, diameter, friction, n_cells),
                     supply_id, demand_id)])
    return gn.assemble(spec)


class ClosedPipe:
    """Sealed pipe driven by the shared stepping machinery.

    The inlet boundary pressure is fed back from the first cell (zero
    half-cell gradient) and the outlet flux is zero, so with zero inlet
    momentum the system is closed: no boundary power crosses either end.
    """

    def __init__(self, pipe_system, references=(80e5, 300.0)):
        self.sys = pipe_system
        self.n_z = self.n = 2 * pipe_system.n
        self.references = references
        kind = np.empty(self.n, dtype="U1")
        kind[: pipe_system.n] = "m"
        kind[pipe_system.n:] = "p"
        self.row_kind = kind
        self._colors = None

    def row_scale(self):
        p_ref, m_ref = self.references
        return np.where(self.row_kind == "p", p_ref, m_ref)

    def _rows(self, z, zdot):
        s = self.sys
        n = s.n
        rho, mom = z[:n], z[n:]
        pres = s.c2 * rho
        F = np.empty(self.n)
        m_full = np.append(mom, 0.0)
        F[:n] = s.dx * zdot[:n] + np.diff(m_full)
        fric = s.friction_force(rho, mom)
        F[n] = 0.5 * s.dx * zdot[n] + 0.5 * s.dx * fric[0]   # reflective inlet
        F[n + 1:] = s.dx * zdot[n + 1:] + np.diff(pres) + s.dx * fric[1:]
        return F

    def make_step_residual(self, z_prev, dt, inputs_mid):
        z_prev = np.asarray(z_prev, float)

        def fun(z_new):
            z_mid = 0.5 * (z_prev + z_new)
            return self._rows(z_mid, (z_new - z_prev) / dt)

        return fun

    def jac_colors(self):
        if self._colors is None:
            n = self.sys.n
            ent = []
            for i in range(n):
                ent += [(i, i), (i, n + i)]
                if i + 1 < n:
                    ent.append((i, n + i + 1))
            ent += [(n, n), (n, 0)]
            for j in range(1, n):
                ent += [(n + j, n + j), (n + j, j - 1), (n + j, j)]
            self._colors = color_columns(ent, self.n, self.n)
        return self._colors

    def check_state(self, z, t):
        pass

    def energy(self, z):
        n = self.sys.n
        return self.sys.stored_energy(z[:n], z[n:])


def closed_pipe(gas, n_cells=32, length=100e3, friction=0.0, amplitude=0.05):
    spec = gn.PipeSpec("sealed", length, 1.0, friction, n_cells)
    sys = gn.discretize_pipe(spec, gas)
    cp = ClosedPipe(sys)
    xc = (np.arange(n_cells) + 0.5) * sys.dx
    rho = 50.0 * (1.0 + amplitude * np.sin(2.0 * np.pi * xc / length))
    z0 = np.concatenate([rho, np.zeros(n_cells)])
    return cp, z0
