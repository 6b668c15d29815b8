"""Shared test cases: the benchmark files and malformed copies of the network
file, small systems, a sealed-pipe system, the per-pipe oracles, and
`record_dict`, which reads a snapshot row by record name.

Plain helpers, imported by name; the pytest fixtures stay in conftest.py.

The oracles (`PipeField`, `PipeOracle`, `pipe_rhs`) evaluate one pipe's
semi-discrete port-Hamiltonian form W dz/dt = (J - R(z)) e(z) + B u with
per-pipe arrays and dense operator matrices. They are written independently
of the vectorized pipe bank in `gasnetsim.network`, which the tests check
against them. `TwoPipeOracle` builds the direct two-pipe/station form on
them, the independent check of the assembled network (AC7), and
`incidence_matrices` reads the node incidence off an assembled system.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import gasnetsim as gn
from gasnetsim.cli import _apply_model_override
from gasnetsim.compressor import VARIANTS
from gasnetsim.blocks import color_columns, fd_jacobian

GAS = gn.GasProperties(530.0, 276.25, 1.0, 1.4)

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

# s -> a, two frictionless parallel pipes a -> b, b -> d, with d closed: the
# steady rows fix the parallel pipes' total flow but not its split, so the
# steady Jacobian is singular
PARALLEL_NET_JSON = """{
  "gas": {"Rs": 530.0, "T": 276.25, "z": 1.0, "kappa": 1.4},
  "units": {"pressure": "bar", "length": "km"},
  "nodes": [{"id": "s", "type": "supply"}, {"id": "a"}, {"id": "b"},
            {"id": "d", "type": "demand"}],
  "pipes": [
    {"id": "in", "from": "s", "to": "a", "length": 10, "diameter": 0.5, "friction": 0.01,
     "cells": 4},
    {"id": "p1", "from": "a", "to": "b", "length": 10, "diameter": 0.5, "friction": 0,
     "cells": 4},
    {"id": "p2", "from": "a", "to": "b", "length": 10, "diameter": 0.5, "friction": 0,
     "cells": 4},
    {"id": "out", "from": "b", "to": "d", "length": 10, "diameter": 0.5, "friction": 0.01,
     "cells": 4}
  ]
}
"""

PARALLEL_SCN_JSON = """{"t_end": 3600, "dt": 600, "units": {"pressure": "bar"},
                        "profiles": {"s": [[0, 50.0]], "d": [[0, 0.0]]}}
"""

PARALLEL_SINGULAR = ("Jacobian factorization failed: the border block (12 unknowns) "
                     "is singular")


DELETE = object()


def malformed_network(path, value):
    """NET_JSON with the entry at `path` replaced by `value` (or DELETE-d).

    An empty path replaces the whole document.
    """
    if not path:
        return json.dumps(value)
    doc = json.loads(NET_JSON)
    *parent, key = path
    target = doc
    for step in parent:
        target = target[step]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return json.dumps(doc)


def benchmark_with_model(tag):
    """Benchmark network with the compressor model overridden by CLI tag, as
    `gasnetsim run --model tag` reads it: the scenario is parsed against the
    stations as solved, or the file's when they are fused away."""
    spec = gn.parse_network(NET_JSON)
    solved = _apply_model_override(spec, tag, None)
    return solved, gn.parse_scenario(SCN_JSON, spec if tag == "none" else solved)


def record_dict(g, z, inputs, anchor=None):
    """A system's snapshot row at state z as a {record name: value} dict."""
    row, _ = g.snapshot(z, inputs, anchor)
    return dict(zip(g.record_names(), row))


def rel_column_diff(ts_a, ts_b, names):
    """Worst relative difference between two runs' named columns (floored at 1e-9 of scale)."""
    worst = 0.0
    for nm in names:
        a, b = ts_a.column(nm), ts_b.column(nm)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
        den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-9 * scale)
        worst = max(worst, float(np.max(np.abs(a - b) / den)))
    return worst


def station_ends(spec):
    """The ids of every station's inlet and outlet nodes, read off the stations."""
    return {nid for st in spec.compressors for nid in (st.inlet_node, st.outlet_node)}


def incidence_matrices(g):
    """0/1 incidence of pipe ports onto boundary, compressor and internal nodes.

    Read from the assembled coupling: the -1 entries of pipe k's mu_p and
    mu_m rows name its from-node and to-node. Columns are the pipe ports,
    inlet then outlet per pipe; rows are the nodes of each class in the
    system's node order.
    """
    c = g.coupling
    port = {r: i for i, r in enumerate(np.column_stack([g.mu_p, g.mu_m]).ravel().tolist())}
    node = {g.lam[nd.id]: i for i, nd in enumerate(g.node_order)}
    A = np.zeros((len(node), len(port)), dtype=int)
    for r, col, v in zip(c.rows.tolist(), c.cols.tolist(), c.vals.tolist()):
        if r in port and col in node and v == -1.0:
            A[node[col], port[r]] = 1
    counts = [sum(nd.kind in (gn.NodeKind.SUPPLY, gn.NodeKind.DEMAND) for nd in g.node_order),
              len(station_ends(g.spec))]
    return np.split(A, np.cumsum(counts))


def generated_network(seed):
    """A seeded random network and its inputs: (spec, inputs).

    A tree of 2-7 plain nodes grows from the supply n0, every pipe pointing
    away from its parent; 0-2 extra pipes between random nodes close loops.
    Non-root leaves are demands, and other nodes demands or junctions; one
    leaf becomes a second supply when there are two. Then 0-3 pipes are
    split by a station of a random variant (`c<i>.in`, `c<i>.out`). Demand
    inputs may be negative (injections).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    edges = [[f"n{rng.integers(0, i)}", f"n{i}"] for i in range(1, n)]
    edges += [[f"n{a}", f"n{b}"] for a, b in
              (rng.choice(n, 2, replace=False) for _ in range(rng.integers(0, 3)))]
    degree = {f"n{i}": sum(e.count(f"n{i}") for e in edges) for i in range(n)}
    kinds = {nid: gn.NodeKind.DEMAND if d == 1 or rng.random() < 0.3 else gn.NodeKind.JUNCTION
             for nid, d in degree.items()}
    leaves = [nid for nid, d in degree.items() if d == 1 and nid != "n0"]
    if len(leaves) >= 2:
        kinds[leaves[0]] = gn.NodeKind.SUPPLY
    kinds["n0"] = gn.NodeKind.SUPPLY
    nodes = [gn.Node(nid, kind) for nid, kind in kinds.items()]
    comps = []
    for c, k in enumerate(rng.choice(len(edges), min(len(edges), rng.integers(0, 4)),
                                     replace=False)):
        cid = f"c{c}"
        nodes += [gn.Node(f"{cid}.in", gn.NodeKind.JUNCTION),
                  gn.Node(f"{cid}.out", gn.NodeKind.JUNCTION)]
        edges.append([f"{cid}.out", edges[k][1]])
        edges[k][1] = f"{cid}.in"
        fw, asm = rng.choice(["fc-av", "fc-am", "fp-av", "fp-am"]).split("-")
        comps.append(gn.CompressorStation(
            cid, f"{cid}.in", f"{cid}.out", gn.Framework(fw), gn.Assumption(asm),
            ratio=float(rng.uniform(1.05, 1.3)), pressure=float(rng.uniform(60e5, 75e5))))
    pipes = [gn.PipeEdge(gn.PipeSpec(f"p{k}", float(rng.uniform(20e3, 80e3)),
                                     float(rng.uniform(0.5, 1.2)), float(rng.uniform(0.002, 0.01)),
                                     int(rng.integers(2, 6))), a, b)
             for k, (a, b) in enumerate(edges)]
    inputs = {nd.id: float(rng.uniform(60e5, 70e5)) if nd.kind is gn.NodeKind.SUPPLY
              else float(rng.uniform(-50.0, 150.0))
              for nd in nodes if nd.kind in (gn.NodeKind.SUPPLY, gn.NodeKind.DEMAND)}
    inputs.update({st.id: st.default_setpoint() for st in comps})
    return gn.NetworkSpec(GAS, nodes, pipes, comps), inputs


def consistent_state(g, inputs, rng):
    """Random pipe states at which the port and node rows have an exact solution.

    Each pipe outlet at a node other than a station inlet is set to that
    node's pressure (its supply pressure, or a random one), so a potential
    pinned by several rows (a node fed by several pipe outlets, a supply fed
    by one) is pinned consistently. Momenta take either sign.
    """
    c2, b = g.gas.c2, g.bank
    p_node = {nd.id: inputs[nd.id] if nd.kind is gn.NodeKind.SUPPLY
              else rng.uniform(55e5, 70e5) for nd in g.node_order}
    z = np.empty(g.n_z)
    z[b.rho] = rng.uniform(55e5, 70e5, b.rho.size) / c2
    z[b.mom] = rng.uniform(-100.0, 200.0, b.mom.size)
    inlets = {st.inlet_node for st in g.spec.compressors}
    for k, pe in enumerate(g.spec.pipes):
        if pe.to_node not in inlets:
            last = b.tail[k]
            z[last] = (p_node[pe.to_node] / c2 + 0.5 * z[last - 1]) / 1.5
    return z


def one_block(n):
    """Segments that make an n-unknown system one block with an empty border."""
    return np.zeros(n, dtype=int), ["the system"]


def dense_jacobian(fun, x, F0, coloring):
    """The colored FD Jacobian as a dense array: the gathered values scattered to (row, col)."""
    J = np.zeros((F0.size, x.size))
    J[coloring.rows, coloring.cols] = fd_jacobian(fun, x, F0, coloring)
    return J


def csc_jacobian(vals, coloring):
    """The gathered values as a scipy CSC matrix, for SuperLU as a reference factor."""
    from scipy.sparse import csc_matrix

    n = sum(group.size for group in coloring.groups)    # every column has one color
    return csc_matrix((vals, (coloring.rows, coloring.cols)), shape=(n, n))


def dense_newton_step(fun, x, F, coloring):
    """The reference linear step: the dense colored FD Jacobian and LAPACK's solve."""
    return np.linalg.solve(dense_jacobian(fun, x, F, coloring), -F)


def single_pipe_system(gas, demand_id="d", supply_id="s", n_cells=32,
                       length=363e3, diameter=1.422, friction=0.0018):
    spec = gn.NetworkSpec(
        gas,
        [gn.Node(supply_id, gn.NodeKind.SUPPLY), gn.Node(demand_id, gn.NodeKind.DEMAND)],
        [gn.PipeEdge(gn.PipeSpec("line", length, diameter, friction, n_cells),
                     supply_id, demand_id)])
    return gn.assemble(spec)


class PipeField:
    """State of one discretized pipe: densities at cell centers, momenta at interfaces.

    `rho` has one entry per cell; `mom` has one entry per momentum interface
    (the inlet interface plus the interior ones; the outlet momentum is a
    boundary input, not a state).
    """

    def __init__(self, rho, mom):
        self.rho = np.asarray(rho, dtype=float)
        self.mom = np.asarray(mom, dtype=float)
        if self.rho.ndim != 1 or self.mom.ndim != 1:
            raise gn.ConfigurationError("pipe field arrays must be one-dimensional")
        if self.rho.size != self.mom.size:
            raise gn.ConfigurationError(
                "density and momentum arrays must have equal length "
                f"(got {self.rho.size} and {self.mom.size})")

    def require_positive_density(self):
        if not np.all(self.rho > 0.0):
            raise gn.StateError("non-positive density in pipe state")


class PipeOracle:
    """One pipe with its own staggered grid, per-pipe state maps and dense operator views.

    The grid is built here from the spec, not read from the pipe bank, so the
    bank's weights are checked against an independent construction: dx per
    degree of freedom, dx/2 for the inlet momentum half cell.
    """

    def __init__(self, spec, gas):
        self.spec = spec
        self.n = spec.n_cells
        self.dx = spec.length / spec.n_cells
        self.c2 = gas.c2
        self.fric_coef = spec.friction / (2.0 * spec.diameter)
        self.weights = np.full(2 * self.n, self.dx)
        self.weights[self.n] = 0.5 * self.dx

    def pressures(self, rho):
        return self.c2 * rho

    def interface_density(self, rho):
        """Density collocated at the momentum interfaces (one-sided at the inlet)."""
        rbar = np.empty(self.n)
        rbar[0] = rho[0]
        rbar[1:] = 0.5 * (rho[:-1] + rho[1:])
        return rbar

    def friction_force(self, rho, mom):
        """Pointwise friction deceleration (lambda/2D) m |v| per interface."""
        if self.fric_coef == 0.0:
            return np.zeros(self.n)
        v = mom / self.interface_density(rho)
        return self.fric_coef * mom * np.abs(v)

    def outlet_pressure(self, rho):
        """Outlet pressure by linear extrapolation from the two nearest cells."""
        p = self.pressures(rho)
        return float(1.5 * p[-1] - 0.5 * p[-2])

    def conjugate_outlet_pressure(self, rho):
        """Last cell-center pressure, the energy-conjugate of the outlet flux."""
        return float(self.c2 * rho[-1])

    def dissipation_rate(self, rho, mom):
        """Weighted friction power e' R(z) e >= 0."""
        wm = self.weights[self.n:]
        return float(np.dot(wm * self.friction_force(rho, mom), mom))

    def stored_energy(self, rho, mom):
        """Energy in the cell-measure inner product (dx/2 on the inlet half cell)."""
        wr = self.weights[: self.n]
        wm = self.weights[self.n:]
        return 0.5 * float(self.c2 * np.dot(wr * rho, rho) + np.dot(wm * mom, mom))

    def transport_matrix(self):
        """Skew matrix J of the weighted form W dz/dt = (J - R) e + B u."""
        n = self.n
        J = np.zeros((2 * n, 2 * n))
        for i in range(n):
            J[i, n + i] = 1.0          # + m_i into cell i
            if i + 1 < n:
                J[i, n + i + 1] = -1.0  # - m_{i+1} out of cell i
        J[n, 0] = -1.0                  # inlet half-cell gradient: - p_0
        for j in range(1, n):
            J[n + j, j] = -1.0
            J[n + j, j - 1] = 1.0
        return J

    def dissipation_matrix(self, rho, mom):
        """Diagonal nonnegative R(z) of the weighted form."""
        n = self.n
        diag = np.zeros(2 * n)
        if self.fric_coef > 0.0:
            v = mom / self.interface_density(rho)
            diag[n:] = self.weights[n:] * self.fric_coef * np.abs(v)
        return np.diag(diag)


def oracle(g, k):
    """The per-pipe oracle of pipe k of an assembled system."""
    return PipeOracle(g.pipes[k], g.gas)


def pipe_rhs(sys, fld, u):
    """Time derivatives and port outputs of one pipe at one state.

    `u` is the pair (p_in, minus_m_out), the boundary input vector
    [p_0; -m_L]. Returns (rates, (m_in, p_out)) where `rates` holds
    d rho/dt and d m/dt and the outputs are the inlet momentum state and
    the extrapolated outlet pressure.
    """
    fld.require_positive_density()
    rho, mom = fld.rho, fld.mom
    if rho.size != sys.n:
        raise gn.ConfigurationError(
            f"pipe {sys.spec.id!r}: state has {rho.size} cells, expected {sys.n}")
    p_in, minus_m_out = float(u[0]), float(u[1])
    dx = sys.dx
    p = sys.pressures(rho)

    m_full = np.append(mom, -minus_m_out)
    drho = -np.diff(m_full) / dx

    fric = sys.friction_force(rho, mom)
    dmom = np.empty(sys.n)
    dmom[0] = -(p[0] - p_in) / (0.5 * dx) - fric[0]
    dmom[1:] = -np.diff(p) / dx - fric[1:]

    return PipeField(drho, dmom), (float(mom[0]), sys.outlet_pressure(rho))


def power_terms_oracle(g, x, inputs):
    """Per-pipe, per-node form of `GlobalSystem.power_terms`.

    Port powers pair p_in with m(0) at inlets and the last cell-center
    pressure with the outlet flux at outlets, summed per node class; the
    dissipation is each pipe's weighted friction power.
    """
    z = x[: g.n_z]
    parts = {"boundary": 0.0, "compressor": 0.0, "internal": 0.0}
    ends = station_ends(g.spec)
    for nd in g.node_order:
        if nd.kind in (gn.NodeKind.SUPPLY, gn.NodeKind.DEMAND):
            bucket = "boundary"
        elif nd.id in ends:
            bucket = "compressor"
        else:
            bucket = "internal"
        for k, isout in g.attached[nd.id]:
            p = oracle(g, k)
            if isout:
                m_L = -x[g.mu_m[k]]
                parts[bucket] += -p.conjugate_outlet_pressure(z[g.rho_sl[k]]) * m_L
            else:
                parts[bucket] += x[g.mu_p[k]] * z[g.mom_sl[k]][0]
    parts["dissipation"] = sum(
        oracle(g, k).dissipation_rate(z[g.rho_sl[k]], z[g.mom_sl[k]])
        for k in range(len(g.pipes)))
    return parts


class TwoPipeOracle:
    """Two pipes coupled through one station, in the explicit direct form.

    The station's rules are substituted into the four pipe inputs instead of
    assembled as port, node and station rows: the upstream pipe gets the
    supply pressure p0 and the outlet flux k m2(0), the downstream pipe the
    outlet rule at the upstream outlet pressure p1(L) and the demand m_L.
    The unknowns are the pipe states only, z = [rho1, m1, rho2, m2], and
    each pipe's rows are its weighted form W (dz/dt - rates) with the rates
    from `pipe_rhs`. The station is its row of `compressor.VARIANTS`,
    applied with the gas's isentropic exponent. The oracle shares nothing
    else with the assembled network but `color_columns` and the
    finite-difference Jacobian: its pattern is written by hand, and it has
    its own steady solve, midpoint loop and plain dense Newton iteration
    (`dense_newton_step`, no line search).

    Inputs are triples u = (p0, m_L, setpoint).
    """

    def __init__(self, pipe_specs, gas, variant, station_id):
        self.pipes = [PipeOracle(ps, gas) for ps in pipe_specs]
        self.variant, self.kappa = variant, gas.isentropic_exponent
        self.framework, self.assumption = next(
            key for key, row in VARIANTS.items() if row is variant)
        n1, n2 = (p.n for p in self.pipes)
        self.sl = [slice(0, 2 * n1), slice(2 * n1, 2 * (n1 + n2))]
        self.n = 2 * (n1 + n2)
        self.names = [f"{p.spec.id}.{end}.{q}" for p in self.pipes for end in ("in", "out")
                      for q in ("p_Pa", "m")] + ["H_total", f"{station_id}.power"]
        self.colors = color_columns(self.pattern(), one_block(self.n))

    def fields(self, z):
        return [PipeField(z[s][: p.n], z[s][p.n:]) for p, s in zip(self.pipes, self.sl)]

    def ports(self, z, u):
        """The pipe inputs [p0, -m_L_up, p_in_dn, -m_L_dn] the station implies at z."""
        p0, m_L, sp = u
        up, down = self.fields(z)
        p1L = self.pipes[0].outlet_pressure(up.rho)
        k = self.variant.factor(sp, p1L, self.kappa)
        return [p0, -k * down.mom[0], self.variant.outlet(sp, p1L), -m_L]

    def rows(self, z, zdot, u):
        """Each pipe's weighted rows W (dz/dt - rates) at the substituted inputs."""
        mu = self.ports(z, u)
        F = []
        for k, (p, fld, s) in enumerate(zip(self.pipes, self.fields(z), self.sl)):
            rates, _ = pipe_rhs(p, fld, mu[2 * k: 2 * k + 2])
            F.append(p.weights * (zdot[s] - np.concatenate([rates.rho, rates.mom])))
        return np.concatenate(F)

    def records(self, z, u):
        """Port pressures and momenta per pipe, the stored energy and the station power."""
        mu = self.ports(z, u)
        row, energy = [], 0.0
        for k, (p, fld) in enumerate(zip(self.pipes, self.fields(z))):
            row += [mu[2 * k], fld.mom[0], p.outlet_pressure(fld.rho), -mu[2 * k + 1]]
            energy += p.stored_energy(fld.rho, fld.mom)
        return np.array(row + [energy, gn.station_power(self.variant, self.kappa, u[2],
                                                        row[2], row[5])])

    def pattern(self):
        """Hand-written structural couplings of the rows."""
        ent = []
        for p, s in zip(self.pipes, self.sl):
            r0, m0 = s.start, s.start + p.n
            for i in range(p.n):
                ent += [(r0 + i, r0 + i), (r0 + i, m0 + i)]
                if i + 1 < p.n:
                    ent.append((r0 + i, m0 + i + 1))
            ent += [(m0, m0), (m0, r0)]
            for j in range(1, p.n):
                ent += [(m0 + j, m0 + j), (m0 + j, r0 + j - 1), (m0 + j, r0 + j)]
        # the upstream outlet flux k m2(0) closes the last upstream cell; k reads
        # p1(L) under fp-av, and the fc outlet rule feeds p1(L) to m2(0)'s row
        n1 = self.pipes[0].n
        last_up = [n1 - 1, n1 - 2]
        m2_0 = self.sl[1].start + self.pipes[1].n
        fc = self.framework is gn.Framework.FIXED_RATIO
        av = self.assumption is gn.Assumption.CONST_VELOCITY
        ent.append((n1 - 1, m2_0))
        if not fc and av:
            ent += [(n1 - 1, c) for c in last_up]
        if fc:
            ent += [(m2_0, c) for c in last_up]
        return ent

    def _newton(self, fun, z, tol):
        F = fun(z)
        for _ in range(30):
            if np.max(np.abs(F)) <= tol:
                return z
            z = z + dense_newton_step(fun, z, F, self.colors)
            F = fun(z)
        raise AssertionError(f"oracle Newton stalled at residual {np.max(np.abs(F)):.1e}")

    def simulate(self, inputs, t_end, dt, tol):
        """Steady state at t = 0, then implicit-midpoint steps, as a TimeSeries.

        `inputs(t)` gives u at time t; steps sample it at their midpoints.
        Rows are scaled like the network's: continuity rows by the largest
        |m_L| sampled, momentum rows by p0 at t = 0.
        """
        t = dt * np.arange(int(round(t_end / dt)) + 1)
        u0 = inputs(0.0)
        m_ref = max([abs(inputs(ti)[1]) for ti in t] + [1.0])
        scale = np.concatenate([np.repeat([m_ref, u0[0]], p.n) for p in self.pipes])
        z = np.concatenate([np.repeat([u0[0] / p.c2, u0[1]], p.n) for p in self.pipes])
        z = self._newton(lambda zn: self.rows(zn, np.zeros(self.n), u0) / scale, z, tol)
        data = [self.records(z, u0)]
        for t_n, t_next in zip(t[:-1], t[1:]):
            u_mid, z_prev = inputs(0.5 * (t_n + t_next)), z
            z = self._newton(lambda zn: self.rows(0.5 * (z_prev + zn), (zn - z_prev) / dt,
                                                  u_mid) / scale, z_prev, tol)
            data.append(self.records(z, inputs(t_next)))
        return gn.TimeSeries(t, self.names, np.array(data))


def direct_line(tag, cells=None):
    """The day line with one station model: (spec, scenario, its TwoPipeOracle, inputs).

    `inputs(t)` is the oracle's input triple at time t; in the network's
    `input_ids` order it is the network's input mapping too. `cells`
    overrides the two pipes' cell counts.
    """
    spec, scen = benchmark_with_model(tag)
    if cells is not None:
        for pe, n in zip(spec.pipes, cells):
            pe.spec = dataclasses.replace(pe.spec, n_cells=n)
    st = spec.compressors[0]
    line = TwoPipeOracle([pe.spec for pe in spec.pipes], spec.gas, st.variant, st.id)
    setpoint = scen.setpoint_source(st.id, st.variant.setpoint, None)

    def inputs(t):
        return scen.value("source", t), scen.value("sink", t), scen.value(setpoint, t)

    return spec, scen, line, inputs


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
            self._colors = color_columns(ent, one_block(self.n))
        return self._colors

    def check_state(self, z, t):
        pass

    def energy(self, z):
        n = self.sys.n
        return self.sys.stored_energy(z[:n], z[n:])


def closed_pipe(gas, n_cells=32, length=100e3, friction=0.0, amplitude=0.05):
    spec = gn.PipeSpec("sealed", length, 1.0, friction, n_cells)
    sys = PipeOracle(spec, gas)
    cp = ClosedPipe(sys)
    xc = (np.arange(n_cells) + 0.5) * sys.dx
    rho = 50.0 * (1.0 + amplitude * np.sin(2.0 * np.pi * xc / length))
    z0 = np.concatenate([rho, np.zeros(n_cells)])
    return cp, z0


def bench_workloads():
    """The benchmark's seeded input generators (``bench/workloads.py``), as a module."""
    name = "gasnetsim_bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module      # dataclasses resolve their module by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def ladder_system(seed=301):
    """The benchmark's looped 8-station ladder (n = 2963) with its scenario."""
    case = bench_workloads().ladder_case(seed)
    spec = gn.parse_network(case.network)
    return gn.assemble(spec), gn.parse_scenario(case.scenario, spec)
