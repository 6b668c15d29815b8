"""Network topology and the assembled global DAE.

Unknown vector layout (length = sum(2 n_cells) + n_pipes + n_nodes):

    x = [ z | mu_m | lambda ]

    z       all pipe differential states, pipe by pipe (densities then momenta)
    mu_m    one outlet input per pipe: minus its outlet momentum
    lambda  one pressure-valued potential per node, ordered boundary nodes
            first, then station end nodes (per station in declaration
            order, inlet before outlet), then the other junctions

A pipe's inlet-pressure input is the potential of the node it starts at,
lambda(from-node), read in place (`GlobalSystem.p_in`); it has no unknown
of its own. Residual rows mirror x: row i pairs with unknown i.

    pipe rows:  W dz/dt - (J - R(z)) e(z) - B mu          (one per state,
                mu = (lambda(from-node), mu_m))
    port rows:  at mu_m:  p_out(z) - lambda(to-node)
    node rows:  supply:   lambda - p_set(t)
                demand:   sum(outlet fluxes) - sum(inlet fluxes) - m_out(t)
                junction: the same balance with zero extraction
                station inlet node:   m_upstream - k(z) * m_downstream = 0
                station outlet node:  lambda - ratio * p_upstream(z)   (FC)
                                      lambda - p_set(t)                (FP)

The effort e(z) = [c^2 rho; m] is linear, so the residual is stated once,
with K one constant linear map over [x | u]:

    F = W dz/dt + K [x | u] + w f(rho_bar, m) + outlet and station terms

F is a pure function of its arguments, so concurrent evaluations
(finite-difference Jacobian columns) are safe. Cell i of a pipe pairs
rho_i with the momentum m_i on its inlet-side interface; each of its rows
lists two entries of K:

    continuity   dx rho_i' + (s x[down] - m_i)     down = m_(i+1) with s = 1,
                                                   or mu_m with s = -1 at the last cell
    momentum     w m_i' + (c^2 rho_i - a x[up]) + w f_i
                 up = rho_(i-1) with a = c^2, or lambda(from-node) with
                 a = 1 at the inlet, where w = dx/2 (dx elsewhere)

The pipe bank (`PipeBank`), index and weight arrays built once per
system, gives W and f; the stored energy and `GlobalSystem.power_terms`
read it too.

Inputs are resolved once per closure into a vector u that is exactly
`input_ids`: the boundary nodes (`GlobalSystem.boundary`, which lead the
node order), then the stations. K is the triplet table
`GlobalSystem.coupling`: the pipe rows' entries, then every +-1 entry of
the port, node and station rows (columns from n on index u; only a
boundary node's row lists an input, minus it first, then its links in
attachment order). The residual, the Jacobian pattern and the algebraic
solve all read it. The outlet pressure 1.5 (c^2 rho) - 0.5 (c^2 rho) is a
state term, since K's (1.5 c^2) rho would round differently. The station
rows' state terms (`GlobalSystem._add_state_terms`) apply the rules of
`compressor.VARIANTS` at p_upstream, the port-out rows' outlet pressure,
for the residual and the algebraic solve alike.

The Jacobian's pattern (`_pattern`) and segment labels (`_segments`) go to
`blocks`, which owns its coloring and block form (`jac_colors`).

The steady state is built in closed form (`direct_state`) when the network
is a tree with one supply, each station's two ends counted as one vertex,
and the walk out from the supply enters every station at its inlet
(`_tree_walk`). A reverse pass gives every pipe the demands beyond it,
scaled by a station's factor k upstream of it; a forward pass sets each
pipe's densities in closed form from the potential at its near end
(`_march`) and passes the potentials on, through the outlet pressure and
the stations' outlet rules (`_tree_pass`).

Every other network is solved on its port variables y = (q per pipe,
lambda per node). `port_state` marches every pipe forward from
lambda(from-node) at flow q (`_port_march`, `_march`'s forward branch for
all pipes at once), so the pipe rows hold and R(y) (`make_port_residual`)
is the steady residual's port and node rows: K's rows through one column
map onto y (`_port_map`), plus the state terms, which read only each
pipe's last two densities. Its start (`port_start`) is the Kirchhoff flows
(`_flow_map`) with every potential at the first supply's pressure, and its
coloring (`port_colors`) maps `_pattern`'s port and node rows through the
same column map.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .blocks import ColumnColoring, Triplets, blockwise_pinv, color_columns, component_roots
from .compressor import VARIANTS, Assumption, Framework, Variant, station_power
from .errors import (ConfigurationError, InfeasibleFlowError, StateError, require_column_id,
                     require_positive)
from .gas import GasProperties
from .pipe import PipeSpec

# the Jacobian's block layout cuts every pipe into segments of at most this many cells
SEGMENT_CELLS = 16


class NodeKind(str, Enum):
    """A node's type as the network file names it.

    A station's end nodes are junctions: `CompressorStation.inlet_node` and
    `outlet_node` are the only statement that a node is a station end.
    """

    SUPPLY = "supply"
    DEMAND = "demand"
    JUNCTION = "junction"


BOUNDARY_KINDS = (NodeKind.SUPPLY, NodeKind.DEMAND)


@dataclass
class Node:
    """A declared node: its id and its kind (a station's ends are junctions)."""

    id: str
    kind: NodeKind


@dataclass
class PipeEdge:
    """A pipe plus its attachment: gas flows from `from_node` to `to_node`."""

    spec: PipeSpec
    from_node: str
    to_node: str


@dataclass
class CompressorStation:
    """A station between an upstream pipe outlet and a downstream pipe inlet.

    `ratio` and `pressure` are the default setpoints for the two frameworks,
    finite and positive where given; scenario profiles override them per time.
    """

    id: str
    inlet_node: str
    outlet_node: str
    framework: Framework
    assumption: Assumption
    ratio: float | None = None
    pressure: float | None = None

    def __post_init__(self):
        require_column_id("compressor", self.id)
        self.framework = Framework(self.framework)
        self.assumption = Assumption(self.assumption)
        for name, value in (("ratio", self.ratio), ("pressure", self.pressure)):
            if value is not None:
                require_positive(f"compressor {self.id!r}: {name}", value)

    @property
    def variant(self) -> Variant:
        return VARIANTS[self.framework, self.assumption]

    def default_setpoint(self) -> float | None:
        """The default field the variant's setpoint names (`ratio` or `pressure`)."""
        return getattr(self, self.variant.setpoint)


@dataclass
class NetworkSpec:
    gas: GasProperties
    nodes: list[Node]
    pipes: list[PipeEdge]
    compressors: list[CompressorStation] = field(default_factory=list)


@dataclass
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "topology valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def validate_topology(spec: NetworkSpec) -> ValidationReport:
    """Check all structural invariants; returns a report, never raises.

    Each station's ends must be declared junctions that no other station
    uses, its inlet must terminate exactly one pipe and its outlet start
    exactly one, and the two must differ. A station's id keys its input and
    its profiles (`<id>`, `<id>.ratio`, `<id>.pressure`), so it must not
    repeat, and no supply or demand node may hold one of those keys.
    """
    out: list[Violation] = []
    kind = {nd.id: nd.kind for nd in spec.nodes}
    for what, ids in (("node", [nd.id for nd in spec.nodes]),
                      ("pipe", [pe.spec.id for pe in spec.pipes]),
                      ("compressor", [st.id for st in spec.compressors])):
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
        if dupes:
            out.append(Violation(f"duplicate-{what}", f"duplicate {what} ids: {dupes}"))
    for st in spec.compressors:
        for key in (st.id, f"{st.id}.ratio", f"{st.id}.pressure"):
            if kind.get(key) in BOUNDARY_KINDS:
                out.append(Violation(
                    "compressor-id-collision",
                    f"compressor {st.id!r} and {kind[key].value} node {key!r} "
                    f"share the input key {key!r}"))

    out_degree = dict.fromkeys(kind, 0)   # pipe inlets attached (from)
    in_degree = dict.fromkeys(kind, 0)    # pipe outlets attached (to)
    for pe in spec.pipes:
        for end, degree in ((pe.from_node, out_degree), (pe.to_node, in_degree)):
            if end in kind:
                degree[end] += 1
            else:
                out.append(Violation(
                    "unknown-node",
                    f"pipe {pe.spec.id!r} references undeclared node {end!r}"))

    station_of = {}
    for st in spec.compressors:
        if st.inlet_node == st.outlet_node:
            out.append(Violation(
                "compressor-degenerate",
                f"compressor {st.id!r} has identical end nodes"))
            continue
        for nid, role, degree, verb in ((st.inlet_node, "inlet", in_degree, "terminate"),
                                        (st.outlet_node, "outlet", out_degree, "start")):
            if nid not in kind:
                out.append(Violation(
                    "unknown-node",
                    f"compressor {st.id!r} references undeclared node {nid!r}"))
                continue
            if kind[nid] is not NodeKind.JUNCTION:
                out.append(Violation(
                    "compressor-node-kind",
                    f"compressor {st.id!r}: node {nid!r} is {kind[nid].value}, "
                    "expected a junction"))
            if nid in station_of:
                out.append(Violation(
                    "compressor-node-shared",
                    f"node {nid!r} belongs to compressors {station_of[nid]!r} and {st.id!r}"))
                continue
            station_of[nid] = st.id
            deg = out_degree[nid] + in_degree[nid]
            if deg != 1:
                out.append(Violation(
                    "compressor-end-degree",
                    f"compressor {role} node {nid!r} has degree {deg}, expected 1"))
            elif degree[nid] != 1:
                out.append(Violation(
                    "compressor-end-orientation",
                    f"compressor {role} node {nid!r} must {verb} a pipe"))

    for nd in spec.nodes:
        if nd.kind in BOUNDARY_KINDS and out_degree[nd.id] + in_degree[nd.id] < 1:
            out.append(Violation(
                "dangling-boundary",
                f"{nd.kind.value} node {nd.id!r} has no attached pipe"))

    if not any(nd.kind is NodeKind.SUPPLY for nd in spec.nodes):
        out.append(Violation("no-pressure-reference",
                             "network has no supply (pressure-specified) node"))

    # connectivity over pipes and compressor links
    if kind and not out:
        roots = set(component_roots(
            kind, [(pe.from_node, pe.to_node) for pe in spec.pipes]
            + [(st.inlet_node, st.outlet_node) for st in spec.compressors]))
        if len(roots) > 1:
            out.append(Violation("disconnected",
                                 f"network splits into {len(roots)} components"))

    return ValidationReport(out)


def require_valid(spec: NetworkSpec) -> None:
    """Raise ConfigurationError listing every violation unless the topology is valid."""
    report = validate_topology(spec)
    if not report.ok:
        raise ConfigurationError(f"invalid network:\n{report}")


class StationBinding(NamedTuple):
    """One station as the system binds it: its variant row, pipes, input and rows.

    The momentum rule reads the downstream pipe's inlet momentum,
    `bank.m_in[pipe_down]`.
    """

    id: str
    variant: Variant
    default: float | None   # default setpoint; None: a scenario profile must give it
    pipe_up: int            # pipe whose outlet feeds the station
    pipe_down: int          # pipe fed by the station
    input: int              # setpoint position in the input vector
    row_in: int             # momentum rule, at the inlet node's row
    row_out: int            # pressure rule, at the outlet node's row


class PipeBank(NamedTuple):
    """Flat index and weight arrays over all pipes (layout: module docstring).

    The pipe rows' constant entries are K's (`GlobalSystem.coupling`).
    """

    rho: np.ndarray         # cell: density column (continuity row)
    mom: np.ndarray         # cell: momentum column (momentum row)
    prev: np.ndarray        # cell: position of the upstream cell (itself at the inlet), for rho_bar
    dx: np.ndarray          # cell: continuity weight
    w: np.ndarray           # cell: momentum weight
    fric: np.ndarray        # cell: friction coefficient lambda / (2 D)
    tail: np.ndarray        # pipe: density column of the last cell
    m_in: np.ndarray        # pipe: inlet momentum column


class _Step(NamedTuple):
    """One pipe of the direct steady start's walk (`GlobalSystem._tree_walk`)."""

    pipe: int
    near: int       # potential column of the end the walk reaches first
    far: int        # potential column of the end the pipe's march gives
    forward: bool   # near is the pipe's from-node
    station: int    # the station whose inlet is `far`, or -1


class _PortMap(NamedTuple):
    """The steady rows on the port variables y = (q, lambda) (`GlobalSystem._port_map`)."""

    K: Triplets             # K's mu_m and node rows over [y | u], rows shifted to y's
    coef: np.ndarray        # pipe: dx f, its march's friction coefficient
    n_cells: np.ndarray     # pipe: its cell count
    colors: ColumnColoring  # of R's pattern


class _AlgebraicMap(NamedTuple):
    """M (the coupling's (mu_m, lambda) columns), its pseudo-inverse P, and the rest.

    Rows, and M's columns, are shifted to the algebraic block.
    """

    M: Triplets
    P: Triplets
    rest: Triplets


class GlobalSystem:
    """Assembled network DAE with residual, Jacobian pattern and diagnostics.

    x = [z | mu_m | lambda] (module docstring): z holds every pipe's
    densities then momenta, pipe by pipe; mu_m (minus the outlet momentum)
    follows it, one per pipe, then one potential per node. ``p_in[k]`` is
    the column of pipe k's inlet pressure, its from-node's potential.
    """

    def __init__(self, spec: NetworkSpec):
        require_valid(spec)
        self.spec = spec
        self.gas = spec.gas
        self.pipes: list[PipeSpec] = [pe.spec for pe in spec.pipes]

        # --- unknown layout ------------------------------------------
        self.rho_sl, self.mom_sl = [], []
        off = 0
        for p in self.pipes:
            self.rho_sl.append(slice(off, off + p.n_cells))
            self.mom_sl.append(slice(off + p.n_cells, off + 2 * p.n_cells))
            off += 2 * p.n_cells
        self.n_z = off
        P = len(self.pipes)
        self.mu_m = off + np.arange(P)
        # station ends (inlet then outlet, per station) and the pressure-rule rows
        ends = [nid for st in spec.compressors for nid in (st.inlet_node, st.outlet_node)]
        self.station_ends = frozenset(ends)
        self.pressure_rule = frozenset(
            [nd.id for nd in spec.nodes if nd.kind is NodeKind.SUPPLY]
            + [st.outlet_node for st in spec.compressors])
        by_id = {nd.id: nd for nd in spec.nodes}
        self.boundary = [nd for nd in spec.nodes if nd.kind in BOUNDARY_KINDS]
        self.node_order = (self.boundary + [by_id[nid] for nid in ends]
                           + [nd for nd in spec.nodes if nd.kind is NodeKind.JUNCTION
                              and nd.id not in self.station_ends])
        self.lam = {nd.id: self.n_z + P + i for i, nd in enumerate(self.node_order)}
        self.p_in = np.array([self.lam[pe.from_node] for pe in spec.pipes], dtype=int)
        self.n_alg = P + len(self.node_order)
        self.n = self.n_z + self.n_alg
        try:
            self.bank = self._build_bank()
        except MemoryError as exc:
            # six 8-byte arrays per cell, two per pipe
            raise ConfigurationError(
                f"{self.n} unknowns: the pipe bank needs {24 * self.n_z + 16 * P} bytes, "
                "more than can be allocated") from exc
        # the cell-measure weights W of H and of the pipe rows
        self.energy_weights = np.empty(self.n_z)
        self.energy_weights[self.bank.rho] = self.bank.dx
        self.energy_weights[self.bank.mom] = self.bank.w

        # per-node attachments: (pipe index, is_outlet)
        self.attached: dict[str, list[tuple[int, bool]]] = {nd.id: [] for nd in spec.nodes}
        for k, pe in enumerate(spec.pipes):
            self.attached[pe.from_node].append((k, False))
            self.attached[pe.to_node].append((k, True))

        # --- inputs and station bindings ---------------------------
        # (validate_topology leaves each station one upstream, one downstream pipe)
        self.stations: list[StationBinding] = []
        for st in spec.compressors:
            up = next(k for k, isout in self.attached[st.inlet_node] if isout)
            down = next(k for k, isout in self.attached[st.outlet_node] if not isout)
            self.stations.append(StationBinding(
                st.id, st.variant, st.default_setpoint(),
                up, down, len(self.boundary) + len(self.stations),
                self.lam[st.inlet_node], self.lam[st.outlet_node]))

        self.input_ids = [nd.id for nd in self.boundary] + [s.id for s in self.stations]
        self.coupling = self._build_coupling()

        # --- row kinds for residual scaling --------------------------
        kind = np.empty(self.n, dtype="U1")
        kind[self.bank.rho] = "m"   # mass rows carry momentum-flux units
        # momentum, port and pressure-rule rows carry pressure units
        kind[self.bank.mom] = kind[self.mu_m] = "p"
        for nd in self.node_order:
            kind[self.lam[nd.id]] = "p" if nd.id in self.pressure_rule else "m"
        self.row_kind = kind

        self.references = (1.0, 1.0)   # (p_ref, m_ref), set before solving
        self._coloring = None
        self._names = None
        self._alg_map = None
        self._flows = None
        self._walk = None
        self._ports = None

    def _build_bank(self) -> PipeBank:
        n_cells = np.array([p.n_cells for p in self.pipes])
        rho = np.concatenate([np.arange(sl.start, sl.stop) for sl in self.rho_sl])
        mom = rho + np.repeat(n_cells, n_cells)
        first = np.cumsum(n_cells) - n_cells
        is_first = np.zeros(rho.size, dtype=bool)
        is_first[first] = True
        prev = np.arange(rho.size) - ~is_first   # a pipe's inlet cell is its own
        dx = np.repeat([p.length / p.n_cells for p in self.pipes], n_cells)
        return PipeBank(
            rho=rho, mom=mom, prev=prev, dx=dx, w=np.where(is_first, 0.5 * dx, dx),
            fric=np.repeat([p.friction / (2.0 * p.diameter) for p in self.pipes], n_cells),
            tail=rho[np.roll(is_first, -1)], m_in=mom[is_first])

    def _build_coupling(self) -> Triplets:
        """K, every constant entry of the residual, over [x | u].

        Columns from n on index the input vector u. The pipe rows' two
        entries each (module docstring) come first, then the +-1 entries of
        the port, node and station rows, each row in summation order: a
        boundary node's row lists minus its input first, then its links in
        attachment order.
        """
        b, n, lam, c2 = self.bank, self.n, self.lam, self.gas.c2
        first = b.prev == np.arange(b.rho.size)   # a pipe's inlet cell
        last, pipe, one = np.roll(first, -1), np.cumsum(first) - 1, np.ones(b.rho.size)
        # continuity: s x[down] - m_i; momentum: c^2 rho_i - a x[up]
        down = np.where(last, self.mu_m[pipe], b.mom + 1)
        up = np.where(first, self.p_in[pipe], b.rho[b.prev])
        mu_m, m_in = self.mu_m.tolist(), b.m_in.tolist()
        ent = [(mu_m[k], lam[pe.to_node], -1) for k, pe in enumerate(self.spec.pipes)]
        for i, nd in enumerate(self.node_order):
            r = lam[nd.id]
            if nd.kind in BOUNDARY_KINDS:   # the boundary leads node_order and u alike
                ent.append((r, n + i, -1))
            if nd.id in self.pressure_rule:
                ent.append((r, r, 1))
            else:   # flux balances, and the station inlet's -mu_m of its upstream pipe
                ent += [(r, mu_m[k] if isout else m_in[k], -1)
                        for k, isout in self.attached[nd.id]]
        rows, cols, vals = np.array(ent, dtype=int).T
        return Triplets(np.concatenate([b.rho, b.rho, b.mom, b.mom, rows]),
                        np.concatenate([b.mom, down, b.rho, up, cols]),
                        np.concatenate([-one, np.where(last, -1.0, 1.0), c2 * one,
                                        -np.where(first, 1.0, c2), vals]))

    # ------------------------------------------------------------------
    # residual
    # ------------------------------------------------------------------

    def _input_vector(self, inputs):
        """Sampled inputs (a mapping) in `input_ids` order."""
        if not isinstance(inputs, Mapping):
            raise ConfigurationError(
                f"inputs must map input ids to sampled values, got {type(inputs).__name__}")
        try:
            return np.array([inputs[key] for key in self.input_ids], dtype=float)
        except KeyError as exc:
            raise ConfigurationError(f"missing input value for {exc}") from exc

    def steady_residual(self, x, inputs):
        return self._residual_core(np.asarray(x, float), np.zeros(self.n_z),
                                   self._input_vector(inputs))

    def make_step_residual(self, z_prev, dt, inputs_mid):
        """Implicit-midpoint residual in the endpoint/midpoint unknowns.

        Unknowns: differential states at the step end, algebraic variables at
        the midpoint. Differential rows are collocated at the midpoint state,
        algebraic rows are enforced there too.
        """
        z_prev = np.asarray(z_prev, float)
        n_z = self.n_z
        u = self._input_vector(inputs_mid)

        def fun(x_new):
            x_eval = x_new.copy()
            z_new = x_new[:n_z]
            x_eval[:n_z] = 0.5 * (z_prev + z_new)
            zdot = (z_new - z_prev) / dt
            return self._residual_core(x_eval, zdot, u)

        return fun

    def _residual_core(self, x, zdot, u):
        """F = W dz/dt + K [x | u] + w f(rho_bar, m) + the state terms.

        K is `coupling`. The differential rows carry the cell measures W,
        so their pairing with the efforts is the stored-energy rate.
        """
        b = self.bank
        F = self.coupling.matvec(np.concatenate([x, u]), self.n)
        F[: self.n_z] += self.energy_weights * zdot
        F[b.mom] += b.w * self._friction(x[b.rho], x[b.mom])
        self._add_state_terms(F, self._outlet_pressures(x), x[b.m_in], u, 0)
        return F

    def _friction(self, rho, mom):
        """Friction deceleration (lambda/2D) m |m / rho_bar| per momentum interface.

        rho_bar averages the two cells around the interface; at a pipe inlet
        `prev` is the cell itself, so rho_bar is the first cell's density.
        """
        b = self.bank
        return b.fric * mom * np.abs(mom / (0.5 * (rho[b.prev] + rho)))

    def _outlet_pressures(self, x):
        """Outlet pressure of every pipe, extrapolated from its last two cells."""
        tail = self.bank.tail
        return self._extrapolate(x[tail], x[tail - 1])

    def _extrapolate(self, last, prev):
        """The outlet pressure from the last cell's density and the one before it."""
        c2 = self.gas.c2
        return 1.5 * (c2 * last) - 0.5 * (c2 * prev)

    def _add_state_terms(self, F, p_out, m_in, u, base):
        """Add +p_out to the port-out rows, -k m_down and -p_st to the station rows.

        Row 0 of F is the system's row `base`; p_out and m_in hold every
        pipe's outlet pressure and inlet momentum. Each station applies its
        variant's rules (`compressor.VARIANTS`) to its upstream pipe's outlet
        pressure and its setpoint in u; a plain loop beats array code for the
        few stations a network has.
        """
        F[self.mu_m - base] += p_out
        kappa = self.gas.isentropic_exponent
        for s in self.stations:
            sp, p = u[s.input], p_out[s.pipe_up]
            F[s.row_in - base] -= s.variant.factor(sp, p, kappa) * m_in[s.pipe_down]
            F[s.row_out - base] -= s.variant.outlet(sp, p)

    def reference_levels(self, levels):
        """(p_ref, m_ref): the first supply's level; the largest |demand level|, floored at 1."""
        p_ref = next(levels[nd.id] for nd in self.boundary if nd.kind is NodeKind.SUPPLY)
        demands = [abs(levels[nd.id]) for nd in self.boundary if nd.kind is NodeKind.DEMAND]
        return p_ref, max(demands + [1.0])

    def row_scale(self):
        """Diagonal residual scaling: pressure rows / p_ref, momentum rows / m_ref."""
        p_ref, m_ref = self.references
        return np.where(self.row_kind == "p", p_ref, m_ref)

    # ------------------------------------------------------------------
    # Jacobian sparsity and coloring
    # ------------------------------------------------------------------

    def _pattern(self):
        """Structural (row, col) couplings of the residual, both solve modes.

        K's x-columns, the z diagonal of W dz/dt (friction reads no column
        beyond these), the outlet pressures' cells and the station rules'.
        """
        b, c, z = self.bank, self.coupling, np.arange(self.n_z)
        on_x = c.cols < self.n
        pairs = [(c.rows[on_x], c.cols[on_x]), (z, z), (self.mu_m, b.tail), (self.mu_m, b.tail - 1)]
        ent = [np.column_stack(rc) for rc in pairs]
        for s in self.stations:
            last = b.tail[s.pipe_up]
            st = [(s.row_in, b.m_in[s.pipe_down])]
            for row, reads in zip((s.row_in, s.row_out), s.variant.reads_inlet):
                if reads:
                    st += [(row, last), (row, last - 1)]
            ent.append(np.array(st))
        return np.concatenate(ent)

    def _segments(self):
        """Each unknown's pipe segment (-1 on the border), and the segments' names.

        A pipe of n cells is cut into s = ceil((n + 1) / (SEGMENT_CELLS + 1))
        segments of at most SEGMENT_CELLS cells, separated by s - 1 single
        cut cells: segment j and the cut after it hold the cells from
        floor(j (n + 1) / s) to floor((j + 1) (n + 1) / s) - 1. A cell's
        density and momentum share its label. A segment's rows read only
        its own cells and two border columns (the density before it and
        the momentum after it, or the pipe's p_in and mu_m), so with the cut
        cells and the algebraic unknowns as the border, the Jacobian is
        block diagonal over the segments.
        """
        n_cells = np.array([p.n_cells for p in self.pipes])
        n_seg = -(-(n_cells + 1) // (SEGMENT_CELLS + 1))
        slots, s = np.repeat(n_cells + 1, n_cells), np.repeat(n_seg, n_cells)
        cell = np.arange(slots.size) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
        j = ((cell + 1) * s - 1) // slots             # the segment, or the one a cut ends
        cut = (j + 1) * slots // s == cell + 1       # never the last cell
        label = np.where(cut, -1, np.repeat(np.cumsum(n_seg) - n_seg, n_cells) + j)
        segment = np.full(self.n, -1)
        segment[self.bank.rho] = segment[self.bank.mom] = label
        names = [f"pipe {p.id!r} cells {j * (n + 1) // s}-{(j + 1) * (n + 1) // s - 2}"
                 for p, n, s in zip(self.pipes, n_cells.tolist(), n_seg.tolist())
                 for j in range(s)]
        return segment, names

    def jac_colors(self):
        """The `blocks.ColumnColoring` of the pattern and the segments, built once."""
        if self._coloring is None:
            self._coloring = color_columns(self._pattern(), self._segments())
        return self._coloring

    # ------------------------------------------------------------------
    # consistent algebraic variables and derived records
    # ------------------------------------------------------------------

    def _algebraic_map(self) -> _AlgebraicMap:
        """K's port and node rows split at the algebraic columns, with M's pseudo-inverse.

        M, the port/node rows' matrix in (mu_m, lambda), is constant, so all
        of it is built once per system; only the rest's values depend on z
        and the inputs. M falls apart into small blocks (a node with the pipe
        outlets that end at it, a station), so the pseudo-inverse is taken
        block by block (`blockwise_pinv`) and kept as triplets. The cutoff is
        lstsq's, max(shape) * eps, so a singular matrix (pipes merging at a
        junction) gets the minimum-norm correction.
        """
        if self._alg_map is None:
            na, base, c = self.n_alg, self.n_z, self.coupling
            rows, cols, vals = (a[c.rows >= base] for a in c)
            alg = (cols >= base) & (cols < self.n)
            M = Triplets(rows[alg] - base, cols[alg] - base, vals[alg])
            self._alg_map = _AlgebraicMap(
                M, blockwise_pinv(M, na, na * np.finfo(float).eps),
                Triplets(rows[~alg] - base, cols[~alg], vals[~alg]))
        return self._alg_map

    def algebraic_solve(self, x, inputs):
        """Re-solve the port/node rows for (mu_m, lambda) at x's frozen state.

        The rows are linear in the algebraic unknowns with a constant matrix;
        its pseudo-inverse gives the coupling-consistent port values used for
        records and for consistent-state construction. Topologies where the
        frozen-state rows alone do not pin every unknown (a junction feeding
        from several pipe outlets splits the flux through the dynamics, not
        the state) are resolved toward x's own algebraic part: the returned
        unknowns are the consistent point closest to x with x's state.
        """
        x = np.asarray(x, float)
        u = self._input_vector(inputs)
        a, na, z, alg = self._algebraic_map(), self.n_alg, x[: self.n_z], x[self.n_z:]
        # the rows at zero (mu_m, lambda): M (mu_m, lambda) = -F0
        F0 = a.rest.matvec(np.concatenate([x, u]), na)
        self._add_state_terms(F0, self._outlet_pressures(z), z[self.bank.m_in], u, self.n_z)
        return np.concatenate([z, alg + a.P.matvec(-F0 - a.M.matvec(alg, na), na)])

    def record_names(self):
        """Record column names, built and interned once: every record shares them."""
        if self._names is None:
            names = []
            for p in self.pipes:
                pid = p.id
                names += [f"{pid}.in.p_Pa", f"{pid}.in.m", f"{pid}.out.p_Pa", f"{pid}.out.m"]
            names.append("H_total")
            names += [f"{s.id}.power" for s in self.stations]
            self._names = [sys.intern(n) for n in names]
        return list(self._names)

    def snapshot(self, x, inputs):
        """The record row, in `record_names` order, at x re-solved by `algebraic_solve`."""
        return self._records(self.algebraic_solve(x, inputs), self._input_vector(inputs))

    def _records(self, x, u):
        """Port pressures/momenta, total energy and station powers at x = [z | mu_m | lambda]."""
        b = self.bank
        z = x[: self.n_z]
        p_out = self._outlet_pressures(z)
        kappa = self.gas.isentropic_exponent
        powers = [station_power(s.variant, kappa, u[s.input], p_out[s.pipe_up],
                                z[b.m_in[s.pipe_down]])
                  for s in self.stations]
        return np.concatenate([
            np.column_stack([x[self.p_in], z[b.m_in], p_out, -x[self.mu_m]]).ravel(),
            [self.hamiltonian_total(z)], powers])

    def effort_vector(self, z):
        """The effort e(z) = [c^2 rho; m] over the differential states."""
        e = np.array(z[: self.n_z], dtype=float)
        e[self.bank.rho] *= self.gas.c2
        return e

    def hamiltonian_total(self, z):
        """Stored energy H = z' W e(z) / 2 with the cell-measure weights W.

        The inlet momentum has a half cell (dx/2), so H is the energy whose
        rate e' W dz/dt (`energy_rate`) the power balance closes.
        """
        return 0.5 * float(np.dot(self.effort_vector(z) * self.energy_weights, z[: self.n_z]))

    def total_mass(self, z):
        return float(np.dot(self.bank.dx, z[self.bank.rho]))

    def min_density(self, z):
        return float(z[self.bank.rho].min())

    def check_state(self, z, t):
        """Raise StateError naming the first pipe with a non-positive density,
        else the first with a non-positive outlet pressure.

        The outlet pressure is extrapolated from the last two cells, so it can
        fall to zero while both densities stay positive; a station's power
        then has no value.
        """
        b = self.bank
        bad = {"density": np.searchsorted(b.tail, b.rho[~(z[b.rho] > 0.0)]),
               "outlet pressure": np.flatnonzero(~(self._outlet_pressures(z) > 0.0))}
        for what, pipes in bad.items():
            if pipes.size:
                raise StateError(
                    f"non-positive {what} in pipe {self.pipes[pipes[0]].id!r} at t={t}")

    def zdot_consistent(self, x, inputs):
        """Differential rates implied by the pipe rows at the given unknowns."""
        F = self.steady_residual(x, inputs)
        return -F[: self.n_z] / self.energy_weights

    def energy_rate(self, z, zdot):
        """Exact stored-energy rate e' E dz/dt with the cell-measure E."""
        return float(np.dot(self.effort_vector(z) * self.energy_weights, zdot))

    def power_terms(self, x, inputs):
        """Exact split of the stored-energy rate at a consistent state.

        Returns a dict with 'rate', 'boundary', 'compressor', 'internal' and
        'dissipation'; rate = boundary + compressor + internal - dissipation
        holds to roundoff. Port discharge terms pair the outlet flux with the
        energy-conjugate (last cell-center) pressure.
        """
        x = np.asarray(x, float)
        b, z, pipes = self.bank, x[: self.n_z], self.spec.pipes
        bucket = {nd.id: 0 if nd.kind in BOUNDARY_KINDS else 1 if nd.id in self.station_ends
                  else 2 for nd in self.node_order}
        ports = np.array([bucket[pe.from_node] for pe in pipes]
                         + [bucket[pe.to_node] for pe in pipes])
        # inlet: p_in m(0); outlet: the conjugate pressure times minus the flux -mu_m;
        # summed exactly, because inlet and outlet powers nearly cancel
        power = np.concatenate([x[self.p_in] * z[b.m_in], self.gas.c2 * z[b.tail] * x[self.mu_m]])
        parts = {name: math.fsum(power[ports == i].tolist())
                 for i, name in enumerate(("boundary", "compressor", "internal"))}
        mom = z[b.mom]
        parts["dissipation"] = float(np.dot(b.w * self._friction(z[b.rho], mom), mom))
        parts["rate"] = self.energy_rate(z, self.zdot_consistent(x, inputs))
        return parts

    def net_mass_influx(self, x_prev, x_new):
        """A step's net mass inflow rate into all pipes: sum of m(0) + mu_m per pipe.

        This is exactly what the continuity rows telescope to, so with each
        inlet momentum m(0) averaged over the states of the step's unknowns
        x_prev and x_new, and mu_m read from x_new (the step's midpoint
        value), the cumulative ledger closes to solver precision. Junction and constant-momentum station
        exchanges cancel inside the sum; only boundary feeds/extractions and
        constant-velocity station injections remain.
        """
        m = self.bank.m_in
        return float(np.sum(0.5 * (x_prev[m] + x_new[m]) + x_new[self.mu_m]))

    # ------------------------------------------------------------------

    def _flow_map(self):
        """G: the Kirchhoff flows q = G u at the input vector u.

        Each station's two ends merge into one vertex and every supply into
        one root. With A the pipes' incidence (+1 at the inlet end, -1 at
        the outlet end), W each pipe's linear conductance 1 / (L lambda/2D)
        and d the demands, A W A' phi = -d is solved on the vertices other
        than the root (phi = 0 there), and q = W A' phi. So every demand
        and junction balance holds, and loops split their flow by
        conductance. A pipe without friction counts with 1e-9 of the largest
        resistance (with 1 if no pipe has friction). Built once per system:
        only u changes between calls.
        """
        if self._flows is None:
            N, lam = len(self.node_order), self.lam
            base = self.n - N
            # each node's vertex (the boundary leads node_order and u alike): the
            # supplies share row N, which is then cut off (phi = 0 there), and a
            # station's outlet is its inlet
            vertex = [N if nd.kind is NodeKind.SUPPLY else i
                      for i, nd in enumerate(self.node_order)]
            demand = [i for i, nd in enumerate(self.boundary) if nd.kind is NodeKind.DEMAND]
            for st in self.spec.compressors:
                vertex[lam[st.outlet_node] - base] = lam[st.inlet_node] - base
            ends = [(vertex[lam[pe.from_node] - base], vertex[lam[pe.to_node] - base])
                    for pe in self.spec.pipes]
            start, end = zip(*ends)
            pipes = np.arange(len(ends))
            incidence = np.zeros((N + 1, pipes.size))
            incidence[start, pipes] = 1.0
            incidence[end, pipes] -= 1.0
            r = [p.length * p.friction / (2.0 * p.diameter) for p in self.pipes]
            floor = 1e-9 * max(r) or 1.0
            At = incidence[:N].T / np.array([[max(rk, floor)] for rk in r])
            laplacian = incidence[:N] @ At
            # no pipe end reaches a supply's or a station outlet's own row: phi = 0 there
            idle = sorted(set(range(N)) - set(start) - set(end))
            laplacian[idle, idle] = 1.0
            rhs = np.zeros((N, len(self.input_ids)))
            rhs[demand, demand] = -1.0
            self._flows = At @ np.linalg.solve(laplacian, rhs)
        return self._flows

    def _tree_walk(self) -> list[_Step]:
        """The direct steady start's walk: every pipe once, out from the supply.

        A pipe comes after the pipe that reaches its near end. The walk is
        empty unless the network is a tree with one supply, each station's
        two ends counted as one vertex, and the walk enters every station
        at its inlet. Built once per system, on the first call.
        """
        if self._walk is None:
            spec = self.spec
            vertex = {nd.id: nd.id for nd in spec.nodes}
            for st in spec.compressors:
                vertex[st.outlet_node] = st.inlet_node
            supplies = [nd.id for nd in self.boundary if nd.kind is NodeKind.SUPPLY]
            self._walk = []
            # connected (validate_topology), so one pipe fewer than vertices is a tree
            if len(supplies) == 1 and len(spec.pipes) == len(set(vertex.values())) - 1:
                links = {v: [] for v in vertex.values()}
                for k, pe in enumerate(spec.pipes):
                    links[vertex[pe.from_node]].append((k, pe.from_node, pe.to_node, True))
                    links[vertex[pe.to_node]].append((k, pe.to_node, pe.from_node, False))
                outlets = {st.outlet_node for st in spec.compressors}
                station_up = {s.pipe_up: i for i, s in enumerate(self.stations)}
                walk, todo, seen = [], [supplies[0]], {supplies[0]}
                while todo:
                    for k, near, far, forward in links[todo.pop()]:
                        if vertex[far] in seen:
                            continue
                        if far in outlets:   # a station entered at its outlet: no walk
                            return self._walk
                        walk.append(_Step(k, self.lam[near], self.lam[far], forward,
                                          station_up.get(k, -1)))
                        seen.add(vertex[far])
                        todo.append(vertex[far])
                self._walk = walk
        return self._walk

    def _march(self, k, q, lam, forward):
        """Pipe k's steady densities at flow q from the potential lam at its walk-near end.

        Returns (d, s, far): the squared density of the cell i steps from
        the near end is d + i s, and far is the far end's potential. The
        steady momentum rows times rho_bar give, with f the friction
        coefficient, dx the cell length and beta = 2 dx f q|q| / c^2,
        rho_i^2 = rho_(i-1)^2 - beta. Forward, from lam at the inlet:
            rho_1 = (lam + sqrt(lam^2 - 2 c^2 dx f q|q|)) / (2 c^2),
        and far is the outlet pressure, computed as `_outlet_pressures`
        does. Backward, from P = lam / c^2 at the outlet:
            rho_n = (3 P + sqrt(P^2 + 2 beta)) / 4,
            far = c^2 rho_1 + (dx/2) f q|q| / rho_1.
        The squares are monotone along the pipe, so where the radicand or
        the far end's square is not positive, no positive steady state
        carries q: InfeasibleFlowError names the pipe and the first cell in
        march order with no positive density.
        """
        p, c2 = self.pipes[k], self.gas.c2
        n, dx = p.n_cells, p.length / p.n_cells
        a = dx * (p.friction / (2.0 * p.diameter)) * (q * abs(q))   # dx f q|q|
        beta = 2.0 * a / c2
        if forward:
            disc, s = lam * lam - 2.0 * c2 * a, -beta
            first = 0.0 if disc <= 0 else (lam + math.sqrt(disc)) / (2.0 * c2)
        else:
            P = lam / c2
            disc, s = P * P + 2.0 * beta, beta
            first = 0.0 if disc <= 0 else (3.0 * P + math.sqrt(disc)) / 4.0
        d = first * first
        if first <= 0 or d + (n - 1) * s <= 0:
            steps = 0 if first <= 0 else int(np.flatnonzero(d + np.arange(n) * s <= 0)[0])
            raise InfeasibleFlowError(
                f"pipe {p.id!r} cannot carry the steady flow m={q:.6g} from "
                f"{'p_in' if forward else 'p_out'}={lam:.6g} Pa: no positive density "
                f"at cell {steps if forward else n - 1 - steps}")
        rho_far = math.sqrt(d + (n - 1) * s)
        if forward:
            return d, s, 1.5 * (c2 * rho_far) - 0.5 * (c2 * math.sqrt(d + (n - 2) * s))
        return d, s, c2 * rho_far + 0.5 * a / rho_far

    def _tree_pass(self, u, walk, factors):
        """One pass of the direct start at the stations' factors k.

        Reverse pass: every pipe carries the demands beyond it, scaled by k
        upstream of a station. Forward pass: each pipe marches from its near
        end (`_march`), and a station passes on its variant's outlet rule.
        Returns (q per pipe, {potential column: potential}, (d, s, forward)
        per pipe with d and s as `_march` gives them, each station's
        p_upstream).
        """
        # per potential column, the flow out beyond the node; the boundary
        # leads node_order and u alike
        base = self.n - len(self.node_order)
        carry = dict.fromkeys(range(base, self.n), 0.0)
        carry.update((base + i, u[i]) for i, nd in enumerate(self.boundary)
                     if nd.kind is NodeKind.DEMAND)
        q = [0.0] * len(self.pipes)
        for s in reversed(walk):
            if s.station < 0:
                flow = carry[s.far]
            else:
                flow = factors[s.station] * carry[self.stations[s.station].row_out]
            carry[s.near] += flow
            q[s.pipe] = flow if s.forward else -flow
        pot = {walk[0].near: u[walk[0].near - base]}
        profiles, p_up = [None] * len(self.pipes), [0.0] * len(self.stations)
        for s in walk:
            d, slope, pot[s.far] = self._march(s.pipe, q[s.pipe], pot[s.near], s.forward)
            profiles[s.pipe] = (d, slope, s.forward)
            if s.station >= 0:
                st = self.stations[s.station]
                p_up[s.station] = pot[s.far]
                pot[st.row_out] = st.variant.outlet(u[st.input], pot[s.far])
        return q, pot, profiles, p_up

    def _tree_state(self, u, walk):
        """The direct steady state (`_tree_pass`), or None: the start is then the Kirchhoff rule.

        An fp-av station's factor k reads its inlet pressure, first taken at
        the supply's: the passes repeat until the factors repeat a set seen
        before (they may cycle in the last bit), at most `MAX_ITERATIONS`
        times, and the last state goes to Newton. A demand the tree cannot
        carry raises InfeasibleFlowError once every k has settled. A march
        that fails while some k still moves is repeated with every such k
        at 0, which raises every pressure (less flow upstream of each
        station, and an fc outlet follows its inlet): if that march fails
        too, no k passes and its error is raised, else None. A k that is
        not finite gives None.
        """
        from .timeloop import MAX_ITERATIONS   # timeloop imports this module

        u, kappa, seen = u.tolist(), self.gas.isentropic_exponent, []   # scalar math on floats
        moving = any(s.variant.reads_inlet[0] for s in self.stations)
        supply = walk[0].near - self.n + len(self.node_order)   # its place in u
        p_up = [u[supply]] * len(self.stations)
        for _ in range(MAX_ITERATIONS):
            factors = [s.variant.factor(u[s.input], p, kappa)
                       for s, p in zip(self.stations, p_up)]
            if factors in seen:   # settled, or cycling in the last bit
                break
            if not all(map(math.isfinite, factors)):
                return None
            seen.append(factors)
            try:
                q, pot, profiles, p_up = self._tree_pass(u, walk, factors)
            except InfeasibleFlowError:
                if not moving:
                    raise
                self._tree_pass(u, walk, [0.0 if s.variant.reads_inlet[0] else k
                                          for s, k in zip(self.stations, factors)])
                return None
        x = np.empty(self.n)
        for k, (d, slope, forward) in enumerate(profiles):
            rho = np.sqrt(d + np.arange(self.pipes[k].n_cells) * slope)
            x[self.rho_sl[k]] = rho if forward else rho[::-1]
            x[self.mom_sl[k]] = q[k]
        x[self.mu_m] = np.negative(q)
        x[list(pot)] = list(pot.values())
        return x

    def direct_state(self, inputs0):
        """A single-supply tree's steady state in closed form (`_tree_state`), else None.

        The tree is one whose walk from its supply enters every station at
        its inlet (`_tree_walk`); a demand it cannot carry raises
        InfeasibleFlowError. None also for such a tree whose march fails
        while an fp-av factor still moves.
        """
        u, walk = self._input_vector(inputs0), self._tree_walk()
        return self._tree_state(u, walk) if walk else None

    def initial_guess(self, inputs0):
        """The direct steady state (`direct_state`), else the Kirchhoff start.

        Kirchhoff start: densities and node potentials (so inlet pressures)
        at the first supply's pressure, every pipe's momenta and its -mu_m
        at its flow in `port_start`. That start is the fallback of the
        steady solve's reduced Newton (`timeloop.steady_state`).
        """
        x = self.direct_state(inputs0)
        if x is not None:
            return x
        y = self.port_start(inputs0)
        return self._state_at(y, y[len(self.pipes)] / self.gas.c2)

    # ------------------------------------------------------------------
    # the steady state on the port variables
    # ------------------------------------------------------------------

    def port_start(self, inputs0):
        """The start y0 = (q, lambda) of the reduced steady solve.

        Every pipe's q is its Kirchhoff flow (`_flow_map`), which meets
        every demand and junction balance with the stations taken as plain
        junctions, and every node potential the first supply's pressure.
        Where a pipe's flow is below 1 in magnitude (no demand, demands
        that cancel, or a loop that carries none) it starts at 1 instead:
        at zero flow the steady rows lose their friction slope, so the
        Jacobian is singular on a loop or on a path between two supplies.
        """
        p_ref, _ = self.reference_levels(inputs0)
        q = self._flow_map() @ self._input_vector(inputs0)
        q[np.abs(q) < 1.0] = 1.0
        return np.concatenate([q, np.full(len(self.node_order), p_ref)])

    def _port_map(self) -> _PortMap:
        """R's constant rows and coloring on y = (q, lambda), and the march's constants.

        Built once per system, at the first call. One column map takes x's
        columns to y's: a cell's density and momentum, and mu_m, to its
        pipe's q (mu_m = -q, so those entries of K change sign), a
        potential and an input to themselves. K's mu_m and node rows go
        through it, and so does `_pattern`'s, a density entry reading
        lambda(from) too, where its pipe's march starts.
        """
        if self._ports is None:
            b, n_z, P, c = self.bank, self.n_z, len(self.pipes), self.coupling
            cell_pipe = np.searchsorted(b.tail, b.rho)
            to_y = np.arange(self.n + len(self.input_ids)) - n_z   # past z: mu_m, lambda, u
            to_y[b.rho] = to_y[b.mom] = cell_pipe
            start = np.full(self.n, -1)
            start[b.rho] = self.p_in[cell_pipe] - n_z
            alg = c.rows >= n_z
            cols = c.cols[alg]
            K = Triplets(c.rows[alg] - n_z, to_y[cols],
                         np.where((cols >= n_z) & (cols < n_z + P), -c.vals[alg], c.vals[alg]))
            ent = self._pattern()
            rows, cols = ent[ent[:, 0] >= n_z].T
            rows -= n_z
            read = start[cols] >= 0
            pattern = np.concatenate([np.column_stack([rows, to_y[cols]]),
                                      np.column_stack([rows[read], start[cols[read]]])])
            segment = np.concatenate([np.arange(P), np.full(len(self.node_order), -1)])
            n_cells = np.array([p.n_cells for p in self.pipes])
            self._ports = _PortMap(
                K, (b.dx * b.fric)[np.cumsum(n_cells) - n_cells], n_cells,
                color_columns(pattern, (segment, [f"pipe {p.id!r}" for p in self.pipes])))
        return self._ports

    def port_colors(self):
        """The `blocks.ColumnColoring` of R(y): each q a 1 x 1 segment, the potentials the border."""
        return self._port_map().colors

    def _port_march(self, y):
        """Every pipe's steady density squares at y = (q, lambda): (d, s), cell i at d + i s.

        `_march` forward from lambda(from) at flow q, for every pipe at
        once; d is NaN where no positive density carries q, so R(y) is not
        finite there.
        """
        pm, c2 = self._port_map(), self.gas.c2
        q, lam = y[: pm.n_cells.size], y[self.p_in - self.n_z]
        a = pm.coef * (q * np.abs(q))   # dx f q|q|
        disc = lam * lam - 2.0 * c2 * a
        first = (lam + np.sqrt(np.where(disc > 0, disc, np.nan))) / (2.0 * c2)
        d, s = first * first, -(2.0 * a / c2)
        return np.where((first > 0) & (d + (pm.n_cells - 1) * s > 0), d, np.nan), s

    def make_port_residual(self, inputs0):
        """R(y), the steady residual's mu_m and node rows at x(y) (`port_state`), unscaled.

        Each pipe's rows hold at x(y) to rounding, so R is the rest of the
        steady residual, bit for bit: K's rows over [y | u] plus the state
        terms, which read only each pipe's last two densities. One
        evaluation costs O(P + N), whatever the cell count.
        """
        pm, u, P = self._port_map(), self._input_vector(inputs0), len(self.pipes)
        n_y = P + len(self.node_order)

        def fun(y):
            d, s = self._port_march(y)
            p_out = self._extrapolate(np.sqrt(d + (pm.n_cells - 1) * s),
                                      np.sqrt(d + (pm.n_cells - 2) * s))
            F = pm.K.matvec(np.concatenate([y, u]), n_y)
            self._add_state_terms(F, p_out, y[:P], u, self.n_z)
            return F

        return fun

    def port_state(self, y):
        """x(y): every pipe's densities by `_port_march`, its momenta at q and mu_m at -q."""
        n_cells = self._port_map().n_cells
        d, s = self._port_march(y)
        cell = np.arange(self.bank.rho.size) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
        return self._state_at(y, np.sqrt(np.repeat(d, n_cells) + cell * np.repeat(s, n_cells)))

    def _state_at(self, y, rho):
        """x with densities rho, every pipe's momenta at its q and mu_m at -q, y's potentials."""
        P = len(self.pipes)
        x = np.empty(self.n)
        x[self.bank.rho] = rho
        x[self.bank.mom] = np.repeat(y[:P], self._port_map().n_cells)
        x[self.mu_m] = -y[:P]
        x[self.n_z + P:] = y[P:]
        return x


def assemble(spec: NetworkSpec) -> GlobalSystem:
    """Build the global DAE for a validated network description."""
    return GlobalSystem(spec)


def fuse_compressors(spec: NetworkSpec) -> NetworkSpec:
    """Replace every station by a plain junction (the no-compressor baseline).

    Each station's node pair collapses into a single internal node
    `<id>.junction`, so the adjacent pipes couple through ordinary pressure
    continuity and flow balance. The given spec must be valid (a
    ConfigurationError otherwise), so fusing never repairs a bad station.
    """
    require_valid(spec)
    nodes = [Node(nd.id, nd.kind) for nd in spec.nodes]
    pipes = [PipeEdge(pe.spec, pe.from_node, pe.to_node) for pe in spec.pipes]
    for st in spec.compressors:
        fused = f"{st.id}.junction"
        nodes = [nd for nd in nodes if nd.id not in (st.inlet_node, st.outlet_node)]
        nodes.append(Node(fused, NodeKind.JUNCTION))
        for pe in pipes:
            if pe.to_node == st.inlet_node:
                pe.to_node = fused
            if pe.from_node == st.outlet_node:
                pe.from_node = fused
    return NetworkSpec(spec.gas, nodes, pipes)
