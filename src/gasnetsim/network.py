"""Network topology and the assembled global DAE.

Unknown vector layout (length = sum(2 n_cells) + 2 * n_pipes + n_nodes):

    x = [ z | mu | lambda ]

    z       all pipe differential states, pipe by pipe (densities then momenta)
    mu      one input pair per pipe: (inlet pressure, minus outlet momentum)
    lambda  one pressure-valued potential per node, ordered boundary nodes
            first, then station end nodes (per station in declaration
            order, inlet before outlet), then the other junctions

Residual rows mirror it: row i pairs with unknown i.

    pipe rows:  W dz/dt - (J - R(z)) e(z) - B mu          (one per state)
    port rows:  at mu_p:  mu_p - lambda(from-node)
                at mu_m:  p_out(z) - lambda(to-node)
    node rows:  supply:   lambda - p_set(t)
                demand:   sum(outlet fluxes) - sum(inlet fluxes) - m_out(t)
                junction: the same balance with zero extraction
                station inlet node:   m_upstream - k(z) * m_downstream = 0
                station outlet node:  lambda - ratio * p_upstream(z)   (FC)
                                      lambda - p_set(t)                (FP)

All nonlinearity lives in e(z), the friction operator and the
state-dependent station couplings; the rows are linear in mu and lambda at
fixed z. The residual is a pure function of its arguments, so concurrent
evaluations (finite-difference Jacobian columns) are safe.

All pipes' rows come from one vectorized pass over the pipe bank
(`PipeBank`): flat index and weight arrays built once per system. The
stored energy, the friction power and the port powers of
`GlobalSystem.power_terms` read the same bank. Cell i of a pipe pairs
rho_i with the momentum m_i on its inlet-side interface:

    continuity   dx rho_i' + (s_i x[down_i] - m_i)      down = m_(i+1), or
                 mu_m with s = -1 at the last cell
    momentum     w_i m_i' + (c^2 rho_i - a_i x[up_i]) + w_i f_i
                 up = rho_(i-1) with a = c^2, or mu_p with a = 1 at the
                 inlet, where w = dx/2 (dx elsewhere)

Inputs are resolved once per closure into a vector u that is exactly
`input_ids`: the boundary nodes (`GlobalSystem.boundary`, which lead the
node order), then the stations. Every +-1 entry of the port, node and
station rows sits in one constant table, `GlobalSystem.coupling`, over
[x | u] (columns from n on index u; only a boundary node's row lists an
input, minus it first, then its links in attachment order). The residual,
the Jacobian pattern and the algebraic solve all read it. The station rows'
state terms (`GlobalSystem._add_state_terms`) apply the rules of
`compressor.VARIANTS` at p_upstream, the port-out rows' outlet pressure,
for the residual and the algebraic solve alike.

The Jacobian's pattern (`_pattern`) and segment labels (`_segments`) go to
`blocks`, which owns its coloring and block form (`jac_colors`).
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .blocks import Triplets, blockwise_pinv, color_columns, component_roots
from .compressor import VARIANTS, Assumption, Framework, Variant, station_power
from .errors import ConfigurationError, StateError, require_positive
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
    exactly one, and the two must differ.
    """
    out: list[Violation] = []
    ids = [nd.id for nd in spec.nodes]
    kind = {nd.id: nd.kind for nd in spec.nodes}
    if len(kind) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        out.append(Violation("duplicate-node", f"duplicate node ids: {dupes}"))

    pipe_ids = [pe.spec.id for pe in spec.pipes]
    if len(set(pipe_ids)) != len(pipe_ids):
        dupes = sorted({i for i in pipe_ids if pipe_ids.count(i) > 1})
        out.append(Violation("duplicate-pipe", f"duplicate pipe ids: {dupes}"))

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
    """Flat index and weight arrays over all pipes (layout: module docstring)."""

    rho: np.ndarray         # cell: density column (continuity row)
    mom: np.ndarray         # cell: momentum column (momentum row)
    down: np.ndarray        # cell: downstream momentum column
    down_sign: np.ndarray   # cell: +1, -1 where `down` is mu_m
    up: np.ndarray          # cell: upstream pressure source column
    up_scale: np.ndarray    # cell: c^2, 1 where `up` is mu_p
    prev: np.ndarray        # cell: position of the upstream cell (itself at the inlet)
    dx: np.ndarray          # cell: continuity weight
    w: np.ndarray           # cell: momentum weight
    fric: np.ndarray        # cell: friction coefficient lambda / (2 D)
    tail: np.ndarray        # pipe: density column of the last cell
    m_in: np.ndarray        # pipe: inlet momentum column


class _AlgebraicMap(NamedTuple):
    """M (the coupling's (mu, lambda) columns), its pseudo-inverse P, and the rest.

    Rows, and M's columns, are shifted to the algebraic block.
    """

    M: Triplets
    P: Triplets
    rest: Triplets


class GlobalSystem:
    """Assembled network DAE with residual, Jacobian pattern and diagnostics.

    x = [z | mu | lambda] (module docstring): z holds every pipe's densities
    then momenta, pipe by pipe; mu_p and mu_m (inlet pressure, minus outlet
    momentum) follow it, pipe by pipe, then one potential per node.
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
        self.mu_p = off + 2 * np.arange(P)
        self.mu_m = self.mu_p + 1
        self.bank = self._build_bank()
        # the cell-measure weights W of H and of the pipe rows
        self.energy_weights = np.empty(self.n_z)
        self.energy_weights[self.bank.rho] = self.bank.dx
        self.energy_weights[self.bank.mom] = self.bank.w
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
        self.lam = {nd.id: self.n_z + 2 * P + i for i, nd in enumerate(self.node_order)}
        self.n_alg = 2 * P + len(self.node_order)
        self.n = self.n_z + self.n_alg

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
            default = st.default_setpoint()
            if st.framework is Framework.FIXED_RATIO and default is not None and default < 1.0:
                warnings.warn(f"FC compressor {st.id!r} with ratio {default} < 1 acts as an "
                              "expander", stacklevel=2)
            self.stations.append(StationBinding(
                st.id, st.variant, default,
                up, down, len(self.boundary) + len(self.stations),
                self.lam[st.inlet_node], self.lam[st.outlet_node]))

        self.input_ids = [nd.id for nd in self.boundary] + [s.id for s in self.stations]
        self.coupling = self._build_coupling()

        # --- row kinds for residual scaling --------------------------
        kind = np.empty(self.n, dtype="U1")
        kind[self.bank.rho] = "m"   # mass rows carry momentum-flux units
        # momentum, port and pressure-rule rows carry pressure units
        kind[self.bank.mom] = kind[self.mu_p] = kind[self.mu_m] = "p"
        for nd in self.node_order:
            kind[self.lam[nd.id]] = "p" if nd.id in self.pressure_rule else "m"
        self.row_kind = kind

        self.references = (1.0, 1.0)   # (p_ref, m_ref), set before solving
        self._coloring = None
        self._names = None
        self._alg_map = None
        self._flows = None

    def _build_bank(self) -> PipeBank:
        n_cells = np.array([p.n_cells for p in self.pipes])
        rho = np.concatenate([np.arange(sl.start, sl.stop) for sl in self.rho_sl])
        mom = rho + np.repeat(n_cells, n_cells)
        first = np.cumsum(n_cells) - n_cells
        is_first = np.zeros(rho.size, dtype=bool)
        is_first[first] = True
        is_last = np.roll(is_first, -1)
        prev = np.arange(rho.size) - ~is_first   # a pipe's inlet cell is its own
        dx = np.repeat([p.length / p.n_cells for p in self.pipes], n_cells)
        return PipeBank(
            rho=rho, mom=mom,
            down=np.where(is_last, np.repeat(self.mu_m, n_cells), mom + 1),
            down_sign=np.where(is_last, -1.0, 1.0),
            up=np.where(is_first, np.repeat(self.mu_p, n_cells), rho[prev]),
            up_scale=np.where(is_first, 1.0, self.gas.c2),
            prev=prev, dx=dx, w=np.where(is_first, 0.5 * dx, dx),
            fric=np.repeat([p.friction / (2.0 * p.diameter) for p in self.pipes], n_cells),
            tail=rho[is_last], m_in=mom[is_first])

    def _build_coupling(self) -> Triplets:
        """The +-1 entries of the port, node and station rows over [x | u].

        Columns from n on index the input vector u. Within a row the entries
        keep their summation order: a boundary node's row lists minus its
        input first, then its links in attachment order.
        """
        n, lam = self.n, self.lam
        mu_p, mu_m, m_in = self.mu_p.tolist(), self.mu_m.tolist(), self.bank.m_in.tolist()
        ent = []
        for k, pe in enumerate(self.spec.pipes):
            ent += [(mu_p[k], mu_p[k], 1), (mu_p[k], lam[pe.from_node], -1),
                    (mu_m[k], lam[pe.to_node], -1)]
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
        return Triplets(rows, cols, vals.astype(float))

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
        """The coupling's rows, then every pipe's continuity and momentum rows.

        The differential rows carry the cell measures (dx, w), so their
        pairing with the efforts is the stored-energy rate.
        """
        b = self.bank
        F = self.coupling.matvec(np.concatenate([x, u]), self.n)
        rho, mom = x[b.rho], x[b.mom]
        pres = self.gas.c2 * rho
        F[b.rho] = b.dx * zdot[b.rho] + (b.down_sign * x[b.down] - mom)
        F[b.mom] = (b.w * zdot[b.mom] + (pres - b.up_scale * x[b.up])
                    + b.w * self._friction(rho, mom))
        self._add_state_terms(F, x, u, 0)
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
        c2, tail = self.gas.c2, self.bank.tail
        return 1.5 * (c2 * x[tail]) - 0.5 * (c2 * x[tail - 1])

    def _add_state_terms(self, F, z, u, base):
        """Add +p_out to the port-out rows, -k m_down and -p_st to the station rows.

        Row 0 of F is the system's row `base`. Each station applies its
        variant's rules (`compressor.VARIANTS`) to its upstream pipe's outlet
        pressure and its setpoint in u; a plain loop beats array code for the
        few stations a network has.
        """
        p_out = self._outlet_pressures(z)
        F[self.mu_m - base] += p_out
        m_in, kappa = self.bank.m_in, self.gas.isentropic_exponent
        for s in self.stations:
            sp, p = u[s.input], p_out[s.pipe_up]
            F[s.row_in - base] -= s.variant.factor(sp, p, kappa) * z[m_in[s.pipe_down]]
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
        """Structural (row, col) couplings of the residual, both solve modes."""
        b, c = self.bank, self.coupling
        on_x = c.cols < self.n
        pairs = [(b.rho, b.rho), (b.rho, b.mom), (b.rho, b.down),
                 (b.mom, b.mom), (b.mom, b.up), (b.mom, b.rho),
                 (c.rows[on_x], c.cols[on_x]), (self.mu_m, b.tail), (self.mu_m, b.tail - 1)]
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
        the momentum after it, or the pipe's mu_p and mu_m), so with the cut
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
        """The coupling split at the algebraic columns, with M's pseudo-inverse.

        M, the port/node rows' matrix in (mu, lambda), is constant, so all
        of it is built once per system; only the rest's values depend on z
        and the inputs. M falls apart into small blocks (a port pair, a node
        with its links, a station), so the pseudo-inverse is taken block by
        block (`blockwise_pinv`) and kept as triplets. The cutoff is
        lstsq's, max(shape) * eps, so a singular matrix (pipes merging at a
        junction) gets the minimum-norm correction.
        """
        if self._alg_map is None:
            na, base, c = self.n_alg, self.n_z, self.coupling
            alg = (c.cols >= base) & (c.cols < self.n)
            M = Triplets(c.rows[alg] - base, c.cols[alg] - base, c.vals[alg])
            self._alg_map = _AlgebraicMap(
                M, blockwise_pinv(M, na, na * np.finfo(float).eps),
                Triplets(c.rows[~alg] - base, c.cols[~alg], c.vals[~alg]))
        return self._alg_map

    def algebraic_solve(self, z, inputs, anchor=None):
        """Solve the port/node rows for (mu, lambda) at a frozen state z.

        The rows are linear in the algebraic unknowns with a constant matrix;
        its pseudo-inverse gives the coupling-consistent port values used for
        records and for consistent-state construction. Topologies where the
        frozen-state rows alone do not pin every unknown (a junction feeding
        from several pipe outlets splits the flux through the dynamics, not
        the state) are resolved toward `anchor`: the returned values are the
        consistent point closest to the anchored algebraic variables.
        """
        z = np.asarray(z, float)
        u = self._input_vector(inputs)
        a, na = self._algebraic_map(), self.n_alg
        anchored = np.zeros(na) if anchor is None else np.asarray(anchor, float)[-na:]
        # the rows at zero (mu, lambda): M (mu, lambda) = -F0
        F0 = a.rest.matvec(np.concatenate([z, anchored, u]), na)
        self._add_state_terms(F0, z, u, self.n_z)
        alg = anchored + a.P.matvec(-F0 - a.M.matvec(anchored, na), na)
        return np.concatenate([z, alg])

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

    def snapshot(self, z, inputs, anchor=None):
        """(record row in `record_names` order, consistent unknowns) at state z."""
        x = self.algebraic_solve(z, inputs, anchor)
        return self._records(x, self._input_vector(inputs)), x

    def _records(self, x, u):
        """Port pressures/momenta, total energy and station powers at x = [z | mu ...]."""
        b = self.bank
        z = x[: self.n_z]
        p_out = self._outlet_pressures(z)
        kappa = self.gas.isentropic_exponent
        powers = [station_power(s.variant, kappa, u[s.input], p_out[s.pipe_up],
                                z[b.m_in[s.pipe_down]])
                  for s in self.stations]
        return np.concatenate([
            np.column_stack([x[self.mu_p], z[b.m_in], p_out, -x[self.mu_m]]).ravel(),
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
        power = np.concatenate([x[self.mu_p] * z[b.m_in], self.gas.c2 * z[b.tail] * x[self.mu_m]])
        parts = {name: math.fsum(power[ports == i].tolist())
                 for i, name in enumerate(("boundary", "compressor", "internal"))}
        mom = z[b.mom]
        parts["dissipation"] = float(np.dot(b.w * self._friction(z[b.rho], mom), mom))
        parts["rate"] = self.energy_rate(z, self.zdot_consistent(x, inputs))
        return parts

    def net_mass_influx(self, z_mid, x_new):
        """Net mass inflow rate into all pipes: sum of m(0) + mu_m per pipe.

        This is exactly what the continuity rows telescope to, so evaluated
        at the midpoint state and algebraic values the cumulative ledger
        closes to solver precision. Junction and constant-momentum station
        exchanges cancel inside the sum; only boundary feeds/extractions and
        constant-velocity station injections remain.
        """
        return float(np.sum(z_mid[self.bank.m_in] + x_new[self.mu_m]))

    # ------------------------------------------------------------------

    def _flow_map(self):
        """(G, pipe of each cell): the Kirchhoff flows q = G u at the input vector u.

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
            self._flows = (At @ np.linalg.solve(laplacian, rhs),
                           np.searchsorted(self.bank.tail, self.bank.rho))
        return self._flows

    def initial_guess(self, inputs0):
        """Kirchhoff flow start: supply density and potentials, linear-resistance flows.

        Densities, inlet pressures and node potentials start at the first
        supply's pressure. Every pipe's momenta and its -mu_m start at its
        Kirchhoff flow (`_flow_map`), which meets every demand and junction
        balance with the stations taken as plain junctions. Where a pipe's
        flow is below 1 in magnitude (no demand, demands that cancel, or a
        loop that carries none) it starts at 1 instead: at zero flow the
        steady rows lose their friction slope, so the Jacobian is singular
        on a loop or on a path between two supplies.
        """
        u = self._input_vector(inputs0)
        p_ref, _ = self.reference_levels(inputs0)
        G, cell_pipe = self._flow_map()
        q = G @ u
        q[np.abs(q) < 1.0] = 1.0
        x = np.empty(self.n)
        x[self.bank.rho] = p_ref / self.gas.c2
        x[self.bank.mom] = q[cell_pipe]
        x[self.mu_p] = p_ref
        x[self.mu_m] = -q
        x[self.n - len(self.node_order):] = p_ref   # node potentials
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
