"""Network topology and the assembled global DAE.

Unknown vector layout (length = sum(2 n_cells) + 2 * n_pipes + n_nodes):

    x = [ z | mu | lambda ]

    z       all pipe differential states, pipe by pipe (densities then momenta)
    mu      one input pair per pipe: (inlet pressure, minus outlet momentum)
    lambda  one pressure-valued potential per node, ordered boundary nodes
            first, then compressor nodes (inlet before outlet per station),
            then internal nodes

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

Inputs are resolved once per closure into a vector u in `input_ids` order
(boundary ids, then station ids). Every +-1 entry of the port, node and
station rows sits in one constant table, `GlobalSystem.coupling`, over
[x | u] (columns from n on index u; a node row lists minus its input
first, then its links in attachment order). The residual, the Jacobian
pattern and the algebraic solve all read it. The station rows' state terms
(`GlobalSystem._add_state_terms`) apply the rules of `compressor.VARIANTS`
at p_upstream, the port-out rows' outlet pressure, for the residual and the
algebraic solve alike.

A pipe's rows read only its own cells and its two port unknowns, so the
Jacobian is block diagonal over pipe segments once every pipe is cut into
segments of at most SEGMENT_CELLS cells separated by single cut cells
(`GlobalSystem._segments`); the cut cells and the algebraic unknowns form
the border. `block_layout` maps every structural nonzero into that form
once per system, beside the column coloring (`jac_colors`).
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .compressor import VARIANTS, Assumption, CompressorModel, Framework, Variant
from .errors import ConfigurationError, StateError, require_positive
from .gas import GasProperties
from .pipe import PipeSpec, PipeSystem, discretize_pipe

# the Jacobian's block layout cuts every pipe into segments of at most this many cells
SEGMENT_CELLS = 16


class NodeKind(str, Enum):
    SUPPLY = "supply"
    DEMAND = "demand"
    JUNCTION = "junction"
    COMPRESSOR_IN = "compressor-in"
    COMPRESSOR_OUT = "compressor-out"


BOUNDARY_KINDS = (NodeKind.SUPPLY, NodeKind.DEMAND)
COMPRESSOR_KINDS = (NodeKind.COMPRESSOR_IN, NodeKind.COMPRESSOR_OUT)


@dataclass
class Node:
    id: str
    kind: NodeKind
    compressor_id: str | None = None


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

    def model(self, kappa: float) -> CompressorModel:
        setpoint = self.default_setpoint()
        if setpoint is None:
            setpoint = 1.0  # placeholder; the bound scenario profile governs
        return CompressorModel(self.framework, self.assumption, setpoint, kappa)


@dataclass
class NetworkSpec:
    gas: GasProperties
    nodes: list[Node]
    pipes: list[PipeEdge]
    compressors: list[CompressorStation] = field(default_factory=list)

    def node_by_id(self, nid: str) -> Node:
        for nd in self.nodes:
            if nd.id == nid:
                return nd
        raise ConfigurationError(f"unknown node id {nid!r}")


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
    """Check all structural invariants; returns a report, never raises."""
    out: list[Violation] = []
    ids = [nd.id for nd in spec.nodes]
    known = set(ids)
    if len(known) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        out.append(Violation("duplicate-node", f"duplicate node ids: {dupes}"))

    pipe_ids = [pe.spec.id for pe in spec.pipes]
    if len(set(pipe_ids)) != len(pipe_ids):
        dupes = sorted({i for i in pipe_ids if pipe_ids.count(i) > 1})
        out.append(Violation("duplicate-pipe", f"duplicate pipe ids: {dupes}"))

    for pe in spec.pipes:
        for end in (pe.from_node, pe.to_node):
            if end not in known:
                out.append(Violation(
                    "unknown-node",
                    f"pipe {pe.spec.id!r} references undeclared node {end!r}"))

    out_degree = {nid: 0 for nid in known}   # pipe inlets attached (from)
    in_degree = {nid: 0 for nid in known}    # pipe outlets attached (to)
    for pe in spec.pipes:
        if pe.from_node in known:
            out_degree[pe.from_node] += 1
        if pe.to_node in known:
            in_degree[pe.to_node] += 1

    comp_nodes = {}
    for st in spec.compressors:
        for nid, want in ((st.inlet_node, NodeKind.COMPRESSOR_IN),
                          (st.outlet_node, NodeKind.COMPRESSOR_OUT)):
            if nid not in known:
                out.append(Violation(
                    "unknown-node",
                    f"compressor {st.id!r} references undeclared node {nid!r}"))
                continue
            nd = spec.node_by_id(nid)
            if nd.kind is not want:
                out.append(Violation(
                    "compressor-node-kind",
                    f"compressor {st.id!r}: node {nid!r} has kind {nd.kind.value}, "
                    f"expected {want.value}"))
            if nid in comp_nodes:
                out.append(Violation(
                    "compressor-node-shared",
                    f"node {nid!r} belongs to compressors {comp_nodes[nid]!r} and {st.id!r}"))
            comp_nodes[nid] = st.id
        if st.inlet_node == st.outlet_node:
            out.append(Violation(
                "compressor-degenerate",
                f"compressor {st.id!r} has identical end nodes"))

    for nd in spec.nodes:
        deg = out_degree.get(nd.id, 0) + in_degree.get(nd.id, 0)
        if nd.kind in COMPRESSOR_KINDS:
            if deg != 1:
                out.append(Violation(
                    "compressor-end-degree",
                    f"compressor end node {nd.id!r} has degree {deg}, expected 1"))
            elif nd.kind is NodeKind.COMPRESSOR_IN and in_degree[nd.id] != 1:
                out.append(Violation(
                    "compressor-end-orientation",
                    f"compressor inlet node {nd.id!r} must terminate a pipe"))
            elif nd.kind is NodeKind.COMPRESSOR_OUT and out_degree[nd.id] != 1:
                out.append(Violation(
                    "compressor-end-orientation",
                    f"compressor outlet node {nd.id!r} must start a pipe"))
            if nd.compressor_id is None or nd.id not in comp_nodes:
                out.append(Violation(
                    "compressor-node-unbound",
                    f"node {nd.id!r} is a compressor end but no station references it"))
        elif nd.kind in BOUNDARY_KINDS and deg < 1:
            out.append(Violation(
                "dangling-boundary",
                f"{nd.kind.value} node {nd.id!r} has no attached pipe"))

    if not any(nd.kind is NodeKind.SUPPLY for nd in spec.nodes):
        out.append(Violation("no-pressure-reference",
                             "network has no supply (pressure-specified) node"))

    # connectivity over pipes and compressor links
    if known and not out:
        roots = set(_component_roots(
            known, [(pe.from_node, pe.to_node) for pe in spec.pipes]
            + [(st.inlet_node, st.outlet_node) for st in spec.compressors]))
        if len(roots) > 1:
            out.append(Violation("disconnected",
                                 f"network splits into {len(roots)} components"))

    return ValidationReport(out)


def _component_roots(items, links):
    """Union-find: the root of each item's component, joining the pairs in `links`."""
    parent = {a: a for a in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        parent[find(a)] = find(b)
    return [find(a) for a in parent]


def _node_classes(spec: NetworkSpec):
    boundary = [nd for nd in spec.nodes if nd.kind in BOUNDARY_KINDS]
    compressor = [nd for nd in spec.nodes if nd.kind in COMPRESSOR_KINDS]
    internal = [nd for nd in spec.nodes if nd.kind is NodeKind.JUNCTION]
    return boundary, compressor, internal


class StationBinding(NamedTuple):
    """One station as the system binds it: its model, pipes, input and rows.

    The momentum rule reads the downstream pipe's inlet momentum,
    `bank.m_in[pipe_down]`.
    """

    id: str
    model: CompressorModel
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


class Triplets(NamedTuple):
    """A sparse matrix as (row, column, value) entries; duplicates add, in listed order."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def matvec(self, v, n_rows):
        return np.bincount(self.rows, weights=self.vals * v[self.cols], minlength=n_rows)


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

    def __init__(self, spec: NetworkSpec, n_cells_override: int | None = None):
        report = validate_topology(spec)
        if not report.ok:
            raise ConfigurationError(f"invalid network:\n{report}")
        self.spec = spec
        self.gas = spec.gas
        self.pipes: list[PipeSystem] = []
        for pe in spec.pipes:
            ps = pe.spec
            if n_cells_override is not None:
                ps = PipeSpec(ps.id, ps.length, ps.diameter, ps.friction, n_cells_override)
            self.pipes.append(discretize_pipe(ps, spec.gas))

        # --- unknown layout ------------------------------------------
        self.rho_sl, self.mom_sl = [], []
        off = 0
        for p in self.pipes:
            self.rho_sl.append(slice(off, off + p.n))
            self.mom_sl.append(slice(off + p.n, off + 2 * p.n))
            off += 2 * p.n
        self.n_z = off
        P = len(self.pipes)
        self.mu_p = off + 2 * np.arange(P)
        self.mu_m = self.mu_p + 1
        # energy weights over the differential states
        self.energy_weights = np.concatenate([p.weights for p in self.pipes])
        self.bank = self._build_bank()
        boundary, compressor, internal = _node_classes(spec)
        self.node_order = boundary + compressor + internal
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
        self.boundary_inputs = [(nd.id, "pressure" if nd.kind is NodeKind.SUPPLY else "momentum")
                                for nd in self.node_order if nd.kind in BOUNDARY_KINDS]
        self.stations: list[StationBinding] = []
        for st in spec.compressors:
            up = next(k for k, isout in self.attached[st.inlet_node] if isout)
            down = next(k for k, isout in self.attached[st.outlet_node] if not isout)
            self.stations.append(StationBinding(
                st.id, st.model(spec.gas.isentropic_exponent), st.default_setpoint(),
                up, down, len(self.boundary_inputs) + len(self.stations),
                self.lam[st.inlet_node], self.lam[st.outlet_node]))

        self.input_ids = [key for key, _ in self.boundary_inputs] + [s.id for s in self.stations]
        self.coupling = self._build_coupling()

        # --- row kinds for residual scaling --------------------------
        kind = np.empty(self.n, dtype="U1")
        kind[self.bank.rho] = "m"   # mass rows carry momentum-flux units
        # momentum, port and pressure-rule rows carry pressure units
        kind[self.bank.mom] = kind[self.mu_p] = kind[self.mu_m] = "p"
        for nd in self.node_order:
            pressure_rule = nd.kind in (NodeKind.SUPPLY, NodeKind.COMPRESSOR_OUT)
            kind[self.lam[nd.id]] = "p" if pressure_rule else "m"
        self.row_kind = kind

        self.references = (1.0, 1.0)   # (p_ref, m_ref), set before solving
        self._colors = None
        self._names = None
        self._alg_map = None

    def _build_bank(self) -> PipeBank:
        n_cells = np.array([p.n for p in self.pipes])
        rho = np.concatenate([np.arange(sl.start, sl.stop) for sl in self.rho_sl])
        mom = rho + np.repeat(n_cells, n_cells)
        first = np.cumsum(n_cells) - n_cells
        is_first = np.zeros(rho.size, dtype=bool)
        is_first[first] = True
        is_last = np.roll(is_first, -1)
        prev = np.arange(rho.size) - ~is_first   # a pipe's inlet cell is its own
        dx = np.repeat([p.dx for p in self.pipes], n_cells)
        return PipeBank(
            rho=rho, mom=mom,
            down=np.where(is_last, np.repeat(self.mu_m, n_cells), mom + 1),
            down_sign=np.where(is_last, -1.0, 1.0),
            up=np.where(is_first, np.repeat(self.mu_p, n_cells), rho[prev]),
            up_scale=np.where(is_first, 1.0, self.gas.c2),
            prev=prev, dx=dx, w=np.where(is_first, 0.5 * dx, dx),
            fric=np.repeat([p.fric_coef for p in self.pipes], n_cells),
            tail=rho[is_last], m_in=mom[is_first])

    def _build_coupling(self) -> Triplets:
        """The +-1 entries of the port, node and station rows over [x | u].

        Columns from n on index the input vector u. Within a row the entries
        keep their summation order: a node row lists minus its input first,
        then its links in attachment order.
        """
        n, lam = self.n, self.lam
        mu_p, mu_m, m_in = self.mu_p.tolist(), self.mu_m.tolist(), self.bank.m_in.tolist()
        slot = {key: n + i for i, (key, _) in enumerate(self.boundary_inputs)}
        zero = n + len(self.input_ids)   # the trailing 0 of the input vector
        ent = []
        for k, pe in enumerate(self.spec.pipes):
            ent += [(mu_p[k], mu_p[k], 1), (mu_p[k], lam[pe.from_node], -1),
                    (mu_m[k], lam[pe.to_node], -1)]
        for nd in self.node_order:
            r = lam[nd.id]
            if nd.kind not in COMPRESSOR_KINDS:
                ent.append((r, slot.get(nd.id, zero), -1))
            if nd.kind in (NodeKind.SUPPLY, NodeKind.COMPRESSOR_OUT):
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
        """Sampled inputs (a mapping) in `input_ids` order, then 0 for junction balances."""
        if not isinstance(inputs, Mapping):
            raise ConfigurationError(
                f"inputs must map input ids to sampled values, got {type(inputs).__name__}")
        try:
            return np.array([inputs[key] for key in self.input_ids] + [0.0], dtype=float)
        except KeyError as exc:
            raise ConfigurationError(f"missing input value for {exc}") from exc

    def residual(self, x, zdot, inputs):
        """DAE residual F(x, dz/dt) at one time; `inputs` maps ids to sampled values.

        Pure function; differential rows carry the cell-measure weights so
        that the effort pairing of the differential block is the exact
        stored-energy rate.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise StateError("non-finite values in unknown vector")
        return self._residual_core(x, np.asarray(zdot, dtype=float),
                                   self._input_vector(inputs))

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
        """The coupling's rows, then every pipe's continuity and momentum rows."""
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
        m_in = self.bank.m_in
        for s in self.stations:
            sp, p = u[s.input], p_out[s.pipe_up]
            F[s.row_in - base] -= s.model.inlet_match_factor(sp, p) * z[m_in[s.pipe_down]]
            F[s.row_out - base] -= s.model.outlet_pressure(sp, p)

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
            for row, reads in zip((s.row_in, s.row_out), s.model.variant.reads_inlet):
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
        n_cells = np.array([p.n for p in self.pipes])
        n_seg = -(-(n_cells + 1) // (SEGMENT_CELLS + 1))
        slots, s = np.repeat(n_cells + 1, n_cells), np.repeat(n_seg, n_cells)
        cell = np.arange(slots.size) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
        j = ((cell + 1) * s - 1) // slots             # the segment, or the one a cut ends
        cut = (j + 1) * slots // s == cell + 1       # never the last cell
        label = np.where(cut, -1, np.repeat(np.cumsum(n_seg) - n_seg, n_cells) + j)
        segment = np.full(self.n, -1)
        segment[self.bank.rho] = segment[self.bank.mom] = label
        names = [f"pipe {p.spec.id!r} cells {j * (p.n + 1) // s}-{(j + 1) * (p.n + 1) // s - 2}"
                 for p, s in zip(self.pipes, n_seg.tolist()) for j in range(s)]
        return segment, names

    def jac_colors(self):
        """Column groups for one-sweep finite-difference Jacobians, with the
        pipe-segment block layout."""
        if self._colors is None:
            self._colors = color_columns(self._pattern(), self.n, self.n, self._segments())
        return self._colors

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
                pid = p.spec.id
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
        powers = [s.model.power(u[s.input], p_out[s.pipe_up], z[b.m_in[s.pipe_down]])
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
        positive = z[self.bank.rho] > 0.0
        if not positive.all():
            k = int(np.searchsorted(self.bank.tail, self.bank.rho[np.argmin(positive)]))
            raise StateError(
                f"non-positive density in pipe {self.pipes[k].spec.id!r} at t={t}")

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
        bucket = {nd.id: 0 if nd.kind in BOUNDARY_KINDS else 1 if nd.kind in COMPRESSOR_KINDS
                  else 2 for nd in self.node_order}
        ports = [bucket[pe.from_node] for pe in pipes] + [bucket[pe.to_node] for pe in pipes]
        # inlet: p_in m(0); outlet: the conjugate pressure times minus the flux -mu_m
        power = np.concatenate([x[self.mu_p] * z[b.m_in], self.gas.c2 * z[b.tail] * x[self.mu_m]])
        sums = np.bincount(ports, weights=power, minlength=3).tolist()
        parts = dict(zip(("boundary", "compressor", "internal"), sums))
        mom = z[b.mom]
        parts["dissipation"] = float(np.dot(b.w * self._friction(z[b.rho], mom), mom))
        parts["rate"] = self.energy_rate(z, self.zdot_consistent(x, inputs))
        return parts

    def net_mass_influx(self, z_mid, x_new, inputs_mid):
        """Net mass inflow rate into all pipes: sum of m(0) + mu_m per pipe.

        This is exactly what the continuity rows telescope to, so evaluated
        at the midpoint state and algebraic values the cumulative ledger
        closes to solver precision. Junction and constant-momentum station
        exchanges cancel inside the sum; only boundary feeds/extractions and
        constant-velocity station injections remain.
        """
        return float(np.sum(z_mid[self.bank.m_in] + x_new[self.mu_m]))

    # ------------------------------------------------------------------

    def initial_guess(self, inputs0):
        """Flat initialization: supply density, net-demand momentum, supply potentials."""
        u = self._input_vector(inputs0)
        kinds = [kind for _, kind in self.boundary_inputs]
        p_ref = u[kinds.index("pressure")]
        m_est = sum(u[i] for i, kind in enumerate(kinds) if kind == "momentum")
        x = np.empty(self.n)
        x[self.bank.rho] = p_ref / self.gas.c2
        x[self.bank.mom] = m_est
        x[self.mu_p] = p_ref
        x[self.mu_m] = -m_est
        x[self.n - len(self.node_order):] = p_ref   # node potentials
        return x


def assemble(spec: NetworkSpec, n_cells_override: int | None = None) -> GlobalSystem:
    """Build the global DAE for a validated network description."""
    return GlobalSystem(spec, n_cells_override)


def fuse_compressors(spec: NetworkSpec, ids=None) -> NetworkSpec:
    """Replace stations by plain junctions (the no-compressor baseline).

    Each station's node pair collapses into a single internal node, so the
    adjacent pipes couple through ordinary pressure continuity and flow
    balance.
    """
    keep = set(ids) if ids is not None else {st.id for st in spec.compressors}
    nodes = [Node(nd.id, nd.kind, nd.compressor_id) for nd in spec.nodes]
    pipes = [PipeEdge(pe.spec, pe.from_node, pe.to_node) for pe in spec.pipes]
    comps = []
    for st in spec.compressors:
        if st.id not in keep:
            comps.append(st)
            continue
        fused = f"{st.id}.junction"
        nodes = [nd for nd in nodes if nd.id not in (st.inlet_node, st.outlet_node)]
        nodes.append(Node(fused, NodeKind.JUNCTION))
        for pe in pipes:
            if pe.to_node == st.inlet_node:
                pe.to_node = fused
            if pe.from_node == st.outlet_node:
                pe.from_node = fused
    return NetworkSpec(spec.gas, nodes, pipes, comps)


def _places(block):
    """Each item's place among the items of its block, in index order."""
    order = np.argsort(block, kind="stable")
    ranked = block[order]
    place = np.empty_like(block)
    place[order] = np.arange(block.size) - np.searchsorted(ranked, ranked)
    return place


class ShapeGroup(NamedTuple):
    """The blocks of one shape of a block-sparse matrix (`stack_by_shape`)."""

    blocks: np.ndarray      # (k,): the blocks' ids, ascending
    R: np.ndarray           # (k, nr): each block's rows, by place
    C: np.ndarray           # (k, nc): each block's columns, by place
    entry: np.ndarray       # the entries inside these blocks ...
    at: np.ndarray          # ... and their flat positions in a (k, nr, nc) stack


def stack_by_shape(row_block, row_place, col_block, col_place, rows, cols) -> list[ShapeGroup]:
    """Group the blocks of a sparse matrix by shape, for stacked numpy calls.

    Row i sits at place ``row_place[i]`` of block ``row_block[i]``, column j
    at place ``col_place[j]`` of block ``col_block[j]``; block -1 holds the
    rows and columns outside every block. An entry (rows[e], cols[e]) whose
    row lies in a block belongs to that block, and its column must lie in
    the same block; entries of rows outside every block are left out, and
    so are blocks without rows or without columns. The blocks of one shape
    scatter into one (k, nr, nc) array through ``at``.
    """
    n_blocks = int(max(row_block.max(initial=-1), col_block.max(initial=-1))) + 1
    shape = np.column_stack([np.bincount(row_block[row_block >= 0], minlength=n_blocks),
                             np.bincount(col_block[col_block >= 0], minlength=n_blocks)])
    inside = row_block[rows] >= 0
    if np.any(col_block[cols[inside]] != row_block[rows[inside]]):
        raise ValueError("an entry couples two blocks")
    key = shape[:, 0] * (shape[:, 1].max(initial=0) + 1) + shape[:, 1]
    out = []
    for kind in np.unique(key[shape.min(axis=1) > 0]).tolist():
        blocks = np.flatnonzero(key == kind)
        nr, nc = shape[blocks[0]].tolist()
        rank = np.full(n_blocks + 1, -1)   # the trailing -1 serves block -1
        rank[blocks] = np.arange(blocks.size)
        r_rank, c_rank = rank[row_block], rank[col_block]
        R = np.empty((blocks.size, nr), dtype=int)
        i = np.flatnonzero(r_rank >= 0)
        R[r_rank[i], row_place[i]] = i
        C = np.empty((blocks.size, nc), dtype=int)
        j = np.flatnonzero(c_rank >= 0)
        C[c_rank[j], col_place[j]] = j
        e = np.flatnonzero(r_rank[rows] >= 0)
        at = (r_rank[rows[e]] * nr + row_place[rows[e]]) * nc + col_place[cols[e]]
        out.append(ShapeGroup(blocks, R, C, e, at))
    return out


def blockwise_pinv(M: Triplets, n: int, rcond: float) -> Triplets:
    """Pseudo-inverse of a sparse n x n matrix, block by block, as triplets.

    The blocks are the connected components of the graph joining each row
    to the columns it has entries in. Permuted to block-diagonal form, the
    matrix's pseudo-inverse is the block-diagonal of the blocks'
    pseudo-inverses, so nothing n x n is formed. Blocks of one shape go
    through one stacked ``np.linalg.pinv`` with cutoff ``rcond`` each.
    Rows or columns without entries belong to no block and map to zero.
    The components come from a union-find, not scipy's csgraph, because
    systems below the sparse threshold never import scipy.
    """
    # rows 0..n-1, columns n..2n-1
    roots = _component_roots(range(2 * n), zip(M.rows.tolist(), (n + M.cols).tolist()))
    block = np.unique(roots, return_inverse=True)[1]
    row_block, col_block = block[:n], block[n:]
    out = []
    for g in stack_by_shape(row_block, _places(row_block), col_block, _places(col_block),
                            M.rows, M.cols):
        k, nr = g.R.shape
        stack = np.zeros(k * nr * g.C.shape[1])
        np.add.at(stack, g.at, M.vals[g.entry])
        inv = np.linalg.pinv(stack.reshape(k, nr, -1), rcond)   # (k, nc, nr)
        keep = inv != 0.0
        out.append((np.broadcast_to(g.C[:, :, None], inv.shape)[keep],
                    np.broadcast_to(g.R[:, None, :], inv.shape)[keep], inv[keep]))
    if not out:
        return Triplets(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    return Triplets(*(np.concatenate(parts) for parts in zip(*out)))


class SegmentGroup(NamedTuple):
    """Segment blocks of one shape and their couplings to the border.

    ``stack`` stacks each block's rows as [A | B]: its columns are the
    block's own unknowns (the same as its rows) and then its ports, the
    border columns its rows read. C, the border rows' entries in the
    blocks' columns, is kept as entries.
    """

    stack: ShapeGroup
    ports: np.ndarray       # (k, p): the ports' places on the border
    c_entry: np.ndarray     # C's entries ...
    c_row: np.ndarray       # ... their rows' places on the border ...
    c_col: np.ndarray       # ... their columns' flat places in a (k, L) array ...
    c_S: np.ndarray         # ... and, per port p of that block, the flat place of (row, p) in S


class BlockLayout(NamedTuple):
    """Where each structural Jacobian entry goes in the bordered block form.

    Ordered as segments then border, the Jacobian is [[A, B], [C, D]] with A
    block diagonal over the segments (one ``SegmentGroup`` per block shape)
    and D the border block; the factor inverts A by blocks and then the
    border's Schur complement S = D - C A^-1 B (``timeloop.BlockFactor``).
    """

    border: np.ndarray      # the border's unknowns, ascending
    groups: list[SegmentGroup]
    d_entry: np.ndarray     # D's entries ...
    d_at: np.ndarray        # ... and their flat places in the (nb, nb) border block
    names: list[str]        # per segment, for error messages


def block_layout(rows, cols, n, segments=None) -> BlockLayout:
    """The index maps of the bordered block form of a square n x n pattern.

    ``segments`` is (segment, names): ``segment[i]`` is unknown i's
    segment, -1 on the border, and row i belongs with unknown i. Every
    entry between two segments must be zero, so segments couple only
    through the border. Without ``segments`` the whole system is one block
    with an empty border.
    """
    segment, names = segments if segments is not None else (np.zeros(n, dtype=int),
                                                            ["the system"])
    border = np.flatnonzero(segment < 0)
    place = _places(segment)     # in its segment, or on the border
    size = np.bincount(segment[segment >= 0], minlength=len(names))
    row_seg, col_seg = segment[rows], segment[cols]
    port = (row_seg >= 0) & (col_seg < 0)
    p_seg, p_col = np.divmod(np.unique(row_seg[port] * segment.size + cols[port]), segment.size)
    col_block, col_place = segment.copy(), place.copy()
    col_block[p_col] = p_seg
    col_place[p_col] = size[p_seg] + np.arange(p_seg.size) - np.searchsorted(p_seg, p_seg)
    on_border = row_seg < 0
    stacks = stack_by_shape(segment, place, col_block, col_place, rows, cols)
    group, rank = np.full(len(names) + 1, -1), np.full(len(names) + 1, -1)
    for i, g in enumerate(stacks):
        group[g.blocks], rank[g.blocks] = i, np.arange(g.blocks.size)
    c_all = np.flatnonzero(on_border & (col_seg >= 0))
    groups = []
    for i, g in enumerate(stacks):
        L = g.R.shape[1]
        ports = place[g.C[:, L:]]
        c = c_all[group[col_seg[c_all]] == i]
        k = rank[col_seg[c]]
        c_row = place[rows[c]]
        groups.append(SegmentGroup(g, ports, c, c_row, k * L + place[cols[c]],
                                   c_row[:, None] * border.size + ports[k]))
    d = np.flatnonzero(on_border & (col_seg < 0))
    return BlockLayout(border, groups, d, place[rows[d]] * border.size + place[cols[d]], names)


class ColumnColoring(NamedTuple):
    """Column groups for one-sweep finite-difference Jacobians.

    ``groups[c]`` lists the columns of color c (no two share a residual
    row). ``rows``, ``cols`` and ``color`` flatten the structural nonzeros
    column by column (CSC order): entry i sits at (rows[i], cols[i]) and is
    read from the sweep of color ``color[i]``. Column j's entries are
    ``indptr[j]:indptr[j + 1]``, so ``(values, rows, indptr)`` is a CSC
    matrix as it stands, and ``layout`` maps the same values into the
    bordered block form.

    ``factor`` is a one-slot list: the sparse Newton path keeps its last
    SuperLU factor there for chord steps (``timeloop.newton_solve``), so the
    factor lives as long as the system that caches this coloring.
    """

    groups: list[np.ndarray]
    rows: np.ndarray
    cols: np.ndarray
    color: np.ndarray
    indptr: np.ndarray
    factor: list
    layout: BlockLayout


def color_columns(pattern, n_rows, n_cols, segments=None) -> ColumnColoring:
    """Greedy structural coloring: same-color columns share no residual row.

    Columns are taken by descending row count, each into the first color
    whose rows it does not touch. A column's rows, and a color's, are held
    as the bits of a Python int, so the overlap test is one ``&``; a
    column's int is built when its turn comes, so only the colors' ints
    stay alive.
    ``segments`` goes to `block_layout`; without it the layout is one block.
    """
    ent = np.array(pattern, dtype=int).reshape(-1, 2)
    cols, rows = np.divmod(np.unique(ent[:, 1] * n_rows + ent[:, 0]), n_rows)
    indptr = np.searchsorted(cols, np.arange(n_cols + 1))
    rows_l, ptr = rows.tolist(), indptr.tolist()
    colors: list[list[int]] = []
    occupied: list[int] = []
    color_of_col = np.empty(n_cols, dtype=int)
    for c in sorted(range(n_cols), key=lambda c: ptr[c] - ptr[c + 1]):
        bits = 0
        for r in rows_l[ptr[c]:ptr[c + 1]]:
            bits |= 1 << r
        for ci, occ in enumerate(occupied):
            if not occ & bits:
                colors[ci].append(c)
                occupied[ci] = occ | bits
                break
        else:
            ci = len(colors)
            occupied.append(bits)
            colors.append([c])
        color_of_col[c] = ci
    return ColumnColoring([np.array(sorted(cs), dtype=int) for cs in colors],
                          rows, cols, color_of_col[cols], indptr, [None],
                          block_layout(rows, cols, n_cols, segments))
