"""Network topology, incidence matrices, and the assembled global DAE.

Unknown vector layout (length = sum(2 n_cells) + 2 * n_pipes + n_nodes):

    x = [ z | mu | lambda ]

    z       all pipe differential states, pipe by pipe (densities then momenta)
    mu      one input pair per pipe: (inlet pressure, minus outlet momentum)
    lambda  one pressure-valued potential per node, ordered boundary nodes
            first, then compressor nodes (inlet before outlet per station),
            then internal nodes

Residual row layout mirrors it:

    pipe rows:  W dz/dt - (J - R(z)) e(z) - B mu          (one per state)
    port rows:  inlet:  mu_p - lambda(from-node)
                outlet: p_out(z) - lambda(to-node)        (two per pipe)
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
(`PipeBank`): flat index and weight arrays built once per system.
`PipeStates` owns the bank and the pipe rows, and `twopipe.TwoPipeDirect`
evaluates the same rows. Cell i of a pipe pairs rho_i with the momentum m_i
on its inlet-side interface:

    continuity   dx rho_i' + (s_i x[down_i] - m_i)      down = m_(i+1), or
                 mu_m with s = -1 at the last cell
    momentum     w_i m_i' + (c^2 rho_i - a_i x[up_i]) + w_i f_i
                 up = rho_(i-1) with a = c^2, or mu_p with a = 1 at the
                 inlet, where w = dx/2 (dx elsewhere)

Node rows start at minus their input (zero for junctions) and add
+lambda (supply) or -flux (balances) per link, in attachment order
(`NodeLinks`). Inputs are resolved once per closure into a vector in
`required_inputs` order; only the short station loop stays per station, and
it reads each station's rules from `compressor.VARIANTS`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .compressor import VARIANTS, Assumption, CompressorModel, Framework, Variant
from .errors import ConfigurationError, StateError
from .gas import GasProperties
from .pipe import PipeSpec, PipeSystem, discretize_pipe


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

    `ratio` and `pressure` are the default setpoints for the two frameworks;
    scenario profiles override them per time.
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
        parent = {nid: nid for nid in known}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            parent[find(a)] = find(b)

        for pe in spec.pipes:
            union(pe.from_node, pe.to_node)
        for st in spec.compressors:
            union(st.inlet_node, st.outlet_node)
        roots = {find(nid) for nid in known}
        if len(roots) > 1:
            out.append(Violation("disconnected",
                                 f"network splits into {len(roots)} components"))

    return ValidationReport(out)


def _node_classes(spec: NetworkSpec):
    boundary = [nd for nd in spec.nodes if nd.kind in BOUNDARY_KINDS]
    compressor = [nd for nd in spec.nodes if nd.kind in COMPRESSOR_KINDS]
    internal = [nd for nd in spec.nodes if nd.kind is NodeKind.JUNCTION]
    return boundary, compressor, internal


def incidence_matrices(spec: NetworkSpec):
    """0/1 incidence of pipe ports onto boundary, compressor, internal nodes.

    Columns are the pipe ports in declaration order, inlet then outlet per
    pipe; rows are the nodes of each class in declaration order.
    """
    report = validate_topology(spec)
    if not report.ok:
        raise ConfigurationError(f"invalid network:\n{report}")
    n_ports = 2 * len(spec.pipes)
    boundary, compressor, internal = _node_classes(spec)

    def build(nodes):
        A = np.zeros((len(nodes), n_ports), dtype=int)
        index = {nd.id: r for r, nd in enumerate(nodes)}
        for k, pe in enumerate(spec.pipes):
            if pe.from_node in index:
                A[index[pe.from_node], 2 * k] = 1
            if pe.to_node in index:
                A[index[pe.to_node], 2 * k + 1] = 1
        return A

    return build(boundary), build(compressor), build(internal)


@dataclass
class _StationBinding:
    station: CompressorStation
    model: CompressorModel
    pipe_up: int        # pipe whose outlet feeds the station
    pipe_down: int      # pipe fed by the station
    row_in: int         # momentum-rule row (at the inlet node)
    row_out: int        # pressure-rule row (at the outlet node)
    lam_out: int        # column of the outlet-node potential
    input: int          # setpoint position in the input vector


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


class NodeLinks(NamedTuple):
    """Port and node couplings of the network rows (layout: module docstring)."""

    lam_from: np.ndarray    # pipe: inlet node potential column
    lam_to: np.ndarray      # pipe: outlet node potential column
    node_rows: np.ndarray   # supply, demand and junction rows ...
    node_in: np.ndarray     # ... start at minus this input-vector entry
    link_rows: np.ndarray   # link: adds link_sign * x[link_cols] to its row
    link_cols: np.ndarray
    link_sign: np.ndarray


class Triplets(NamedTuple):
    """A sparse matrix as (row, column, value) entries; duplicates add."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def matvec(self, v, n_rows):
        return np.bincount(self.rows, weights=self.vals * v[self.cols], minlength=n_rows)


class _AlgebraicMap(NamedTuple):
    """The port/node rows' constant matrix, its pseudo-inverse and rhs indices."""

    M: Triplets
    P: Triplets
    out_rows: np.ndarray    # port-out rows, shifted to the algebraic block
    node_rows: np.ndarray   # supply, demand and junction rows, shifted
    link_rows: np.ndarray   # state links: the rhs takes -sign * z[col]
    link_cols: np.ndarray
    link_neg: np.ndarray


class PipeStates:
    """Pipe states with one input pair per pipe, x = [z | mu | ...].

    z holds every pipe's densities then momenta, pipe by pipe; mu_p and
    mu_m (inlet pressure, minus outlet momentum) follow it, pipe by pipe.
    Everything that reads only the pipe bank lives here: the pipe rows and
    their couplings, row scaling, records and the state diagnostics.
    `GlobalSystem` and `twopipe.TwoPipeDirect` both build on it.
    """

    def __init__(self, pipes: list[PipeSystem], gas: GasProperties):
        self.pipes = pipes
        self.gas = gas
        self.rho_sl, self.mom_sl = [], []
        off = 0
        for p in pipes:
            self.rho_sl.append(slice(off, off + p.n))
            self.mom_sl.append(slice(off + p.n, off + 2 * p.n))
            off += 2 * p.n
        self.n_z = off
        self.mu_p = off + 2 * np.arange(len(pipes))
        self.mu_m = self.mu_p + 1
        # energy weights over the differential states
        self.energy_weights = np.concatenate([p.weights for p in pipes])
        self.bank = self._build_bank()
        self.references = (1.0, 1.0)   # (p_ref, m_ref), set before solving
        self._colors = None

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

    def _pipe_rows(self, F, x, zdot):
        """Write every continuity and momentum row of F at x = [z | mu ...]."""
        b, c2 = self.bank, self.gas.c2
        rho, mom = x[b.rho], x[b.mom]
        pres = c2 * rho
        F[b.rho] = b.dx * zdot[b.rho] + (b.down_sign * x[b.down] - mom)
        fric = b.fric * mom * np.abs(mom / (0.5 * (rho[b.prev] + rho)))
        F[b.mom] = b.w * zdot[b.mom] + (pres - b.up_scale * x[b.up]) + b.w * fric

    def _pipe_pattern(self):
        """(rows, cols) pairs of the pipe rows' structural couplings."""
        b = self.bank
        return [(b.rho, b.rho), (b.rho, b.mom), (b.rho, b.down),
                (b.mom, b.mom), (b.mom, b.up), (b.mom, b.rho)]

    def _outlet_pressures(self, x):
        """Outlet pressure of every pipe, extrapolated from its last two cells."""
        c2, tail = self.gas.c2, self.bank.tail
        return 1.5 * (c2 * x[tail]) - 0.5 * (c2 * x[tail - 1])

    def row_scale(self):
        """Diagonal residual scaling: pressure rows / p_ref, momentum rows / m_ref."""
        p_ref, m_ref = self.references
        return np.where(self.row_kind == "p", p_ref, m_ref)

    def record_names(self):
        """Record column names, interned: every record of one network shares them."""
        names = []
        for p in self.pipes:
            pid = p.spec.id
            names += [f"{pid}.in.p_Pa", f"{pid}.in.m", f"{pid}.out.p_Pa", f"{pid}.out.m"]
        names.append("H_total")
        for s in self.stations:
            names.append(f"{s.station.id}.power")
        return [sys.intern(n) for n in names]

    def _records(self, x, inputs):
        """Port pressures/momenta, total energy and station powers at x = [z | mu ...]."""
        b = self.bank
        z = x[: self.n_z]
        p_out = self._outlet_pressures(z)
        vals = np.column_stack([x[self.mu_p], z[b.m_in], p_out, -x[self.mu_m]]).ravel().tolist()
        vals.append(self.hamiltonian_total(z))
        for s in self.stations:
            vals.append(s.model.power(inputs[s.station.id], float(p_out[s.pipe_up]),
                                      float(z[b.m_in[s.pipe_down]])))
        return dict(zip(self.record_names(), vals))

    def hamiltonian_total(self, z):
        """Stored energy with uniform dx weights (`gas.hamiltonian` summed over pipes)."""
        b = self.bank
        rho, mom = z[b.rho], z[b.mom]
        return 0.5 * float(self.gas.c2 * np.dot(b.dx * rho, rho) + np.dot(b.dx * mom, mom))

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


class GlobalSystem(PipeStates):
    """Assembled network DAE with residual, Jacobian pattern and diagnostics."""

    def __init__(self, spec: NetworkSpec, n_cells_override: int | None = None):
        report = validate_topology(spec)
        if not report.ok:
            raise ConfigurationError(f"invalid network:\n{report}")
        self.spec = spec
        pipes = []
        for pe in spec.pipes:
            ps = pe.spec
            if n_cells_override is not None:
                ps = PipeSpec(ps.id, ps.length, ps.diameter, ps.friction, n_cells_override)
            pipes.append(discretize_pipe(ps, spec.gas))
        super().__init__(pipes, spec.gas)

        # --- unknown layout ------------------------------------------
        P = len(self.pipes)
        boundary, compressor, internal = _node_classes(spec)
        self.node_order = boundary + compressor + internal
        self.lam = {nd.id: self.n_z + 2 * P + i for i, nd in enumerate(self.node_order)}
        self.n_alg = 2 * P + len(self.node_order)
        self.n = self.n_z + self.n_alg

        # --- row layout ----------------------------------------------
        self.port_in_row = self.mu_p
        self.port_out_row = self.mu_m
        self.node_row = {nd.id: self.n_z + 2 * P + i for i, nd in enumerate(self.node_order)}

        # per-node attachments: (pipe index, is_outlet)
        self.attached: dict[str, list[tuple[int, bool]]] = {nd.id: [] for nd in spec.nodes}
        for k, pe in enumerate(spec.pipes):
            self.attached[pe.from_node].append((k, False))
            self.attached[pe.to_node].append((k, True))

        # --- station bindings ----------------------------------------
        n_node_inputs = sum(nd.kind in BOUNDARY_KINDS for nd in self.node_order)
        self.stations: list[_StationBinding] = []
        for st in spec.compressors:
            ups = [k for k, isout in self.attached[st.inlet_node] if isout]
            dns = [k for k, isout in self.attached[st.outlet_node] if not isout]
            if len(ups) != 1 or len(dns) != 1:
                raise ConfigurationError(
                    f"compressor {st.id!r}: end nodes must attach exactly one "
                    "pipe outlet (inlet side) and one pipe inlet (outlet side)")
            self.stations.append(_StationBinding(
                station=st,
                model=st.model(spec.gas.isentropic_exponent),
                pipe_up=ups[0],
                pipe_down=dns[0],
                row_in=self.node_row[st.inlet_node],
                row_out=self.node_row[st.outlet_node],
                lam_out=self.lam[st.outlet_node],
                input=n_node_inputs + len(self.stations),
            ))
        station_rows = {b.row_in for b in self.stations} | {b.row_out for b in self.stations}
        for nd in self.node_order:
            if nd.kind in COMPRESSOR_KINDS and self.node_row[nd.id] not in station_rows:
                raise ConfigurationError(f"compressor node {nd.id!r} has no station rows")

        self.input_ids = [key for key, _ in self.required_inputs()]
        self.links = self._build_links()

        # --- row kinds for residual scaling --------------------------
        kind = np.empty(self.n, dtype="U1")
        kind[self.bank.rho] = "m"   # mass rows carry momentum-flux units
        # momentum and port rows carry pressure units
        kind[self.bank.mom] = kind[self.port_in_row] = kind[self.port_out_row] = "p"
        for nd in self.node_order:
            kind[self.node_row[nd.id]] = "p" if nd.kind is NodeKind.SUPPLY else "m"
        for b in self.stations:
            kind[b.row_in] = "m"
            kind[b.row_out] = "p"
        self.row_kind = kind

        self._alg_map = None

    def _build_links(self) -> NodeLinks:
        slot = {key: i for i, (key, kind) in enumerate(self.required_inputs())
                if kind in ("pressure", "momentum")}
        zero = len(self.input_ids)   # the trailing 0 of the input vector
        nodes, links = [], []
        for nd in self.node_order:
            r = self.node_row[nd.id]
            if nd.kind in COMPRESSOR_KINDS:
                continue
            nodes.append((r, slot.get(nd.id, zero)))
            if nd.kind is NodeKind.SUPPLY:
                links.append((r, self.lam[nd.id], 1))
            else:
                links += [(r, self.mu_m[k] if isout else self.bank.m_in[k], -1)
                          for k, isout in self.attached[nd.id]]
        node = np.array(nodes, dtype=int).T
        link = np.array(links, dtype=int).T
        return NodeLinks(
            lam_from=np.array([self.lam[pe.from_node] for pe in self.spec.pipes]),
            lam_to=np.array([self.lam[pe.to_node] for pe in self.spec.pipes]),
            node_rows=node[0], node_in=node[1],
            link_rows=link[0], link_cols=link[1], link_sign=link[2].astype(float))

    # ------------------------------------------------------------------
    # required inputs
    # ------------------------------------------------------------------

    def required_inputs(self):
        """(id, kind) pairs the residual needs per evaluation time.

        Kinds: 'pressure' (supply nodes), 'momentum' (demand extractions),
        and per station its variant's setpoint kind, 'ratio' or
        'outlet-pressure' (keyed by station id).
        """
        req = []
        for nd in self.node_order:
            if nd.kind is NodeKind.SUPPLY:
                req.append((nd.id, "pressure"))
            elif nd.kind is NodeKind.DEMAND:
                req.append((nd.id, "momentum"))
        for b in self.stations:
            req.append((b.station.id, b.model.variant.kind))
        return req

    # ------------------------------------------------------------------
    # residual
    # ------------------------------------------------------------------

    def residual(self, x, zdot, t=0.0, inputs=None):
        """DAE residual F(x, dz/dt, t). `inputs` maps ids to sampled values.

        Pure function; differential rows carry the cell-measure weights so
        that the effort pairing of the differential block is the exact
        stored-energy rate.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise StateError("non-finite values in unknown vector")
        if inputs is None:
            inputs = {}
        if callable(inputs):
            inputs = inputs(t)
        return self._residual_core(x, np.asarray(zdot, dtype=float),
                                   self._input_vector(inputs))

    def _input_vector(self, inputs):
        """Sampled inputs in `required_inputs` order, then 0 for junction balances."""
        try:
            return np.array([inputs[key] for key in self.input_ids] + [0.0], dtype=float)
        except KeyError as exc:
            raise ConfigurationError(f"missing input value for {exc}") from exc

    def _residual_core(self, x, zdot, u):
        b, ln, c2 = self.bank, self.links, self.gas.c2
        F = np.empty(self.n)
        self._pipe_rows(F, x, zdot)
        F[self.port_in_row] = x[self.mu_p] - x[ln.lam_from]
        F[self.port_out_row] = self._outlet_pressures(x) - x[ln.lam_to]
        F[ln.node_rows] = -u[ln.node_in]
        np.add.at(F, ln.link_rows, ln.link_sign * x[ln.link_cols])

        for s in self.stations:
            sp = u[s.input]
            tail = b.tail[s.pipe_up]
            p1L = 1.5 * c2 * x[tail] - 0.5 * c2 * x[tail - 1]
            factor = s.model.inlet_match_factor(sp, p1L)
            F[s.row_in] = -x[self.mu_m[s.pipe_up]] - factor * x[b.m_in[s.pipe_down]]
            F[s.row_out] = x[s.lam_out] - s.model.outlet_pressure(sp, p1L)
        return F

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

    # ------------------------------------------------------------------
    # Jacobian sparsity and coloring
    # ------------------------------------------------------------------

    def _pattern(self):
        """Structural (row, col) couplings of the residual, both solve modes."""
        b, ln = self.bank, self.links
        pairs = self._pipe_pattern() + [
            (self.port_in_row, self.mu_p), (self.port_in_row, ln.lam_from),
            (self.port_out_row, b.tail), (self.port_out_row, b.tail - 1),
            (self.port_out_row, ln.lam_to),
            (ln.link_rows, ln.link_cols)]
        ent = [np.column_stack(rc) for rc in pairs]
        for s in self.stations:
            last = b.tail[s.pipe_up]
            st = [(s.row_in, self.mu_m[s.pipe_up]), (s.row_in, b.m_in[s.pipe_down]),
                  (s.row_out, s.lam_out)]
            for row, reads in zip((s.row_in, s.row_out), s.model.variant.reads_inlet):
                if reads:
                    st += [(row, last), (row, last - 1)]
            ent.append(np.array(st))
        return np.concatenate(ent)

    def jac_colors(self):
        """Column groups for one-sweep finite-difference Jacobians."""
        if self._colors is None:
            self._colors = color_columns(self._pattern(), self.n, self.n)
        return self._colors

    # ------------------------------------------------------------------
    # consistent algebraic variables and derived records
    # ------------------------------------------------------------------

    def _algebraic_map(self) -> _AlgebraicMap:
        """The port/node rows' matrix in (mu, lambda), its pseudo-inverse and rhs indices.

        Every entry is +-1 and fixed by the topology, so all of it is built
        once per system; only the right-hand side's values depend on z and
        the inputs. The matrix falls apart into small blocks (a port pair,
        a node with its links, a station), so the pseudo-inverse is taken
        block by block (`blockwise_pinv`) and both are kept as triplets.
        The cutoff is lstsq's, max(shape) * eps, so a singular matrix (pipes
        merging at a junction) gets the minimum-norm correction.
        """
        if self._alg_map is None:
            na, base, ln = self.n_alg, self.n_z, self.links
            alg = ln.link_cols >= base
            ones, st = np.ones(len(self.mu_p)), self.stations
            parts = [(self.port_in_row, self.mu_p, ones),
                     (self.port_in_row, ln.lam_from, -ones),
                     (self.port_out_row, ln.lam_to, ones),
                     (ln.link_rows[alg], ln.link_cols[alg], ln.link_sign[alg]),
                     ([s.row_in for s in st], [self.mu_m[s.pipe_up] for s in st],
                      -np.ones(len(st))),
                     ([s.row_out for s in st], [s.lam_out for s in st], np.ones(len(st)))]
            rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
            M = Triplets(rows.astype(int) - base, cols.astype(int) - base, vals)
            self._alg_map = _AlgebraicMap(
                M, blockwise_pinv(M, na, na * np.finfo(float).eps),
                self.port_out_row - base, ln.node_rows - base,
                ln.link_rows[~alg] - base, ln.link_cols[~alg], -ln.link_sign[~alg])
        return self._alg_map

    def algebraic_solve(self, z, t, inputs, anchor=None):
        """Solve the port/node rows for (mu, lambda) at a frozen state z.

        The rows are linear in the algebraic unknowns with a constant matrix;
        its pseudo-inverse gives the coupling-consistent port values used for
        records and for consistent-state construction. Topologies where the
        frozen-state rows alone do not pin every unknown (a junction feeding
        from several pipe outlets splits the flux through the dynamics, not
        the state) are resolved toward `anchor`: the returned values are the
        consistent point closest to the anchored algebraic variables.
        """
        if callable(inputs):
            inputs = inputs(t)
        z = np.asarray(z, float)
        u = self._input_vector(inputs)
        a, na, base, b = self._algebraic_map(), self.n_alg, self.n_z, self.bank
        rhs = np.zeros(na)
        p_out = self._outlet_pressures(z)
        rhs[a.out_rows] = p_out
        rhs[a.node_rows] = u[self.links.node_in]
        np.add.at(rhs, a.link_rows, a.link_neg * z[a.link_cols])
        for s in self.stations:
            sp = u[s.input]
            m_down = z[b.m_in[s.pipe_down]]
            rhs[s.row_in - base] = s.model.inlet_match_factor(sp, p_out[s.pipe_up]) * m_down
            rhs[s.row_out - base] = s.model.outlet_pressure(sp, p_out[s.pipe_up])

        anchored = np.zeros(na) if anchor is None else np.asarray(anchor, float)[-na:]
        alg = anchored + a.P.matvec(rhs - a.M.matvec(anchored, na), na)
        return np.concatenate([z, alg])

    def zdot_consistent(self, x, inputs):
        """Differential rates implied by the pipe rows at the given unknowns."""
        F = self.steady_residual(x, inputs)
        return -F[: self.n_z] / self.energy_weights

    def effort_vector(self, z):
        e = np.array(z[: self.n_z], dtype=float)
        e[self.bank.rho] *= self.gas.c2
        return e

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
        if callable(inputs):
            raise ConfigurationError("power_terms expects sampled input values")
        x = np.asarray(x, float)
        z = x[: self.n_z]
        zdot = self.zdot_consistent(x, inputs)

        def port_power(k, isout):
            p = self.pipes[k]
            if isout:
                m_L = -x[self.mu_m[k]]
                return -p.conjugate_outlet_pressure(z[self.rho_sl[k]]) * m_L
            return x[self.mu_p[k]] * z[self.mom_sl[k]][0]

        parts = {"boundary": 0.0, "compressor": 0.0, "internal": 0.0}
        for nd in self.node_order:
            if nd.kind in BOUNDARY_KINDS:
                bucket = "boundary"
            elif nd.kind in COMPRESSOR_KINDS:
                bucket = "compressor"
            else:
                bucket = "internal"
            for k, isout in self.attached[nd.id]:
                parts[bucket] += port_power(k, isout)
        diss = sum(p.dissipation_rate(z[self.rho_sl[k]], z[self.mom_sl[k]])
                   for k, p in enumerate(self.pipes))
        parts["dissipation"] = diss
        parts["rate"] = self.energy_rate(z, zdot)
        return parts

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def snapshot(self, z, t, inputs, anchor=None):
        """Port pressures/momenta, total energy and station powers at state z."""
        if callable(inputs):
            inputs = inputs(t)
        x = self.algebraic_solve(z, t, inputs, anchor)
        return self._records(x, inputs), x

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
        supplies = [nd.id for nd in self.node_order if nd.kind is NodeKind.SUPPLY]
        p_ref = inputs0[supplies[0]]
        m_est = sum(inputs0[nd.id] for nd in self.node_order if nd.kind is NodeKind.DEMAND)
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


def blockwise_pinv(M: Triplets, n: int, rcond: float) -> Triplets:
    """Pseudo-inverse of a sparse n x n matrix, block by block, as triplets.

    The blocks are the connected components of the graph joining each row
    to the columns it has entries in. Permuted to block-diagonal form, the
    matrix's pseudo-inverse is the block-diagonal of the blocks'
    pseudo-inverses, so nothing n x n is formed. Blocks of one shape go
    through one stacked ``np.linalg.pinv`` with cutoff ``rcond`` each.
    Rows or columns without entries belong to no block and map to zero.
    The components come from a union-find, not scipy's csgraph, because
    systems on the dense Newton path never import scipy.
    """
    parent = list(range(2 * n))        # rows 0..n-1, columns n..2n-1

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r, c in zip(M.rows.tolist(), M.cols.tolist()):
        parent[find(r)] = find(n + c)
    members: dict[int, tuple[list[int], list[int]]] = {}
    for a in range(2 * n):
        members.setdefault(find(a), ([], []))[a >= n].append(a % n)
    by_shape: dict[tuple[int, int], list] = {}
    for rs, cs in members.values():
        if rs and cs:
            by_shape.setdefault((len(rs), len(cs)), []).append((rs, cs))

    shape_of = np.full(n, -1)          # per row: its block's shape group ...
    block_of = np.zeros(n, dtype=int)  # ... its block in that group ...
    row_pos = np.zeros(n, dtype=int)   # ... and its place in the block
    col_pos = np.zeros(n, dtype=int)
    out = []
    for g, ((nr, nc), blocks) in enumerate(by_shape.items()):
        R = np.array([rs for rs, _ in blocks])           # (k, nr)
        C = np.array([cs for _, cs in blocks])           # (k, nc)
        shape_of[R] = g
        block_of[R] = np.arange(len(blocks))[:, None]
        row_pos[R] = np.arange(nr)
        col_pos[C] = np.arange(nc)
        sel = shape_of[M.rows] == g
        stack = np.zeros((len(blocks), nr, nc))
        np.add.at(stack, (block_of[M.rows[sel]], row_pos[M.rows[sel]],
                          col_pos[M.cols[sel]]), M.vals[sel])
        inv = np.linalg.pinv(stack, rcond)               # (k, nc, nr)
        keep = inv != 0.0
        out.append((np.broadcast_to(C[:, :, None], inv.shape)[keep],
                    np.broadcast_to(R[:, None, :], inv.shape)[keep], inv[keep]))
    if not out:
        return Triplets(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    return Triplets(*(np.concatenate(parts) for parts in zip(*out)))


class ColumnColoring(NamedTuple):
    """Column groups for one-sweep finite-difference Jacobians.

    ``groups[c]`` lists the columns of color c (no two share a residual row);
    ``rows_of_col[j]`` the structural rows of column j. ``rows``, ``cols`` and
    ``color`` flatten the structural nonzeros column by column (CSC order):
    entry i sits at (rows[i], cols[i]) and is read from the sweep of color
    ``color[i]``. Column j's entries are ``indptr[j]:indptr[j + 1]``, so
    ``(values, rows, indptr)`` is a CSC matrix as it stands.

    ``factor`` is a one-slot list: the sparse Newton path keeps its last
    SuperLU factor there for chord steps (``timeloop.newton_solve``), so the
    factor lives as long as the system that caches this coloring.
    """

    groups: list[np.ndarray]
    rows_of_col: list[np.ndarray]
    rows: np.ndarray
    cols: np.ndarray
    color: np.ndarray
    indptr: np.ndarray
    factor: list


def color_columns(pattern, n_rows, n_cols) -> ColumnColoring:
    """Greedy structural coloring: same-color columns share no residual row."""
    ent = np.array(pattern, dtype=int).reshape(-1, 2)
    cols, rows = np.divmod(np.unique(ent[:, 1] * n_rows + ent[:, 0]), n_rows)
    indptr = np.searchsorted(cols, np.arange(n_cols + 1))
    rows_of_col = np.split(rows, indptr[1:-1])
    order = sorted(range(n_cols), key=lambda c: -len(rows_of_col[c]))
    colors: list[list[int]] = []
    occupied: list[np.ndarray] = []
    color_of_col = np.empty(n_cols, dtype=int)
    for c in order:
        rs = rows_of_col[c]
        for ci, occ in enumerate(occupied):
            if not occ[rs].any():
                colors[ci].append(c)
                occ[rs] = True
                break
        else:
            ci = len(colors)
            occ = np.zeros(n_rows, dtype=bool)
            occ[rs] = True
            occupied.append(occ)
            colors.append([c])
        color_of_col[c] = ci
    return ColumnColoring([np.array(sorted(cs), dtype=int) for cs in colors],
                          rows_of_col, rows, cols, color_of_col[cols], indptr, [None])
