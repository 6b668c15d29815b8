"""File formats: network and scenario JSON, CSV output, run reports.

This is the only module that touches the filesystem. Files may declare
units (pressure in Pa or bar, lengths in m or km, temperature in K); all
values are converted to SI on ingestion and everything downstream is SI.

Network file (.net.json): top-level keys `gas {Rs, T, z, kappa}`, `units`,
`nodes []`, `pipes []`, `compressors []`. A compressor is a single element
between two declared nodes; the two-node incidence representation is
derived internally.

Scenario file (.scn.json): keys `t_end`, `dt`, `units`, and `profiles`
mapping input ids to piecewise-constant schedules [[t, value], ...]. A
compressor setpoint profile is keyed `<id>.ratio` or `<id>.pressure` (or
the bare id, read per the active framework), so one scenario file can
drive every model variant. Profile values must be finite, and supply
pressures and station setpoints positive; demands may take either sign.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compressor import Assumption, Framework
from .errors import FormatError
from .gas import GasProperties
from .network import (CompressorStation, NetworkSpec, Node, NodeKind, PipeEdge,
                      validate_topology)
from .pipe import PipeSpec
from .timeloop import TimeSeries

PRESSURE_UNITS = {"Pa": 1.0, "bar": 1.0e5}
LENGTH_UNITS = {"m": 1.0, "km": 1.0e3}
TEMPERATURE_UNITS = {"K": 1.0}


@dataclass
class _Units:
    pressure: float = 1.0
    length: float = 1.0
    diameter: float = 1.0
    temperature: float = 1.0


def _parse_units(block) -> _Units:
    u = _Units()
    if not block:
        return u
    tables = {"pressure": PRESSURE_UNITS, "length": LENGTH_UNITS,
              "diameter": LENGTH_UNITS, "temperature": TEMPERATURE_UNITS}
    for key, tag in block.items():
        if key not in tables:
            raise FormatError(f"unknown unit dimension {key!r}")
        if tag not in tables[key]:
            raise FormatError(f"unknown {key} unit tag {tag!r}")
        setattr(u, key, tables[key][tag])
    return u


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


_NODE_TYPES = {
    "supply": NodeKind.SUPPLY,
    "demand": NodeKind.DEMAND,
    "junction": NodeKind.JUNCTION,
}


def parse_network(text: str) -> NetworkSpec:
    """Parse and validate a network description; all values returned in SI."""
    doc = _load_json(text)
    units = _parse_units(doc.get("units"))

    gas_doc = doc.get("gas")
    if not gas_doc:
        raise FormatError("missing 'gas' block")
    gas = GasProperties(
        specific_gas_constant=float(gas_doc["Rs"]),
        temperature=float(gas_doc["T"]) * units.temperature,
        compressibility=float(gas_doc.get("z", 1.0)),
        isentropic_exponent=float(gas_doc.get("kappa", 1.4)),
    )

    nodes: list[Node] = []
    index: dict[str, Node] = {}
    for nd in doc.get("nodes", []):
        nid = str(nd["id"])
        if nid in index:
            raise FormatError(f"duplicate node id {nid!r}")
        typ = nd.get("type", "junction")
        if typ not in _NODE_TYPES:
            raise FormatError(f"node {nid!r}: unknown type {typ!r}")
        node = Node(nid, _NODE_TYPES[typ])
        nodes.append(node)
        index[nid] = node

    comps: list[CompressorStation] = []
    for cd in doc.get("compressors", []):
        cid = str(cd["id"])
        ratio = cd.get("ratio")
        pressure = cd.get("pressure")
        st = CompressorStation(
            id=cid,
            inlet_node=str(cd["from"]),
            outlet_node=str(cd["to"]),
            framework=Framework(cd.get("framework", "fc")),
            assumption=Assumption(cd.get("assumption", "am")),
            ratio=float(ratio) if ratio is not None else None,
            pressure=float(pressure) * units.pressure if pressure is not None else None,
        )
        for nid, kind in ((st.inlet_node, NodeKind.COMPRESSOR_IN),
                          (st.outlet_node, NodeKind.COMPRESSOR_OUT)):
            if nid in index:
                if index[nid].kind is not NodeKind.JUNCTION:
                    raise FormatError(
                        f"compressor {cid!r}: node {nid!r} is {index[nid].kind.value}, "
                        "expected a plain junction")
                index[nid].kind = kind
                index[nid].compressor_id = cid
            else:
                node = Node(nid, kind, cid)
                nodes.append(node)
                index[nid] = node
        comps.append(st)

    pipes: list[PipeEdge] = []
    for pd in doc.get("pipes", []):
        pid = str(pd["id"])
        for end in (pd["from"], pd["to"]):
            if str(end) not in index:
                raise FormatError(f"pipe {pid!r} references undeclared node {end!r}")
        pipes.append(PipeEdge(
            spec=PipeSpec(
                id=pid,
                length=float(pd["length"]) * units.length,
                diameter=float(pd["diameter"]) * units.diameter,
                friction=float(pd["friction"]),
                n_cells=int(pd.get("cells", 32)),
            ),
            from_node=str(pd["from"]),
            to_node=str(pd["to"]),
        ))

    spec = NetworkSpec(gas, nodes, pipes, comps)
    report = validate_topology(spec)
    if not report.ok:
        raise FormatError(f"invalid network:\n{report}")
    return spec


def serialize_network(spec: NetworkSpec) -> str:
    """Canonical SI-unit JSON for a network; parse(serialize(s)) == s."""
    doc = {
        "gas": {
            "Rs": spec.gas.specific_gas_constant,
            "T": spec.gas.temperature,
            "z": spec.gas.compressibility,
            "kappa": spec.gas.isentropic_exponent,
        },
        "units": {"pressure": "Pa", "length": "m", "diameter": "m"},
        "nodes": [
            {"id": nd.id,
             "type": nd.kind.value if nd.kind in _NODE_TYPES.values() else "junction"}
            for nd in spec.nodes
        ],
        "pipes": [
            {"id": pe.spec.id, "from": pe.from_node, "to": pe.to_node,
             "length": pe.spec.length, "diameter": pe.spec.diameter,
             "friction": pe.spec.friction, "cells": pe.spec.n_cells}
            for pe in spec.pipes
        ],
        "compressors": [
            {k: v for k, v in (
                ("id", st.id), ("from", st.inlet_node), ("to", st.outlet_node),
                ("framework", st.framework.value), ("assumption", st.assumption.value),
                ("ratio", st.ratio), ("pressure", st.pressure)) if v is not None}
            for st in spec.compressors
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


@dataclass
class Scenario:
    """Piecewise-constant input schedules over [0, t_end]."""

    t_end: float
    dt: float
    profiles: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def has(self, key: str) -> bool:
        return key in self.profiles

    def value(self, key: str, t: float) -> float:
        """Right-continuous sample: at a breakpoint the new value applies."""
        times, values = self.profiles[key]
        i = int(np.searchsorted(times, t, side="right")) - 1
        return float(values[max(i, 0)])

    def max_abs(self, key: str) -> float:
        return float(np.max(np.abs(self.profiles[key][1])))


def parse_scenario(text: str, spec: NetworkSpec) -> Scenario:
    """Parse a scenario and bind every profile against the network."""
    doc = _load_json(text)
    units = _parse_units(doc.get("units"))
    try:
        t_end = float(doc["t_end"])
        dt = float(doc["dt"])
    except KeyError as exc:
        raise FormatError(f"scenario lacks required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"t_end and dt must be numbers ({exc})") from exc
    if not (math.isfinite(t_end) and math.isfinite(dt)) or t_end <= 0 or dt <= 0:
        raise FormatError("t_end and dt must be positive and finite")

    boundary_ids = {nd.id: nd.kind for nd in spec.nodes
                    if nd.kind in (NodeKind.SUPPLY, NodeKind.DEMAND)}
    supply_ids = {nid for nid, kind in boundary_ids.items() if kind is NodeKind.SUPPLY}
    stations = {st.id: st for st in spec.compressors}
    setpoint_of = {}   # station profile key -> 'ratio' or 'pressure'
    for cid, st in stations.items():
        # the bare id reads as the setpoint the station's variant asks for
        setpoint_of.update({f"{cid}.ratio": "ratio", f"{cid}.pressure": "pressure",
                            cid: st.variant.setpoint})

    profiles_doc = doc.get("profiles", {})
    if not isinstance(profiles_doc, dict):
        raise FormatError("'profiles' must map input ids to profiles")
    profiles = {}
    for key, entries in profiles_doc.items():
        if key not in boundary_ids and key not in setpoint_of:
            raise FormatError(f"profile for unknown input id {key!r}")
        try:
            times = np.array([float(e[0]) for e in entries])
            values = np.array([float(e[1]) for e in entries])
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise FormatError(
                f"profile {key!r}: entries must be [time, value] number pairs ({exc})") from exc
        if times.size == 0:
            raise FormatError(f"profile {key!r} is empty")
        if not np.all(np.isfinite(times)):
            raise FormatError(f"profile {key!r}: non-finite breakpoint")
        if times[0] != 0.0:
            raise FormatError(f"profile {key!r}: first breakpoint must be t=0")
        if np.any(np.diff(times) <= 0.0):
            raise FormatError(f"profile {key!r}: non-monotone breakpoints")
        if not np.all(np.isfinite(values)):
            raise FormatError(f"profile {key!r}: non-finite value")
        if (key in supply_ids or key in setpoint_of) and np.any(values <= 0.0):
            what = "supply pressure" if key in supply_ids else "station setpoint"
            raise FormatError(f"profile {key!r}: {what} must be positive")
        if key in supply_ids or setpoint_of.get(key) == "pressure":
            values = values * units.pressure
        profiles[key] = (times, values)

    for nid in boundary_ids:
        if nid not in profiles:
            raise FormatError(f"missing profile for boundary node {nid!r}")
    for cid, st in stations.items():
        if (f"{cid}.{st.variant.setpoint}" not in profiles and cid not in profiles
                and st.default_setpoint() is None):
            raise FormatError(f"missing setpoint profile for compressor {cid!r}")

    return Scenario(t_end, dt, profiles)


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------

def write_timeseries(ts: TimeSeries, destination) -> None:
    """Write the record as CSV: 12 significant digits, LF line endings.

    Deterministic: identical series produce byte-identical files.
    """
    if ts.n_samples == 0:
        raise FormatError("refusing to write an empty time series")

    def render(handle):
        handle.write("time_s," + ",".join(ts.names) + "\n")
        for i in range(ts.n_samples):
            row = [f"{ts.t[i]:.12g}"] + [f"{v:.12g}" for v in ts.data[i]]
            handle.write(",".join(row) + "\n")

    if hasattr(destination, "write"):
        render(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            render(handle)


def read_timeseries(source) -> TimeSeries:
    """Read a CSV produced by write_timeseries back into a TimeSeries."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    if header[0] != "time_s":
        raise FormatError("not a time-series CSV (missing time_s column)")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return TimeSeries(body[:, 0], header[1:], body[:, 1:])


@dataclass
class RunReport:
    """Outcome summary of one solver run, printed to standard error."""

    status: str
    wall_time: float
    n_steps: int = 0
    newton_total: int = 0
    newton_max: int = 0
    warnings: list[str] = field(default_factory=list)

    def summary(self) -> str:
        buf = io.StringIO()
        buf.write(f"status: {self.status}\n")
        buf.write(f"wall time: {self.wall_time:.3f} s\n")
        buf.write(f"steps: {self.n_steps}\n")
        if self.n_steps:
            buf.write(f"newton iterations: total {self.newton_total}, "
                      f"max {self.newton_max}/step\n")
        for w in self.warnings:
            buf.write(f"warning: {w}\n")
        return buf.getvalue()

    @classmethod
    def from_timeseries(cls, ts: TimeSeries, wall_time: float, status="ok"):
        iters = np.asarray(ts.newton_iters, dtype=int)
        return cls(status=status, wall_time=wall_time, n_steps=int(iters.size),
                   newton_total=int(iters.sum()), newton_max=int(iters.max(initial=0)),
                   warnings=list(ts.warnings))
