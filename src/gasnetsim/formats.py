"""File formats: network and scenario JSON, CSV output, the run report.

This is the only module that touches the filesystem. Files may declare
units (pressure in Pa or bar, lengths in m or km, temperature in K); all
values are converted to SI on ingestion and everything downstream is SI.

Network file (.net.json): top-level keys `gas {Rs, T, z, kappa}`, `units`,
`nodes []`, `pipes []`, `compressors []`. A node's `type` is `supply`,
`demand` or `junction` (the default). A compressor is a single element
between two declared junctions, its `from` and `to`. Parsing converts
entries only: the topology (ids, ends, station ends, connectivity) is
checked once, by `network.validate_topology`, when the spec is assembled,
fused or validated.

Scenario file (.scn.json): keys `t_end`, `dt`, `units`, and `profiles`
mapping input ids to piecewise-constant schedules [[t, value], ...]. A
compressor setpoint profile is keyed `<id>.ratio` or `<id>.pressure` (or
the bare id, read per the active framework), so one scenario file can
drive every model variant; `Scenario.setpoint_source` gives the order in
which a station looks for its setpoint. Profile values must be finite, and supply
pressures and station setpoints positive; demands may take either sign.
A key that names no input of the network is rejected here; that every
boundary node and station has a source is checked once, by
`timeloop.bind_inputs`, against the assembled system.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compressor import Assumption, Framework
from .errors import ConfigurationError, FormatError
from .gas import GasProperties
from .network import CompressorStation, NetworkSpec, Node, NodeKind, PipeEdge
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


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _object(value, what: str) -> dict:
    """value, if it is a JSON object; else a FormatError naming `what`."""
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be an object, got {_JSON_TYPES.get(type(value), value)}")
    return value


def _list(doc: dict, key: str) -> list:
    """doc[key] (an empty list if absent), if it is a JSON list."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise FormatError(f"{key!r} must be a list, got {_JSON_TYPES.get(type(value), value)}")
    return value


def _parse_units(block) -> _Units:
    u = _Units()
    if block is None:
        return u
    tables = {"pressure": PRESSURE_UNITS, "length": LENGTH_UNITS,
              "diameter": LENGTH_UNITS, "temperature": TEMPERATURE_UNITS}
    for key, tag in _object(block, "'units'").items():
        if key not in tables:
            raise FormatError(f"unknown unit dimension {key!r}")
        if not isinstance(tag, str) or tag not in tables[key]:
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


@contextlib.contextmanager
def _entry(name: str):
    """Report a missing key or a bad value inside one file entry as a FormatError."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{name}: missing key {exc}") from None
    except FormatError:
        raise
    except (ConfigurationError, ValueError) as exc:
        raise FormatError(f"{name}: {exc}") from None


def _number(doc, key: str, default=None) -> float:
    """doc[key] (or the default, where one is given), if it is a JSON number."""
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def parse_network(text: str) -> NetworkSpec:
    """Convert a network description into a spec; all values returned in SI.

    A block or entry that is not an object or a list as required, a missing
    key, a value that is not a JSON number, or one that fails the checks of
    `GasProperties`, `PipeSpec` or `CompressorStation` raises a FormatError
    naming the entry and the key. Entries are converted as they stand; the
    topology is not checked here but by `validate_topology`, which
    `assemble`, `fuse_compressors` and `gasnetsim validate` run.
    """
    doc = _object(_load_json(text), "the top level")
    units = _parse_units(doc.get("units"))

    gas_doc = doc.get("gas")
    if not gas_doc:
        raise FormatError("missing 'gas' block")
    _object(gas_doc, "'gas'")
    with _entry("gas"):
        gas = GasProperties(_number(gas_doc, "Rs"), _number(gas_doc, "T") * units.temperature,
                            _number(gas_doc, "z", 1.0), _number(gas_doc, "kappa", 1.4))

    nodes: list[Node] = []
    for i, nd in enumerate(_list(doc, "nodes")):
        with _entry(f"nodes[{i}]"):
            nid = str(_object(nd, f"nodes[{i}]")["id"])
        typ = nd.get("type", "junction")
        if typ not in list(NodeKind):
            raise FormatError(f"node {nid!r}: unknown type {typ!r}")
        nodes.append(Node(nid, NodeKind(typ)))

    comps: list[CompressorStation] = []
    for i, cd in enumerate(_list(doc, "compressors")):
        with _entry(f"compressors[{i}]"):
            cid = str(_object(cd, f"compressors[{i}]")["id"])
            ratio = cd.get("ratio")
            pressure = cd.get("pressure")
            comps.append(CompressorStation(
                id=cid,
                inlet_node=str(cd["from"]),
                outlet_node=str(cd["to"]),
                framework=Framework(cd.get("framework", "fc")),
                assumption=Assumption(cd.get("assumption", "am")),
                ratio=_number(cd, "ratio") if ratio is not None else None,
                pressure=(_number(cd, "pressure") * units.pressure
                          if pressure is not None else None),
            ))

    pipes: list[PipeEdge] = []
    for i, pd in enumerate(_list(doc, "pipes")):
        with _entry(f"pipes[{i}]"):
            pipes.append(PipeEdge(
                PipeSpec(str(_object(pd, f"pipes[{i}]")["id"]),
                         _number(pd, "length") * units.length,
                         _number(pd, "diameter") * units.diameter,
                         _number(pd, "friction"), pd.get("cells", 32)),
                str(pd["from"]), str(pd["to"])))

    return NetworkSpec(gas, nodes, pipes, comps)


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
        "nodes": [{"id": nd.id, "type": nd.kind.value} for nd in spec.nodes],
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

    def setpoint_source(self, cid: str, setpoint: str, default: float | None):
        """Profile `<cid>.<setpoint>`, else profile `cid`, else `default` (None: no source)."""
        for key in (f"{cid}.{setpoint}", cid):
            if key in self.profiles:
                return key
        return default


def parse_scenario(text: str, spec: NetworkSpec) -> Scenario:
    """Parse a scenario whose profile keys each name an input of `spec`.

    Syntax, units, values and unknown keys raise a FormatError naming the
    key (module docstring); a missing profile is `bind_inputs`'s check.
    """
    doc = _object(_load_json(text), "the top level")
    units = _parse_units(doc.get("units"))
    with _entry("t_end and dt must be numbers"):
        t_end, dt = _number(doc, "t_end"), _number(doc, "dt")
    if not (math.isfinite(t_end) and math.isfinite(dt)) or t_end <= 0 or dt <= 0:
        raise FormatError("t_end and dt must be positive and finite")

    boundary_ids = {nd.id for nd in spec.nodes if nd.kind is not NodeKind.JUNCTION}
    supply_ids = {nd.id for nd in spec.nodes if nd.kind is NodeKind.SUPPLY}
    setpoint_of = {}   # station profile key -> 'ratio' or 'pressure'
    for st in spec.compressors:
        # the bare id reads as the setpoint the station's variant asks for
        setpoint_of.update({f"{st.id}.ratio": "ratio", f"{st.id}.pressure": "pressure",
                            st.id: st.variant.setpoint})

    profiles_doc = doc.get("profiles", {})
    if not isinstance(profiles_doc, dict):
        raise FormatError("'profiles' must map input ids to profiles")
    profiles = {}
    for key, entries in profiles_doc.items():
        if key not in boundary_ids and key not in setpoint_of:
            raise FormatError(f"profile for unknown input id {key!r}")
        with _entry(f"profile {key!r}"):
            if not (isinstance(entries, list)
                    and all(isinstance(e, list) and len(e) == 2 for e in entries)):
                raise ValueError("entries must be [time, value] number pairs")
            pairs = [dict(zip(("time", "value"), e)) for e in entries]
            times = np.array([_number(e, "time") for e in pairs])
            values = np.array([_number(e, "value") for e in pairs])
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
        row = ",".join(["%.12g"] * (1 + len(ts.names))) + "\n"
        handle.writelines(row % tuple(v.tolist()) for v in np.column_stack([ts.t, ts.data]))

    if hasattr(destination, "write"):
        render(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            render(handle)


def read_timeseries(source) -> TimeSeries:
    """Read a CSV produced by write_timeseries back into a TimeSeries.

    Blank lines are skipped. A file without the time_s header or without
    data rows, a field that is not a number, or a row whose field count
    differs from the header's raises a FormatError naming the line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), 1) if ln]
    first, head = lines[0] if lines else (1, "")
    header = head.split(",")
    if header[0] != "time_s":
        raise FormatError(f"line {first}: not a time-series CSV (missing time_s column)")
    if len(lines) < 2:
        raise FormatError(f"line {first + 1}: no data rows after the header")
    rows = []
    for i, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            raise FormatError(f"line {i}: expected {len(header)} fields as in the header, "
                              f"got {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise FormatError(f"line {i}: a field is not a number: {ln!r}") from None
    body = np.array(rows)
    return TimeSeries(body[:, 0], header[1:], body[:, 1:])


def run_report(ts: TimeSeries, wall_time: float) -> str:
    """The outcome summary of a completed run, printed to standard error.

    Steps, Newton iterations and Jacobians from the series' per-step
    counts, then one `warning:` line per entry of `ts.warnings`.
    """
    iters = np.asarray(ts.newton_iters, dtype=int)
    lines = ["status: ok", f"wall time: {wall_time:.3f} s", f"steps: {iters.size}"]
    if iters.size:
        lines.append(f"newton iterations: total {iters.sum()}, max {iters.max()}/step, "
                     f"jacobians {np.sum(ts.jacobians)}")
    lines += [f"warning: {w}" for w in ts.warnings]
    return "".join(line + "\n" for line in lines)
