import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gasnetsim as gn

from casekit import (DELETE, NET_JSON, SCN_JSON, benchmark_with_model, generated_network,
                     malformed_network)


class TestParseNetwork:
    def test_benchmark_file(self):
        spec = gn.parse_network(NET_JSON)
        assert len(spec.pipes) == 2
        assert spec.pipes[0].spec.length == pytest.approx(181.5e3)
        assert spec.pipes[0].spec.diameter == pytest.approx(1.422)
        assert spec.pipes[0].spec.friction == pytest.approx(0.0018)
        assert spec.gas.c2 == pytest.approx(146412.5)
        st = spec.compressors[0]
        assert st.ratio == 1.2
        assert st.pressure == pytest.approx(84e5)   # bar converted to Pa
        # the file's nodes, as declared: station ends stay junctions
        assert [(nd.id, nd.kind) for nd in spec.nodes] == [
            ("source", gn.NodeKind.SUPPLY), ("station_in", gn.NodeKind.JUNCTION),
            ("station_out", gn.NodeKind.JUNCTION), ("sink", gn.NodeKind.DEMAND)]

    def test_syntax_error_carries_position(self):
        with pytest.raises(gn.FormatError, match=r"line \d+, column \d+"):
            gn.parse_network("{\n  \"gas\": ,\n}")

    # parsing converts entries only; the topology is checked on assembly
    def test_missing_supply_is_semantic_error(self):
        doc = json.loads(NET_JSON)
        doc["nodes"][0]["type"] = "demand"
        spec = gn.parse_network(json.dumps(doc))
        with pytest.raises(gn.ConfigurationError,
                           match=re.escape("[no-pressure-reference] network has no supply")):
            gn.assemble(spec)

    def test_undeclared_node_reference(self):
        doc = json.loads(NET_JSON)
        doc["pipes"][0]["from"] = "nowhere"
        spec = gn.parse_network(json.dumps(doc))
        with pytest.raises(gn.ConfigurationError, match=re.escape(
                "[unknown-node] pipe 'west' references undeclared node 'nowhere'")):
            gn.assemble(spec)

    def test_unknown_unit_tag(self):
        doc = json.loads(NET_JSON)
        doc["units"]["pressure"] = "psi"
        with pytest.raises(gn.FormatError, match="psi"):
            gn.parse_network(json.dumps(doc))

    def test_pressure_units_agree(self):
        doc_bar = json.loads(NET_JSON)
        doc_pa = json.loads(NET_JSON)
        doc_pa["units"]["pressure"] = "Pa"
        doc_pa["compressors"][0]["pressure"] = 8.4e6
        a = gn.parse_network(json.dumps(doc_bar))
        b = gn.parse_network(json.dumps(doc_pa))
        assert a.compressors[0].pressure == b.compressors[0].pressure

    def test_length_units_agree(self):
        doc_km = json.loads(NET_JSON)
        doc_m = json.loads(NET_JSON)
        doc_m["units"]["length"] = "m"
        for p in doc_m["pipes"]:
            p["length"] = p["length"] * 1000.0
        a = gn.parse_network(json.dumps(doc_km))
        b = gn.parse_network(json.dumps(doc_m))
        assert a.pipes[0].spec.length == b.pipes[0].spec.length


NAN, INF = float("nan"), float("inf")

# (path into the network document, new value or DELETE, expected message)
MALFORMED = [
    (("pipes", 0, "diameter"), DELETE, r"pipes\[0\]: missing key 'diameter'"),
    (("gas", "Rs"), DELETE, r"gas: missing key 'Rs'"),
    (("nodes", 0, "id"), DELETE, r"nodes\[0\]: missing key 'id'"),
    (("compressors", 0, "to"), DELETE, r"compressors\[0\]: missing key 'to'"),
    (("pipes", 0, "length"), "abc", r"pipes\[0\]: 'length' must be a number, got 'abc'"),
    (("pipes", 0, "friction"), True, r"pipes\[0\]: 'friction' must be a number, got True"),
    (("compressors", 0, "ratio"), "abc", r"compressors\[0\]: 'ratio' must be a number"),
    (("compressors", 0, "framework"), "xx", r"compressors\[0\]: 'xx' is not a valid Framework"),
    (("pipes", 0, "length"), NAN, r"pipes\[0\]: pipe 'west': length must be finite and positive"),
    (("pipes", 1, "diameter"), 0.0, r"pipe 'east': diameter must be finite and positive"),
    (("pipes", 0, "friction"), NAN, r"friction factor must be finite and nonnegative, got nan"),
    (("gas", "T"), NAN, r"gas: temperature must be finite and positive, got nan"),
    (("pipes", 0, "length"), INF, r"length must be finite and positive, got inf"),
    (("gas", "kappa"), INF, r"gas: isentropic exponent must be finite and exceed 1, got inf"),
    (("compressors", 0, "ratio"), NAN, r"compressor 'station': ratio must be finite and positive"),
    (("compressors", 0, "pressure"), -84.0, r"pressure must be finite and positive"),
    (("pipes", 0, "cells"), 2.5, r"pipe 'west': cell count must be an integer, got 2.5"),
    (("gas",), DELETE, r"missing 'gas' block"),
    (("units", "volume"), "m3", r"unknown unit dimension 'volume'"),
]


@pytest.mark.parametrize("path, value, message", MALFORMED)
def test_malformed_network_names_the_entry_and_the_key(path, value, message):
    # a missing key, a value that is not a number, an unknown choice or a
    # value out of range is a FormatError, never a KeyError or ValueError
    with pytest.raises(gn.FormatError, match=message):
        gn.parse_network(malformed_network(path, value))


@pytest.mark.parametrize("bad", ["west,1", "west\n1", "west\r"])
def test_ids_that_would_split_a_csv_column_are_rejected(bad):
    # pipe and station ids name CSV columns: a ',' or a line break in one
    # would write rows that read_timeseries cannot read back
    message = re.escape(f"{bad!r}: an id names CSV columns")
    with pytest.raises(gn.ConfigurationError, match="pipe " + message):
        gn.PipeSpec(bad, 1e3, 0.5, 0.01)
    with pytest.raises(gn.ConfigurationError, match="compressor " + message):
        gn.CompressorStation(bad, "a", "b", "fc", "am", ratio=1.2)
    with pytest.raises(gn.FormatError, match=r"^pipes\[0\]: pipe " + message):
        gn.parse_network(malformed_network(("pipes", 0, "id"), bad))
    with pytest.raises(gn.FormatError, match=r"^compressors\[0\]: compressor " + message):
        gn.parse_network(malformed_network(("compressors", 0, "id"), bad))


@pytest.mark.parametrize("bad", ["we\ud800st", "\udfff"])
def test_ids_that_are_not_utf8_text_are_rejected(bad):
    # JSON can spell a lone surrogate; such an id would solve the whole run
    # and then fail to encode as a CSV column name
    message = re.escape(f"{bad!r}: an id names CSV columns and must be UTF-8 text")
    with pytest.raises(gn.FormatError, match=r"^pipes\[0\]: pipe " + message):
        gn.parse_network(malformed_network(("pipes", 0, "id"), bad))
    with pytest.raises(gn.FormatError, match=r"^compressors\[0\]: compressor " + message):
        gn.parse_network(malformed_network(("compressors", 0, "id"), bad))


# (path, new value, expected message): blocks and entries of the wrong JSON type
STRUCTURE = [
    ((), 5, r"the top level must be an object, got a number"),
    ((), [1], r"the top level must be an object, got a list"),
    (("gas",), [1], r"'gas' must be an object, got a list"),
    (("units",), ["bar"], r"'units' must be an object, got a list"),
    (("units", "pressure"), ["bar"], r"unknown pressure unit tag \['bar'\]"),
    (("nodes",), 5, r"'nodes' must be a list, got a number"),
    (("pipes",), {"a": 1}, r"'pipes' must be a list, got an object"),
    (("nodes", 1), None, r"nodes\[1\] must be an object, got null"),
    (("nodes", 0, "type"), ["supply"], r"node 'source': unknown type \['supply'\]"),
    (("pipes", 0), 5, r"pipes\[0\] must be an object, got a number"),
    (("compressors", 0), "abc", r"compressors\[0\] must be an object, got a string"),
]


@pytest.mark.parametrize("path, value, message", STRUCTURE)
def test_malformed_structure_names_the_key_or_the_entry(path, value, message):
    # a block or entry of the wrong JSON type is a FormatError, never a raw
    # TypeError or AttributeError
    with pytest.raises(gn.FormatError, match=message):
        gn.parse_network(malformed_network(path, value))


@pytest.mark.parametrize("key, value, message", [
    (None, 5, r"the top level must be an object, got a number"),
    (None, [1], r"the top level must be an object, got a list"),
    ("units", ["bar"], r"'units' must be an object, got a list"),
    ("units", {"pressure": ["bar"]}, r"unknown pressure unit tag"),
])
def test_malformed_scenario_structure_names_the_key(key, value, message):
    doc = json.loads(SCN_JSON)
    if key is None:
        doc = value
    else:
        doc[key] = value
    with pytest.raises(gn.FormatError, match=message):
        gn.parse_scenario(json.dumps(doc), gn.parse_network(NET_JSON))


def random_spec(rng):
    """A randomized valid chain network for round-trip checks."""
    gas = gn.GasProperties(
        float(rng.uniform(300, 600)), float(rng.uniform(250, 300)),
        float(rng.uniform(0.8, 1.1)), float(rng.uniform(1.2, 1.6)))
    n_pipes = int(rng.integers(1, 5))
    nodes = [gn.Node("n0", gn.NodeKind.SUPPLY)]
    pipes = []
    comps = []
    for i in range(n_pipes):
        last = f"n{i}"
        nxt = f"n{i + 1}"
        kind = gn.NodeKind.DEMAND if i == n_pipes - 1 else gn.NodeKind.JUNCTION
        nodes.append(gn.Node(nxt, kind))
        pipes.append(gn.PipeEdge(
            gn.PipeSpec(f"p{i}", float(rng.uniform(1e4, 4e5)),
                        float(rng.uniform(0.4, 1.5)), float(rng.uniform(0.0, 0.01)),
                        int(rng.integers(2, 40))),
            last, nxt))
    if n_pipes >= 2 and rng.random() < 0.7:
        # split an interior junction into a station's two ends
        nodes.insert(2, gn.Node("n1b", gn.NodeKind.JUNCTION))
        pipes[1].from_node = "n1b"
        comps.append(gn.CompressorStation(
            "c0", "n1", "n1b",
            gn.Framework.FIXED_RATIO if rng.random() < 0.5 else gn.Framework.FIXED_PRESSURE,
            gn.Assumption.CONST_VELOCITY if rng.random() < 0.5 else gn.Assumption.CONST_MOMENTUM,
            ratio=float(rng.uniform(1.0, 1.5)), pressure=float(rng.uniform(6e6, 9e6))))
    return gn.NetworkSpec(gas, nodes, pipes, comps)


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        spec = random_spec(rng)
        assert gn.validate_topology(spec).ok
        back = gn.parse_network(gn.serialize_network(spec))
        assert back == spec


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_serialize_round_trip_on_generated_networks(seed):
    # trees and loops with one or two supplies and up to three stations
    text = gn.serialize_network(generated_network(seed)[0])
    assert gn.serialize_network(gn.parse_network(text)) == text


class TestParseScenario:
    def test_benchmark_breakpoints(self):
        spec = gn.parse_network(NET_JSON)
        scen = gn.parse_scenario(SCN_JSON, spec)
        times, values = scen.profiles["sink"]
        assert np.array_equal(times, [0.0, 21600.0, 43200.0, 64800.0])
        assert np.array_equal(values, [200.0, 300.0, 250.0, 150.0])
        assert scen.value("source", 0.0) == pytest.approx(8e6)   # bar -> Pa
        assert scen.t_end == 86400.0 and scen.dt == 100.0

    def test_right_continuous_sampling(self):
        spec = gn.parse_network(NET_JSON)
        scen = gn.parse_scenario(SCN_JSON, spec)
        assert scen.value("sink", 21599.9) == 200.0
        assert scen.value("sink", 21600.0) == 300.0
        assert scen.value("sink", 86400.0) == 150.0

    def test_constant_profile_is_single_breakpoint(self):
        spec = gn.parse_network(NET_JSON)
        scen = gn.parse_scenario(SCN_JSON, spec)
        times, _ = scen.profiles["source"]
        assert times.size == 1

    def test_non_monotone_breakpoints(self):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"]["sink"] = [[0, 1.0], [100, 2.0], [100, 3.0]]
        with pytest.raises(gn.FormatError, match="non-monotone"):
            gn.parse_scenario(json.dumps(doc), spec)

    def test_unknown_profile_id(self):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"]["ghost"] = [[0, 1.0]]
        with pytest.raises(gn.FormatError, match="ghost"):
            gn.parse_scenario(json.dumps(doc), spec)

    @pytest.mark.parametrize("profile, message", [
        ([], r"profile 'sink' is empty"),
        ([[10, 200.0], [3600, 250.0]], r"profile 'sink': first breakpoint must be t=0"),
    ])
    def test_profile_must_start_at_zero(self, profile, message):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"]["sink"] = profile
        with pytest.raises(gn.FormatError, match=message):
            gn.parse_scenario(json.dumps(doc), spec)

    def test_missing_boundary_profile(self):
        # the file parses; binding it to the assembled system finds the gap
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        del doc["profiles"]["sink"]
        scen = gn.parse_scenario(json.dumps(doc), spec)
        with pytest.raises(gn.ConfigurationError,
                           match="missing profile for boundary node 'sink'"):
            gn.bind_inputs(gn.assemble(spec), scen)

    def test_fp_setpoint_pressure_units(self):
        spec, _ = benchmark_with_model("fp-am")
        scen = gn.parse_scenario(SCN_JSON, spec)
        assert scen.value("station.pressure", 0.0) == pytest.approx(8.4e6)

    @pytest.mark.parametrize("tag, key, profile", [
        ("fp-av", "station.pressure", [[0, 84.0], [3600, -5.0]]),
        ("fc-am", "station.ratio", [[0, 1.2], [3600, 0.0]]),
        ("fc-am", "station.ratio", [[0, -1.2]]),
        ("fc-am", "station.pressure", [[0, 0.0]]),
        ("fp-am", "station", [[0, 84.0], [600, -84.0]]),
        ("fc-av", "station", [[0, 0.0]]),
        ("fc-am", "source", [[0, 80.0], [3600, 0.0]]),
        ("fc-am", "source", [[0, -80.0]]),
    ])
    def test_nonpositive_pressure_or_setpoint_is_rejected(self, tag, key, profile):
        spec, _ = benchmark_with_model(tag)
        doc = json.loads(SCN_JSON)
        doc["profiles"][key] = profile
        with pytest.raises(gn.FormatError, match=rf"profile '{key}': .* must be positive"):
            gn.parse_scenario(json.dumps(doc), spec)

    @pytest.mark.parametrize("key", ["sink", "source", "station.ratio", "station.pressure"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_profile_value_is_rejected(self, key, bad):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"][key] = [[0, doc["profiles"][key][0][1]], [3600, bad]]
        with pytest.raises(gn.FormatError, match=rf"profile '{key}': non-finite value"):
            gn.parse_scenario(json.dumps(doc), spec)

    @pytest.mark.parametrize("profile", [
        [[0, "abc"]], [["zero", 1.0]], [[0]], [[]], [None], "abc", 5, [[0, None]],
    ])
    def test_malformed_profile_entries_name_the_key(self, profile):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"]["sink"] = profile
        with pytest.raises(gn.FormatError, match="profile 'sink'"):
            gn.parse_scenario(json.dumps(doc), spec)

    def test_nonfinite_breakpoint_is_rejected(self):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"]["sink"] = [[0, 200.0], [float("inf"), 300.0]]
        with pytest.raises(gn.FormatError, match="profile 'sink': non-finite breakpoint"):
            gn.parse_scenario(json.dumps(doc), spec)

    @pytest.mark.parametrize("profiles", [[], [["sink", [[0, 1.0]]]], "sink", None])
    def test_profiles_must_be_a_mapping(self, profiles):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"] = profiles
        with pytest.raises(gn.FormatError, match="'profiles'"):
            gn.parse_scenario(json.dumps(doc), spec)

    @pytest.mark.parametrize("key", ["t_end", "dt"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "abc", None])
    def test_nonfinite_or_non_numeric_horizon_is_rejected(self, key, bad):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc[key] = bad
        with pytest.raises(gn.FormatError, match="t_end and dt must be"):
            gn.parse_scenario(json.dumps(doc), spec)

    def test_negative_demand_is_accepted(self):
        # reverse flow is supported, so demands keep their sign
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        doc["profiles"]["sink"] = [[0, 200.0], [3600, -50.0], [7200, 0.0]]
        scen = gn.parse_scenario(json.dumps(doc), spec)
        assert np.array_equal(scen.profiles["sink"][1], [200.0, -50.0, 0.0])

    @pytest.mark.parametrize("key, value, message", [
        ("dt", True, "t_end and dt must be numbers"),
        ("dt", "100", "t_end and dt must be numbers"),
        ("t_end", "86400", "t_end and dt must be numbers"),
        ("sink", [[0, True]], "profile 'sink'"),
        ("sink", [["0", "250"]], "profile 'sink'"),
        ("sink", [[0, 250.0, 300.0]], "profile 'sink'"),
    ])
    def test_booleans_strings_and_extra_fields_are_not_numbers(self, key, value, message):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        (doc["profiles"] if key == "sink" else doc)[key] = value
        with pytest.raises(gn.FormatError, match=message):
            gn.parse_scenario(json.dumps(doc), spec)


def _one(value):
    return np.zeros(1), np.array([value])


class TestSetpointSource:
    """One rule, for parsing and binding: own key, else the bare id, else the default."""

    @staticmethod
    def parsed(tag, profiles, defaults=True):
        doc = json.loads(NET_JSON)
        comp = doc["compressors"][0]
        comp["framework"], comp["assumption"] = tag.split("-")
        if not defaults:
            del comp["ratio"], comp["pressure"]
        spec = gn.parse_network(json.dumps(doc))
        scn = json.loads(SCN_JSON)
        scn["profiles"] = {"source": [[0, 80.0]], "sink": [[0, 200.0]], **profiles}
        return spec, json.dumps(scn)

    @pytest.mark.parametrize("tag, profiles, want", [
        ("fc-am", {"station.ratio": [[0, 1.3]], "station": [[0, 1.1]]}, 1.3),
        ("fp-av", {"station.pressure": [[0, 85.0]], "station": [[0, 83.0]]}, 85e5),
        ("fc-av", {"station": [[0, 1.1]]}, 1.1),
        ("fp-am", {"station": [[0, 83.0]]}, 83e5),            # bare id, in bar
        ("fc-am", {}, 1.2),                                   # the network file's default
        ("fp-am", {}, 84e5),
        ("fc-am", {"station.pressure": [[0, 85.0]]}, 1.2),    # the other framework's key
    ])
    def test_precedence_from_a_file(self, tag, profiles, want):
        spec, text = self.parsed(tag, profiles)
        input_fn = gn.bind_inputs(gn.assemble(spec), gn.parse_scenario(text, spec))[0]
        assert input_fn(0.0)["station"] == want

    def test_precedence_from_a_hand_built_scenario(self):
        spec, _ = benchmark_with_model("fp-av")
        g = gn.assemble(spec)
        base = {"source": _one(80e5), "sink": _one(200.0)}

        def station_input(**extra):
            scen = gn.Scenario(100.0, 100.0, {**base, **extra})
            return gn.bind_inputs(g, scen)[0](0.0)["station"]

        assert station_input(**{"station.pressure": _one(85e5), "station": _one(83e5)}) == 85e5
        assert station_input(station=_one(83e5)) == 83e5
        assert station_input(**{"station.ratio": _one(1.3)}) == 84e5

    def test_no_source_fails_in_bind_inputs(self):
        # a parsed and a hand-built scenario fail the same one check
        spec, text = self.parsed("fc-am", {"station.pressure": [[0, 85.0]]}, defaults=False)
        g = gn.assemble(spec)
        hand_built = gn.Scenario(100.0, 100.0, {"source": _one(80e5), "sink": _one(200.0)})
        assert hand_built.setpoint_source("station", "ratio", None) is None
        for scen in (gn.parse_scenario(text, spec), hand_built):
            with pytest.raises(gn.ConfigurationError,
                               match="missing setpoint profile for compressor 'station'"):
                gn.bind_inputs(g, scen)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_sampled_inputs_equal_scenario_value(seed, data):
    # generated networks with random profiles and station defaults: bind_inputs'
    # sampler gives Scenario.value at, and just either side of, every
    # breakpoint, before the first and past the last
    spec, _ = generated_network(seed)
    floats = st.floats(-1e7, 1e7, allow_nan=False)

    def profile():
        times = sorted(data.draw(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=5,
                                          unique=True)))
        return np.array(times), np.array(data.draw(st.lists(floats, min_size=len(times),
                                                            max_size=len(times))))

    profiles = {nd.id: profile() for nd in spec.nodes if nd.kind is not gn.NodeKind.JUNCTION}
    for cs in spec.compressors:
        cs.ratio, cs.pressure = data.draw(st.floats(1.0, 2.0)), data.draw(st.floats(1e5, 1e7))
        key = data.draw(st.sampled_from([None, cs.id, f"{cs.id}.ratio", f"{cs.id}.pressure"]))
        if key is not None:
            profiles[key] = profile()
    g = gn.assemble(spec)
    scen = gn.Scenario(1e5, 100.0, profiles)
    source = {nd.id: nd.id for nd in g.boundary}
    source.update({s.id: scen.setpoint_source(s.id, s.variant.setpoint, s.default)
                   for s in g.stations})
    input_fn = gn.bind_inputs(g, scen)[0]
    breaks = np.unique(np.concatenate([times for times, _ in profiles.values()]))
    for t in np.concatenate([breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
                             [-1.0, breaks[-1] + 1.0]]).tolist():
        want = {key: scen.value(src, t) if isinstance(src, str) else src
                for key, src in source.items()}
        assert input_fn(t) == want, t


class TestTimeseriesCSV:
    def run_short(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        return gn.simulate(g, scen, gn.SolverConfig(t_end=1000.0))

    def test_column_schema(self):
        ts = self.run_short()
        buf = io.StringIO()
        gn.write_timeseries(ts, buf)
        lines = buf.getvalue().split("\n")
        header = lines[0].split(",")
        # time + 2 pipes * 2 ends * 2 quantities + H + 1 compressor power
        assert len(header) == 1 + 2 * 2 * 2 + 1 + 1 == 11
        assert header[0] == "time_s"
        assert header[-1] == "station.power"
        assert len([ln for ln in lines if ln]) == ts.n_samples + 1

    def test_no_power_columns_without_compressor(self, gas):
        from casekit import single_pipe_system
        g = single_pipe_system(gas, n_cells=8)
        scen = gn.Scenario(t_end=200.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([80e5])),
            "d": (np.array([0.0]), np.array([100.0]))})
        ts = gn.simulate(g, scen)
        assert not any(nm.endswith(".power") for nm in ts.names)

    def test_deterministic_output(self):
        ts = self.run_short()
        a, b = io.StringIO(), io.StringIO()
        gn.write_timeseries(ts, a)
        gn.write_timeseries(ts, b)
        assert a.getvalue() == b.getvalue()
        assert "\r" not in a.getvalue()

    @staticmethod
    def per_value_csv(ts):
        """The CSV rendered value by value, each with its own f-string."""
        lines = ["time_s," + ",".join(ts.names)]
        lines += [",".join([f"{ts.t[i]:.12g}"] + [f"{v:.12g}" for v in ts.data[i]])
                  for i in range(ts.n_samples)]
        return "\n".join(lines) + "\n"

    def test_rows_equal_the_per_value_rendering_on_the_day_run(self, tmp_path):
        spec, scen = benchmark_with_model("fc-am")
        ts = gn.simulate(gn.assemble(spec), scen, gn.SolverConfig(dt=3600.0))
        path = tmp_path / "day.csv"
        gn.write_timeseries(ts, path)
        assert path.read_bytes() == self.per_value_csv(ts).encode("utf-8")

    def test_rows_equal_the_per_value_rendering_on_special_values(self):
        values = [0.0, -0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 1.0 / 3.0]
        ts = gn.TimeSeries(np.array([0.0, 1.0 / 3.0, 1e300]), ["a", "b"],
                           np.array(values[:6]).reshape(3, 2))
        ts2 = gn.TimeSeries(np.array([-0.0]), [f"c{i}" for i in range(8)],
                            np.array([values]))
        for series in (ts, ts2):
            buf = io.StringIO()
            gn.write_timeseries(series, buf)
            assert buf.getvalue() == self.per_value_csv(series)

    def test_round_trip_to_printed_precision(self, tmp_path):
        ts = self.run_short()
        path = tmp_path / "out.csv"
        gn.write_timeseries(ts, path)
        back = gn.read_timeseries(path)
        assert back.names == ts.names
        assert np.allclose(back.t, ts.t, rtol=1e-11)
        assert np.allclose(back.data, ts.data, rtol=1e-10)

    def test_benchmark_row_count(self):
        ts = self.run_short()
        assert ts.data.shape == (11, 10)

    def test_empty_series_is_not_written(self):
        ts = gn.TimeSeries(np.zeros(0), ["a"], np.zeros((0, 1)))
        with pytest.raises(gn.FormatError, match="refusing to write an empty time series"):
            gn.write_timeseries(ts, io.StringIO())

    @pytest.mark.parametrize("text, message", [
        ("", r"^line 1: not a time-series CSV"),
        ("time_s,a\n", r"^line 2: no data rows after the header$"),
        ("time_s,a\n0,1\n\n100,abc\n", r"^line 4: a field is not a number: '100,abc'$"),
        ("time_s,a\n0,1,2\n", r"^line 2: expected 2 fields as in the header, got 3$"),
        ("time_s,a,b\n0,1,2\n100,1\n", r"^line 3: expected 3 fields as in the header, got 2$"),
    ])
    def test_malformed_csv_names_the_line(self, text, message):
        with pytest.raises(gn.FormatError, match=message):
            gn.read_timeseries(io.StringIO(text))


def test_run_report_summary():
    # the exact text, so a change to the report is a change to this test:
    # a transient with warnings, and a steady run (no steps, no Newton line)
    ts = gn.TimeSeries(np.array([0.0, 1.0]), ["a"], np.zeros((2, 1)),
                       newton_iters=np.array([3]), warnings=["w1", "w2"],
                       jacobians=np.array([2]))
    assert gn.run_report(ts, 1.25) == (
        "status: ok\n"
        "wall time: 1.250 s\n"
        "steps: 1\n"
        "newton iterations: total 3, max 3/step, jacobians 2\n"
        "warning: w1\n"
        "warning: w2\n")
    steady = gn.TimeSeries(np.array([0.0]), ["a"], np.zeros((1, 1)))
    assert gn.run_report(steady, 0.0004) == "status: ok\nwall time: 0.000 s\nsteps: 0\n"
