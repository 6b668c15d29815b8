import io
import json

import numpy as np
import pytest

import gasnetsim as gn

from casekit import NET_JSON, SCN_JSON, benchmark_with_model


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
        kinds = {nd.id: nd.kind for nd in spec.nodes}
        assert kinds["station_in"] is gn.NodeKind.COMPRESSOR_IN
        assert kinds["station_out"] is gn.NodeKind.COMPRESSOR_OUT

    def test_syntax_error_carries_position(self):
        with pytest.raises(gn.FormatError, match=r"line \d+, column \d+"):
            gn.parse_network("{\n  \"gas\": ,\n}")

    def test_missing_supply_is_semantic_error(self):
        doc = json.loads(NET_JSON)
        doc["nodes"][0]["type"] = "demand"
        with pytest.raises(gn.FormatError, match="no-pressure-reference"):
            gn.parse_network(json.dumps(doc))

    def test_undeclared_node_reference(self):
        doc = json.loads(NET_JSON)
        doc["pipes"][0]["from"] = "nowhere"
        with pytest.raises(gn.FormatError, match="nowhere"):
            gn.parse_network(json.dumps(doc))

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
        # turn an interior junction into a compressor pair
        mid = nodes[1]
        mid.kind = gn.NodeKind.COMPRESSOR_IN
        mid.compressor_id = "c0"
        nodes.insert(2, gn.Node("n1b", gn.NodeKind.COMPRESSOR_OUT, "c0"))
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

    def test_missing_boundary_profile(self):
        spec = gn.parse_network(NET_JSON)
        doc = json.loads(SCN_JSON)
        del doc["profiles"]["sink"]
        with pytest.raises(gn.FormatError, match="sink"):
            gn.parse_scenario(json.dumps(doc), spec)

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


def test_run_report_summary():
    ts = gn.TimeSeries(np.array([0.0, 1.0]), ["a"], np.zeros((2, 1)),
                       newton_iters=np.array([3]), warnings=["w1"])
    rep = gn.RunReport.from_timeseries(ts, 1.25)
    text = rep.summary()
    assert "steps: 1" in text
    assert "w1" in text
