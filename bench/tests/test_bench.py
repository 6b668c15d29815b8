"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the repository root: python -m pytest -q bench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import gasnetsim as gn
from checks import check_operation, fingerprint
from harness import Spans, layer_metrics, operation
from workloads import (LADDER_RUNGS, VARIANTS, WORKLOADS, day5_cases, ladder_case,
                       shorten)

DATA = Path(__file__).resolve().parents[2] / "data"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    make = WORKLOADS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_networks_are_valid(workload):
    for case in WORKLOADS[workload](3):
        spec = gn.parse_network(case.network)
        assert gn.validate_topology(spec).ok
        gn.parse_scenario(case.scenario, spec)


def test_day_line_is_the_shipped_network():
    shipped = gn.parse_network((DATA / "yamal.net.json").read_text())
    fc_am = next(c for c in day5_cases(1) if c.label == "fc-am")
    assert gn.serialize_network(gn.parse_network(fc_am.network)) == \
        gn.serialize_network(shipped)


def test_day_schedule_stays_in_shipped_range():
    for seed in range(20):
        sink = json.loads(day5_cases(seed)[0].scenario)["profiles"]["sink"]
        assert all(150.0 <= v <= 300.0 for _, v in sink)


def test_ladder_size_and_station_cycle():
    case = ladder_case(5)
    spec = gn.parse_network(case.network)
    gsys = gn.assemble(spec)
    assert 2500 <= gsys.n <= 3500 and gsys.n > gn.SolverConfig().sparse_threshold
    assert 80 <= len(spec.pipes) <= 100
    tags = [f"{st.framework.value}-{st.assumption.value}" for st in spec.compressors]
    assert tags == [VARIANTS[i % 4] for i in range(8)]
    demands = [nd for nd in spec.nodes if nd.kind is gn.NodeKind.DEMAND]
    assert len(demands) == LADDER_RUNGS


def _run(case, detail, tmp_path):
    spans = Spans()
    spans.op_id = 0
    ts = operation(spans, case, detail, tmp_path / "out.csv")
    return spans, ts


@pytest.fixture(scope="module")
def short_day(tmp_path_factory):
    case = shorten(next(c for c in day5_cases(2) if c.label == "fc-av"), 40)
    spans, ts = _run(case, False, tmp_path_factory.mktemp("day"))
    return case, ts


def test_checks_pass_on_good_output(short_day):
    case, ts = short_day
    assert check_operation(ts, case.network, case.scenario) == []


def test_checks_pass_on_short_ladder(tmp_path):
    case = shorten(ladder_case(4), 3)
    _, ts = _run(case, False, tmp_path)
    assert check_operation(ts, case.network, case.scenario) == []


def _corrupt(ts, how):
    data, mass = ts.data.copy(), ts.mass_total.copy()
    t, iters = ts.t, ts.newton_iters
    if how == "station":
        data[17, ts.names.index("east.in.p_Pa")] *= 1.0 + 1e-4
    elif how == "momentum":
        data[5, ts.names.index("east.in.m")] *= 1.0 + 1e-4
    elif how == "nan":
        data[3, 0] = np.nan
    elif how == "ledger":
        mass[9] += 1.0
    elif how == "short":
        data, mass, t, iters = data[:-1], mass[:-1], t[:-1], iters[:-1]
    return gn.TimeSeries(t, ts.names, data, iters, mass, ts.influx_mid, list(ts.warnings))


@pytest.mark.parametrize("how", ["station", "momentum", "nan", "ledger", "short"])
def test_corrupted_record_trips_the_checks(short_day, how):
    case, ts = short_day
    assert check_operation(_corrupt(ts, how), case.network, case.scenario)


def test_fingerprint_has_twelve_digits(short_day):
    _, ts = short_day
    fp = fingerprint(ts)
    assert list(fp) == ts.names
    assert float(fp["H_total"]) == pytest.approx(ts.column("H_total").sum(), rel=1e-11)


def test_traced_and_untraced_counts_agree(tmp_path, monkeypatch):
    case = shorten(next(c for c in day5_cases(3) if c.label == "fp-av"), 30)
    calls = 0
    core = gn.GlobalSystem._residual_core

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return core(self, *args)

    monkeypatch.setattr(gn.GlobalSystem, "_residual_core", counted)
    _, ts_plain = _run(case, False, tmp_path)
    plain_calls, calls = calls, 0
    spans, ts_traced = _run(case, True, tmp_path)

    layers = {k: v for k, (v, _) in layer_metrics(spans, [0]).items()}
    assert layers["timeloop.newton.iters"] == ts_plain.newton_iters.sum()
    assert layers["network.residual.calls"] == plain_calls == calls
    assert np.array_equal(ts_plain.data, ts_traced.data)
    assert layers["timeloop.newton.fd_calls"] == \
        layers["timeloop.newton.iters"] * layers["network.colors"]


def test_span_self_times_sum_to_operation_wall_time(tmp_path):
    case = shorten(day5_cases(4)[3], 20)
    spans, _ = _run(case, True, tmp_path)
    op, name, dur, self_t, parent = spans.arrays()
    assert np.all(np.isfinite(dur)) and np.all(self_t >= -1e-9)
    root = dur[name == "op"]
    assert root.size == 1
    assert self_t.sum() == pytest.approx(root[0], rel=1e-9)
    assert set(parent[parent >= 0]) <= set(range(len(name)))
