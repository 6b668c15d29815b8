import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gasnetsim as gn
from gasnetsim.cli import _apply_model_override, main

from casekit import (DELETE, NET_JSON, PARALLEL_NET_JSON, PARALLEL_SCN_JSON, PARALLEL_SINGULAR,
                     SCN_JSON, malformed_network)


@pytest.fixture()
def files(tmp_path):
    net = tmp_path / "yamal.net.json"
    net.write_text(NET_JSON)
    doc = json.loads(SCN_JSON)
    doc["t_end"] = 3600          # keep CLI tests quick
    doc["dt"] = 300
    scn = tmp_path / "day.scn.json"
    scn.write_text(json.dumps(doc))
    return net, scn


def test_validate_ok(files, capsys):
    net, _ = files
    assert main(["validate", str(net)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_file(files, tmp_path, capsys):
    doc = json.loads(NET_JSON)
    doc["pipes"][0]["from"] = "ghost"
    bad = tmp_path / "bad.net.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "ghost" in capsys.readouterr().err


def test_unknown_flag_exits_64(files):
    net, scn = files
    assert main(["run", str(net), str(scn), "--frobnicate"]) == 64


def test_missing_subcommand_exits_64():
    assert main([]) == 64


def test_run_fc_am_shows_ratio_jump(files, tmp_path):
    net, scn = files
    out = tmp_path / "run.csv"
    code = main(["run", str(net), str(scn), "--model", "fc-am", "--out", str(out)])
    assert code == 0
    ts = gn.read_timeseries(out)
    ratio = ts.column("east.in.p_Pa") / ts.column("west.out.p_Pa")
    assert np.allclose(ratio, 1.2, rtol=1e-9)


def test_run_model_none_behaves_like_junction(files, tmp_path):
    net, scn = files
    out = tmp_path / "none.csv"
    assert main(["run", str(net), str(scn), "--model", "none", "--out", str(out)]) == 0
    ts = gn.read_timeseries(out)
    assert not any(nm.endswith(".power") for nm in ts.names)
    assert np.allclose(ts.column("east.in.p_Pa"), ts.column("west.out.p_Pa"), rtol=1e-9)


def test_run_dt_and_cells_overrides(files, tmp_path):
    net, scn = files
    out = tmp_path / "o.csv"
    assert main(["run", str(net), str(scn), "--dt", "600", "--cells", "8",
                 "--out", str(out)]) == 0
    ts = gn.read_timeseries(out)
    assert ts.t.size == 7          # 3600 s at dt 600

    # steady state with 8 cells should still be close to the 32-cell answer
    out2 = tmp_path / "s.csv"
    assert main(["steady", str(net), str(scn), "--cells", "8", "--out", str(out2)]) == 0
    ts2 = gn.read_timeseries(out2)
    assert ts2.t.size == 1


def test_steady_writes_single_row(files, tmp_path):
    net, scn = files
    out = tmp_path / "steady.csv"
    assert main(["steady", str(net), str(scn), "--out", str(out)]) == 0
    ts = gn.read_timeseries(out)
    assert ts.t.size == 1
    assert ts.column("east.in.p_Pa")[0] / ts.column("west.out.p_Pa")[0] == pytest.approx(1.2)


@pytest.mark.parametrize("policy", ["full", "chord"])
def test_run_reports_to_stderr(files, tmp_path, capsys, monkeypatch, policy):
    # the report prints the Jacobians built beside the Newton iterations
    # over a demand step at 600 s: one per iteration under full Newton,
    # fewer under chord Newton (forced here by a sparse threshold of 0)
    if policy == "chord":
        monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 0)
    net, scn = files
    doc = json.loads(scn.read_text())
    doc["profiles"]["sink"] = [[0, 200.0], [600, 260.0]]
    scn.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    assert main(["run", str(net), str(scn), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "status: ok" in err
    total, jacobians = map(int, re.search(
        r"^newton iterations: total (\d+), max \d+/step, jacobians (\d+)$", err, re.M).groups())
    assert (jacobians == total) if policy == "full" else (0 < jacobians < total)


def test_missing_file_exits_1(tmp_path):
    assert main(["validate", str(tmp_path / "nope.net.json")]) == 1


@pytest.mark.parametrize("case", ["out is a directory", "network is a directory",
                                  "network is not UTF-8"])
def test_file_errors_exit_1_naming_the_path(files, tmp_path, capsys, case):
    # file-system and encoding errors are input errors: exit 1 and one
    # message line naming the path, not a traceback
    net, scn = files
    if case == "out is a directory":
        argv, path = ["steady", str(net), str(scn), "--out", str(tmp_path)], tmp_path
    elif case == "network is a directory":
        argv, path = ["validate", str(tmp_path)], tmp_path
    else:
        net.write_bytes(b"\xff\xfe")
        argv, path = ["validate", str(net)], net
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["steady", "run"])
@pytest.mark.parametrize("case", ["a directory", "a missing parent"])
def test_unwritable_out_exits_1_before_solving(files, tmp_path, capsys, monkeypatch,
                                                command, case):
    def no_solve(*args, **kwargs):
        raise AssertionError("simulate ran for an output path that cannot be written")

    monkeypatch.setattr("gasnetsim.cli.simulate", no_solve)
    net, scn = files
    out = tmp_path if case == "a directory" else tmp_path / "missing" / "run.csv"
    assert main([command, str(net), str(scn), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_fp_model_override_uses_pressure_profile(files, tmp_path):
    net, scn = files
    out = tmp_path / "fp.csv"
    assert main(["run", str(net), str(scn), "--model", "fp-am", "--out", str(out)]) == 0
    ts = gn.read_timeseries(out)
    assert np.allclose(ts.column("east.in.p_Pa"), 8.4e6, rtol=1e-9)


def test_tolerance_flag(files, tmp_path):
    net, scn = files
    out = tmp_path / "t.csv"
    assert main(["run", str(net), str(scn), "--tol", "1e-10", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, key", [
    (["run", "--dt", "0"], "dt"), (["run", "--dt", "-5"], "dt"),
    (["run", "--dt", "inf"], "dt"), (["run", "--dt", "nan"], "dt"),
    (["run", "--tol", "-1"], "newton_abs_tol"), (["run", "--tol", "nan"], "newton_abs_tol"),
    (["run", "--tol", "0"], "newton_abs_tol"), (["steady", "--tol", "-1"], "newton_abs_tol"),
])
def test_invalid_solver_flags_exit_1_before_solving(files, tmp_path, capsys, argv, key):
    # the flags go through SolverConfig's checks: no traceback, no empty
    # run, no nonconvergence report, and no CSV
    net, scn = files
    out = tmp_path / "bad.csv"
    assert main([argv[0], str(net), str(scn), "--out", str(out)] + argv[1:]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("path, value, key", [
    (("pipes", 0, "diameter"), DELETE, "'diameter'"),
    (("gas", "Rs"), DELETE, "'Rs'"),
    (("compressors", 0, "framework"), "xx", "Framework"),
    (("pipes", 0, "length"), float("nan"), "length"),
    (("gas", "T"), float("nan"), "temperature"),
    (("pipes", 0, "length"), float("inf"), "length"),
    (("pipes", 0, "cells"), 2.5, "cell count"),
    (("nodes", 2), {"id": "elsewhere"}, "undeclared node 'station_out'"),   # a station end
    (("nodes", 1, "type"), "supply", "node 'station_in' is supply"),
])
@pytest.mark.parametrize("command", ["validate", "steady", "run --model none"])
def test_malformed_network_exits_1_naming_the_key(files, tmp_path, capsys, path, value,
                                                   key, command):
    # an input error is reported as one, before any solve: never a
    # traceback, a solver failure (exit 2) or a CSV; fusing the stations
    # away does not repair a bad station end
    _, scn = files
    bad = tmp_path / "bad.net.json"
    bad.write_text(malformed_network(path, value))
    out = tmp_path / "bad.csv"
    name, *flags = command.split()
    argv = [name, str(bad)] + ([str(scn), "--out", str(out)] + flags if name != "validate" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv, calls", [
    (["steady"], 1), (["run"], 1), (["run", "--model", "fp-av"], 1),
    (["run", "--model", "none"], 2),        # the file's spec, then the fused one
])
def test_topology_is_validated_once_per_spec(files, tmp_path, monkeypatch, argv, calls):
    counted = []
    validate = gn.network.validate_topology

    def counting(spec):
        counted.append(spec)
        return validate(spec)

    monkeypatch.setattr(gn.network, "validate_topology", counting)
    net, scn = files
    out = tmp_path / "o.csv"
    assert main([argv[0], str(net), str(scn), "--out", str(out)] + argv[1:]) == 0
    assert len(counted) == calls
    assert len({id(spec) for spec in counted}) == calls


@pytest.mark.parametrize("command", ["steady", "run", "run --model none"])
def test_missing_boundary_profile_exits_1(files, tmp_path, capsys, command):
    net, scn = files
    doc = json.loads(scn.read_text())
    del doc["profiles"]["sink"]
    scn.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    name, *flags = command.split()
    assert main([name, str(net), str(scn), "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == "error: missing profile for boundary node 'sink'\n"
    assert not out.exists()


@pytest.mark.parametrize("model, code", [("fc-am", 1), ("fp-av", 1), ("none", 0)])
def test_station_without_setpoint_fails_unless_fused(files, tmp_path, capsys, model, code):
    # the setpoint is asked of the stations the run assembles, so a station
    # fused into a junction needs none
    net, scn = files
    doc = json.loads(NET_JSON)
    del doc["compressors"][0]["ratio"], doc["compressors"][0]["pressure"]
    net.write_text(json.dumps(doc))
    doc = json.loads(scn.read_text())
    del doc["profiles"]["station.ratio"], doc["profiles"]["station.pressure"]
    scn.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["run", str(net), str(scn), "--model", model, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: missing setpoint profile for compressor 'station'\n"
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("path, value, key", [
    (("pipes", 0), 5, "pipes[0] must be an object"),
    (("nodes",), 5, "'nodes' must be a list"),
    (("units",), ["bar"], "'units' must be an object"),
    ((), [], "the top level must be an object"),
])
def test_malformed_structure_validate_exits_1(tmp_path, capsys, path, value, key):
    # a block or entry of the wrong JSON type is an input error: exit 1 and
    # one message naming it, not a traceback out of the parser
    bad = tmp_path / "bad.net.json"
    bad.write_text(malformed_network(path, value))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err


@pytest.mark.parametrize("cells", [256, 600])
def test_day_line_imports_no_scipy(tmp_path, cells):
    # the day line at 256 cells (n = 1032) lies below the sparse threshold
    # (full Newton), at 600 (n = 2408) above it (chord Newton); at both every
    # Newton step runs on the block factor, so the run never imports
    # scipy.sparse.linalg (about 30 MB), nor any other scipy module
    n = gn.assemble(_apply_model_override(gn.parse_network(NET_JSON), None, cells)).n
    assert (n > gn.SolverConfig.sparse_threshold) == (cells == 600)
    net, scn, out = tmp_path / "yamal.net.json", tmp_path / "day.scn.json", tmp_path / "o.csv"
    net.write_text(NET_JSON)
    scn.write_text(SCN_JSON)
    code = ("import sys\n"
            "from gasnetsim.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(status)\n")
    src = str(Path(gn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, "run", str(net), str(scn),
                           "--cells", str(cells), "--dt", "900", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert gn.read_timeseries(out).t.size == 97      # 24 h at dt 900
    imported = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert "scipy.sparse.linalg" not in imported
    assert imported == []


def test_model_and_cell_overrides_leave_the_parsed_spec_as_read():
    # --model and --cells build the spec that is solved; the parsed one
    # keeps the file's station model and cell count
    spec = gn.parse_network(NET_JSON)
    read = gn.serialize_network(spec)
    solved = gn.assemble(_apply_model_override(spec, "fp-av", 8)).spec
    assert gn.serialize_network(spec) == read
    for text, model, cells in [(read, ["fc", "am"], 32),
                               (gn.serialize_network(solved), ["fp", "av"], 8)]:
        doc = json.loads(text)
        assert [[c["framework"], c["assumption"]] for c in doc["compressors"]] == [model]
        assert [p["cells"] for p in doc["pipes"]] == [cells, cells]


def test_bad_cells_is_reported_before_topology_faults(files, tmp_path, capsys):
    # --cells builds a new spec before anything assembles or fuses it
    _, scn = files
    bad = tmp_path / "bad.net.json"
    bad.write_text(malformed_network(("nodes", 2), {"id": "elsewhere"}))
    out = tmp_path / "o.csv"
    assert main(["run", str(bad), str(scn), "--cells", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: pipe 'west': need at least 2 cells, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("dt, steps", [("1e-300", "8.64e+304"), ("1e-12", "8.64e+16"),
                                       ("1e-310", "inf")])
def test_step_count_the_records_cannot_hold_exits_1(tmp_path, capsys, dt, steps):
    # numpy refuses these record sizes without touching memory, and the run
    # stops before its steady solve; a dt whose records numpy could allocate
    # (1e-3 s is 86.4 M steps) is never tried
    net, scn, out = tmp_path / "yamal.net.json", tmp_path / "day.scn.json", tmp_path / "o.csv"
    net.write_text(NET_JSON)
    scn.write_text(SCN_JSON)
    assert main(["run", str(net), str(scn), "--dt", dt, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: t_end=86400 s at dt={dt} s gives {steps} steps, "
                                       "more than the records can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["steady", "run"])
def test_singular_jacobian_exits_2(tmp_path, capsys, command):
    net, scn, out = tmp_path / "par.net.json", tmp_path / "par.scn.json", tmp_path / "o.csv"
    net.write_text(PARALLEL_NET_JSON)
    scn.write_text(PARALLEL_SCN_JSON)
    assert main([command, str(net), str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"solver aborted: steady-state solve failed: {PARALLEL_SINGULAR}\n")
    assert not out.exists()


@pytest.mark.parametrize("source, sink, t", [(40.0, 1000.0, "7900.0"), (60.0, 1500.0, "9300.0")])
def test_non_positive_outlet_pressure_exits_2(tmp_path, capsys, source, sink, t):
    # a demand surge drains the upstream pipe until its extrapolated outlet
    # pressure, which the fp-am station's power reads, falls to zero or below
    doc = json.loads(SCN_JSON)
    doc["profiles"].update(source=[[0, source]], sink=[[0, 150], [3600, sink]])
    net, scn, out = tmp_path / "yamal.net.json", tmp_path / "surge.scn.json", tmp_path / "o.csv"
    net.write_text(NET_JSON)
    scn.write_text(json.dumps(doc))
    assert main(["run", str(net), str(scn), "--model", "fp-am", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"solver aborted: non-positive outlet pressure in pipe 'west' at t={t}\n")
    assert not out.exists()


def test_singular_step_jacobian_exits_2(files, tmp_path, capsys, monkeypatch):
    # a step residual that ignores the last unknown has a zero Jacobian column
    make = gn.GlobalSystem.make_step_residual

    def frozen(self, *args):
        fun = make(self, *args)
        return lambda v: fun(np.concatenate([v[:-1], [80e5]]))

    monkeypatch.setattr(gn.GlobalSystem, "make_step_residual", frozen)
    net, scn = files
    out = tmp_path / "o.csv"
    assert main(["run", str(net), str(scn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver aborted: step at t=300 s failed: "
                          "Jacobian factorization failed: ") and "Traceback" not in err
    assert not out.exists()


def test_bare_setpoint_reads_per_the_overridden_model(files, tmp_path):
    # the scenario is parsed against the stations as solved: under --model
    # fp-av a bare station key is a pressure, in the scenario's bar
    net, scn = files
    doc = json.loads(scn.read_text())
    del doc["profiles"]["station.ratio"], doc["profiles"]["station.pressure"]
    doc["profiles"]["station"] = [[0, 84.0]]
    scn.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["run", str(net), str(scn), "--model", "fp-av", "--out", str(out)]) == 0
    assert np.allclose(gn.read_timeseries(out).column("east.in.p_Pa"), 84e5, rtol=1e-9)
