import json

import numpy as np
import pytest

import gasnetsim as gn
from gasnetsim.cli import main

from casekit import DELETE, NET_JSON, SCN_JSON, malformed_network


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


def test_run_reports_to_stderr(files, tmp_path, capsys):
    net, scn = files
    out = tmp_path / "r.csv"
    assert main(["run", str(net), str(scn), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "status: ok" in err
    assert "newton iterations" in err


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
])
@pytest.mark.parametrize("command", ["validate", "steady"])
def test_malformed_network_exits_1_naming_the_key(files, tmp_path, capsys, path, value,
                                                   key, command):
    # an input error is reported as one, before any solve: never a
    # traceback, a solver failure (exit 2) or a CSV
    _, scn = files
    bad = tmp_path / "bad.net.json"
    bad.write_text(malformed_network(path, value))
    out = tmp_path / "bad.csv"
    argv = [command, str(bad)] + ([str(scn), "--out", str(out)] if command == "steady" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


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
