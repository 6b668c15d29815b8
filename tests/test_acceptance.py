"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The full-day benchmark runs are shared module-wide so the suite stays fast.
"""

import time

import numpy as np
import pytest

import gasnetsim as gn

from casekit import (benchmark_with_model, closed_pipe, direct_line, incidence_matrices,
                     record_dict, rel_column_diff, single_pipe_system)

MODELS = ("none", "fc-av", "fc-am", "fp-av", "fp-am")


def report(num, ok, detail):
    print(f"\n[AC{num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"AC{num}: {detail}"


@pytest.fixture(scope="module")
def benchmark_runs():
    """Full 24 h benchmark for all five models at the default tolerance."""
    runs = {}
    for tag in MODELS:
        spec, scen = benchmark_with_model(tag)
        gsys = gn.assemble(spec)
        t0 = time.perf_counter()
        ts = gn.simulate(gsys, scen)
        runs[tag] = (ts, time.perf_counter() - t0)
    return runs


def test_ac1_steady_pipe_oracle_and_convergence(gas):
    t0 = time.perf_counter()
    errs = {}
    for n in (16, 32, 64):
        g = single_pipe_system(gas, n_cells=n)
        inputs = {"s": 80e5, "d": 300.0}
        x = gn.steady_state(g, inputs, gn.SolverConfig(newton_abs_tol=1e-11))
        snap = record_dict(g, x, inputs)
        oracle = gn.steady_pipe_oracle(g.pipes[0], gas, 80e5, 300.0)
        errs[n] = abs(snap["line.out.p_Pa"] - oracle)
    elapsed = time.perf_counter() - t0
    rel32 = errs[32] / gn.steady_pipe_oracle(
        gn.PipeSpec("p", 363e3, 1.422, 0.0018, 2), gas, 80e5, 300.0)
    r1, r2 = errs[16] / errs[32], errs[32] / errs[64]
    ok = rel32 <= 0.005 and 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and elapsed < 1.0
    report(1, ok, f"32-cell outlet error {rel32:.2e} (<=0.5%), "
                  f"refinement ratios {r1:.2f}, {r2:.2f} in [3,5], {elapsed:.2f} s")


def test_ac2_benchmark_runs_all_models(benchmark_runs):
    details = []
    ok = True
    for tag in MODELS:
        ts, elapsed = benchmark_runs[tag]
        good = (elapsed < 10.0 and ts.n_samples == 865
                and ts.newton_iters.size == 864)
        ok = ok and good
        details.append(f"{tag} {elapsed:.1f}s")
    report(2, ok, "24 h x 864 steps, every solve converged: " + ", ".join(details))


def test_ac3_compressor_contracts_every_step(benchmark_runs):
    tol = 1e-6
    kappa = 1.4
    worst = {}
    for tag in MODELS[1:]:
        ts, _ = benchmark_runs[tag]
        p_in2 = ts.column("east.in.p_Pa")
        p_out1 = ts.column("west.out.p_Pa")
        m_in2 = ts.column("east.in.m")
        m_out1 = ts.column("west.out.m")
        errs = []
        if tag.startswith("fc"):
            errs.append(np.abs(p_in2 / p_out1 - 1.2) / 1.2)
            c_eff = np.full_like(p_out1, 1.2)
        else:
            errs.append(np.abs(p_in2 - 84e5) / 84e5)
            c_eff = 84e5 / p_out1
        if tag.endswith("am"):
            errs.append(np.abs(m_in2 - m_out1) / np.abs(m_out1))
        else:
            errs.append(np.abs(m_in2 / m_out1 - c_eff ** (1.0 / kappa)))
        worst[tag] = max(float(np.max(e)) for e in errs)
    ok = all(w <= tol for w in worst.values())
    report(3, ok, "per-step contract residuals: " +
           ", ".join(f"{t}={w:.1e}" for t, w in worst.items()) + f" (tol {tol:g})")


def test_ac4_neutral_compressor_equals_junction():
    cfg = gn.SolverConfig(newton_abs_tol=1e-10)
    spec, scen = benchmark_with_model("fc-am")
    for st in spec.compressors:
        st.ratio = 1.0
    scen.profiles["station.ratio"] = (np.array([0.0]), np.array([1.0]))
    ts_neutral = gn.simulate(gn.assemble(spec), scen, cfg)

    spec_none, scen_none = benchmark_with_model("none")
    ts_none = gn.simulate(gn.assemble(spec_none), scen_none, cfg)

    worst = rel_column_diff(ts_neutral, ts_none, ts_none.names)
    power = float(np.abs(ts_neutral.column("station.power")).max())
    ok = worst <= 1e-7 and power == 0.0
    report(4, ok, f"ratio-1 station vs fused junction: max column diff {worst:.1e} "
                  f"(<=1e-7), neutral power {power:g}")


def test_ac5_power_balance_identity():
    spec, scen = benchmark_with_model("fc-am")
    gsys = gn.assemble(spec)
    input_fn, p_ref, m_ref = gn.bind_inputs(gsys, scen)
    gsys.references = (p_ref, m_ref)
    x0 = gn.steady_state(gsys, input_fn(0.0), set_references=False)
    inputs = input_fn(0.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = x0.copy()
        for k, p in enumerate(gsys.pipes):
            x[gsys.rho_sl[k]] *= 1.0 + 0.05 * rng.standard_normal(p.n_cells)
            x[gsys.mom_sl[k]] += 30.0 * rng.standard_normal(p.n_cells)
        x = gsys.algebraic_solve(x, inputs)
        terms = gsys.power_terms(x, inputs)
        lhs = terms["rate"]
        rhs = terms["boundary"] + terms["compressor"] - terms["dissipation"]
        scale = max(abs(terms["boundary"]), abs(terms["compressor"]),
                    terms["dissipation"], abs(lhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-8
    report(5, ok, f"energy rate vs boundary+compressor-dissipation: "
                  f"max relative defect {worst:.1e} (<=1e-8) over 100 states")


def test_ac6_conservation_ledger(gas):
    # cumulative mass bookkeeping over the full day run
    spec, scen = benchmark_with_model("fc-am")
    gsys = gn.assemble(spec)
    ts = gn.simulate(gsys, scen, gn.SolverConfig(newton_abs_tol=1e-10))
    dt = 100.0
    dmass = ts.mass_total[-1] - ts.mass_total[0]
    ledger = float((dt * ts.influx_mid).sum())
    throughput = float(np.abs(dt * ts.column("east.out.m")[1:]).sum())
    mass_defect = abs(dmass - ledger) / throughput

    # frictionless sealed pipe: energy drift over 100 midpoint steps
    cp, z = closed_pipe(gas, n_cells=32, friction=0.0)
    H0 = cp.energy(z)
    cfg = gn.SolverConfig(newton_abs_tol=1e-12)
    drift = 0.0
    for i in range(100):
        z, _ = gn.step_midpoint(cp, z, 10.0 * i, 10.0, lambda t: {}, cfg)
        drift = max(drift, abs(cp.energy(z) - H0))
    ok = mass_defect <= 1e-6 and drift <= 1e-8 * H0
    report(6, ok, f"mass ledger defect {mass_defect:.1e} of throughput (<=1e-6); "
                  f"sealed-pipe energy drift {drift / H0:.1e} of H(0) (<=1e-8)")


def test_ac7_direct_two_pipe_equivalence():
    # the assembled network against the independent direct form, every record
    cfg = gn.SolverConfig(newton_abs_tol=1e-10)
    worst = {}
    for tag in MODELS[1:]:
        spec, scen, line, inputs = direct_line(tag)
        ts_net = gn.simulate(gn.assemble(spec), scen, cfg)
        ts_dir = line.simulate(inputs, scen.t_end, scen.dt, cfg.newton_abs_tol)
        assert ts_dir.names == ts_net.names
        worst[tag] = rel_column_diff(ts_net, ts_dir, ts_net.names)
    ok = all(w <= 1e-7 for w in worst.values())
    report(7, ok, "assembled network vs direct coupled form (casekit.TwoPipeOracle): " +
           ", ".join(f"{t}={w:.1e}" for t, w in worst.items()) + " (<=1e-7)")


def test_ac8_incidence_reproduction(gas):
    nodes = [gn.Node("v1", gn.NodeKind.SUPPLY),
             gn.Node("v2", gn.NodeKind.DEMAND),
             gn.Node("v3", gn.NodeKind.DEMAND),
             gn.Node("ci", gn.NodeKind.JUNCTION),
             gn.Node("co", gn.NodeKind.JUNCTION),
             gn.Node("j", gn.NodeKind.JUNCTION)]
    mk = lambda i: gn.PipeSpec(f"P{i}", 50e3, 1.0, 0.002, 4)
    pipes = [gn.PipeEdge(mk(1), "v1", "ci"),
             gn.PipeEdge(mk(2), "co", "j"),
             gn.PipeEdge(mk(3), "j", "v2"),
             gn.PipeEdge(mk(4), "j", "v3")]
    comp = [gn.CompressorStation("C", "ci", "co", gn.Framework.FIXED_RATIO,
                                 gn.Assumption.CONST_MOMENTUM, ratio=1.2)]
    A_B, A_C, A_I = incidence_matrices(gn.assemble(gn.NetworkSpec(gas, nodes, pipes, comp)))
    ok = (np.array_equal(A_B, [[1, 0, 0, 0, 0, 0, 0, 0],
                               [0, 0, 0, 0, 0, 1, 0, 0],
                               [0, 0, 0, 0, 0, 0, 0, 1]])
          and np.array_equal(A_C, [[0, 1, 0, 0, 0, 0, 0, 0],
                                   [0, 0, 1, 0, 0, 0, 0, 0]])
          and np.array_equal(A_I, [[0, 0, 0, 1, 1, 0, 1, 0]]))
    report(8, ok, "boundary/compressor/internal incidence matrices reproduced exactly")
