import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gasnetsim as gn

from gasnetsim import timeloop
from gasnetsim.network import SEGMENT_CELLS

from casekit import (benchmark_with_model, closed_pipe, consistent_state, dense_newton_step,
                     generated_network, ladder_system, record_dict, single_pipe_system)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0), dict(dt=-5.0), dict(dt=float("inf")), dict(dt=float("nan")),
        dict(newton_abs_tol=0.0), dict(newton_abs_tol=-1.0),
        dict(newton_abs_tol=float("nan")), dict(newton_abs_tol=float("inf")),
        dict(t_end=-1.0), dict(t_end=float("nan")), dict(t_end=float("inf")),
        dict(newton_max_iter=0),
    ])
    def test_invalid_settings_are_rejected(self, kwargs):
        with pytest.raises(gn.ConfigurationError, match=next(iter(kwargs))):
            gn.SolverConfig(**kwargs)

    def test_four_settings(self):
        # the difference step, the line-search knobs and the sparse
        # threshold are constants, not settings
        from dataclasses import fields
        assert [f.name for f in fields(gn.SolverConfig)] == [
            "newton_abs_tol", "newton_max_iter", "dt", "t_end"]
        assert gn.SolverConfig().sparse_threshold == 2000
        with pytest.raises(TypeError):
            gn.SolverConfig(sparse_threshold=0)


class TestNewton:
    def test_linear_system_converges_in_one_iteration(self):
        rng = np.random.default_rng(0)
        A = np.eye(5) * 4.0 + rng.normal(0.0, 0.3, (5, 5))
        b = rng.normal(0.0, 1.0, 5)

        res = gn.newton_solve(lambda x: A @ x - b, np.zeros(5),
                              gn.SolverConfig(newton_abs_tol=1e-9))
        assert res.iterations == 1
        assert res.jacobians == 1          # the dense path builds one per iteration
        assert np.allclose(res.x, np.linalg.solve(A, b), rtol=1e-8)

    def test_scalar_quadratic_tail(self):
        res = gn.newton_solve(lambda x: x * x - 4.0, np.array([3.0]),
                              gn.SolverConfig(newton_abs_tol=1e-9))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)
        h = res.history
        # classical iterates 3 -> 13/6 -> 2.00641 -> ... up to FD-Jacobian error
        assert h[1] == pytest.approx(abs(13.0 / 6.0 + 2.0) * abs(13.0 / 6.0 - 2.0), rel=1e-5)
        for a, b in zip(h[1:-1], h[2:]):
            assert b <= 0.3 * a * a + 1e-12

    def test_nonconvergence_carries_history(self):
        with pytest.raises(gn.NonconvergenceError) as err:
            gn.newton_solve(lambda x: x * x + 1.0, np.array([1.0]),
                            gn.SolverConfig(newton_abs_tol=1e-12, newton_max_iter=8))
        assert err.value.history
        assert err.value.x_best is not None

    def test_singular_jacobian_raises(self):
        # rank-deficient linear map: the finite-difference Jacobian is
        # exactly singular and the factorization must report it
        def fun(x):
            s = x[0] + x[1]
            return np.array([s - 1.0, s - 1.0])

        with pytest.raises(gn.FactorizationError):
            gn.newton_solve(fun, np.array([3.0, -1.0]),
                            gn.SolverConfig(newton_abs_tol=1e-12))

    def test_singular_jacobian_raises_on_sparse_path(self, monkeypatch):
        # the same rank-deficient map above the sparse threshold: SuperLU's
        # exact-singularity failure surfaces as a factorization error
        from gasnetsim.network import color_columns

        def fun(x):
            s = x[0] + x[1]
            return np.array([s - 1.0, s - 1.0])

        monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 1)
        full = color_columns([(r, c) for r in range(2) for c in range(2)], 2, 2)
        with pytest.raises(gn.FactorizationError):
            gn.newton_solve(fun, np.array([3.0, -1.0]),
                            gn.SolverConfig(newton_abs_tol=1e-12), colors=full)


def full_newton(fun, x0, cfg=None, colors=None):
    """Reference for the chord path: full Newton steps, a fresh colored FD
    Jacobian and SuperLU factor at every iterate, no line search."""
    from scipy.sparse.linalg import splu

    from gasnetsim.timeloop import _csc, _fd_jacobian
    x = np.array(x0, dtype=float)
    F = fun(x)
    history = [np.abs(F).max()]
    while history[-1] > cfg.newton_abs_tol:
        assert len(history) <= cfg.newton_max_iter
        x = x + splu(_csc(_fd_jacobian(fun, x, F, colors), colors)).solve(-F)
        F = fun(x)
        history.append(np.abs(F).max())
    return gn.NewtonResult(x, len(history) - 1, history, len(history) - 1)


class TestBlockSolve:
    """The block factor of the pipe-segment layout, below the sparse threshold."""

    def dead_row_newton(self, g, row):
        """Newton on g's steady residual with `row` made constant: its Jacobian row is zero."""
        inputs = {"s": 80e5, "d": 250.0}
        g.references = (80e5, 250.0)
        scale = g.row_scale()

        def fun(v):
            F = g.steady_residual(v, inputs) / scale
            F[row] = 1.0
            return F

        gn.newton_solve(fun, g.initial_guess(inputs), gn.SolverConfig(), colors=g.jac_colors())

    def test_singular_segment_block_names_its_pipe_and_cells(self, gas):
        g = single_pipe_system(gas, n_cells=40)
        segment, names = g._segments()
        row = g.rho_sl[0].start + 21
        assert segment[row] >= 1 and names[segment[row]].startswith("pipe 'line' cells ")
        with pytest.raises(gn.FactorizationError,
                           match=re.escape(f"{names[segment[row]]} is singular")):
            self.dead_row_newton(g, row)

    def test_singular_border_block_names_the_border(self, gas):
        g = single_pipe_system(gas, n_cells=40)
        with pytest.raises(gn.FactorizationError, match="the border block .* is singular"):
            self.dead_row_newton(g, g.lam["d"])

    def test_segments_are_at_most_segment_cells_long(self, gas):
        # cut cells alternate with segments along each pipe, and a pipe no
        # longer than a segment is one segment with no cut
        for n_cells in (2, SEGMENT_CELLS, SEGMENT_CELLS + 1, 40, 256):
            g = single_pipe_system(gas, n_cells=n_cells)
            segment, names = g._segments()
            cells = segment[g.rho_sl[0]]
            assert np.array_equal(cells, segment[g.mom_sl[0]])
            assert np.all(segment[g.n_z:] == -1)
            runs = np.split(cells, np.flatnonzero(cells < 0))
            lengths = [np.count_nonzero(r >= 0) for r in runs]
            assert min(lengths) >= 1 and max(lengths) <= SEGMENT_CELLS
            assert cells[0] >= 0 and cells[-1] >= 0
            assert len(names) == len(runs) == np.count_nonzero(cells < 0) + 1
            assert (n_cells <= SEGMENT_CELLS) == (len(names) == 1)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["zero", "reverse"]),
       st.sampled_from([None, SEGMENT_CELLS + 1, 3 * SEGMENT_CELLS]))
def test_block_solve_matches_the_dense_reference(seed, demand, cells):
    # generated trees and loops: the structured Newton step equals the dense
    # colored-FD Jacobian's LAPACK solve on steady and step Jacobians. Zero
    # demand stops every flow; reverse demand negates the demands and runs
    # every pipe backwards. At zero flow the steady rows lose their friction
    # slope, so a loop or a path between two supplies leaves a circulation
    # undetermined and the steady Jacobian singular: there the steady case
    # runs on one-supply trees only. The generated 2-5 cells per pipe make
    # one segment each; the two overrides cut every pipe once and twice.
    spec, inputs = generated_network(seed)
    g = gn.assemble(spec, cells)
    for key, kind in g.boundary_inputs:
        if kind == "momentum":
            inputs[key] = 0.0 if demand == "zero" else -inputs[key]
    g.references = timeloop._references(g, inputs)
    rng = np.random.default_rng(seed)
    z = consistent_state(g, inputs, rng)
    z[g.bank.mom] = 0.0 if demand == "zero" else -np.abs(z[g.bank.mom])
    x = g.algebraic_solve(z, inputs)
    scale = g.row_scale()
    step = g.make_step_residual(z * (1.0 + rng.normal(0.0, 1e-3, g.n_z)), 600.0, inputs)
    funs = [lambda v: step(v) / scale]
    supplies = sum(nd.kind is gn.NodeKind.SUPPLY for nd in spec.nodes)
    tree = len(spec.pipes) + len(spec.compressors) == len(spec.nodes) - 1
    if demand == "reverse" or (tree and supplies == 1):
        funs.append(lambda v: g.steady_residual(v, inputs) / scale)
    colors = g.jac_colors()
    for fun in funs:
        F = fun(x)
        ref = dense_newton_step(fun, x, F, colors)
        vals = timeloop._fd_jacobian(fun, x, F, colors)
        dx = timeloop.BlockFactor(vals, colors.layout).solve(-F)
        assert np.abs(dx - ref).max() <= 1e-10 * np.abs(ref).max()


def newton_peak_bytes(g):
    """tracemalloc's peak over one steady Newton solve of g from its flat start."""
    import tracemalloc

    inputs = {"s": 80e5, "d": 250.0}
    g.references = (80e5, 250.0)
    scale = g.row_scale()
    colors = g.jac_colors()
    x0 = g.initial_guess(inputs)
    tracemalloc.start()
    try:
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                              x0, gn.SolverConfig(), colors=colors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations >= 1
    return peak


def day_transient(tag):
    """The day line with a demand change every 20-40 minutes over two hours."""
    spec, scen = benchmark_with_model(tag)
    scen.profiles["sink"] = (np.array([0.0, 1200.0, 3600.0, 6000.0]),
                             np.array([200.0, 260.0, 180.0, 240.0]))
    return spec, scen


class TestChordNewton:
    """The sparse path reuses its SuperLU factor (forced on small systems
    by a sparse threshold of 0)."""

    CFG = gn.SolverConfig()

    @pytest.fixture(autouse=True)
    def sparse_path(self, monkeypatch):
        monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 0)

    def steady(self, tag):
        spec, scen = day_transient(tag)
        g = gn.assemble(spec)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        return g, fn, gn.steady_state(g, fn(0.0), self.CFG, set_references=False)

    def test_records_within_three_times_the_full_newton_error(self, monkeypatch):
        # ladder (n = 2963, above the default threshold), all four station
        # variants: distance to a 1e-12 reference, per column max
        g, scen = ladder_system()
        chord = gn.simulate(g, scen).data
        monkeypatch.setattr(timeloop, "newton_solve", full_newton)
        ref = gn.simulate(g, scen, gn.SolverConfig(newton_abs_tol=1e-12)).data
        full = gn.simulate(g, scen).data
        scale = np.abs(ref).max(axis=0)
        scale[scale == 0.0] = 1.0
        dev_chord = (np.abs(chord - ref) / scale).max()
        dev_full = (np.abs(full - ref) / scale).max()
        assert dev_chord <= 3.0 * dev_full

    def test_steady_factor_is_rebuilt_on_the_first_step(self):
        g, fn, x = self.steady("fc-am")
        steady_lu = g.jac_colors().factor[0]
        assert steady_lu is not None

        def surge(t):
            return {**fn(t), "sink": 260.0}

        _, res = gn.step_midpoint(g, x, 0.0, 100.0, surge, self.CFG)
        assert res.iterations >= 2 and res.jacobians == 1
        assert g.jac_colors().factor[0] is not steady_lu

    @pytest.mark.parametrize("tag", ["none", "fc-av", "fp-am"])
    def test_step_sequence_builds_far_fewer_jacobians_than_iterations(self, tag):
        g, fn, x = self.steady(tag)
        iterations = jacobians = 0
        for i in range(72):
            x, res = gn.step_midpoint(g, x, 100.0 * i, 100.0, fn, self.CFG)
            iterations += res.iterations
            jacobians += res.jacobians
            assert res.history[-1] <= self.CFG.newton_abs_tol
        assert iterations >= 100
        assert 1 <= jacobians <= iterations / 10

    def test_simulate_twice_is_bitwise_equal(self):
        spec, scen = day_transient("fp-av")
        g = gn.assemble(spec)
        cfg = gn.SolverConfig(t_end=7200.0)
        first = gn.simulate(g, scen, cfg)
        assert g.jac_colors().factor[0] is not None

        class Stale:
            def solve(self, rhs):
                raise AssertionError("the steady solve reused the last step's factor")

        g.jac_colors().factor[0] = Stale()
        second = gn.simulate(g, scen, cfg)
        assert np.array_equal(first.data, second.data)
        assert np.array_equal(first.newton_iters, second.newton_iters)

    def test_converged_start_takes_no_step(self):
        g, fn, x = self.steady("fc-am")
        assert g.jac_colors().factor[0] is not None
        scale = g.row_scale()
        inputs = fn(0.0)
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale, x,
                              self.CFG, colors=g.jac_colors())
        assert res.iterations == 0 and res.jacobians == 0 and len(res.history) == 1
        assert np.array_equal(res.x, x)


class TestScaling:
    def test_pressure_row_scaling(self, gas):
        g = single_pipe_system(gas)
        g.references = (8e6, 1.0)
        raw = np.zeros(g.n)
        raw[g.mom_sl[0].start] = 80.0      # momentum row carries pressure units
        scaled = gn.scale_residual(g, raw)
        assert scaled[g.mom_sl[0].start] == pytest.approx(1e-5)

    def test_momentum_reference_floors_at_one(self, gas):
        g = single_pipe_system(gas)
        gn.steady_state(g, {"s": 80e5, "d": 0.0})
        assert g.references[1] == 1.0

    def test_scaling_is_diagonal(self, gas):
        g = single_pipe_system(gas)
        g.references = (8e6, 300.0)
        rng = np.random.default_rng(1)
        raw = rng.normal(0.0, 1.0, g.n)
        twice = gn.scale_residual(g, gn.scale_residual(g, raw))
        assert np.allclose(twice * g.row_scale() ** 2, raw, rtol=1e-14)


class TestSteadyState:
    def test_no_demand_means_uniform_pressure(self, gas):
        g = single_pipe_system(gas)
        x = gn.steady_state(g, {"s": 80e5, "d": 0.0})
        snap = record_dict(g, x[: g.n_z], {"s": 80e5, "d": 0.0})
        assert snap["line.out.p_Pa"] == pytest.approx(80e5, rel=1e-9)
        assert abs(snap["line.in.m"]) <= 1e-5

    def test_constant_demand_matches_oracle(self, gas):
        g = single_pipe_system(gas, n_cells=32)
        x = gn.steady_state(g, {"s": 80e5, "d": 300.0})
        snap = record_dict(g, x[: g.n_z], {"s": 80e5, "d": 300.0})
        oracle = gn.steady_pipe_oracle(g.pipes[0].spec, gas, 80e5, 300.0)
        assert abs(snap["line.out.p_Pa"] - oracle) / oracle <= 0.005

    def test_benchmark_station_ratio_exact(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        x = gn.steady_state(g, fn(0.0), set_references=False)
        snap = record_dict(g, x[: g.n_z], fn(0.0))
        assert snap["east.in.p_Pa"] / snap["west.out.p_Pa"] == pytest.approx(1.2, rel=1e-12)

    def test_converges_within_25_iterations_from_flat_start(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        scale = g.row_scale()
        inputs0 = fn(0.0)
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs0) / scale,
                              g.initial_guess(inputs0), gn.SolverConfig(),
                              colors=g.jac_colors())
        assert res.iterations <= 25


class TestMidpointStep:
    def test_equilibrium_is_a_fixed_point(self, gas):
        g = single_pipe_system(gas, n_cells=16)
        inputs = {"s": 80e5, "d": 250.0}
        x = gn.steady_state(g, inputs)
        x1, _ = gn.step_midpoint(g, x, 0.0, 100.0, lambda t: inputs)
        assert np.abs(gn.scale_residual(g, g.steady_residual(x1, inputs))).max() <= 1e-7
        snap0 = record_dict(g, x[: g.n_z], inputs)
        snap1 = record_dict(g, x1[: g.n_z], inputs)
        for name in snap0:
            assert snap1[name] == pytest.approx(snap0[name], rel=1e-6, abs=1e-8)

    def test_frictionless_sealed_pipe_conserves_energy(self, gas):
        cp, z = closed_pipe(gas, n_cells=24, friction=0.0)
        H0 = cp.energy(z)
        cfg = gn.SolverConfig(newton_abs_tol=1e-12)
        for i in range(100):
            z, _ = gn.step_midpoint(cp, z, 10.0 * i, 10.0, lambda t: {}, cfg)
        assert abs(cp.energy(z) - H0) <= 1e-8 * H0

    def test_sealed_pipe_with_friction_dissipates(self, gas):
        cp, z = closed_pipe(gas, n_cells=24, friction=0.02, amplitude=0.1)
        cfg = gn.SolverConfig(newton_abs_tol=1e-12)
        H = cp.energy(z)
        dropped = False
        for i in range(40):
            z, _ = gn.step_midpoint(cp, z, 50.0 * i, 50.0, lambda t: {}, cfg)
            Hn = cp.energy(z)
            assert Hn <= H * (1.0 + 1e-12)
            dropped = dropped or Hn < H * (1.0 - 1e-12)
            H = Hn
        assert dropped

    def test_midpoint_is_time_reversible(self, gas):
        cp, z = closed_pipe(gas, n_cells=16, friction=0.0)
        cfg = gn.SolverConfig(newton_abs_tol=1e-13)
        zf, _ = gn.step_midpoint(cp, z, 0.0, 25.0, lambda t: {}, cfg)
        zb, _ = gn.step_midpoint(cp, zf, 25.0, -25.0, lambda t: {}, cfg)
        assert np.abs(zb - z).max() <= 1e-9 * np.abs(z).max()

    def test_mass_bookkeeping_per_step(self, gas):
        g = single_pipe_system(gas, n_cells=16)
        inputs = {"s": 80e5, "d": 250.0}
        x = gn.steady_state(g, inputs)

        def fn(t):
            return {"s": 80e5, "d": 250.0 if t < 300.0 else 320.0}

        dt = 100.0
        for i in range(6):
            x_new, _ = gn.step_midpoint(g, x, i * dt, dt, fn, gn.SolverConfig(newton_abs_tol=1e-11))
            z_mid = 0.5 * (x[: g.n_z] + x_new[: g.n_z])
            dmass = g.total_mass(x_new[: g.n_z]) - g.total_mass(x[: g.n_z])
            influx = g.net_mass_influx(z_mid, x_new, fn(i * dt + dt / 2))
            assert dmass == pytest.approx(dt * influx, rel=1e-9, abs=1e-6)
            x = x_new


class TestSimulate:
    def test_sample_counts(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        ts = gn.simulate(g, scen, gn.SolverConfig(t_end=3600.0))
        assert ts.n_samples == 37
        assert ts.newton_iters.size == 36
        assert np.all(np.diff(ts.t) > 0)

    def test_constant_scenario_keeps_records_fixed(self, gas):
        g = single_pipe_system(gas, n_cells=16)
        scen = gn.Scenario(t_end=2000.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([80e5])),
            "d": (np.array([0.0]), np.array([250.0])),
        })
        ts = gn.simulate(g, scen)
        for j in range(ts.data.shape[1]):
            col = ts.data[:, j]
            assert np.abs(col - col[0]).max() <= 1e-6 * max(abs(col[0]), 1.0)

    def test_midpoint_right_continuous_sampling(self, gas):
        # a demand jump at a step boundary must act in the following step
        g = single_pipe_system(gas, n_cells=8, length=50e3)
        scen = gn.Scenario(t_end=400.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([80e5])),
            "d": (np.array([0.0, 200.0]), np.array([100.0, 180.0])),
        })
        ts = gn.simulate(g, scen)
        out_m = ts.column("line.out.m")
        assert out_m[0] == pytest.approx(100.0, abs=1e-6)
        assert out_m[-1] == pytest.approx(180.0, abs=1e-6)

    def test_step_halving_is_second_order(self, gas):
        # sealed frictionless pipe is linear: measure against the exact
        # propagator (eigendecomposition), fundamental standing wave
        from casekit import ClosedPipe, PipeOracle
        spec = gn.PipeSpec("sealed", 50e3, 1.0, 0.0, 16)
        psys = PipeOracle(spec, gas)
        cp = ClosedPipe(psys)
        n = psys.n
        xc = (np.arange(n) + 0.5) * psys.dx
        z0 = np.concatenate([50.0 * (1.0 + 0.1 * np.cos(np.pi * xc / spec.length)),
                             np.zeros(n)])

        K = np.empty((2 * n, 2 * n))
        base = cp._rows(np.zeros(2 * n), np.zeros(2 * n))
        for j in range(2 * n):
            e = np.zeros(2 * n)
            e[j] = 1.0
            K[:, j] = cp._rows(e, np.zeros(2 * n)) - base
        A = -K / psys.weights[:, None]
        T = 150.0
        lam, V = np.linalg.eig(A)
        z_exact = (V @ (np.exp(lam * T) * np.linalg.solve(V, z0.astype(complex)))).real

        def run(dt):
            z = z0.copy()
            cfg = gn.SolverConfig(newton_abs_tol=1e-12)
            for i in range(int(round(T / dt))):
                z, _ = gn.step_midpoint(cp, z, i * dt, dt, lambda t: {}, cfg)
            return z

        errs = [np.abs(run(dt) - z_exact).max() for dt in (10.0, 5.0, 2.5)]
        assert 3.4 <= errs[0] / errs[1] <= 4.6
        assert 3.4 <= errs[1] / errs[2] <= 4.6

    def test_benchmark_station_pressure_converges_under_dt_halving(self):
        # discontinuous demand: the smooth station pressure record still
        # refines at roughly second order after the first jump
        spec, scen = benchmark_with_model("fc-am")
        sols = {}
        for dt in (100.0, 50.0, 25.0):
            g = gn.assemble(spec)
            cfg = gn.SolverConfig(newton_abs_tol=1e-11, dt=dt, t_end=28800.0)
            ts = gn.simulate(g, scen, cfg)
            sols[dt] = ts.column("west.out.p_Pa")[-1]
        e_coarse = abs(sols[100.0] - sols[50.0])
        e_fine = abs(sols[50.0] - sols[25.0])
        assert 2.5 <= e_coarse / e_fine <= 6.0

    def test_sparse_linear_path_matches_dense(self, gas, monkeypatch):
        # the splu path against a plain dense Newton kept here as reference:
        # dense colored FD Jacobian and LAPACK solve, full steps
        g = single_pipe_system(gas, n_cells=16)
        inputs = {"s": 80e5, "d": 250.0}
        g.references = (80e5, 250.0)
        scale = g.row_scale()
        colors = g.jac_colors()

        def fun(v):
            return g.steady_residual(v, inputs) / scale

        x_ref = g.initial_guess(inputs)
        for _ in range(20):
            F = fun(x_ref)
            if np.abs(F).max() <= 1e-8:
                break
            x_ref = x_ref + dense_newton_step(fun, x_ref, F, colors)
        assert np.abs(fun(x_ref)).max() <= 1e-8

        monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 4)
        x_sparse = gn.steady_state(g, inputs, set_references=False)
        assert np.allclose(x_ref, x_sparse, rtol=1e-8, atol=1e-8)

    def test_sparse_newton_allocates_no_dense_jacobian(self, gas):
        # above the threshold one Newton solve stays far below the 8 n^2
        # bytes a dense Jacobian would take
        import scipy.sparse.linalg  # noqa: F401  (import memory is not the solve's)
        g = single_pipe_system(gas, n_cells=1100)
        assert g.n > gn.SolverConfig().sparse_threshold
        assert newton_peak_bytes(g) < 0.05 * 8 * g.n ** 2

    def test_block_newton_allocates_no_dense_jacobian(self, gas):
        # below the threshold the block factor keeps one Newton solve as far
        # below a dense Jacobian's 8 n^2 bytes
        g = single_pipe_system(gas, n_cells=900)
        assert g.n < gn.SolverConfig().sparse_threshold
        assert newton_peak_bytes(g) < 0.05 * 8 * g.n ** 2

    def test_model_variants_contrast_with_baseline(self):
        # station columns: ratio models scale the pressure, pressure models
        # pin it, momentum models keep the flux continuous, velocity models
        # jump it; the fused baseline does none of that
        runs = {}
        for tag in ("none", "fc-am", "fp-am", "fc-av"):
            spec, scen = benchmark_with_model(tag)
            runs[tag] = gn.simulate(gn.assemble(spec), scen,
                                    gn.SolverConfig(t_end=3600.0))
        base = runs["none"]
        assert np.allclose(base.column("east.in.p_Pa"), base.column("west.out.p_Pa"),
                           rtol=1e-9)
        fc = runs["fc-am"]
        assert np.allclose(fc.column("east.in.p_Pa"),
                           1.2 * fc.column("west.out.p_Pa"), rtol=1e-9)
        fp = runs["fp-am"]
        assert np.allclose(fp.column("east.in.p_Pa"), 84e5, rtol=1e-9)
        av = runs["fc-av"]
        assert np.allclose(av.column("east.in.m") / av.column("west.out.m"),
                           1.2 ** (1.0 / 1.4), rtol=1e-9)
        assert np.allclose(fc.column("east.in.m"), fc.column("west.out.m"), rtol=1e-12)

    def test_nonconvergence_carries_time_stamp(self, gas):
        g = single_pipe_system(gas, n_cells=8)
        scen = gn.Scenario(t_end=400.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([80e5])),
            # extraction far beyond what the pipe can sustain
            "d": (np.array([0.0, 100.0]), np.array([100.0, 1e5])),
        })
        with pytest.raises((gn.NonconvergenceError, gn.StateError)) as err:
            gn.simulate(g, scen, gn.SolverConfig(newton_max_iter=12))
        if isinstance(err.value, gn.NonconvergenceError):
            assert err.value.time is not None

    def test_reverse_station_flow_is_flagged(self):
        # inject gas at the sink hard enough to push flow backwards
        spec, scen = benchmark_with_model("fc-am")
        scen.profiles["sink"] = (np.array([0.0]), np.array([-150.0]))
        g = gn.assemble(spec)
        ts = gn.simulate(g, scen, gn.SolverConfig(t_end=600.0))
        assert any("reverse flow" in w for w in ts.warnings)

    def test_t_end_must_divide(self, gas):
        g = single_pipe_system(gas, n_cells=8)
        scen = gn.Scenario(t_end=250.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([80e5])),
            "d": (np.array([0.0]), np.array([100.0])),
        })
        with pytest.raises(gn.ConfigurationError):
            gn.simulate(g, scen)
