import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gasnetsim as gn

from gasnetsim import blocks, timeloop
from gasnetsim.cli import _apply_model_override
from gasnetsim.network import SEGMENT_CELLS

from casekit import (PARALLEL_NET_JSON, PARALLEL_SINGULAR, benchmark_with_model, closed_pipe,
                     consistent_state, csc_jacobian, dense_newton_step, generated_network,
                     ladder_system, one_block, record_dict, single_pipe_system)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0), dict(dt=-5.0), dict(dt=float("inf")), dict(dt=float("nan")),
        dict(newton_abs_tol=0.0), dict(newton_abs_tol=-1.0),
        dict(newton_abs_tol=float("nan")), dict(newton_abs_tol=float("inf")),
        dict(t_end=-1.0), dict(t_end=float("nan")), dict(t_end=float("inf")),
    ])
    def test_invalid_settings_are_rejected(self, kwargs):
        with pytest.raises(gn.ConfigurationError, match=next(iter(kwargs))):
            gn.SolverConfig(**kwargs)

    def test_three_settings(self):
        # the difference step, the iteration limit, the line-search knobs
        # and the sparse threshold are constants, not settings
        from dataclasses import fields
        assert [f.name for f in fields(gn.SolverConfig)] == ["newton_abs_tol", "dt", "t_end"]
        assert timeloop.MAX_ITERATIONS == 50
        assert gn.SolverConfig().sparse_threshold == 2000
        with pytest.raises(TypeError):
            gn.SolverConfig(sparse_threshold=0)


def dense_coloring(n):
    """Every entry structural, one color per column, one block: the plain FD Jacobian."""
    return blocks.color_columns([(r, c) for r in range(n) for c in range(n)], one_block(n))


class TestNewton:
    def test_linear_system_converges_in_one_iteration(self):
        rng = np.random.default_rng(0)
        A = np.eye(5) * 4.0 + rng.normal(0.0, 0.3, (5, 5))
        b = rng.normal(0.0, 1.0, 5)

        res = gn.newton_solve(lambda x: A @ x - b, np.zeros(5),
                              gn.SolverConfig(newton_abs_tol=1e-9), colors=dense_coloring(5))
        assert res.iterations == 1
        assert res.jacobians == 1          # full Newton builds one per iteration
        assert np.allclose(res.x, np.linalg.solve(A, b), rtol=1e-8)

    def test_scalar_quadratic_tail(self):
        res = gn.newton_solve(lambda x: x * x - 4.0, np.array([3.0]),
                              gn.SolverConfig(newton_abs_tol=1e-9), colors=dense_coloring(1))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)
        h = res.history
        # classical iterates 3 -> 13/6 -> 2.00641 -> ... up to FD-Jacobian error
        assert h[1] == pytest.approx(abs(13.0 / 6.0 + 2.0) * abs(13.0 / 6.0 - 2.0), rel=1e-5)
        for a, b in zip(h[1:-1], h[2:]):
            assert b <= 0.3 * a * a + 1e-12

    def test_nonconvergence_carries_history(self, monkeypatch):
        monkeypatch.setattr(timeloop, "MAX_ITERATIONS", 8)
        with pytest.raises(gn.NonconvergenceError) as err:
            gn.newton_solve(lambda x: x * x + 1.0, np.array([1.0]),
                            gn.SolverConfig(newton_abs_tol=1e-12), colors=dense_coloring(1))
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
                            gn.SolverConfig(newton_abs_tol=1e-12), colors=dense_coloring(2))

    def test_singular_jacobian_raises_on_sparse_path(self, monkeypatch):
        # the same rank-deficient map above the sparse threshold, on chord
        # Newton's path: the block factor names the singular block, here the
        # whole system (one block)
        def fun(x):
            s = x[0] + x[1]
            return np.array([s - 1.0, s - 1.0])

        monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 1)
        with pytest.raises(gn.FactorizationError,
                           match="^Jacobian factorization failed: the system is singular$"):
            gn.newton_solve(fun, np.array([3.0, -1.0]),
                            gn.SolverConfig(newton_abs_tol=1e-12), colors=dense_coloring(2))


def superlu_newton_step(fun, x, F, colors, slot):
    """``timeloop._newton_step`` on SuperLU, an independent factor of the same
    colored FD Jacobian; chord Newton keeps it in ``slot`` as it keeps the
    block factor."""
    from scipy.sparse.linalg import splu

    lu = splu(csc_jacobian(blocks.fd_jacobian(fun, x, F, colors), colors))
    if slot is not None:
        slot[0] = lu
    return lu.solve(-F)


def full_newton(fun, x0, cfg=None, *, colors):
    """Reference for the chord path: full Newton steps, a fresh colored FD
    Jacobian and SuperLU factor at every iterate, no line search."""
    x = np.array(x0, dtype=float)
    F = fun(x)
    history = [np.abs(F).max()]
    while history[-1] > cfg.newton_abs_tol:
        assert len(history) <= timeloop.MAX_ITERATIONS
        x = x + superlu_newton_step(fun, x, F, colors, None)
        F = fun(x)
        history.append(np.abs(F).max())
    return gn.NewtonResult(x, len(history) - 1, history, len(history) - 1)


class TestBlockSolve:
    """The block factor of the pipe-segment layout."""

    @pytest.fixture(params=["one-use", "kept"])
    def factor_form(self, request, monkeypatch):
        """Full Newton's one-use factor, or chord Newton's kept one (a sparse threshold of 0)."""
        if request.param == "kept":
            monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 0)
        return request.param

    def test_one_use_factor_forms_no_inverse(self, gas, monkeypatch):
        # below the threshold every factor serves one solve: LAPACK solves,
        # np.linalg.inv never runs
        def inv(*args):
            raise AssertionError("np.linalg.inv called below the sparse threshold")

        g = single_pipe_system(gas, n_cells=40)
        inputs = {"s": 80e5, "d": 250.0}
        g.references = (80e5, 250.0)
        scale = g.row_scale()
        monkeypatch.setattr(np.linalg, "inv", inv)
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                              g.initial_guess(inputs), gn.SolverConfig(), colors=g.jac_colors())
        assert res.jacobians == res.iterations >= 1

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

    def test_singular_segment_block_names_its_pipe_and_cells(self, gas, factor_form):
        g = single_pipe_system(gas, n_cells=40)
        segment, names = g._segments()
        row = g.rho_sl[0].start + 21
        assert segment[row] >= 1 and names[segment[row]].startswith("pipe 'line' cells ")
        with pytest.raises(gn.FactorizationError,
                           match=re.escape(f"{names[segment[row]]} is singular")):
            self.dead_row_newton(g, row)

    def test_singular_border_block_names_the_border(self, gas, factor_form):
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
    g = gn.assemble(_apply_model_override(spec, None, cells))
    for nd in g.boundary:
        if nd.kind is gn.NodeKind.DEMAND:
            inputs[nd.id] = 0.0 if demand == "zero" else -inputs[nd.id]
    g.references = g.reference_levels(inputs)
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
        vals = blocks.fd_jacobian(fun, x, F, colors)
        # both factor forms: one-use (one pass, no inverse) and kept (chord)
        dx = blocks.BlockFactor(vals, colors.layout, -F, False).x
        dx_kept = blocks.BlockFactor(vals, colors.layout, -F, True).solve(-F)
        assert np.abs(dx - ref).max() <= 1e-10 * np.abs(ref).max()
        assert np.abs(dx - dx_kept).max() <= 1e-12 * np.abs(dx).max()


def newton_peak_bytes(g):
    """tracemalloc's peak over one steady Newton solve of g from its initial guess."""
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


def generated_transient(seed, demand, dt=600.0, steps=20):
    """A generated network over `steps` steps: steady at the `demand` levels,
    then the generated demands raised by 10% from step 5 on.

    "generated" keeps the generated levels, "zero" sets them to 0 and
    "cancelling" shifts them to sum to zero (up to rounding).
    """
    spec, inputs = generated_network(seed)
    demands = [nd.id for nd in spec.nodes if nd.kind is gn.NodeKind.DEMAND]
    levels = np.array([inputs[d] for d in demands])
    start = {"generated": levels, "zero": 0.0 * levels,
             "cancelling": levels - levels.mean() if demands else levels}[demand]
    profiles = {nd.id: (np.array([0.0]), np.array([inputs[nd.id]]))
                for nd in spec.nodes if nd.kind is gn.NodeKind.SUPPLY}
    for d, a, b in zip(demands, start.tolist(), (1.1 * levels).tolist()):
        profiles[d] = (np.array([0.0, 5 * dt]), np.array([a, b]))
    return spec, gn.Scenario(t_end=steps * dt, dt=dt, profiles=profiles)


def test_station_contracts_hold_at_every_sample_on_generated_networks():
    # AC3's two rules, read off the records of every generated network with
    # a station (seeds 0-38), across the 10% demand step: the outlet rule
    # (fc: ratio x upstream outlet pressure, fp: the setpoint) and the
    # momentum rule m_out(upstream) = k m_in(downstream), k = 1 (am) or
    # c^(-1/kappa) with c the ratio (fc) or setpoint / upstream pressure (fp).
    # The momentum rule is relative to its column's scale: flows may cross
    # zero. Both held to 2.6e-16 when this test was written.
    stations = 0
    for seed in range(39):
        spec, scen = generated_transient(seed, "generated")
        if not spec.compressors:
            continue
        ts = gn.simulate(gn.assemble(spec), scen)
        for st in spec.compressors:
            stations += 1
            up = next(pe.spec.id for pe in spec.pipes if pe.to_node == st.inlet_node)
            down = next(pe.spec.id for pe in spec.pipes if pe.from_node == st.outlet_node)
            p_up, m_up = ts.column(f"{up}.out.p_Pa"), ts.column(f"{up}.out.m")
            p_down, m_down = ts.column(f"{down}.in.p_Pa"), ts.column(f"{down}.in.m")
            fc = st.framework is gn.Framework.FIXED_RATIO
            outlet = st.ratio * p_up if fc else np.full_like(p_up, st.pressure)
            c = st.ratio if fc else st.pressure / p_up
            av = st.assumption is gn.Assumption.CONST_VELOCITY
            k = c ** (-1.0 / spec.gas.isentropic_exponent) if av else 1.0
            where = f"seed {seed} station {st.id}"
            assert np.all(np.abs(p_down - outlet) <= 1e-9 * outlet), where
            assert np.all(np.abs(m_up - k * m_down) <= 1e-9 * np.abs(k * m_down).max()), where
    assert stations >= 30


class TestToleranceDistance:
    """How far the default ``newton_abs_tol`` leaves the records from a 1e-12 solve.

    The tolerance bounds the row-scaled residual, not the records. Measured
    column-scaled distances, max|d| / max|column| over the shipped day case:
    32 cells fc-am 1.21e-6 (west.out.m), fp-av 1.46e-6 (station.power);
    256 cells at dt 900 s fc-am 4.40e-6 (station.power). Each bound is 10x
    its measurement, so a change to the Newton policy's accuracy shows here.
    """

    @pytest.mark.parametrize("tag, cells, dt, measured", [
        ("fc-am", None, None, 1.21e-6),
        ("fp-av", None, None, 1.46e-6),
        ("fc-am", 256, 900.0, 4.40e-6),
    ])
    def test_default_tolerance_distance_to_a_tight_reference(self, tag, cells, dt, measured):
        spec, scen = benchmark_with_model(tag)
        spec = _apply_model_override(spec, None, cells)
        run, ref = (gn.simulate(gn.assemble(spec), scen, cfg).data
                    for cfg in (gn.SolverConfig(dt=dt), gn.SolverConfig(1e-12, dt)))
        distance = (np.abs(run - ref).max(axis=0) / np.abs(ref).max(axis=0)).max()
        assert distance < 10.0 * measured


class TestChordNewton:
    """Chord Newton reuses its block factor (forced on small systems by a
    sparse threshold of 0)."""

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

    # generated network 39 has no steady state at zero net demand, and its
    # steady solve fails at the generated demands too
    SEEDS = [seed for seed in range(40) if seed != 39]

    @pytest.mark.parametrize("demand", ["generated", "zero", "cancelling"])
    def test_generated_networks_within_three_times_the_full_newton_error(
            self, demand, monkeypatch):
        # trees and loops, the steady solve plus 20 steps across a demand
        # step: distance to a 1e-12 reference, per column max, with every
        # column scale floored at the residual's references (p_ref, m_ref,
        # p_ref m_ref for powers), because a loop without demand carries no
        # flow. Full Newton (the policy below the threshold) often lands far
        # closer than chord's stop just under the tolerance, so the bound is
        # 3x the larger of full Newton's distance and chord Newton's on
        # SuperLU, an independent factor: the block factor costs chord no
        # accuracy.
        def run(threshold, tol=1e-8, step=timeloop._newton_step):
            with monkeypatch.context() as m:
                m.setattr(gn.SolverConfig, "sparse_threshold", threshold)
                m.setattr(timeloop, "_newton_step", step)
                return gn.simulate(g, scen, gn.SolverConfig(newton_abs_tol=tol)).data

        loops = 0
        for seed in self.SEEDS:
            spec, scen = generated_transient(seed, demand)
            loops += len(spec.pipes) + len(spec.compressors) >= len(spec.nodes)
            g = gn.assemble(spec)
            chord = run(0)
            ref, full = run(2000, 1e-12), run(2000)
            superlu = run(0, step=superlu_newton_step)
            _, p_ref, m_ref = gn.bind_inputs(g, scen)
            floor = [p_ref if name.endswith(".p_Pa") else m_ref if name.endswith(".m")
                     else p_ref * m_ref if name.endswith(".power") else 0.0
                     for name in g.record_names()]
            scale = np.maximum(np.abs(ref).max(axis=0), floor)
            dev_chord, dev_full, dev_superlu = (
                (np.abs(data - ref) / scale).max() for data in (chord, full, superlu))
            assert dev_chord <= 3.0 * max(dev_full, dev_superlu), f"seed {seed}"
        assert 10 <= loops < len(self.SEEDS)

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
        scaled = raw / g.row_scale()
        assert scaled[g.mom_sl[0].start] == pytest.approx(1e-5)

    def test_momentum_reference_floors_at_one(self, gas):
        g = single_pipe_system(gas)
        gn.steady_state(g, {"s": 80e5, "d": 0.0})
        assert g.references[1] == 1.0

    def test_one_reference_rule(self, gas):
        # p_ref is the first declared supply's level, m_ref the largest
        # |demand level| floored at 1; bind_inputs, steady_state and
        # initial_guess all read it from GlobalSystem.reference_levels
        kinds = {"d1": gn.NodeKind.DEMAND, "s2": gn.NodeKind.SUPPLY, "j": gn.NodeKind.JUNCTION,
                 "s1": gn.NodeKind.SUPPLY, "d2": gn.NodeKind.DEMAND}
        ends = [("s2", "j"), ("s1", "j"), ("j", "d1"), ("j", "d2")]
        g = gn.assemble(gn.NetworkSpec(gas, [gn.Node(k, v) for k, v in kinds.items()], [
            gn.PipeEdge(gn.PipeSpec(f"P{i}", 40e3, 1.0, 0.003, 6), a, b)
            for i, (a, b) in enumerate(ends)]))
        assert g.reference_levels({"s2": 70e5, "s1": 72e5, "d1": -150.0, "d2": 120.0}) == (
            70e5, 150.0)
        assert g.reference_levels({"s2": 70e5, "s1": 72e5, "d1": 0.5, "d2": -0.25}) == (
            70e5, 1.0)
        inputs = {"s2": 70e5, "s1": 71e5, "d1": 150.0, "d2": -120.0}
        assert np.all(g.initial_guess(inputs)[g.mu_p] == 70e5)
        gn.steady_state(g, inputs)
        assert g.references == (70e5, 150.0)
        t = np.array([0.0, 1800.0])
        scen = gn.Scenario(3600.0, 600.0, {
            "s2": (t, np.array([69e5, 75e5])), "s1": (t, np.array([72e5, 72e5])),
            "d1": (t, np.array([100.0, -180.0])), "d2": (t, np.array([50.0, 20.0]))})
        assert gn.bind_inputs(g, scen)[1:] == (69e5, 180.0)

    def test_scaling_is_diagonal(self, gas):
        # one reference per row: the solver divides the residual row by row
        g = single_pipe_system(gas)
        g.references = (8e6, 300.0)
        scale = g.row_scale()
        assert scale.shape == (g.n,)
        assert set(scale.tolist()) == {8e6, 300.0}


class TestSteadyState:
    def test_no_demand_means_uniform_pressure(self, gas):
        g = single_pipe_system(gas)
        x = gn.steady_state(g, {"s": 80e5, "d": 0.0})
        snap = record_dict(g, x[: g.n_z], {"s": 80e5, "d": 0.0})
        assert snap["line.out.p_Pa"] == pytest.approx(80e5, rel=1e-9)
        assert abs(snap["line.in.m"]) <= 1e-5

    # generated network 39 has no steady state at zero net demand
    # (`test_generated_network_39_cannot_carry_its_station_flow`)
    NO_STEADY_STATE = {39}

    @pytest.mark.parametrize("demand", ["zero", "cancelling"])
    def test_generated_networks_at_zero_net_demand(self, demand):
        # at zero demand every Kirchhoff flow is zero, where the steady
        # Jacobian is singular on loops and on supply-to-supply paths, so the
        # start floors each at 1; "cancelling" shifts the generated demands
        # to sum to zero (up to rounding)
        stalled = []
        for seed in range(60):
            spec, inputs = generated_network(seed)
            demands = [nd.id for nd in spec.nodes if nd.kind is gn.NodeKind.DEMAND]
            levels = np.array([inputs[d] for d in demands])
            if demand == "zero":
                levels[:] = 0.0
            elif demands:
                levels -= levels.mean()
            inputs.update(zip(demands, levels.tolist()))
            g = gn.assemble(spec)
            if seed in self.NO_STEADY_STATE:
                with pytest.raises(gn.NonconvergenceError):
                    gn.steady_state(g, inputs)
                continue
            try:
                gn.steady_state(g, inputs)
            except gn.NonconvergenceError as exc:
                stalled.append(f"seed {seed}: {exc}")
        assert not stalled, "\n".join(stalled)

    def test_generated_network_197_converges_from_the_kirchhoff_start(self):
        # a loop n3 -> n4 -> c0 (fp-av) -> n6 -> n3 with demands from -100 to
        # 100: from a unit flow on every pipe the line search stalled at
        # iteration 14, and trial states with a negative outlet pressure
        # upstream of c0 warned in its inlet factor. The Kirchhoff start
        # converges in 4 iterations, without a warning
        spec, inputs = generated_network(197)
        demands = [nd.id for nd in spec.nodes if nd.kind is gn.NodeKind.DEMAND]
        inputs.update(zip(demands, np.linspace(-100.0, 100.0, len(demands)).tolist()))
        assert [(st.id, st.framework.value, st.assumption.value)
                for st in spec.compressors] == [("c0", "fp", "av")]
        g = gn.assemble(spec)
        g.references = g.reference_levels(inputs)
        scale = g.row_scale()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                                  g.initial_guess(inputs), gn.SolverConfig(),
                                  colors=g.jac_colors())
            x = gn.steady_state(g, inputs)
        assert res.iterations <= 4 and res.history[-1] <= gn.SolverConfig().newton_abs_tol
        assert np.array_equal(x, res.x)

    def test_generated_network_39_cannot_carry_its_station_flow(self):
        # c0 (fp-am) holds its outlet at 71.5 bar, and its downstream pipe p6
        # ends at the 62.4 bar supply n4, so p6 carries a fixed flow; with no
        # demand the same flow must come from the 69.7 bar supply n0 through
        # p0, p1 and p3, and p0 alone cannot carry it
        spec, inputs = generated_network(39)
        pipes = {pe.spec.id: pe for pe in spec.pipes}
        st = spec.compressors[0]
        assert (st.framework, st.assumption) == (gn.Framework.FIXED_PRESSURE,
                                                 gn.Assumption.CONST_MOMENTUM)
        assert [(pipes[k].from_node, pipes[k].to_node) for k in ("p0", "p1", "p3", "p6")] == [
            ("n0", "n1"), ("n1", "n2"), ("n2", "c0.in"), ("c0.out", "n4")]
        p6, gas = pipes["p6"].spec, spec.gas
        m = np.sqrt((st.pressure ** 2 - inputs["n4"] ** 2)
                    / (p6.friction * gas.c2 / p6.diameter * p6.length))
        assert gn.steady_pipe_oracle(p6, gas, st.pressure, m) == pytest.approx(inputs["n4"])
        with pytest.raises(gn.InfeasibleFlowError, match="pipe 'p0'"):
            gn.steady_pipe_oracle(pipes["p0"].spec, gas, inputs["n0"], m)

    def test_constant_demand_matches_oracle(self, gas):
        g = single_pipe_system(gas, n_cells=32)
        x = gn.steady_state(g, {"s": 80e5, "d": 300.0})
        snap = record_dict(g, x[: g.n_z], {"s": 80e5, "d": 300.0})
        oracle = gn.steady_pipe_oracle(g.pipes[0], gas, 80e5, 300.0)
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


class TestSolveFailures:
    """A singular Jacobian names the solve it stopped, as a nonconvergence does."""

    def test_steady_solve(self):
        g = gn.assemble(gn.parse_network(PARALLEL_NET_JSON))
        with pytest.raises(gn.FactorizationError) as info:
            gn.steady_state(g, {"s": 50e5, "d": 0.0})
        assert str(info.value) == f"steady-state solve failed: {PARALLEL_SINGULAR}"

    def test_step(self):
        # a step residual that ignores the last unknown (station_out's
        # potential, on the border) has a zero Jacobian column
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        fn = gn.bind_inputs(g, scen)[0]
        x = gn.steady_state(g, fn(0.0))
        make = g.make_step_residual

        def frozen(*args):
            fun = make(*args)
            return lambda v: fun(np.concatenate([v[:-1], x[-1:]]))

        g.make_step_residual = frozen
        with pytest.raises(gn.FactorizationError) as info:
            gn.step_midpoint(g, x, 600.0, 300.0, lambda t: {**fn(0.0), "sink": 300.0})
        assert re.fullmatch(r"step at t=900 s failed: Jacobian factorization failed: "
                            r"the border block \(\d+ unknowns\) is singular", str(info.value))


class TestMidpointStep:
    def test_equilibrium_is_a_fixed_point(self, gas):
        g = single_pipe_system(gas, n_cells=16)
        inputs = {"s": 80e5, "d": 250.0}
        x = gn.steady_state(g, inputs)
        x1, _ = gn.step_midpoint(g, x, 0.0, 100.0, lambda t: inputs)
        assert np.abs(g.steady_residual(x1, inputs) / g.row_scale()).max() <= 1e-7
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
            influx = g.net_mass_influx(z_mid, x_new)
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

    @pytest.mark.parametrize("dt", [1e-300, 1e-12, 1e-310])
    def test_a_grid_the_records_cannot_hold_fails_before_the_steady_solve(
            self, monkeypatch, dt):
        # numpy refuses these sizes without touching memory; a dt whose
        # records it could allocate (1e-3 s is 86.4 M steps) is never tried
        def no_steady(*args, **kwargs):
            raise AssertionError("the steady solve ran before the records were allocated")

        monkeypatch.setattr(timeloop, "steady_state", no_steady)
        spec, scen = benchmark_with_model("fc-am")
        with pytest.raises(gn.ConfigurationError,
                           match=rf"^t_end=86400 s at dt={dt:g} s gives \S+ steps, "
                                 "more than the records can hold$"):
            gn.simulate(gn.assemble(spec), scen, gn.SolverConfig(dt=dt))

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
        # the chord path (the block factor reused across iterations) against
        # a plain dense Newton kept here as reference: dense colored FD
        # Jacobian and LAPACK solve, full steps
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
        # above the threshold one chord Newton solve on the block factor
        # stays far below the 8 n^2 bytes a dense Jacobian would take
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

    def test_nonconvergence_carries_time_stamp(self, gas, monkeypatch):
        monkeypatch.setattr(timeloop, "MAX_ITERATIONS", 12)
        g = single_pipe_system(gas, n_cells=8)
        scen = gn.Scenario(t_end=400.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([80e5])),
            # extraction far beyond what the pipe can sustain
            "d": (np.array([0.0, 100.0]), np.array([100.0, 1e5])),
        })
        with pytest.raises((gn.NonconvergenceError, gn.StateError)) as err:
            gn.simulate(g, scen)
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
