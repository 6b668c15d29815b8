import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gasnetsim as gn

from gasnetsim import blocks, timeloop
from gasnetsim.cli import _apply_model_override
from gasnetsim.network import SEGMENT_CELLS

from casekit import (GAS, PARALLEL_NET_JSON, PARALLEL_SINGULAR, benchmark_with_model,
                     branched_tree, closed_pipe, column_units, consistent_state, csc_jacobian,
                     dense_newton_step, generated_network, generated_steady_case,
                     kirchhoff_start, ladder_system, one_block, per_column_fd_jacobian,
                     record_dict, single_pipe_system, single_supply_tree)


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


def holed_square(lo, hi, fill, trials):
    """x^2 - 4, but `fill` (NaN or an infinity) on lo < x < hi; every evaluation
    goes to `trials` as (x, F)."""
    def fun(x):
        F = np.where((x > lo) & (x < hi), fill, x * x - 4.0)
        trials.append((float(x[0]), float(F[0])))
        return F
    return fun


class TestNonFiniteTrials:
    """A NaN or an infinity in a trial's residual makes its norm fail every test."""

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
    def test_at_the_start_raises(self, fill):
        with pytest.raises(gn.StateError, match="^residual not finite at the initial guess$"):
            gn.newton_solve(holed_square(0.0, 1.0, fill, []), np.array([0.5]),
                            colors=dense_coloring(1))

    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_line_search_backtracks_past_them(self, fill):
        # from 0.5 the full step lands at 4.25, past 3: halved, it is kept
        trials = []
        res = gn.newton_solve(holed_square(3.0, np.inf, fill, trials), np.array([0.5]),
                              colors=dense_coloring(1))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)
        bad = [x for x, F in trials if not np.isfinite(F)]
        assert len(bad) == 1 and bad[0] == pytest.approx(4.25, rel=1e-6)
        assert all(np.isfinite(res.history))

    def test_chord_trial_drops_the_factor_and_refactors(self, monkeypatch):
        # chord Newton from 3: the second step on the first factor lands at
        # 2.051, inside the hole, so the factor is dropped and a second
        # Jacobian is built there; without the hole one factor serves
        monkeypatch.setattr(gn.SolverConfig, "sparse_threshold", 0)
        runs, bad = {}, {}
        for hole in ((2.03, 2.1), (9.0, 9.0)):
            trials = []
            runs[hole] = gn.newton_solve(holed_square(*hole, np.nan, trials), np.array([3.0]),
                                         colors=dense_coloring(1))
            assert runs[hole].x[0] == pytest.approx(2.0, abs=1e-9)
            bad[hole] = [x for x, F in trials if not np.isfinite(F)]
        assert bad[(9.0, 9.0)] == [] and runs[(9.0, 9.0)].jacobians == 1
        assert len(bad[(2.03, 2.1)]) == 1 and bad[(2.03, 2.1)][0] == pytest.approx(2.051, abs=1e-3)
        assert runs[(2.03, 2.1)].jacobians == 2
        assert all(np.isfinite(runs[(2.03, 2.1)].history))


def superlu_newton_step(fun, x, F, colors, slot):
    """``timeloop._newton_step`` on SuperLU, an independent factor of the same
    Jacobian values; chord Newton keeps it in ``slot`` as it keeps the block
    factor."""
    from scipy.sparse.linalg import splu

    lu = splu(csc_jacobian(colors.values(fun, x, F), colors, x.size))
    if slot is not None:
        slot[0] = lu
    return lu.solve(-F)


def full_newton(fun, x0, cfg=None, *, colors):
    """Reference for the chord path: full Newton steps, a fresh Jacobian and
    SuperLU factor at every iterate, no line search."""
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
        # from the Kirchhoff start: the line's own start is already converged
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                              kirchhoff_start(g, inputs), gn.SolverConfig(), colors=g.jac_colors())
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
        # a dead demand-node row
        g = single_pipe_system(gas, n_cells=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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
    x = consistent_state(g, inputs, rng)
    x[g.bank.mom] = 0.0 if demand == "zero" else -np.abs(x[g.bank.mom])
    x = g.algebraic_solve(x, inputs)
    scale = g.row_scale()
    step = g.make_step_residual(x[: g.n_z] * (1.0 + rng.normal(0.0, 1e-3, g.n_z)), 600.0, inputs)
    funs = [lambda v: step(v) / scale]
    supplies = sum(nd.kind is gn.NodeKind.SUPPLY for nd in spec.nodes)
    tree = len(spec.pipes) + len(spec.compressors) == len(spec.nodes) - 1
    if demand == "reverse" or (tree and supplies == 1):
        funs.append(lambda v: g.steady_residual(v, inputs) / scale)
    colors = g.jac_colors()
    for fun in funs:
        F = fun(x)
        ref = dense_newton_step(fun, x, F, colors)
        vals = colors.values(fun, x, F)
        # both factor forms: one-use (one pass, no inverse) and kept (chord)
        dx = blocks.BlockFactor(vals, colors.layout, -F, False).x
        dx_kept = blocks.BlockFactor(vals, colors.layout, -F, True).solve(-F)
        assert np.abs(dx - ref).max() <= 1e-10 * np.abs(ref).max()
        assert np.abs(dx - dx_kept).max() <= 1e-12 * np.abs(dx).max()


class TestBorderStructure:
    """The border is the cut cells, the mu_m unknowns and the node potentials.

    A pipe's inlet pressure is its from-node's potential, so a potential
    that starts several pipes is a port of each of their first segments.
    """

    @staticmethod
    def check_border(g):
        layout = g.jac_colors().layout
        segment, _ = g._segments()
        P, N = len(g.pipes), len(g.node_order)
        cut = np.flatnonzero(segment[: g.n_z] < 0)
        assert g.n == g.n_z + P + N
        assert np.array_equal(layout.border, np.concatenate([cut, g.mu_m, np.arange(N) + g.n - N]))
        assert sorted(g.lam.values()) == list(range(g.n - N, g.n))
        return layout

    @staticmethod
    def max_port_uses(layout):
        """The most segments that read one border column."""
        ports = np.concatenate([sg.ports.ravel() for sg in layout.groups])
        return int(np.bincount(ports).max(initial=0))

    @pytest.mark.parametrize("tag", ["none", "fc-av", "fc-am", "fp-av", "fp-am"])
    @pytest.mark.parametrize("cells", [None, 256])
    def test_day_line_border(self, tag, cells):
        g = gn.assemble(_apply_model_override(benchmark_with_model(tag)[0], None, cells))
        self.check_border(g)

    def test_generated_network_borders(self):
        seen, shared = set(), 0
        for seed in range(60):
            spec, _ = generated_network(seed)
            for cells in (None, SEGMENT_CELLS + 1):
                g = gn.assemble(_apply_model_override(spec, None, cells))
                shared = max(shared, self.max_port_uses(self.check_border(g)))
            links = len(spec.pipes) + len(spec.compressors)
            seen |= {"loop" if links >= len(spec.nodes) else "tree"}
            seen |= {st.framework.value for st in spec.compressors}
            supplies = {nd.id for nd in spec.nodes if nd.kind is gn.NodeKind.SUPPLY}
            seen |= {"supply-end"} if any(pe.to_node in supplies for pe in spec.pipes) else set()
        # every network has pipes fed by its supply n0; some also end at a second supply
        assert seen == {"loop", "tree", "fc", "fp", "supply-end"}
        # some node starts several pipes: its potential is a port of several segments
        assert shared >= 2

    def test_all_border_system_matches_the_dense_solve(self):
        # no segments: the kept factor inverts D whole
        n = 4
        pattern = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 2), (2, 3), (3, 3), (3, 0), (3, 2)]
        colors = blocks.color_columns(pattern, (np.full(n, -1), []))
        rng = np.random.default_rng(0)
        J = np.zeros((n, n))
        J[tuple(np.array(pattern).T)] = rng.uniform(1.0, 2.0, len(pattern))
        rhs = rng.normal(size=n)
        x = blocks.BlockFactor(J[colors.rows, colors.cols], colors.layout, rhs, True).x
        assert np.allclose(x, np.linalg.solve(J, rhs), rtol=1e-12, atol=0.0)

    def test_kept_factor_inverts_the_whole_border(self):
        # the ladder: 179 border unknowns, some node potentials shared by several segments
        g, scen = ladder_system()
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        scale, inputs = g.row_scale(), fn(0.0)

        def fun(v):
            return g.steady_residual(v, inputs) / scale

        x = g.initial_guess(inputs)
        F, colors = fun(x), g.jac_colors()
        nb = self.check_border(g).border.size
        assert nb == 179 and self.max_port_uses(colors.layout) >= 2
        vals = colors.values(fun, x, F)
        kept = blocks.BlockFactor(vals, colors.layout, -F, True)
        assert kept.Sinv.shape == (nb, nb)
        dx = blocks.BlockFactor(vals, colors.layout, -F, False).x
        assert np.abs(kept.x - dx).max() <= 1e-12 * np.abs(dx).max()


def newton_peak_bytes(g):
    """tracemalloc's peak over one steady Newton solve of g from the Kirchhoff start.

    g is a line, whose own start (`GlobalSystem.initial_guess`) is already
    converged.
    """
    import tracemalloc

    inputs = {"s": 80e5, "d": 250.0}
    g.references = (80e5, 250.0)
    scale = g.row_scale()
    colors = g.jac_colors()
    x0 = kirchhoff_start(g, inputs)
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


def test_zero_and_reverse_flow_through_a_transient():
    # the day line's demand falls to zero at 6 h and turns into an injection
    # at 12 h, so the flow through the station stops and reverses. At every
    # sample each station model keeps its two rules, the fused junction
    # passes p and m through, and the per-step mass ledger closes to the
    # solver tolerance: n_cells rows, each within tol x m_ref per second.
    # Momenta cross zero, so the momentum rule is held absolutely, against
    # the 200 of the starting demand. The station reports one reverse flow,
    # at the first sample that shows it (measured when the test was written)
    first_reverse = {"none": None, "fc-av": 23400, "fc-am": 24600,
                     "fp-av": 22800, "fp-am": 22800}
    cfg = gn.SolverConfig(dt=600.0)
    for tag, t_reverse in first_reverse.items():
        spec, scen = benchmark_with_model(tag)
        scen.profiles["sink"] = (np.array([0.0, 21600.0, 43200.0]),
                                 np.array([200.0, 0.0, -100.0]))
        g = gn.assemble(spec)
        ts = gn.simulate(g, scen, cfg)
        p_up, m_up = ts.column("west.out.p_Pa"), ts.column("west.out.m")
        p_down, m_down = ts.column("east.in.p_Pa"), ts.column("east.in.m")
        assert m_down.min() < -100.0, tag
        if tag == "none":
            outlet, k = p_up, 1.0
        else:
            fc = tag.startswith("fc")
            sp = scen.value("station.ratio" if fc else "station.pressure", 0.0)
            outlet = sp * p_up if fc else np.full_like(p_up, sp)
            c = sp if fc else sp / p_up
            k = c ** (-1.0 / spec.gas.isentropic_exponent) if tag.endswith("av") else 1.0
        assert np.all(np.abs(p_down - outlet) <= 1e-9 * outlet), tag
        assert np.all(np.abs(m_up - k * m_down) <= 1e-9 * 200.0), tag
        n_cells = sum(p.n_cells for p in g.pipes)
        defect = np.diff(ts.mass_total) - cfg.dt * ts.influx_mid
        assert np.all(np.abs(defect) <= n_cells * cfg.newton_abs_tol * g.references[1] * cfg.dt)
        want = [] if t_reverse is None else [
            f"reverse flow through compressor 'station' at t={t_reverse} s"]
        assert ts.warnings == want, tag


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
        """The day line's steady state by chord Newton from the Kirchhoff start.

        `steady_state` starts the line at its steady state and keeps no
        factor, so the Newton solve runs here, and keeps its factor.
        """
        spec, scen = day_transient(tag)
        g = gn.assemble(spec)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        scale, inputs = g.row_scale(), fn(0.0)
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                              kirchhoff_start(g, inputs), self.CFG, colors=g.jac_colors())
        assert res.iterations >= 1
        return g, fn, res.x

    def test_records_within_three_times_the_full_newton_error(self, monkeypatch):
        # ladder (n = 2867, above the default threshold), all four station
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
        assert np.all(g.initial_guess(inputs)[g.p_in] == 70e5)
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
        snap = record_dict(g, x, {"s": 80e5, "d": 0.0})
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
            spec, inputs = generated_steady_case(seed, demand)
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
        # converges in 4 iterations, without a warning; so does the steady
        # solve, whose reduced Newton starts from the same flows. Its state
        # certifies, and lies within 1e-7 (column-scaled) of a 1e-11 reference
        spec, inputs = generated_network(197)
        demands = [nd.id for nd in spec.nodes if nd.kind is gn.NodeKind.DEMAND]
        inputs.update(zip(demands, np.linspace(-100.0, 100.0, len(demands)).tolist()))
        assert [(st.id, st.framework.value, st.assumption.value)
                for st in spec.compressors] == [("c0", "fp", "av")]
        g = gn.assemble(spec)
        g.references = g.reference_levels(inputs)
        scale = g.row_scale()

        def fun(v):
            return g.steady_residual(v, inputs) / scale

        tol = gn.SolverConfig().newton_abs_tol
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gn.newton_solve(fun, g.initial_guess(inputs), gn.SolverConfig(),
                                  colors=g.jac_colors())
            x = gn.steady_state(g, inputs)
        assert res.iterations <= 4 and res.history[-1] <= tol
        assert np.abs(fun(x)).max() <= tol
        ref = gn.newton_solve(fun, g.initial_guess(inputs), gn.SolverConfig(newton_abs_tol=1e-11),
                              colors=g.jac_colors())
        assert (np.abs(x - ref.x) / column_units(g)).max() <= 1e-7

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
        snap = record_dict(g, x, {"s": 80e5, "d": 300.0})
        oracle = gn.steady_pipe_oracle(g.pipes[0], gas, 80e5, 300.0)
        assert abs(snap["line.out.p_Pa"] - oracle) / oracle <= 0.005

    def test_benchmark_station_ratio_exact(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        x = gn.steady_state(g, fn(0.0), set_references=False)
        snap = record_dict(g, x, fn(0.0))
        assert snap["east.in.p_Pa"] / snap["west.out.p_Pa"] == pytest.approx(1.2, rel=1e-12)

    def test_converges_within_25_iterations_from_flat_start(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        scale = g.row_scale()
        inputs0 = fn(0.0)
        res = gn.newton_solve(lambda v: g.steady_residual(v, inputs0) / scale,
                              kirchhoff_start(g, inputs0), gn.SolverConfig(),
                              colors=g.jac_colors())
        assert 1 <= res.iterations <= 25


def outlet_entered_line():
    """The day line with the supply behind the station: the walk from the
    supply enters the station at its outlet. (spec, inputs)"""
    nodes = [gn.Node("d", gn.NodeKind.DEMAND), gn.Node("ci", gn.NodeKind.JUNCTION),
             gn.Node("co", gn.NodeKind.JUNCTION), gn.Node("s", gn.NodeKind.SUPPLY)]
    pipes = [gn.PipeEdge(gn.PipeSpec("up", 60e3, 1.0, 0.002, 8), "d", "ci"),
             gn.PipeEdge(gn.PipeSpec("down", 60e3, 1.0, 0.002, 8), "co", "s")]
    comps = [gn.CompressorStation("c", "ci", "co", gn.Framework("fc"), gn.Assumption("am"),
                                  ratio=1.2)]
    return gn.NetworkSpec(GAS, nodes, pipes, comps), {"d": 50.0, "s": 70e5, "c": 1.2}


class TestDirectSteadyStart:
    """On a tree with one supply whose walk enters every station at its
    inlet, `initial_guess` is the steady state in closed form, and the
    steady solve's Newton only certifies it."""

    REFERENCE = gn.SolverConfig(newton_abs_tol=1e-11)

    def certify(self, g, inputs, monkeypatch):
        # the start's residual; steady_state's counts; its distance, per
        # unknown scaled by the residual's references, to Newton from the
        # Kirchhoff start
        g.references = g.reference_levels(inputs)
        scale = g.row_scale()

        def fun(v):
            return g.steady_residual(v, inputs) / scale

        x0 = g.initial_guess(inputs)
        assert np.abs(fun(x0)).max() <= 1e-12
        results, newton = [], timeloop.newton_solve

        def recorded(*args, **kwargs):
            results.append(newton(*args, **kwargs))
            return results[-1]

        with monkeypatch.context() as m:
            m.setattr(timeloop, "newton_solve", recorded)
            x = gn.steady_state(g, inputs)
        (res,) = results
        assert res.iterations == 0 and res.jacobians == 0 and np.array_equal(x, x0)
        ref = gn.newton_solve(fun, kirchhoff_start(g, inputs), self.REFERENCE,
                              colors=g.jac_colors())
        assert ref.iterations >= 1
        assert (np.abs(x - ref.x) / column_units(g)).max() <= 1e-8

    @pytest.mark.parametrize("tag", ["none", "fc-av", "fc-am", "fp-av", "fp-am"])
    def test_day_line_at_every_demand_level(self, tag, monkeypatch):
        spec, scen = benchmark_with_model(tag)
        g = gn.assemble(spec)
        fn = gn.bind_inputs(g, scen)[0]
        for inputs in [fn(t) for t in np.arange(0.0, 86400.0, 3600.0)] + [
                {**fn(0.0), "sink": 0.0}, {**fn(0.0), "sink": -0.5}]:
            self.certify(g, inputs, monkeypatch)

    def test_branched_tree_with_every_station_variant(self, monkeypatch):
        # pipes marched backward (toward the supply, and toward a junction
        # behind a station), an fp-av factor behind an fc-av one
        spec, inputs = branched_tree()
        assert single_supply_tree(spec)
        self.certify(gn.assemble(spec), inputs, monkeypatch)

    def test_generated_single_supply_trees(self, monkeypatch):
        seeds = [seed for seed in range(200) if single_supply_tree(generated_network(seed)[0])]
        assert len(seeds) == 14
        for seed in seeds:
            spec, inputs = generated_network(seed)
            self.certify(gn.assemble(spec), inputs, monkeypatch)

    def test_other_networks_keep_the_kirchhoff_start(self):
        # loops, two supplies, a station entered at its outlet: the start is
        # the Kirchhoff rule bit for bit
        cases = [generated_network(seed) for seed in range(200)]
        cases = [case for case in cases if not single_supply_tree(case[0])]
        cases.append(outlet_entered_line())
        supplies = [sum(nd.kind is gn.NodeKind.SUPPLY for nd in spec.nodes) for spec, _ in cases]
        loops = [len(spec.pipes) + len(spec.compressors) >= len(spec.nodes) for spec, _ in cases]
        assert max(supplies) == 2 and any(n == 1 and loop for n, loop in zip(supplies, loops))
        for spec, inputs in cases:
            g = gn.assemble(spec)
            assert not g._tree_walk()
            assert np.array_equal(g.initial_guess(inputs), kirchhoff_start(g, inputs))

    def test_unsettled_fp_av_factor_leaves_the_kirchhoff_start(self):
        # at 1450 the first pass, with the fp-av factor at the supply
        # pressure, cannot carry west's flow; the factor has not settled and
        # the march at factor 0 holds, so no pipe is named and Newton gets
        # the Kirchhoff start
        spec, scen = benchmark_with_model("fp-av")
        g = gn.assemble(spec)
        inputs = {**gn.bind_inputs(g, scen)[0](0.0), "sink": 1450.0}
        assert np.array_equal(g.initial_guess(inputs), kirchhoff_start(g, inputs))

    @pytest.mark.parametrize("model, demand, message", [
        ("fc-am", ("sink", 2500.0), "pipe 'west' cannot carry the steady flow m=2500 from "
                                    "p_in=8e+06 Pa: no positive density at cell 10"),
        ("fc-am", ("B", 3000.0), "pipe 'back' cannot carry the steady flow m=-3000 from "
                                 "p_out=7e+06 Pa: no positive density at cell 3"),
        ("fp-av", ("sink", 2500.0), "pipe 'east' cannot carry the steady flow m=2500 from "
                                    "p_in=8.4e+06 Pa: no positive density at cell 11"),
        (None, ("D1", 3000.0), "pipe 'd1' cannot carry the steady flow m=3000 from "
                               "p_in=6.7e+06 Pa: no positive density at cell 2"),
    ], ids=["day-line-forward", "tree-backward", "fp-av-day-line", "fp-av-tree"])
    def test_infeasible_demand_names_the_pipe_and_cell(self, model, demand, message):
        # the march finds the first cell, in march order, with no positive
        # density; while an fp-av factor moves (the last two cases: east is
        # fed at the fp-av setpoint, d1 at fp-av c1's), the march at factor 0
        # names the pipe that no factor relieves
        if demand[0] == "sink":
            spec, scen = benchmark_with_model(model)
            g = gn.assemble(spec)
            inputs = gn.bind_inputs(g, scen)[0](0.0)
        else:   # the tree's own stations, or all fc-am: every factor settled from the start
            spec, inputs = branched_tree()
            spec = _apply_model_override(spec, model, None)
            inputs.update({st.id: st.default_setpoint() for st in spec.compressors})
            g = gn.assemble(spec)
        inputs = {**inputs, demand[0]: demand[1]}
        with pytest.raises(gn.InfeasibleFlowError, match=f"^{re.escape(message)}$"):
            g.initial_guess(inputs)
        with pytest.raises(gn.InfeasibleFlowError,
                           match=f"^steady-state solve failed: {re.escape(message)}$"):
            gn.steady_state(g, inputs)

    def test_second_order_in_space_against_the_oracle(self, gas):
        # one day pipe at 300 kg/(m^2 s) from 80 bar, 8 to 512 cells
        inputs = {"s": 80e5, "d": 300.0}
        errors = []
        for n in (8, 16, 32, 64, 128, 256, 512):
            g = single_pipe_system(gas, n_cells=n, length=181.5e3)
            x = gn.steady_state(g, inputs)
            exact = gn.steady_pipe_oracle(g.pipes[0], gas, 80e5, 300.0)
            errors.append(abs(record_dict(g, x, inputs)["line.out.p_Pa"] - exact))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert orders.min() >= 1.95


class TestReducedSteady:
    """Off the single-supply trees, the steady solve first runs Newton on
    the port variables y = (q per pipe, lambda per node), every pipe
    eliminated by its closed-form march, and hands x(y) to the Newton on
    all n unknowns, which certifies it where the reduced Newton converged."""

    MODES = ("generated", "zero", "cancelling")

    @staticmethod
    def solves(g, inputs, monkeypatch):
        """steady_state's Newton solves, in order: per solve its start and its
        NewtonResult or the exception it raised (re-raised here)."""
        solves, newton = [], timeloop.newton_solve

        def recorded(fun, x0, *args, **kwargs):
            try:
                solves.append((np.array(x0), newton(fun, x0, *args, **kwargs)))
            except (gn.NonconvergenceError, gn.FactorizationError, gn.StateError) as exc:
                solves.append((np.array(x0), exc))
                raise
            return solves[-1][1]

        with monkeypatch.context() as m:
            m.setattr(timeloop, "newton_solve", recorded)
            try:
                gn.steady_state(g, inputs)
            finally:
                m.undo()
        return solves

    def test_generated_networks(self, monkeypatch):
        # the parent's 597 of 600 cases reach a steady state (seed 39 has
        # none, `test_generated_network_39_cannot_carry_its_station_flow`),
        # and wherever the reduced Newton converges (438 of the 555 such
        # cases off the single-supply trees on its exact Jacobian, 351 on
        # the colored FD one before), the Newton on all n unknowns takes no
        # iteration and builds no Jacobian. Elsewhere it starts from x at
        # the reduced Newton's best point: a pipe whose flow a Newton step
        # puts at exactly 0 (a dead end at zero demand) has a zero 1 x 1
        # block, and most of the other cases end there
        failed, converged, reduced = [], 0, 0
        for seed in range(200):
            for demand in self.MODES:
                spec, inputs = generated_steady_case(seed, demand)
                g = gn.assemble(spec)
                try:
                    solves = self.solves(g, inputs, monkeypatch)
                except gn.NonconvergenceError:
                    failed.append((seed, demand))
                    continue
                assert len(solves) == (1 if single_supply_tree(spec) else 2)
                if len(solves) == 2:
                    reduced += 1
                    (y0, first), (x0, full) = solves
                    assert y0.size == len(g.pipes) + len(g.node_order)
                    if isinstance(first, gn.NewtonResult):
                        converged += 1
                        assert full.iterations == 0 and full.jacobians == 0, (seed, demand)
                    else:
                        assert np.array_equal(x0, g.port_state(first.x_best)), (seed, demand)
        assert failed == [(39, demand) for demand in self.MODES]
        assert reduced == 555 and converged >= 400

    def test_a_stalled_reduced_solve_hands_on_its_best_point(self, monkeypatch):
        # generated network 108 at zero demand: the reduced Newton stalls,
        # and the Newton on all n unknowns takes 3 iterations from x at its
        # best y, against 35 from the Kirchhoff start
        spec, inputs = generated_steady_case(108, "zero")
        g = gn.assemble(spec)
        (_, reduced), (x0, full) = self.solves(g, inputs, monkeypatch)
        assert isinstance(reduced, gn.NonconvergenceError)
        assert np.array_equal(x0, g.port_state(reduced.x_best))
        assert full.iterations == 3
        scale = g.row_scale()
        kirchhoff = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                                    g.initial_guess(inputs), colors=g.jac_colors())
        assert kirchhoff.iterations == 35

    def test_a_singular_reduced_jacobian_hands_on_its_best_point(self, monkeypatch):
        # generated network 0 at zero demand: the first step puts the
        # dead-end pipes' flows at exactly 0, where their 1 x 1 blocks
        # vanish; the Newton on all n unknowns then takes 3 iterations from
        # x at the best y, against 7 from the Kirchhoff start
        spec, inputs = generated_steady_case(0, "zero")
        g = gn.assemble(spec)
        (_, reduced), (x0, full) = self.solves(g, inputs, monkeypatch)
        assert isinstance(reduced, gn.FactorizationError)
        assert re.fullmatch(r"Jacobian factorization failed: pipe 'p\d' is singular", str(reduced))
        assert np.array_equal(x0, g.port_state(reduced.x_best))
        assert full.iterations == 3
        scale = g.row_scale()
        kirchhoff = gn.newton_solve(lambda v: g.steady_residual(v, inputs) / scale,
                                    g.initial_guess(inputs), colors=g.jac_colors())
        assert kirchhoff.iterations == 7

    def test_a_start_without_a_positive_density_hands_on_the_kirchhoff_start(self, monkeypatch):
        # the fp-av day line at 1450 leaves the closed form
        # (`test_unsettled_fp_av_factor_leaves_the_kirchhoff_start`), and
        # 'west' cannot carry its Kirchhoff flow from the supply pressure,
        # so the reduced residual is not finite at its start
        spec, scen = benchmark_with_model("fp-av")
        g = gn.assemble(spec)
        inputs = {**gn.bind_inputs(g, scen)[0](0.0), "sink": 1450.0}
        (_, reduced), (x0, full) = self.solves(g, inputs, monkeypatch)
        assert isinstance(reduced, gn.StateError)
        assert np.array_equal(x0, kirchhoff_start(g, inputs))
        assert full.history[-1] <= gn.SolverConfig().newton_abs_tol

    def test_jacobian_is_the_dense_fd_jacobian(self):
        # J_R, in closed form, against R's dense per-column forward
        # differences at the reduced start, row-scaled as the solve scales
        # it: every column of the FD changes only rows that J_R lists in
        # that column, and per row the entries agree within 1e-7 of the
        # row's largest, each column weighted by 1 + |y_j| (measured: at
        # most 1.4e-8 over the 600 cases)
        checked = 0
        for seed in range(200):
            for demand in self.MODES:
                spec, inputs = generated_steady_case(seed, demand)
                g = gn.assemble(spec)
                g.references = g.reference_levels(inputs)
                (fun, jac), y = g.make_port_residual(inputs), g.port_start(inputs)
                F = fun(y)
                if not np.all(np.isfinite(F)):
                    continue
                assert jac.groups == []
                J_fd = per_column_fd_jacobian(fun, y, F)
                J = np.zeros_like(J_fd)
                J[jac.rows, jac.cols] = jac.values(fun, y, F)
                listed = np.zeros(J.shape, dtype=bool)
                listed[jac.rows, jac.cols] = True
                assert not np.any((J_fd != 0.0) & ~listed), (seed, demand)
                weight = 1.0 + np.abs(y)
                rows = np.abs(J * weight).max(axis=1, keepdims=True)
                assert np.all(np.abs(J - J_fd) * weight <= 1e-7 * rows), (seed, demand)
                checked += 1
        assert checked >= 590

    def test_ladder_at_any_cell_count(self, monkeypatch):
        # the reduced Newton on the ladder's 179 port variables takes the
        # same iterations at 14, 200 and 1000 cells per pipe, and the Newton
        # on all n unknowns certifies its state at once
        iterations = []
        for cells, n in ((14, 2867), (200, 38579), (1000, 192179)):
            g, scen = ladder_system(cells=cells)
            assert g.n == n
            (_, reduced), (_, full) = self.solves(g, gn.bind_inputs(g, scen)[0](0.0), monkeypatch)
            assert reduced.x.size == 179
            assert full.iterations == 0 and full.jacobians == 0
            iterations.append(reduced.iterations)
        assert iterations == [iterations[0]] * 3
        assert ladder_system()[0].n == 2867


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
        snap0 = record_dict(g, x, inputs)
        snap1 = record_dict(g, x1, inputs)
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
            dmass = g.total_mass(x_new[: g.n_z]) - g.total_mass(x[: g.n_z])
            influx = g.net_mass_influx(x, x_new)
            assert dmass == pytest.approx(dt * influx, rel=1e-9, abs=1e-6)
            x = x_new

    @pytest.mark.parametrize("tag", ["none", "fc-av", "fc-am", "fp-av", "fp-am"])
    def test_energy_ledger_per_step(self, tag):
        # H is quadratic, so a midpoint step changes it by exactly dt times its
        # rate at the midpoint state; at the step's midpoint unknowns
        # power_terms splits that rate into port, station and friction powers
        spec, scen = benchmark_with_model(tag)
        g = gn.assemble(spec)
        fn, _, _ = gn.bind_inputs(g, scen)
        cfg = gn.SolverConfig(newton_abs_tol=1e-11)
        x = gn.steady_state(g, fn(0.0), cfg)
        dt, nz = 900.0, g.n_z
        for i in range(int(scen.t_end / dt)):     # the day's four demand levels
            x_new, _ = gn.step_midpoint(g, x, i * dt, dt, fn, cfg)
            x_mid = np.concatenate([0.5 * (x[:nz] + x_new[:nz]), x_new[nz:]])
            P = g.power_terms(x_mid, fn((i + 0.5) * dt))
            supplied = P["boundary"] + P["compressor"] + P["internal"] - P["dissipation"]
            dH = g.hamiltonian_total(x_new[:nz]) - g.hamiltonian_total(x[:nz])
            scale = dt * max(abs(P[k]) for k in ("boundary", "compressor", "internal",
                                                   "dissipation"))
            assert abs(dH - dt * supplied) <= 1e-9 * scale
            x = x_new


class TestSimulate:
    def test_sample_counts(self):
        spec, scen = benchmark_with_model("fc-am")
        g = gn.assemble(spec)
        ts = gn.simulate(g, scen, gn.SolverConfig(t_end=3600.0))
        assert ts.n_samples == 37
        assert ts.newton_iters.size == 36
        assert np.all(np.diff(ts.t) > 0)

    def test_the_record_at_a_state_is_simulates(self):
        # snapshot(x, inputs) re-solves the port and node rows toward x's own
        # algebraic part: on the tree, back's inlet pressure (the supply's
        # potential) and outlet momentum (B's demand) read as solved, and
        # the row is simulate's, bit for bit, at the steady state and after
        # each step
        spec, inputs = branched_tree()
        g = gn.assemble(spec)
        rec = record_dict(g, gn.steady_state(g, inputs), inputs)
        assert rec["back.in.p_Pa"] == pytest.approx(6998326.511468051, rel=1e-12)
        assert rec["back.out.m"] == pytest.approx(-40.0, rel=1e-12)

        boundary = {nd.id for nd in g.boundary}
        scen = gn.Scenario(t_end=1800.0, dt=600.0, profiles={
            key: (np.array([0.0, 600.0]), np.array([value, 1.1 * value]))
            for key, value in inputs.items() if key in boundary})
        ts = gn.simulate(g, scen)
        fn, p_ref, m_ref = gn.bind_inputs(g, scen)
        g.references = (p_ref, m_ref)
        x = gn.steady_state(g, fn(0.0), set_references=False)
        for i, t in enumerate(ts.t):
            if i:
                x, _ = gn.step_midpoint(g, x, ts.t[i - 1], 600.0, fn)
            assert g.snapshot(x, fn(t)).tobytes() == ts.data[i].tobytes()

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
