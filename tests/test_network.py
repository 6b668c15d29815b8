import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gasnetsim as gn
from gasnetsim.cli import _apply_model_override, main
from gasnetsim.compressor import Assumption, Framework
from gasnetsim.blocks import FD_STEP, block_layout, color_columns, fd_jacobian

from casekit import (GAS, NET_JSON, PipeField, benchmark_with_model, consistent_state,
                     csc_jacobian, dense_jacobian, direct_line, generated_network,
                     incidence_matrices, kirchhoff_start, ladder_system, one_block, oracle,
                     pipe_rhs, power_terms_oracle, record_dict, reference_colors,
                     single_pipe_system, single_supply_tree, station_ends)


def pipe(i, n=8):
    return gn.PipeSpec(f"P{i}", 60e3, 1.0, 0.002, n)


def star_network_spec():
    """Supply - pipe - compressor - pipe - junction splitting to two demands."""
    nodes = [gn.Node("v1", gn.NodeKind.SUPPLY),
             gn.Node("v2", gn.NodeKind.DEMAND),
             gn.Node("v3", gn.NodeKind.DEMAND),
             gn.Node("ci", gn.NodeKind.JUNCTION),
             gn.Node("co", gn.NodeKind.JUNCTION),
             gn.Node("j", gn.NodeKind.JUNCTION)]
    pipes = [gn.PipeEdge(pipe(1), "v1", "ci"),
             gn.PipeEdge(pipe(2), "co", "j"),
             gn.PipeEdge(pipe(3), "j", "v2"),
             gn.PipeEdge(pipe(4), "j", "v3")]
    comp = [gn.CompressorStation("C", "ci", "co", Framework.FIXED_RATIO,
                                 Assumption.CONST_MOMENTUM, ratio=1.15)]
    return gn.NetworkSpec(GAS, nodes, pipes, comp)


STAR_INPUTS = {"v1": 60e5, "v2": 120.0, "v3": 80.0, "C": 1.15}


def diamond_spec(cells=(8, 8, 8)):
    """Two parallel legs of different friction merging at a junction (a loop)."""
    nodes = [gn.Node("s", gn.NodeKind.SUPPLY),
             gn.Node("j", gn.NodeKind.JUNCTION),
             gn.Node("d", gn.NodeKind.DEMAND)]
    pipes = [gn.PipeEdge(gn.PipeSpec("A", 60e3, 1.0, 0.002, cells[0]), "s", "j"),
             gn.PipeEdge(gn.PipeSpec("B", 60e3, 1.0, 0.008, cells[1]), "s", "j"),
             gn.PipeEdge(gn.PipeSpec("C", 40e3, 1.0, 0.004, cells[2]), "j", "d")]
    return gn.NetworkSpec(GAS, nodes, pipes, [])


DIAMOND_INPUTS = {"s": 70e5, "d": 260.0}


def series_stations_spec():
    """Supply - pipe - fc-am station - pipe - fp-av station - pipe - demand."""
    nodes = [gn.Node("s", gn.NodeKind.SUPPLY),
             gn.Node("c1i", gn.NodeKind.JUNCTION),
             gn.Node("c1o", gn.NodeKind.JUNCTION),
             gn.Node("c2i", gn.NodeKind.JUNCTION),
             gn.Node("c2o", gn.NodeKind.JUNCTION),
             gn.Node("d", gn.NodeKind.DEMAND)]
    pipes = [gn.PipeEdge(gn.PipeSpec("P1", 80e3, 1.0, 0.003, 8), "s", "c1i"),
             gn.PipeEdge(gn.PipeSpec("P2", 80e3, 1.0, 0.003, 8), "c1o", "c2i"),
             gn.PipeEdge(gn.PipeSpec("P3", 80e3, 1.0, 0.003, 8), "c2o", "d")]
    comps = [gn.CompressorStation("C1", "c1i", "c1o", Framework.FIXED_RATIO,
                                  Assumption.CONST_MOMENTUM, ratio=1.1),
             gn.CompressorStation("C2", "c2i", "c2o", Framework.FIXED_PRESSURE,
                                  Assumption.CONST_VELOCITY, pressure=80e5)]
    return gn.NetworkSpec(GAS, nodes, pipes, comps)


SERIES_INPUTS = {"s": 70e5, "d": 180.0, "C1": 1.1, "C2": 80e5}


def star_with_model(tag):
    """The star network with its station as `tag`, or fused into a junction."""
    spec = star_network_spec()
    if tag == "none":
        inputs = {k: v for k, v in STAR_INPUTS.items() if k != "C"}
        return gn.fuse_compressors(spec), inputs
    fw, asm = tag.split("-")
    for st in spec.compressors:
        st.framework = Framework(fw)
        st.assumption = Assumption(asm)
        st.pressure = 70e5
    return spec, dict(STAR_INPUTS, C=1.15 if fw == "fc" else 70e5)


def network_case(name):
    """(spec, inputs): the star as built or with station model `name`, or a loop."""
    if name == "star":
        return star_network_spec(), STAR_INPUTS
    if name == "diamond":
        return diamond_spec(), DIAMOND_INPUTS
    if name == "diamond-mixed":
        return diamond_spec(cells=(2, 7, 4)), DIAMOND_INPUTS
    if name == "series":
        return series_stations_spec(), SERIES_INPUTS
    return star_with_model(name)


# the star as built is fc-am, so these cover all five station models
CASES = ["star", "fc-av", "fp-av", "fp-am", "none", "diamond", "diamond-mixed", "series"]


def reference_residual(g, x, zdot, inputs):
    """Per-pipe loop form of the network residual, kept as the test oracle."""
    F = np.empty(g.n)
    for k in range(len(g.pipes)):
        p = oracle(g, k)
        rho = x[g.rho_sl[k]]
        mom = x[g.mom_sl[k]]
        p_in = x[g.lam[g.spec.pipes[k].from_node]]   # the inlet reads its node's potential
        mu_m = x[g.mu_m[k]]
        pres = p.c2 * rho
        dx = p.dx

        m_full = np.empty(p.n + 1)
        m_full[:-1] = mom
        m_full[-1] = -mu_m
        F[g.rho_sl[k]] = dx * zdot[g.rho_sl[k]] + np.diff(m_full)

        rows = F[g.mom_sl[k]]
        fric = p.friction_force(rho, mom)
        rows[0] = 0.5 * dx * zdot[g.mom_sl[k]][0] + (pres[0] - p_in) \
            + 0.5 * dx * fric[0]
        rows[1:] = dx * zdot[g.mom_sl[k]][1:] + np.diff(pres) + dx * fric[1:]

        F[g.mu_m[k]] = (1.5 * pres[-1] - 0.5 * pres[-2]) \
            - x[g.lam[g.spec.pipes[k].to_node]]

    ends = station_ends(g.spec)
    for nd in g.node_order:
        r = g.lam[nd.id]
        if nd.kind is gn.NodeKind.SUPPLY:
            F[r] = x[r] - inputs[nd.id]
        elif nd.id in ends:
            continue
        else:
            extraction = inputs[nd.id] if nd.kind is gn.NodeKind.DEMAND else 0.0
            acc = -extraction
            for k, isout in g.attached[nd.id]:
                if isout:
                    acc -= x[g.mu_m[k]]
                else:
                    acc -= x[g.mom_sl[k]][0]
            F[r] = acc

    for b, st in zip(g.stations, g.spec.compressors):
        r_in, r_out = g.lam[st.inlet_node], g.lam[st.outlet_node]
        sp = inputs[b.id]
        # the port formula above: the station reads the port-out pressure
        pres_up = g.gas.c2 * x[g.rho_sl[b.pipe_up]]
        p1L = 1.5 * pres_up[-1] - 0.5 * pres_up[-2]
        m_down = x[g.mom_sl[b.pipe_down]][0]
        factor = b.variant.factor(sp, p1L, g.gas.isentropic_exponent)
        F[r_in] = -x[g.mu_m[b.pipe_up]] - factor * m_down
        if st.framework is Framework.FIXED_RATIO:
            F[r_out] = x[r_out] - sp * p1L
        else:
            F[r_out] = x[r_out] - sp
    return F


def per_column_fd_jacobian(fun, x, F0):
    """Uncolored forward-difference Jacobian, one residual call per column."""
    J = np.zeros((F0.size, x.size))
    for j in range(x.size):
        h = FD_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (fun(xp) - F0) / h
    return J


def reference_pattern(g):
    """Per-cell loop form of the residual's structural couplings."""
    ent = []
    for k, p in enumerate(g.pipes):
        n = p.n_cells
        r0 = g.rho_sl[k].start
        m0 = g.mom_sl[k].start
        for i in range(n):
            row = r0 + i
            ent.append((row, r0 + i))
            ent.append((row, m0 + i))
            ent.append((row, m0 + i + 1 if i + 1 < n else g.mu_m[k]))
        ent += [(m0, m0), (m0, r0), (m0, g.lam[g.spec.pipes[k].from_node])]
        for j in range(1, n):
            ent += [(m0 + j, m0 + j), (m0 + j, r0 + j - 1), (m0 + j, r0 + j)]
        ent += [(g.mu_m[k], r0 + n - 1), (g.mu_m[k], r0 + n - 2),
                (g.mu_m[k], g.lam[g.spec.pipes[k].to_node])]
    ends = station_ends(g.spec)
    for nd in g.node_order:
        r = g.lam[nd.id]
        if nd.kind is gn.NodeKind.SUPPLY:
            ent.append((r, r))
        elif nd.id not in ends:
            for k, isout in g.attached[nd.id]:
                ent.append((r, g.mu_m[k] if isout else g.mom_sl[k].start))
    for b, st in zip(g.stations, g.spec.compressors):
        r_in, r_out = g.lam[st.inlet_node], g.lam[st.outlet_node]
        last = g.rho_sl[b.pipe_up].stop - 1
        ent += [(r_in, g.mu_m[b.pipe_up]), (r_in, g.mom_sl[b.pipe_down].start)]
        if (st.framework is Framework.FIXED_PRESSURE
                and st.assumption is Assumption.CONST_VELOCITY):
            ent += [(r_in, last), (r_in, last - 1)]
        ent.append((r_out, r_out))
        if st.framework is Framework.FIXED_RATIO:
            ent += [(r_out, last), (r_out, last - 1)]
    return ent


class TestValidateTopology:
    def test_star_network_is_valid(self):
        assert gn.validate_topology(star_network_spec()).ok

    def test_compressor_end_degree_violation(self):
        spec = star_network_spec()
        # attach a second pipe to the compressor inlet node
        spec.pipes.append(gn.PipeEdge(pipe(5), "v1", "ci"))
        report = gn.validate_topology(spec)
        assert not report.ok
        assert any(v.code == "compressor-end-degree" for v in report.violations)

    def test_missing_supply(self):
        spec = star_network_spec()
        for nd in spec.nodes:
            if nd.kind is gn.NodeKind.SUPPLY:
                nd.kind = gn.NodeKind.DEMAND
        report = gn.validate_topology(spec)
        assert any(v.code == "no-pressure-reference" for v in report.violations)

    def test_unknown_endpoint(self):
        spec = star_network_spec()
        spec.pipes[0].from_node = "ghost"
        report = gn.validate_topology(spec)
        assert any(v.code == "unknown-node" for v in report.violations)

    def test_disconnected(self):
        spec = star_network_spec()
        spec.nodes += [gn.Node("a", gn.NodeKind.SUPPLY), gn.Node("b", gn.NodeKind.DEMAND)]
        spec.pipes.append(gn.PipeEdge(pipe(6), "a", "b"))
        report = gn.validate_topology(spec)
        assert any(v.code == "disconnected" for v in report.violations)


@pytest.mark.parametrize("edit, code", [
    ("second pipe at the station inlet", "compressor-end-degree"),
    ("station inlet starts a pipe", "compressor-end-orientation"),
])
def test_assemble_rejects_malformed_station_ends(edit, code):
    # validate_topology runs first, so the station binding never sees these
    spec = star_network_spec()
    if edit == "second pipe at the station inlet":
        spec.pipes.append(gn.PipeEdge(pipe(5), "v1", "ci"))
    else:
        spec.pipes[0].from_node, spec.pipes[0].to_node = "ci", "v1"
    with pytest.raises(gn.ConfigurationError, match=code):
        gn.assemble(spec)


def _station_edit(spec, edit):
    """Apply one named edit to the star network (node ids: module top)."""
    if edit == "duplicate node":
        spec.nodes.append(gn.Node("j", gn.NodeKind.JUNCTION))
    elif edit == "duplicate pipe":
        spec.pipes[3] = gn.PipeEdge(pipe(3), "j", "v3")
    elif edit == "undeclared station end":
        spec.nodes = [nd for nd in spec.nodes if nd.id != "co"]
    elif edit == "station end not a junction":
        next(nd for nd in spec.nodes if nd.id == "ci").kind = gn.NodeKind.SUPPLY
    elif edit == "shared station end":
        spec.compressors.append(gn.CompressorStation(
            "C2", "ci", "co", Framework.FIXED_RATIO, Assumption.CONST_MOMENTUM, ratio=1.1))
    elif edit == "degenerate station":
        spec.compressors[0].outlet_node = "ci"
    elif edit == "station outlet ends a pipe":
        spec.pipes[1].from_node, spec.pipes[1].to_node = "j", "co"
    elif edit == "duplicate station":     # a second station 'C', between j and v2
        spec.nodes += [gn.Node("c2i", gn.NodeKind.JUNCTION), gn.Node("c2o", gn.NodeKind.JUNCTION)]
        spec.pipes[2] = gn.PipeEdge(pipe(3), "j", "c2i")
        spec.pipes.append(gn.PipeEdge(pipe(5), "c2o", "v2"))
        spec.compressors.append(gn.CompressorStation(
            "C", "c2i", "c2o", Framework.FIXED_RATIO, Assumption.CONST_MOMENTUM, ratio=1.1))
    elif edit == "station named like a demand":
        spec.compressors[0].id = "v2"
    elif edit == "demand named like a station setpoint":
        spec.nodes[1].id = spec.pipes[2].to_node = "C.ratio"
    return spec


# (edit, violation code, the message's reference to the node or the station)
STATION_VIOLATIONS = [
    ("duplicate node", "duplicate-node", "duplicate node ids: ['j']"),
    ("duplicate pipe", "duplicate-pipe", "duplicate pipe ids: ['P3']"),
    ("undeclared station end", "unknown-node", "compressor 'C' references undeclared node 'co'"),
    ("station end not a junction", "compressor-node-kind",
     "compressor 'C': node 'ci' is supply, expected a junction"),
    ("shared station end", "compressor-node-shared",
     "node 'ci' belongs to compressors 'C' and 'C2'"),
    ("degenerate station", "compressor-degenerate", "compressor 'C' has identical end nodes"),
    ("station outlet ends a pipe", "compressor-end-orientation",
     "compressor outlet node 'co' must start a pipe"),
    ("duplicate station", "duplicate-compressor", "duplicate compressor ids: ['C']"),
    ("station named like a demand", "compressor-id-collision",
     "compressor 'v2' and demand node 'v2' share the input key 'v2'"),
    ("demand named like a station setpoint", "compressor-id-collision",
     "compressor 'C' and demand node 'C.ratio' share the input key 'C.ratio'"),
]


@pytest.mark.parametrize("edit, code, message", STATION_VIOLATIONS)
def test_validate_topology_names_the_node_or_the_station(edit, code, message):
    report = gn.validate_topology(_station_edit(star_network_spec(), edit))
    assert any(v.code == code and v.message == message for v in report.violations), report


@pytest.mark.parametrize("caller", ["assemble", "fuse_compressors", "gasnetsim validate"])
@pytest.mark.parametrize("edit, code, message", STATION_VIOLATIONS)
def test_bad_file_is_rejected_through_the_validator(tmp_path, capsys, edit, code, message,
                                                     caller):
    # parsing a file with the same fault only converts it; each caller of
    # the validator rejects it with the same violation, fusing included
    text = gn.serialize_network(_station_edit(star_network_spec(), edit))
    spec = gn.parse_network(text)
    violation = f"[{code}] {message}"
    if caller == "gasnetsim validate":
        path = tmp_path / "bad.net.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid network:\n") and violation in err.splitlines()
        return
    with pytest.raises(gn.ConfigurationError, match=re.escape(violation)):
        getattr(gn, caller)(spec)


class TestIncidence:
    def test_star_network_matrices(self):
        A_B, A_C, A_I = incidence_matrices(gn.assemble(star_network_spec()))
        assert np.array_equal(A_B, [[1, 0, 0, 0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 0, 1, 0, 0],
                                    [0, 0, 0, 0, 0, 0, 0, 1]])
        assert np.array_equal(A_C, [[0, 1, 0, 0, 0, 0, 0, 0],
                                    [0, 0, 1, 0, 0, 0, 0, 0]])
        assert np.array_equal(A_I, [[0, 0, 0, 1, 1, 0, 1, 0]])

    def test_single_pipe_identity(self):
        spec = gn.NetworkSpec(
            GAS,
            [gn.Node("s", gn.NodeKind.SUPPLY), gn.Node("d", gn.NodeKind.DEMAND)],
            [gn.PipeEdge(pipe(1), "s", "d")])
        A_B, A_C, A_I = incidence_matrices(gn.assemble(spec))
        assert np.array_equal(A_B, np.eye(2, dtype=int))
        assert A_C.shape == (0, 2) and A_I.shape == (0, 2)

    def test_column_sums_are_one(self):
        A_B, A_C, A_I = incidence_matrices(gn.assemble(star_network_spec()))
        assert np.all(np.vstack([A_B, A_C, A_I]).sum(axis=0) == 1)


class TestAssemble:
    def test_unknown_count(self):
        g = gn.assemble(star_network_spec())
        assert g.n == 4 * (2 * 8) + 4 + 6

    def test_residual_linear_in_algebraic_unknowns(self):
        g = gn.assemble(star_network_spec())
        x = gn.steady_state(g, STAR_INPUTS)
        rng = np.random.default_rng(0)
        d = np.zeros(g.n)
        d[g.n_z:] = rng.normal(0.0, 1.0, g.n_alg)
        F0 = g.steady_residual(x, STAR_INPUTS)
        F1 = g.steady_residual(x + d, STAR_INPUTS)
        F2 = g.steady_residual(x + 2.0 * d, STAR_INPUTS)
        assert np.allclose(F2 - F0, 2.0 * (F1 - F0), rtol=1e-9, atol=1e-9)

    def test_junction_kirchhoff_semantics(self):
        g = gn.assemble(star_network_spec())
        x = gn.steady_state(g, STAR_INPUTS, gn.SolverConfig(newton_abs_tol=1e-11))
        snap = record_dict(g, x, STAR_INPUTS)
        ports_p = [snap["P2.out.p_Pa"], snap["P3.in.p_Pa"], snap["P4.in.p_Pa"]]
        assert max(ports_p) - min(ports_p) <= 1e-6 * max(ports_p)
        balance = snap["P2.out.m"] - snap["P3.in.m"] - snap["P4.in.m"]
        assert abs(balance) <= 1e-8 * max(abs(snap["P2.out.m"]), 1.0)

    def test_node_permutation_leaves_solution_unchanged(self):
        spec_a = star_network_spec()
        spec_b = star_network_spec()
        spec_b.nodes = list(reversed(spec_b.nodes))
        xa = gn.steady_state(gn.assemble(spec_a), STAR_INPUTS)
        xb = gn.steady_state(gn.assemble(spec_b), STAR_INPUTS)
        ga, gb = gn.assemble(spec_a), gn.assemble(spec_b)
        sa = record_dict(ga, xa, STAR_INPUTS)
        sb = record_dict(gb, xb, STAR_INPUTS)
        for name in sa:
            assert sa[name] == pytest.approx(sb[name], rel=1e-9, abs=1e-9)

    def test_nonfinite_unknowns_rejected(self):
        g = gn.assemble(star_network_spec())
        x = g.initial_guess(STAR_INPUTS)
        x[0] = np.nan
        with pytest.raises(gn.StateError, match="residual not finite at the initial guess"):
            gn.newton_solve(lambda v: g.steady_residual(v, STAR_INPUTS), x,
                            colors=g.jac_colors())

    def test_residual_at_converged_state_is_small(self):
        g = gn.assemble(star_network_spec())
        x = gn.steady_state(g, STAR_INPUTS)
        F = g.steady_residual(x, STAR_INPUTS) / g.row_scale()
        assert np.abs(F).max() <= 1e-8


class TestJacobianColoring:
    @pytest.mark.parametrize("tag", ["fc-av", "fc-am", "fp-av", "fp-am"])
    def test_colored_fd_matches_dense_fd(self, tag):
        spec = star_network_spec()
        for st in spec.compressors:
            fw, asm = tag.split("-")
            st.framework = Framework(fw)
            st.assumption = Assumption(asm)
            st.pressure = 70e5
        g = gn.assemble(spec)
        inputs = dict(STAR_INPUTS, C=1.15 if tag.startswith("fc") else 70e5)
        x = gn.steady_state(g, inputs)
        rng = np.random.default_rng(1)
        x = x + rng.normal(0.0, 1e-3, g.n) * (1.0 + np.abs(x))

        def fun(v):
            return g.steady_residual(v, inputs)

        F0 = fun(x)
        J_dense = per_column_fd_jacobian(fun, x, F0)
        J_color = dense_jacobian(fun, x, F0, g.jac_colors())
        scale = np.abs(J_dense).max()
        assert np.abs(J_color - J_dense).max() <= 1e-6 * scale

    def test_step_mode_pattern_is_complete(self):
        g = gn.assemble(star_network_spec())
        x = gn.steady_state(g, STAR_INPUTS)
        fun = g.make_step_residual(x[: g.n_z], 50.0, STAR_INPUTS)
        rng = np.random.default_rng(2)
        xp = x + rng.normal(0.0, 1e-3, g.n) * (1.0 + np.abs(x))
        F0 = fun(xp)
        J_dense = per_column_fd_jacobian(fun, xp, F0)
        J_color = dense_jacobian(fun, xp, F0, g.jac_colors())
        assert np.abs(J_color - J_dense).max() <= 1e-6 * np.abs(J_dense).max()

    @pytest.mark.parametrize("mode", ["steady", "step"])
    def test_csc_jacobian_equals_colored_dense(self, mode):
        # the sparse and the dense Jacobian are one gather of the same
        # sweeps and quotients, so the two agree entry for entry
        g = gn.assemble(star_network_spec())
        x = gn.steady_state(g, STAR_INPUTS)
        if mode == "steady":
            def fun(v):
                return g.steady_residual(v, STAR_INPUTS)
        else:
            fun = g.make_step_residual(x[: g.n_z], 50.0, STAR_INPUTS)
        rng = np.random.default_rng(4)
        xp = x + rng.normal(0.0, 1e-3, g.n) * (1.0 + np.abs(x))
        F0 = fun(xp)
        J_csc = csc_jacobian(fd_jacobian(fun, xp, F0, g.jac_colors()), g.jac_colors())
        assert J_csc.format == "csc"
        assert J_csc.nnz == g.jac_colors().rows.size
        assert np.array_equal(J_csc.toarray(), dense_jacobian(fun, xp, F0, g.jac_colors()))

    @pytest.mark.parametrize("tag", ["fc-av", "fc-am", "fp-av", "fp-am"])
    def test_direct_two_pipe_pattern_is_complete(self, tag):
        # the direct oracle's hand-written pattern holds every nonzero of its
        # step Jacobian near the day line's steady state
        spec, _, line, inputs = direct_line(tag, cells=(6, 9))
        g = gn.assemble(spec)
        u = inputs(0.0)
        z = gn.steady_state(g, dict(zip(g.input_ids, u)))[: g.n_z]

        def fun(zn):
            return line.rows(0.5 * (z + zn), (zn - z) / 50.0, u)

        rng = np.random.default_rng(3)
        zp = z + rng.normal(0.0, 1e-3, line.n) * (1.0 + np.abs(z))
        F0 = fun(zp)
        J_dense = per_column_fd_jacobian(fun, zp, F0)
        J_color = dense_jacobian(fun, zp, F0, line.colors)
        assert np.abs(J_color - J_dense).max() <= 1e-6 * np.abs(J_dense).max()


def assert_reference_coloring(pattern, segments):
    """`color_columns` gives the reference greedy's groups, and no color's columns share a row."""
    n = segments[0].size
    coloring = color_columns(pattern, segments)
    ref = reference_colors(pattern, n)
    assert len(coloring.groups) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(coloring.groups, ref))
    assert np.array_equal(np.sort(np.concatenate(coloring.groups + [np.zeros(0, int)])),
                          np.arange(n))
    for c in range(len(coloring.groups)):
        rows = coloring.rows[coloring.color == c]
        assert np.unique(rows).size == rows.size
    return len(coloring.groups)


class TestColorColumnsEqualsTheReferenceGreedy:
    # the per-row color masks take the same colors as the textbook greedy
    # (`casekit.reference_colors`), so the FD Jacobians stay bit for bit

    @pytest.mark.parametrize("cells", [32, 256])
    @pytest.mark.parametrize("tag", ["none", "fc-av", "fc-am", "fp-av", "fp-am"])
    def test_day_line(self, tag, cells):
        g = gn.assemble(_apply_model_override(gn.parse_network(NET_JSON), tag, cells))
        assert assert_reference_coloring(g._pattern(), g._segments()) == 4

    def test_ladder(self):
        g, _ = ladder_system()
        assert assert_reference_coloring(g._pattern(), g._segments()) == 5

    def test_generated_networks(self):
        counts = set()
        for seed in range(200):
            g = gn.assemble(generated_network(seed)[0])
            counts.add(assert_reference_coloring(g._pattern(), g._segments()))
        assert counts == {3, 4, 5, 6}

    def test_empty_rows_and_columns_and_duplicates(self):
        # rows 1, 3, 5 and columns 3, 5 hold nothing; (0, 1) is listed twice
        pattern = [(0, 0), (0, 1), (2, 1), (2, 2), (4, 4), (0, 1)]
        assert assert_reference_coloring(pattern, one_block(6)) == 2
        assert [a.tolist() for a in color_columns(pattern, one_block(6)).groups] == \
            [[1, 3, 4, 5], [0, 2]]

    def test_no_unknowns(self):
        assert assert_reference_coloring(np.zeros((0, 2), int), one_block(0)) == 0


@pytest.mark.parametrize("tag", ["fc-av", "fc-am", "fp-av", "fp-am"])
def test_station_rows_read_the_port_outlet_pressure(tag):
    # each station row applies the variant's rules to the upstream pipe's
    # outlet pressure as the port-out rows compute it, bit for bit
    spec, inputs = star_with_model(tag)
    g = gn.assemble(spec)
    x0 = gn.steady_state(g, inputs)
    rng = np.random.default_rng(14)
    for _ in range(200):
        x = x0 * (1.0 + 1e-2 * rng.standard_normal(g.n))
        F = g.steady_residual(x, inputs)
        p_out = g._outlet_pressures(x)
        for b, st in zip(g.stations, g.spec.compressors):
            r_in, r_out = g.lam[st.inlet_node], g.lam[st.outlet_node]
            sp, p = inputs[b.id], p_out[b.pipe_up]
            k = b.variant.factor(sp, p, g.gas.isentropic_exponent)
            assert F[r_out] == x[r_out] - b.variant.outlet(sp, p)
            assert F[r_in] == -x[g.mu_m[b.pipe_up]] - k * x[g.bank.m_in[b.pipe_down]]


def test_power_terms_identity_with_internal_nodes(gas):
    # the exact split holds on topologies with junctions too; the junction
    # bucket carries the (small) extrapolation-coupling exchange
    g = gn.assemble(star_network_spec())
    x0 = gn.steady_state(g, STAR_INPUTS, gn.SolverConfig(newton_abs_tol=1e-11))
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = x0.copy()
        for k, p in enumerate(g.pipes):
            x[g.rho_sl[k]] *= 1.0 + 0.05 * rng.standard_normal(p.n_cells)
            x[g.mom_sl[k]] += 20.0 * rng.standard_normal(p.n_cells)
        x = g.algebraic_solve(x, STAR_INPUTS)
        terms = g.power_terms(x, STAR_INPUTS)
        lhs = terms["rate"]
        rhs = (terms["boundary"] + terms["compressor"] + terms["internal"]
               - terms["dissipation"])
        scale = max(abs(terms["boundary"]), abs(terms["compressor"]),
                    terms["dissipation"], abs(lhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
    # at the smooth converged state the junction exchange is a small
    # discretization residue, far below the boundary power
    terms = g.power_terms(x0, STAR_INPUTS)
    assert abs(terms["internal"]) <= 1e-2 * abs(terms["boundary"])


@pytest.mark.parametrize("name", ["star", "diamond", "series", "ladder"])
def test_power_terms_equal_per_pipe_oracle(name):
    # the bank's port powers and friction power against the per-pipe,
    # per-node sums, at perturbed consistent states
    if name == "ladder":
        g, scen = ladder_system()
        inputs = gn.bind_inputs(g, scen)[0](0.0)
    else:
        spec, inputs = network_case(name)
        g = gn.assemble(spec)
    x0 = gn.steady_state(g, inputs)
    rng = np.random.default_rng(12)
    for _ in range(3):
        x = x0.copy()
        x[: g.n_z] *= 1.0 + 1e-2 * rng.standard_normal(g.n_z)
        x = g.algebraic_solve(x, inputs)
        got, ref = g.power_terms(x, inputs), power_terms_oracle(g, x, inputs)
        for key, val in ref.items():
            assert got[key] == pytest.approx(val, rel=1e-12)


def test_single_pipe_assembly_matches_oracle(gas):
    g = single_pipe_system(gas)
    x = gn.steady_state(g, {"s": 80e5, "d": 300.0})
    snap = record_dict(g, x, {"s": 80e5, "d": 300.0})
    oracle = gn.steady_pipe_oracle(g.pipes[0], gas, 80e5, 300.0)
    assert snap["line.out.p_Pa"] == pytest.approx(oracle, rel=5e-3)


class TestGeneralTopologies:
    def test_cyclic_diamond_with_merging_junction(self):
        # two parallel legs of different friction merge at a junction; the
        # flux split is set by the dynamics, records stay consistent
        spec = diamond_spec()
        assert gn.validate_topology(spec).ok
        g = gn.assemble(spec)
        inputs = DIAMOND_INPUTS
        x = gn.steady_state(g, inputs, gn.SolverConfig(newton_abs_tol=1e-11))
        snap = record_dict(g, x, inputs)
        # junction pressure continuity across all three attached ports
        pj = [snap["A.out.p_Pa"], snap["B.out.p_Pa"], snap["C.in.p_Pa"]]
        assert max(pj) - min(pj) <= 1e-6 * max(pj)
        # flux split sums to the downstream feed, low-friction leg carries more
        assert snap["A.out.m"] + snap["B.out.m"] == pytest.approx(snap["C.in.m"], rel=1e-8)
        assert snap["A.out.m"] > snap["B.out.m"] > 0.0
        # the record at x matches the solver's own algebraic variables
        assert snap["A.out.m"] == pytest.approx(-x[g.mu_m[0]], rel=1e-9)

        scen = gn.Scenario(t_end=1200.0, dt=100.0, profiles={
            "s": (np.array([0.0]), np.array([70e5])),
            "d": (np.array([0.0, 600.0]), np.array([260.0, 300.0]))})
        ts = gn.simulate(g, scen, gn.SolverConfig(newton_abs_tol=1e-10))
        split = ts.column("A.out.m") + ts.column("B.out.m") - ts.column("C.in.m")
        assert np.abs(split).max() <= 1e-6 * np.abs(ts.column("C.in.m")).max()

    def test_algebraic_solve_matches_lstsq_reference(self):
        # reference: the port/node rows read off the residual (linear in the
        # algebraic unknowns) and solved by lstsq toward the algebraic part
        # of the vector solved at; the merging junction makes that matrix
        # singular
        cases = [(gn.assemble(diamond_spec()), DIAMOND_INPUTS),
                 (gn.assemble(star_network_spec()), STAR_INPUTS)]
        for g, inputs in cases:
            x = gn.steady_state(g, inputs, gn.SolverConfig(newton_abs_tol=1e-11))
            na = g.n_alg
            x0 = np.concatenate([x[: g.n_z], np.zeros(na)])
            F0 = g.steady_residual(x0, inputs)[g.n_z:]
            M = np.empty((na, na))
            for j in range(na):
                xe = x0.copy()
                xe[g.n_z + j] = 1.0
                M[:, j] = g.steady_residual(xe, inputs)[g.n_z:] - F0
            start = x.copy()
            start[g.n_z:] *= 1.01
            alg = start[g.n_z:]
            ref = alg + np.linalg.lstsq(M, -F0 - M @ alg, rcond=None)[0]
            got = g.algebraic_solve(start, inputs)[g.n_z:]
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("name", ["star", "diamond", "series", "ladder"])
    def test_blockwise_pseudo_inverse_matches_dense(self, name):
        # the triplet matrix is exactly the residual's finite-difference
        # matrix on the algebraic columns, and its blockwise pseudo-inverse
        # is the dense pinv (diamond and ladder: singular, merging junctions)
        make = {"star": star_network_spec, "diamond": diamond_spec,
                "series": series_stations_spec}
        g = ladder_system()[0] if name == "ladder" else gn.assemble(make[name]())
        a, na, nz = g._algebraic_map(), g.n_alg, g.n_z
        M = np.zeros((na, na))
        np.add.at(M, (a.M.rows, a.M.cols), a.M.vals)
        P = np.zeros((na, na))
        np.add.at(P, (a.P.rows, a.P.cols), a.P.vals)
        inputs = {key: 1.0 for key in g.input_ids}
        x0 = np.concatenate([np.full(nz, 3.0), np.zeros(na)])
        F0 = g.steady_residual(x0, inputs)[nz:]
        for j in range(na):
            xe = x0.copy()
            xe[nz + j] = 1.0
            assert np.array_equal(M[:, j], g.steady_residual(xe, inputs)[nz:] - F0)
        assert np.abs(P - np.linalg.pinv(M, na * np.finfo(float).eps)).max() <= 1e-13

    def test_two_supplies(self, gas):
        nodes = [gn.Node("s1", gn.NodeKind.SUPPLY),
                 gn.Node("s2", gn.NodeKind.SUPPLY),
                 gn.Node("j", gn.NodeKind.JUNCTION),
                 gn.Node("d", gn.NodeKind.DEMAND)]
        pipes = [gn.PipeEdge(gn.PipeSpec("A", 50e3, 1.0, 0.003, 8), "s1", "j"),
                 gn.PipeEdge(gn.PipeSpec("B", 50e3, 1.0, 0.003, 8), "s2", "j"),
                 gn.PipeEdge(gn.PipeSpec("C", 50e3, 1.0, 0.003, 8), "j", "d")]
        g = gn.assemble(gn.NetworkSpec(gas, nodes, pipes, []))
        inputs = {"s1": 72e5, "s2": 70e5, "d": 200.0}
        x = gn.steady_state(g, inputs, gn.SolverConfig(newton_abs_tol=1e-11))
        snap = record_dict(g, x, inputs)
        assert snap["A.in.p_Pa"] == pytest.approx(72e5, rel=1e-12)
        assert snap["B.in.p_Pa"] == pytest.approx(70e5, rel=1e-12)
        # the higher-pressure supply pushes harder
        assert snap["A.in.m"] > snap["B.in.m"]

    def test_two_stations_in_series(self):
        g = gn.assemble(series_stations_spec())
        inputs = SERIES_INPUTS
        x = gn.steady_state(g, inputs, gn.SolverConfig(newton_abs_tol=1e-11))
        snap = record_dict(g, x, inputs)
        assert snap["P2.in.p_Pa"] / snap["P1.out.p_Pa"] == pytest.approx(1.1, rel=1e-10)
        assert snap["P3.in.p_Pa"] == pytest.approx(80e5, rel=1e-10)
        ratio2 = 80e5 / snap["P2.out.p_Pa"]
        assert snap["P3.in.m"] / snap["P2.out.m"] == pytest.approx(
            ratio2 ** (1.0 / 1.4), rel=1e-10)


def test_fuse_compressors_removes_station():
    fused = gn.fuse_compressors(star_network_spec())
    assert not fused.compressors
    ids = [nd.id for nd in fused.nodes]
    assert "ci" not in ids and "co" not in ids
    assert fused.nodes[ids.index("C.junction")].kind is gn.NodeKind.JUNCTION
    assert gn.validate_topology(fused).ok
    g = gn.assemble(fused)
    x = gn.steady_state(g, {"v1": 60e5, "v2": 120.0, "v3": 80.0})
    snap = record_dict(g, x, {"v1": 60e5, "v2": 120.0, "v3": 80.0})
    assert snap["P2.in.p_Pa"] == pytest.approx(snap["P1.out.p_Pa"], rel=1e-9)


class TestPipeBank:
    @pytest.mark.parametrize("name", CASES)
    def test_residual_equals_per_pipe_loop(self, name):
        spec, inputs = network_case(name)
        g = gn.assemble(spec)
        x = gn.steady_state(g, inputs)
        rng = np.random.default_rng(7)
        for _ in range(4):
            xp = x * (1.0 + rng.normal(0.0, 1e-2, g.n))
            assert np.array_equal(g.steady_residual(xp, inputs),
                                  reference_residual(g, xp, np.zeros(g.n_z), inputs))
            z_prev = x[: g.n_z] * (1.0 + rng.normal(0.0, 1e-3, g.n_z))
            x_mid = xp.copy()
            x_mid[: g.n_z] = 0.5 * (z_prev + xp[: g.n_z])
            zdot = (xp[: g.n_z] - z_prev) / 50.0
            assert np.array_equal(g.make_step_residual(z_prev, 50.0, inputs)(xp),
                                  reference_residual(g, x_mid, zdot, inputs))

    @pytest.mark.parametrize("name", CASES)
    def test_pipe_rows_equal_weighted_pipe_rhs(self, name):
        # independent cross-check: each pipe's rows are W (dz/dt - rates)
        spec, inputs = network_case(name)
        g = gn.assemble(spec)
        rng = np.random.default_rng(8)
        x = gn.steady_state(g, inputs) * (1.0 + rng.normal(0.0, 1e-2, g.n))
        zdot = rng.normal(0.0, 1e-2, g.n_z) * np.abs(x[: g.n_z])
        F = g._residual_core(x, zdot, g._input_vector(inputs))
        for k in range(len(g.pipes)):
            p = oracle(g, k)
            rates, _ = pipe_rhs(p, PipeField(x[g.rho_sl[k]], x[g.mom_sl[k]]),
                                (x[g.lam[g.spec.pipes[k].from_node]], x[g.mu_m[k]]))
            rates = np.concatenate([rates.rho, rates.mom])
            rows = slice(g.rho_sl[k].start, g.mom_sl[k].stop)
            W = p.weights
            scale = np.max(np.abs(W * zdot[rows]) + np.abs(W * rates))
            assert np.abs(F[rows] - W * (zdot[rows] - rates)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["star", "diamond", "series"])
    def test_pattern_and_colors_equal_per_cell_loop(self, name):
        g = gn.assemble(network_case(name)[0])
        ref = reference_pattern(g)
        assert set(map(tuple, np.asarray(g._pattern()).tolist())) == set(ref)
        groups = g.jac_colors()[0]
        ref_groups = color_columns(ref, g._segments()).groups
        assert len(groups) == len(ref_groups)
        assert all(np.array_equal(a, b) for a, b in zip(groups, ref_groups))

    def test_ledger_helpers_equal_per_pipe_sums(self):
        g = gn.assemble(diamond_spec(cells=(2, 7, 4)))
        x = gn.steady_state(g, DIAMOND_INPUTS)
        rng = np.random.default_rng(9)
        x = x * (1.0 + rng.normal(0.0, 1e-2, g.n))
        z = x[: g.n_z]
        per_pipe = [(oracle(g, k), z[g.rho_sl[k]], z[g.mom_sl[k]]) for k in range(len(g.pipes))]
        assert g.total_mass(z) == pytest.approx(
            sum(p.dx * rho.sum() for p, rho, _ in per_pipe), rel=1e-14)
        assert g.hamiltonian_total(z) == pytest.approx(
            sum(p.stored_energy(rho, mom) for p, rho, mom in per_pipe), rel=1e-14)
        assert g.min_density(z) == min(rho.min() for _, rho, _ in per_pipe)
        assert g.net_mass_influx(x, x) == pytest.approx(
            sum(mom[0] + x[g.mu_m[k]] for k, (_, _, mom) in enumerate(per_pipe)),
            rel=1e-14)
        assert np.array_equal(g.effort_vector(z), np.concatenate(
            [np.concatenate([p.c2 * rho, mom]) for p, rho, mom in per_pipe]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_networks_match_the_oracles(seed):
    # trees and loops with one or two supplies and up to three stations:
    # the residual is the per-pipe loop's bit for bit (steady and step),
    # the pattern the per-cell loop's, and the algebraic solve zeroes the
    # port and node rows at states where they have an exact solution
    spec, inputs = generated_network(seed)
    g = gn.assemble(spec)
    rng = np.random.default_rng(seed)
    x = g.algebraic_solve(consistent_state(g, inputs, rng), inputs)
    z = x[: g.n_z]
    F = g.steady_residual(x, inputs)
    assert np.array_equal(F, reference_residual(g, x, np.zeros(g.n_z), inputs))
    z_prev = z * (1.0 + rng.normal(0.0, 1e-3, g.n_z))
    x_mid = x.copy()
    x_mid[: g.n_z] = 0.5 * (z_prev + z)
    assert np.array_equal(g.make_step_residual(z_prev, 50.0, inputs)(x),
                          reference_residual(g, x_mid, (z - z_prev) / 50.0, inputs))
    assert set(map(tuple, g._pattern().tolist())) == set(reference_pattern(g))
    demands = [inputs[nd.id] for nd in g.boundary if nd.kind is gn.NodeKind.DEMAND]
    p_ref = np.abs(x[list(g.lam.values())]).max()
    m_ref = np.abs(np.concatenate([z[g.bank.mom], demands])).max()
    scale = np.where(g.row_kind[g.n_z:] == "p", p_ref, m_ref)
    assert np.all(np.abs(F[g.n_z:]) <= 1e-12 * scale)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_input_vector_is_exactly_the_input_ids(seed):
    # u holds one value per input id; the boundary nodes lead node_order and
    # u alike, and only a boundary node's row lists an input: a plain
    # junction's or a station end's balance lists its links only
    spec, inputs = generated_network(seed)
    g = gn.assemble(spec)
    assert g._input_vector(inputs).tolist() == [float(inputs[key]) for key in g.input_ids]
    assert g.node_order[: len(g.boundary)] == g.boundary
    assert g.input_ids[: len(g.boundary)] == [nd.id for nd in g.boundary]
    c = g.coupling
    on_u = c.cols >= g.n
    assert c.rows[on_u].tolist() == [g.lam[nd.id] for nd in g.boundary]
    assert c.cols[on_u].tolist() == list(range(g.n, g.n + len(g.boundary)))
    assert np.all(c.vals[on_u] == -1.0)


class TestKirchhoffStart:
    """Off the single-supply trees, `initial_guess` starts every pipe at its
    linear-resistance Kirchhoff flow (on them the start is the steady state:
    `test_timeloop.TestDirectSteadyStart`)."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_flows_meet_every_balance_with_stations_merged(self, seed):
        # trees and loops, one or two supplies, up to three stations: with
        # each station's two ends one vertex, every demand and junction
        # balance holds to rounding, and the drops L lambda/2D q are
        # differences of potentials that vanish at the supplies (no loop
        # circulates); off the trees the start itself floors |q| < 1 at 1,
        # pipe by pipe
        spec, inputs = generated_network(seed)
        g = gn.assemble(spec)
        q = g._flow_map() @ g._input_vector(inputs)
        vertex = {nd.id: nd.id for nd in spec.nodes}
        kind = {nd.id: nd.kind for nd in spec.nodes}
        for st_ in spec.compressors:
            vertex[st_.outlet_node] = st_.inlet_node
        net = dict.fromkeys(vertex.values(), 0.0)
        for pe, qk in zip(spec.pipes, q.tolist()):
            net[vertex[pe.to_node]] += qk
            net[vertex[pe.from_node]] -= qk
        demands = {nd.id: inputs[nd.id] for nd in spec.nodes if nd.kind is gn.NodeKind.DEMAND}
        scale = max([1.0, *np.abs(q).tolist(), *map(abs, demands.values())])
        for nd in spec.nodes:
            if nd.kind is not gn.NodeKind.SUPPLY:
                assert abs(net[vertex[nd.id]] - demands.get(nd.id, 0.0)) <= 1e-12 * scale
        free = sorted({v for nid, v in vertex.items()
                       if kind[nid] is not gn.NodeKind.SUPPLY})
        B = np.zeros((len(spec.pipes), len(free)))
        for k, pe in enumerate(spec.pipes):
            for end, sign in ((pe.from_node, 1.0), (pe.to_node, -1.0)):
                if vertex[end] in free:
                    B[k, free.index(vertex[end])] += sign
        drop = np.array([pe.spec.length * pe.spec.friction / (2.0 * pe.spec.diameter) * qk
                         for pe, qk in zip(spec.pipes, q.tolist())])
        phi = np.linalg.lstsq(B, drop, rcond=None)[0]
        assert np.abs(B @ phi - drop).max() <= 1e-9 * max(np.abs(drop).max(), 1e-300)
        if single_supply_tree(spec):
            return
        x = g.initial_guess(inputs)
        start = np.where(np.abs(q) < 1.0, 1.0, q)
        for k in range(len(spec.pipes)):
            assert np.all(x[g.mom_sl[k]] == start[k]) and x[g.mu_m[k]] == -start[k]

    @pytest.mark.parametrize("tag", ["none", "fc-av", "fc-am", "fp-av", "fp-am"])
    def test_equals_the_flat_start_on_the_day_line(self, tag):
        # a line has one path, so every pipe carries the net demand, the
        # flat start's momentum, at every demand level of the day and at none
        # (the rule as `casekit.kirchhoff_start` copies it: the line's own
        # start is its steady state)
        spec, scen = benchmark_with_model(tag)
        g = gn.assemble(spec)
        fn, p_ref, _ = gn.bind_inputs(g, scen)
        for inputs in [fn(t) for t in np.arange(0.0, 86400.0, 3600.0)] + [
                {**fn(0.0), "sink": 0.0}, {**fn(0.0), "sink": -0.5}]:
            m = inputs["sink"] if abs(inputs["sink"]) >= 1.0 else 1.0
            flat = np.full(g.n, p_ref)
            flat[g.bank.rho] = p_ref / g.gas.c2
            flat[g.bank.mom] = m
            flat[g.mu_m] = -m
            assert np.allclose(kirchhoff_start(g, inputs), flat, rtol=1e-14, atol=0.0)


def test_block_layout_rejects_segments_that_couple_directly():
    # segments may couple only through the border: an entry between two
    # segments has no place in either block
    rows, cols = np.array([0, 1, 1]), np.array([0, 0, 1])
    with pytest.raises(ValueError, match="an entry couples two blocks"):
        block_layout(rows, cols, (np.array([0, 1]), ["a", "b"]))
    assert len(block_layout(rows, cols, (np.array([0, -1]), ["a"])).groups) == 1


def test_missing_input_raises_configuration_error():
    g = gn.assemble(star_network_spec())
    x = gn.steady_state(g, STAR_INPUTS)
    partial = {k: v for k, v in STAR_INPUTS.items() if k != "C"}
    with pytest.raises(gn.ConfigurationError, match="missing input value for 'C'"):
        g.steady_residual(x, partial)
    with pytest.raises(gn.ConfigurationError, match="missing input value for 'C'"):
        g.make_step_residual(x[: g.n_z], 50.0, partial)(x)
    # a loop's steady solve reads its inputs before the reference levels do
    with pytest.raises(gn.ConfigurationError, match="missing input value for 'd'"):
        gn.steady_state(gn.assemble(diamond_spec()), {"s": 60e5})


@pytest.mark.parametrize("call", [
    lambda g, x, fn: g.snapshot(x, fn),
    lambda g, x, fn: gn.steady_state(g, fn),
    lambda g, x, fn: g.power_terms(x, fn),
], ids=["snapshot", "steady_state", "power_terms"])
def test_an_input_function_is_not_sampled_inputs(call):
    g = gn.assemble(star_network_spec())
    x = gn.steady_state(g, STAR_INPUTS)
    with pytest.raises(gn.ConfigurationError, match="inputs must map input ids"):
        call(g, x, lambda t: STAR_INPUTS)


def test_check_state_names_the_first_offending_pipe_and_time():
    g = gn.assemble(star_network_spec())
    z = gn.steady_state(g, STAR_INPUTS)[: g.n_z]
    g.check_state(z, 0.0)
    z[g.rho_sl[3].start + 5] = -1.0    # P4
    z[g.rho_sl[2].start] = 0.0         # P3, the first offending pipe
    with pytest.raises(gn.StateError, match=r"non-positive density in pipe 'P3' at t=1234\.5"):
        g.check_state(z, 1234.5)


def test_check_state_names_a_pipe_with_a_non_positive_outlet_pressure(benchmark_spec):
    # the outlet pressure is extrapolated from the last two cells, so it can
    # fall below zero while every density stays positive
    g = gn.assemble(benchmark_spec)
    z = np.zeros(g.n_z)
    z[g.bank.rho] = 50.0
    g.check_state(z, 0.0)
    z[g.bank.tail[0]] = 10.0           # west: 1.5 * 10 - 0.5 * 50 < 0
    assert z[g.bank.rho].min() > 0.0
    assert g._outlet_pressures(z)[0] < 0.0 < g._outlet_pressures(z)[1]
    with pytest.raises(gn.StateError,
                       match=r"^non-positive outlet pressure in pipe 'west' at t=7900\.0$"):
        g.check_state(z, 7900.0)


def test_record_names_are_shared_between_systems():
    # records of repeated simulations of one network hold one set of names
    first = gn.assemble(series_stations_spec()).record_names()
    second = gn.assemble(series_stations_spec()).record_names()
    assert first == second
    assert all(a is b for a, b in zip(first, second))
