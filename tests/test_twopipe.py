"""The direct two-pipe form on the shared pipe rows, against its per-pipe form."""

import numpy as np
import pytest

import gasnetsim as gn
from gasnetsim.compressor import Assumption, CompressorModel, Framework
from gasnetsim.network import color_columns
from gasnetsim.twopipe import TwoPipeDirect

from casekit import PipeOracle

GAS = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
TAGS = ["fc-av", "fc-am", "fp-av", "fp-am"]


def direct_case(tag, cells=(6, 9)):
    fw, asm = tag.split("-")
    setpoint = 1.2 if fw == "fc" else 66e5
    model = CompressorModel(Framework(fw), Assumption(asm), setpoint, 1.4)
    pipes = [PipeOracle(gn.PipeSpec(f"P{i}", 60e3, 1.0, 0.002, n), GAS)
             for i, n in enumerate(cells, start=1)]
    direct = TwoPipeDirect(pipes[0], pipes[1], model, "s", "d", "c")
    direct.references = (60e5, 100.0)
    return direct, {"s": 60e5, "d": 100.0, "c": setpoint}


def reference_rows(d, z, zdot, inputs):
    """Per-pipe loop form of the direct residual, kept as the test oracle."""
    sp = inputs[d.station_id]
    up = d.pipes[0]
    p1L = up.outlet_pressure(z[d.rho_sl[0]])
    m2_0 = float(z[d.mom_sl[1]][0])
    m_L_up = d.model.inlet_match_factor(sp, p1L) * m2_0
    p_in_dn = sp * p1L if d.model.framework is Framework.FIXED_RATIO else sp
    bc = [(inputs[d.supply_id], m_L_up), (p_in_dn, inputs[d.demand_id])]
    F = np.empty(d.n)
    for k, p in enumerate(d.pipes):
        rho = z[d.rho_sl[k]]
        mom = z[d.mom_sl[k]]
        p_in, m_L = bc[k]
        pres = p.c2 * rho
        dx = p.dx
        m_full = np.empty(p.n + 1)
        m_full[:-1] = mom
        m_full[-1] = m_L
        F[d.rho_sl[k]] = dx * zdot[d.rho_sl[k]] + np.diff(m_full)
        rows = F[d.mom_sl[k]]
        fric = p.friction_force(rho, mom)
        rows[0] = 0.5 * dx * zdot[d.mom_sl[k]][0] + (pres[0] - p_in) \
            + 0.5 * dx * fric[0]
        rows[1:] = dx * zdot[d.mom_sl[k]][1:] + np.diff(pres) + dx * fric[1:]
    return F


def reference_pattern(d):
    """Hand-written structural couplings of the direct residual, kept as the test oracle."""
    ent = []
    fc = d.model.framework is Framework.FIXED_RATIO
    av = d.model.assumption is Assumption.CONST_VELOCITY
    up = d.pipes[0]
    r1 = d.rho_sl[0].start
    last_up = [r1 + up.n - 1, r1 + up.n - 2]
    for k, p in enumerate(d.pipes):
        r0 = d.rho_sl[k].start
        m0 = d.mom_sl[k].start
        for i in range(p.n):
            row = r0 + i
            ent += [(row, r0 + i), (row, m0 + i)]
            if i + 1 < p.n:
                ent.append((row, m0 + i + 1))
        ent += [(m0, m0), (m0, r0)]
        for j in range(1, p.n):
            ent += [(m0 + j, m0 + j), (m0 + j, r0 + j - 1), (m0 + j, r0 + j)]
    last_rho_up = r1 + up.n - 1
    ent.append((last_rho_up, d.mom_sl[1].start))
    if not fc and av:
        ent += [(last_rho_up, c) for c in last_up]
    if fc:
        ent += [(d.mom_sl[1].start, c) for c in last_up]
    return ent


@pytest.mark.parametrize("tag", TAGS)
def test_residual_equals_per_pipe_loop(tag):
    d, inputs = direct_case(tag)
    z = gn.steady_state(d, inputs, set_references=False)
    rng = np.random.default_rng(11)
    for _ in range(4):
        zp = z * (1.0 + rng.normal(0.0, 1e-2, d.n))
        assert np.array_equal(d.steady_residual(zp, inputs),
                              reference_rows(d, zp, np.zeros(d.n), inputs))
        z_prev = z * (1.0 + rng.normal(0.0, 1e-3, d.n))
        assert np.array_equal(d.make_step_residual(z_prev, 50.0, inputs)(zp),
                              reference_rows(d, 0.5 * (z_prev + zp), (zp - z_prev) / 50.0,
                                             inputs))


@pytest.mark.parametrize("tag", TAGS)
def test_colors_equal_hand_written_pattern(tag):
    d, _ = direct_case(tag)
    ref = color_columns(reference_pattern(d), d.n, d.n)
    got = d.jac_colors()
    assert np.array_equal(got.rows, ref.rows) and np.array_equal(got.indptr, ref.indptr)
    assert len(got.groups) == len(ref.groups)
    assert all(np.array_equal(a, b) for a, b in zip(got.groups, ref.groups))


def test_check_state_names_the_pipe():
    d, inputs = direct_case("fc-am")
    z = gn.steady_state(d, inputs, set_references=False)
    d.check_state(z, 0.0)
    z[d.rho_sl[1].start + 2] = -1.0
    with pytest.raises(gn.StateError, match=r"non-positive density in pipe 'P2' at t=300"):
        d.check_state(z, 300.0)


def test_snapshot_row_follows_record_names():
    d, inputs = direct_case("fp-av")
    z = gn.steady_state(d, inputs, set_references=False)
    row, x = d.snapshot(z, inputs)
    names = d.record_names()
    assert np.array_equal(x[: d.n_z], z) and row.shape == (len(names),)
    assert names == [f"{p}.{end}.{q}" for p in ("P1", "P2") for end in ("in", "out")
                     for q in ("p_Pa", "m")] + ["H_total", "c.power"]
    rec = dict(zip(names, row))
    up, m_feed = d.pipes[0], z[d.mom_sl[1]][0]
    p1L = up.outlet_pressure(z[d.rho_sl[0]])
    k = d.model.inlet_match_factor(66e5, p1L)
    assert (rec["P1.in.p_Pa"], rec["P2.in.p_Pa"], rec["P2.out.m"]) == (60e5, 66e5, 100.0)
    assert rec["P1.in.m"] == z[d.mom_sl[0]][0] and rec["P2.in.m"] == m_feed
    assert rec["P1.out.p_Pa"] == p1L and rec["P1.out.m"] == k * m_feed
    assert rec["H_total"] == d.hamiltonian_total(z)
    assert rec["c.power"] == d.model.power(66e5, p1L, m_feed)
