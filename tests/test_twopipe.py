"""The assembled day line against the direct two-pipe form (`casekit.TwoPipeOracle`)."""

import numpy as np
import pytest

import gasnetsim as gn

from casekit import direct_line, record_dict

TAGS = ["fc-av", "fc-am", "fp-av", "fp-am"]


def random_states(tag, count, seed):
    """The network and oracle of a day line with unequal pipes, inputs, and steady
    unknowns with perturbed states."""
    spec, _, line, inputs = direct_line(tag, cells=(6, 9))
    g = gn.assemble(spec)
    u = inputs(0.0)
    mapping = dict(zip(g.input_ids, u))
    x0 = gn.steady_state(g, mapping)
    rng = np.random.default_rng(seed)
    states = [x0.copy() for _ in range(count)]
    for x in states:
        x[: g.n_z] *= 1.0 + rng.normal(0.0, 1e-2, g.n_z)
    return g, line, u, mapping, states


@pytest.mark.parametrize("tag", TAGS)
def test_residual_equals_per_pipe_loop(tag):
    # the network's pipe rows at the algebraic solve are the oracle's
    # weighted rows with the station substituted into the pipe inputs
    g, line, u, mapping, states = random_states(tag, 4, 11)
    rng = np.random.default_rng(12)
    for x in states:
        x, z = g.algebraic_solve(x, mapping), x[: g.n_z]
        for zdot in (np.zeros(g.n_z), rng.normal(0.0, 1e-3, g.n_z) * np.abs(z)):
            F = g._residual_core(x, zdot, g._input_vector(mapping))[: g.n_z]
            ref = line.rows(z, zdot, u)
            assert np.abs(F - ref).max() <= 1e-12 * np.abs(ref).max()


def test_check_state_names_the_pipe():
    g, _, _, _, (x,) = random_states("fc-am", 1, 3)
    z = x[: g.n_z]
    g.check_state(z, 0.0)
    z[g.rho_sl[1].start + 2] = -1.0
    with pytest.raises(gn.StateError, match=r"non-positive density in pipe 'east' at t=300"):
        g.check_state(z, 300.0)


def test_snapshot_row_follows_record_names():
    # port records p0, -k m2(0), the outlet rule and -m_L, the stored energy
    # and the station power, name by name, for every variant
    for tag in TAGS:
        g, line, u, mapping, states = random_states(tag, 4, 5)
        assert g.record_names() == line.names
        for x in states:
            rec = record_dict(g, x, mapping)
            ref = dict(zip(line.names, line.records(x[: g.n_z], u)))
            for name, value in ref.items():
                assert rec[name] == pytest.approx(value, rel=1e-13, abs=1e-12), (tag, name)
