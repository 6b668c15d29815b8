"""The assembled day line against the direct two-pipe form (`casekit.TwoPipeOracle`)."""

import numpy as np
import pytest

import gasnetsim as gn

from casekit import direct_line, record_dict

TAGS = ["fc-av", "fc-am", "fp-av", "fp-am"]


def random_states(tag, count, seed):
    """The network and oracle of a day line with unequal pipes, inputs and perturbed states."""
    spec, _, line, inputs = direct_line(tag, cells=(6, 9))
    g = gn.assemble(spec)
    u = inputs(0.0)
    mapping = dict(zip(g.input_ids, u))
    z0 = gn.steady_state(g, mapping)[: g.n_z]
    rng = np.random.default_rng(seed)
    return g, line, u, mapping, [z0 * (1.0 + rng.normal(0.0, 1e-2, g.n_z)) for _ in range(count)]


@pytest.mark.parametrize("tag", TAGS)
def test_residual_equals_per_pipe_loop(tag):
    # the network's pipe rows at the algebraic solve are the oracle's
    # weighted rows with the station substituted into the pipe inputs
    g, line, u, mapping, states = random_states(tag, 4, 11)
    rng = np.random.default_rng(12)
    for z in states:
        x = g.algebraic_solve(z, mapping)
        for zdot in (np.zeros(g.n_z), rng.normal(0.0, 1e-3, g.n_z) * np.abs(z)):
            F = g._residual_core(x, zdot, g._input_vector(mapping))[: g.n_z]
            ref = line.rows(z, zdot, u)
            assert np.abs(F - ref).max() <= 1e-12 * np.abs(ref).max()


def test_check_state_names_the_pipe():
    g, _, _, _, (z,) = random_states("fc-am", 1, 3)
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
        for z in states:
            rec = record_dict(g, z, mapping)
            ref = dict(zip(line.names, line.records(z, u)))
            for name, value in ref.items():
                assert rec[name] == pytest.approx(value, rel=1e-13, abs=1e-12), (tag, name)
