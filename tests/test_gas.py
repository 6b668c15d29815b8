import math

import numpy as np
import pytest

import gasnetsim as gn

from casekit import PipeField, single_pipe_system


def test_sound_speed_benchmark_parameters():
    gas = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
    assert gas.sound_speed == pytest.approx(math.sqrt(530.0 * 276.25), rel=1e-14)
    assert gas.sound_speed == pytest.approx(382.64, rel=1e-4)
    assert gas.c2 == pytest.approx(146412.5, rel=1e-14)


def test_sound_speed_unit_parameters():
    assert gn.GasProperties(1.0, 1.0, 1.0, 1.4).sound_speed == 1.0


def test_sound_speed_compressibility_scaling():
    base = gn.GasProperties(530.0, 276.25, 1.0, 1.4).sound_speed
    quad = gn.GasProperties(530.0, 276.25, 4.0, 1.4).sound_speed
    assert quad == pytest.approx(2.0 * base, rel=1e-14)


@pytest.mark.parametrize("kwargs", [
    dict(specific_gas_constant=-1.0, temperature=276.25),
    dict(specific_gas_constant=530.0, temperature=0.0),
    dict(specific_gas_constant=530.0, temperature=276.25, compressibility=-2.0),
    dict(specific_gas_constant=530.0, temperature=276.25, isentropic_exponent=1.0),
])
def test_gas_validation(kwargs):
    with pytest.raises(gn.ConfigurationError):
        gn.GasProperties(**kwargs)


def pipe_states(gas, n, dx):
    """A single-pipe system of n cells of width dx; z = [rho | mom]."""
    return single_pipe_system(gas, n_cells=n, length=n * dx)


def test_effort_benchmark_pressure():
    gas = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
    g = pipe_states(gas, 2, 1e3)
    e = g.effort_vector(np.array([54.64, 54.64, 0.0, 0.0]))
    assert e.shape == (4,)
    assert e[0] == pytest.approx(8.0e6, rel=1e-4)


def test_effort_is_linear():
    gas = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
    g = pipe_states(gas, 6, 1e3)
    rng = np.random.default_rng(0)
    rho = rng.uniform(10.0, 80.0, 6)
    mom = rng.normal(0.0, 200.0, 6)
    e1 = g.effort_vector(np.concatenate([rho, mom]))
    e2 = g.effort_vector(np.concatenate([2.0 * rho, mom]))
    assert np.allclose(e2[:6], 2.0 * e1[:6], rtol=1e-14)
    assert np.array_equal(e2[6:], mom)
    tiny = g.effort_vector(np.concatenate([np.full(6, 1e-12), np.zeros(6)]))
    assert np.all(tiny[:6] < 1e-6)


def test_effort_rejects_nonpositive_density():
    # the effort map is linear; a non-positive density is refused by the
    # state check every solved state passes through
    gas = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
    g = pipe_states(gas, 2, 1e3)
    with pytest.raises(gn.StateError):
        g.check_state(np.array([1.0, -1.0, 0.0, 0.0]), 0.0)


def test_hamiltonian_trivial_values():
    # unit gas, dx = 1: a cell carries rho^2 / 2, the inlet momentum half as much
    gas = gn.GasProperties(1.0, 1.0, 1.0, 1.4)
    g = pipe_states(gas, 2, 1.0)
    assert g.hamiltonian_total(np.zeros(4)) == 0.0
    assert g.hamiltonian_total(np.array([1.0, 0.0, 0.0, 0.0])) == 0.5
    assert g.hamiltonian_total(np.array([0.0, 0.0, 1.0, 0.0])) == 0.25
    assert g.hamiltonian_total(np.array([0.0, 0.0, 0.0, 1.0])) == 0.5


def fd_gradient(g, z):
    # central finite differences of H, step 1e-6 * component scale
    grad = np.empty_like(z)
    for i in range(z.size):
        h = 1e-6 * max(abs(z[i]), 1.0)
        up, dn = z.copy(), z.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (g.hamiltonian_total(up) - g.hamiltonian_total(dn)) / (2.0 * h)
    return grad


def test_hamiltonian_gradient_matches_effort_componentwise():
    # order-one scales keep the FD oracle well conditioned at 1e-6 relative;
    # the gradient of H is W e with the half inlet cell
    gas = gn.GasProperties(1.0, 1.0, 1.0, 1.4)
    g = pipe_states(gas, 5, 1.7)
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.uniform(0.5, 2.0, 5), rng.normal(0.0, 1.0, 5)])
    expected = g.energy_weights * g.effort_vector(z)
    assert expected[5] == pytest.approx(0.85 * z[5], rel=1e-15)
    assert np.allclose(fd_gradient(g, z), expected, rtol=1e-6)


def test_hamiltonian_gradient_matches_effort_benchmark_scale():
    # at 80 bar scales the density terms dominate H; compare norm-wise
    gas = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
    g = pipe_states(gas, 5, 11343.75)
    rng = np.random.default_rng(8)
    z = np.concatenate([rng.uniform(20.0, 80.0, 5), rng.normal(0.0, 300.0, 5)])
    expected = g.energy_weights * g.effort_vector(z)
    grad = fd_gradient(g, z)
    assert np.abs(grad - expected).max() <= 1e-6 * np.abs(expected).max()


def test_hamiltonian_is_quadratic():
    gas = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
    g = pipe_states(gas, 8, 500.0)
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.uniform(20.0, 80.0, 8), rng.normal(0.0, 300.0, 8)])
    H1 = g.hamiltonian_total(z)
    for alpha in (0.5, 2.0, 3.7):
        assert g.hamiltonian_total(alpha * z) == pytest.approx(alpha ** 2 * H1, rel=1e-12)


def test_pipe_field_length_mismatch():
    with pytest.raises(gn.ConfigurationError):
        PipeField(np.zeros(3), np.zeros(4))
