import numpy as np
import pytest

import gasnetsim as gn

from casekit import PipeField, PipeOracle, pipe_rhs, single_pipe_system

GAS = gn.GasProperties(530.0, 276.25, 1.0, 1.4)
C2 = GAS.c2


def steady_profile(sys, p_in, m):
    """Sample the closed-form steady solution at the staggered grid."""
    spec = sys.spec
    xc = (np.arange(sys.n) + 0.5) * sys.dx
    p = np.sqrt(p_in ** 2 - spec.friction * C2 / spec.diameter * m * abs(m) * xc)
    return PipeField(p / C2, np.full(sys.n, float(m)))


def test_discretize_benchmark_dimensions():
    # the pipe bank's grid and the weights W that H and the pipe rows read
    g = single_pipe_system(GAS, length=363e3, n_cells=32)
    dx = 11343.75
    assert np.all(g.bank.dx == dx)
    assert g.energy_weights.size == 64         # 64 differential states
    assert g.energy_weights[32] == dx / 2.0    # the inlet momentum half cell
    assert np.all(np.delete(g.energy_weights, 32) == dx)
    assert np.array_equal(g.energy_weights, PipeOracle(g.pipes[0], GAS).weights)


def test_discretize_rejects_single_cell():
    with pytest.raises(gn.ConfigurationError):
        gn.PipeSpec("bad", 1e3, 1.0, 0.0, 1)


def test_equilibrium_state_is_stationary():
    spec = gn.PipeSpec("p", 50e3, 1.0, 0.01, 16)
    sys = PipeOracle(spec, GAS)
    rho0 = 55.0
    fld = PipeField(np.full(16, rho0), np.zeros(16))
    rates, (m_in, p_out) = pipe_rhs(sys, fld, (C2 * rho0, 0.0))
    assert np.abs(rates.rho).max() == 0.0
    assert np.abs(rates.mom).max() == 0.0
    assert m_in == 0.0
    assert p_out == pytest.approx(C2 * rho0, rel=1e-14)


def test_uniform_flow_translation_invariance():
    # frictionless uniform state with matching boundary data is stationary
    spec = gn.PipeSpec("p", 50e3, 1.0, 0.0, 16)
    sys = PipeOracle(spec, GAS)
    fld = PipeField(np.full(16, 60.0), np.full(16, 250.0))
    rates, _ = pipe_rhs(sys, fld, (C2 * 60.0, -250.0))
    assert np.abs(rates.rho).max() == 0.0
    assert np.abs(rates.mom).max() == 0.0


def test_transport_operator_is_skew():
    spec = gn.PipeSpec("p", 80e3, 1.2, 0.005, 12)
    sys = PipeOracle(spec, GAS)
    J = sys.transport_matrix()
    assert np.array_equal(J, -J.T)
    R = sys.dissipation_matrix(np.full(12, 50.0), np.linspace(-300, 300, 12))
    assert np.array_equal(R, np.diag(np.diag(R)))
    assert np.all(np.diag(R) >= 0.0)


def test_transport_power_vanishes_with_closed_ports():
    # lambda = 0, m_0 held at 0 and zero outlet flux: e' J e reduces to nothing
    spec = gn.PipeSpec("p", 80e3, 1.2, 0.0, 10)
    sys = PipeOracle(spec, GAS)
    rng = np.random.default_rng(5)
    rho = rng.uniform(30.0, 70.0, 10)
    mom = rng.normal(0.0, 200.0, 10)
    mom[0] = 0.0
    fld = PipeField(rho, mom)
    rates, _ = pipe_rhs(sys, fld, (C2 * rho[0], 0.0))
    zdot = np.concatenate([rates.rho, rates.mom])
    e = np.concatenate([C2 * rho, mom])
    power = float(np.dot(e * sys.weights, zdot))
    scale = float(np.abs(e * sys.weights * zdot).max())
    assert abs(power) <= 1e-12 * scale


def test_power_identity_at_random_states():
    # weighted energy rate = p_in m(0) - p_conj m_L - dissipation, to 1e-12
    spec = gn.PipeSpec("p", 120e3, 1.1, 0.008, 24)
    sys = PipeOracle(spec, GAS)
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = rng.uniform(30.0, 70.0, 24)
        mom = rng.normal(0.0, 250.0, 24)
        p_in = rng.uniform(4e6, 9e6)
        m_L = rng.normal(0.0, 250.0)
        fld = PipeField(rho, mom)
        rates, (m0, _) = pipe_rhs(sys, fld, (p_in, -m_L))
        zdot = np.concatenate([rates.rho, rates.mom])
        e = np.concatenate([C2 * rho, mom])
        lhs = float(np.dot(e * sys.weights, zdot))
        rhs = (p_in * m0 - sys.conjugate_outlet_pressure(rho) * m_L
               - sys.dissipation_rate(rho, mom))
        scale = max(abs(lhs), abs(rhs), sys.dissipation_rate(rho, mom))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_friction_contribution_is_dissipative():
    spec = gn.PipeSpec("p", 120e3, 1.1, 0.02, 16)
    sys = PipeOracle(spec, GAS)
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = rng.uniform(20.0, 90.0, 16)
        mom = rng.normal(0.0, 400.0, 16)
        assert sys.dissipation_rate(rho, mom) >= 0.0
    assert sys.dissipation_rate(np.full(16, 50.0), np.zeros(16)) == 0.0
    frictionless = PipeOracle(gn.PipeSpec("q", 120e3, 1.1, 0.0, 16), GAS)
    assert frictionless.dissipation_rate(np.full(16, 50.0), np.full(16, 300.0)) == 0.0


def test_mass_balance_telescopes():
    spec = gn.PipeSpec("p", 90e3, 1.3, 0.004, 20)
    sys = PipeOracle(spec, GAS)
    rng = np.random.default_rng(9)
    rho = rng.uniform(30.0, 70.0, 20)
    mom = rng.normal(0.0, 250.0, 20)
    m_L = 123.4
    rates, (m0, _) = pipe_rhs(sys, PipeField(rho, mom), (7e6, -m_L))
    lhs = sys.dx * rates.rho.sum()
    assert lhs == pytest.approx(m0 - m_L, rel=1e-12)


def test_port_outputs_report_inlet_momentum_and_extrapolated_pressure():
    spec = gn.PipeSpec("p", 90e3, 1.3, 0.004, 12)
    sys = PipeOracle(spec, GAS)
    rng = np.random.default_rng(13)
    rho = rng.uniform(30.0, 70.0, 12)
    mom = rng.normal(0.0, 250.0, 12)
    _, (m0, pL) = pipe_rhs(sys, PipeField(rho, mom), (7e6, -100.0))
    assert m0 == mom[0]
    assert pL == pytest.approx(C2 * (1.5 * rho[-1] - 0.5 * rho[-2]), rel=1e-14)


def test_steady_profile_residual_refinement():
    # interior rows are exact on the closed-form profile; the integral norm
    # of the full residual refines at second order (inlet half-cell is the
    # only nonzero row and carries an O(dx) local truncation on an O(dx) cell)
    p_in, m = 80e5, 300.0
    integral = {}
    for n in (16, 32, 64):
        sys = PipeOracle(gn.PipeSpec("p", 363e3, 1.422, 0.0018, n), GAS)
        fld = steady_profile(sys, p_in, m)
        rates, _ = pipe_rhs(sys, fld, (p_in, -m))
        assert np.abs(rates.rho).max() == 0.0
        assert np.abs(rates.mom[1:]).max() <= 1e-9
        integral[n] = float(np.dot(sys.weights[sys.n:], np.abs(rates.mom)))
    assert 3.0 <= integral[16] / integral[32] <= 5.0
    assert 3.0 <= integral[32] / integral[64] <= 5.0


def test_pipe_rhs_rejects_bad_density():
    sys = PipeOracle(gn.PipeSpec("p", 10e3, 1.0, 0.0, 4), GAS)
    with pytest.raises(gn.StateError):
        pipe_rhs(sys, PipeField(np.array([1.0, 1.0, -1.0, 1.0]), np.zeros(4)), (1e5, 0.0))


def test_outlet_pressure_extrapolation_is_second_order():
    # reading p(L) from a smooth profile: error drops ~4x per refinement
    p_in, m = 80e5, 300.0
    spec = dict(length=363e3, diameter=1.422, friction=0.0018)
    exact = gn.steady_pipe_oracle(gn.PipeSpec("p", **spec, n_cells=8), GAS, p_in, m)
    errs = {}
    for n in (16, 32, 64):
        sys = PipeOracle(gn.PipeSpec("p", **spec, n_cells=n), GAS)
        fld = steady_profile(sys, p_in, m)
        errs[n] = abs(sys.outlet_pressure(fld.rho) - exact)
    assert 3.0 <= errs[16] / errs[32] <= 5.0
    assert 3.0 <= errs[32] / errs[64] <= 5.0


class TestSteadyOracle:
    def test_no_flow_no_drop(self):
        spec = gn.PipeSpec("p", 363e3, 1.422, 0.0018, 8)
        assert gn.steady_pipe_oracle(spec, GAS, 80e5, 0.0) == 80e5

    def test_yamal_value(self):
        spec = gn.PipeSpec("p", 363e3, 1.422, 0.0018, 8)
        pL = gn.steady_pipe_oracle(spec, GAS, 80e5, 300.0)
        drop = 0.0018 * C2 / 1.422 * 300.0 ** 2 * 363e3
        assert pL == pytest.approx(np.sqrt(80e5 ** 2 - drop), rel=1e-14)
        assert pL == pytest.approx(76.1e5, rel=1e-3)

    def test_reverse_flow_symmetry(self):
        spec = gn.PipeSpec("p", 363e3, 1.422, 0.0018, 8)
        p_fwd = gn.steady_pipe_oracle(spec, GAS, 80e5, 250.0)
        p_rev = gn.steady_pipe_oracle(spec, GAS, 80e5, -250.0)
        assert p_rev ** 2 - 80e5 ** 2 == pytest.approx(80e5 ** 2 - p_fwd ** 2, rel=1e-12)

    def test_infeasible_flow(self):
        spec = gn.PipeSpec("p", 363e3, 1.422, 0.0018, 8)
        with pytest.raises(gn.InfeasibleFlowError):
            gn.steady_pipe_oracle(spec, GAS, 8e5, 2000.0)
