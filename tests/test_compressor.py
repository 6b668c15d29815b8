import json
import warnings

import numpy as np
import pytest

import gasnetsim as gn
from gasnetsim.cli import _apply_model_override
from gasnetsim.compressor import VARIANTS, Assumption, Framework

from casekit import SCN_JSON, benchmark_with_model, direct_line, rel_column_diff

KAPPA = 1.4
TAGS = ("fc-av", "fc-am", "fp-av", "fp-am")


def row(tag):
    """The station-variant table's row for a CLI tag."""
    fw, asm = tag.split("-")
    return VARIANTS[Framework(fw), Assumption(asm)]


def factor(tag, sp, p_in):
    return row(tag).factor(sp, p_in, KAPPA)


def outlet(tag, sp, p_in):
    return row(tag).outlet(sp, p_in)


def power(tag, sp, p_in, m_feed):
    return gn.station_power(row(tag), KAPPA, sp, p_in, m_feed)


def station(tag, **setpoints):
    fw, asm = tag.split("-")
    return gn.CompressorStation("c", "c.in", "c.out", Framework(fw), Assumption(asm),
                                **setpoints)


class TestMomentumJump:
    """The momentum jump m_out = m_in / k, k the table's inlet factor."""

    def test_constant_momentum_is_identity(self):
        for tag, sp in (("fc-am", 1.7), ("fp-am", 8.4e6)):
            for p_in in (5e6, 7e6, 9e6):
                assert factor(tag, sp, p_in) == 1.0

    def test_constant_velocity_benchmark_value(self):
        k = factor("fc-av", 1.2, 7e6)
        assert k == pytest.approx(1.2 ** (-1.0 / 1.4), rel=1e-14)
        assert 1.0 / k == pytest.approx(1.1391, rel=1e-4)

    def test_unit_ratio_collapses_to_identity(self):
        assert factor("fc-av", 1.0, 7e6) == pytest.approx(1.0, rel=1e-14)

    def test_fp_av_needs_current_ratio(self):
        # the effective ratio is the current sp / p_in, so k moves with p_in
        for p_in in (6e6, 8e6, 8.4e6):
            assert factor("fp-av", 8.4e6, p_in) == pytest.approx(
                (8.4e6 / p_in) ** (-1.0 / 1.4), rel=1e-14)
        assert factor("fp-av", 8.4e6, 8e6) != factor("fp-av", 8.4e6, 6e6)

    @pytest.mark.parametrize("p_in", [0.0, -1.0, -3e6, float("nan")])
    def test_fp_av_factor_is_nan_without_a_warning_at_nonpositive_pressure(self, p_in):
        # a Newton trial state can extrapolate a negative outlet pressure
        # upstream of the station; the factor reads NaN there, which the
        # line search rejects, and says nothing on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(factor("fp-av", 8.4e6, p_in))
            assert np.isnan(factor("fp-av", 8.4e6, np.float64(p_in)))


class TestPressureDerivatives:
    """Each row's p-derivatives of its outlet rule and its factor, for exact Jacobians."""

    @pytest.mark.parametrize("tag", TAGS)
    def test_match_central_differences(self, tag):
        # None where the rule reads no p: there the central difference is 0
        v = row(tag)
        rules = ((lambda sp, p: v.outlet(sp, p), v.outlet_dp),
                 (lambda sp, p: v.factor(sp, p, KAPPA), v.factor_dp and
                  (lambda sp, p: v.factor_dp(sp, p, KAPPA))))
        for sp in ((0.8, 1.2, 1.7) if tag.startswith("fc") else (6e6, 8.4e6)):
            for p in (3e6, 6e6, 7e6, 9e6):
                h = 1e-4 * p
                for rule, slope in rules:
                    central = (rule(sp, p + h) - rule(sp, p - h)) / (2.0 * h)
                    exact = 0.0 if slope is None else slope(sp, p)
                    assert exact == pytest.approx(central, rel=1e-7, abs=1e-15)

    def test_reads_inlet_follows_from_the_derivatives(self):
        assert {tag: row(tag).reads_inlet for tag in TAGS} == {
            "fc-av": (False, True), "fc-am": (False, True),
            "fp-av": (True, False), "fp-am": (False, False)}

    @pytest.mark.parametrize("p_in", [0.0, -1.0, -3e6, float("nan")])
    def test_fp_av_slope_is_nan_without_a_warning_at_nonpositive_pressure(self, p_in):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(row("fp-av").factor_dp(8.4e6, p_in, KAPPA))
            assert np.isnan(row("fp-av").factor_dp(8.4e6, np.float64(p_in), KAPPA))


class TestCouplingMatrix:
    """The station coupling of the two-pipe form, read off the variant table."""

    def test_fixed_ratio_layout(self):
        for tag in ("fc-av", "fc-am"):
            v = VARIANTS[Framework.FIXED_RATIO, Assumption(tag[3:])]
            assert outlet(tag, 1.2, 7e6) == 1.2 * 7e6
            assert v.setpoint == "ratio"
            assert v.reads_inlet == (False, True)

    def test_fixed_pressure_layouts(self):
        v_av = VARIANTS[Framework.FIXED_PRESSURE, Assumption.CONST_VELOCITY]
        v_am = VARIANTS[Framework.FIXED_PRESSURE, Assumption.CONST_MOMENTUM]
        for tag in ("fp-av", "fp-am"):
            for p_in in (6e6, 7e6):
                assert outlet(tag, 8.4e6, p_in) == 8.4e6
        for v in (v_av, v_am):
            assert v.setpoint == "pressure"
        # only fp-av's momentum row reads the inlet pressure, through k
        assert v_av.reads_inlet == (True, False)
        assert v_am.reads_inlet == (False, False)

    def test_zero_flow_makes_jump_row_inert(self):
        for tag, sp in (("fc-av", 1.2), ("fc-am", 1.2), ("fp-av", 8.4e6), ("fp-am", 8.4e6)):
            assert factor(tag, sp, 7e6) * 0.0 == 0.0
            assert power(tag, sp, 7e6, 0.0) == 0.0

    def test_matrix_times_input_reproduces_boundary_injections(self):
        # pipe-1 inlet gets p0, pipe-1 outlet gets -m2(0), pipe-2 inlet gets
        # ct * p1(L), pipe-2 outlet gets -mL: the network's algebraic solve
        # against the direct oracle's substitution
        rng = np.random.default_rng(4)
        spec, _, line, _ = direct_line("fc-am", cells=(6, 6))
        g = gn.assemble(spec)
        up = line.pipes[0]
        ports = np.column_stack([g.p_in, g.mu_m]).ravel()
        for _ in range(5):
            z = np.concatenate([rng.uniform(30.0, 60.0, 6), rng.normal(0.0, 300.0, 6),
                                rng.uniform(30.0, 60.0, 6), rng.normal(0.0, 300.0, 6)])
            u = (rng.uniform(6e6, 9e6), rng.normal(0.0, 300.0), 1.2)
            p0, mL, ct = u
            p1L = up.outlet_pressure(z[:6])
            x = g.algebraic_solve(np.concatenate([z, np.zeros(g.n_alg)]),
                                  dict(zip(g.input_ids, u)))
            assert np.allclose(x[ports], [p0, -z[18], ct * p1L, -mL], rtol=1e-14, atol=1e-12)
            assert np.allclose(x[ports], line.ports(z, u), rtol=1e-14, atol=1e-12)


@pytest.mark.parametrize("tag", ["fc-am", "fc-av"])
def test_unit_ratio_station_is_a_fused_junction(tag):
    # over 2 h, a ratio-1 station's port records are the fused junction's and
    # its power is zero; at the day ratio the same measure sees the station
    def run(ratio):
        spec, _ = benchmark_with_model(tag)
        doc = json.loads(SCN_JSON)
        doc["t_end"] = 7200
        doc["profiles"]["station.ratio"] = [[0, ratio]]
        scen = gn.parse_scenario(json.dumps(doc), spec)
        return (gn.simulate(gn.assemble(spec), scen),
                gn.simulate(gn.assemble(gn.fuse_compressors(spec)), scen))

    ts, ts_fused = run(1.0)
    ports = [nm for nm in ts_fused.names if ".in." in nm or ".out." in nm]
    assert rel_column_diff(ts, ts_fused, ports) <= 1e-10
    assert np.all(ts.column("station.power") == 0.0)
    assert rel_column_diff(*run(1.2), ports) > 0.1


class TestSetpointInput:
    """The per-variant setpoint entries: inlet factor and outlet rule."""

    def test_fc_am_benchmark_vector(self):
        assert factor("fc-am", 1.2, 8e6) == 1.0
        assert outlet("fc-am", 1.2, 8e6) == pytest.approx(1.2 * 8e6, rel=1e-14)

    def test_unit_ratio_is_inert(self):
        for tag in ("fc-am", "fc-av"):
            assert factor(tag, 1.0, 8e6) == pytest.approx(1.0, rel=1e-14)
            assert outlet(tag, 1.0, 8e6) == 8e6
            assert power(tag, 1.0, 8e6, 250.0) == 0.0

    def test_fp_av_second_entry(self):
        # k = sp^(-1/kappa) * p_in^(1/kappa): the setpoint entry times the state
        k = factor("fp-av", 8.4e6, 8e6)
        assert 8.4e6 ** (-1.0 / 1.4) == pytest.approx(1.133e-5, rel=1e-2)
        assert k == pytest.approx(8.4e6 ** (-1.0 / 1.4) * 8e6 ** (1.0 / 1.4), rel=1e-14)

    def test_fp_rejects_nonpositive_pressure(self):
        # a negative default setpoint fails where the station is declared, a
        # zero inlet pressure where the power is evaluated
        with pytest.raises(gn.ConfigurationError, match="pressure must be finite and positive"):
            station("fp-am", pressure=-1.0)
        for tag in TAGS:
            with pytest.raises(gn.ConfigurationError, match="inlet pressure must be positive"):
                power(tag, 1.2, 0.0, 250.0)

    def test_station_injection_vectors(self):
        # the four per-station pairs (k, outlet) at unit inlet pressure
        pairs = {"fc-av": (1.2, [1.2 ** (-1 / 1.4), 1.2]), "fc-am": (1.2, [1.0, 1.2]),
                 "fp-av": (8.4e6, [8.4e6 ** (-1 / 1.4), 8.4e6]), "fp-am": (8.4e6, [1.0, 8.4e6])}
        for tag, (sp, want) in pairs.items():
            got = [factor(tag, sp, 1.0), outlet(tag, sp, 1.0)]
            assert np.allclose(got, want, rtol=1e-14)


class TestExternalPower:
    """The station power, the energy the machine exchanges per unit area."""

    def test_neutral_ratio_adds_nothing(self):
        for tag in ("fc-av", "fc-am"):
            assert power(tag, 1.0, 7e6, 250.0) == 0.0

    def test_matched_pressure_adds_nothing(self):
        for tag in ("fp-av", "fp-am"):
            assert power(tag, 8.4e6, 8.4e6, 250.0) == pytest.approx(0.0, abs=1e-6)

    def test_fc_am_benchmark_value(self):
        assert power("fc-am", 1.2, 7e6, 250.0) == pytest.approx(
            0.2 * 7e6 * 250.0, rel=1e-14)

    def test_sign_follows_setpoint(self):
        assert power("fc-am", 1.3, 7e6, 250.0) > 0
        assert power("fc-av", 1.3, 7e6, 250.0) > 0
        assert power("fp-am", 8.4e6, 7e6, 250.0) > 0
        assert power("fp-av", 6.0e6, 7e6, 250.0) < 0

    def test_power_is_energy_out_minus_energy_in(self):
        # outlet pressure times m_feed, minus inlet pressure times m_in = k m_feed
        rng = np.random.default_rng(8)
        for tag in TAGS:
            for _ in range(50):
                p_in = rng.uniform(3e6, 9e6)
                m_feed = rng.normal(0.0, 300.0)
                sp = rng.uniform(1.0, 1.6) if tag.startswith("fc") else rng.uniform(3e6, 9e6)
                out, k = outlet(tag, sp, p_in), factor(tag, sp, p_in)
                want = out * m_feed - p_in * k * m_feed
                assert power(tag, sp, p_in, m_feed) == pytest.approx(want, rel=1e-10)


def test_fc_ratio_below_one_warns():
    # an FC ratio below 1 makes the station an expander; simulate flags it in
    # ts.warnings once per station, at the first sample whose setpoint (a
    # default or a profile alike) is below 1, and assembling warns nothing.
    # The check follows the variant as bound: under a --model fp-am override
    # the station reads its pressure, and the ratio says nothing
    cfg = gn.SolverConfig(dt=3600.0, t_end=3600.0)
    line = "FC compressor 'station' with ratio 0.9 < 1 acts as an expander at t={} s"
    for source, want in [("default", [line.format(0)]), ("profile", [line.format(3600)]),
                         ("neutral", [])]:
        spec, scen = benchmark_with_model("fc-am")
        if source == "default":
            del scen.profiles["station.ratio"]
            spec.compressors[0].ratio = 0.9
        else:
            ratios = [1.2, 0.9] if source == "profile" else [1.2, 1.0]
            scen.profiles["station.ratio"] = (np.array([0.0, 3600.0]), np.array(ratios))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gn.assemble(spec)
        expander = [w for w in gn.simulate(g, scen, cfg).warnings if "expander" in w]
        assert expander == want, source
        fp = gn.assemble(_apply_model_override(spec, "fp-am", None))
        assert gn.simulate(fp, scen, cfg).warnings == [], source


def test_fp_nonpositive_pressure_is_error():
    with pytest.raises(gn.ConfigurationError,
                       match="compressor 'c': pressure must be finite and positive, got 0.0"):
        station("fp-am", pressure=0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("tag, setpoint, kappa, message", [
    ("fc-av", 1.2, NAN, "isentropic exponent must be finite and exceed 1, got nan"),
    ("fp-am", 7e6, INF, "isentropic exponent must be finite and exceed 1, got inf"),
    ("fc-am", 1.2, 1.0, "isentropic exponent must be finite and exceed 1, got 1.0"),
])
def test_nonfinite_kappa_or_setpoint_is_rejected(tag, setpoint, kappa, message):
    # NaN passes a plain `<=` check; the station rows would then give NaN
    # factors. The station takes its setpoint; the gas carries kappa, so the
    # gas rejects it (`test_nonfinite_station_setpoint_is_rejected`: the setpoint)
    station(tag, **{row(tag).setpoint: setpoint})
    with pytest.raises(gn.ConfigurationError, match=message):
        gn.GasProperties(530.0, 276.25, 1.0, kappa)


@pytest.mark.parametrize("tag, setpoint, message", [
    ("fp-av", NAN, "compressor 'c': pressure must be finite and positive, got nan"),
    ("fp-am", INF, "compressor 'c': pressure must be finite and positive, got inf"),
    ("fc-av", INF, "compressor 'c': ratio must be finite and positive, got inf"),
    ("fc-am", NAN, "compressor 'c': ratio must be finite and positive, got nan"),
    ("fc-am", 0.0, "compressor 'c': ratio must be finite and positive, got 0.0"),
])
def test_nonfinite_station_setpoint_is_rejected(tag, setpoint, message):
    # the default setpoint the variant reads is checked where the station is declared
    with pytest.raises(gn.ConfigurationError, match=message):
        station(tag, **{row(tag).setpoint: setpoint})


def test_neutral_setpoint_identity_for_all_models():
    # ratio 1, or an outlet pressure equal to the inlet pressure: k = 1,
    # the outlet pressure is the inlet pressure and the machine does no work
    p_in = 7e6
    for tag in TAGS:
        sp = 1.0 if tag.startswith("fc") else p_in
        assert factor(tag, sp, p_in) == pytest.approx(1.0, rel=1e-14)
        assert outlet(tag, sp, p_in) == p_in
        assert power(tag, sp, p_in, 77.0) == pytest.approx(0.0, abs=1e-14 * p_in * 77.0)
