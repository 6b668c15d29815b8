"""Output checks for one benchmark operation, and its record fingerprint.

The checks read the generated input texts themselves (plain JSON, not the
program's parser), so a parser defect cannot hide a wrong result. Every
check returns a list of failure messages; an empty list means the operation
produced correct output.
"""

from __future__ import annotations

import json

import numpy as np

BAR = 1.0e5
CONTRACT_TOL = 1e-6       # the AC3 tolerance on the station jump conditions
NEWTON_TOL = 1e-8         # SolverConfig.newton_abs_tol, on the scaled residual


def _profile(profiles, key, t, scale=1.0):
    """Right-continuous sample of a piecewise-constant profile at times t."""
    times = np.array([float(e[0]) for e in profiles[key]])
    values = np.array([float(e[1]) for e in profiles[key]]) * scale
    return values[np.maximum(np.searchsorted(times, t, side="right") - 1, 0)]


def _station_errors(ts, net, profiles):
    """Relative jump-condition errors per station at every sample (AC3 formulas).

    A junction named ``<station>.junction`` (the ``none`` model) must pass
    pressure and momentum through unchanged.
    """
    kappa = float(net["gas"]["kappa"])
    ends_to = {p["to"]: p["id"] for p in net["pipes"]}
    ends_from = {p["from"]: p["id"] for p in net["pipes"]}
    out = {}
    for st in net["compressors"]:
        up, down = ends_to[st["from"]], ends_from[st["to"]]
        p1, m1 = ts.column(f"{up}.out.p_Pa"), ts.column(f"{up}.out.m")
        p2, m2 = ts.column(f"{down}.in.p_Pa"), ts.column(f"{down}.in.m")
        if st["framework"] == "fc":
            ratio = _profile(profiles, f"{st['id']}.ratio", ts.t)
            errs = [np.abs(p2 / p1 - ratio) / ratio]
            c_eff = ratio
        else:
            p_set = _profile(profiles, f"{st['id']}.pressure", ts.t, BAR)
            errs = [np.abs(p2 - p_set) / p_set]
            c_eff = p_set / p1
        if st["assumption"] == "am":
            errs.append(np.abs(m2 - m1) / np.abs(m1))
        else:
            errs.append(np.abs(m2 / m1 - c_eff ** (1.0 / kappa)))
        out[st["id"]] = max(float(np.max(e)) for e in errs)
    for nd in net["nodes"]:
        if nd["id"].endswith(".junction"):
            up, down = ends_to[nd["id"]], ends_from[nd["id"]]
            p1, m1 = ts.column(f"{up}.out.p_Pa"), ts.column(f"{up}.out.m")
            p2, m2 = ts.column(f"{down}.in.p_Pa"), ts.column(f"{down}.in.m")
            out[nd["id"]] = max(float(np.max(np.abs(p2 - p1) / p1)),
                                float(np.max(np.abs(m2 - m1) / np.abs(m1))))
    return out


def mass_ledger_bound(net, scenario) -> float:
    """Largest per-step defect |dM - dt * influx| a converged step allows.

    The continuity rows telescope to dM/dt - influx, and each row is solved
    to NEWTON_TOL * m_ref (m_ref: the largest demand, floored at 1, as
    ``bind_inputs`` sets it), so the defect is at most
    n_cells * NEWTON_TOL * m_ref * dt. The mass sums add roundoff on top.
    """
    demands = [nd["id"] for nd in net["nodes"] if nd["type"] == "demand"]
    m_ref = max([1.0] + [abs(float(e[1])) for d in demands
                         for e in scenario["profiles"][d]])
    cells = sum(int(p["cells"]) for p in net["pipes"])
    return cells * NEWTON_TOL * m_ref * float(scenario["dt"])


def check_operation(ts, network_text: str, scenario_text: str) -> list[str]:
    """All output checks for one simulated scenario; [] when correct."""
    net = json.loads(network_text)
    scn = json.loads(scenario_text)
    dt, t_end = float(scn["dt"]), float(scn["t_end"])
    n_steps = int(round(t_end / dt))
    fails = []

    if ts.n_samples != n_steps + 1 or ts.newton_iters.size != n_steps:
        return [f"sample count {ts.n_samples} (want {n_steps + 1}), "
                f"steps {ts.newton_iters.size} (want {n_steps})"]
    if not np.allclose(ts.t, dt * np.arange(n_steps + 1), rtol=0.0, atol=1e-9 * t_end):
        fails.append("time grid is not dt * k")
    for label, arr in (("records", ts.data), ("mass_total", ts.mass_total),
                       ("influx_mid", ts.influx_mid)):
        if not np.all(np.isfinite(arr)):
            fails.append(f"non-finite values in {label}")
    if fails:
        return fails

    for sid, err in _station_errors(ts, net, scn["profiles"]).items():
        if not err <= CONTRACT_TOL:
            fails.append(f"station contract {sid}: {err:.2e} > {CONTRACT_TOL:g}")

    defect = np.abs(np.diff(ts.mass_total) - dt * ts.influx_mid)
    bound = mass_ledger_bound(net, scn) + 1e-12 * float(np.max(ts.mass_total))
    if not np.max(defect) <= bound:
        fails.append(f"mass ledger defect {np.max(defect):.3e} > {bound:.3e} "
                     f"at step {int(np.argmax(defect))}")

    if ts.warnings:
        fails.append("warnings: " + "; ".join(ts.warnings))
    return fails


def fingerprint(ts) -> dict[str, str]:
    """Column sums of the records to 12 significant digits."""
    sums = ts.data.sum(axis=0)
    return {name: f"{s:.12g}" for name, s in zip(ts.names, sums)}
