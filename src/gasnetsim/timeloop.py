"""Steady-state initialization and implicit-midpoint transient integration.

The inner solver is a damped Newton iteration on the scaled residual with a
forward finite-difference Jacobian. Structural column coloring (provided by
the system object) evaluates all independent Jacobian columns in one sweep,
which keeps the 864-step day benchmark in the low seconds.

Up to ``SolverConfig.sparse_threshold`` unknowns the Jacobian is a dense
array factored by LAPACK. Above it, the colored sweeps fill a compressed
sparse column matrix directly, which SuperLU (``scipy.sparse.linalg.splu``)
factors, so no n x n array is ever allocated. The threshold trades the
dense Jacobian's 8 n^2 bytes (about 17 MB with its LU copy at n = 1000)
against the roughly 30 MB that importing ``scipy.sparse.linalg`` adds to the
process; the import happens only once a system above the threshold is
solved.

The sparse path is a chord Newton iteration (Hairer & Wanner, Solving ODEs
II, IV.8): the last SuperLU factor is kept in the coloring's ``factor`` slot
and reused across iterations and time steps, because over one step the
Jacobian barely moves. A reused-factor step is taken in full, without a
line search, when it cuts max|F| by at least ``CHORD_CONTRACTION``;
otherwise the factor is dropped, the finite-difference Jacobian is rebuilt
and factored at the current iterate, and the damped Newton step runs as
usual. A chord iterate tends to stop just under the tolerance where a full
Newton step overshoots it, so when a reused-factor step first meets the
tolerance, one more reused step is tried and kept only if it lowers max|F|.
The dense path keeps full Newton: numpy exposes no reusable LU, so reusing
J there would re-run LAPACK's factorization on every solve anyway.

Time stepping follows the implicit midpoint rule: differential states are
advanced with the right-hand side collocated at the state average, algebraic
variables and inputs are taken at the midpoint time, and piecewise-constant
profiles are sampled right-continuously (a breakpoint belongs to the new
value). Recorded port values are re-derived from the endpoint state through
the coupling relations so every sample is internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, FactorizationError,
                     NonconvergenceError, StateError)

__all__ = [
    "SolverConfig", "NewtonResult", "TimeSeries", "scale_residual",
    "newton_solve", "steady_state", "step_midpoint", "simulate", "bind_inputs",
]


@dataclass
class SolverConfig:
    """Newton and time-grid settings (all tolerances in scaled units).

    ``sparse_threshold``: systems with more unknowns get the sparse
    Jacobian and SuperLU; smaller ones a dense Jacobian and LAPACK, which
    needs 8 n^2 bytes but not the ~30 MB import of scipy.sparse.linalg. The
    sparse path needs the solve's column coloring; without one the
    Jacobian stays dense at every size. The sparse path reuses its SuperLU
    factor across iterations and steps (chord Newton, module docstring) and
    refactors only when a reused step fails to contract; the dense path
    builds and factors a Jacobian on every iteration.
    """

    newton_abs_tol: float = 1e-8
    newton_max_iter: int = 50
    backtrack_factor: float = 0.5
    max_backtracks: int = 20
    fd_step: float = 1e-7
    dt: float | None = None
    t_end: float | None = None
    sparse_threshold: int = 2000

    def __post_init__(self):
        if self.newton_abs_tol <= 0 or self.fd_step <= 0:
            raise ConfigurationError("tolerances must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ConfigurationError("dt must be positive")


# a reused-factor (chord) step is accepted when it cuts max|F| at least this much
CHORD_CONTRACTION = 0.5


@dataclass
class NewtonResult:
    """Solution, accepted steps, max|F| after each, and Jacobians built and factored.

    On the dense path every iteration builds one Jacobian, so ``jacobians``
    equals ``iterations``; on the sparse path reused factors make it smaller.
    """

    x: np.ndarray
    iterations: int
    history: list[float]
    jacobians: int = 0


def scale_residual(gsys, raw):
    """Divide pressure-type rows by p_ref and momentum-type rows by m_ref."""
    return np.asarray(raw, float) / gsys.row_scale()


def _fd_jacobian(fun, x, F0, colors_info, rel_step):
    """Forward-difference Jacobian, one residual sweep per column color."""
    n = x.size
    J = np.zeros((F0.size, n))
    if colors_info is None:
        for j in range(n):
            h = rel_step * (1.0 + abs(x[j]))
            xp = x.copy()
            xp[j] += h
            J[:, j] = (fun(xp) - F0) / h
        return J
    colors, rows_of_col = colors_info[:2]
    for group in colors:
        xp = x.copy()
        h = rel_step * (1.0 + np.abs(x[group]))
        xp[group] += h
        dF = fun(xp) - F0
        for j, hj in zip(group, h):
            rows = rows_of_col[j]
            J[rows, j] = dF[rows] / hj
    return J


def _fd_jacobian_csc(fun, x, F0, coloring, rel_step):
    """The colored forward-difference Jacobian as a CSC matrix.

    Same steps and quotients as ``_fd_jacobian``: one sweep per color fills
    a row of ``dF``, then every structural nonzero is read from the sweep of
    its column's color in one gather. The gather is already in CSC order, so
    the matrix takes the coloring's index arrays without a sort.
    """
    from scipy.sparse import csc_matrix

    h = rel_step * (1.0 + np.abs(x))
    dF = np.empty((len(coloring.groups), F0.size))
    for c, group in enumerate(coloring.groups):
        xp = x.copy()
        xp[group] += h[group]
        dF[c] = fun(xp) - F0
    vals = dF[coloring.color, coloring.rows] / h[coloring.cols]
    return csc_matrix((vals, coloring.rows, coloring.indptr), shape=(F0.size, x.size))


def _newton_step(fun, x, F, colors, cfg, sparse):
    """Solve J dx = -F with the finite-difference Jacobian at x.

    On the sparse path the SuperLU factor is stored in ``colors.factor`` for
    later chord steps.
    """
    if sparse:
        from scipy.sparse.linalg import splu

        J = _fd_jacobian_csc(fun, x, F, colors, cfg.fd_step)
        try:
            lu = splu(J)
        except RuntimeError as exc:       # "Factor is exactly singular"
            raise FactorizationError(f"Jacobian factorization failed: {exc}") from exc
        colors.factor[0] = lu
        return lu.solve(-F)
    J = _fd_jacobian(fun, x, F, colors, cfg.fd_step)
    try:
        return np.linalg.solve(J, -F)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Jacobian factorization failed: {exc}") from exc


def _chord_step(fun, x, F, lu):
    """One full step with a reused factor; (x, F, max|F|), F None if not finite."""
    x_try = x + lu.solve(-F)
    F_try = np.asarray(fun(x_try), float)
    if not np.all(np.isfinite(F_try)):
        return x_try, None, np.inf
    return x_try, F_try, float(np.max(np.abs(F_try)))


def newton_solve(fun, x0, cfg: SolverConfig | None = None, colors=None) -> NewtonResult:
    """Damped Newton with backtracking line search on the residual norm.

    Converges when the max norm of fun(x) drops below cfg.newton_abs_tol.
    Above ``cfg.sparse_threshold`` (with a coloring) the iteration is chord
    Newton on the factor held in ``colors.factor`` (module docstring).
    Raises NonconvergenceError (carrying the best iterate and the norm
    history) on stagnation or iteration exhaustion.
    """
    if cfg is None:
        cfg = SolverConfig()
    x = np.array(x0, dtype=float)
    F = np.asarray(fun(x), float)
    if not np.all(np.isfinite(F)):
        raise StateError("residual not finite at the initial guess")
    norm = float(np.max(np.abs(F)))
    history = [norm]
    best_x, best_norm = x.copy(), norm
    sparse = colors is not None and x.size > cfg.sparse_threshold
    slot = colors.factor if sparse else None
    jacobians = 0
    if norm <= cfg.newton_abs_tol:
        return NewtonResult(x, 0, history, jacobians)

    for it in range(1, cfg.newton_max_iter + 1):
        chord = False
        if slot is not None and slot[0] is not None:
            x_try, F_try, norm_try = _chord_step(fun, x, F, slot[0])
            chord = norm_try <= CHORD_CONTRACTION * norm
            if not chord:
                slot[0] = None
        if not chord:
            dx = _newton_step(fun, x, F, colors, cfg, sparse)
            jacobians += 1
            f2 = float(np.dot(F, F))
            alpha = 1.0
            accepted = False
            for _ in range(cfg.max_backtracks + 1):
                x_try = x + alpha * dx
                F_try = np.asarray(fun(x_try), float)
                if np.all(np.isfinite(F_try)):
                    f2_try = float(np.dot(F_try, F_try))
                    if f2_try < (1.0 - 1e-4 * alpha) * f2:
                        accepted = True
                        break
                alpha *= cfg.backtrack_factor
            if not accepted:
                raise NonconvergenceError(
                    f"line search stalled at iteration {it - 1} (residual {norm:.3e})",
                    x_best=best_x, history=history)
            norm_try = float(np.max(np.abs(F_try)))
        x, F, norm = x_try, F_try, norm_try
        history.append(norm)
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
        if norm <= cfg.newton_abs_tol:
            if chord:
                # polish: one more reused step, kept only if it helps
                x_try, _, norm_try = _chord_step(fun, x, F, slot[0])
                if norm_try < norm:
                    x, norm = x_try, norm_try
                    history.append(norm)
            return NewtonResult(x, len(history) - 1, history, jacobians)

    raise NonconvergenceError(
        f"no convergence in {cfg.newton_max_iter} iterations "
        f"(residual {norm:.3e}, tol {cfg.newton_abs_tol:.1e})",
        x_best=best_x, history=history)


# ----------------------------------------------------------------------
# input binding
# ----------------------------------------------------------------------

def bind_inputs(gsys, scenario):
    """Resolve scenario profiles against the system's required inputs.

    Returns (input_fn, p_ref, m_ref): input_fn(t) yields the id->value dict
    the residual consumes; the references scale pressure and momentum rows
    (supply pressure at t=0; largest extraction over the run, floored at 1).
    """
    resolved = {}
    m_ref = 1.0
    p_ref = None
    for key, kind in gsys.required_inputs():
        if kind in ("pressure", "momentum"):
            if not scenario.has(key):
                raise ConfigurationError(f"scenario lacks a profile for {key!r}")
            resolved[key] = key
            if kind == "momentum":
                m_ref = max(m_ref, scenario.max_abs(key))
            elif p_ref is None:
                p_ref = scenario.value(key, 0.0)
        else:
            b = next(b for b in gsys.stations if b.station.id == key)
            own = f"{key}.{b.model.variant.setpoint}"
            if scenario.has(own):
                resolved[key] = own
            elif scenario.has(key):
                resolved[key] = key
            else:
                default = b.station.default_setpoint()
                if default is None:
                    raise ConfigurationError(
                        f"no setpoint profile or default for compressor {key!r}")
                resolved[key] = default
    if p_ref is None:
        p_ref = 1.0

    def input_fn(t):
        return {key: (scenario.value(src, t) if isinstance(src, str) else src)
                for key, src in resolved.items()}

    return input_fn, p_ref, m_ref


# ----------------------------------------------------------------------
# steady state and stepping
# ----------------------------------------------------------------------

def steady_state(gsys, inputs0, cfg: SolverConfig | None = None,
                 set_references=True) -> np.ndarray:
    """Solve the DAE with all time derivatives dropped, from flat initialization."""
    if cfg is None:
        cfg = SolverConfig()
    if callable(inputs0):
        inputs0 = inputs0(0.0)
    if set_references:
        supplies = [nid for nid, kind in gsys.required_inputs() if kind == "pressure"]
        demands = [nid for nid, kind in gsys.required_inputs() if kind == "momentum"]
        p_ref = inputs0[supplies[0]] if supplies else 1.0
        m_ref = max([abs(inputs0[d]) for d in demands] + [1.0])
        gsys.references = (p_ref, m_ref)
    scale = gsys.row_scale()

    def fun(x):
        return gsys.steady_residual(x, inputs0) / scale

    x0 = gsys.initial_guess(inputs0)
    colors = gsys.jac_colors()
    colors.factor[0] = None      # every steady solve starts from a fresh Jacobian
    try:
        res = newton_solve(fun, x0, cfg, colors=colors)
    except NonconvergenceError as exc:
        raise NonconvergenceError(
            f"steady-state solve failed: {exc}", x_best=exc.x_best,
            history=exc.history, time=0.0) from exc
    gsys.check_state(res.x[: gsys.n_z], 0.0)
    return res.x


def step_midpoint(sys, x_prev, t_n, dt, input_fn, cfg: SolverConfig | None = None):
    """Advance one implicit-midpoint step; returns (x_next, NewtonResult).

    The unknowns are the endpoint differential states together with the
    midpoint algebraic variables; the previous solution is the predictor.
    """
    if cfg is None:
        cfg = SolverConfig()
    t_mid = t_n + 0.5 * dt
    inputs_mid = input_fn(t_mid) if callable(input_fn) else input_fn
    raw = sys.make_step_residual(np.asarray(x_prev, float)[: sys.n_z], dt, inputs_mid)
    scale = sys.row_scale()

    def fun(x):
        return raw(x) / scale

    try:
        res = newton_solve(fun, np.asarray(x_prev, float), cfg, colors=sys.jac_colors())
    except NonconvergenceError as exc:
        raise NonconvergenceError(
            f"step at t={t_n + dt:g} s failed: {exc}", x_best=exc.x_best,
            history=exc.history, time=t_n + dt) from exc
    if hasattr(sys, "check_state"):
        sys.check_state(res.x[: sys.n_z], t_n + dt)
    return res.x, res


@dataclass
class TimeSeries:
    """Simulation record: sample times, named port/energy columns, diagnostics."""

    t: np.ndarray
    names: list[str]
    data: np.ndarray                       # (n_samples, n_columns)
    newton_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    mass_total: np.ndarray = field(default_factory=lambda: np.zeros(0))
    influx_mid: np.ndarray = field(default_factory=lambda: np.zeros(0))
    warnings: list[str] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.names.index(name)]

    @property
    def n_samples(self) -> int:
        return self.t.size


def simulate(gsys, scenario, cfg: SolverConfig | None = None) -> TimeSeries:
    """Steady initialization followed by implicit-midpoint transient stepping."""
    if cfg is None:
        cfg = SolverConfig()
    dt = cfg.dt if cfg.dt is not None else scenario.dt
    t_end = cfg.t_end if cfg.t_end is not None else scenario.t_end
    if dt is None or t_end is None:
        raise ConfigurationError("dt and t_end must come from the scenario or config")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ConfigurationError(f"t_end={t_end} is not a multiple of dt={dt}")
    if scenario.t_end < t_end - 1e-9:
        raise ConfigurationError("scenario does not cover the requested horizon")

    input_fn, p_ref, m_ref = bind_inputs(gsys, scenario)
    gsys.references = (p_ref, m_ref)

    x = steady_state(gsys, input_fn(0.0), cfg, set_references=False)
    n_z = gsys.n_z

    names = gsys.record_names()
    data = np.empty((n_steps + 1, len(names)))
    tgrid = dt * np.arange(n_steps + 1)
    iters = np.zeros(n_steps, dtype=int)
    mass = np.empty(n_steps + 1)
    influx = np.zeros(n_steps)
    warnings: list[str] = []
    flagged: set[str] = set()

    rho_floor = 0.05 * p_ref / gsys.gas.c2

    def record(i, z, t, anchor):
        snap, _ = gsys.snapshot(z, t, input_fn(t), anchor)
        data[i] = [snap[nm] for nm in names]
        mass[i] = gsys.total_mass(z)
        for b in gsys.stations:
            m_feed = z[gsys.mom_sl[b.pipe_down]][0]
            key = f"reverse-flow:{b.station.id}"
            if m_feed < 0.0 and key not in flagged:
                flagged.add(key)
                warnings.append(
                    f"reverse flow through compressor {b.station.id!r} at t={t:g} s")
        if gsys.min_density(z) < rho_floor and "low-density" not in flagged:
            flagged.add("low-density")
            warnings.append(f"density below 5% of the supply level at t={t:g} s")

    record(0, x[:n_z], 0.0, x)
    for i in range(n_steps):
        t_n = tgrid[i]
        x_new, res = step_midpoint(gsys, x, t_n, dt, input_fn, cfg)
        z_mid = 0.5 * (x[:n_z] + x_new[:n_z])
        influx[i] = gsys.net_mass_influx(z_mid, x_new, input_fn(t_n + 0.5 * dt))
        iters[i] = res.iterations
        x = x_new
        record(i + 1, x[:n_z], tgrid[i + 1], x)

    return TimeSeries(tgrid, names, data, iters, mass, influx, warnings)
