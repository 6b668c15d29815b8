"""Steady-state initialization and implicit-midpoint transient integration.

The inner solver is a damped Newton iteration on the scaled residual. Each
step solves with the block factor of the colored finite-difference Jacobian
that the system's coloring lays out (``gasnetsim.blocks``). The iteration
limit, the line search's shrink factor and its backtrack limit are module
constants (``MAX_ITERATIONS``, ``BACKTRACK_FACTOR``, ``MAX_BACKTRACKS``),
not settings.

``SolverConfig.sparse_threshold`` (a class constant, 2000 unknowns, not a
setting) selects only the Newton policy. Above it the iteration is chord
Newton (Hairer & Wanner, Solving ODEs II, IV.8): the last block factor is
kept in the coloring's chord slot and reused across iterations and time
steps, because over one step the Jacobian barely moves. A
reused-factor step is taken in full, without a line search, when it cuts
max|F| by at least ``CHORD_CONTRACTION``; otherwise the factor is dropped,
the finite-difference Jacobian is rebuilt and factored at the current
iterate, and the damped Newton step runs as usual. A chord iterate tends to
stop just under the tolerance where a full Newton step overshoots it, so
when a reused-factor step first meets the tolerance, one more reused step
is tried and kept only if it lowers max|F|. Below the threshold the
iteration stays full Newton, one block factor per iteration.

Time stepping follows the implicit midpoint rule: differential states are
advanced with the right-hand side collocated at the state average, algebraic
variables and inputs are taken at the midpoint time, and piecewise-constant
profiles are sampled right-continuously (a breakpoint belongs to the new
value). Recorded port values are re-derived from the endpoint state through
the coupling relations so every sample is internally consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .blocks import BlockFactor, fd_jacobian
from .errors import (ConfigurationError, FactorizationError,
                     NonconvergenceError, StateError)
from .network import NodeKind

__all__ = [
    "SolverConfig", "NewtonResult", "TimeSeries", "newton_solve", "steady_state",
    "step_midpoint", "simulate", "bind_inputs",
]


@dataclass
class SolverConfig:
    """Newton and time-grid settings (all tolerances in scaled units).

    ``sparse_threshold`` is a class constant, not a setting. It selects
    only the Newton policy (module docstring); every size solves with the
    block factor of ``gasnetsim.blocks``. Systems with more unknowns get
    chord Newton, smaller ones full Newton, one Jacobian per iteration.
    The benchmark's tests read the threshold (``bench/tests/test_bench.py``,
    to check that the ladder workload lies above it), so it stays until
    chord Newton serves every size.

    ``newton_abs_tol`` bounds max|F| of the row-scaled residual, not the
    records: on the shipped day case (fc-am) the default leaves them
    1.2e-6 at 32 cells and 4.4e-6 at 256 cells and dt 900 s, column-scaled,
    from a 1e-12 solve (``TestToleranceDistance`` in the tests).

    ``newton_abs_tol`` and ``dt`` must be finite and positive, and
    ``t_end`` finite and nonnegative (0 solves the steady state only);
    anything else raises ``ConfigurationError`` here, before a solve
    starts.
    """

    newton_abs_tol: float = 1e-8
    dt: float | None = None
    t_end: float | None = None
    sparse_threshold: ClassVar[int] = 2000

    def __post_init__(self):
        if not (math.isfinite(self.newton_abs_tol) and self.newton_abs_tol > 0):
            raise ConfigurationError(
                f"newton_abs_tol must be finite and positive, got {self.newton_abs_tol}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be finite and positive, got {self.dt}")
        if self.t_end is not None and not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigurationError(f"t_end must be finite and nonnegative, got {self.t_end}")


# a Newton solve that has not converged after this many iterations fails
MAX_ITERATIONS = 50
# a reused-factor (chord) step is accepted when it cuts max|F| at least this much
CHORD_CONTRACTION = 0.5
# the line search shrinks a rejected step by this factor, at most this often
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 20


@dataclass
class NewtonResult:
    """Solution, accepted steps, max|F| after each, and Jacobians built and factored.

    Below the sparse threshold every iteration builds and block-factors one
    Jacobian, so ``jacobians`` equals ``iterations``; above it chord steps
    on a reused block factor make it smaller.
    """

    x: np.ndarray
    iterations: int
    history: list[float]
    jacobians: int = 0


def _newton_step(fun, x, F, colors, slot):
    """Solve J dx = -F with the block factor of the finite-difference Jacobian at x.

    With a ``slot`` (chord Newton, above the sparse threshold) the factor
    is kept there for later chord steps; without one it forms no inverse.
    """
    lu = BlockFactor(fd_jacobian(fun, x, F, colors), colors.layout, -F, keep=slot is not None)
    if slot is not None:
        slot[0] = lu
    return lu.x


def _chord_step(fun, x, F, lu):
    """One full step with a reused factor; (x, F, max|F|), F None if not finite."""
    x_try = x + lu.solve(-F)
    F_try = np.asarray(fun(x_try), float)
    if not np.all(np.isfinite(F_try)):
        return x_try, None, np.inf
    return x_try, F_try, float(np.max(np.abs(F_try)))


def newton_solve(fun, x0, cfg: SolverConfig | None = None, *, colors) -> NewtonResult:
    """Damped Newton with backtracking line search on the residual norm.

    Converges when the max norm of fun(x) drops below cfg.newton_abs_tol.
    ``colors`` is a ``blocks.ColumnColoring`` of fun's Jacobian pattern.
    Above ``cfg.sparse_threshold`` the iteration is chord Newton on the
    factor held in ``colors.factor`` (module docstring).
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
    slot = colors.factor if x.size > cfg.sparse_threshold else None
    jacobians = 0
    if norm <= cfg.newton_abs_tol:
        return NewtonResult(x, 0, history, jacobians)

    for it in range(1, MAX_ITERATIONS + 1):
        chord = False
        if slot is not None and slot[0] is not None:
            x_try, F_try, norm_try = _chord_step(fun, x, F, slot[0])
            chord = norm_try <= CHORD_CONTRACTION * norm
            if not chord:
                slot[0] = None
        if not chord:
            dx = _newton_step(fun, x, F, colors, slot)
            jacobians += 1
            f2 = float(np.dot(F, F))
            alpha = 1.0
            accepted = False
            for _ in range(MAX_BACKTRACKS + 1):
                x_try = x + alpha * dx
                F_try = np.asarray(fun(x_try), float)
                if np.all(np.isfinite(F_try)):
                    f2_try = float(np.dot(F_try, F_try))
                    if f2_try < (1.0 - 1e-4 * alpha) * f2:
                        accepted = True
                        break
                alpha *= BACKTRACK_FACTOR
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
        f"no convergence in {MAX_ITERATIONS} iterations "
        f"(residual {norm:.3e}, tol {cfg.newton_abs_tol:.1e})",
        x_best=best_x, history=history)


# ----------------------------------------------------------------------
# input binding
# ----------------------------------------------------------------------

def bind_inputs(gsys, scenario):
    """Resolve scenario profiles against the system's `input_ids`.

    Returns (input_fn, p_ref, m_ref): input_fn(t) yields the id->value dict
    the residual consumes; the references scale pressure and momentum rows
    (`GlobalSystem.reference_levels` of the supply pressures at t=0 and the
    largest extractions over the run). This is the
    one check that the scenario drives the assembled system: a boundary
    node without a profile, or a station with neither a setpoint profile
    nor a default, raises ConfigurationError.
    """
    sources = {}
    for nd in gsys.boundary:
        if not scenario.has(nd.id):
            raise ConfigurationError(f"missing profile for boundary node {nd.id!r}")
        sources[nd.id] = nd.id
    for s in gsys.stations:
        sources[s.id] = scenario.setpoint_source(s.id, s.variant.setpoint, s.default)
        if sources[s.id] is None:
            raise ConfigurationError(f"missing setpoint profile for compressor {s.id!r}")

    def input_fn(t):
        return {key: (scenario.value(src, t) if isinstance(src, str) else src)
                for key, src in sources.items()}

    levels = {nd.id: scenario.max_abs(nd.id) if nd.kind is NodeKind.DEMAND
              else scenario.value(nd.id, 0.0) for nd in gsys.boundary}
    return (input_fn, *gsys.reference_levels(levels))


# ----------------------------------------------------------------------
# steady state and stepping
# ----------------------------------------------------------------------

def _solve(sys, raw, x0, cfg, t, what):
    """Newton on the row-scaled `raw` residual; a failure names `what`, state checks time t."""
    scale = sys.row_scale()

    def fun(x):
        return raw(x) / scale

    try:
        res = newton_solve(fun, x0, cfg, colors=sys.jac_colors())
    except NonconvergenceError as exc:
        raise NonconvergenceError(f"{what} failed: {exc}", x_best=exc.x_best,
                                  history=exc.history, time=t) from exc
    except FactorizationError as exc:
        raise FactorizationError(f"{what} failed: {exc}") from exc
    sys.check_state(res.x[: sys.n_z], t)
    return res


def steady_state(gsys, inputs0, cfg: SolverConfig | None = None,
                 set_references=True) -> np.ndarray:
    """Solve the DAE with all time derivatives dropped, from the Kirchhoff flow start."""
    x0 = gsys.initial_guess(inputs0)
    if set_references:
        gsys.references = gsys.reference_levels(inputs0)
    gsys.jac_colors().factor[0] = None    # every steady solve starts from a fresh Jacobian
    return _solve(gsys, lambda x: gsys.steady_residual(x, inputs0), x0, cfg,
                  0.0, "steady-state solve").x


def step_midpoint(sys, x_prev, t_n, dt, input_fn, cfg: SolverConfig | None = None):
    """Advance one implicit-midpoint step; returns (x_next, NewtonResult).

    The unknowns are the endpoint differential states together with the
    midpoint algebraic variables; the previous solution is the predictor.
    The inputs are `input_fn` sampled at the midpoint time.
    """
    x_prev = np.asarray(x_prev, float)
    raw = sys.make_step_residual(x_prev[: sys.n_z], dt, input_fn(t_n + 0.5 * dt))
    res = _solve(sys, raw, x_prev, cfg, t_n + dt, f"step at t={t_n + dt:g} s")
    return res.x, res


@dataclass
class TimeSeries:
    """Simulation record: sample times, named port/energy columns, per-step Newton counts."""

    t: np.ndarray
    names: list[str]
    data: np.ndarray                       # (n_samples, n_columns)
    newton_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    mass_total: np.ndarray = field(default_factory=lambda: np.zeros(0))
    influx_mid: np.ndarray = field(default_factory=lambda: np.zeros(0))
    warnings: list[str] = field(default_factory=list)
    jacobians: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

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
    names = gsys.record_names()
    # before the steady solve: a grid the records cannot hold (an infinite step
    # count at a subnormal dt included) fails at once, without touching memory
    try:
        n_steps = int(round(t_end / dt))
        if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
            raise ConfigurationError(f"t_end={t_end} is not a multiple of dt={dt}")
        if scenario.t_end < t_end - 1e-9:
            raise ConfigurationError("scenario does not cover the requested horizon")
        data = np.empty((n_steps + 1, len(names)))
        tgrid = dt * np.arange(n_steps + 1)
        iters, jacobians = np.zeros(n_steps, dtype=int), np.zeros(n_steps, dtype=int)
        mass = np.empty(n_steps + 1)
        influx = np.zeros(n_steps)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigurationError(f"t_end={t_end:g} s at dt={dt:g} s gives {t_end / dt:.4g} "
                                 "steps, more than the records can hold") from exc

    input_fn, p_ref, m_ref = bind_inputs(gsys, scenario)
    gsys.references = (p_ref, m_ref)

    x = steady_state(gsys, input_fn(0.0), cfg, set_references=False)
    n_z = gsys.n_z
    warnings: list[str] = []
    flagged: set[str] = set()

    rho_floor = 0.05 * p_ref / gsys.gas.c2

    def record(i, z, t, anchor):
        data[i], _ = gsys.snapshot(z, input_fn(t), anchor)
        mass[i] = gsys.total_mass(z)
        for b in gsys.stations:
            key = f"reverse-flow:{b.id}"
            if z[gsys.bank.m_in[b.pipe_down]] < 0.0 and key not in flagged:
                flagged.add(key)
                warnings.append(f"reverse flow through compressor {b.id!r} at t={t:g} s")
        if gsys.min_density(z) < rho_floor and "low-density" not in flagged:
            flagged.add("low-density")
            warnings.append(f"density below 5% of the supply level at t={t:g} s")

    record(0, x[:n_z], 0.0, x)
    for i in range(n_steps):
        t_n = tgrid[i]
        x_new, res = step_midpoint(gsys, x, t_n, dt, input_fn, cfg)
        z_mid = 0.5 * (x[:n_z] + x_new[:n_z])
        influx[i] = gsys.net_mass_influx(z_mid, x_new)
        iters[i], jacobians[i] = res.iterations, res.jacobians
        x = x_new
        record(i + 1, x[:n_z], tgrid[i + 1], x)

    return TimeSeries(tgrid, names, data, iters, mass, influx, warnings, jacobians)
