"""Steady-state initialization and implicit-midpoint transient integration.

The inner solver is a damped Newton iteration on the scaled residual with a
forward finite-difference Jacobian (Curtis, Powell & Reid 1974). Structural
column coloring (provided by the system object) evaluates all independent
Jacobian columns in one residual sweep; one gather then reads every
structural nonzero from the sweep of its column's color. Without a coloring
every column is its own color. The difference step, the line search's shrink
factor and its backtrack limit are module constants (``FD_STEP``,
``BACKTRACK_FACTOR``, ``MAX_BACKTRACKS``), not settings.

Up to ``SolverConfig.sparse_threshold`` unknowns (a class constant, 2000,
not a setting) the gathered values scatter straight into the coloring's
block layout (``network.BlockLayout``): in the port-Hamiltonian form a pipe
touches the rest of the network only through its ports, so with every pipe
cut into segments of at most ``network.SEGMENT_CELLS`` cells the Jacobian
is block diagonal over the segments, bordered by the cut cells and the
algebraic unknowns. ``BlockFactor`` inverts the segment blocks of one shape
in one stacked LAPACK call and the border's Schur complement
S = D - C A^-1 B dense (block LU, Golub & Van Loan, Matrix Computations),
so no n x n array is formed. A system without pipe structure (a coloring
built without segments, or no coloring at all) is one block with an empty
border and runs the same code. Above the threshold the gather is a
compressed sparse column matrix as it stands, which SuperLU
(``scipy.sparse.linalg.splu``) factors; ``scipy.sparse.linalg`` adds about
30 MB to the process and is imported only once a system above the
threshold is solved.

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
Below the threshold the iteration stays full Newton, one block factor per
iteration.

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

from .errors import (ConfigurationError, FactorizationError,
                     NonconvergenceError, StateError)
from .network import ColumnColoring, block_layout

__all__ = [
    "SolverConfig", "NewtonResult", "TimeSeries", "scale_residual",
    "newton_solve", "steady_state", "step_midpoint", "simulate", "bind_inputs",
]


@dataclass
class SolverConfig:
    """Newton and time-grid settings (all tolerances in scaled units).

    ``sparse_threshold`` is a class constant, not a setting. It selects the
    linear solve and the Newton policy: systems with more unknowns get the
    sparse Jacobian, SuperLU and chord Newton, which reuses its factor
    across iterations and steps and refactors only when a reused step
    fails to contract (module docstring); smaller ones get the block factor
    of the coloring's pipe-segment layout and full Newton, one Jacobian
    per iteration. The sparse path needs the solve's column coloring;
    without one the system is one block at every size. The benchmark's
    tests read the threshold (``bench/tests/test_bench.py``, to check that
    the ladder workload lies above it), so it stays until the structured
    factor serves every size.

    ``newton_abs_tol`` and ``dt`` must be finite and positive, ``t_end``
    finite and nonnegative (0 solves the steady state only), and
    ``newton_max_iter`` at least 1; anything else raises
    ``ConfigurationError`` here, before a solve starts.
    """

    newton_abs_tol: float = 1e-8
    newton_max_iter: int = 50
    dt: float | None = None
    t_end: float | None = None
    sparse_threshold: ClassVar[int] = 2000

    def __post_init__(self):
        if not (math.isfinite(self.newton_abs_tol) and self.newton_abs_tol > 0):
            raise ConfigurationError(
                f"newton_abs_tol must be finite and positive, got {self.newton_abs_tol}")
        if self.newton_max_iter < 1:
            raise ConfigurationError(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be finite and positive, got {self.dt}")
        if self.t_end is not None and not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigurationError(f"t_end must be finite and nonnegative, got {self.t_end}")


# a reused-factor (chord) step is accepted when it cuts max|F| at least this much
CHORD_CONTRACTION = 0.5
# the line search shrinks a rejected step by this factor, at most this often
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 20
# forward-difference step relative to 1 + |x_j|
FD_STEP = 1e-7


@dataclass
class NewtonResult:
    """Solution, accepted steps, max|F| after each, and Jacobians built and factored.

    Below the sparse threshold every iteration builds and block-factors one
    Jacobian, so ``jacobians`` equals ``iterations``; above it reused
    SuperLU factors make it smaller.
    """

    x: np.ndarray
    iterations: int
    history: list[float]
    jacobians: int = 0


def scale_residual(gsys, raw):
    """Divide pressure-type rows by p_ref and momentum-type rows by m_ref."""
    return np.asarray(raw, float) / gsys.row_scale()


def _uncolored(n_rows, n_cols) -> ColumnColoring:
    """One color per column, every row structural: the plain FD Jacobian, one block."""
    rows, cols = np.tile(np.arange(n_rows), n_cols), np.repeat(np.arange(n_cols), n_rows)
    return ColumnColoring(list(np.arange(n_cols)[:, None]), rows, cols, cols,
                          n_rows * np.arange(n_cols + 1), [None],
                          block_layout(rows, cols, n_cols))


def _fd_jacobian(fun, x, F0, coloring):
    """Forward-difference Jacobian values, one residual sweep per column color.

    The sweep of color c fills row c of ``dF``; every structural nonzero is
    then read from the sweep of its column's color in one gather, in the
    coloring's CSC order (entry i at (rows[i], cols[i])).
    """
    h = FD_STEP * (1.0 + np.abs(x))
    dF = np.empty((len(coloring.groups), F0.size))
    for c, group in enumerate(coloring.groups):
        xp = x.copy()
        xp[group] += h[group]
        dF[c] = fun(xp) - F0
    return dF[coloring.color, coloring.rows] / h[coloring.cols]


def _csc(vals, coloring):
    """The gathered values as a CSC matrix: the coloring's index arrays as they stand."""
    from scipy.sparse import csc_matrix

    n = coloring.indptr.size - 1
    return csc_matrix((vals, coloring.rows, coloring.indptr), shape=(n, n))


def _inverse(stack, names):
    """np.linalg.inv of a matrix or a (k, m, m) stack; a singular one raises naming it."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError as exc:
        sign, _ = np.linalg.slogdet(stack)
        name = names[int(np.argmin(np.abs(sign)))]
        raise FactorizationError(f"Jacobian factorization failed: {name} is singular") from exc


def _segment_part(vals, sg, names):
    """(A^-1, A^-1 B, C's values) for one group of same-shape segment blocks."""
    k, L = sg.stack.R.shape
    AB = np.zeros(k * L * sg.stack.C.shape[1])
    AB[sg.stack.at] = vals[sg.stack.entry]
    AB = AB.reshape(k, L, -1)
    Ainv = _inverse(AB[:, :, :L], [names[b] for b in sg.stack.blocks])
    return Ainv, Ainv @ AB[:, :, L:], vals[sg.c_entry]


class BlockFactor:
    """Block LU of the bordered block form (``network.BlockLayout``).

    The gathered values scatter straight into stacked segment blocks [A | B]
    (B: each block's port columns), the border rows' entries C and the
    border block D. The blocks of one shape are inverted in one stacked
    ``np.linalg.inv``, and the Schur complement S = D - C A^-1 B on the
    border is inverted dense. ``solve`` then eliminates the segments, solves
    the border and substitutes back, so nothing n x n is formed unless the
    whole system is one block.
    """

    def __init__(self, vals, layout):
        self.layout = layout
        nb = layout.border.size
        self.parts = [_segment_part(vals, sg, layout.names) for sg in layout.groups]
        S = np.zeros(nb * nb)
        S[layout.d_at] = vals[layout.d_entry]
        for sg, (_, Y, c) in zip(layout.groups, self.parts):
            k, L, p = Y.shape
            np.subtract.at(S, sg.c_S, c[:, None] * Y.reshape(k * L, p)[sg.c_col])
        self.Sinv = _inverse(S.reshape(nb, nb), [f"the border block ({nb} unknowns)"])

    def solve(self, rhs):
        """The x with J x = rhs."""
        border, groups = self.layout.border, list(zip(self.layout.groups, self.parts))
        ys = [(Ainv @ rhs[sg.stack.R][:, :, None])[:, :, 0] for sg, (Ainv, _, _) in groups]
        g = rhs[border]
        for (sg, (_, _, c)), y in zip(groups, ys):
            g = g - np.bincount(sg.c_row, c * y.ravel()[sg.c_col], minlength=border.size)
        x = np.empty(rhs.size)
        x[border] = xb = self.Sinv @ g
        for (sg, (_, Y, _)), y in zip(groups, ys):
            x[sg.stack.R] = y - (Y @ xb[sg.ports][:, :, None])[:, :, 0]
        return x


def _newton_step(fun, x, F, colors, sparse):
    """Solve J dx = -F with the finite-difference Jacobian at x.

    Above the sparse threshold SuperLU factors the CSC Jacobian and the
    factor is stored in ``colors.factor`` for later chord steps; below it
    the block factor of the coloring's layout solves the step.
    """
    vals = _fd_jacobian(fun, x, F, colors)
    if not sparse:
        return BlockFactor(vals, colors.layout).solve(-F)
    from scipy.sparse.linalg import splu

    try:
        lu = splu(_csc(vals, colors))
    except RuntimeError as exc:       # "Factor is exactly singular"
        raise FactorizationError(f"Jacobian factorization failed: {exc}") from exc
    colors.factor[0] = lu
    return lu.solve(-F)


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
    if colors is None:
        colors = _uncolored(F.size, x.size)
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
            dx = _newton_step(fun, x, F, colors, sparse)
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
        f"no convergence in {cfg.newton_max_iter} iterations "
        f"(residual {norm:.3e}, tol {cfg.newton_abs_tol:.1e})",
        x_best=best_x, history=history)


# ----------------------------------------------------------------------
# input binding
# ----------------------------------------------------------------------

def bind_inputs(gsys, scenario):
    """Resolve scenario profiles against the system's `input_ids`.

    Returns (input_fn, p_ref, m_ref): input_fn(t) yields the id->value dict
    the residual consumes; the references scale pressure and momentum rows
    (supply pressure at t=0; largest extraction over the run).
    """
    sources = {}
    for key, _ in gsys.boundary_inputs:
        if not scenario.has(key):
            raise ConfigurationError(f"scenario lacks a profile for {key!r}")
        sources[key] = key
    for s in gsys.stations:
        sources[s.id] = scenario.setpoint_source(s.id, s.model.variant.setpoint, s.default)
        if sources[s.id] is None:
            raise ConfigurationError(f"no setpoint profile or default for compressor {s.id!r}")

    def input_fn(t):
        return {key: (scenario.value(src, t) if isinstance(src, str) else src)
                for key, src in sources.items()}

    levels = {key: scenario.max_abs(key) if kind == "momentum" else scenario.value(key, 0.0)
              for key, kind in gsys.boundary_inputs}
    return (input_fn, *_references(gsys, levels))


def _references(gsys, levels):
    """(p_ref, m_ref): the first supply's level, else 1; max |demand level|, floored at 1."""
    supplies = [levels[key] for key, kind in gsys.boundary_inputs if kind == "pressure"]
    demands = [abs(levels[key]) for key, kind in gsys.boundary_inputs if kind == "momentum"]
    return (supplies[0] if supplies else 1.0), max(demands + [1.0])


# ----------------------------------------------------------------------
# steady state and stepping
# ----------------------------------------------------------------------

def _solve(sys, raw, x0, cfg, t, what):
    """Newton on the row-scaled `raw` residual; failure and state checks report time t."""
    scale = sys.row_scale()

    def fun(x):
        return raw(x) / scale

    try:
        res = newton_solve(fun, x0, cfg, colors=sys.jac_colors())
    except NonconvergenceError as exc:
        raise NonconvergenceError(f"{what} failed: {exc}", x_best=exc.x_best,
                                  history=exc.history, time=t) from exc
    sys.check_state(res.x[: sys.n_z], t)
    return res


def steady_state(gsys, inputs0, cfg: SolverConfig | None = None,
                 set_references=True) -> np.ndarray:
    """Solve the DAE with all time derivatives dropped, from flat initialization."""
    x0 = gsys.initial_guess(inputs0)
    if set_references:
        gsys.references = _references(gsys, inputs0)
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
        influx[i] = gsys.net_mass_influx(z_mid, x_new, input_fn(t_n + 0.5 * dt))
        iters[i] = res.iterations
        x = x_new
        record(i + 1, x[:n_z], tgrid[i + 1], x)

    return TimeSeries(tgrid, names, data, iters, mass, influx, warnings)
