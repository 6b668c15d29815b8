"""The mutant catalogue: faults that named tests must catch.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

Each mutant is one exact-text edit of a file of the package. For each, the
runner copies src/ to a temporary directory, replaces the mutant's old text
there (it must occur exactly once: a missing or repeated text fails the run
loudly) and runs only the mutant's tests against that copy. The mutant is
killed when pytest reports failing tests (exit code 1); tests that pass, a
collection error or a timeout leave it alive. The runner exits 1 if any
mutant is alive or its text is not found once. It does not check that the
tests pass unmutated; the test suite does. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str                 # relative to src/gasnetsim
    old: str
    new: str
    tests: tuple[str, ...]    # pytest node ids, relative to the repository root


TL = "tests/test_timeloop.py::"
JUMP = "tests/test_compressor.py::TestMomentumJump::"
LAYOUT = "tests/test_compressor.py::TestCouplingMatrix::"
CHECK = "tests/test_network.py::test_check_state_names_"
NONFINITE = TL + "TestNonFiniteTrials::"
DIRECT = TL + "TestDirectSteadyStart::"
INFEASIBLE = DIRECT + "test_infeasible_demand_names_the_pipe_and_cell"
REDUCED = TL + "TestReducedSteady::"
LADDER = REDUCED + "test_ladder_at_any_cell_count"
PORT_JACOBIAN = REDUCED + "test_jacobian_is_the_dense_fd_jacobian"
SLOPES = "tests/test_compressor.py::TestPressureDerivatives::test_match_central_differences"

MUTANTS = [
    Mutant("start-accepts-nan", "timeloop.py",
           "    if not math.isfinite(norm):\n",
           "    if math.isinf(norm):\n",
           (NONFINITE + "test_at_the_start_raises",)),
    Mutant("line-search-accepts-nan", "timeloop.py",
           "if float(np.dot(F_try, F_try)) < (1.0 - 1e-4 * alpha) * f2:",
           "if not float(np.dot(F_try, F_try)) >= (1.0 - 1e-4 * alpha) * f2:",
           (NONFINITE + "test_line_search_backtracks_past_them",)),
    Mutant("chord-accepts-nan", "timeloop.py",
           "chord = norm_try <= CHORD_CONTRACTION * norm",
           "chord = not norm_try > CHORD_CONTRACTION * norm",
           (NONFINITE + "test_chord_trial_drops_the_factor_and_refactors",)),
    Mutant("algebraic-solve-at-zeros", "network.py",
           "x[: self.n_z], x[self.n_z:]\n",
           "x[: self.n_z], np.zeros(self.n_alg)\n",
           (TL + "TestSimulate::test_the_record_at_a_state_is_simulates",)),
    Mutant("influx-at-the-new-state", "network.py",
           "0.5 * (x_prev[m] + x_new[m])",
           "x_new[m]",
           (TL + "TestMidpointStep::test_mass_bookkeeping_per_step",)),
    Mutant("zero-factor-march-skipped", "network.py",
           "                self._tree_pass(u, walk, [0.0 if s.variant.reads_inlet[0] else k\n"
           "                                          for s, k in zip(self.stations, factors)])\n",
           "",
           (INFEASIBLE, "tests/test_cli.py::test_solver_failure_prints_one_line")),
    Mutant("march-forward-square", "network.py",
           "disc, s = lam * lam - 2.0 * c2 * a, -beta",
           "disc, s = lam * lam - c2 * a, -beta",
           (DIRECT + "test_branched_tree_with_every_station_variant",)),
    Mutant("march-forward-first-root", "network.py",
           "(lam + math.sqrt(disc)) / (2.0 * c2)",
           "(lam - math.sqrt(disc)) / (2.0 * c2)",
           (DIRECT + "test_branched_tree_with_every_station_variant",)),
    Mutant("march-forward-far-end", "network.py",
           "return d, s, 1.5 * (c2 * rho_far) - 0.5 * (c2 * math.sqrt(d + (n - 2) * s))",
           "return d, s, c2 * rho_far",
           (DIRECT + "test_branched_tree_with_every_station_variant",)),
    Mutant("march-backward-square", "network.py",
           "disc, s = P * P + 2.0 * beta, beta",
           "disc, s = P * P - 2.0 * beta, beta",
           (DIRECT + "test_branched_tree_with_every_station_variant",)),
    Mutant("march-backward-first", "network.py",
           "(3.0 * P + math.sqrt(disc)) / 4.0",
           "(3.0 * P + math.sqrt(disc)) / 3.0",
           (DIRECT + "test_branched_tree_with_every_station_variant",)),
    Mutant("march-backward-far-end", "network.py",
           "return d, s, c2 * rho_far + 0.5 * a / rho_far",
           "return d, s, c2 * rho_far",
           (DIRECT + "test_branched_tree_with_every_station_variant",)),
    Mutant("port-march-prev-cell", "network.py",
           "np.sqrt(d + (pm.n_cells - 2) * s))",
           "np.sqrt(d + (pm.n_cells - 3) * s))",
           (LADDER,)),
    Mutant("port-mu-m-sign", "network.py",
           "np.where((cols >= n_z) & (cols < n_z + P), -c.vals[alg], c.vals[alg])",
           "c.vals[alg]",
           (LADDER,)),
    Mutant("port-march-at-to-node", "network.py",
           "q, lam = y[: pm.n_cells.size], y[self.p_in - self.n_z]",
           "q, lam = y[: pm.n_cells.size], y[np.array([self.lam[pe.to_node] "
           "for pe in self.spec.pipes]) - self.n_z]",
           (LADDER,)),
    Mutant("port-pattern-drops-inlet", "network.py",
           "(pipes, pipes), (pipes, lam_from)]",
           "(pipes, pipes), (pipes, pipes)]",
           (PORT_JACOBIAN,)),
    Mutant("port-slope-lambda", "network.py",
           "dp_dlam = c2 * (2.0 * d / r) * w_d",
           "dp_dlam = c2 * (d / r) * w_d",
           (PORT_JACOBIAN,)),
    Mutant("port-slope-q", "network.py",
           "dp_dq = -a_q * (c2 * np.sqrt(d) / r * w_d + 2.0 * w_s)",
           "dp_dq = -a_q * (c2 * np.sqrt(d) / r * w_d + w_s)",
           (PORT_JACOBIAN,)),
    Mutant("port-slope-prev-cell", "network.py",
           "w_s = 0.75 * i_last / last - 0.25 * i_prev / prev",
           "w_s = 0.75 * i_last / last - 0.25 * i_last / prev",
           (PORT_JACOBIAN,)),
    Mutant("port-state-mu-m-sign", "network.py",
           "        x[self.mu_m] = -y[:P]\n        x[self.n_z + P:] = y[P:]\n        return x",
           "        x[self.mu_m] = y[:P]\n        x[self.n_z + P:] = y[P:]\n        return x",
           (LADDER,)),
    Mutant("port-stall-drops-best-point", "timeloop.py",
           "        y = exc.x_best\n",
           "        return gsys.initial_guess(inputs0)\n",
           (REDUCED + "test_a_stalled_reduced_solve_hands_on_its_best_point",)),
    Mutant("port-singular-drops-best-point", "timeloop.py",
           "    except (NonconvergenceError, FactorizationError) as exc:\n"
           "        y = exc.x_best\n"
           "    except StateError:\n",
           "    except NonconvergenceError as exc:\n"
           "        y = exc.x_best\n"
           "    except (FactorizationError, StateError):\n",
           (REDUCED + "test_a_singular_reduced_jacobian_hands_on_its_best_point",)),
    Mutant("fc-av-outlet", "compressor.py",
           '(_FC, _AV): Variant("ratio", lambda sp, p: sp * p,',
           '(_FC, _AV): Variant("ratio", lambda sp, p: p,',
           (LAYOUT + "test_fixed_ratio_layout",)),
    Mutant("fc-av-factor", "compressor.py",
           "lambda sp, p, k: sp ** (-1.0 / k),",
           "lambda sp, p, k: sp ** (1.0 / k),",
           (JUMP + "test_constant_velocity_benchmark_value",)),
    Mutant("fc-am-outlet", "compressor.py",
           '(_FC, _AM): Variant("ratio", lambda sp, p: sp * p,',
           '(_FC, _AM): Variant("ratio", lambda sp, p: p,',
           (LAYOUT + "test_fixed_ratio_layout",)),
    Mutant("fc-am-factor", "compressor.py",
           "lambda sp, p, k: 1.0,\n                        lambda sp, p: sp,",
           "lambda sp, p, k: sp ** (-1.0 / k),\n                        lambda sp, p: sp,",
           (JUMP + "test_constant_momentum_is_identity",)),
    Mutant("fp-av-outlet", "compressor.py",
           '(_FP, _AV): Variant("pressure", lambda sp, p: sp,',
           '(_FP, _AV): Variant("pressure", lambda sp, p: p,',
           (LAYOUT + "test_fixed_pressure_layouts",)),
    Mutant("fp-av-factor", "compressor.py",
           "(sp / p) ** (-1.0 / k) if p > 0",
           "(p / sp) ** (-1.0 / k) if p > 0",
           (JUMP + "test_fp_av_needs_current_ratio",)),
    Mutant("fp-am-outlet", "compressor.py",
           '(_FP, _AM): Variant("pressure", lambda sp, p: sp,',
           '(_FP, _AM): Variant("pressure", lambda sp, p: p,',
           (LAYOUT + "test_fixed_pressure_layouts",)),
    Mutant("fp-am-factor", "compressor.py",
           "lambda sp, p, k: 1.0,\n                        None,\n                        None),",
           "lambda sp, p, k: (sp / p) ** (-1.0 / k),\n                        None,\n"
           "                        None),",
           (JUMP + "test_constant_momentum_is_identity",)),
    Mutant("fc-av-outlet-slope", "compressor.py",
           "lambda sp, p, k: sp ** (-1.0 / k),\n                        lambda sp, p: sp,",
           "lambda sp, p, k: sp ** (-1.0 / k),\n                        lambda sp, p: 1.0,",
           (SLOPES + "[fc-av]", PORT_JACOBIAN)),
    Mutant("fc-av-factor-slope", "compressor.py",
           "lambda sp, p: sp,\n                        None),\n    (_FC, _AM)",
           "lambda sp, p: sp,\n                        lambda sp, p, k: sp ** (-1.0 / k) / p),\n"
           "    (_FC, _AM)",
           (SLOPES + "[fc-av]", PORT_JACOBIAN)),
    Mutant("fc-am-outlet-slope", "compressor.py",
           "lambda sp, p, k: 1.0,\n                        lambda sp, p: sp,",
           "lambda sp, p, k: 1.0,\n                        lambda sp, p: 1.0,",
           (SLOPES + "[fc-am]", PORT_JACOBIAN)),
    Mutant("fc-am-factor-slope", "compressor.py",
           "lambda sp, p: sp,\n                        None),\n    (_FP, _AV)",
           "lambda sp, p: sp,\n                        lambda sp, p, k: 1.0 / p),\n    (_FP, _AV)",
           (SLOPES + "[fc-am]", PORT_JACOBIAN)),
    Mutant("fp-av-outlet-slope", "compressor.py",
           "if p > 0 else math.nan,\n                        None,",
           "if p > 0 else math.nan,\n                        lambda sp, p: 1.0,",
           (SLOPES + "[fp-av]", PORT_JACOBIAN)),
    Mutant("fp-av-factor-slope", "compressor.py",
           "(sp / p) ** (-1.0 / k) / (k * p) if p > 0",
           "(sp / p) ** (-1.0 / k) / p if p > 0",
           (SLOPES + "[fp-av]", PORT_JACOBIAN)),
    Mutant("fp-am-outlet-slope", "compressor.py",
           "lambda sp, p, k: 1.0,\n                        None,\n                        None),",
           "lambda sp, p, k: 1.0,\n                        lambda sp, p: 1.0,\n"
           "                        None),",
           (SLOPES + "[fp-am]", PORT_JACOBIAN)),
    Mutant("fp-am-factor-slope", "compressor.py",
           "lambda sp, p, k: 1.0,\n                        None,\n                        None),",
           "lambda sp, p, k: 1.0,\n                        None,\n"
           "                        lambda sp, p, k: 1.0 / p),",
           (SLOPES + "[fp-am]", PORT_JACOBIAN)),
    Mutant("check-state-zero-density", "network.py",
           "~(z[b.rho] > 0.0)",
           "(z[b.rho] < 0.0)",
           (CHECK + "the_first_offending_pipe_and_time",)),
    Mutant("check-state-outlet-pressure", "network.py",
           "np.flatnonzero(~(self._outlet_pressures(z) > 0.0))",
           "np.flatnonzero(self._outlet_pressures(z) > np.inf)",
           (CHECK + "a_pipe_with_a_non_positive_outlet_pressure",)),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Copy the package to `src` with the mutant applied; SystemExit if its text is not there once."""
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / "gasnetsim" / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutant {mutant.name!r}: its old text occurs {text.count(mutant.old)} "
                         f"times in src/gasnetsim/{mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant, src: Path) -> str:
    """'killed', or why the mutant is alive, with its tests run against the copy at `src`."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import gasnetsim; print(gasnetsim.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"the tests import gasnetsim from {where.stdout.strip()}, not the copy")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"alive: its tests ran past {TIMEOUT_S} s"
    if proc.returncode == 1:
        return "killed"
    tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"alive: pytest exited {proc.returncode} ({tail[0]})"


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = sorted(set(argv) - names)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    alive = 0
    with tempfile.TemporaryDirectory() as tmp:
        for m in chosen:
            t0 = time.perf_counter()
            apply(m, Path(tmp) / "src")
            verdict = run(m, Path(tmp) / "src")
            alive += verdict != "killed"
            print(f"{m.name:28s} {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - alive} of {len(chosen)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
