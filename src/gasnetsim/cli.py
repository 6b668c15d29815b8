"""Command-line interface: validate topologies, solve steady states, run transients.

Exit codes: 0 success, 1 validation/configuration error or a system too
large for memory, 2 solver failure (nonconvergence, a singular Jacobian, a
steady demand that cannot be carried or an inadmissible state), 64 usage
error. A solver failure prints one line,
`solver aborted: <message>`; exit 1 prints one line, `error: <message>`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .errors import (ConfigurationError, FactorizationError, GasnetError,
                     InfeasibleFlowError, NonconvergenceError, StateError)
from .formats import parse_network, parse_scenario, run_report, write_timeseries
from .network import assemble, fuse_compressors, require_valid
from .timeloop import SolverConfig, simulate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER_FAILED = 2
EXIT_USAGE = 64

MODEL_CHOICES = ("none", "fc-av", "fc-am", "fp-av", "fp-am")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gasnetsim",
                     description="Transient gas network simulation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_val = sub.add_parser("validate", help="check a network file")
    p_val.add_argument("network", help="network file (.net.json)")

    def solver_args(p):
        p.add_argument("network", help="network file (.net.json)")
        p.add_argument("scenario", help="scenario file (.scn.json)")
        p.add_argument("--out", type=Path, default=None, help="output CSV path")
        p.add_argument("--cells", type=int, default=None,
                       help="override the cell count of every pipe")
        p.add_argument("--model", choices=MODEL_CHOICES, default=None,
                       help="override the compressor model (none = fuse into a junction)")
        p.add_argument("--tol", type=float, default=None, help="Newton tolerance")

    p_steady = sub.add_parser("steady", help="solve and write the steady state")
    solver_args(p_steady)

    p_run = sub.add_parser("run", help="run the transient simulation")
    solver_args(p_run)
    p_run.add_argument("--dt", type=float, default=None,
                       help="time step in seconds (overrides the scenario)")

    return parser


def _apply_model_override(spec, model, cells):
    """A new spec to solve, per `--model` and `--cells` (None keeps the file's); `spec` stays."""
    if cells is not None:
        spec = replace(spec, pipes=[replace(pe, spec=replace(pe.spec, n_cells=cells))
                                    for pe in spec.pipes])
    if model == "none":
        return fuse_compressors(spec)
    if model is not None:
        fw, asm = model.split("-")
        spec = replace(spec, compressors=[replace(st, framework=fw, assumption=asm)
                                          for st in spec.compressors])
    return spec


def _read_text(path) -> str:
    """A file's UTF-8 text; an unreadable file is a ConfigurationError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {path}: not UTF-8 text "
                                 f"({exc.reason} at byte {exc.start})") from exc


def _solve(args, transient: bool) -> int:
    overrides = {"dt": args.dt} if transient else {"t_end": 0.0}
    if args.tol is not None:
        overrides["newton_abs_tol"] = args.tol
    cfg = SolverConfig(**overrides)     # validates the flags before any file is read

    spec = parse_network(_read_text(args.network))
    # fusing or assembling checks the topology; profile keys are read against
    # the stations as solved, or the file's when fused away, and simulate's
    # bind_inputs checks gsys has every input
    solved = _apply_model_override(spec, args.model, args.cells)
    gsys = assemble(solved)
    scenario = parse_scenario(_read_text(args.scenario), spec if args.model == "none" else solved)

    out = args.out
    if out is None:
        out = Path("run.csv" if transient else "steady.csv")
    # fail before the solve on a path that cannot be written; the write itself
    # still reports what only it can find (permissions, a full disk)
    if out.is_dir():
        raise ConfigurationError(f"cannot write {out}: Is a directory")
    if not out.parent.is_dir():
        raise ConfigurationError(f"cannot write {out}: No such file or directory")

    t0 = time.perf_counter()
    ts = simulate(gsys, scenario, cfg)
    elapsed = time.perf_counter() - t0

    try:
        write_timeseries(ts, out)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out}: {exc.strerror or exc}") from exc
    sys.stderr.write(run_report(ts, elapsed))
    sys.stderr.write(f"wrote {out}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        if args.command == "validate":
            require_valid(parse_network(_read_text(args.network)))
            print("topology valid")
            return EXIT_OK
        if args.command == "steady":
            return _solve(args, transient=False)
        if args.command == "run":
            return _solve(args, transient=True)
    except (NonconvergenceError, StateError, FactorizationError, InfeasibleFlowError) as exc:
        sys.stderr.write(f"solver aborted: {exc}\n")
        return EXIT_SOLVER_FAILED
    except GasnetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {str(exc) or 'an allocation failed'}\n")
        return EXIT_INVALID
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
