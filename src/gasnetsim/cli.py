"""Command-line interface: validate topologies, solve steady states, run transients.

Exit codes: 0 success, 1 validation/configuration error, 2 solver
nonconvergence, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .compressor import Assumption, Framework
from .errors import (ConfigurationError, GasnetError, NonconvergenceError,
                     StateError)
from .formats import (RunReport, parse_network, parse_scenario,
                      write_timeseries)
from .network import assemble, fuse_compressors
from .timeloop import SolverConfig, simulate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NONCONVERGED = 2
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


def _apply_model_override(spec, model_tag):
    if model_tag is None:
        return spec
    if model_tag == "none":
        return fuse_compressors(spec)
    fw, asm = model_tag.split("-")
    for st in spec.compressors:
        st.framework = Framework(fw)
        st.assumption = Assumption(asm)
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
    if args.model != "none":
        spec = _apply_model_override(spec, args.model)
    # bind profiles before fusing so station profiles stay resolvable
    scenario = parse_scenario(_read_text(args.scenario), spec)
    if args.model == "none":
        spec = _apply_model_override(spec, args.model)
    gsys = assemble(spec, n_cells_override=args.cells)

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
    try:
        ts = simulate(gsys, scenario, cfg)
    except NonconvergenceError as exc:
        elapsed = time.perf_counter() - t0
        report = RunReport(status=f"nonconvergence: {exc}", wall_time=elapsed)
        sys.stderr.write(report.summary())
        return EXIT_NONCONVERGED
    elapsed = time.perf_counter() - t0

    try:
        write_timeseries(ts, out)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out}: {exc.strerror or exc}") from exc
    report = RunReport.from_timeseries(ts, elapsed)
    sys.stderr.write(report.summary())
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
            # parse_network raises FormatError on any topology violation
            parse_network(_read_text(args.network))
            print("topology valid")
            return EXIT_OK
        if args.command == "steady":
            return _solve(args, transient=False)
        if args.command == "run":
            return _solve(args, transient=True)
    except StateError as exc:
        sys.stderr.write(f"solver aborted: {exc}\n")
        return EXIT_NONCONVERGED
    except GasnetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
