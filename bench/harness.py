"""Spans around public gasnetsim call sites, recorded from outside the program.

A span is (operation id, name, start, end, parent span). Spans live in
memory (parallel lists) and are written once, when the benchmark ends.

Two levels:
    coarse   the spans the end-to-end metrics need: operation, set-up,
             simulate, steady_state and every step_midpoint call
    detail   coarse plus parse, assemble, write, Newton, residual, coloring,
             snapshot, algebraic solve and the mass-ledger calls

``operation`` runs one scenario through the public path under these spans.
Module attributes of ``gasnetsim.timeloop`` are patched only inside
``patch_timeloop`` and restored on exit; ``GlobalSystem`` methods are patched
on the instance, so untraced systems are never touched.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import Counter, defaultdict

import numpy as np

import gasnetsim as gn
from gasnetsim import timeloop
from gasnetsim.errors import NonconvergenceError

_GSYS_METHODS = ("jac_colors", "snapshot", "algebraic_solve", "total_mass",
                 "net_mass_influx", "steady_residual")


class Spans:
    """Append-only span log with a stack of open spans."""

    def __init__(self):
        self.op: list[int] = []
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.op.append(self.op_id)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def top_name(self) -> str | None:
        return self.name[self._stack[-1]] if self._stack else None

    def count(self, key: str, value: int) -> None:
        self.counts[self.op_id][key] += value

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapped

    # ------------------------------------------------------------------

    def arrays(self):
        """(op, name, duration, self time, parent) as numpy arrays.

        Self time is the duration minus the durations of the direct
        children, which all lie inside the parent's interval.
        """
        op = np.array(self.op, dtype=int)
        name = np.array(self.name, dtype=object)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return op, name, dur, dur - child, parent

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["op", "name", "start_s", "end_s", "parent"])
            t0 = self.start[0] if self.start else 0.0
            for row in zip(self.op, self.name, self.start, self.end, self.parent):
                out.writerow([row[0], row[1], f"{row[2] - t0:.9f}",
                              f"{row[3] - t0:.9f}", row[4]])


def _newton_probe(spans: Spans, newton_solve):
    """Newton span plus iteration, FD-call and line-search counts.

    Every residual call inside a Newton solve is the initial evaluation, one
    of ``width`` finite-difference sweeps per iteration, or a line-search
    trial, so the trials are the remainder.
    """
    def probed(fun, x0, cfg=None, colors=None):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return fun(x)

        prefix = ("timeloop.newton" if spans.top_name() == "timeloop.step"
                  else "timeloop.steady")
        idx = spans.open("timeloop.newton")
        try:
            res = newton_solve(counted, x0, cfg, colors=colors)
        except NonconvergenceError:
            spans.count(prefix + ".failed", 1)
            raise
        finally:
            spans.close(idx)
        width = len(colors[0]) if colors is not None else np.size(x0)
        fd = res.iterations * width
        spans.count(prefix + ".iters", res.iterations)
        spans.count(prefix + ".fd_calls", fd)
        spans.count(prefix + ".ls_calls", calls - 1 - fd)
        return res
    return probed


@contextlib.contextmanager
def patch_timeloop(spans: Spans, detail: bool):
    """Span steady_state and step_midpoint (and newton_solve when detailed)."""
    saved = {n: getattr(timeloop, n) for n in ("steady_state", "step_midpoint",
                                                 "newton_solve")}
    timeloop.steady_state = spans.wrap("timeloop.steady", saved["steady_state"])
    timeloop.step_midpoint = spans.wrap("timeloop.step", saved["step_midpoint"])
    if detail:
        timeloop.newton_solve = _newton_probe(spans, saved["newton_solve"])
    try:
        yield
    finally:
        for n, fn in saved.items():
            setattr(timeloop, n, fn)


def patch_system(spans: Spans, gsys) -> None:
    """Span the public GlobalSystem methods on this instance only."""
    for meth in _GSYS_METHODS:
        name = "network.residual" if meth == "steady_residual" else f"network.{meth}"
        setattr(gsys, meth, spans.wrap(name, getattr(gsys, meth)))
    make = gsys.make_step_residual

    def make_step_residual(*args, **kwargs):
        return spans.wrap("network.residual", make(*args, **kwargs))

    gsys.make_step_residual = make_step_residual


def _no_span(name, fn):
    return fn


def operation(spans: Spans, case, detail: bool, csv_path, cfg=None):
    """One scenario simulation inside an "op" span; returns the records.

    Set-up is parse_network, parse_scenario, assemble and the first
    jac_colors call. ``cfg`` goes to simulate unchanged; SolverConfig(t_end=0)
    gives what the ``steady`` command does.
    """
    call = spans.wrap if detail else _no_span

    def setup_phase():
        spec = call("formats.parse_network", gn.parse_network)(case.network)
        scenario = call("formats.parse_scenario", gn.parse_scenario)(case.scenario, spec)
        gsys = call("network.assemble", gn.assemble)(spec)
        if detail:
            patch_system(spans, gsys)
        return scenario, gsys, gsys.jac_colors()

    def body():
        scenario, gsys, colors = spans.wrap("setup", setup_phase)()
        with patch_timeloop(spans, detail):
            ts = spans.wrap("timeloop.simulate", gn.simulate)(gsys, scenario, cfg)
        call("formats.write", gn.write_timeseries)(ts, csv_path)
        spans.count("network.unknowns", gsys.n)
        spans.count("network.colors", len(colors[0]))
        return ts

    return spans.wrap("op", body)()


def layer_metrics(spans: Spans, ops: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per operation, averaged over the given operations."""
    op, name, dur, self_t, parent = spans.arrays()
    mask = np.isin(op, ops)
    n_ops = len(ops)
    parent_name = np.array([name[p] if p >= 0 else "" for p in parent], dtype=object)

    def total(values, span_name, under=None):
        sel = mask & (name == span_name)
        if under is not None:
            sel &= parent_name == under
        return float(values[sel].sum()) / n_ops

    counts = Counter()
    for o in ops:
        counts.update(spans.counts[o])

    def per_op(key):
        return counts[key] / n_ops

    res_calls = float((mask & (name == "network.residual")).sum()) / n_ops
    residual_s = total(self_t, "network.residual")
    steps = float((mask & (name == "timeloop.step")).sum()) / n_ops
    iters = per_op("timeloop.newton.iters")
    ls_calls = per_op("timeloop.newton.ls_calls")
    record_s = (total(dur, "timeloop.simulate") - total(dur, "timeloop.steady")
                - total(dur, "timeloop.step"))
    return {
        "formats.parse_s": (total(self_t, "formats.parse_network")
                            + total(self_t, "formats.parse_scenario"), "s"),
        "formats.write_s": (total(self_t, "formats.write"), "s"),
        "network.assemble_s": (total(self_t, "network.assemble"), "s"),
        "network.jac_colors_s": (total(self_t, "network.jac_colors"), "s"),
        "network.colors": (per_op("network.colors"), "count"),
        "network.unknowns": (per_op("network.unknowns"), "count"),
        "network.residual.calls": (res_calls, "count"),
        "network.residual_s": (residual_s, "s"),
        "network.residual.us_per_call": (1e6 * residual_s / res_calls, "us"),
        "network.snapshot_s": (total(self_t, "network.snapshot"), "s"),
        "network.algebraic_solve_s": (total(self_t, "network.algebraic_solve"), "s"),
        "network.ledger_s": (total(self_t, "network.total_mass")
                             + total(self_t, "network.net_mass_influx"), "s"),
        "timeloop.steady_s": (total(dur, "timeloop.steady"), "s"),
        "timeloop.steady.iters": (per_op("timeloop.steady.iters"), "count"),
        "timeloop.step.calls": (steps, "count"),
        "timeloop.step_s": (total(dur, "timeloop.step"), "s"),
        "timeloop.newton.iters": (iters, "count"),
        "timeloop.newton.iters_per_step": (iters / steps, "count"),
        "timeloop.newton.self_s": (total(self_t, "timeloop.newton", "timeloop.step"), "s"),
        "timeloop.newton.fd_calls": (per_op("timeloop.newton.fd_calls"), "count"),
        "timeloop.newton.ls_calls": (ls_calls, "count"),
        "timeloop.newton.ls_accept": (iters / max(ls_calls, 1.0), "ratio"),
        "timeloop.newton.failed": (per_op("timeloop.newton.failed")
                                   + per_op("timeloop.steady.failed"), "count"),
        "timeloop.record_s": (record_s, "s"),
    }
