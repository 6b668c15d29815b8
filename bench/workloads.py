"""Seeded inputs for the benchmark workloads.

Every workload is a list of cases; a case is one (network JSON, scenario
JSON) pair that the benchmark feeds through the public parse -> assemble ->
simulate -> write path. The program sees only these texts. The same seed
always gives byte-identical texts (``random.Random`` seeded with a string is
stable across Python versions).

Workloads
    day5      the shipped two-pipe line at 32 cells per pipe, dt = 100 s,
              one case per ``--model`` value (none, fc-av, fc-am, fp-av, fp-am)
    day-fine  the same line at 256 cells per pipe, dt = 900 s, models fc-am
              and fp-av (opposite corners of the station table)
    ladder    a looped two-rail ladder, 22 rungs, 96 pipes, 8 stations
              cycling through the four variants, n = 2963 unknowns
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

MODELS = ("none", "fc-av", "fc-am", "fp-av", "fp-am")
VARIANTS = MODELS[1:]

# the shipped day benchmark (data/yamal.net.json, data/day.scn.json)
GAS = {"Rs": 530.0, "T": 276.25, "z": 1.0, "kappa": 1.4}
DAY_LENGTH_KM = 181.5
DAY_DIAMETER_M = 1.422
DAY_FRICTION = 0.0018
DAY_SUPPLY_BAR = 80.0
DAY_RATIO = 1.2
DAY_PRESSURE_BAR = 84.0
DAY_DEMAND_RANGE = (150.0, 300.0)
DAY_T_END = 86400.0
DAY_SEGMENT_S = 3600.0           # a new demand level every hour

LADDER_RUNGS = 22
LADDER_CELLS = 14
LADDER_SECTIONS = (3, 8, 13, 18)  # a station pair on the rail segment after these rungs
LADDER_DIAMETER_M = 0.6
LADDER_SUPPLY_BAR = 70.0
LADDER_RATIO = 1.05
LADDER_STATION_BAR = 72.0
LADDER_DT = 600.0
LADDER_T_END = 36000.0            # 60 steps
LADDER_SEGMENT_S = 7200.0
LADDER_DEMAND_RANGE = (40.0, 50.0)


@dataclass(frozen=True)
class Case:
    """One operation's inputs: what a user would pass to ``gasnetsim run``."""

    label: str
    network: str
    scenario: str


def _dump(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _levels(lo: float, hi: float, n: int, rng: random.Random) -> list[float]:
    """n evenly spaced levels in [lo, hi] in seeded order.

    Every seed uses the same levels, so the seed changes the order of the
    load changes but not how much load there is.
    """
    levels = [round(lo + (hi - lo) * k / (n - 1), 3) for k in range(n)]
    rng.shuffle(levels)
    return levels


def day_schedule(seed: int) -> list[list[float]]:
    """Seeded 24 h sink schedule: a level in the shipped 150-300 range every hour."""
    rng = random.Random(f"day:{seed}")
    n_seg = int(DAY_T_END // DAY_SEGMENT_S)
    levels = _levels(*DAY_DEMAND_RANGE, n_seg, rng)
    return [[i * DAY_SEGMENT_S, v] for i, v in enumerate(levels)]


def day_line(model: str, cells: int, dt: float, schedule) -> Case:
    """The shipped two-pipe line with the station model baked into the file.

    ``none`` replaces the station by one junction, as ``--model none`` does.
    """
    pipe = {"length": DAY_LENGTH_KM, "diameter": DAY_DIAMETER_M,
            "friction": DAY_FRICTION, "cells": cells}
    profiles = {"source": [[0, DAY_SUPPLY_BAR]], "sink": schedule}
    if model == "none":
        nodes = [{"id": "source", "type": "supply"}, {"id": "sink", "type": "demand"},
                 {"id": "station.junction", "type": "junction"}]
        pipes = [dict(id="west", **{"from": "source", "to": "station.junction"}, **pipe),
                 dict(id="east", **{"from": "station.junction", "to": "sink"}, **pipe)]
        comps = []
    else:
        fw, asm = model.split("-")
        nodes = [{"id": "source", "type": "supply"},
                 {"id": "station_in", "type": "junction"},
                 {"id": "station_out", "type": "junction"},
                 {"id": "sink", "type": "demand"}]
        pipes = [dict(id="west", **{"from": "source", "to": "station_in"}, **pipe),
                 dict(id="east", **{"from": "station_out", "to": "sink"}, **pipe)]
        comps = [{"id": "station", "from": "station_in", "to": "station_out",
                  "framework": fw, "assumption": asm,
                  "ratio": DAY_RATIO, "pressure": DAY_PRESSURE_BAR}]
        profiles["station.ratio"] = [[0, DAY_RATIO]]
        profiles["station.pressure"] = [[0, DAY_PRESSURE_BAR]]
    net = {"gas": GAS, "units": {"pressure": "bar", "length": "km", "diameter": "m"},
           "nodes": nodes, "pipes": pipes, "compressors": comps}
    scn = {"t_end": DAY_T_END, "dt": dt, "units": {"pressure": "bar"},
           "profiles": profiles}
    return Case(model, _dump(net), _dump(scn))


def day5_cases(seed: int) -> list[Case]:
    schedule = day_schedule(seed)
    return [day_line(m, 32, 100.0, schedule) for m in MODELS]


def day_fine_cases(seed: int) -> list[Case]:
    schedule = day_schedule(seed)
    return [day_line(m, 256, 900.0, schedule) for m in ("fc-am", "fp-av")]


def ladder_case(seed: int) -> Case:
    """A looped ladder between two rails fed from one supply.

    Rail nodes a_i and b_i feed the demand node d_i of rung i through one pipe
    each, so every rung closes a loop with the rails. The rail segment after
    each rung in LADDER_SECTIONS carries a station on both rails; the two
    stations of a section share a framework (fc or fp), so their outlet
    pressures match, cross flow through the rungs stays small and the flow
    through every station is forward. Stations cycle through the four
    variants in the order of VARIANTS. The seed draws the demand schedule of
    every rung; the layout, pipe lengths and initial demands are the same for
    every seed, so the unknown count and the steady state are too.
    """
    rng = random.Random(f"ladder:{seed}")
    layout = random.Random("ladder-layout")   # the same irregular lengths for every seed
    nodes = [{"id": "S", "type": "supply"}]
    pipes, comps = [], []
    profiles = {"S": [[0, LADDER_SUPPLY_BAR]]}

    def pipe(pid, a, b, length_km):
        pipes.append({"id": pid, "from": a, "to": b, "length": round(length_km, 3),
                      "diameter": LADDER_DIAMETER_M, "friction": DAY_FRICTION,
                      "cells": LADDER_CELLS})

    for i in range(LADDER_RUNGS):
        nodes += [{"id": f"a{i}", "type": "junction"}, {"id": f"b{i}", "type": "junction"},
                  {"id": f"d{i}", "type": "demand"}]
    pipe("feed_a", "S", "a0", layout.uniform(20.0, 30.0))
    pipe("feed_b", "S", "b0", layout.uniform(20.0, 30.0))
    n_seg = int(LADDER_T_END // LADDER_SEGMENT_S)
    steps_per_seg = int(LADDER_SEGMENT_S // LADDER_DT)
    station = 0
    for i in range(LADDER_RUNGS):
        pipe(f"rung_a{i}", f"a{i}", f"d{i}", layout.uniform(4.0, 8.0))
        pipe(f"rung_b{i}", f"b{i}", f"d{i}", layout.uniform(4.0, 8.0))
        # every rung starts at the middle level, so the steady state (and its
        # Newton count) does not depend on the seed; rung i then changes level
        # at its own phase within each segment, so a couple of rungs change at
        # every step and no step is quiet
        offset = LADDER_DT * (1 + i % steps_per_seg)
        times = [offset + k * LADDER_SEGMENT_S for k in range(n_seg)
                 if offset + k * LADDER_SEGMENT_S < LADDER_T_END]
        levels = _levels(*LADDER_DEMAND_RANGE, len(times), rng)
        profiles[f"d{i}"] = [[0.0, sum(LADDER_DEMAND_RANGE) / 2]] + \
            [[t, v] for t, v in zip(times, levels)]
        if i + 1 == LADDER_RUNGS:
            continue
        for rail in "ab":
            length = layout.uniform(12.0, 18.0)
            a, b = f"{rail}{i}", f"{rail}{i + 1}"
            if i not in LADDER_SECTIONS:
                pipe(f"{rail}{i}_{i + 1}", a, b, length)
                continue
            fw, asm = VARIANTS[station % len(VARIANTS)].split("-")
            sid = f"cs{station}"
            station += 1
            nodes += [{"id": f"{sid}_in", "type": "junction"},
                      {"id": f"{sid}_out", "type": "junction"}]
            pipe(f"{rail}{i}_{sid}", a, f"{sid}_in", 0.5 * length)
            pipe(f"{sid}_{rail}{i + 1}", f"{sid}_out", b, 0.5 * length)
            comps.append({"id": sid, "from": f"{sid}_in", "to": f"{sid}_out",
                          "framework": fw, "assumption": asm})
            if fw == "fc":
                profiles[f"{sid}.ratio"] = [[0, LADDER_RATIO]]
            else:
                profiles[f"{sid}.pressure"] = [[0, LADDER_STATION_BAR]]
    net = {"gas": GAS, "units": {"pressure": "bar", "length": "km", "diameter": "m"},
           "nodes": nodes, "pipes": pipes, "compressors": comps}
    scn = {"t_end": LADDER_T_END, "dt": LADDER_DT, "units": {"pressure": "bar"},
           "profiles": profiles}
    return Case("ladder", _dump(net), _dump(scn))


def ladder_cases(seed: int) -> list[Case]:
    return [ladder_case(seed)]


# why each workload was chosen: see README.md and BENCHMARK.json
WORKLOADS = {"day5": day5_cases, "day-fine": day_fine_cases, "ladder": ladder_cases}


def shorten(case: Case, n_steps: int) -> Case:
    """The same case with its horizon cut to n_steps steps (for warm-up and tests)."""
    scn = json.loads(case.scenario)
    scn["t_end"] = n_steps * float(scn["dt"])
    return Case(case.label, case.network, _dump(scn))
