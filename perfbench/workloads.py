"""The three benchmark workloads: seeded inputs, the timed call, the check.

Every item is drawn from its own generator, seeded with (seed, index), so a
seed fixes the whole item sequence however many items a run reaches.  The
item kind (map, petal count, demo or round trip, flower or staircase)
follows a fixed schedule and only the continuous parameters come from the
seed; this keeps the cost mix of a run the same from seed to seed.

The library is reached through its modules (``flatten.functional``, not a
name imported here), so the span recorder in ``spans.py`` sees these calls.
Only entry points that the roadmap keeps are used: no ``threads``, no
``--gamma`` outside ``demo``, no ``functional_dual``/``tau_left``/
``tau_right``, no ``boundary_choice``, no alias wrappers, no private helper.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from flowerflat import cli, dynamics, flatten, flower, functions, solve

import checks

#: petal samples per flatten item, shared out over the petals
FLATTEN_SAMPLES = 1000
#: gamma grid and orbit length of one staircase_rank staircase item
STAIRCASE_GRID = 256
STAIRCASE_BURN_IN = 1000
STAIRCASE_LENGTH = 20000
#: flower items per staircase item in staircase_rank (five schedule cycles)
FLOWERS_PER_STAIRCASE = 70
#: truncation depth of the escape densities checked in staircase_rank
ESCAPE_DEPTH = 15
#: seeded points at which each escape density is checked
ESCAPE_POINTS = 64


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _maps():
    return {"T2": dynamics.make_linear_map(2),
            "T3": dynamics.make_linear_map(3),
            "T4": dynamics.make_linear_map(4),
            "S244": dynamics.map_from_slopes([2, 4, 4])}


@dataclass
class Item:
    index: int
    kind: str
    data: dict = field(default_factory=dict)


class Workload:
    """Base: ``make`` draws an item, ``run`` is the timed call, ``check``
    compares the output with an independent oracle (untimed)."""

    name = ""
    warmup_index = -1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.maps = _maps()

    def kind(self, index: int) -> str:
        raise NotImplementedError

    def make(self, index: int) -> Item:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> bool:
        raise NotImplementedError


# -- flatten ---------------------------------------------------------------

#: (map, p) cycle of the round-trip items; T2 has no even-petal flowers
ROUND_TRIP_SCHEDULE = [("T2", 1), ("T2", 3), ("T3", 1), ("T3", 2), ("T3", 3),
                       ("S244", 1), ("S244", 2), ("S244", 3)]


def _round_trip_function(T, F, rng):
    """f = c + psi o T - psi + h with h vanishing on the flower."""
    while True:
        pts = sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(2, 5)))
        gaps = [(pts[(i + 1) % len(pts)] - pts[i]) % 1.0 or 1.0
                for i in range(len(pts))]
        if min(gaps) > 1e-3:
            break
    PL = functions.PiecewiseLinear
    psi = PL.from_points(pts, [rng.uniform(-1.0, 1.0) for _ in pts])
    hx, hv = [], []
    for petal in F.petals:
        hx.extend((petal.left, petal.right))
        hv.extend((0.0, 0.0))
    lefts = sorted(petal.left for petal in F.petals)
    for r in sorted(petal.right for petal in F.petals):
        nxt = min((l for l in lefts if l > r), default=lefts[0])
        gap = (nxt - r) % 1.0 or 1.0
        hx.append((r + gap / 2.0) % 1.0)
        hv.append(rng.uniform(0.0, 1.0))
    order = sorted(range(len(hx)), key=lambda j: hx[j])
    h = PL.from_points([hx[j] for j in order], [hv[j] for j in order])
    c = rng.uniform(-2.0, 2.0)
    f = (functions.compose_with_map(psi, T).add(psi, sign=-1.0)
         .add(h).shift(c))
    return f, c


class Flatten(Workload):
    """Few flowers, many phi points: the Coboundary path."""

    name = "flatten"
    warmup_index = -2  # a demo item

    def kind(self, index: int) -> str:
        return "demo" if index % 2 == 0 else "round_trip"

    def make(self, index: int) -> Item:
        rng = _rng(self.seed, index)
        if self.kind(index) == "demo":
            gamma = rng.uniform(0.02, 0.16)
            T = self.maps["T2"]
            f = functions.demo_function(gamma)
            F = flower.one_flower(T, gamma)
            depth = flatten.default_depth(f.lipschitz_constant(),
                                          T.expansion_constant, 2.5e-11)
            probe = (gamma + 0.75) % 1.0
            data = {"gamma": gamma}
        else:
            name, p = ROUND_TRIP_SCHEDULE[(index // 2)
                                          % len(ROUND_TRIP_SCHEDULE)]
            T = self.maps[name]
            F = flower.random_flower(T, p, rng)
            f, c = _round_trip_function(T, F, rng)
            # exterior probe: the middle of the gap after the first petal
            first, nxt = F.petals[0], F.petals[1 % F.p]
            gap = (nxt.left - first.right) % 1.0
            probe = (first.right + gap / 2.0) % 1.0
            depth = flatten.default_depth(f.lipschitz_constant(),
                                          T.expansion_constant, 1e-11)
            data = {"c": c, "map": name, "p": p}
        points = flatten.petal_samples(F, FLATTEN_SAMPLES // F.p) + [probe]
        data.update(F=F, f=f, depth=depth, points=points)
        return Item(index, self.kind(index), data)

    def run(self, item: Item):
        d = item.data
        sel = flower.selector(d["F"])
        funcs = [flatten.functional(sel, disc, d["f"], d["depth"])
                 for disc in sel.discontinuities()]
        cob = flatten.build_coboundary(sel, d["f"], d["depth"])
        values = flatten.flattened_values(d["f"], cob, d["points"])
        flat = flatten.is_flat(d["f"], cob, d["F"])
        return funcs, values, flat

    def check(self, item: Item, out) -> bool:
        funcs, values, flat = out
        if item.kind == "demo":
            return checks.demo_ok(item.data["gamma"], values)
        return checks.round_trip_ok(item.data["c"], funcs, values, flat)


# -- solve -----------------------------------------------------------------

#: max_period of the solve report (the CLI default), checked by the oracle
SOLVE_MAX_PERIOD = 10


class Solve(Workload):
    """Many flowers, one functional each: `flowerflat solve` in-process."""

    name = "solve"

    def kind(self, index: int) -> str:
        return "solve"

    def make(self, index: int) -> Item:
        rng = _rng(self.seed, index)
        theta = rng.random()
        amp = rng.uniform(0.02, 0.08)
        phase = rng.random()
        cos = [math.cos(2 * math.pi * theta), amp * math.cos(2 * math.pi * phase)]
        sin = [math.sin(2 * math.pi * theta), amp * math.sin(2 * math.pi * phase)]
        cfg = {"map": {"type": "linear", "k": 2},
               "function": {"type": "trig", "cos": cos, "sin": sin}}
        config = os.path.join(self.workdir, f"solve-{index}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(self.workdir, f"solve-{index}.out.json")
        return Item(index, "solve", {"cos": cos, "sin": sin,
                                     "config": config, "out": out})

    def run(self, item: Item):
        return cli.main(["solve", "--config", item.data["config"],
                         "--out", item.data["out"]])

    def check(self, item: Item, out) -> bool:
        d = item.data
        try:
            ok = checks.solve_ok(out, d["out"], d["cos"], d["sin"],
                                 SOLVE_MAX_PERIOD)
        finally:
            for path in (d["config"], d["out"]):
                if os.path.exists(path):
                    os.remove(path)
        return ok


# -- staircase_rank --------------------------------------------------------

#: (map, p) cycle of the flower items; T2 has no even-petal flowers
FLOWER_SCHEDULE = [("T2", 1), ("T2", 3),
                   ("T3", 1), ("T3", 2), ("T3", 3), ("T3", 4),
                   ("T4", 1), ("T4", 2), ("T4", 3), ("T4", 4),
                   ("S244", 1), ("S244", 2), ("S244", 3), ("S244", 4)]


class StaircaseRank(Workload):
    """Arcs as the output: rank, identity and escape densities of random
    p-flowers, plus one T2 frequency staircase per block."""

    name = "staircase_rank"
    warmup_index = -(FLOWERS_PER_STAIRCASE + 1)  # a staircase item

    def kind(self, index: int) -> str:
        if index % (FLOWERS_PER_STAIRCASE + 1) == 0:
            return "staircase"
        return "flower"

    def make(self, index: int) -> Item:
        rng = _rng(self.seed, index)
        if self.kind(index) == "staircase":
            # a seeded offset below half a cell keeps the grid on one period
            # that starts on the frequency-0 plateau at 3/4
            u = rng.uniform(0.0, 0.5)
            gammas = [(0.75 + (i + u) / STAIRCASE_GRID) % 1.0
                      for i in range(STAIRCASE_GRID)]
            return Item(index, "staircase", {"gammas": gammas})
        block = index // (FLOWERS_PER_STAIRCASE + 1)
        slot = index % (FLOWERS_PER_STAIRCASE + 1) - 1
        name, p = FLOWER_SCHEDULE[(block * FLOWERS_PER_STAIRCASE + slot)
                                  % len(FLOWER_SCHEDULE)]
        F = flower.random_flower(self.maps[name], p, rng)
        points = [rng.random() for _ in range(ESCAPE_POINTS)]
        return Item(index, "flower", {"F": F, "points": points})

    def run(self, item: Item):
        if item.kind == "staircase":
            return solve.branch_one_frequency_scan(
                2, item.data["gammas"], STAIRCASE_BURN_IN, STAIRCASE_LENGTH)
        F = item.data["F"]
        sel = flower.selector(F)
        rank = solve.rank_test(F)
        identity = sel.characteristic_identity()
        escapes = [(disc, flatten.escape_function(sel, disc, ESCAPE_DEPTH))
                   for disc in sel.discontinuities()]
        return rank, identity, escapes

    def check(self, item: Item, out) -> bool:
        if item.kind == "staircase":
            return checks.staircase_ok(out)
        rank, identity, escapes = out
        return checks.flower_ok(item.data["F"], rank, identity, escapes,
                                item.data["points"], ESCAPE_DEPTH)


WORKLOADS = {w.name: w for w in (Flatten, Solve, StaircaseRank)}
