"""Span recorder for the traced run.

The recorder wraps the public entry points of the seven flowerflat modules
from outside the library.  A function is replaced at every place its
object is bound (its home module, every flowerflat module that imported it
by name, and the package), and a method is replaced on its class, so
later refactors that move or re-export a name stay covered.  A name that
no longer exists is skipped and listed in ``missing``.

Each call records a span: name, start, end, parent span and the id of the
item it belongs to.  Spans are kept in memory as flat arrays and written
out when the run ends; self time is a span's duration minus the time of
its child spans.  Counts are recorded at the same boundaries by hooks.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _periodic_points(args, kwargs, result):
    return {"dynamics.periodic_orbits.points": sum(len(o) for o in result)}


def _push_arcs(args, kwargs, result):
    return {"flower.push_once.arcs_in": len(args[1]),
            "flower.push_once.arcs_out": len(result)}


def _coboundary_points(args, kwargs, result):
    return {"flatten.coboundary.points": len(args[1])}


def _roots(args, kwargs, result):
    return {"solve.bisect.roots": sum(not zi.is_plateau for zi in result)}


def _certified(args, kwargs, result):
    return {"solve.cycle.certified": int(result.periodic is not None)}


def _frequency_scan(args, kwargs, result):
    names = ("k", "gammas", "burn_in", "length")
    bound = dict(zip(names, args), **kwargs)
    steps = len(bound["gammas"]) * (bound.get("burn_in", 1000)
                                    + bound.get("length", 100000))
    # computed, not measured: per gamma and step the loop writes five
    # float64 arrays (X / k, the offset, the branch, the new X, the count)
    return {"solve.frequency_scan.gamma_steps": steps,
            "solve.frequency_scan.bytes_computed": 5 * 8 * steps}


def _bytes_out(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"cli.main.bytes_out": os.path.getsize(path)}
    return {}


#: (span name, home module, attribute) of wrapped functions
FUNCTIONS = [
    ("dynamics.periodic_orbits", "flowerflat.dynamics", "periodic_orbits",
     _periodic_points),
    ("flower.one_flower", "flowerflat.flower", "one_flower", None),
    ("flower.selector", "flowerflat.flower", "selector", None),
    ("flatten.functional", "flowerflat.flatten", "functional", None),
    ("flatten.escape_function", "flowerflat.flatten", "escape_function",
     None),
    ("solve.scan", "flowerflat.solve", "scan", None),
    ("solve.solve_pre_sturmian", "flowerflat.solve", "solve_pre_sturmian",
     _roots),
    ("solve.phi_of_gamma", "flowerflat.solve", "phi_of_gamma", None),
    ("solve.sturmian_estimate", "flowerflat.solve", "sturmian_estimate",
     _certified),
    ("solve.orbit_oracle", "flowerflat.solve", "orbit_oracle", None),
    ("solve.rank_test", "flowerflat.solve", "rank_test", None),
    ("solve.frequency_scan", "flowerflat.solve", "branch_one_frequency_scan",
     _frequency_scan),
    ("cli.main", "flowerflat.cli", "main", _bytes_out),
    ("numpy.linalg.svd", "numpy.linalg", "svd", None),
]

#: (span name, home module, class, method) of wrapped methods
METHODS = [
    ("circle.stepfunction", "flowerflat.circle", "StepFunction", "add", None),
    ("circle.stepfunction", "flowerflat.circle", "StepFunction", "equal",
     None),
    ("dynamics.apply", "flowerflat.dynamics", "ExpandingMap", "apply", None),
    ("flower.push_once", "flowerflat.flower", "PreImageSelector",
     "push_once", _push_arcs),
    ("flower.tau", "flowerflat.flower", "PreImageSelector", "tau", None),
    ("flower.characteristic_identity", "flowerflat.flower",
     "PreImageSelector", "characteristic_identity", None),
    ("flatten.coboundary", "flowerflat.flatten", "Coboundary", "eval_many",
     _coboundary_points),
    ("functions.eval", "flowerflat.functions", "PiecewiseLinear", "eval",
     None),
    ("functions.eval", "flowerflat.functions", "TrigPolynomial", "eval",
     None),
]


#: unit of each per-layer metric; counts and times are per traced item
UNITS = {
    "circle.stepfunction.calls": "calls/item",
    "circle.stepfunction.self_s": "s/item",
    "dynamics.apply.calls": "calls/item",
    "dynamics.apply.self_s": "s/item",
    "dynamics.periodic_orbits.self_s": "s/item",
    "dynamics.periodic_orbits.points": "points/item",
    "flower.one_flower.calls": "calls/item",
    "flower.one_flower.self_s": "s/item",
    "flower.selector.calls": "calls/item",
    "flower.selector.self_s": "s/item",
    "flower.push_once.calls": "calls/item",
    "flower.push_once.arcs_in": "arcs/item",
    "flower.push_once.arcs_out": "arcs/item",
    "flower.push_once.self_s": "s/item",
    "flower.tau.calls": "calls/item",
    "flower.tau.self_s": "s/item",
    "flower.characteristic_identity.self_s": "s/item",
    "functions.eval.calls": "calls/item",
    "functions.eval.self_s": "s/item",
    "flatten.functional.calls": "calls/item",
    "flatten.functional.self_s": "s/item",
    "flatten.coboundary.points": "points/item",
    "flatten.coboundary.self_s": "s/item",
    "flatten.coboundary.points_per_s": "points/s",
    "flatten.escape_function.self_s": "s/item",
    "solve.scan.phi_calls": "calls/item",
    "solve.bisect.phi_calls": "calls/item",
    "solve.bisect.steps_per_root": "steps/root",
    "solve.phi_of_gamma.self_s": "s/item",
    "solve.sturmian_estimate.calls": "calls/item",
    "solve.sturmian_estimate.self_s": "s/item",
    "solve.cycle.certified_ratio": "ratio",
    "solve.orbit_oracle.self_s": "s/item",
    "solve.rank_test.self_s": "s/item",
    "solve.rank_test.svd_s": "s/item",
    "solve.frequency_scan.self_s": "s/item",
    "solve.frequency_scan.gamma_steps": "steps/item",
    "solve.frequency_scan.bytes_computed": "B/item",
    "cli.main.self_s": "s/item",
    "cli.main.bytes_out": "B/item",
    "trace.overhead_ratio": "ratio",
    "trace.missing_entry_points": "count",
}


class Recorder:
    """In-memory span store with the wrappers that feed it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counts = defaultdict(float)
        self.missing: list = []
        self.active = False
        self.item_id = -1
        self._stack: list = []
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    rec.counts[key] += value
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point in FUNCTIONS and METHODS that exists."""
        for name, modname, attr, hook in FUNCTIONS:
            try:
                home = importlib.import_module(modname)
            except ImportError:
                home = None
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(name, orig, hook)
            sites = [m for key, m in list(sys.modules.items())
                     if key == "flowerflat" or key.startswith("flowerflat.")]
            for mod in [home] + [m for m in sites if m is not home]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        for name, modname, clsname, meth, hook in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = getattr(cls, "__dict__", {}).get(meth)
            if not callable(orig):
                self.missing.append(f"{modname}.{clsname}.{meth}")
                continue
            self._set(cls, meth, self.wrap(name, orig, hook))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        # views without a copy: call this only once recording has stopped
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.item, dtype=np.int32))

    def save(self, path: str) -> None:
        name, start, end, parent, item = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=name, start=start,
                 end=end, parent=parent, item=item)

    def summary(self, items: int) -> dict:
        """Per-layer metrics, per traced item unless the unit says other."""
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        nid = self._ids

        def calls(span):
            return float(np.count_nonzero(name == nid.get(span, -1)))

        def self_s(span):
            return float(self_time[name == nid.get(span, -1)].sum())

        def total_s(span):
            return float(dur[name == nid.get(span, -1)].sum())

        def calls_under(span, parent_span):
            mask = name == nid.get(span, -1)
            parents = parent[mask]
            parents = parents[parents >= 0]
            return float(np.count_nonzero(
                name[parents] == nid.get(parent_span, -1)))

        def time_under(span, parent_span):
            idx = np.nonzero((name == nid.get(span, -1)) & has_parent)[0]
            under = name[parent[idx]] == nid.get(parent_span, -1)
            return float(dur[idx[under]].sum())

        n = max(items, 1)
        c = self.counts
        bisect_calls = calls_under("solve.phi_of_gamma",
                                   "solve.solve_pre_sturmian")
        roots = c["solve.bisect.roots"]
        estimates = calls("solve.sturmian_estimate")
        cob_total = total_s("flatten.coboundary")
        per_item = {
            "circle.stepfunction.calls": calls("circle.stepfunction"),
            "circle.stepfunction.self_s": self_s("circle.stepfunction"),
            "dynamics.apply.calls": calls("dynamics.apply"),
            "dynamics.apply.self_s": self_s("dynamics.apply"),
            "dynamics.periodic_orbits.self_s":
                self_s("dynamics.periodic_orbits"),
            "dynamics.periodic_orbits.points":
                c["dynamics.periodic_orbits.points"],
            "flower.one_flower.calls": calls("flower.one_flower"),
            "flower.one_flower.self_s": self_s("flower.one_flower"),
            "flower.selector.calls": calls("flower.selector"),
            "flower.selector.self_s": self_s("flower.selector"),
            "flower.push_once.calls": calls("flower.push_once"),
            "flower.push_once.arcs_in": c["flower.push_once.arcs_in"],
            "flower.push_once.arcs_out": c["flower.push_once.arcs_out"],
            "flower.push_once.self_s": self_s("flower.push_once"),
            "flower.tau.calls": calls("flower.tau"),
            "flower.tau.self_s": self_s("flower.tau"),
            "flower.characteristic_identity.self_s":
                self_s("flower.characteristic_identity"),
            "functions.eval.calls": calls("functions.eval"),
            "functions.eval.self_s": self_s("functions.eval"),
            "flatten.functional.calls": calls("flatten.functional"),
            "flatten.functional.self_s": self_s("flatten.functional"),
            "flatten.coboundary.points": c["flatten.coboundary.points"],
            "flatten.coboundary.self_s": self_s("flatten.coboundary"),
            "flatten.escape_function.self_s":
                self_s("flatten.escape_function"),
            "solve.scan.phi_calls": calls_under("solve.phi_of_gamma",
                                                "solve.scan"),
            "solve.bisect.phi_calls": bisect_calls,
            "solve.phi_of_gamma.self_s": self_s("solve.phi_of_gamma"),
            "solve.sturmian_estimate.calls": estimates,
            "solve.sturmian_estimate.self_s":
                self_s("solve.sturmian_estimate"),
            "solve.orbit_oracle.self_s": self_s("solve.orbit_oracle"),
            "solve.rank_test.self_s": self_s("solve.rank_test"),
            "solve.rank_test.svd_s": time_under("numpy.linalg.svd",
                                                "solve.rank_test"),
            "solve.frequency_scan.self_s": self_s("solve.frequency_scan"),
            "solve.frequency_scan.gamma_steps":
                c["solve.frequency_scan.gamma_steps"],
            "solve.frequency_scan.bytes_computed":
                c["solve.frequency_scan.bytes_computed"],
            "cli.main.self_s": self_s("cli.main"),
            "cli.main.bytes_out": c["cli.main.bytes_out"],
        }
        out = {key: value / n for key, value in per_item.items()}
        out["flatten.coboundary.points_per_s"] = (
            c["flatten.coboundary.points"] / cob_total if cob_total else 0.0)
        out["solve.bisect.steps_per_root"] = (
            bisect_calls / roots if roots else 0.0)
        out["solve.cycle.certified_ratio"] = (
            c["solve.cycle.certified"] / estimates if estimates else 0.0)
        out["trace.missing_entry_points"] = float(len(self.missing))
        return out
