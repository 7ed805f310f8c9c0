"""Command-line interface: config ingestion and deterministic reports.

Subcommands: validate, scan, flatten, solve, rank, orbits, demo.  The
settings table ``SETTINGS`` lists the settings each command reads, with
their defaults; a command registers an option only for those of its
settings that are options (``OPTIONS``), and ``_load`` reads every
setting from its option or else its config key and checks it by the one
rule ``RULES`` gives its name, before any computation.  ``solve``
reports for each zero interval the exact Sturmian cycle of the flower at
its midpoint, which ``sturmian_estimate`` finds by an exact descent that
walks no orbit, so no setting bounds its cost.  ``orbits`` and the
oracle of ``solve`` average f by ``orbit_averages``.  All numeric
output is emitted with 17 significant digits in a fixed order, so
identical configs produce byte-identical CSV/JSON.  Exit codes: 0 ok,
2 invalid spec, 3 not flattenable (for ``demo``: its flatness or
closed-form check failed), 4 no solution found.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from .circle import Arc, reduce
from .dynamics import (MAX_PERIOD, ExpandingMap, check_periodic_orbits,
                       make_linear_map, periodic_orbits)
from .flatten import (Coboundary, default_depth, flattened_values,
                      functional, is_flat, normal_form_check, petal_samples)
from .flower import (Flower, FlowerError, one_flower, random_flower, selector,
                     validate_flower)
from .functions import (PiecewiseLinear, TrigPolynomial, compose_with_map,
                        demo_function, demo_potential)
from .solve import (NoSignChange, orbit_averages, orbit_oracle, rank_test,
                    scan, solve_pre_sturmian, sturmian_estimate)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_FLAT = 3
EXIT_NO_SOLUTION = 4


#: largest degree k of a linear map spec; building T_k takes O(k) time and
#: memory, so larger k is rejected before anything is allocated
MAX_LINEAR_DEGREE = 1000
#: largest truncation depth N; time grows with grid * depth, memory with
#: the grid and the live entries of the jump ledger
MAX_DEPTH = 1000
#: largest grid of ``scan``, ``solve`` and ``rank``; ``scan`` on T2 with
#: cos at both caps takes 1.8 s and 38 MB peak RSS (Python 3.11, 2 CPUs)
MAX_GRID = 8192

#: the rule of each setting name, the same in every command that reads
#: it, and of the linear map degree: (type, least value, greatest value,
#: the rule in words); the least positive and the greatest finite float
#: bound ``tol``
RULES = {
    "map.k": (int, 2, MAX_LINEAR_DEGREE,
              f"an integer in [2, {MAX_LINEAR_DEGREE}]"),
    "depth": (int, 1, MAX_DEPTH, f"an integer in [1, {MAX_DEPTH}]"),
    "grid": (int, 2, MAX_GRID, f"an integer in [2, {MAX_GRID}]"),
    "tol": (float, math.ulp(0.0), sys.float_info.max, "finite and > 0"),
    "seed": (int, -math.inf, math.inf, "an integer"),
    "max_period": (int, 1, MAX_PERIOD, f"an integer in [1, {MAX_PERIOD}]"),
    "p": (int, 1, math.inf, "an integer >= 1"),
}
#: the settings that are options as well as config keys
OPTIONS = ("depth", "grid", "tol", "seed")
#: the settings each command reads, with their defaults; a depth of None
#: is chosen by ``default_depth`` for the config's function and map
SETTINGS = {
    "validate": {},
    "scan": {"depth": None, "grid": 512},
    "flatten": {"depth": None, "tol": 1e-8},
    "solve": {"depth": None, "grid": 512, "tol": 1e-10, "max_period": 10},
    "rank": {"depth": 15, "grid": 512, "seed": 0, "p": 2},
    "orbits": {"max_period": 10},
    "demo": {},
}


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _finite(spec: dict, key: str, field: str, default=None):
    """spec[key], or the default when one is given, as a float or a list
    of floats; a ConfigError names the field unless all are finite."""
    value = spec[key] if default is None else spec.get(key, default)
    many = isinstance(value, (list, tuple))
    try:
        values = [float(v) for v in value] if many else [float(value)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field} must be numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return values if many else values[0]


def build_map(spec) -> ExpandingMap:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("map spec needs a 'type' field")
    try:
        if spec["type"] == "linear":
            return make_linear_map(_setting("map.k", spec["k"]))
        if spec["type"] == "piecewise_affine":
            return ExpandingMap(tuple(_finite(spec, "breaks", "map.breaks")),
                                tuple(_finite(spec, "slopes", "map.slopes")))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid map spec: {exc}") from exc
    raise ConfigError(f"unknown map type {spec['type']!r}")


def build_function(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("function spec needs a 'type' field")
    try:
        if spec["type"] == "pwl":
            f = PiecewiseLinear(
                _finite(spec, "breakpoints", "function.breakpoints"),
                _finite(spec, "slopes", "function.slopes"),
                _finite(spec, "anchor", "function.anchor", 0.0))
        elif spec["type"] == "trig":
            f = TrigPolynomial(_finite(spec, "cos", "function.cos", ()),
                               _finite(spec, "sin", "function.sin", ()),
                               _finite(spec, "const", "function.const", 0.0))
        elif spec["type"] == "demo":
            f = demo_function(float(spec["gamma"]))
        else:
            raise ConfigError(f"unknown function type {spec['type']!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid function spec: {exc}") from exc
    # finite but huge coefficients would overflow every bound to inf/NaN
    if not math.isfinite(f.lipschitz_constant()):
        raise ConfigError("function coefficients are too large: the "
                          "Lipschitz constant overflows")
    return f


def build_flower(spec, T: ExpandingMap) -> Flower:
    if not isinstance(spec, dict) or "petals" not in spec:
        raise ConfigError("flower spec needs a 'petals' field")
    try:
        petals = [Arc(float(a), float(b)) for a, b in spec["petals"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid flower spec: {exc}") from exc
    return validate_flower(petals, T)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _setting(name: str, value):
    """value as the setting ``name`` takes it; a ConfigError names the
    setting unless value is a number (not a bool) that keeps its rule in
    ``RULES``.  An integer setting takes an integral float as an int."""
    kind, low, high, words = RULES[name]
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) not in (int, kind) or not low <= value <= high:
        raise ConfigError(f"{name} must be {words}, got {value!r}")
    return kind(value)


def _load(args, *required: str):
    """The config of ``args`` as (settings, map, function, flower); the
    function and the flower are None when the config has no such section,
    and a ConfigError names a ``required`` section that is missing.

    The settings are those ``SETTINGS`` lists for ``args.command``, each
    from its option, else its config key, else its default, and checked
    by ``_setting``; a depth left to None is chosen by ``default_depth``
    for the function and the map, and checked too."""
    cfg = load_config(args.config)
    for section in required:
        if section not in cfg:
            raise ConfigError(f"config needs a '{section}' section")
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    f = build_function(cfg["function"]) if "function" in cfg else None
    F = build_flower(cfg["flower"], T) if "flower" in cfg else None
    settings = {}
    for name, value in SETTINGS[args.command].items():
        if getattr(args, name, None) is not None:
            value = getattr(args, name)
        elif name in cfg:
            value = cfg[name]
        elif value is None:
            value = default_depth(f.lipschitz_constant(),
                                  T.expansion_constant, 1e-10)
        settings[name] = _setting(name, value)
    return SimpleNamespace(**settings), T, f, F


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out_path: Optional[str]) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out_path)


def cmd_validate(args) -> int:
    _, T, f, F = _load(args)
    report = {"map": {"degree": T.degree,
                      "expansion_constant": T.expansion_constant,
                      "lipschitz_constant": T.lipschitz_constant,
                      "fixed_point": T.fixed_point}}
    if f is not None:
        report["function"] = {"lipschitz_constant": f.lipschitz_constant()}
    if F is not None:
        report["flower"] = {
            "p": F.p,
            "petals": [[p.left, p.right] for p in F.petals],
            "discontinuities": selector(F).discontinuity_points,
        }
    report["valid"] = True
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    s, T, f, _ = _load(args, "function")
    rows = scan(T, f, s.grid, s.depth)
    lines = ["gamma,phi,error_bound"]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_flatten(args) -> int:
    s, T, f, F = _load(args, "function", "flower")
    sel = selector(F)
    functionals = []
    bounds = []
    flattenable = True
    for disc in sel.discontinuities():
        value, err = functional(sel, disc, f, s.depth)
        functionals.append(value)
        bounds.append(err)
        if abs(value) > err + s.tol:
            flattenable = False
    report = {"functionals": functionals, "error_bounds": bounds,
              "depth": s.depth}
    if not flattenable:
        report["flat"] = False
        report["reason"] = "a flattening functional exceeds its error bound"
        _emit_json(report, args.out)
        return EXIT_NOT_FLAT
    cob = Coboundary(sel, f, s.depth)
    flat, constant, max_dev = is_flat(f, cob, F, tol=s.tol)
    pts = petal_samples(F, 16)
    report.update({
        "flat": bool(flat),
        "constant": constant,
        "max_deviation": max_dev,
        "coboundary_error_bound": cob.error_bound,
        "phi_samples": [[x, v] for x, v in
                        zip(pts, cob.eval_many(pts).tolist())],
    })
    _emit_json(report, args.out)
    return EXIT_OK if flat else EXIT_NOT_FLAT


def cmd_solve(args) -> int:
    s, T, f, _ = _load(args, "function")
    # the orbit oracle runs last, but its map and period are checked first
    check_periodic_orbits(T, s.max_period)
    try:
        intervals = solve_pre_sturmian(T, f, s.depth,
                                       resolution=s.tol, grid_size=s.grid)
    except NoSignChange as exc:
        _emit_json({"zero_intervals": [],
                    "phi_min": exc.phi_min, "phi_max": exc.phi_max,
                    "reason": str(exc)}, args.out)
        return EXIT_NO_SOLUTION
    report = {"zero_intervals": [], "depth": s.depth}
    best = None
    for zi in intervals:
        est = sturmian_estimate(one_flower(T, zi.midpoint), f)
        entry = {
            "gamma_low": zi.gamma_low, "gamma_high": zi.gamma_high,
            "phi_low": zi.phi_low, "phi_high": zi.phi_high,
            "is_plateau": zi.is_plateau,
            "sturmian": {
                "support": [[a.left, a.right] for a in est.support_arcs],
                "integral": est.integral_of_f,
                "coding": est.coding_frequencies,
                "periodic": [str(fr) for fr in est.periodic],
                "period": est.period,
            },
        }
        report["zero_intervals"].append(entry)
        if best is None or est.integral_of_f > best["sturmian"]["integral"]:
            best = entry
    report["best_interval"] = best
    alpha, orbit = orbit_oracle(T, f, s.max_period)
    report["oracle"] = {"best_average": alpha,
                        "best_orbit": [str(p) for p in orbit]}
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    s, T, _, F = _load(args)
    if F is None:
        F = random_flower(T, s.p, random.Random(s.seed))
    rank, p = rank_test(F, N=s.depth, grid=s.grid)
    _emit_json({"rank": rank, "p": p, "expected": p + 1,
                "petals": [[q.left, q.right] for q in F.petals],
                "matches": rank == p + 1}, args.out)
    return EXIT_OK


def cmd_orbits(args) -> int:
    s, T, f, _ = _load(args)
    if f is None:
        report = {"orbits": [
            {"period": len(o), "points": [str(p) for p in o]}
            for o in periodic_orbits(T, s.max_period)]}
    else:
        orbits, averages = orbit_averages(T, f, s.max_period)
        out = [{"period": len(o), "average": v,
                "points": [str(Fraction(y, den)) for y in o.tolist()]}
               for (den, o), v in zip(orbits, averages)]
        # the first orbit with the largest average, as orbit_oracle picks it
        best = int(np.argmax(averages))
        report = {"orbits": out, "best_average": averages[best],
                  "best_orbit": out[best]["points"]}
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_demo(args) -> int:
    """End-to-end reproduction of the worked flattening example.

    Builds the piecewise-linear f with gamma in (0, 1/6), flattens it on
    the 1-flower [gamma, gamma+1/2] of the doubling map, checks the
    closed-form value of (f+g)(gamma+3/4), and reports the normal-form
    status of f and f+g.  Exits EXIT_NOT_FLAT when the flatness or the
    closed-form check fails.
    """
    g = args.gamma
    if not 0.0 < g < 1.0 / 6.0:
        raise ConfigError("gamma must lie in (0, 1/6)")
    T = make_linear_map(2)
    f = demo_function(g)
    F = validate_flower([Arc(g, reduce(g + 0.5))], T)
    sel = selector(F)
    depth = default_depth(f.lipschitz_constant(), T.expansion_constant,
                          2.5e-11)
    cob = Coboundary(sel, f, depth)
    pts = [reduce(g + 0.5 * i / 999) for i in range(1000)]
    vals = flattened_values(f, cob, pts)
    max_dev = float(max(abs(v) for v in vals))
    flat_on_F = max_dev <= 1e-10
    value = float(flattened_values(f, cob, [reduce(g + 0.75)])[0])
    formula = 0.25 - g / (1.0 - 2.0 * g)
    alpha, _ = orbit_oracle(T, f, 8)
    phi = demo_potential(g)
    g_exact = phi.add(compose_with_map(phi, T), sign=-1.0)
    f_plus_g = f.add(g_exact)
    report = {
        "gamma": g,
        "flat_on_F": flat_on_F,
        "max_deviation_on_F": max_dev,
        "value_at_gamma_plus_3_4": value,
        "formula_value": formula,
        "value_error": abs(value - formula),
        "oracle_alpha": alpha,
        "normal_form_f": normal_form_check(f, alpha),
        "normal_form_f_plus_g": normal_form_check(f_plus_g, alpha),
        "depth": depth,
    }
    _emit_json(report, args.out)
    if not flat_on_F or abs(value - formula) > 1e-10:
        return EXIT_NOT_FLAT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowerflat",
        description="Flattening Lipschitz functions on flowers of "
                    "expanding circle maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("validate", cmd_validate), ("scan", cmd_scan),
                       ("flatten", cmd_flatten), ("solve", cmd_solve),
                       ("rank", cmd_rank), ("orbits", cmd_orbits),
                       ("demo", cmd_demo)):
        command = sub.add_parser(name)
        command.set_defaults(func=func)
        if name == "demo":
            command.add_argument("--gamma", type=float, required=True)
        else:
            command.add_argument("--config", required=True,
                                 help="path to a JSON config file")
        for setting in SETTINGS[name]:
            if setting in OPTIONS:
                command.add_argument(f"--{setting}", type=RULES[setting][0])
        command.add_argument("--out", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FlowerError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
