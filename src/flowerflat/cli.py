"""Command-line interface: config ingestion and deterministic reports.

Subcommands: validate, scan, flatten, solve, rank, orbits, demo.  All
numeric output is emitted with 17 significant digits in a fixed order, so
identical configs produce byte-identical CSV/JSON.  Exit codes: 0 ok,
2 invalid spec, 3 not flattenable, 4 no solution found.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import List, Optional

from .circle import Arc, reduce
from .dynamics import ExpandingMap, make_linear_map
from .flatten import (build_coboundary, default_depth, flattened_values,
                      functional, is_flat, normal_form_check, petal_samples)
from .flower import (Flower, FlowerError, random_flower, selector,
                     validate_flower)
from .functions import (PiecewiseLinear, TrigPolynomial, compose_with_map,
                        demo_function, demo_potential)
from .solve import (NoSignChange, OneFlowerFamily, orbit_oracle, rank_test,
                    scan, solve_pre_sturmian, sturmian_estimate)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_FLAT = 3
EXIT_NO_SOLUTION = 4


#: largest degree k of a linear map spec; building T_k takes O(k) time and
#: memory, so larger k is rejected before anything is allocated
MAX_LINEAR_DEGREE = 1000


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
            k = _finite(spec, "k", "map.k")
            if k != int(k) or not 2 <= k <= MAX_LINEAR_DEGREE:
                raise ConfigError("map.k must be an integer in [2, "
                                  f"{MAX_LINEAR_DEGREE}], got {spec['k']!r}")
            return make_linear_map(int(k))
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


def _knob(cfg: dict, args, name: str, default):
    val = getattr(args, name, None)
    if val is None:
        val = cfg.get(name, default)
    return val


def _pick_depth(cfg, args, f, T: ExpandingMap) -> int:
    depth = _knob(cfg, args, "depth", None)
    if depth is not None:
        depth = int(depth)
        if depth < 1:
            raise ConfigError("depth must be >= 1")
        return depth
    return default_depth(f.lipschitz_constant(), T.expansion_constant, 1e-10)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out_path: Optional[str]) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out_path)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    report = {}
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    report["map"] = {"degree": T.degree,
                     "expansion_constant": T.expansion_constant,
                     "lipschitz_constant": T.lipschitz_constant,
                     "fixed_point": T.fixed_point}
    if "function" in cfg:
        f = build_function(cfg["function"])
        report["function"] = {"lipschitz_constant": f.lipschitz_constant()}
    if "flower" in cfg:
        F = build_flower(cfg["flower"], T)
        report["flower"] = {
            "p": F.p,
            "petals": [[p.left, p.right] for p in F.petals],
            "discontinuities": selector(F).discontinuity_points,
        }
    report["valid"] = True
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    f = build_function(cfg["function"])
    grid = int(_knob(cfg, args, "grid", 512))
    depth = _pick_depth(cfg, args, f, T)
    rows = scan(OneFlowerFamily(T), f, grid, depth)
    lines = ["gamma,phi,error_bound"]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_flatten(args) -> int:
    cfg = load_config(args.config)
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    f = build_function(cfg["function"])
    F = build_flower(cfg["flower"], T)
    depth = _pick_depth(cfg, args, f, T)
    tol = float(_knob(cfg, args, "tol", 1e-8))
    sel = selector(F)
    functionals = []
    bounds = []
    flattenable = True
    for disc in sel.discontinuities():
        value, err = functional(sel, disc, f, depth)
        functionals.append(value)
        bounds.append(err)
        if abs(value) > err + tol:
            flattenable = False
    report = {"functionals": functionals, "error_bounds": bounds,
              "depth": depth}
    if not flattenable:
        report["flat"] = False
        report["reason"] = "a flattening functional exceeds its error bound"
        _emit_json(report, args.out)
        return EXIT_NOT_FLAT
    cob = build_coboundary(sel, f, depth)
    flat, constant, max_dev = is_flat(f, cob, F, tol=tol)
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
    cfg = load_config(args.config)
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    f = build_function(cfg["function"])
    grid = int(_knob(cfg, args, "grid", 512))
    depth = _pick_depth(cfg, args, f, T)
    tol = float(_knob(cfg, args, "tol", 1e-10))
    burn_in = int(cfg.get("burn_in", 1000))
    length = int(cfg.get("length", 100000))
    max_period = int(cfg.get("max_period", 10))
    family = OneFlowerFamily(T)
    try:
        intervals = solve_pre_sturmian(family, f, depth, resolution=tol,
                                       grid_size=grid)
    except NoSignChange as exc:
        _emit_json({"zero_intervals": [],
                    "phi_min": exc.phi_min, "phi_max": exc.phi_max,
                    "reason": str(exc)}, args.out)
        return EXIT_NO_SOLUTION
    report = {"zero_intervals": [], "depth": depth}
    best = None
    for zi in intervals:
        est = sturmian_estimate(family.flower(zi.midpoint), f,
                                burn_in=burn_in, length=length)
        entry = {
            "gamma_low": zi.gamma_low, "gamma_high": zi.gamma_high,
            "phi_low": zi.phi_low, "phi_high": zi.phi_high,
            "is_plateau": zi.is_plateau,
            "sturmian": {
                "support": [[a.left, a.right] for a in est.support_arcs],
                "integral": est.integral_of_f,
                "coding": est.coding_frequencies,
                "periodic": ([str(fr) for fr in est.periodic]
                             if est.periodic else None),
                "period": est.period,
            },
        }
        report["zero_intervals"].append(entry)
        if best is None or est.integral_of_f > best["sturmian"]["integral"]:
            best = entry
    report["best_interval"] = best
    alpha, orbit = orbit_oracle(T, f, max_period)
    report["oracle"] = {"best_average": alpha,
                        "best_orbit": [str(p) for p in orbit]}
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    cfg = load_config(args.config)
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    if "flower" in cfg:
        F = build_flower(cfg["flower"], T)
    else:
        p = int(cfg.get("p", 2))
        rng = random.Random(int(_knob(cfg, args, "seed", 0)))
        F = random_flower(T, p, rng)
    depth = int(_knob(cfg, args, "depth", 15))
    grid = int(_knob(cfg, args, "grid", 512))
    rank, p = rank_test(F, N=depth, grid=grid)
    _emit_json({"rank": rank, "p": p, "expected": p + 1,
                "petals": [[q.left, q.right] for q in F.petals],
                "matches": rank == p + 1}, args.out)
    return EXIT_OK


def cmd_orbits(args) -> int:
    cfg = load_config(args.config)
    T = build_map(cfg.get("map", {"type": "linear", "k": 2}))
    f = build_function(cfg["function"]) if "function" in cfg else None
    max_period = int(cfg.get("max_period", 10))
    from .dynamics import periodic_orbits
    out = []
    for orbit in periodic_orbits(T, max_period):
        entry = {"period": len(orbit), "points": [str(p) for p in orbit]}
        if f is not None:
            entry["average"] = sum(f.eval(float(p))
                                   for p in orbit) / len(orbit)
        out.append(entry)
    report = {"orbits": out}
    if f is not None:
        alpha, orbit = orbit_oracle(T, f, max_period)
        report["best_average"] = alpha
        report["best_orbit"] = [str(p) for p in orbit]
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_demo(args) -> int:
    """End-to-end reproduction of the worked flattening example.

    Builds the piecewise-linear f with gamma in (0, 1/6), flattens it on
    the 1-flower [gamma, gamma+1/2] of the doubling map, checks the
    closed-form value of (f+g)(gamma+3/4), and reports the normal-form
    status of f and f+g.
    """
    g = args.gamma
    if g is None:
        raise ConfigError("demo needs --gamma")
    if not 0.0 < g < 1.0 / 6.0:
        raise ConfigError("gamma must lie in (0, 1/6)")
    T = make_linear_map(2)
    f = demo_function(g)
    F = validate_flower([Arc(g, reduce(g + 0.5))], T)
    sel = selector(F)
    depth = default_depth(f.lipschitz_constant(), T.expansion_constant,
                          2.5e-11)
    cob = build_coboundary(sel, f, depth)
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
        return 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowerflat",
        description="Flattening Lipschitz functions on flowers of "
                    "expanding circle maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True,
                           help="path to a JSON config file")
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        return p

    common(sub.add_parser("validate")).set_defaults(func=cmd_validate)
    common(sub.add_parser("scan")).set_defaults(func=cmd_scan)
    common(sub.add_parser("flatten")).set_defaults(func=cmd_flatten)
    common(sub.add_parser("solve")).set_defaults(func=cmd_solve)
    common(sub.add_parser("rank")).set_defaults(func=cmd_rank)
    common(sub.add_parser("orbits")).set_defaults(func=cmd_orbits)
    demo = common(sub.add_parser("demo"), config_required=False)
    demo.add_argument("--gamma", type=float, default=None)
    demo.set_defaults(func=cmd_demo)
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
