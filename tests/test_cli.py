"""Command-line interface: exit codes, report schemas, determinism."""
import json
import pathlib
import re

import pytest

from flowerflat import cli, dynamics, solve
from flowerflat.cli import (EXIT_INVALID, EXIT_NOT_FLAT, EXIT_NO_SOLUTION,
                            EXIT_OK, build_parser, main)
from flowerflat.dynamics import make_linear_map, orbit_walks, periodic_orbits
from flowerflat.functions import TrigPolynomial
from flowerflat.solve import orbit_oracle


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


COS_CONFIG = {"map": {"type": "linear", "k": 2},
              "function": {"type": "trig", "cos": [1.0]}}


class TestValidate:
    def test_valid_flower(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "flower": {"petals": [[0.25, 0.75]]},
        })
        code, report = _run_json(tmp_path, ["validate", "--config", cfg])
        assert code == EXIT_OK
        assert report["valid"] is True
        assert report["flower"]["p"] == 1
        assert report["flower"]["discontinuities"] == [0.5]
        assert report["map"]["degree"] == 2

    def test_overlapping_petals_invalid(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "flower": {"petals": [[0.1, 0.6], [0.55, 0.9]]},
        })
        code = main(["validate", "--config", cfg])
        assert code == EXIT_INVALID

    def test_bad_map_spec(self, tmp_path):
        cfg = _write_config(tmp_path, {"map": {"type": "rotation"}})
        assert main(["validate", "--config", cfg]) == EXIT_INVALID

    def test_missing_config_file(self, tmp_path):
        assert main(["validate", "--config",
                     str(tmp_path / "absent.json")]) == EXIT_INVALID


class TestNonFiniteInput:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("command", ["scan", "solve"])
    @pytest.mark.parametrize("section, spec, field", [
        ("function", {"type": "trig", "cos": [NAN]}, "function.cos"),
        ("function", {"type": "trig", "cos": [1.0], "sin": [0.0, INF]},
         "function.sin"),
        ("function", {"type": "trig", "cos": [1.0], "const": -INF},
         "function.const"),
        ("function", {"type": "pwl", "breakpoints": [0.2, 0.7],
                      "slopes": [NAN, 1.0]}, "function.slopes"),
        ("function", {"type": "pwl", "breakpoints": [0.2, INF],
                      "slopes": [1.0, -1.0]}, "function.breakpoints"),
        ("function", {"type": "pwl", "breakpoints": [0.2, 0.7],
                      "slopes": [1.0, -1.0], "anchor": NAN},
         "function.anchor"),
        ("map", {"type": "piecewise_affine", "breaks": [0.0, 0.5],
                 "slopes": [2.0, NAN]}, "map.slopes"),
        ("map", {"type": "piecewise_affine", "breaks": [0.0, INF],
                 "slopes": [2.0, 2.0]}, "map.breaks"),
        # branch 1 ends 4.75e-10 short of a whole turn
        ("map", {"type": "piecewise_affine", "breaks": [0.0, 0.5],
                 "slopes": [2.0, 2.0000000019]}, "map spec"),
    ])
    def test_rejected_with_field_name(self, tmp_path, capsys, command,
                                      section, spec, field):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, **{section: spec}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == \
            EXIT_INVALID
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [1e9, 1001, 2.5, 1, INF, "2", True])
    def test_linear_degree_bounded(self, tmp_path, capsys, k):
        cfg = _write_config(tmp_path, {"map": {"type": "linear", "k": k}})
        assert main(["validate", "--config", cfg]) == EXIT_INVALID
        assert "map.k" in capsys.readouterr().err

    def test_orbit_enumeration_bounded(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"map": {"type": "linear", "k": 3},
                                       "max_period": 16})
        assert main(["orbits", "--config", cfg]) == EXIT_INVALID
        assert "cap" in capsys.readouterr().err

    def test_nan_tolerance_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, COS_CONFIG)
        assert main(["solve", "--config", cfg, "--tol", "nan"]) == \
            EXIT_INVALID
        assert "tol must be finite and > 0" in capsys.readouterr().err

    def test_overflowing_coefficients_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "function": {"type": "trig", "cos": [1e308, 1e308]},
        })
        assert main(["scan", "--config", cfg]) == EXIT_INVALID
        assert "Lipschitz" in capsys.readouterr().err


class TestScan:
    def test_csv_output(self, tmp_path):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, grid=64, depth=40))
        out = tmp_path / "scan.csv"
        code = main(["scan", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gamma,phi,error_bound"
        assert len(lines) == 65
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0][0] == 0.0
        # Phi vanishes at the symmetric parameters 1/4 and 3/4
        by_gamma = {g: phi for g, phi, _ in rows}
        assert abs(by_gamma[0.25]) < 1e-12
        assert abs(by_gamma[0.75]) < 1e-12

    def test_gamma_option_rejected(self, tmp_path):
        # --gamma belongs to demo only
        cfg = _write_config(tmp_path, COS_CONFIG)
        with pytest.raises(SystemExit) as info:
            main(["scan", "--config", cfg, "--gamma", "0.3"])
        assert info.value.code == 2

    def test_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, grid=16, depth=30))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--config", cfg, "--out", str(out1)])
        main(["scan", "--config", cfg, "--out", str(out2)])
        assert out1.read_text() == out2.read_text()


class TestFlatten:
    def test_demo_function_flat(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "function": {"type": "demo", "gamma": 0.1},
            "flower": {"petals": [[0.1, 0.6]]},
        })
        code, report = _run_json(tmp_path, ["flatten", "--config", cfg])
        assert code == EXIT_OK
        assert report["flat"] is True
        assert abs(report["constant"]) <= 1e-8
        assert report["max_deviation"] <= 1e-8

    def test_cosine_not_flattenable(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "function": {"type": "trig", "cos": [1.0]},
            "flower": {"petals": [[0.26, 0.76]]},
        })
        code, report = _run_json(tmp_path, ["flatten", "--config", cfg])
        assert code == EXIT_NOT_FLAT
        assert report["flat"] is False

    def test_periodic_left_end_at_depth_30(self, tmp_path):
        # the petal starts at the fixed point 1/2 of T3; the functional is
        # the geometric series sum_n cos(2 pi (1/2 + 3^-(n+1))) + 1
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 3},
            "function": {"type": "trig", "cos": [1.0]},
            "flower": {"petals": [[0.5, 0.8333333333333334]]},
            "depth": 30,
        })
        code, report = _run_json(tmp_path, ["flatten", "--config", cfg])
        assert code == EXIT_NOT_FLAT
        assert report["functionals"] == [pytest.approx(1.7642937972,
                                                       abs=1e-9)]


class TestSolve:
    def test_cosine_solution(self, tmp_path):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, grid=256))
        code, report = _run_json(tmp_path, ["solve", "--config", cfg])
        assert code == EXIT_OK
        assert len(report["zero_intervals"]) == 2
        best = report["best_interval"]
        assert best["sturmian"]["periodic"] == ["0"]
        assert best["sturmian"]["integral"] == pytest.approx(1.0)
        assert report["oracle"]["best_average"] == 1.0
        assert report["oracle"]["best_orbit"] == ["0"]
        assert best["gamma_low"] - 1e-6 <= 0.75 <= best["gamma_high"] + 1e-6

    def test_tol_below_the_ulp_at_the_root(self, tmp_path):
        """No float lies inside a bracket one ulp of 3/4 wide, so it
        closes there, short of tol = 1e-16."""
        cfg = _write_config(tmp_path, dict(COS_CONFIG, grid=64))
        code, report = _run_json(tmp_path, ["solve", "--config", cfg,
                                            "--tol", "1e-16"])
        assert code == EXIT_OK
        assert [zi["gamma_low"] <= 0.75 <= zi["gamma_high"]
                for zi in report["zero_intervals"]] == [False, True]

    @pytest.mark.parametrize("function", [
        {"type": "trig", "cos": [1.0]},
        {"type": "trig", "const": 1.0},
    ])
    def test_report_is_strict_json(self, tmp_path, function):
        def reject(name):
            raise ValueError(f"non-finite number {name} in the report")
        cfg = _write_config(tmp_path, {"map": {"type": "linear", "k": 2},
                                       "function": function, "grid": 64})
        out = tmp_path / "out.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(), parse_constant=reject)
        plateaus = [zi["is_plateau"] for zi in report["zero_intervals"]]
        assert plateaus and all(type(p) is bool for p in plateaus)


class TestRank:
    def test_explicit_flower(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "flower": {"petals": [[0.25, 0.75]]},
        })
        code, report = _run_json(tmp_path, ["rank", "--config", cfg])
        assert code == EXIT_OK
        assert report["rank"] == 2
        assert report["p"] == 1
        assert report["matches"] is True

    def test_random_flower_seeded(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 3},
            "p": 2,
        })
        code, report = _run_json(tmp_path,
                                 ["rank", "--config", cfg, "--seed", "7"])
        assert code == EXIT_OK
        assert report["matches"] is True


    def test_random_flower_not_found(self, tmp_path, capsys):
        # 61 discontinuity points cannot keep the sampler's 0.02 spacing
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 3},
            "p": 61,
        })
        assert main(["rank", "--config", cfg]) == EXIT_INVALID
        assert "61-flower" in capsys.readouterr().err

    def test_flower_too_large_to_sample(self, tmp_path, capsys):
        # rejected before a single point is drawn
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 3},
            "p": 10 ** 7,
        })
        assert main(["rank", "--config", cfg]) == EXIT_INVALID
        assert "10000000-flower" in capsys.readouterr().err

    def test_negative_depth_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 3},
            "p": 2,
        })
        assert main(["rank", "--config", cfg, "--depth", "-1"]) == \
            EXIT_INVALID
        assert "depth must be an integer in [1, 1000]" in \
            capsys.readouterr().err


class TestOrbits:
    def test_exact_orbits_with_averages(self, tmp_path):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, max_period=3))
        code, report = _run_json(tmp_path, ["orbits", "--config", cfg])
        assert code == EXIT_OK
        periods = sorted(o["period"] for o in report["orbits"])
        assert periods == [1, 2, 3, 3]
        assert report["best_average"] == 1.0
        fixed = [o for o in report["orbits"] if o["period"] == 1][0]
        assert fixed["points"] == ["0"]
        assert fixed["average"] == 1.0

    def test_orbits_enumerated_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return orbit_walks(*args)
        monkeypatch.setattr(dynamics, "orbit_walks", counted)
        monkeypatch.setattr(solve, "orbit_walks", counted)
        cfg = _write_config(tmp_path, dict(COS_CONFIG, max_period=6))
        assert main(["orbits", "--config", cfg]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("max_period", [6, 10])
    def test_best_orbit_as_the_oracle_picks_it(self, tmp_path, max_period):
        """The report is byte for byte the one whose best orbit comes from
        ``orbit_oracle``."""
        cfg = _write_config(tmp_path, dict(COS_CONFIG, max_period=max_period))
        out = tmp_path / "out.json"
        assert main(["orbits", "--config", cfg, "--out", str(out)]) == EXIT_OK
        T, f = make_linear_map(2), TrigPolynomial(cos_coeffs=[1.0])
        orbits = [{"period": len(o), "points": [str(p) for p in o],
                   "average": sum(f.eval(float(p)) for p in o) / len(o)}
                  for o in periodic_orbits(T, max_period)]
        alpha, best = orbit_oracle(T, f, max_period)
        want = {"orbits": orbits, "best_average": alpha,
                "best_orbit": [str(p) for p in best]}
        assert out.read_text() == json.dumps(want, indent=2,
                                             sort_keys=True) + "\n"


class TestDemo:
    def test_worked_example(self, tmp_path):
        code, report = _run_json(tmp_path, ["demo", "--gamma", "0.1"])
        assert code == EXIT_OK
        assert report["flat_on_F"] is True
        assert report["value_at_gamma_plus_3_4"] == \
            pytest.approx(0.125, abs=1e-10)
        assert report["formula_value"] == pytest.approx(0.125)
        assert abs(report["oracle_alpha"]) <= 1e-12
        assert report["normal_form_f"] is True
        assert report["normal_form_f_plus_g"] is False

    def test_report_frozen(self, tmp_path):
        code, report = _run_json(tmp_path, ["demo", "--gamma", "0.1"])
        assert code == EXIT_OK
        # structural fields exactly; the rest are rounding noise around
        # their exact values
        noise = {"max_deviation_on_F": 0.0, "oracle_alpha": 0.0,
                 "value_at_gamma_plus_3_4": 0.125, "value_error": 0.0}
        assert {k: v for k, v in report.items() if k not in noise} == {
            "depth": 40,
            "flat_on_F": True,
            "formula_value": 0.125,
            "gamma": 0.1,
            "normal_form_f": True,
            "normal_form_f_plus_g": False,
        }
        assert {k: report[k] for k in noise} == \
            pytest.approx(noise, abs=1e-12)

    def test_second_parameter(self, tmp_path):
        code, report = _run_json(tmp_path, ["demo", "--gamma", "0.05"])
        assert code == EXIT_OK
        assert report["value_at_gamma_plus_3_4"] == \
            pytest.approx(0.25 - 0.05 / 0.9, abs=1e-10)

    def test_gamma_out_of_range(self, tmp_path):
        assert main(["demo", "--gamma", "0.2"]) == EXIT_INVALID
        assert main(["demo", "--gamma", "0.0"]) == EXIT_INVALID

    @pytest.mark.parametrize("bad_call", [0, 1])
    def test_failed_check_exits_not_flat(self, tmp_path, monkeypatch,
                                         bad_call):
        # call 0 samples the flower for the flatness check, call 1 the
        # point of the closed-form check; either failing gives exit 3
        real = cli.flattened_values
        calls = []

        def off(f, cob, points):
            values = real(f, cob, points)
            if len(calls) == bad_call:
                values = values + 1e-6
            calls.append(points)
            return values

        monkeypatch.setattr(cli, "flattened_values", off)
        code, report = _run_json(tmp_path, ["demo", "--gamma", "0.1"])
        assert code == EXIT_NOT_FLAT
        assert len(calls) == 2
        assert report["flat_on_F"] is (bad_call == 1)
        assert (report["value_error"] > 1e-10) is (bad_call == 1)


NAN, INF = float("nan"), float("inf")

#: the options each command registers besides --help
OPTIONS = {
    "validate": {"--config", "--out"},
    "scan": {"--config", "--depth", "--grid", "--out"},
    "flatten": {"--config", "--depth", "--tol", "--out"},
    "solve": {"--config", "--depth", "--grid", "--tol", "--out"},
    "rank": {"--config", "--depth", "--grid", "--seed", "--out"},
    "orbits": {"--config", "--out"},
    "demo": {"--gamma", "--out"},
}
#: the settings that are options; each command registers only those it
#: reads
SETTING_OPTIONS = {"--depth", "--grid", "--tol", "--seed"}
#: the settings each command reads, and the library entry point it calls
#: only once they are checked
SETTINGS = {
    "scan": (("depth", "grid"), "scan"),
    "flatten": (("depth", "tol"), "functional"),
    "solve": (("depth", "grid", "tol", "max_period"), "solve_pre_sturmian"),
    "rank": (("depth", "grid", "seed", "p"), "rank_test"),
    "orbits": (("max_period",), "periodic_orbits"),
}
#: values each setting rejects besides null, true, a string and a list:
#: a fraction for the integers, and one step past each bound
OUT_OF_RULE = {
    "depth": [2.7, 0, 1001],
    "grid": [2.5, 1, 8193],
    "tol": [NAN, INF, 0, -1e-3],
    "seed": [2.5],
    "max_period": [2.5, 0, 17],
    "p": [2.5, 0],
}
#: a config every command in SETTINGS runs on
BASE_CONFIG = {"map": {"type": "linear", "k": 3},
               "function": {"type": "trig", "cos": [1.0]},
               "flower": {"petals": [[0.5, 0.8333333333333334]]}}


def _registered(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {action.option_strings[0] for action in sub._actions
            if action.dest != "help"}


def _rejected(tmp_path, capsys, monkeypatch, command, argv, name):
    """Run argv and check that it exits 2 naming ``name``, writes no
    report and never reaches the command's library entry point."""
    def called(*args, **kwargs):
        raise AssertionError(f"{entry} ran on an invalid setting")
    entry = SETTINGS[command][1]
    monkeypatch.setattr(cli, entry, called)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_INVALID
    assert f"{name} must be" in capsys.readouterr().err
    assert not out.exists()


class TestOptions:
    def test_each_command_registers_only_the_options_it_reads(self):
        assert {command: _registered(command) for command in OPTIONS} == \
            OPTIONS
        assert sum(len(options) for options in OPTIONS.values()) == 24

    @pytest.mark.parametrize("command, option", sorted(
        (command, option) for command, options in OPTIONS.items()
        for option in SETTING_OPTIONS - options))
    def test_unread_option_rejected(self, tmp_path, command, option):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        argv = ([command, "--gamma", "0.1"] if command == "demo"
                else [command, "--config", cfg])
        with pytest.raises(SystemExit) as info:
            main(argv + [option, "3"])
        assert info.value.code == 2


class TestSettings:
    @pytest.mark.parametrize("command, name, value", [
        (command, name, value) for command, (names, _) in SETTINGS.items()
        for name in names
        for value in [None, True, "3", [3]] + OUT_OF_RULE[name]])
    def test_config_value_rejected(self, tmp_path, capsys, monkeypatch,
                                   command, name, value):
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, **{name: value}))
        _rejected(tmp_path, capsys, monkeypatch, command,
                  [command, "--config", cfg], name)

    @pytest.mark.parametrize("command, name, value", [
        (command, name, value) for command, (names, _) in SETTINGS.items()
        for name in names if "--" + name in OPTIONS[command]
        for value in OUT_OF_RULE[name] if type(value) is not float
        or name == "tol"])
    def test_option_value_rejected(self, tmp_path, capsys, monkeypatch,
                                   command, name, value):
        # the option wins over a valid config value and is checked by the
        # same rule; argparse itself rejects a fraction for an int option
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, depth=20, grid=16,
                                           tol=1e-8, seed=1))
        _rejected(tmp_path, capsys, monkeypatch, command,
                  [command, "--config", cfg, "--" + name, str(value)], name)

    def test_integral_float_is_an_integer(self, tmp_path):
        reports = []
        for depth in (40, 40.0):
            cfg = _write_config(tmp_path, dict(COS_CONFIG, grid=16,
                                               depth=depth))
            out = tmp_path / "scan.csv"
            assert main(["scan", "--config", cfg, "--out", str(out)]) == \
                EXIT_OK
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_constant_function_flattens_at_depth_one(self, tmp_path):
        # default_depth chooses N >= 1 also where Lip(f) = 0, the least
        # depth of a coboundary
        cfg = _write_config(tmp_path, {
            "map": {"type": "linear", "k": 2},
            "function": {"type": "trig", "const": 1.0},
            "flower": {"petals": [[0.1, 0.6]]},
        })
        code, report = _run_json(tmp_path, ["flatten", "--config", cfg])
        assert code == EXIT_OK
        assert report["depth"] == 1
        assert report["flat"] is True


class TestDefects:
    """Inputs that ended in a traceback, a non-JSON report or a silent
    misreading before every setting went through one reader."""

    @pytest.mark.parametrize("command, section", [("scan", "function"),
                                                  ("solve", "function"),
                                                  ("flatten", "function"),
                                                  ("flatten", "flower")])
    def test_missing_section(self, tmp_path, capsys, command, section):
        spec = dict(BASE_CONFIG)
        del spec[section]
        cfg = _write_config(tmp_path, spec)
        assert main([command, "--config", cfg]) == EXIT_INVALID
        assert f"'{section}' section" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("scan", "grid")])
    def test_null_setting(self, tmp_path, capsys, command, name):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, **{name: None}))
        assert main([command, "--config", cfg]) == EXIT_INVALID
        assert f"{name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, max_period", [("orbits", 0),
                                                     ("solve", -3)])
    def test_max_period_below_one(self, tmp_path, capsys, command,
                                  max_period):
        cfg = _write_config(tmp_path, dict(COS_CONFIG,
                                           max_period=max_period))
        code, report = _run_json(tmp_path, [command, "--config", cfg])
        assert code == EXIT_INVALID and report is None
        assert "max_period must be" in capsys.readouterr().err

    def test_fractional_depth(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, depth=2.7))
        code, report = _run_json(tmp_path, ["scan", "--config", cfg])
        assert code == EXIT_INVALID and report is None
        assert "depth must be" in capsys.readouterr().err

    def test_infinite_tol(self, tmp_path, capsys):
        # its functional is -3.18, so no finite tol calls it flat
        cfg = _write_config(tmp_path, dict(
            COS_CONFIG, flower={"petals": [[0.1, 0.6]]}))
        code, report = _run_json(tmp_path, ["flatten", "--config", cfg,
                                            "--tol", "inf"])
        assert code == EXIT_INVALID and report is None
        assert "tol must be" in capsys.readouterr().err


class TestSolveOracleFirst:
    @pytest.mark.parametrize("map_spec, message", [
        ({"type": "piecewise_affine", "breaks": [0.0, 0.5, 0.75],
          "slopes": [2.0, 4.0, 4.0]}, "linear map"),
        # sum_{n <= 10} 4^n = 1398100 numerators
        ({"type": "linear", "k": 4}, "cap"),
    ])
    def test_oracle_checked_before_the_scan(self, tmp_path, capsys,
                                            monkeypatch, map_spec, message):
        def called(*args, **kwargs):
            raise AssertionError("the scan ran before the oracle check")
        monkeypatch.setattr(cli, "solve_pre_sturmian", called)
        cfg = _write_config(tmp_path, dict(COS_CONFIG, map=map_spec))
        code, report = _run_json(tmp_path, ["solve", "--config", cfg])
        assert code == EXIT_INVALID and report is None
        assert message in capsys.readouterr().err


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_table(header):
    """The cells of each row of the README table whose first header cell
    is ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(next(line for line in lines
                             if line.startswith(f"| {header} |")))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestReadme:
    """README's command and settings tables list exactly the commands,
    options, settings and rules of the CLI, so a removed setting cannot
    linger there."""

    def test_command_table(self):
        rows = {row[0].strip("`"): row for row in _readme_table("Command")}
        assert set(rows) == set(cli.SETTINGS)
        for command, (_, _, options, keys) in rows.items():
            assert set(options.strip("`").split()) == _registered(command)
            assert set(re.findall(r"`(\w+)` \(", keys)) == set(
                cli.SETTINGS[command])

    def test_settings_table(self):
        names = [name for row in _readme_table("Setting")
                 for name in re.findall(r"`([\w.]+)`", row[0])]
        assert sorted(names) == sorted(cli.RULES)
