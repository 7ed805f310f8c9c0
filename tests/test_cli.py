"""Command-line interface: exit codes, report schemas, determinism."""
import json

import pytest

from flowerflat.cli import (EXIT_INVALID, EXIT_NOT_FLAT, EXIT_NO_SOLUTION,
                            EXIT_OK, main)


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
    ])
    def test_rejected_with_field_name(self, tmp_path, capsys, command,
                                      section, spec, field):
        cfg = _write_config(tmp_path, dict(COS_CONFIG, **{section: spec}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == \
            EXIT_INVALID
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [1e9, 1001, 2.5, 1, INF])
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
        assert "resolution" in capsys.readouterr().err

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
        cfg = _write_config(tmp_path, dict(COS_CONFIG, grid=256,
                                           length=20000))
        code, report = _run_json(tmp_path, ["solve", "--config", cfg])
        assert code == EXIT_OK
        assert len(report["zero_intervals"]) == 2
        best = report["best_interval"]
        assert best["sturmian"]["periodic"] == ["0"]
        assert best["sturmian"]["integral"] == pytest.approx(1.0)
        assert report["oracle"]["best_average"] == 1.0
        assert report["oracle"]["best_orbit"] == ["0"]
        assert best["gamma_low"] - 1e-6 <= 0.75 <= best["gamma_high"] + 1e-6


    @pytest.mark.parametrize("function", [
        {"type": "trig", "cos": [1.0]},
        {"type": "trig", "const": 1.0},
    ])
    def test_report_is_strict_json(self, tmp_path, function):
        def reject(name):
            raise ValueError(f"non-finite number {name} in the report")
        cfg = _write_config(tmp_path, {"map": {"type": "linear", "k": 2},
                                       "function": function, "grid": 64,
                                       "length": 2000})
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
