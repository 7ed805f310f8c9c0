"""Self-test of the benchmark: a wrong answer must make failed_share > 0.

    python3 -m pytest -q perfbench/test_selfcheck.py

Each fault is injected by replacing one library entry point for the
duration of a test; the item then goes through the worker's own loop.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from flowerflat import cli, flatten, solve  # noqa: E402

SEED = 7
# cheap items of each kind: a T3 1-flower round trip, the first staircase,
# the first flower (T2, p = 1), and a solve item
ROUND_TRIP = 5
STAIRCASE = 0
FLOWER = 1
SOLVE = 0


def failed_share(cls, index, tmp_path):
    """Run the single item ``index`` of workload ``cls`` through the
    worker loop and return its failed share."""
    class One(cls):
        def make(self, i):
            return super().make(index + i)

    res = worker.run_items(One(SEED, str(tmp_path)), count=1)
    return res["ok"].count(False) / len(res["ok"])


@pytest.mark.parametrize("cls,index", [
    (workloads.Flatten, ROUND_TRIP), (workloads.StaircaseRank, STAIRCASE),
    (workloads.StaircaseRank, FLOWER), (workloads.Solve, SOLVE)])
def test_correct_items_pass(cls, index, tmp_path):
    assert failed_share(cls, index, tmp_path) == 0.0


def test_perturbed_constant_fails(monkeypatch, tmp_path):
    real = flatten.is_flat

    def off(*args, **kwargs):
        flat, constant, dev = real(*args, **kwargs)
        return flat, constant + 1e-6, dev

    monkeypatch.setattr(flatten, "is_flat", off)
    assert failed_share(workloads.Flatten, ROUND_TRIP, tmp_path) > 0.0


def test_wrong_rank_fails(monkeypatch, tmp_path):
    real = solve.rank_test

    def off(*args, **kwargs):
        rank, p = real(*args, **kwargs)
        return rank + 1, p

    monkeypatch.setattr(solve, "rank_test", off)
    assert failed_share(workloads.StaircaseRank, FLOWER, tmp_path) > 0.0


def test_non_monotone_staircase_fails(monkeypatch, tmp_path):
    real = solve.branch_one_frequency_scan

    def off(*args, **kwargs):
        freqs = np.array(real(*args, **kwargs))
        mid = len(freqs) // 2
        freqs[mid], freqs[mid + 40] = freqs[mid + 40], freqs[mid]
        return freqs

    monkeypatch.setattr(solve, "branch_one_frequency_scan", off)
    assert failed_share(workloads.StaircaseRank, STAIRCASE, tmp_path) > 0.0


def test_non_zero_exit_fails(monkeypatch, tmp_path):
    real = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: real(argv) or 1)
    assert failed_share(workloads.Solve, SOLVE, tmp_path) > 0.0


def test_exception_fails(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(solve, "rank_test", boom)
    assert failed_share(workloads.StaircaseRank, FLOWER, tmp_path) > 0.0


def test_recorder_patches_every_binding_and_skips_missing(monkeypatch):
    from flowerflat import flatten as ff_flatten
    from flowerflat import solve as ff_solve
    original = ff_flatten.functional
    monkeypatch.setattr(spans, "FUNCTIONS", spans.FUNCTIONS + [
        ("gone.name", "flowerflat.flatten", "no_such_function", None)])
    monkeypatch.setattr(spans, "METHODS", spans.METHODS + [
        ("gone.method", "flowerflat.flower", "PreImageSelector", "no_such",
         None)])
    rec = spans.Recorder()
    rec.install()
    try:
        assert ff_flatten.functional is not original
        assert ff_solve.functional is ff_flatten.functional
        assert cli.functional is ff_flatten.functional
    finally:
        rec.uninstall()
    assert ff_flatten.functional is original
    assert ff_solve.functional is original
    assert rec.missing == ["flowerflat.flatten.no_such_function",
                           "flowerflat.flower.PreImageSelector.no_such"]


def test_self_time_excludes_children():
    rec = spans.Recorder()
    outer, inner = rec.name_id("solve.rank_test"), rec.name_id(
        "numpy.linalg.svd")
    rec.active = True
    a = rec.open(outer)
    b = rec.open(inner)
    rec.close(b)
    rec.close(a)
    rec.start[a], rec.end[a] = 0.0, 3.0
    rec.start[b], rec.end[b] = 1.0, 2.0
    out = rec.summary(items=1)
    assert out["solve.rank_test.self_s"] == pytest.approx(2.0)
    assert out["solve.rank_test.svd_s"] == pytest.approx(1.0)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
