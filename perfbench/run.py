"""flowerflat benchmark: one seeded workload, its metrics and its checks.

    python3 perfbench/run.py --workload flatten --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  Workloads: flatten, solve,
staircase_rank (see BENCHMARK.json and perfbench/README.md).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run instead.  Lines above it repeat the metrics in words, with the
failed share, the oracle time and the machine facts.

The parent process only starts and times the workers: two that stop after
set-up, then the one that runs the workload.  ``setup_s`` is the median of
the three set-ups.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("flatten", "solve", "staircase_rank")
SETUP_RUNS = 3
TAIL_BEYOND = 10


def _env() -> dict:
    env = dict(os.environ)
    # one process, no threads: keep BLAS (rank_test's SVD) single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(times):
    """(value, percentile): the highest percentile of ``times`` that has at
    least TAIL_BEYOND items beyond it; the maximum when there are fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops its worker (see _worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "flowerflat",
                                       "__init__.py")):
        sys.stderr.write("no flowerflat sources under src/: run from the "
                         "root of a checkout\n")
        return 2

    setups = [_worker(args, True, 170.0) for _ in range(SETUP_RUNS - 1)]
    res = _worker(args, False, 170.0)
    setups.append(res)

    times, kinds = res["times"], res["kinds"]
    attempted, failed = len(times), res["ok"].count(False)
    tail_s, tail_pct = tail(times)
    e2e = {
        "items_per_s": ((attempted - failed) / sum(times), "items/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    m = res["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("machine: python {python}  numpy {numpy}  nproc {nproc}  "
          "blas_threads {blas_threads}  src_lines {src_lines}".format(**m))
    raw = res["raw_times"]
    for kind in sorted(set(kinds)):
        own = [t for t, k in zip(times, kinds) if k == kind]
        own_raw = [t for t, k in zip(raw, kinds) if k == kind]
        print(f"  {kind}: {len(own)} items, median {statistics.median(own):.6f}"
              f" s scaled, {statistics.median(own_raw):.6f} s wall")
    probes = res["probe_s"]
    print(f"wall time: {sum(raw):.3f} s over {attempted} items, median "
          f"{statistics.median(raw):.6f} s; speed probe median "
          f"{statistics.median(probes):.6f} s, range {min(probes):.6f}-"
          f"{max(probes):.6f} s")
    print(f"failed_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items failed)")
    print(f"oracle_s = {res['oracle_s']:.6f} s (checks, outside the timed "
          f"items; input generation after set-up {res['gen_s']:.6f} s)")
    scaled = ", ".join("%.4f" % s["setup_s"] for s in setups)
    wall = ", ".join("%.4f" % s["setup_wall_s"] for s in setups)
    print(f"item_tail_s is p{tail_pct:.1f} of {attempted} items; setup_s is "
          f"the median of {scaled} s scaled ({wall} s wall)")
    if args.trace:
        layers = res["per_layer"]
        print(f"traced: {res['spans_recorded']} spans written to "
              f"{os.path.relpath(res['spans'], ROOT)}; overhead ratio "
              f"{layers['trace.overhead_ratio']:.3f} over "
              f"{res['overhead_items']} items")
        if res["missing"]:
            print("entry points missing: " + ", ".join(res["missing"]))
        metrics = {name: {"value": value, "unit": spans.UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
