"""One benchmark process: set-up, the timed item loop, and the checks.

Started by ``run.py``; prints one JSON object on its last stdout line.
Set-up is measured from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it started this process) to the first timed item, and covers
the imports, the workload's inputs, the config files and one untimed
warm-up item.  With ``--setup-only`` the process stops there.

Items run until their timed total reaches ``--seconds``.  Each item's
wall time is scaled by a speed probe taken around it (see ``SpeedProbe``),
and the set-up time by the median of three probes taken right after it;
the scaled times are the reported ones and the wall times are printed
next to them.

With ``--trace 1`` the run is split in two halves over the same items: the
first untraced, the second with the span recorder installed.  The ratio of
their item times over the items both reached is the tracing overhead.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
#: seconds between speed probes, and the probe time that item times are
#: scaled to (the probe's time on an unloaded 2 GHz Xeon core)
PROBE_EVERY = 0.5
REFERENCE_PROBE_S = 0.005


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "flowerflat")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def machine_facts() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "src_lines": src_lines()}


def probe_work() -> float:
    """Fixed reference work, a pure-Python float loop and small numpy
    array updates, mixed like the library's own hot loops."""
    total = 0.0
    for i in range(10000):
        total += (i * 0.37) % 1.0
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(50):
        a = (a * 1.7 + 0.1) % 1.0
    return total + float(a[0])


def time_probe() -> float:
    t = time.perf_counter()
    probe_work()
    return time.perf_counter() - t


class SpeedProbe:
    """Times ``probe_work`` between items, at most every PROBE_EVERY s.

    An item's time is scaled by REFERENCE_PROBE_S over the mean of the
    probes just before and just after it, so a stretch in which the shared
    machine runs everything slower cancels out."""

    def __init__(self):
        self.last = -math.inf
        self.latest = None

    def maybe(self, force: bool = False) -> Optional[float]:
        """Probe if due (or forced); return the latest probe time."""
        if force or time.perf_counter() - self.last >= PROBE_EVERY:
            self.latest = time_probe()
            self.last = time.perf_counter()
        return self.latest


def run_items(wl, budget=None, count=None, rec=None) -> dict:
    """Run items 0, 1, ... until their timed total reaches ``budget``
    seconds, or exactly ``count`` items."""
    raw, kinds, ok, before = [], [], [], []
    probe = SpeedProbe()
    oracle_s = gen_s = 0.0
    elapsed = 0.0
    index = 0
    while index < count if count is not None else elapsed < budget:
        t = time.perf_counter()
        item = wl.make(index)
        gen_s += time.perf_counter() - t
        before.append(probe.maybe())
        if rec is not None:
            rec.item_id, rec.active = index, True
        t = time.perf_counter()
        try:
            out = wl.run(item)
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        dt = time.perf_counter() - t
        if rec is not None:
            rec.item_id, rec.active = -1, False
        t = time.perf_counter()
        try:
            passed = not raised and bool(wl.check(item, out))
        except Exception:
            traceback.print_exc()
            passed = False
        oracle_s += time.perf_counter() - t
        if not passed:
            sys.stderr.write(f"item {index} ({item.kind}) failed its check\n")
        raw.append(dt)
        kinds.append(item.kind)
        ok.append(passed)
        elapsed += dt
        index += 1
    after = before[1:] + [probe.maybe(force=True)]
    times = [t * REFERENCE_PROBE_S * 2.0 / (p + q)
             for t, p, q in zip(raw, before, after)]
    return {"times": times, "raw_times": raw, "probe_s": before,
            "kinds": kinds, "ok": ok, "oracle_s": oracle_s, "gen_s": gen_s}


def traced_run(wl, seconds: float) -> dict:
    """The items untraced, then again traced, half the run each; the
    per-layer metrics come from the traced half."""
    import spans
    plain = run_items(wl, budget=seconds / 2.0)
    rec = spans.Recorder()
    rec.install()
    try:
        traced = run_items(wl, budget=seconds / 2.0, rec=rec)
    finally:
        rec.uninstall()
    common = min(len(plain["times"]), len(traced["times"]))
    layers = rec.summary(len(traced["times"]))
    layers["trace.overhead_ratio"] = (sum(traced["times"][:common])
                                      / sum(plain["times"][:common]))
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{wl.name}-{wl.seed}.npz")
    rec.save(path)
    return {"per_layer": layers, "missing": rec.missing, "spans": path,
            "spans_recorded": len(rec.start), "overhead_items": common,
            **{key: plain[key] + traced[key]
               for key in ("times", "raw_times", "probe_s", "kinds", "ok",
                           "oracle_s", "gen_s")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = wl.make(wl.warmup_index)
        out = wl.run(warm)
        if not wl.check(warm, out):
            sys.stderr.write("warm-up item failed its check\n")
            return 1
        setup_wall_s = time.monotonic() - args.spawned_at
        speed = statistics.median(time_probe() for _ in range(3))
        result = {"setup_s": setup_wall_s * REFERENCE_PROBE_S / speed,
                  "setup_wall_s": setup_wall_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if args.trace:
            result.update(traced_run(wl, args.seconds))
        else:
            result.update(run_items(wl, budget=args.seconds))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["machine"] = machine_facts()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
