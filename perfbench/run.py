#!/usr/bin/env python3
"""Benchmark for sphero: run one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload nu-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload group-ops --seed fresh --seconds 15 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans go to ``.bench_out/``).  ``--seed fresh``
draws a seed from the operating system and records it, for a check on a seed
that no one looked at while writing a change.  Every time is taken while
``speed.SpeedProbe`` samples the host's speed, and is given in its reference
seconds.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  A line starting with ``context`` before it
records the machine, the sample counts and the probe's mean factor.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up is repeated at least SETUP_MIN times, and up to SETUP_MAX while SETUP_SECONDS last
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 15, 3.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "point_max_s": "s",
         "ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us"}


def timed_setups(workload, seed, out_dir) -> list[float]:
    """Set-up times in reference seconds, each taken in a fresh interpreter by setup_once.py."""
    times = []
    started = perf_counter()
    while len(times) < SETUP_MIN or (perf_counter() - started < SETUP_SECONDS
                                     and len(times) < SETUP_MAX):
        proc = subprocess.run([sys.executable, str(HERE / "setup_once.py"), workload, str(seed),
                               out_dir], capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_pass(ops, clock=perf_counter):
    """Run every operation once; return the pass's start and end, per-op intervals and results.

    Each pass starts from a collected heap, so the cyclic collector runs at the
    same points of every pass instead of wherever the set-up left its counters.
    """
    intervals, results = [], []
    gc.collect()
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            res = op.run()
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            res = exc
        intervals.append((t0, clock()))
        results.append(res)
    return start, clock(), intervals, results


def check_pass(ops, results, reference):
    """Count failures of one pass; ``reference`` holds the first pass's digests."""
    failed = 0
    first = not reference
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception):
            failed += 1
            if first:
                reference.append(None)
            continue
        try:
            ok = op.check(res) if first else True
            digest = op.digest(res)
        except Exception:  # a result the check cannot read is a wrong result
            ok, digest = False, None
        if first:
            reference.append(digest)
        elif digest != reference[i]:
            ok = False
        failed += not ok
    return failed


@dataclass
class Pass:
    wall: float
    times: list[float]
    trace: spans.PassTrace | None = None


@dataclass
class Measurement:
    passes: list[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    reference: list = field(default_factory=list)  # digests of the first pass's results


def pool_digest(reference) -> str:
    """Digest of the first pass's results, in pool order."""
    return hashlib.sha256("\n".join(map(str, reference)).encode()).hexdigest()


def measure(ops, budget, probe, tracer=None) -> Measurement:
    """Passes until the budget is spent: at least one, and another only if half of it fits.

    Times are taken on the probe's work clock and given in reference seconds.
    """
    m = Measurement()
    raw = []
    started = perf_counter()
    while not raw or perf_counter() - started + (raw[-1][1] - raw[-1][0]) / 2 < budget:
        if tracer is not None:
            tracer.reset()
        start, end, intervals, results = run_pass(ops, probe.now)
        raw.append((start, end, intervals,
                    tracer.snapshot(start, end, intervals) if tracer else None))
        m.failed += check_pass(ops, results, m.reference)
        m.attempted += len(ops)
        m.bytes_written = sum(os.path.getsize(p) for op in ops for p in op.outputs
                              if os.path.exists(p))
    for start, end, intervals, trace in raw:
        wall = probe.reference_s(start, end)
        m.passes.append(Pass(wall, [probe.reference_s(a, b) for a, b in intervals],
                             trace.scaled(wall / (end - start)) if trace else None))
    return m


def quantile(values, p):
    """Nearest-rank quantile (p in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(p * len(ordered) + 0.5) - 1))]


def _median_by(key, ops, passes) -> dict[str, float]:
    """Per key, the median over passes of the summed time of the operations with that key."""
    per_pass = []
    for p in passes:
        sums: dict[str, float] = {}
        for i, (op, t) in enumerate(zip(ops, p.times)):
            k = key(i, op)
            sums[k] = sums.get(k, 0.0) + t
        per_pass.append(sums)
    return {k: statistics.median(s[k] for s in per_pass) for k in per_pass[0]}


def end_to_end(ops, passes, setup_s):
    """End-to-end metrics from per-pass times; every time is a median over passes."""
    wall = statistics.median(p.wall for p in passes)
    points = _median_by(lambda i, op: op.point, ops, passes)
    requests = list(_median_by(lambda i, op: op.request or str(i), ops, passes).values())
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "point_max_s": max(points.values()),
        "ops_per_s": len(requests) / wall,
        "op_p50_us": quantile(requests, 0.5) * 1e6,
        "op_p99_us": quantile(requests, 0.99) * 1e6,
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def context(args, seed, samples):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "src_sha256": src_hash.hexdigest(), **samples}


def run_workload(args, seed) -> dict:
    with open(HERE / "pins.json") as fh:
        pins = json.load(fh)
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times = timed_setups(args.workload, seed, out_dir)
        ops = workloads.WORKLOADS[args.workload](workloads.load_modules(), seed, pins, out_dir)
        with speed.SpeedProbe() as probe:
            budget = args.seconds / 2 if args.trace else args.seconds
            untraced = measure(ops, budget, probe)
            traced = None
            if args.trace:
                tracer = spans.Tracer(probe.now)
                tracer.install()
                try:
                    traced = measure(ops, budget, probe, tracer)
                finally:
                    tracer.uninstall()
        setup_s = statistics.median(setup_times)
        attempted, failed = untraced.attempted, untraced.failed
        samples = {"setup_samples": len(setup_times), "passes": len(untraced.passes),
                   "ops_per_pass": len(ops), "op_samples": len(ops) * len(untraced.passes),
                   "probe_samples": len(probe.times), "probe_factor": probe.factor()}
        correct = True
        if traced is None:
            metrics = end_to_end(ops, untraced.passes, setup_s)
        else:
            attempted += traced.attempted
            failed += traced.failed
            untraced_wall = statistics.fmean(p.wall for p in untraced.passes)
            metrics = spans.layer_metrics([p.trace for p in traced.passes], untraced_wall,
                                          traced.bytes_written)
            correct = spans.accounts_for_wall([p.trace for p in traced.passes],
                                              metrics["trace.unaccounted_s"])
            samples["traced_passes"] = len(traced.passes)
            spans.write_spans(OUT / f"trace-{args.workload}-{seed}.json",
                              [p.trace.spans for p in traced.passes])
        if args.workload == "group-ops":
            digest = pool_digest(untraced.reference)
            want = pins["group-ops"].get(str(seed))
            samples["digest"] = digest
            samples["digest_pinned"] = want is not None
            if want is not None and digest != want:
                failed += 1
        samples["fail_ratio"] = failed / attempted
        return {"context": context(args, seed, samples), "correct": correct and failed == 0,
                "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def print_result(res):
    print("context " + json.dumps(res["context"], sort_keys=True))
    units = {}
    for name, value in res["metrics"].items():
        units[name] = UNITS.get(name) or layer_unit(name)
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':<36} {res['context']['fail_ratio']:>16.6f} ratio"
          f"  ({res['failed']} of {res['attempted']})")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in res["metrics"].items()}}))


def run_all(args, seed) -> int:
    """Every workload, one after the other, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{n}": v for n, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", required=True, help='an integer, or "fresh"')
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sphero" / "__init__.py").is_file():
        print(f"perfbench: no sphero sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    seed = int.from_bytes(os.urandom(4), "big") if args.seed == "fresh" else int(args.seed)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, seed)
    print_result(run_workload(args, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
