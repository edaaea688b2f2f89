#!/usr/bin/env python3
"""Run the benchmark in two sets of seeded runs and check that the sets agree.

    python3 perfbench/selfcheck.py

Each set runs every workload of BENCHMARK.json RUNS times, each run on
another seed, counting up from FIRST_SEED.  For every workload and end-to-end
metric it reports, per set, the median and the spread (distance between the
first and third quartile as a share of the median), and then: ``spread_ok``,
the spread is within the metric's bound (not required of setup_s);
``steady``, the spread is below a third of the bound; and ``agree``, the
second set's median differs from the first set's by at most the bound, in
either direction, since both sets run the same code.  Exits 0 when every metric of every workload agrees and every
run was correct.  The full report goes to .bench_out/selfcheck.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS, SETS, FIRST_SEED = 10, 2, 1001


def run_once(bench, workload, seed, trace=0) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    report, all_ok = {}, True
    seed = FIRST_SEED
    values = {w: [{m["name"]: [] for m in bench["end_to_end"]} for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for w in names:
            for _ in range(RUNS):
                res = run_once(bench, w, seed)
                seed += 1
                all_ok = all_ok and res["correct"]
                for name, v in res["metrics"].items():
                    values[w][s][name].append(v["value"])
                print(f"set {s + 1} {w} seed {seed - 1}: correct={res['correct']} "
                      + " ".join(f"{n}={v['value']:.6g}" for n, v in res["metrics"].items()),
                      flush=True)
    print(f"\n{'workload':<10} {'metric':<12} {'bound':>6} " +
          " ".join(f"{'median' + str(s + 1):>13} {'spread' + str(s + 1):>8}" for s in range(SETS))
          + "  verdict")
    for w in names:
        report[w] = {}
        for m in bench["end_to_end"]:
            sets = values[w]
            meds = [statistics.median(v[m["name"]]) for v in sets]
            spreads = [spread(v[m["name"]]) for v in sets]
            spread_ok = m["name"] == "setup_s" or max(spreads) <= m["bound"]
            steady = max(spreads) < m["bound"] / 3
            agree = all(abs(later - meds[0]) / meds[0] <= m["bound"] for later in meds[1:])
            all_ok = all_ok and spread_ok and agree
            report[w][m["name"]] = {"medians": meds, "spreads": spreads, "bound": m["bound"],
                                    "spread_ok": spread_ok, "steady": steady, "agree": agree,
                                    "values": [v[m["name"]] for v in sets]}
            verdict = ("agree" if agree else "DISAGREE") + ("" if spread_ok else " WIDE") + \
                      ("" if steady else " (spread over bound/3)")
            print(f"{w:<10} {m['name']:<12} {m['bound']:>6} " +
                  " ".join(f"{md:>13.6g} {sp:>8.4f}" for md, sp in zip(meds, spreads)) + "  " + verdict)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps(report, indent=1))
    print("\nall agree" if all_ok else "\nNOT all agree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
