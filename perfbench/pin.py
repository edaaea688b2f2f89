#!/usr/bin/env python3
"""Write perfbench/pins.json: the answers the benchmark checks every run against.

    python3 perfbench/pin.py

It runs each workload once on the current sources and records the nu-grid
cell counts and homology, the SHA-256 of every torsion and desclink output
file, and the group-ops result digest for seeds 0..GROUP_SEEDS-1 (group-ops
results on other seeds are checked by the group laws alone).  Re-pin only when the
benchmark's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads

GROUP_SEEDS = 64


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = workloads.load_modules()
    pins = {"nu-grid": {}, "torsion": {}, "desclink": {}, "group-ops": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as out_dir:
        for op in workloads.setup_nu_grid(mods, 0, pins, out_dir):
            pins["nu-grid"][op.point] = op.run()
        for name in ("torsion", "desclink"):
            for op in workloads.WORKLOADS[name](mods, 0, pins, out_dir):
                if op.run() != 0:
                    raise SystemExit(f"{name} {op.point} failed")
                for path in op.outputs:
                    pins[name][os.path.basename(path)] = workloads.sha256_file(path)
    for seed in range(GROUP_SEEDS):
        ops = workloads.setup_group_ops(mods, seed, pins, None)
        reference = []
        *_, results = run.run_pass(ops)
        if run.check_pass(ops, results, reference):
            raise SystemExit(f"group-ops seed {seed}: a group law check failed")
        pins["group-ops"][str(seed)] = run.pool_digest(reference)
    with open(run.HERE / "pins.json", "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
