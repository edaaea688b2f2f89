#!/usr/bin/env python3
"""Sweep the connectivity grid for the decorated disjoint-support complexes.

Prints one row per (q, subgroup, n): the linear connectivity bound, reduced
Betti numbers through the bound, the point's wall time, and the peak resident
memory of the process so far (``resource.getrusage``, read as KiB, as Linux
reports it).  Exits nonzero if any homology group that the bound predicts to
vanish does not.

Example:
    python scripts/nu_grid.py --q 2 --subgroups sym,triv --nmax 11
"""

import argparse
import resource
import sys
import time

from sphero.complexes import build_complex, connectivity_bound
from sphero.groups import Config
from sphero.homology import reduced_homology


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--subgroups", default="sym,triv")
    ap.add_argument("--nmin", type=int, default=2)
    ap.add_argument("--nmax", type=int, default=11)
    args = ap.parse_args()

    ok = True
    print(f"{'D':>6} {'n':>3} {'nu':>3} {'cells':>24} {'betti':>16} {'time':>7} {'peak rss':>9}")
    for sub in args.subgroups.split(","):
        config = Config.make(args.q, 1, sub.strip())
        for n in range(args.nmin, args.nmax + 1):
            t0 = time.perf_counter()
            nu = connectivity_bound(config, n)
            cx = build_complex(config, n)
            if not cx.vertices:
                print(f"{sub:>6} {n:>3} {nu:>3} {'empty':>24}")
                continue
            through = max(nu, 0)
            cc = cx.chain_complex(through + 1)
            res = reduced_homology(cc, through)
            cells = ",".join(str(cc.n_cells(d)) for d in range(cc.dim + 1))
            betti = ",".join(map(str, res.betti))
            good = all(res.betti[i] == 0 and not res.torsion[i] for i in range(nu + 1))
            ok = ok and good
            flag = "" if good else "  <-- FAIL"
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{sub:>6} {n:>3} {nu:>3} {cells:>24} {betti:>16} "
                  f"{time.perf_counter() - t0:>6.1f}s {rss:>6.0f} MB{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
