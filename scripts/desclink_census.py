#!/usr/bin/env python3
"""Census of splitting-class posets: object counts by level drop, homology,
and the comparison between the full poset and its very elementary subposet.

Example:
    python scripts/desclink_census.py --q 2 --subgroups sym,triv --nmax 4
"""

import argparse
import sys
import time

from sphero.complexes import elementary_split_poset, split_class_poset, split_records
from sphero.groups import Config
from sphero.homology import reduced_homology
from sphero.posets import order_complex


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--subgroups", default="sym,triv")
    ap.add_argument("--nmax", type=int, default=4)
    ap.add_argument("--cap", type=int, default=6)
    args = ap.parse_args()

    ok = True
    for sub in args.subgroups.split(","):
        config = Config.make(args.q, 1, sub.strip())
        for n in range(2, args.nmax + 1):
            t0 = time.perf_counter()
            records = split_records(config, n, cap=args.cap)
            by_k: dict[int, int] = {}
            for r in records:
                by_k[r.k] = by_k.get(r.k, 0) + 1
            full = split_class_poset(records)
            star = elementary_split_poset(full, records)
            # split posets are honest (every arrow adds blocks), so no quotient is taken
            hf = reduced_homology(order_complex(full), 2)
            hs = reduced_homology(order_complex(star), 2)
            match = hf.betti == hs.betti and hf.torsion == hs.torsion
            ok = ok and match
            print(f"D={sub:<5} n={n}  objects={len(full.objects):>4} "
                  f"(by block count {dict(sorted(by_k.items()))})  arrows={len(full.arrows):>4}  "
                  f"star={len(star.objects):>4}  betti={hf.betti}  "
                  f"match={'yes' if match else 'NO'}  {time.perf_counter() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
