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


def homology_rows(poset) -> list[tuple[int, int, tuple[int, ...]]]:
    """(degree, betti, torsion) of each nonzero reduced homology group of the order complex.

    The complex is reduced through its own dimension, so no degree goes
    uncompared.  Split posets are honest (every arrow adds blocks), so no
    quotient is taken.
    """
    cc = order_complex(poset)
    res = reduced_homology(cc, max(cc.dim, 0))
    return [(d, b, t) for d, (b, t) in enumerate(zip(res.betti, res.torsion)) if b or t]


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
            star = elementary_split_poset(records)
            hf = homology_rows(full)
            match = hf == homology_rows(star)  # degree by degree
            ok = ok and match
            print(f"D={sub:<5} n={n}  objects={len(full.objects):>4} "
                  f"(by block count {dict(sorted(by_k.items()))})  arrows={len(full.arrows):>4}  "
                  f"star={len(star.objects):>4}  homology={hf}  "
                  f"match={'yes' if match else 'NO'}  {time.perf_counter() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
