"""Byte-for-byte goldens of `sphero group`, `trade`, `build-cn`, `verify-nu` and `desclink`.

The inputs under tests/golden/inputs are seeded elements for q in {2, 3},
D in {sym, triv}, r in {1, 2}, a vertex-type pair from 3 summands onto 1,
and one filtration schedule; `build-cn`, `verify-nu` and `desclink` read no
input file.
tests/golden/outputs holds what each command in CASES wrote, one file per
output flag of the case (`build-cn` also writes its boundary matrices).
`python tests/golden_cases.py` rewrites both; run it only when an output is
meant to change.
"""

from __future__ import annotations

import json
import os
import sys
from random import Random

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")
OUTPUTS = os.path.join(GOLDEN, "outputs")

CONFIGS = [(q, d, r) for q in (2, 3) for d in ("sym", "triv") for r in (1, 2)]
VERTEX = "q2-sym-n3"  # local similarity 3 summands -> 1, q=2, D=sym

SCHEDULE = {
    "labels": ["H", "K"],
    "stages": [
        {"cells": [[0, "H", 2], [0, "K", 1]], "connectivity": -1},
        {"cells": [[0, "H", 1], [1, "K", 2]], "connectivity": 0},
        {"cells": [[1, "H", 1], [2, "K", 1]], "connectivity": 1},
        {"cells": [[0, "K", 1], [1, "H", 2]], "connectivity": 1},
        {"cells": [[2, "H", 1], [3, "K", 1]], "connectivity": 2},
        {"cells": [[1, "H", 1], [0, "K", 2]]},
    ],
}


def _inp(name: str) -> str:
    return os.path.join(INPUTS, name + ".json")


Outputs = tuple[tuple[str, str], ...]  # (output flag, golden file name)


def _json_out(name: str) -> Outputs:
    return (("--out", name + ".json"),)


def _cases() -> list[tuple[str, list[str], Outputs]]:
    """(case name, sphero argv without output flags, outputs) for every golden."""
    cases = []
    for q, d, r in CONFIGS:
        key = f"q{q}-{d}-r{r}"
        a, b, raw, conj = (_inp(f"{key}-{x}") for x in ("a", "b", "raw", "conj"))
        cases += [
            (f"{key}-compose-ab", ["group", "compose", "--lhs", a, "--rhs", b]),
            (f"{key}-compose-ba", ["group", "compose", "--lhs", b, "--rhs", a]),
            (f"{key}-inverse-a", ["group", "inverse", "--input", a]),
            (f"{key}-canon-raw", ["group", "canon", "--input", raw]),
            (f"{key}-stab-a-b", ["group", "stab", "--gamma", a, "--phi", b]),
            (f"{key}-stab-conj-b", ["group", "stab", "--gamma", conj, "--phi", b]),
            (f"{key}-subnormal-a", ["group", "subnormal", "--phi", a, "--k", "2"]),
        ]
    v, vraw, gamma = _inp(VERTEX), _inp(VERTEX + "-raw"), _inp("q2-sym-r1-a")
    cases += [
        (f"{VERTEX}-compose", ["group", "compose", "--lhs", gamma, "--rhs", v]),
        (f"{VERTEX}-inverse", ["group", "inverse", "--input", v]),
        (f"{VERTEX}-canon-raw", ["group", "canon", "--input", vraw]),
        (f"{VERTEX}-stab", ["group", "stab", "--gamma", gamma, "--phi", v]),
        (f"{VERTEX}-subnormal", ["group", "subnormal", "--phi", v, "--k", "2"]),
        ("trade", ["trade", "--schedule", _inp("schedule"), "--prefix", "4"]),
    ]
    cases = [(name, argv, _json_out(name)) for name, argv in cases]
    for q, d, n, max_dim in ((2, "sym", 6, 3), (2, "triv", 5, 2), (3, "sym", 6, 1),
                             (2, "21", 5, None)):
        name = f"build-cn-q{q}-{d}-n{n}"
        argv = ["build-cn", "--q", str(q), "--subgroup", d, "--n", str(n)]
        if max_dim is not None:
            argv += ["--max-dim", str(max_dim)]
        cases.append((name, argv, _json_out(name) + (("--dump-matrices", name + ".matrices.txt"),)))
    # sym nmax 9 and triv nmax 8 end in rows whose pi1 search runs out of budget;
    # sym nmax 10 and triv nmax 9 reach the torsion rows Z/3 at n=10 and (Z/3)^44 at n=9
    for q, d, nmax in ((2, "sym", 8), (3, "sym", 7), (2, "sym", 9), (2, "triv", 8),
                       (2, "sym", 10), (2, "triv", 9)):
        name = f"verify-nu-q{q}-{d}-nmax{nmax}"
        argv = ["verify-nu", "--q", str(q), "--subgroup", d, "--nmax", str(nmax),
                "--pi1-budget", "5000"]
        cases.append((name, argv, (("--out", name + ".csv"),)))
    # with a budget the searches never reach, pi1 reads trivial from n=8 on:
    # each search runs to completion and rewrites every relator
    for d, nmax in (("sym", 10), ("triv", 9)):
        name = f"verify-nu-q2-{d}-nmax{nmax}-budget1000000"
        argv = ["verify-nu", "--q", "2", "--subgroup", d, "--nmax", str(nmax),
                "--pi1-budget", "1000000"]
        cases.append((name, argv, (("--out", name + ".csv"),)))
    # 213 and 231 generate proper subgroups of Sym(3): the general-D root label
    for q, d, n in ((2, "sym", 4), (2, "triv", 4), (3, "sym", 5), (2, "sym", 5),
                    (3, "213", 5), (3, "231", 5)):
        name = f"desclink-q{q}-{d}-n{n}"
        argv = ["desclink", "--q", str(q), "--subgroup", d, "--n", str(n), "--full", "--star"]
        cases.append((name, argv, _json_out(name) + (("--homology-csv", name + ".csv"),)))
    # the star poset alone, the full poset alone (no model flag), and n=1, which has no split;
    # at (2,triv,6) the star poset alone fits where the full poset's order complex does not
    for name, q, d, n, models in (("desclink-q2-sym-n4-star", 2, "sym", 4, ["--star"]),
                                  ("desclink-q2-triv-n6-star", 2, "triv", 6, ["--star"]),
                                  ("desclink-q3-triv-n4-full", 3, "triv", 4, []),
                                  ("desclink-q2-sym-n1", 2, "sym", 1, ["--full", "--star"])):
        argv = ["desclink", "--q", str(q), "--subgroup", d, "--n", str(n)] + models
        cases.append((name, argv, _json_out(name) + (("--homology-csv", name + ".csv"),)))
    return cases


CASES = _cases()


def _write_inputs() -> None:
    from sphero.groups import (Config, compose, element_to_json, expand_leaf, inverse,
                               isometry_element, random_element, random_labeled_isometry)

    def dump(name, data):
        with open(_inp(name), "w") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
            fh.write("\n")

    def element(rng, config, **kw):
        # redraw until the reduced pair is not a near-trivial one
        while True:
            g = random_element(rng, config, 4, **kw)
            decorated = any(not dec.is_identity for dec in g.decorations)
            if len(g.domain.leaves) >= 4 and (decorated or config.group_order == 1):
                return g

    def expanded(rng, g, times):
        for _ in range(times):
            g = expand_leaf(g, rng.randrange(len(g.domain.leaves)))
        return g

    os.makedirs(INPUTS, exist_ok=True)
    for i, (q, d, r) in enumerate(CONFIGS):
        rng = Random(1000 + i)
        config = Config.make(q, r, d)
        a, b = element(rng, config), element(rng, config)
        nu = isometry_element(config, [random_labeled_isometry(rng, config, 2) for _ in range(r)])
        key = f"q{q}-{d}-r{r}"
        dump(f"{key}-a", element_to_json(a))
        dump(f"{key}-b", element_to_json(b))
        dump(f"{key}-raw", element_to_json(expanded(rng, a, 3)))
        dump(f"{key}-conj", element_to_json(compose(b, compose(nu, inverse(b)))))
    rng = Random(2000)
    v = element(rng, Config.make(2, 1, "sym"), n=3, m=1)
    dump(VERTEX, element_to_json(v))
    dump(VERTEX + "-raw", element_to_json(expanded(rng, v, 2)))
    dump("schedule", SCHEDULE)


def run_case(argv: list[str], outputs: Outputs, directory: str) -> int:
    """Run one case, writing each output flag's file into directory."""
    from sphero.cli import main

    return main(argv + [x for flag, name in outputs for x in (flag, os.path.join(directory, name))])


def main() -> None:
    _write_inputs()
    os.makedirs(OUTPUTS, exist_ok=True)
    for name, argv, outputs in CASES:
        if run_case(argv, outputs, OUTPUTS) != 0:
            sys.exit(f"{name}: nonzero exit")


if __name__ == "__main__":
    main()
