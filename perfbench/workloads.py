"""The four benchmark workloads: seeded inputs, timed operations and their checks.

A workload's ``setup`` builds its list of operations.  The seed drives only
``group-ops``; the three fixed instance sets run in a fixed order, because a
seeded order made the time of a small instance depend on what ran before it.
Each operation is one timed call into the library (or one in-process ``sphero``
command) plus the check of its result against a pinned answer or a group law.
Checks run after a pass, never inside the timed region.  Library functions
are looked up on their modules at call time, so the traced run sees the
wrappers that ``trace.Tracer`` installs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from dataclasses import dataclass, field
from random import Random
from types import SimpleNamespace
from typing import Any, Callable


@dataclass
class Op:
    """One timed operation: ``run()`` is timed; ``check(result)`` is not."""

    point: str  # the instance it belongs to; point_max_s is taken over these
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str] = repr
    outputs: list[str] = field(default_factory=list)  # files the operation writes
    request: str | None = None  # the request it is part of; None: a request of its own


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# nu-grid: the acceptance connectivity grid through nu


# q=2 triv n=11 (277,200 3-cells, 46 s for that point alone on a 2-core Xeon)
# does not fit one run of the benchmark; q=2 sym n=11 is the largest point kept.
# A request is one (q, D) row of the grid, as one verify-nu command certifies
# it: points of a millisecond are too short to time one by one on a shared core.
NU_GRID = ([(2, d, n) for d in ("sym", "triv") for n in range(2, 12) if (d, n) != ("triv", 11)]
           + [(3, d, n) for d in ("sym", "triv") for n in range(2, 10)])


def _grid_point(m, config, n):
    """build_complex -> chain_complex(nu+1) -> reduced_homology(nu), as scripts/nu_grid.py."""
    nu = m.complexes.connectivity_bound(config, n)
    cx = m.complexes.build_complex(config, n)
    if not cx.vertices:
        return {"nu": nu, "cells": [], "betti": [], "torsion": []}
    through = max(nu, 0)
    cc = cx.chain_complex(through + 1)
    res = m.homology.reduced_homology(cc, through)
    return {"nu": nu, "cells": [cc.n_cells(d) for d in range(cc.dim + 1)],
            "betti": list(res.betti), "torsion": [list(t) for t in res.torsion]}


def _vanishes_through_nu(r) -> bool:
    return all(r["betti"][i] == 0 and not r["torsion"][i] for i in range(r["nu"] + 1))


def setup_nu_grid(m, seed, pins, out_dir):
    ops = []
    for q, d, n in NU_GRID:
        key = f"q{q}-{d}-n{n}"
        config = m.groups.Config.make(q, 1, d)
        ops.append(Op(key, lambda c=config, n=n: _grid_point(m, c, n),
                      lambda r, want=pins["nu-grid"].get(key): r == want and _vanishes_through_nu(r),
                      lambda r: json.dumps(r, sort_keys=True), request=f"q{q}-{d}"))
    return ops


# ---------------------------------------------------------------------------
# torsion and desclink: in-process sphero commands, outputs pinned byte for byte


# verify-nu through nu+1; q=2 sym n=10 (a 34 s torsion elimination on its own)
# does not fit one run, so nmax stops at 9, which still has Z/3 at n=7 and n=9.
TORSION = [
    ("q2-sym-nmax9", ["verify-nu", "--q", "2", "--subgroup", "sym", "--nmax", "9",
                      "--pi1-budget", "5000"]),
    ("q2-triv-nmax8", ["verify-nu", "--q", "2", "--subgroup", "triv", "--nmax", "8",
                       "--pi1-budget", "5000"]),
]

# (q, D, n); (2, sym, 5) takes 20 s alone and does not fit one run.
DESCLINK = [(2, "sym", 4), (2, "triv", 4), (3, "sym", 5), (3, "triv", 5)]


def _cli_op(m, key, argv, outputs, pins):
    want = [pins.get(os.path.basename(p)) for p in outputs]

    def check(rc):
        return rc == 0 and [sha256_file(p) for p in outputs] == want

    return Op(key, lambda: m.cli.main(argv), check, outputs=outputs)


def setup_torsion(m, seed, pins, out_dir):
    ops = []
    for key, argv in TORSION:
        out = os.path.join(out_dir, f"{key}.csv")
        ops.append(_cli_op(m, key, argv + ["--out", out], [out], pins["torsion"]))
    return ops


def setup_desclink(m, seed, pins, out_dir):
    ops = []
    for q, d, n in DESCLINK:
        key = f"q{q}-{d}-n{n}"
        js, csv = os.path.join(out_dir, f"{key}.json"), os.path.join(out_dir, f"{key}.csv")
        argv = ["desclink", "--q", str(q), "--subgroup", d, "--n", str(n), "--full", "--star",
                "--out", js, "--homology-csv", csv]
        ops.append(_cli_op(m, key, argv, [js, csv], pins["desclink"]))
    return ops


# ---------------------------------------------------------------------------
# group-ops: a closed loop of small exact operations on seeded elements


GROUP_CONFIGS = [(q, d, r) for q in (2, 3) for d in ("sym", "triv") for r in (1, 2)]
GROUP_DEPTHS = range(2, 7)
# operations per kind in the pool of 2,000; each kind cycles through every
# config and depth, so seeds differ only in the elements drawn and the order.
# With 1,000 the 99th percentile rested on 10 operations and moved by a
# quarter from seed to seed.
GROUP_OP_MIX = [("compose", 500), ("inverse", 300), ("canonical_form", 300),
                ("stabilizer_test", 240), ("subnormal_depth", 240), ("json", 300), ("trading", 120)]


def _random_leaves(rng, q, summands, splits, max_depth):
    leaves = [(s, ()) for s in range(1, summands + 1)]
    for _ in range(splits):
        s, w = rng.choice([a for a in leaves if len(a[1]) < max_depth])
        leaves.remove((s, w))
        leaves.extend((s, w + (d,)) for d in range(q))
    return tuple(sorted(leaves))


def _random_pair(m, rng, config, n, depth):
    """A seeded tree pair from n summands onto config.r summands, not yet canonical.

    The domain has ``depth`` splits, none below ``depth``; the codomain has as
    many leaves.
    """
    g = m.groups
    q, r = config.q, config.r
    dom = _random_leaves(rng, q, n, depth, depth)
    cod = _random_leaves(rng, q, r, depth + (n - r) // (q - 1), depth + 1)
    perm = list(range(len(dom)))
    rng.shuffle(perm)
    labels = [p for p in config.sorted_group() if p != tuple(range(q))]
    decs = []
    for _ in dom:
        chosen = {}
        if labels and rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                word = tuple(rng.randrange(q) for _ in range(rng.randint(0, 2)))
                chosen[word] = rng.choice(labels)
        decs.append(g.LabeledIsometry.make(q, chosen))
    return g.TreePair(config, g.LeafPartition(n, dom), g.LeafPartition(r, cod),
                      tuple(perm), tuple(decs))


def _non_isometry(m, rng, config, n):
    """A seeded element of the n-summand forest that is not an isometry.

    In one summand the domain splits root child ``a`` and the codomain root
    child ``b != a``; leaves map in order, so some leaf at depth 1 maps to one
    at depth 2 and the cone below it is scaled by 1/q.  A strict
    transformation is an isometry of every summand, so this is none.
    """
    g = m.groups
    q = config.q
    s0 = rng.randint(1, n)
    a, b = rng.sample(range(q), 2)

    def leaves(split):
        out = []
        for s in range(1, n + 1):
            if s != s0:
                out.append((s, ()))
                continue
            for d in range(q):
                out.extend([(s, (d, e)) for e in range(q)] if d == split else [(s, (d,))])
        return tuple(sorted(out))

    dom, cod = leaves(a), leaves(b)
    return g.TreePair(config, g.LeafPartition(n, dom), g.LeafPartition(n, cod),
                      tuple(range(len(dom))), tuple(g.LabeledIsometry.identity(q) for _ in dom))


def _schedule(m, rng):
    """A criterion-10-style filtration schedule whose k-th pair is k-connected."""
    t = m.trading
    labels = ["H", "K", "L"][: rng.randint(1, 3)]
    n_stages = rng.randint(1, 6)
    stages = []
    for _ in range(n_stages):
        cells = {}
        for _ in range(rng.randint(0, 5)):
            key = (rng.randint(0, 3), rng.choice(labels))
            cells[key] = cells.get(key, 0) + rng.randint(1, 2)
        stages.append(t.CellInventory.make(cells))
    return t.FiltrationSchedule.make(stages, list(range(n_stages - 1)) + [None]), n_stages


def _group_op(m, rng, kind, i):
    """The i-th operation of a kind, on the i-th config and depth of the cycle."""
    g, t = m.groups, m.trading
    q, d, r = GROUP_CONFIGS[i % len(GROUP_CONFIGS)]
    config = g.Config.make(q, r, d)
    depth = GROUP_DEPTHS[i // len(GROUP_CONFIGS) % len(GROUP_DEPTHS)]

    def element(depth=depth):
        return g.canonical_form(_random_pair(m, rng, config, r, depth))

    def vertex():
        # every other full cycle of configs and depths adds q-1 domain summands
        n = r + (q - 1) * (i // (len(GROUP_CONFIGS) * len(GROUP_DEPTHS)) % 2)
        return g.canonical_form(_random_pair(m, rng, config, n, min(depth, 4)))

    def to_json(x):
        return json.dumps(g.element_to_json(x), sort_keys=True)

    if kind == "compose":
        a, b, c = element(), element(), element()
        assoc = rng.random() < 0.25

        def check(ab):
            ok = g.canonical_form(ab) == ab and g.compose(ab, g.inverse(b)) == a
            if assoc:
                ok = ok and g.compose(ab, c) == g.compose(a, g.compose(b, c))
            return ok

        return Op(kind, lambda: g.compose(a, b), check, to_json)
    if kind == "inverse":
        a = element()
        ident = g.identity_element(config)
        return Op(kind, lambda: g.inverse(a),
                  lambda ai: g.compose(a, ai) == ident == g.compose(ai, a), to_json)
    if kind == "canonical_form":
        a = element()
        raw = a
        for _ in range(rng.randint(1, 3)):
            raw = g.expand_leaf(raw, rng.randrange(len(raw.domain.leaves)))
        return Op(kind, lambda: g.canonical_form(raw), lambda c: c == a, to_json)
    if kind == "stabilizer_test":
        # the stabilizer of the class of phi is the conjugates phi nu phi^-1 of the
        # strict transformations nu: half the tests conjugate one, half a non-isometry
        phi = vertex()
        fixes = rng.random() < 0.5
        if fixes:
            portraits = []
            for _ in range(phi.domain.n):
                word = tuple(rng.randrange(q) for _ in range(rng.randint(0, 2)))
                label = rng.choice(config.sorted_group())
                portraits.append(g.LabeledIsometry.make(
                    q, {} if label == tuple(range(q)) else {word: label}))
            nu = g.isometry_element(config, portraits, phi.domain.n)
        else:
            nu = _non_isometry(m, rng, config, phi.domain.n)
        gamma = g.compose(phi, g.compose(nu, g.inverse(phi)))
        return Op(kind, lambda: g.stabilizer_test(gamma, phi), lambda ok: ok is fixes)
    if kind == "subnormal_depth":
        phi = vertex()
        k = i // len(GROUP_CONFIGS) % 4
        # k' is the least depth whose strict transformations phi conjugates to depth k
        return Op(kind, lambda: g.subnormal_depth(phi, k),
                  lambda kp: (type(kp) is int and kp >= 0 and g.conjugates_into(phi, kp, k)
                              and (kp == 0 or not g.conjugates_into(phi, kp - 1, k))))
    if kind == "json":
        a = element()
        return Op(kind, lambda: g.element_from_json(g.element_to_json(a)),
                  lambda b: b == a, to_json)
    schedule, n_stages = _schedule(m, rng)

    def trade():
        sparsified, _ = t.sparsify(schedule, require=n_stages)
        prefix = len(sparsified.stages)
        return sparsified, prefix, t.run_staircase(sparsified, prefix)

    def check_trade(res):
        sparsified, prefix, (final, log) = res
        before = t.CellInventory.make({})
        for inv in sparsified.stages[:prefix]:
            before = before.add(inv)
        return (t.euler_characteristic(before) == t.euler_characteristic(final)
                and t.replay_log(sparsified, prefix, log) == final)

    return Op(kind, trade, check_trade,
              lambda res: json.dumps([res[2][0].to_json(), res[2][1].to_json()]))


def setup_group_ops(m, seed, pins, out_dir):
    rng = Random(seed)
    ops = [_group_op(m, rng, kind, i) for kind, count in GROUP_OP_MIX for i in range(count)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "nu-grid": setup_nu_grid,
    "torsion": setup_torsion,
    "desclink": setup_desclink,
    "group-ops": setup_group_ops,
}

MODULES = ("groups", "posets", "complexes", "homology", "trading", "cli")


def load_modules() -> SimpleNamespace:
    """Import the sphero layers (``src/`` must be on ``sys.path``); return them by name."""
    return SimpleNamespace(**{name: importlib.import_module(f"sphero.{name}") for name in MODULES})
