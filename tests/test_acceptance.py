"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact; the random ones are seeded.
"""

import math
import time
from random import Random

import pytest

from sphero.complexes import (
    act_on_tiling_object,
    build_complex,
    check_cone_relations,
    connectivity_bound,
    count_cell_orbits,
    cut_poset,
    elementary_split_poset,
    parse_tiling_id,
    split_class_poset,
    split_records,
    strict_class_poset,
    tiling_id,
    vertex_descending_link,
)
from sphero.groups import (
    Config,
    LabeledIsometry,
    TreePair,
    canonical_form,
    compose,
    depth_triviality,
    identity_element,
    inverse,
    isometry_element,
    random_element,
    stabilizer_test,
    subnormal_depth,
)
from sphero.homology import reduced_homology
from sphero.posets import fixed_subcategory, order_complex, underlying_poset
from sphero.trading import (
    CellInventory,
    FiltrationSchedule,
    euler_characteristic,
    replay_log,
    run_staircase,
    sparsify,
)

SEED = 420731


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------


def test_criterion_01_nu_grid_q2():
    """q=2, D in {Sym(2), trivial}, 2 <= n <= 11: nonempty and acyclic through nu(n)."""
    t0 = time.time()
    for sub in ("sym", "triv"):
        config = Config.make(2, 1, sub)
        assert len(build_complex(config, 1).vertices) == 0  # empty below q
        for n in range(2, 12):
            nu = connectivity_bound(config, n)
            assert nu == (n - 2) // 3 - 1
            cx = build_complex(config, n)
            assert len(cx.vertices) > 0  # nonempty iff n >= 2
            if nu < 0:
                continue
            cc = cx.chain_complex(nu + 1)
            res = reduced_homology(cc, nu)
            assert all(res.betti[i] == 0 for i in range(nu + 1)), (sub, n, res)
            assert all(not res.torsion[i] for i in range(nu + 1)), (sub, n, res)
    report("1 (connectivity grid, q=2)", f"[{time.time() - t0:.0f}s]")


def test_criterion_02_nu_grid_q3():
    """q=3, D = Sym(3), 3 <= n <= 9: nonempty from n=3; n=8,9 connected."""
    t0 = time.time()
    config = Config.make(3, 1, "sym")
    assert len(build_complex(config, 2).vertices) == 0
    for n in range(3, 10):
        nu = connectivity_bound(config, n)
        cx = build_complex(config, n)
        assert len(cx.vertices) > 0
        if nu < 0:
            continue
        assert n in (8, 9) and nu == 0
        res = reduced_homology(cx.chain_complex(nu + 1), nu)
        assert res.betti[0] == 0 and not res.torsion[0], (n, res)
    report("2 (connectivity grid, q=3)", f"[{time.time() - t0:.0f}s]")


def test_criterion_03_petersen_pin():
    """C_5 for q=2, Sym(2) is the Petersen graph: 10 vertices, 15 edges, b1 = 6."""
    config = Config.make(2, 1, "sym")
    cx = build_complex(config, 5)
    assert len(cx.vertices) == 10
    assert len(cx.edges) == 15
    res = reduced_homology(cx.chain_complex(2), 1)
    assert res.betti == (0, 6)
    assert all(not t for t in res.torsion)
    report("3 (Petersen pin)")


def test_criterion_04_morse_recursion():
    """Descending links of base-meeting vertices are fresh complexes on k elements."""
    t0 = time.time()
    checked = 0
    for q in (2, 3):
        for sub in ("sym", "triv"):
            config = Config.make(q, 1, sub)
            for n in range(q, 9):
                cx = build_complex(config, n)
                base = set(range(1, q + 1))
                for a in cx.vertices:
                    if not (set(a.support) & base):
                        continue
                    sub_cx, relabel = vertex_descending_link(cx, a)
                    k = n - q - (min(a.support) - 1)
                    assert len(relabel) == k
                    if k >= 1:
                        assert sub_cx == build_complex(config, k)
                    else:
                        assert len(sub_cx.vertices) == 0
                    checked += 1
    report("4 (Morse recursion)", f"[{checked} vertices, {time.time() - t0:.0f}s]")


def test_criterion_05_lk_star_vs_lk():
    """Splitting posets and their very elementary subposets have equal homology."""
    t0 = time.time()
    h_top = {}
    for sub, nmax in (("sym", 6), ("triv", 5)):
        config = Config.make(2, 1, sub)
        for n in range(2, nmax + 1):
            records = split_records(config, n)
            full = split_class_poset(records)
            star = elementary_split_poset(records)
            assert set(star.objects) <= set(full.objects)
            if not full.objects:
                assert not star.objects
                continue
            h_full = reduced_homology(order_complex(underlying_poset(full)[0]), 2)
            h_star = reduced_homology(order_complex(underlying_poset(star)[0]), 2)
            assert h_full.betti == h_star.betti, (sub, n)
            assert h_full.torsion == h_star.torsion, (sub, n)
            h_top[sub, n] = h_full
    # the very elementary model at q=2, Sym(2) is the matching complex M_n:
    # M_5 is the Petersen graph (6 independent cycles) and M_6 a wedge of 16
    # circles (Bouc 1992); for the trivial D at n=5 the graph has 20 vertices,
    # 60 edges and no triangles, so 41 cycles
    for key, betti in (("sym", 5), (0, 6, 0)), (("sym", 6), (0, 16, 0)), (("triv", 5), (0, 41, 0)):
        assert h_top[key].betti == betti, key
        assert all(not t for t in h_top[key].torsion), key
    # exact pins for n=3, Sym(2)
    config = Config.make(2, 1, "sym")
    records = split_records(config, 3)
    full = split_class_poset(records)
    star = elementary_split_poset(records)
    assert len(full.objects) == 6 and len(star.objects) == 3
    for poset in (full, star):
        comps = poset.components()
        assert len(comps) == 3
        honest, _ = underlying_poset(poset)
        for comp in comps:
            res = reduced_homology(order_complex(honest.full_subcategory(comp)), 1)
            assert all(b == 0 for b in res.betti)
    report("5 (full vs very elementary splitting posets)", f"[{time.time() - t0:.0f}s]")


def test_criterion_06_cut_poset_cones():
    """Every non-elementary record with n <= 5 (q=2), and n = 6 for sym: cone relations +
    acyclicity."""
    t0 = time.time()
    checked = 0
    for sub, nmax in (("sym", 6), ("triv", 5)):
        config = Config.make(2, 1, sub)
        for n in range(2, nmax + 1):
            for record in split_records(config, n):
                if record.is_very_elementary:
                    continue
                cp = cut_poset(record)
                check_cone_relations(cp)
                res = reduced_homology(order_complex(cp.poset), 2)
                assert all(b == 0 for b in res.betti), record.object_id()
                assert all(not t for t in res.torsion), record.object_id()
                checked += 1
    report("6 (cut-poset cones)", f"[{checked} records, {time.time() - t0:.0f}s]")


def test_criterion_07_group_arithmetic():
    """1000 seeded triples: laws, canonical idempotence, depth-12 action oracle."""
    t0 = time.time()
    rng = Random(SEED)
    configs = [Config.make(2, 1, "sym"), Config.make(2, 1, "triv"), Config.make(2, 2, "sym")]
    for trial in range(1000):
        config = configs[trial % len(configs)]
        a = random_element(rng, config, 4)
        b = random_element(rng, config, 4)
        c = random_element(rng, config, 4)
        ab = compose(a, b)
        assert compose(ab, c) == compose(a, compose(b, c)), trial
        assert compose(a, inverse(a)) == identity_element(config), trial
        assert canonical_form(a) == a, trial
        act_b = b.act_on_depth(12)
        act_ab = ab.act_on_depth(12)
        for x, bx in act_b.items():
            assert act_ab[x] == a.apply(bx), (trial, x)
    report("7 (group arithmetic)", f"[1000 triples, {time.time() - t0:.0f}s]")


def _conjugate_in(phi, nu, k):
    conj = compose(phi, compose(nu, inverse(phi)))
    dt = depth_triviality(conj)
    return dt is not None and dt >= k


def test_criterion_08_subnormality():
    """100 seeded sphero-vertices: the reported depth works and depth-1 fails."""
    t0 = time.time()
    rng = Random(SEED + 1)
    config = Config.make(2, 1, "sym")
    swap = (1, 0)
    done = 0
    while done < 100:
        m = rng.choice([1, 2, 3])
        phi = random_element(rng, config, 3, n=m, m=1)
        k = rng.randrange(0, 5)
        kprime = subnormal_depth(phi, k)
        depth_bound = max(kprime + 2,
                          max(len(w) for _, w in phi.domain.leaves) + k + 1)
        # containment: every single-label isometry at depth >= kprime conjugates
        # into the depth-k-trivial subgroup (single labels generate the
        # finitely supported part of the congruence subgroup)
        for s in range(1, m + 1):
            for d in range(kprime, depth_bound + 1):
                for w in _words_of_length(2, d):
                    portraits = [LabeledIsometry.identity(2) for _ in range(m)]
                    portraits[s - 1] = LabeledIsometry.make(2, {w: swap})
                    nu = isometry_element(config, portraits, m)
                    assert _conjugate_in(phi, nu, k), (done, s, w, k, kprime)
        # a couple of random multi-label elements of the same congruence depth
        for _ in range(5):
            portraits = []
            for _ in range(m):
                labels = {}
                for _ in range(rng.randrange(0, 3)):
                    d = rng.randrange(kprime, kprime + 3)
                    labels[tuple(rng.randrange(2) for _ in range(d))] = swap
                portraits.append(LabeledIsometry.make(2, labels))
            nu = isometry_element(config, portraits, m)
            assert _conjugate_in(phi, nu, k), done
        # minimality: some single label at depth kprime - 1 must escape
        if kprime > 0:
            witness = False
            for s in range(1, m + 1):
                for w in _words_of_length(2, kprime - 1):
                    portraits = [LabeledIsometry.identity(2) for _ in range(m)]
                    portraits[s - 1] = LabeledIsometry.make(2, {w: swap})
                    nu = isometry_element(config, portraits, m)
                    if not _conjugate_in(phi, nu, k):
                        witness = True
                        break
                if witness:
                    break
            assert witness, (done, k, kprime)
        done += 1
    report("8 (subnormality)", f"[100 vertices, {time.time() - t0:.0f}s]")


def _words_of_length(q, length):
    out = [()]
    for _ in range(length):
        out = [w + (d,) for w in out for d in range(q)]
    return out


def test_criterion_09_stabilizers_and_fixed_sets():
    """Stabilizer test vs an action-based oracle; fixed sets are upward closed."""
    t0 = time.time()
    rng = Random(SEED + 2)
    config = Config.make(2, 1, "sym")

    def strictness_oracle(psi: TreePair) -> bool:
        # action-based: summand- and depth-preserving with every induced
        # child permutation in D, read off the boundary action alone
        depth = max(len(w) for _, w in psi.domain.leaves + psi.codomain.leaves) + 1
        act = psi.act_on_depth(depth)
        for (s, w), (s2, w2) in act.items():
            if s2 != s or len(w2) != len(w):
                return False
        for s in range(1, psi.domain.n + 1):
            image = {w: act[(s, w)][1] for w in _words_of_length(config.q, depth)}
            for d in range(depth):
                for v in _words_of_length(config.q, d):
                    pad = (0,) * (depth - d - 1)
                    tau = tuple(image[v + (c,) + pad][d] for c in range(config.q))
                    if sorted(tau) != list(range(config.q)) or tau not in config.group:
                        return False
                    for c in range(config.q):
                        if image[v + (c,) + pad][:d] != image[v + pad + (0,)][:d]:
                            return False
        return True

    agreements = 0
    for trial in range(200):
        m = rng.choice([1, 2])
        phi = random_element(rng, config, 2, n=m, m=1)
        if rng.random() < 0.5:
            gamma = isometry_element(config, [
                LabeledIsometry.make(2, {tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3))): (1, 0)})
                if rng.random() < 0.8 else LabeledIsometry.identity(2)
            ])
        else:
            gamma = random_element(rng, config, 2)
        psi = compose(inverse(phi), compose(gamma, phi))
        assert stabilizer_test(gamma, phi) == strictness_oracle(psi), trial
        agreements += 1

    # upward closure of fixed sets for every cyclic subgroup at depth <= 2;
    # arbitrary H follows since Fix_H is the intersection of cyclic fixed sets
    checked_groups = 0
    for sub in ("sym", "triv"):
        cfg = Config.make(2, 1, sub)
        poset, reps = strict_class_poset(cfg, max_level=4)
        tilings = {oid: parse_tiling_id(oid) for oid in poset.objects}
        verts = _words_of_length(2, 0) + _words_of_length(2, 1) + _words_of_length(2, 2)
        gens = [p for p in cfg.sorted_group() if p != (0, 1)]
        portraits = [LabeledIsometry.identity(2)]
        for v in verts:
            portraits += [
                LabeledIsometry.make(2, {**base.label_dict(), v: g})
                for base in portraits for g in gens
            ]
        for g in portraits:
            mapping = {oid: tiling_id(act_on_tiling_object([g], t)) for oid, t in tilings.items()}
            fixed = set(fixed_subcategory(poset, [mapping]).objects)
            for a, b in poset.arrows:
                if a in fixed:
                    assert b in fixed, (sub, a, b)
            checked_groups += 1
    report("9 (stabilizers and fixed sets)",
           f"[{agreements} pairs, {checked_groups} cyclic actions, {time.time() - t0:.0f}s]")


def test_criterion_10_trading():
    """50 seeded schedules: chi invariance, replay fidelity, stability, finiteness."""
    t0 = time.time()
    rng = Random(SEED + 3)
    for trial in range(50):
        labels = ["H", "K", "L"][: rng.randrange(1, 4)]
        n_stages = rng.randrange(1, 7)
        stages = []
        for _ in range(n_stages):
            cells = {}
            for _ in range(rng.randrange(0, 6)):
                key = (rng.randrange(0, 4), rng.choice(labels))
                cells[key] = cells.get(key, 0) + rng.randrange(1, 3)
            stages.append(CellInventory.make(cells))
        conn = list(range(n_stages - 1)) + [None]
        schedule = FiltrationSchedule.make(stages, conn)
        sparsified, _ = sparsify(schedule, require=n_stages)
        prefix = len(sparsified.stages)
        final, log = run_staircase(sparsified, prefix)

        before = CellInventory.make({})
        for inv in sparsified.stages[:prefix]:
            before = before.add(inv)
        assert euler_characteristic(before) == euler_characteristic(final), trial
        assert replay_log(sparsified, prefix, log) == final, trial
        assert final.labels() <= before.labels(), trial
        # dimension-d counts for d < prefix match a re-run with longer padding
        padded = FiltrationSchedule.make(
            tuple(sparsified.stages) + (CellInventory.make({}),),
            [c if c is not None else prefix - 1 for c in sparsified.connectivity[:-1]]
            + [prefix - 1, None],
        )
        final_padded, _ = run_staircase(padded, prefix + 1)
        for d in range(prefix):
            assert final.dimension_count(d) == final_padded.dimension_count(d), (trial, d)
        assert all(c >= 0 for _, c in final.counts)
    report("10 (cell trading)", f"[50 schedules, {time.time() - t0:.0f}s]")


def _prefix_code_levels(q: int, k: int) -> set[int]:
    """Leaf counts up to k of the complete prefix codes of one rooted q-ary tree.

    Independent of the library: codes are grown from the root by replacing one
    leaf with its q children, and every code reached with at most k leaves is
    kept.
    """
    root = frozenset({()})
    seen = {root}
    frontier = [root]
    while frontier:
        code = frontier.pop()
        for leaf in code:
            grown = (code - {leaf}) | {leaf + (d,) for d in range(q)}
            if len(grown) <= k and grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return {len(code) for code in seen}


def test_criterion_11_orbit_count_pin():
    """count of vertex orbits through level k, for k <= 5 and r = 1.

    There is one vertex orbit per level r <= m <= k with m = r (mod q-1): a
    vertex at level m is a complete prefix code of the forest of r rooted q-ary
    trees with m leaves, and expanding a leaf adds q-1 leaves, so such codes
    have exactly r + j(q-1) leaves, j >= 0.  The count is k for q=2 and
    ceil(k/2) for q=3 with r=1.  Both halves are also checked against prefix
    codes grown leaf by leaf from the root.
    """
    for k in range(1, 6):
        assert count_cell_orbits(Config.make(2, 1, "sym"), k, 0) == k
        assert count_cell_orbits(Config.make(2, 1, "triv"), k, 0) == k
    # q=3: codes of one ternary tree have 1, 3, 5, ... leaves, so only odd levels
    q3 = [count_cell_orbits(Config.make(3, 1, "sym"), k, 0) for k in range(1, 6)]
    assert q3 == [1, 1, 2, 2, 3]
    for q, subgroup in ((2, "sym"), (2, "triv"), (3, "sym")):
        levels = _prefix_code_levels(q, 5)
        for k in range(1, 6):
            got = count_cell_orbits(Config.make(q, 1, subgroup), k, 0)
            assert got == sum(m <= k for m in levels), (q, subgroup, k)
    report("11 (orbit count pin, q=2 half)")
    report("11 (orbit count pin, q=3 half)", str(q3))
