from itertools import permutations, product
from random import Random

import pytest
from block_orbit import orbit_canonical_block, split_records_oracle
from homology_oracle import complex_from_simplices, flag_complex_oracle, pairwise_runs_neighbours_oracle
from orbit_oracle import count_cell_orbits_oracle

from sphero.complexes import (
    _compositions,
    DecoratedComplex,
    DecoratedVertex,
    EnumerationCap,
    build_complex,
    block_cuts,
    canonical_block,
    check_cone_relations,
    connectivity_bound,
    count_cell_orbits,
    cut_poset,
    decorations_for,
    elementary_record_to_simplex,
    elementary_split_poset,
    has_arrow,
    make_record,
    morse_value,
    parse_tiling_id,
    split_class_poset,
    split_records,
    strict_class_poset,
    tilings,
    tiling_id,
    act_on_tiling_object,
    vertex_descending_link,
)
from sphero.groups import Config, LabeledIsometry, TreePair, isometry_element, stabilizer_test
from sphero.homology import reduced_homology
from sphero.posets import fixed_subcategory, order_complex, underlying_poset


# ---------------------------------------------------------------------------
# decorated complexes


def test_build_petersen(sym2):
    cx = build_complex(sym2, 5)
    assert len(cx.vertices) == 10
    assert len(cx.edges) == 15
    res = reduced_homology(cx.chain_complex(2), 1)
    assert res.betti == (0, 6)


def test_build_trivial_decorations(triv2):
    cx = build_complex(triv2, 3)
    assert len(cx.vertices) == 6
    assert len(cx.edges) == 0


def test_build_empty_below_q(sym3):
    cx = build_complex(sym3, 2)
    assert len(cx.vertices) == 0


def test_build_complex_edges_match_set_loop():
    # the pairwise set-intersection loop that build_complex used before the
    # masks per support class, against the masks and the edges read off them
    for q, d in product((2, 3), ("sym", "triv")):
        for n in range(1, 10):
            cx = build_complex(Config.make(q, 1, d), n)
            vs = cx.vertices
            edges = tuple((i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
                          if not set(vs[i].support) & set(vs[j].support))
            assert cx.edges == edges, (q, d, n)
            masks = [0] * len(vs)  # symmetric and loop-free
            for i, j in edges:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            assert list(cx.neighbours) == masks, (q, d, n)


def test_neighbour_masks_match_pairwise_runs_oracle():
    # the masks from the vertices meeting each ground element, against a test per pair of
    # support runs: on every grid point with n <= 10 (n < q has no vertices), and on seeded
    # subsequences of its vertices, whose runs are shortened or missing
    rng = Random(20261028)
    empty = sub_runs = 0
    for q, d in [(2, "sym"), (2, "triv")] + [(3, d) for d in ("sym", "triv", "213", "231")]:
        config = Config.make(q, 1, d)
        for n in range(1, 11):
            cx = build_complex(config, n)
            assert cx.neighbours == pairwise_runs_neighbours_oracle(cx.vertices), (q, d, n)
            empty += not cx.vertices
            for p in (0.2, 0.5, 0.9):
                vs = tuple(v for v in cx.vertices if rng.random() < p)
                sub = DecoratedComplex(n, config, vs)
                assert sub.neighbours == pairwise_runs_neighbours_oracle(vs), (q, d, n, vs)
                sub_runs += len(vs) > 1
    assert empty == 10 and sub_runs >= 100, (empty, sub_runs)


def test_chain_complex_matches_tuple_clique_oracle():
    # the masks handed straight to the clique search give the cliques of the edge list
    for q, d in product((2, 3), ("sym", "triv")):
        for n in range(q, 9):
            cx = build_complex(Config.make(q, 1, d), n)
            ids = list(range(len(cx.vertices)))
            for max_dim in range(3):
                bases = flag_complex_oracle(ids, list(cx.edges), max_dim)
                cc = cx.chain_complex(max_dim)
                assert cc.basis == tuple(map(tuple, bases)), (q, d, n, max_dim)
                assert cc == complex_from_simplices(bases), (q, d, n, max_dim)


def test_vertex_count_formula(sym3, triv2):
    # C(n, q) * q! / |D|
    assert len(build_complex(sym3, 5).vertices) == 10
    cx = build_complex(Config.make(3, 1, "triv"), 4)
    assert len(cx.vertices) == 4 * 6
    assert len(decorations_for(triv2)) == 2


def test_connectivity_bound_values(sym2, sym3):
    assert connectivity_bound(sym2, 5) == 0
    assert connectivity_bound(sym2, 8) == 1
    assert connectivity_bound(sym3, 8) == 0
    assert connectivity_bound(sym2, 2) == -1
    assert connectivity_bound(sym2, 1) == -2


def test_morse_values(sym2, sym3):
    assert morse_value(DecoratedVertex((1, 5), (0, 1)), sym2) == 2
    assert morse_value(DecoratedVertex((2, 3), (0, 1)), sym2) == 1
    assert morse_value(DecoratedVertex((1, 3, 7), (0, 1, 2)), sym3) == 5
    with pytest.raises(ValueError):
        morse_value(DecoratedVertex((3, 4), (0, 1)), sym2)


def test_descending_link_examples(sym2):
    cx8 = build_complex(sym2, 8)
    sub, relabel = vertex_descending_link(cx8, DecoratedVertex((1, 2), (0, 1)))
    assert sub.n == 6 and sub == build_complex(sym2, 6)
    sub2, rel2 = vertex_descending_link(cx8, DecoratedVertex((2, 5), (0, 1)))
    assert sub2.n == 5
    assert sorted(rel2) == [3, 4, 6, 7, 8]

    cx4 = build_complex(sym2, 4)
    sub3, _ = vertex_descending_link(cx4, DecoratedVertex((1, 2), (0, 1)))
    assert len(sub3.vertices) == 1  # one decoration class on the only pair


def test_descending_link_rejects_far_vertices(sym2):
    cx = build_complex(sym2, 6)
    with pytest.raises(ValueError):
        vertex_descending_link(cx, DecoratedVertex((4, 5), (0, 1)))


def test_morse_recursion_all_vertices(sym2, triv2, sym3):
    configs = [sym2, triv2, sym3, Config.make(3, 1, "triv")]
    for config in configs:
        for n in range(config.q, 7):
            cx = build_complex(config, n)
            base = set(range(1, config.q + 1))
            for a in cx.vertices:
                if not (set(a.support) & base):
                    continue
                sub, _ = vertex_descending_link(cx, a)
                k = n - config.q - (min(a.support) - 1)
                if k >= 1:
                    assert sub == build_complex(config, k)


def test_morse_order_soundness(sym2, triv2):
    # adding vertices meeting the base in increasing Morse order, the link of
    # each among the already-added equals the descending link
    for config in (sym2, triv2):
        n = 6
        cx = build_complex(config, n)
        base = set(range(1, config.q + 1))
        outside = [v for v in cx.vertices if not (set(v.support) & base)]
        meeting = [v for v in cx.vertices if set(v.support) & base]
        meeting.sort(key=lambda v: (morse_value(v, config), v.support, v.decoration))
        added = list(outside)
        for a in meeting:
            among = [v for v in added
                     if not (set(v.support) & set(a.support))]
            sub, relabel = vertex_descending_link(cx, a)
            inv = {new: old for old, new in relabel.items()}
            link_named = sorted(
                (tuple(sorted(inv[x] for x in v.support)), v.decoration) for v in sub.vertices
            )
            among_named = sorted((v.support, v.decoration) for v in among)
            assert link_named == among_named
            added.append(a)


def test_star_contraction_shadow(sym2, triv2):
    # every vertex avoiding the base support is joined to every base vertex,
    # so the subcomplex they span sits inside the closed star of the base
    for config in (sym2, triv2):
        for n in range(2 * config.q, 8):
            cx = build_complex(config, n)
            index = cx.vertex_index()
            base_support = tuple(range(1, config.q + 1))
            base_vertices = [v for v in cx.vertices if v.support == base_support]
            assert base_vertices
            edge_set = set(cx.edges)
            for v in cx.vertices:
                if set(v.support) & set(base_support):
                    continue
                for b in base_vertices:
                    i, j = sorted((index[v], index[b]))
                    assert (i, j) in edge_set


def test_complex_json_roundtrip(sym2):
    cx = build_complex(sym2, 4)
    doc = cx.to_json()
    assert doc["n"] == 4 and len(doc["vertices"]) == len(cx.vertices)


# ---------------------------------------------------------------------------
# splitting records and their posets


def test_tilings_counts():
    assert len(tilings(2, 1)) == 1
    assert len(tilings(2, 3)) == 2
    assert len(tilings(2, 4)) == 5  # Catalan(3)
    assert tilings(3, 2) == []
    assert len(tilings(3, 3)) == 1
    assert len(tilings(3, 5)) == 3


def test_compositions_are_positive_splits_in_lexicographic_order():
    for total in range(1, 8):
        for parts in range(1, 5):
            want = [c for c in product(range(1, total + 1), repeat=parts) if sum(c) == total]
            assert list(_compositions(total, parts)) == want, (total, parts)


def test_split_record_counts_n3(sym2, triv2):
    recs = split_records(sym2, 3)
    by_k = {}
    for r in recs:
        by_k.setdefault(r.k, []).append(r)
    assert len(by_k[2]) == 3 and len(by_k[1]) == 3

    recs_t = split_records(triv2, 3)
    by_k_t = {}
    for r in recs_t:
        by_k_t.setdefault(r.k, []).append(r)
    # oracle-pinned regression values (the spec warns against guessing these)
    assert len(by_k_t[2]) == 6 and len(by_k_t[1]) == 12


def test_split_poset_n3(sym2):
    poset = split_class_poset(split_records(sym2, 3))
    assert len(poset.objects) == 6
    assert len(poset.arrows) == 3
    comps = poset.components()
    assert len(comps) == 3
    honest, _ = underlying_poset(poset)
    for comp in comps:
        sub = honest.full_subcategory(comp)
        res = reduced_homology(order_complex(sub), 1)
        assert all(b == 0 for b in res.betti)


def test_split_poset_trivial_cases(sym2):
    assert split_class_poset(split_records(sym2, 1)).objects == ()
    with pytest.raises(EnumerationCap):
        split_class_poset(split_records(sym2, 9, cap=6))


def test_star_poset_n3(sym2):
    records = split_records(sym2, 3)
    star = elementary_split_poset(records)
    assert len(star.objects) == 3
    assert len(star.arrows) == 0
    assert set(star.objects) == {r.object_id() for r in records if r.is_very_elementary}


@pytest.mark.parametrize("q,d,nmax", [(2, "sym", 6), (2, "triv", 5), (3, "sym", 6),
                                      (3, "triv", 6), (3, "213", 6), (3, "231", 6)])
def test_elementary_split_poset_is_the_full_subcategory(q, d, nmax):
    # oracle: the very elementary poset cut out of the full poset, as desclink once built it
    config = Config.make(q, 1, d)
    for n in range(1, nmax + 1):
        records = split_records(config, n)
        elementary = {r.object_id() for r in records if r.is_very_elementary}
        star = elementary_split_poset(records)
        assert star == split_class_poset(records).full_subcategory(elementary), (q, d, n)
        assert set(star.objects) == elementary


def test_star_poset_empty_below_q(sym3):
    # a size-q block needs q targets, so nothing splits below n = q
    records = split_records(sym3, 2)
    full = split_class_poset(records)
    star = elementary_split_poset(records)
    assert star.objects == ()
    assert full.objects == ()


def test_star_poset_matches_complex(sym2, triv2):
    # barycentric model: records <-> simplices, cut relation <-> face relation
    for config in (sym2, triv2):
        for n in (3, 4):
            recs = split_records(config, n)
            star = elementary_split_poset(recs)
            cx = build_complex(config, n)
            records = {r.object_id(): r for r in recs}
            simplex_of = {oid: elementary_record_to_simplex(records[oid])
                          for oid in star.objects}
            assert len(set(simplex_of.values())) == len(star.objects)
            vertex_count = sum(1 for s in simplex_of.values() if len(s) == 1)
            assert vertex_count == len(cx.vertices)
            for a, b in star.arrows:
                sa, sb = set(simplex_of[a]), set(simplex_of[b])
                assert sa < sb  # arrows point from faces into cofaces


def test_lk_star_homology_matches_complex(sym2, triv2):
    for config in (sym2, triv2):
        for n in (3, 4):
            records = split_records(config, n)
            star = elementary_split_poset(records)
            honest, _ = underlying_poset(star)
            res_star = reduced_homology(order_complex(honest), 2)
            res_cx = reduced_homology(build_complex(config, n).chain_complex(3), 2)
            assert res_star.betti == res_cx.betti
            assert res_star.torsion == res_cx.torsion


@pytest.mark.parametrize("q,d,n", [(2, "sym", 4), (2, "triv", 4), (3, "sym", 5), (2, "sym", 5)])
def test_split_posets_are_honest(q, d, n):
    # every arrow adds blocks, so desclink takes order complexes with no quotient
    config = Config.make(q, 1, d)
    records = split_records(config, n)
    full = split_class_poset(records)
    star = elementary_split_poset(records)
    for poset in (full, star):
        assert poset.objects and not poset.iso_pairs()
        assert underlying_poset(poset)[0] == poset


def test_block_canonicalization(sym2, triv2):
    block_a = (((0,), 1), ((1,), 2))
    block_b = (((0,), 2), ((1,), 1))
    assert canonical_block(sym2, block_a) == canonical_block(sym2, block_b)
    assert canonical_block(triv2, block_a) != canonical_block(triv2, block_b)


# every labeling of a tiling through 5 tiles; at 6 tiles a seeded sample of the
# 720, since the orbit search takes about 4 ms a block there
SAMPLED_LABELINGS = 40


def test_canonical_block_matches_orbit_search():
    """The bottom-up minimum equals the minimum over the whole orbit."""
    rng = Random(20260418)
    cases = [(2, 6, ("sym", "triv")), (3, 5, ("sym", "triv", ["213"], ["231"]))]
    checked = 0
    for q, max_tiles, subgroups in cases:
        for t in range(1, max_tiles + 1):
            labelings = list(permutations(range(1, t + 1)))
            for tiling in tilings(q, t):
                sample = labelings if t <= 5 else rng.sample(labelings, SAMPLED_LABELINGS)
                for perm in sample:
                    block = tuple(sorted(zip(tiling, perm)))
                    for sub in subgroups:
                        config = Config.make(q, 1, sub)
                        want = orbit_canonical_block(config, block)
                        assert canonical_block(config, block) == want, (q, sub, block)
                        checked += 1
    assert checked > 8_000


# every proper subgroup spec here generates a group other than Sym(q) and 1
SPLIT_CASES = ([(2, sub, 5) for sub in ("sym", "triv")]
               + [(3, sub, 5) for sub in ("sym", "triv", "213", "132", "231")]
               + [(4, sub, 5) for sub in ("sym", "triv", "2143", "2341")]
               + [(2, "sym", 6), (3, "213", 6)])


@pytest.mark.parametrize("q,sub,nmax", SPLIT_CASES)
def test_split_records_match_labeling_oracle(q, sub, nmax):
    """The table of canonical blocks gives the records that canonicalising every labeling gives."""
    config = Config.make(q, 1, sub)
    for n in range(1, nmax + 1):
        assert split_records(config, n) == split_records_oracle(config, n), n


@pytest.mark.parametrize("q,sub", [(2, "sym"), (3, "sym"), (3, "213"), (3, "231")])
def test_runs_below_cuts_of_record_blocks_are_canonical(q, sub):
    """split_class_poset takes the run below a cut word as its induced block, uncanonicalised."""
    config = Config.make(q, 1, sub)
    blocks = {b for r in split_records(config, 5) for b in r.blocks}
    for block in blocks:
        assert canonical_block(config, block) == block
        for cut in block_cuts(config, block):
            for c in cut:
                below = [i for i, (w, _) in enumerate(block) if w[:len(c)] == c]
                assert below == list(range(below[0], below[-1] + 1)), (block, c)
                run = tuple((block[i][0][len(c):], block[i][1]) for i in below)
                assert canonical_block(config, run) == run == orbit_canonical_block(config, run)


def _arrows_by_pairs(config, n):
    records = split_records(config, n)
    return {(r1.object_id(), r2.object_id())
            for r1 in records for r2 in records if r1.k > r2.k and has_arrow(r1, r2)}


@pytest.mark.parametrize("q,sub,n", [
    (2, "sym", 2), (2, "sym", 3), (2, "sym", 4),
    (2, "triv", 2), (2, "triv", 3), (2, "triv", 4),
    (3, "sym", 5), (3, "triv", 5), (3, ["213"], 5), (2, "sym", 5),
])
def test_split_poset_arrows_match_pairwise_has_arrow(q, sub, n):
    """Arrows generated from cuts are exactly the pairs that has_arrow accepts."""
    config = Config.make(q, 1, sub)
    poset = split_class_poset(split_records(config, n))
    assert poset.arrows or n == 2  # at n = 2 the only refinement is all singletons
    assert poset.arrows == _arrows_by_pairs(config, n)


def test_block_cuts_of_deep_tiling(sym2):
    block = (((0,), 1), ((1, 0), 2), ((1, 1), 3))
    cuts = block_cuts(sym2, block)
    assert ((),) in cuts
    assert ((0,), (1,)) in cuts
    assert tuple(sorted([(0,), (1, 0), (1, 1)])) in cuts
    assert len(cuts) == 3


# ---------------------------------------------------------------------------
# cut posets


def test_cut_poset_single_deep_summand(sym2):
    rec = make_record(sym2, 3, [(((0,), 1), ((1, 0), 2), ((1, 1), 3))])
    cp = cut_poset(rec)
    assert len(cp.elements) == 1  # only the depth-one cut survives the exclusions
    check_cone_relations(cp)
    res = reduced_homology(order_complex(cp.poset), 1)
    assert all(b == 0 for b in res.betti)


def test_cut_poset_two_summands(sym2):
    rec = make_record(sym2, 5, [
        (((0,), 1), ((1, 0), 2), ((1, 1), 3)),
        (((0,), 4), ((1,), 5)),
    ])
    cp = cut_poset(rec)
    assert len(cp.elements) == 4
    check_cone_relations(cp)
    res = reduced_homology(order_complex(cp.poset), 2)
    assert all(b == 0 for b in res.betti)
    assert all(not t for t in res.torsion)


def test_cut_poset_rejects_very_elementary(sym2):
    rec = make_record(sym2, 2, [(((0,), 1), ((1,), 2))])
    with pytest.raises(ValueError):
        cut_poset(rec)


def test_all_cut_posets_acyclic_n4(sym2, triv2):
    for config in (sym2, triv2):
        for r in split_records(config, 4):
            if r.is_very_elementary:
                continue
            cp = cut_poset(r)
            check_cone_relations(cp)
            res = reduced_homology(order_complex(cp.poset), 2)
            assert all(b == 0 for b in res.betti)
            assert all(not t for t in res.torsion)


# ---------------------------------------------------------------------------
# orbit counts


def test_orbit_counts_level_only(sym2, sym3):
    for k in range(1, 6):
        assert count_cell_orbits(sym2, k, 0) == k
    # only levels congruent to r mod (q-1) are populated
    assert count_cell_orbits(sym3, 2, 0) == 1
    assert count_cell_orbits(sym3, 5, 0) == 3
    # a forest of r trees has no level below r: levels r, r+(q-1), ...
    sym2_r2, sym3_r3 = Config.make(2, 2, "sym"), Config.make(3, 3, "sym")
    assert [count_cell_orbits(sym2_r2, k, 0) for k in range(1, 6)] == [0, 1, 2, 3, 4]
    assert [count_cell_orbits(sym3_r3, k, 0) for k in range(1, 6)] == [0, 0, 1, 1, 2]
    # with r=2 and k=2 the only nondegenerate 1-chain is the swap of the two roots
    assert count_cell_orbits(sym2_r2, 2, 1) == 1


def test_orbit_counts_chains(sym2, triv2):
    assert count_cell_orbits(sym2, 1, 1) == 0
    assert count_cell_orbits(sym2, 1, 2) == 0
    # oracle-pinned regression values
    assert count_cell_orbits(sym2, 2, 1) == 2
    assert count_cell_orbits(triv2, 2, 1) == 3


def test_orbit_counts_cap(sym2):
    with pytest.raises(EnumerationCap):
        count_cell_orbits(sym2, 4, 1)


ORBIT_CONFIGS = [(2, 1, "sym"), (2, 1, "triv"), (2, 2, "sym"), (2, 3, "sym"), (3, 1, "sym"),
                 (3, 1, "triv"), (3, 2, "sym"), (3, 1, "231"), (3, 1, "213")]
# (q, r, D, k, d) where the oracle takes seconds; test_orbit_counts_pinned covers them
ORBIT_ORACLE_SLOW = {(2, 1, "sym", 3, 2), (2, 2, "sym", 3, 2), (3, 1, "sym", 3, 1),
                     (3, 1, "sym", 3, 2), (3, 1, "231", 3, 2), (3, 1, "213", 3, 2)}


def _orbit_config(q, r, name):
    """D is "sym", "triv" or the subgroup generated by one permutation word."""
    return Config.make(q, r, name if name in ("sym", "triv") else [name])


@pytest.mark.parametrize("q,r,name", ORBIT_CONFIGS,
                         ids=[f"{q}-{r}-{n}" for q, r, n in ORBIT_CONFIGS])
def test_orbit_counts_match_oracle(q, r, name):
    config = _orbit_config(q, r, name)
    for k in (1, 2, 3):
        for d in (0, 1, 2):
            if (q, r, name, k, d) not in ORBIT_ORACLE_SLOW:
                assert count_cell_orbits(config, k, d) == count_cell_orbits_oracle(config, k, d)


def test_orbit_counts_pinned():
    # computed by the TreePair oracle of tests/orbit_oracle.py
    pins = {
        (2, 1, "sym", 2): 84, (2, 1, "triv", 2): 184, (2, 2, "sym", 2): 62,
        (3, 1, "sym", 2): 30, (3, 1, "231", 2): 35, (3, 1, "213", 2): 40,
        (2, 1, "sym", 3): 424, (2, 1, "triv", 3): 944, (2, 2, "sym", 3): 312,
        (3, 1, "sym", 3): 150, (3, 1, "231", 3): 175, (2, 3, "sym", 3): 125,
        (3, 1, "triv", 3): 275,
    }
    for (q, r, name, d), want in pins.items():
        assert count_cell_orbits(_orbit_config(q, r, name), 3, d) == want


def test_orbit_counts_build_no_tree_pair(monkeypatch):
    built = []
    init = TreePair.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(TreePair, "__post_init__", counted)
    assert count_cell_orbits(Config.make(2, 1, "sym"), 3, 2) == 84
    assert built == []


# ---------------------------------------------------------------------------
# level-poset truncation


def test_morse_method_on_split_poset(sym2, triv2):
    """Building the split poset from its very elementary base by level drop,
    every descending link is the corresponding cut poset and is acyclic, so
    the whole poset has the homology of the base."""
    from sphero.posets import check_morse, descending_link, morse_build_order, poset_isomorphic

    for config in (sym2, triv2):
        n = 4
        recs = split_records(config, n)
        full = split_class_poset(recs)
        records = {r.object_id(): r for r in recs}
        base = {oid for oid, r in records.items() if r.is_very_elementary}
        heights = {oid: n - r.k for oid, r in records.items() if oid not in base}
        rep = check_morse(full, heights, base=base)
        assert rep.ok and rep.well_behaved
        for oid, built in morse_build_order(full, heights, base=base):
            over, under = descending_link(full, oid, built)
            assert under.objects == ()  # coarsenings are never built earlier
            cp = cut_poset(records[oid])
            assert poset_isomorphic(over, cp.poset)
            res = reduced_homology(order_complex(over), 2)
            assert all(b == 0 for b in res.betti)
        # acyclic links at every stage: total homology equals the base's
        h_full = reduced_homology(order_complex(underlying_poset(full)[0]), 2)
        h_base = reduced_homology(order_complex(full.full_subcategory(base)), 2)
        assert h_full.betti == h_base.betti
        assert h_full.torsion == h_base.torsion


def test_strict_class_poset_basics(sym2):
    poset, reps = strict_class_poset(sym2, max_level=3)
    assert poset.validate() is None
    # objects: 1 root tiling, 2 orders of {0,1}, 6+6 orders of the 3-tilings
    assert len(poset.objects) == 15
    assert poset.iso_pairs()  # reorderings are isomorphisms
    for oid, rep in reps.items():
        assert rep.codomain.n == sym2.r


def test_strict_class_poset_action_and_fixed_sets(sym2):
    poset, reps = strict_class_poset(sym2, max_level=4)
    tiling = {oid: parse_tiling_id(oid) for oid in poset.objects}
    swap_root = LabeledIsometry.make(2, {(): (1, 0)})
    mapping = {oid: tiling_id(act_on_tiling_object([swap_root], t)) for oid, t in tiling.items()}
    sub = fixed_subcategory(poset, [mapping])
    fixed = set(sub.objects)
    for a, b in poset.arrows:
        if a in fixed:
            assert b in fixed
    # agreement with the stabilizer test
    el = isometry_element(sym2, [swap_root])
    for oid in list(poset.objects)[:10]:
        assert stabilizer_test(el, reps[oid]) == (mapping[oid] == oid)
