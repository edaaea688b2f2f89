from functools import cached_property
from random import Random

import pytest
from homology_oracle import (basis_oracle, cells_oracle, chains_oracle, complex_from_simplices,
                             reduced_homology_oracle, simplicial_join, witness_oracle)
from hypothesis import given, settings
from hypothesis import strategies as st

from sphero import posets
from sphero.homology import reduced_homology
from sphero.posets import (
    GenPoset,
    PosetError,
    chain_count,
    check_morse,
    coone,
    descending_link,
    fixed_subcategory,
    join,
    morse_build_order,
    order_complex,
    poset_isomorphic,
    quotient_by_subgroupoid,
    transitive_closure,
    underlying_poset,
)


def test_validate_chain():
    p = GenPoset.make(["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")])
    assert p.validate() is None


def test_validate_reports_missing_composite():
    p = GenPoset.make(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert p.validate() == ("0", "1", "2")
    with pytest.raises(PosetError):
        p.require_valid()


def test_validate_reports_the_least_witness():
    # a -> c -> d and b -> c -> d both lack their composite: the sorted scan meets a -> c first
    p = GenPoset.make("abcde", [("d", "e"), ("c", "d"), ("b", "c"), ("a", "c"), ("a", "b")])
    assert p.validate() == witness_oracle(p) == ("a", "c", "d")


def test_validate_matches_the_sorted_scan_on_random_relations():
    rng = Random(20261032)
    open_ = 0
    for _ in range(300):
        objs = [str(i) for i in range(rng.randint(1, 9))]
        arrows = [(a, b) for a in objs for b in objs if rng.random() < 0.3]
        p = GenPoset.make(objs, arrows)
        assert p.validate() == witness_oracle(p), arrows
        open_ += p.validate() is not None
    assert 100 < open_ < 290, open_


def test_validate_scans_each_poset_once(monkeypatch):
    # the poset is frozen, so its witness is kept: order_complex after
    # require_valid does not scan again, and a bad poset raises every time
    scanned = []
    scan = GenPoset._witness.func
    counted = cached_property(lambda self: scanned.append(self) or scan(self))
    counted.__set_name__(GenPoset, "_witness")
    monkeypatch.setattr(GenPoset, "_witness", counted)
    good = transitive_closure("abcd", [("a", "b"), ("b", "c"), ("c", "d")]).require_valid()
    order_complex(good)
    assert good.validate() is None and scanned == [good]
    bad = GenPoset.make(["0", "1", "2"], [("0", "1"), ("1", "2")])
    for _ in range(2):
        with pytest.raises(PosetError, match="missing composite for 0 -> 1 -> 2"):
            bad.require_valid()
    assert scanned == [good, bad]


def test_iso_pair_is_valid():
    p = GenPoset.make(["a", "b"], [("a", "b"), ("b", "a")])
    assert p.validate() is None
    assert not p.is_honest


def test_quotient_collapses_iso_pair():
    p = GenPoset.make(["a", "b"], [("a", "b"), ("b", "a")])
    q, proj = quotient_by_subgroupoid(p, [("a", "b")])
    assert q.objects == ("a",)
    assert not q.arrows
    assert proj == {"a": "a", "b": "a"}


def test_quotient_by_trivial_subgroupoid_is_identity():
    p = transitive_closure(["x", "y", "z"], [("x", "y"), ("y", "z")])
    q, proj = quotient_by_subgroupoid(p, [])
    assert q == p


def test_quotient_four_object_example():
    arrows = [("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"),
              ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")]
    p = GenPoset.make(["A", "B", "C", "D"], arrows)
    assert p.validate() is None
    q, proj = underlying_poset(p)
    assert q.objects == ("A", "C")
    assert q.arrows == frozenset({("A", "C")})


def test_quotient_joins_a_chain_of_iso_pairs():
    # a ≅ b ≅ c listed as (a, b), (b, c): composition closure already holds a ≅ c
    iso = [(x, y) for x in "abc" for y in "abc" if x != y]
    p = GenPoset.make(["a", "b", "c", "d"], iso + [(x, "d") for x in "abc"])
    q, proj = quotient_by_subgroupoid(p, [("a", "b"), ("b", "c")])
    assert proj == {"a": "a", "b": "a", "c": "a", "d": "d"}
    assert q == GenPoset.make(["a", "d"], [("a", "d")])


def test_subgroupoid_validation():
    p = transitive_closure(["x", "y"], [("x", "y")])
    with pytest.raises(PosetError):
        quotient_by_subgroupoid(p, [("x", "y")])


def test_join_two_points():
    c = GenPoset.make(["a"], [])
    d = GenPoset.make(["b"], [])
    j = join(c, d)
    assert j.objects == ("a", "b")
    assert j.arrows == frozenset({("a", "b")})


def test_join_discrete_pairs_is_circle():
    c = GenPoset.make(["a1", "a2"], [])
    d = GenPoset.make(["b1", "b2"], [])
    res = reduced_homology(order_complex(join(c, d)), 1)
    assert res.betti == (0, 1)


def test_join_with_empty_is_identity():
    c = transitive_closure(["a", "b"], [("a", "b")])
    assert join(c, GenPoset.make([], [])) == c


def test_join_id_collision():
    c = GenPoset.make(["a"], [])
    with pytest.raises(PosetError):
        join(c, c)


def test_coone_point_pair_is_acyclic():
    c = GenPoset.make(["a"], [])
    d = GenPoset.make(["b"], [])
    res = reduced_homology(order_complex(coone(c, d)), 2)
    assert all(b == 0 for b in res.betti)


def test_coone_over_empty_base():
    d = transitive_closure(["b1", "b2"], [("b1", "b2")])
    k = coone(GenPoset.make([], []), d)
    assert ("tip", "b1") in k.arrows
    res = reduced_homology(order_complex(k), 2)
    assert all(b == 0 for b in res.betti)


def test_coone_discrete_pairs_acyclic():
    c = GenPoset.make(["a1", "a2"], [])
    d = GenPoset.make(["b1", "b2"], [])
    res = reduced_homology(order_complex(coone(c, d)), 3)
    assert all(b == 0 for b in res.betti)
    assert all(not t for t in res.torsion)


def test_order_complex_chain():
    p = transitive_closure(["0", "1", "2"], [("0", "1"), ("1", "2")])
    cc = order_complex(p)
    assert cc.n_cells(2) == 1
    assert reduced_homology(cc, 2).betti == (0, 0, 0)


def test_order_complex_antichain():
    p = GenPoset.make(["a", "b", "c"], [])
    res = reduced_homology(order_complex(p), 1)
    assert res.betti[0] == 2


def test_order_complex_triangle_boundary_face_poset():
    verts = ["1", "2", "3"]
    edges = ["12", "13", "23"]
    arrows = [(v, e) for v in verts for e in edges if v in e]
    p = GenPoset.make(verts + edges, arrows)
    res = reduced_homology(order_complex(p), 1)
    assert res.betti == (0, 1)


def test_order_complex_refuses_generalized_posets():
    p = GenPoset.make(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(PosetError):
        order_complex(p)


def test_order_complex_matches_chains_oracle():
    # honest posets: closures of random DAGs whose arrows ignore the id order
    rng = Random(20261018)
    for _ in range(150):
        n = rng.randint(1, 8)
        ids = [f"x{rng.randrange(100)}_{i}" for i in range(n)]
        rng.shuffle(ids)
        arrows = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        p = transitive_closure(ids, arrows)
        cx, oracle = order_complex(p), complex_from_simplices(chains_oracle(p))
        assert [{frozenset(s) for s in cells} for cells in basis_oracle(cx)] == \
            [{frozenset(s) for s in cells} for cells in basis_oracle(oracle)]
        assert reduced_homology(cx, cx.dim) == reduced_homology_oracle(oracle, oracle.dim)
        assert chain_count(p) == sum(map(len, cells_oracle(cx))) == sum(map(len, chains_oracle(p)))
    # the cliques are the chains only for a relation closed under composition
    with pytest.raises(PosetError, match="missing composite"):
        order_complex(GenPoset.make(["a", "b", "c"], [("a", "b"), ("b", "c")]))


def test_order_complex_dimension_is_the_height(monkeypatch):
    # flag_complex is capped at the longest chain's length, not the object count
    caps = []
    real = posets.flag_complex
    monkeypatch.setattr(posets, "flag_complex", lambda *args: caps.append(args[2]) or real(*args))
    verts, edges = ["1", "2", "3"], ["12", "13", "23"]
    samples = [
        transitive_closure(["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")]),
        GenPoset.make(["a", "b", "c"], []),
        GenPoset.make(verts + edges, [(v, e) for v in verts for e in edges if v in e]),
        coone(GenPoset.make(["a", "b"], []), GenPoset.make(["c", "d"], [])),
    ]
    rng = Random(20261020)
    for _ in range(30):
        n = rng.randint(1, 8)
        ids = [f"x{i}" for i in range(n)]
        rng.shuffle(ids)
        samples.append(transitive_closure(ids, [(ids[i], ids[j]) for i in range(n)
                                                for j in range(i + 1, n) if rng.random() < 0.3]))
    heights = set()
    for p in samples:
        height = len(chains_oracle(p)) - 1
        assert order_complex(p).dim == height == caps[-1]
        heights.add(height)
    assert {0, 1, 2, 3} <= heights


def test_descending_link_parts():
    p = transitive_closure(["a", "b", "x"], [("a", "b"), ("a", "x"), ("b", "x")])
    over, under = descending_link(p, "x", {"a", "b"})
    assert over.objects == ("a", "b")
    assert under.objects == ()


def test_descending_link_disjoint_point():
    p = GenPoset.make(["a", "x"], [])
    over, under = descending_link(p, "x", {"a"})
    assert over.objects == () and under.objects == ()


def test_descending_link_rejects_isomorphic_base():
    p = GenPoset.make(["a", "x"], [("a", "x"), ("x", "a")])
    with pytest.raises(PosetError):
        descending_link(p, "x", {"a"})


def test_fixed_subcategory_trivial_action():
    p = transitive_closure(["a", "b"], [("a", "b")])
    assert fixed_subcategory(p, [{"a": "a", "b": "b"}]) == p


def test_fixed_subcategory_drops_swapped_pair():
    p = GenPoset.make(["a", "b", "c"], [("a", "c"), ("b", "c")])
    sub = fixed_subcategory(p, [{"a": "b", "b": "a", "c": "c"}])
    assert sub.objects == ("c",)


def test_fixed_subcategory_requires_functoriality():
    p = GenPoset.make(["a", "b", "c"], [("a", "c")])
    with pytest.raises(PosetError):
        fixed_subcategory(p, [{"a": "b", "b": "a", "c": "c"}])


def test_check_morse():
    p = transitive_closure(["a", "b"], [("a", "b")])
    assert check_morse(p, {"a": 0, "b": 1}).ok
    assert not check_morse(p, {"a": 0, "b": 0}).ok
    iso = GenPoset.make(["a", "b"], [("a", "b"), ("b", "a")])
    rep = check_morse(iso, {"a": 0, "b": 1})
    assert not rep.well_behaved


# ---------------------------------------------------------------------------
# randomized structure tests


def random_genposet(rng: Random, n_objects: int = 8) -> GenPoset:
    """Random honest poset with some objects blown up into isomorphism pairs."""
    names = [f"o{i}" for i in range(n_objects)]
    arrows = set()
    for i in range(n_objects):
        for j in range(i + 1, n_objects):
            if rng.random() < 0.3:
                arrows.add((names[i], names[j]))
    base = transitive_closure(names, arrows)
    # duplicate a few objects into unique-isomorphism clusters
    objs = list(base.objects)
    arr = set(base.arrows)
    for o in list(objs):
        if rng.random() < 0.3:
            twin = o + "'"
            objs.append(twin)
            arr.add((o, twin))
            arr.add((twin, o))
            for a, b in list(arr):
                if a == o and b not in (twin, o):
                    arr.add((twin, b))
                if b == o and a not in (twin, o):
                    arr.add((a, twin))
    return GenPoset.make(objs, arr).require_valid()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_collapses_compose(seed):
    rng = Random(seed)
    c = random_genposet(rng)
    isos = sorted(c.iso_pairs())
    if not isos:
        return
    part = [p for p in isos if rng.random() < 0.5]
    part = [p for p in part if (p[1], p[0]) in part or True]
    sym_part = set()
    for a, b in part:
        sym_part.add((a, b))
        sym_part.add((b, a))
    q1, _ = quotient_by_subgroupoid(c, sym_part)
    u_two_step, _ = underlying_poset(q1)
    u_direct, _ = underlying_poset(c)
    assert poset_isomorphic(u_two_step, u_direct)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_join_matches_simplicial_join_oracle(seed):
    rng = Random(seed)
    a = transitive_closure([f"a{i}" for i in range(3)],
                           [(f"a{i}", f"a{j}") for i in range(3) for j in range(i + 1, 3)
                            if rng.random() < 0.5])
    b = transitive_closure([f"b{i}" for i in range(3)],
                           [(f"b{i}", f"b{j}") for i in range(3) for j in range(i + 1, 3)
                            if rng.random() < 0.5])
    joined = join(a, b)
    res_cat = reduced_homology(order_complex(joined), 3)
    oracle = simplicial_join(order_complex(a), order_complex(b))
    res_oracle = reduced_homology_oracle(oracle, 3)
    assert res_cat.betti == res_oracle.betti
    assert res_cat.torsion == res_oracle.torsion


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_coone_always_acyclic(seed):
    rng = Random(seed)
    c = random_genposet(rng, 5)
    d_names = [f"d{i}" for i in range(3)]
    d = transitive_closure(d_names, [(x, y) for i, x in enumerate(d_names)
                                     for y in d_names[i + 1:] if rng.random() < 0.4])
    k = coone(c, d)
    honest, _ = underlying_poset(k)
    res = reduced_homology(order_complex(honest), 3)
    assert all(x == 0 for x in res.betti)
    assert all(not t for t in res.torsion)


def test_descending_links_of_isomorphic_objects_match():
    # two objects of equal Morse value joined by an isomorphism have
    # isomorphic descending links relative to the lower levels
    objs = ["low1", "low2", "x", "y"]
    arrows = {("x", "y"), ("y", "x"), ("low1", "x"), ("low1", "y"),
              ("x", "low2"), ("y", "low2"), ("low1", "low2")}
    p = GenPoset.make(objs, arrows).require_valid()
    lower = {"low1", "low2"}
    over_x, under_x = descending_link(p, "x", lower - set())
    over_y, under_y = descending_link(p, "y", lower - set())
    assert poset_isomorphic(join(over_x, under_x), join(over_y, under_y))


def test_morse_build_order_levels():
    p = transitive_closure(["a", "b", "c"], [("a", "b"), ("a", "c")])
    values = {"b": 1, "c": 2}
    rep = check_morse(p, values, base={"a"})
    assert rep.ok and rep.well_behaved
    order = list(morse_build_order(p, values, base={"a"}))
    assert [x for x, _ in order] == ["b", "c"]
    assert order[1][1] == {"a", "b"}
