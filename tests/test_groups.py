import json
import math
import os
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groups_oracle as oracle
from sphero.cli import main as cli_main
from sphero.groups import (
    INFINITE_DISTANCE,
    ArrowKind,
    Config,
    LabeledIsometry,
    LeafPartition,
    TreePair,
    _entries,
    _codomain_side,
    _domain_side,
    _reduce,
    _refinement_walk,
    _walk,
    canonical_form,
    classify_arrow,
    common_prefix_length,
    common_refinement,
    compose,
    conjugates_into,
    depth_triviality,
    element_from_json,
    element_to_json,
    expand_leaf,
    forest_portraits,
    identity_element,
    inverse,
    is_merge_kind,
    isometry_element,
    random_element,
    random_labeled_isometry,
    random_partition,
    stabilizer_test,
    subnormal_depth,
    thompson_membership,
    visual_distance,
)
from sphero.perms import close_under_group_ops, word_to_perm

from conftest import make_x0


# ---------------------------------------------------------------------------
# addresses and partitions


def test_common_prefix_length_basics():
    assert common_prefix_length((1, (0, 1, 0)), (1, (0, 1, 1))) == 2
    assert common_prefix_length((1, (0,)), (2, (0,))) == INFINITE_DISTANCE
    assert common_prefix_length((1, ()), (1, (0, 1, 1, 0))) == 0


def test_visual_distance_across_summands_is_infinite():
    assert visual_distance((1, (0,)), (2, (0,))) == math.inf
    assert visual_distance((1, (0, 1)), (1, (0, 0))) == math.exp(-1)


def test_common_refinement_examples(triv2):
    root = LeafPartition(1, ((1, ()),))
    depth1 = LeafPartition(1, ((1, (0,)), (1, (1,))))
    assert common_refinement(root, depth1) == depth1

    p1 = LeafPartition(1, ((1, (0, 0)), (1, (0, 1)), (1, (1,))))
    p2 = LeafPartition(1, ((1, (0,)), (1, (1, 0)), (1, (1, 1))))
    got = common_refinement(p1, p2)
    assert [w for _, w in got.leaves] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    assert common_refinement(p1, p1) == p1


def test_common_refinement_rejects_mismatched_summands():
    p1 = LeafPartition(1, ((1, ()),))
    p2 = LeafPartition(2, ((1, ()), (2, ())))
    with pytest.raises(ValueError):
        common_refinement(p1, p2)


def test_partition_validation_rejects_incomplete_codes():
    with pytest.raises(ValueError):
        LeafPartition(1, ((1, (0,)),)).validate(2)
    with pytest.raises(ValueError):
        LeafPartition(1, ((1, ()), (1, (0,)))).validate(2)


def _verdict(check, part, q):
    try:
        check(part, q)
    except ValueError as exc:
        return str(exc)
    return None


def _corruptions(rng, part, q):
    """The partition, then corrupted copies.

    A leaf is dropped, duplicated or put in place of a same-depth twin, a
    parent is kept beside its children, a digit or a summand is out of range.
    """
    leaves = list(part.leaves)
    s, w = leaves[rng.randrange(len(leaves))]
    deep = [a for a in leaves if a[1]]
    yield leaves
    yield [a for a in leaves if a != (s, w)]
    yield leaves + [(s, w)]
    # a duplicate in place of a leaf of the same depth keeps the Kraft sum
    twins = [a for a in leaves if a[0] == s and len(a[1]) == len(w) and a[1] != w]
    if twins:
        yield [a for a in leaves if a != twins[0]] + [(s, w)]
    if deep:
        t, x = deep[rng.randrange(len(deep))]
        yield leaves + [(t, x[:-1])]
        yield [a for a in leaves if a != (t, x)] + [(t, x[:-1] + (rng.choice((-1, q)),))]
    yield [a for a in leaves if a != (s, w)] + [(rng.choice((0, part.n + 1)), w)]


def test_partition_validation_matches_prefix_code_oracle(rng):
    verdicts = set()
    for q in (2, 3):
        config = Config.make(q, 1, "triv")
        for _ in range(150):
            part = random_partition(rng, config, rng.randint(1, 3), 3)
            for leaves in _corruptions(rng, part, q):
                p = LeafPartition(part.n, tuple(sorted(leaves)))
                got = _verdict(LeafPartition.validate, p, q)
                assert got == _verdict(oracle.validate_partition, p, q), leaves
                verdicts.add(got and ("code" if "prefix code" in got else got.split()[0]))
    assert verdicts == {None, "code", "summand", "digit"}  # every outcome was reached


def test_partition_validation_matches_oracle_on_every_small_leaf_set():
    # every set of words up to depth 3 at q=2 and depth 2 at q=3 on one
    # summand, and up to depth 1 at q=2 on two, as leaves
    valid = 0
    for q, n, depth in ((2, 1, 3), (3, 1, 2), (2, 2, 1)):
        words = [w for d in range(depth + 1) for w in product(range(q), repeat=d)]
        addresses = [(s, w) for s in range(1, n + 1) for w in words]
        for mask in range(1 << len(addresses)):
            p = LeafPartition(n, tuple(sorted(a for i, a in enumerate(addresses) if mask >> i & 1)))
            got = _verdict(LeafPartition.validate, p, q)
            assert got == _verdict(oracle.validate_partition, p, q), p.leaves
            valid += got is None
    assert valid == 26 + 9 + 2 * 2  # complete codes: c(d) = 1 + c(d - 1)^q, c(0) = 1


def test_partition_order_check_matches_a_sorted_copy(rng):
    # the one-scan order check of LeafPartition against the comparison with a sorted copy that
    # it replaced: the same ValueError for the same leaves, adjacent duplicates passing
    outcomes = Counter()
    for q in (2, 3):
        config = Config.make(q, 1, "triv")
        for _ in range(150):
            part = random_partition(rng, config, rng.randint(1, 3), 3)
            for leaves in ([], list(part.leaves[:1]), *_corruptions(rng, part, q)):
                for order in (sorted(leaves), rng.sample(leaves, len(leaves))):
                    want = "leaves must be canonically sorted" if order != sorted(order) else None
                    got = _verdict(LeafPartition, part.n, tuple(order))
                    assert got == want, order
                    outcomes[got, len(set(order)) < len(order)] += 1
    assert len(outcomes) == 4, outcomes  # sorted or not, with and without duplicates


# ---------------------------------------------------------------------------
# composition and canonical forms


def test_compose_x0_with_itself(x0):
    sq = compose(x0, x0)
    assert [w for _, w in sq.domain.leaves] == [(0, 0, 0), (0, 0, 1), (0, 1), (1,)]
    assert [w for _, w in sq.codomain.leaves] == [(0,), (1, 0), (1, 1, 0), (1, 1, 1)]


def test_group_identities(x0, triv2):
    ident = identity_element(triv2)
    assert compose(x0, inverse(x0)) == ident
    assert compose(inverse(x0), x0) == ident
    assert compose(ident, x0) == x0
    assert compose(x0, ident) == x0


def test_canonical_form_is_fixpoint_on_reduced(x0):
    assert canonical_form(x0) == x0


def test_canonical_form_returns_a_reduced_pair_itself(rng, x0, sym2):
    assert canonical_form(x0) is x0
    for _ in range(20):
        c = canonical_form(_expanded(rng, random_element(rng, sym2, 3), 2))
        assert canonical_form(c) is c


def test_canonical_form_collapses_subdivided_identity(triv2):
    part = LeafPartition(1, ((1, (0,)), (1, (1,))))
    decs = (LabeledIsometry.identity(2),) * 2
    sub = TreePair(triv2, part, part, (0, 1), decs)
    assert canonical_form(sub) == identity_element(triv2)


def test_canonical_form_invariant_under_expansion(rng, sym2):
    for _ in range(30):
        g = random_element(rng, sym2, 3)
        h = g
        for _ in range(3):
            h = expand_leaf(h, rng.randrange(len(h.domain.leaves)))
        assert canonical_form(h) == g


def test_expand_leaf_preserves_boundary_action(rng, sym2):
    g = random_element(rng, sym2, 3)
    h = expand_leaf(g, 0)
    assert h.act_on_depth(8) == g.act_on_depth(8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_group_laws_random(seed):
    rng = Random(seed)
    config = Config.make(2, rng.choice([1, 2]), rng.choice(["sym", "triv"]))
    a = random_element(rng, config, 3)
    b = random_element(rng, config, 3)
    c = random_element(rng, config, 3)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, inverse(a)) == identity_element(config)
    assert canonical_form(a) == a


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_boundary_action_oracle(seed):
    rng = Random(seed)
    config = Config.make(2, 1, rng.choice(["sym", "triv"]))
    a = random_element(rng, config, 3)
    b = random_element(rng, config, 3)
    ab = compose(a, b)
    for x, bx in b.act_on_depth(8).items():
        assert ab.apply(x) == a.apply(bx)


def test_q3_composition(rng, sym3):
    for _ in range(15):
        a = random_element(rng, sym3, 2)
        b = random_element(rng, sym3, 2)
        ab = compose(a, b)
        for x, bx in b.act_on_depth(5).items():
            assert ab.apply(x) == a.apply(bx)


# ---------------------------------------------------------------------------
# the earlier arithmetic (tests/groups_oracle.py) as oracle

ORACLE_CONFIGS = [(q, d, r) for q, d in ((2, "sym"), (2, "triv"), (3, "sym"), (3, "triv"),
                                        (3, ["213"])) for r in (1, 2)]


def _expanded(rng, g, times):
    for _ in range(times):
        g = expand_leaf(g, rng.randrange(len(g.domain.leaves)))
    return g


def test_apply_word_matches_oracle(rng):
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for _ in range(40):
            iso = random_labeled_isometry(rng, config, 3)
            for _ in range(3):
                iso = iso.compose(random_labeled_isometry(rng, config, 3))
            for _ in range(10):
                word = tuple(rng.randrange(q) for _ in range(rng.randrange(6)))
                assert iso.apply_word(word) == oracle.apply_word(iso, word)


def test_isometry_ops_return_normal_labels(rng):
    # restrict, inverse and compose build their labels without make; they must
    # equal make of the same labels and act as the composite maps
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for _ in range(40):
            a = random_labeled_isometry(rng, config, 3).compose(random_labeled_isometry(rng, config, 3))
            b = random_labeled_isometry(rng, config, 3)
            u = tuple(rng.randrange(q) for _ in range(rng.randrange(3)))
            ab, inv, sub = a.compose(b), a.inverse(), a.restrict(u)
            for iso in (ab, inv, sub):
                assert iso == LabeledIsometry.make(q, iso.label_dict())
            for _ in range(10):
                word = tuple(rng.randrange(q) for _ in range(rng.randrange(6)))
                assert ab.apply_word(word) == a.apply_word(b.apply_word(word))
                assert inv.apply_word(a.apply_word(word)) == word
                assert a.apply_word(u + word) == a.apply_word(u) + sub.apply_word(word)


def test_reduce_builds_normal_labels(rng):
    # _reduce builds each merged cherry's labels without make: the root label,
    # then each child's labels under its digit; they must equal make of the
    # same labels, and the merges must undo the expansions
    merged = 0
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for _ in range(20):
            g = random_element(rng, config, 3)
            h = _expanded(rng, g, 4)
            entries = _reduce(config, _entries(h))
            for _img, dec in entries.values():
                assert dec == LabeledIsometry.make(q, dec.label_dict())
            assert entries == _entries(g)
            merged += len(h.leaf_map) - len(entries)
    assert merged >= 4 * 20 * len(ORACLE_CONFIGS)


def test_group_ops_match_oracle(rng):
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for _ in range(12):
            a, b = random_element(rng, config, 3), random_element(rng, config, 3)
            assert compose(a, b) == oracle.compose(a, b)
            assert inverse(a) == oracle.inverse(a)
            raw_a, raw_b = _expanded(rng, a, rng.randint(1, 3)), _expanded(rng, b, rng.randint(1, 3))
            assert canonical_form(raw_a) == oracle.canonical_form(raw_a) == a
            assert compose(raw_a, raw_b) == oracle.compose(raw_a, raw_b)
            assert inverse(raw_a) == oracle.inverse(raw_a)


def test_local_similarity_ops_match_oracle(rng):
    # h: n -> k and g: k -> m summands with n, k, m distinct
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        n, k, m = 1 + 2 * (q - 1), 1 + (q - 1), 1
        for _ in range(12):
            h = random_element(rng, config, 3, n=n, m=k)
            g = random_element(rng, config, 3, n=k, m=m)
            assert compose(g, h) == oracle.compose(g, h)
            assert inverse(h) == oracle.inverse(h)
            assert compose(inverse(g), g) == identity_element(config, k)
            raw = _expanded(rng, h, rng.randint(1, 3))
            assert canonical_form(raw) == oracle.canonical_form(raw) == h


def test_expand_leaf_matches_oracle_refinement(rng):
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for trial in range(20):
            g = random_element(rng, config, 3, n=r + (q - 1) * (trial % 2))
            i = rng.randrange(len(g.domain.leaves))
            s, w = g.domain.leaves[i]
            finer = sorted(set(g.domain.leaves) - {(s, w)} | {(s, w + (x,)) for x in range(q)})
            want = oracle.refine_domain(g, LeafPartition(g.domain.n, tuple(finer)))
            assert expand_leaf(g, i) == want


def _oracle_depth(g):
    portraits = oracle.forest_portraits(g)
    if portraits is None:
        return None
    return min((p.min_support_depth() for p in portraits), default=math.inf)


def _half_swap(config):
    """Swap the first two children of the root of summand 1, labels trivial."""
    q, r = config.q, config.r
    part = LeafPartition(r, tuple(sorted([(1, (d,)) for d in range(q)]
                                         + [(s, ()) for s in range(2, r + 1)])))
    leaf_map = (1, 0) + tuple(range(2, len(part.leaves)))
    decs = (LabeledIsometry.identity(q),) * len(part.leaves)
    return TreePair(config, part, part, leaf_map, decs)


def _strictness_inputs(rng, config):
    """Isometries (expanded 0-3 times), random elements, conjugates and the half swap."""
    q, r = config.q, config.r
    for _ in range(15):
        iso = isometry_element(config, [random_labeled_isometry(rng, config, 3) for _ in range(r)])
        yield _expanded(rng, iso, rng.randint(0, 3))
        yield _expanded(rng, random_element(rng, config, 3), rng.randint(0, 1))
        # phi nu phi^-1 with nu an isometry of the domain forest of phi, as in
        # the subnormality test of conjugates_into
        n = rng.choice([r, r + q - 1])
        phi = random_element(rng, config, 3, n=n, m=r)
        nu = isometry_element(config, [random_labeled_isometry(rng, config, 3) for _ in range(n)], n)
        yield compose(phi, compose(nu, inverse(phi)))
    yield _half_swap(config)


def test_strictness_matches_oracle(rng):
    strict = not_strict = 0
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for g in _strictness_inputs(rng, config):
            want = oracle.forest_portraits(g)
            assert forest_portraits(g) == want
            assert depth_triviality(g) == _oracle_depth(g)
            assert (classify_arrow(g) == ArrowKind.STRICT_TRANSFORMATION) == (want is not None)
            strict += want is not None
            not_strict += want is None
    assert strict > 200 and not_strict > 50


def _refined(rng, part, q, times):
    leaves = set(part.leaves)
    for _ in range(times):
        s, w = sorted(leaves)[rng.randrange(len(leaves))]
        leaves.remove((s, w))
        leaves.update((s, w + (x,)) for x in range(q))
    return LeafPartition(part.n, tuple(sorted(leaves)))


def test_common_refinement_matches_oracle(rng):
    for q in (2, 3):
        for r in (1, 2):
            config = Config.make(q, r, "triv")
            for _ in range(40):
                p1, p2 = (random_partition(rng, config, r, 3) for _ in range(2))
                finer = _refined(rng, p1, q, rng.randint(1, 4))
                for a, b in ((p1, p2), (p2, p1), (p1, p1), (p1, finer), (finer, p1)):
                    assert common_refinement(a, b) == oracle.common_refinement(a, b)


def test_refinement_walk_indexes_the_leaves_above(rng):
    # the walk's leaves are the refinement, each with the leaves above it on both sides
    walked = 0
    for q in (2, 3):
        for r in (1, 2):
            config = Config.make(q, r, "triv")
            for _ in range(40):
                p1, p2 = (random_partition(rng, config, r, 3) for _ in range(2))
                finer = _refined(rng, p1, q, rng.randint(1, 4))
                for a, b in ((p1, p2), (p2, p1), (p1, p1), (p1, finer), (finer, p1)):
                    want = [(c, a.leaf_index_of(c), b.leaf_index_of(c))
                            for c in oracle.common_refinement(a, b).leaves]
                    assert list(_refinement_walk(a.leaves, b.leaves)) == want
                    assert common_refinement(a, b).leaves == tuple(c for c, _, _ in want)
                    walked += len(want)
    assert walked > 2000


def test_walk_reads_either_factor_as_its_inverse(rng):
    # the reduced walk with a side read as its inverse is the composite with
    # that factor inverted, against the oracle's built inverses and composites
    for q, d, r in ORACLE_CONFIGS:
        config = Config.make(q, r, d)
        for _ in range(8):
            g, h = (_expanded(rng, random_element(rng, config, 3), rng.randint(0, 2)) for _ in range(2))
            cases = [
                (_codomain_side(g), _codomain_side(h), True, False, oracle.inverse(g), h),
                (_domain_side(g), _domain_side(h), False, True, g, oracle.inverse(h)),
                (_codomain_side(g), _domain_side(h), True, True, oracle.inverse(g), oracle.inverse(h)),
            ]
            for front, back, front_inverse, back_inverse, a, b in cases:
                entries = _reduce(config, _walk(front, back, front_inverse, back_inverse))
                assert entries == _entries(oracle.compose(a, b))


def test_compose_and_inverse_build_one_pair(rng, monkeypatch):
    config = Config.make(3, 2, "sym")
    a, b = (_expanded(rng, random_element(rng, config, 3), 2) for _ in range(2))
    built = []
    init = TreePair.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(TreePair, "__post_init__", counted)
    compose(a, b)
    assert len(built) == 1
    inverse(a)
    assert len(built) == 2


def test_forest_portraits_builds_no_pair_on_a_reduced_strict_transformation(rng, monkeypatch):
    config = Config.make(2, 2, "sym")
    phi = random_element(rng, config, 3, n=3, m=2)
    nu, mu = (isometry_element(config, [random_labeled_isometry(rng, config) for _ in range(3)], 3)
              for _ in range(2))
    # the reduced pairs compose returns: a strict product, and a conjugate as in conjugates_into
    strict, conj = compose(nu, mu), compose(phi, compose(nu, inverse(phi)))
    built = []
    init = TreePair.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(TreePair, "__post_init__", counted)
    assert forest_portraits(nu) is not None and forest_portraits(strict) is not None
    forest_portraits(conj)
    assert built == []


def test_group_decisions_build_no_pair(rng, monkeypatch):
    # stabilizer_test, conjugates_into and subnormal_depth return no pair, so they build none
    config = Config.make(3, 1, "sym")
    phi = random_element(rng, config, 3, n=3, m=1)
    nu = isometry_element(config, [random_labeled_isometry(rng, config) for _ in range(3)], 3)
    gamma = compose(phi, compose(nu, inverse(phi)))
    scaled = compose(phi, compose(_non_isometry(rng, config, 3), inverse(phi)))
    built = []
    init = TreePair.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(TreePair, "__post_init__", counted)
    assert stabilizer_test(gamma, phi) and not stabilizer_test(scaled, phi)
    conjugates_into(phi, 1, 2)
    subnormal_depth(phi, 2)
    assert built == []


# ---------------------------------------------------------------------------
# labels only on vertices of the tree


def _json_with_label_at(word):
    doc = element_to_json(identity_element(Config.make(2, 1, "sym")))
    doc["decorations"] = [{word: "21"}]
    return doc


def test_label_off_the_tree_is_rejected():
    with pytest.raises(ValueError):
        LabeledIsometry.make(2, {(5,): (1, 0)})
    with pytest.raises(ValueError):
        element_from_json(_json_with_label_at("5"))
    assert element_from_json(_json_with_label_at("1")).decorations[0].labels == (((1,), (1, 0)),)


def test_cli_rejects_label_off_the_tree(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_json_with_label_at("5")))
    assert cli_main(["group", "canon", "--input", str(bad)]) == 2


# ---------------------------------------------------------------------------
# depth triviality


def test_depth_triviality_identity(sym2):
    assert depth_triviality(identity_element(sym2)) == math.inf


def test_depth_triviality_of_slope_changing_element(sym2):
    assert depth_triviality(make_x0(sym2)) is None


def test_depth_triviality_single_label(sym2):
    el = isometry_element(sym2, [LabeledIsometry.make(2, {(0, 1): (1, 0)})])
    assert depth_triviality(el) == 2


def test_depth_triviality_rejects_labels_outside_group(triv2):
    # the half swap is an element of the group but not a D-admissible isometry
    part = LeafPartition(1, ((1, (0,)), (1, (1,))))
    decs = (LabeledIsometry.identity(2),) * 2
    swap = TreePair(triv2, part, part, (1, 0), decs)
    assert depth_triviality(swap) is None


def test_depth_triviality_submultiplicative(rng, sym2):
    from sphero.groups import random_labeled_isometry

    for _ in range(40):
        g = isometry_element(sym2, [random_labeled_isometry(rng, sym2, 3)])
        h = isometry_element(sym2, [random_labeled_isometry(rng, sym2, 3)])
        dg, dh = depth_triviality(g), depth_triviality(h)
        dgh = depth_triviality(compose(g, h))
        assert dgh >= min(dg, dh)


# ---------------------------------------------------------------------------
# arrow classification


def _very_elementary_merge(config):
    dom = LeafPartition(2, ((1, ()), (2, ())))
    cod = LeafPartition(1, ((1, (0,)), (1, (1,))))
    decs = (LabeledIsometry.identity(config.q),) * 2
    return TreePair(config, dom, cod, (0, 1), decs)


def test_classify_very_elementary_merge(sym2):
    assert classify_arrow(_very_elementary_merge(sym2)) == ArrowKind.VERY_ELEMENTARY_MERGE


def test_classify_plain_merge(sym2):
    dom = LeafPartition(3, ((1, ()), (2, ()), (3, ())))
    cod = LeafPartition(1, ((1, (0,)), (1, (1, 0)), (1, (1, 1))))
    decs = (LabeledIsometry.identity(2),) * 3
    assert classify_arrow(TreePair(sym2, dom, cod, (0, 1, 2), decs)) == ArrowKind.MERGE


def test_classify_transformation(sym2):
    part = LeafPartition(2, ((1, ()), (2, ())))
    decs = (LabeledIsometry.identity(2),) * 2
    swap = TreePair(sym2, part, part, (1, 0), decs)
    assert classify_arrow(swap) == ArrowKind.TRANSFORMATION
    assert classify_arrow(identity_element(sym2)) == ArrowKind.STRICT_TRANSFORMATION


def test_classify_split_is_not_an_arrow(sym2):
    split = inverse(_very_elementary_merge(sym2))
    assert classify_arrow(split) == ArrowKind.NOT_AN_ARROW


def _random_merge(rng, config, n, m):
    from sphero.groups import random_labeled_isometry, random_partition_with_leaf_count

    cod = random_partition_with_leaf_count(rng, config, m, n)
    order = list(range(n))
    rng.shuffle(order)
    dom = LeafPartition(n, tuple((s, ()) for s in range(1, n + 1)))
    decs = tuple(random_labeled_isometry(rng, config) for _ in range(n))
    return TreePair(config, dom, cod, tuple(order), decs)


def test_merge_composed_with_transformation_is_merge(rng, sym2):
    for _ in range(20):
        n = rng.choice([2, 3])
        merge = _random_merge(rng, sym2, n, 1)
        assert is_merge_kind(classify_arrow(merge))
        sigma = list(range(n))
        rng.shuffle(sigma)
        part = LeafPartition(n, tuple((s, ()) for s in range(1, n + 1)))
        trans = TreePair(sym2, part, part, tuple(sigma),
                         tuple(LabeledIsometry.identity(2) for _ in range(n)))
        assert is_merge_kind(classify_arrow(compose(merge, trans)))


# ---------------------------------------------------------------------------
# stabilizers, subnormality, membership flags


def test_stabilizer_identity_cases(sym2):
    phi = _very_elementary_merge(sym2)
    assert stabilizer_test(identity_element(sym2), phi)
    gamma = isometry_element(sym2, [LabeledIsometry.make(2, {(): (1, 0)})])
    assert stabilizer_test(gamma, identity_element(sym2))


def test_stabilizer_rejects_partition_shift(sym2):
    phi = _very_elementary_merge(sym2)
    assert not stabilizer_test(make_x0(sym2), phi)


def test_subnormal_identity(sym2):
    for k in range(5):
        assert subnormal_depth(identity_element(sym2), k) == k


def test_subnormal_very_elementary_merge(sym2):
    assert subnormal_depth(_very_elementary_merge(sym2), 3) == 2


def test_subnormal_deep_leaf_to_root(sym2):
    # a leaf pair mapping depth 2 onto a summand root forces k' = k + 2
    dom = LeafPartition(1, ((1, (0, 0)), (1, (0, 1)), (1, (1,))))
    cod = LeafPartition(3, ((1, ()), (2, ()), (3, ())))
    decs = (LabeledIsometry.identity(2),) * 3
    phi = TreePair(sym2, dom, cod, (0, 1, 2), decs)
    assert subnormal_depth(phi, 1) == 3


def test_subnormal_depth_matches_upward_search(rng):
    # vertices of r + j(q-1) domain summands over r, against the k' = 0, 1, ... search
    answers = set()
    for q, d, r in [(q, d, r) for q in (2, 3) for d in ("sym", "triv") for r in (1, 2)]:
        config = Config.make(q, r, d)
        for j in range(3):
            for depth in range(2, 6):
                phi = random_element(rng, config, depth, n=r + j * (q - 1), m=r)
                for k in range(5):
                    got = subnormal_depth(phi, k)
                    assert got == oracle.subnormal_depth(phi, k), (q, d, r, j, depth, k)
                    answers.add(got - k)
    assert len(answers) > 3  # k' above, at and below k


DECISION_CONFIGS = [(q, d, r) for q in (2, 3) for d in ("sym", "triv") for r in (1, 2)]


def _non_isometry(rng, config, n):
    """An element of the n-summand forest that scales one cone: in one summand
    the domain splits root child a, the codomain root child b != a, leaves in order."""
    q = config.q
    s0 = rng.randint(1, n)
    a, b = rng.sample(range(q), 2)

    def leaves(split):
        out = [(s, ()) for s in range(1, n + 1) if s != s0]
        for d in range(q):
            out += [(s0, (d, e)) for e in range(q)] if d == split else [(s0, (d,))]
        return LeafPartition(n, tuple(sorted(out)))

    dom = leaves(a)
    return TreePair(config, dom, leaves(b), tuple(range(len(dom.leaves))),
                    (LabeledIsometry.identity(q),) * len(dom.leaves))


def _vertex(rng, config, depth):
    """A pair onto config.r summands from r or r + q - 1 summands, reduced or expanded.

    A label at an internal vertex of a reduced pair seldom conjugates to a
    strict transformation: where the children's balls map to sibling balls
    of one depth, the reduction has merged them.  Expanded leaves give
    internal vertices inside such balls.
    """
    q, r = config.q, config.r
    phi = random_element(rng, config, depth, n=r + (q - 1) * rng.randint(0, 1), m=r)
    return _expanded(rng, phi, rng.choice((0, 0, 1, 2, 3)))


def test_stabilizer_test_matches_oracle(rng):
    # gamma = phi nu phi^-1, half with nu a strict transformation and half a
    # non-isometry, as the benchmark builds them; then unrelated gammas
    answers = {True: 0, False: 0}
    for q, d, r in DECISION_CONFIGS:
        config = Config.make(q, r, d)
        for i in range(24):
            phi = _vertex(rng, config, rng.randint(2, 4))
            n = phi.domain.n
            if i % 2:
                nu = isometry_element(config, [random_labeled_isometry(rng, config, 2)
                                               for _ in range(n)], n)
            else:
                nu = _non_isometry(rng, config, n)
            gammas = [compose(phi, compose(nu, inverse(phi))), random_element(rng, config, 3)]
            for gamma in gammas + [_expanded(rng, g, 2) for g in gammas]:
                got = stabilizer_test(gamma, phi)
                assert got == oracle.stabilizer_test(gamma, phi), (q, d, r, i)
                answers[got] += 1
    assert answers[True] > 100 and answers[False] > 100


def test_conjugates_into_matches_oracle(rng):
    # vertices of r and r + q - 1 domain summands over r, and splits of r
    # summands onto r + q - 1, where a conjugate can permute the summands;
    # every k' and k up to 4
    answers = {True: 0, False: 0}
    for q, d, r in DECISION_CONFIGS:
        config = Config.make(q, r, d)
        for i in range(12):
            if i % 3:
                phi = _vertex(rng, config, rng.randint(2, 4))
            else:
                phi = _expanded(rng, random_element(rng, config, 3, n=r, m=r + q - 1), rng.randint(0, 2))
            for kprime in range(5):
                for k in range(5):
                    got = conjugates_into(phi, kprime, k)
                    assert got == oracle.conjugates_into(phi, kprime, k), (q, d, r, kprime, k)
                    answers[got] += 1
    assert answers[True] > 100 and answers[False] > 100


def test_subnormal_depth_matches_oracle_conjugation(rng):
    # the upward k' search on the oracle's explicit conjugates, not the library's
    answers = set()
    for q, d, r in DECISION_CONFIGS:
        config = Config.make(q, r, d)
        for _ in range(12):
            phi = _vertex(rng, config, rng.randint(2, 5))
            for k in range(4):
                got = subnormal_depth(phi, k)
                assert got == oracle.subnormal_depth(phi, k, oracle.conjugates_into), (q, d, r, k)
                answers.add(got - k)
    assert len(answers) > 3  # k' above, at and below k


def test_thompson_membership_flags(sym2, triv2, x0):
    assert thompson_membership(x0) == {"in_v": True, "in_f": True}
    x0s = make_x0(sym2)
    assert thompson_membership(x0s) == {"in_v": True, "in_f": True}
    swapped = TreePair(x0s.config, x0s.domain, x0s.codomain, (1, 0, 2), x0s.decorations)
    assert thompson_membership(swapped) == {"in_v": True, "in_f": False}
    labeled = isometry_element(sym2, [LabeledIsometry.make(2, {(0,): (1, 0)})])
    assert thompson_membership(labeled) == {"in_v": False, "in_f": False}


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip(rng, sym2):
    for _ in range(15):
        g = random_element(rng, sym2, 3)
        assert element_from_json(element_to_json(g)) == g


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        element_from_json({"q": 2})


def test_config_validation():
    with pytest.raises(ValueError):
        Config.make(1, 1, "sym")
    with pytest.raises(ValueError):
        Config.make(2, 0, "sym")
    with pytest.raises(ValueError):
        Config.make(2, 1, ["312"])
    d = Config.make(3, 1, ["213"])
    assert d.group_order == 2
    assert word_to_perm("213") in d.group
    # a spec string is comma-separated words, not a sequence of one-letter words
    assert Config.make(3, 1, "213") == d
    assert Config.make(3, 1, " 213, 132").generators == (word_to_perm("213"), word_to_perm("132"))
    assert Config.make(3, 1, "213,132").group_order == 6


def test_config_is_identified_by_its_label_group():
    # element JSON lists D as the sorted group, not the generators the config was made from
    a = random_element(Random(1), Config.make(3, 1, "213"))
    b = element_from_json(element_to_json(a))
    assert b.config.generators != a.config.generators
    assert b == a and hash(b.config) == hash(a.config)
    assert compose(a, b) == compose(a, a)
    assert Config.make(3, 1, "213,132") == Config.make(3, 1, "sym") != Config.make(3, 1, "213")


def test_subgroup_closure_matches_naive_oracle():
    rng = Random(20261018)
    for _ in range(800):
        q = rng.randint(2, 5)
        gens = [tuple(rng.sample(range(q), q)) for _ in range(rng.randint(0, 3))]
        assert close_under_group_ops(gens, q) == oracle.close_under_group_ops(gens, q), gens
    assert Config.make(7, 1, "sym").group_order == 5040


def test_importing_groups_loads_only_its_own_layers():
    # the package re-exports nothing, so a layer loads just the layers it imports
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, sphero.groups; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'sphero'))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sphero", "sphero.groups", "sphero.perms"]
