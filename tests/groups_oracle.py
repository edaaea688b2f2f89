"""The earlier tree-pair arithmetic of sphero.groups, kept as a test oracle.

compose refines both factors through full TreePairs (two raw inverses and two
refinements), canonical_form restarts its cherry scan after every merge, and
apply_word rebuilds its label table and prefix set on every call.
common_refinement scans the other side for the leaves below each nested leaf,
and forest_portraits walks the leaves of each summand down from the root.
The only edits are that apply_word is a function of the isometry, and the
functions here call it and each other instead of the library's.
validate_partition is LeafPartition.validate with the recursive complete
prefix code check, and close_under_group_ops is the naive subgroup closure
that multiplies every new element by every known one.  subnormal_depth is the
upward search that calls the library's conjugates_into for k' = 0, 1, ...,
or the conjugates_into it is given.  stabilizer_test and conjugates_into build
every conjugate as a full pair, composed and inverted here and reduced by
canonical_form, and read their answers off it with the library's
_classify_reduced and _reduced_portraits.
"""

from __future__ import annotations

from sphero import groups as lib
from sphero.groups import (
    Address,
    ArrowKind,
    LabeledIsometry,
    LeafPartition,
    TreePair,
    Word,
    _classify_reduced,
    _reduced_portraits,
    isometry_element,
)
from sphero.perms import Perm, compose_perms, identity_perm, invert_perm, is_perm


def common_refinement(p1: LeafPartition, p2: LeafPartition) -> LeafPartition:
    """Coarsest partition refining both; every leaf extends a leaf of each."""
    if p1.n != p2.n:
        raise ValueError("partitions live on different summand counts")
    set2 = set(p2.leaves)
    out: list[Address] = []
    for a in p1.leaves:
        s, w = a
        if a in set2:
            out.append(a)
            continue
        # a is strictly nested with some leaves of p2
        deeper = [b for b in p2.leaves if b[0] == s and len(b[1]) > len(w) and b[1][: len(w)] == w]
        if deeper:
            out.extend(deeper)
        else:
            out.append(a)  # a sits below a leaf of p2
    out = sorted(set(out))
    return LeafPartition(p1.n, tuple(out))


def apply_word(iso: LabeledIsometry, word: Word) -> Word:
    if not iso.labels:
        return word
    table = iso.label_dict()
    prefixes = {w[:i] for w, _ in iso.labels for i in range(len(w) + 1)}
    out: list[int] = []
    cur: Word = ()
    for i, d in enumerate(word):
        if cur not in prefixes:
            out.extend(word[i:])
            break
        p = table.get(cur)
        out.append(p[d] if p else d)
        cur = cur + (d,)
    return tuple(out)


def raw_inverse(g: TreePair) -> TreePair:
    k = len(g.domain.leaves)
    inv_map = [0] * k
    for i, j in enumerate(g.leaf_map):
        inv_map[j] = i
    decs = tuple(g.decorations[inv_map[j]].inverse() for j in range(k))
    return TreePair(g.config, g.codomain, g.domain, tuple(inv_map), decs)


def inverse(g: TreePair) -> TreePair:
    return canonical_form(raw_inverse(g))


def refine_domain(g: TreePair, refined: LeafPartition) -> TreePair:
    """Rewrite g on a finer domain partition without changing the boundary map."""
    if refined.n != g.domain.n:
        raise ValueError("summand count mismatch")
    new_entries = []  # (domain address, image address, decoration)
    for a in refined.leaves:
        i = g.domain.leaf_index_of(a)
        s, w = g.domain.leaves[i]
        u = a[1][len(w):]
        dec = g.decorations[i]
        ms, mw = g.image_leaf(i)
        new_entries.append((a, (ms, mw + apply_word(dec, u)), dec.restrict(u)))
    new_entries.sort(key=lambda e: e[0])
    images = sorted(e[1] for e in new_entries)
    index = {a: i for i, a in enumerate(images)}
    codomain = LeafPartition(g.codomain.n, tuple(images))
    leaf_map = tuple(index[e[1]] for e in new_entries)
    decs = tuple(e[2] for e in new_entries)
    return TreePair(g.config, refined, codomain, leaf_map, decs)


def compose(g: TreePair, h: TreePair) -> TreePair:
    """The element g∘h (h applied first), in canonical form."""
    if g.config != h.config:
        raise ValueError("config mismatch")
    if g.domain.n != h.codomain.n:
        raise ValueError("summand counts do not compose")
    mid = common_refinement(h.codomain, g.domain)
    h_ref = raw_inverse(refine_domain(raw_inverse(h), mid))
    g_ref = refine_domain(g, mid)
    # h_ref.codomain == g_ref.domain == mid up to canonical sorting
    entries = []
    mid_index = {a: i for i, a in enumerate(g_ref.domain.leaves)}
    for i, a in enumerate(h_ref.domain.leaves):
        j = mid_index[h_ref.image_leaf(i)]
        img = g_ref.image_leaf(j)
        dec = g_ref.decorations[j].compose(h_ref.decorations[i])
        entries.append((a, img, dec))
    images = sorted(e[1] for e in entries)
    index = {a: i for i, a in enumerate(images)}
    result = TreePair(
        g.config,
        h_ref.domain,
        LeafPartition(g.codomain.n, tuple(images)),
        tuple(index[e[1]] for e in entries),
        tuple(e[2] for e in entries),
    )
    return canonical_form(result)


def canonical_form(g: TreePair) -> TreePair:
    """The unique reduced representative of the boundary map of g.

    A cherry (q sibling domain leaves mapped onto q sibling codomain leaves)
    is merged one level up whenever the induced sibling permutation lies in D;
    the merged decoration absorbs the permutation and the child decorations.
    Reduction is repeated until no cherry qualifies.
    """
    q = g.config.q
    D = g.config.group
    dom = list(g.domain.leaves)
    pairs = {a: (g.image_leaf(i), g.decorations[i]) for i, a in enumerate(dom)}
    changed = True
    while changed:
        changed = False
        parents: dict[Address, list[Address]] = {}
        leafset = set(dom)
        for (s, w) in dom:
            if w:
                parents.setdefault((s, w[:-1]), []).append((s, w))
        for (s, pw), children in parents.items():
            if len(children) != q:
                continue
            if any((s, pw + (d,)) not in leafset for d in range(q)):
                continue
            imgs = [pairs[(s, pw + (d,))][0] for d in range(q)]
            words = [w for _, w in imgs]
            if any(not w for w in words):
                continue
            t = imgs[0][0]
            if any(a[0] != t for a in imgs):
                continue
            stem = words[0][:-1]
            if any(w[:-1] != stem for w in words):
                continue
            tau = tuple(words[d][-1] for d in range(q))
            if not is_perm(tau) or tau not in D:
                continue
            # merge the cherry
            merged_labels: dict[Word, Perm] = {}
            if tau != identity_perm(q):
                merged_labels[()] = tau
            for d in range(q):
                child = (s, pw + (d,))
                for w2, p in pairs[child][1].labels:
                    merged_labels[(d,) + w2] = p
                del pairs[child]
                dom.remove(child)
            new_leaf = (s, pw)
            dom.append(new_leaf)
            pairs[new_leaf] = ((t, stem), LabeledIsometry.make(q, merged_labels))
            changed = True
            break
    dom.sort()
    cod = sorted(pairs[a][0] for a in dom)
    cod_index = {a: i for i, a in enumerate(cod)}
    return TreePair(
        g.config,
        LeafPartition(g.domain.n, tuple(dom)),
        LeafPartition(g.codomain.n, tuple(cod)),
        tuple(cod_index[pairs[a][0]] for a in dom),
        tuple(pairs[a][1] for a in dom),
    )


def forest_portraits(g: TreePair) -> list[LabeledIsometry] | None:
    """Portraits of g as a strict transformation, or None if g is not one.

    g lies in the product of the D-admissible isometry groups of the summands
    iff each summand maps to itself by a tree automorphism all of whose vertex
    permutations (including those induced above the leaves) lie in D.
    """
    if g.domain.n != g.codomain.n:
        return None
    q = g.config.q
    D = g.config.group
    by_summand: dict[int, list[tuple[Word, Word, LabeledIsometry]]] = {}
    for i, (s, w) in enumerate(g.domain.leaves):
        ms, mw = g.image_leaf(i)
        if ms != s or len(mw) != len(w):
            return None
        by_summand.setdefault(s, []).append((w, mw, g.decorations[i]))

    def extract(entries: list[tuple[Word, Word, LabeledIsometry]]) -> dict[Word, Perm] | None:
        # entries: (domain word, image word, decoration), words relative to a ball
        if len(entries) == 1 and entries[0][0] == ():
            return entries[0][2].label_dict()
        tau = [None] * q
        groups: list[list[tuple[Word, Word, LabeledIsometry]]] = [[] for _ in range(q)]
        for w, mw, dec in entries:
            d, e = w[0], mw[0]
            if tau[d] is None:
                tau[d] = e
            elif tau[d] != e:
                return None
            groups[d].append((w[1:], mw[1:], dec))
        tau_p = tuple(tau)
        if None in tau or not is_perm(tau_p) or tau_p not in D:
            return None
        labels: dict[Word, Perm] = {}
        if tau_p != identity_perm(q):
            labels[()] = tau_p
        for d in range(q):
            sub = extract(groups[d])
            if sub is None:
                return None
            for w, p in sub.items():
                labels[(d,) + w] = p
        return labels

    portraits = []
    for s in range(1, g.domain.n + 1):
        labels = extract(by_summand.get(s, []))
        if labels is None:
            return None
        portraits.append(LabeledIsometry.make(q, labels))
    return portraits


def _check_complete_prefix_code(words: list[Word], q: int) -> bool:
    """True iff words form a complete prefix code of the rooted q-ary tree."""
    if len(words) == 1:
        return words[0] == ()
    if not words:
        return False
    groups: list[list[Word]] = [[] for _ in range(q)]
    for w in words:
        if not w:  # root together with other words: overlap
            return False
        groups[w[0]].append(w[1:])
    return all(_check_complete_prefix_code(g, q) for g in groups)


def validate_partition(part: LeafPartition, q: int) -> None:
    by_summand: dict[int, list[Word]] = {s: [] for s in range(1, part.n + 1)}
    for s, w in part.leaves:
        if s not in by_summand:
            raise ValueError(f"summand {s} out of range 1..{part.n}")
        if any(d < 0 or d >= q for d in w):
            raise ValueError(f"digit out of range in {w}")
        by_summand[s].append(w)
    for s, words in by_summand.items():
        if not _check_complete_prefix_code(words, q):
            raise ValueError(f"summand {s}: leaves are not a complete prefix code")


def close_under_group_ops(gens: list[Perm] | tuple[Perm, ...], q: int) -> frozenset[Perm]:
    """Subgroup of Sym(q) generated by gens, by naive closure."""
    for g in gens:
        if len(g) != q or not is_perm(g):
            raise ValueError(f"generator {g} is not a permutation of {q} letters")
    elems = {identity_perm(q)}
    frontier = set(gens)
    while frontier:
        new = set()
        for g in frontier:
            for h in list(elems) + list(frontier):
                for p in (compose_perms(g, h), compose_perms(h, g)):
                    if p not in elems and p not in frontier and p not in new:
                        new.add(p)
            inv = invert_perm(g)
            if inv not in elems and inv not in frontier and inv not in new:
                new.add(inv)
        elems |= frontier
        frontier = new
    return frozenset(elems)


def stabilizer_test(gamma: TreePair, phi: TreePair) -> bool:
    """Whether gamma fixes the class of phi: phi^-1 gamma phi is a strict transformation."""
    if gamma.config != phi.config:
        raise ValueError("config mismatch")
    if phi.codomain.n != phi.config.r or gamma.domain.n != phi.config.r:
        raise ValueError("gamma must act on the codomain forest of phi")
    conj = compose(inverse(phi), compose(gamma, phi))  # compose reduces it
    return _classify_reduced(conj) == ArrowKind.STRICT_TRANSFORMATION


def labels_conjugate_into(phi: TreePair, v: Address, k: int) -> bool:
    """Whether phi nu phi^-1 is depth-k-trivial for each single-label isometry nu
    with a non-identity label at the internal domain vertex v."""
    config = phi.config
    ident = identity_perm(config.q)
    for p in config.sorted_group():
        if p == ident:
            continue
        portraits = [LabeledIsometry.identity(config.q)] * phi.domain.n
        portraits[v[0] - 1] = LabeledIsometry.make(config.q, {v[1]: p})
        nu = isometry_element(config, portraits, phi.domain.n)
        found = _reduced_portraits(compose(phi, compose(nu, inverse(phi))))
        if found is None or any(iso.min_support_depth() < k for iso in found):
            return False
    return True


def conjugates_into(phi: TreePair, kprime: int, k: int) -> bool:
    """Whether conjugation by phi carries depth-kprime-trivial strict transformations
    into depth-k-trivial ones: labels below the leaves by their depths, labels at
    the internal vertices by explicit conjugates."""
    for i, (s, w) in enumerate(phi.domain.leaves):
        if len(phi.image_leaf(i)[1]) + max(0, kprime - len(w)) < k:
            return False
    internal = {(s, w[:i]) for s, w in phi.domain.leaves for i in range(len(w))}
    return all(labels_conjugate_into(phi, v, k) for v in sorted(internal) if len(v[1]) >= kprime)


def subnormal_depth(phi: TreePair, k: int, conjugates=lib.conjugates_into) -> int:
    """Minimal k' with conjugates(phi, k', k), searched upward from 0.

    The leaf depth offsets of phi give a guaranteed sufficient upper bound,
    so the search terminates.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    bound = 0
    for i, (s, w) in enumerate(phi.domain.leaves):
        dm = len(phi.image_leaf(i)[1])
        bound = max(bound, len(w), k - dm + len(w))
    for kprime in range(0, bound + 1):
        if conjugates(phi, kprime, k):
            return kprime
    return bound  # unreachable: the bound always satisfies the containment
