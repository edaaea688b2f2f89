"""Exact arithmetic for almost automorphisms of forests of rooted q-ary trees.

An element is stored as a tree pair: a partition of the domain forest into
balls (a complete prefix code per tree), a partition of the codomain forest,
a bijection between the two leaf sets, and one finitely supported labeled
isometry per leaf describing how the ball is carried over.  Every permutation
label is required to lie in a fixed subgroup D of Sym(q), which makes the
induced boundary map D-admissible.

Only elements whose labels have finite support are representable.  They form
a dense subgroup of the full topological group and are closed under
composition and inversion, so all computations below stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from random import Random

from .perms import (
    Perm,
    close_under_group_ops,
    compose_perms,
    full_symmetric,
    identity_perm,
    invert_perm,
    is_perm,
    perm_to_word,
    word_to_perm,
)

Word = tuple[int, ...]
Address = tuple[int, Word]  # (summand 1-based, digit word)

#: Sentinel returned by common_prefix_length for points in different summands;
#: chosen so that exp(-result) is literally the (infinite) visual distance.
INFINITE_DISTANCE = float("-inf")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Config:
    """Branching degree q, number of boundary copies r, and the label group D.

    Configs compare by (q, r, D): generators that close to the same group give equal configs.
    """

    q: int
    r: int
    generators: tuple[Perm, ...] = field(compare=False)
    group: frozenset[Perm] = field(init=False, repr=False)

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        object.__setattr__(self, "group", close_under_group_ops(self.generators, self.q))

    @property
    def group_order(self) -> int:
        return len(self.group)

    def sorted_group(self) -> list[Perm]:
        return sorted(self.group)

    @staticmethod
    def make(q: int, r: int, subgroup: str | list[str] = "sym") -> "Config":
        """Build a Config from a subgroup spec.

        Accepts "sym", "triv", comma-separated 1-based permutation words such
        as "213,132", or a list of such words.
        """
        if subgroup == "sym":
            gens = tuple(sorted(full_symmetric(q)))
        elif subgroup == "triv":
            gens = (identity_perm(q),)
        else:
            words = subgroup.split(",") if isinstance(subgroup, str) else subgroup
            gens = tuple(word_to_perm(w.strip()) for w in words if w.strip())
            for g in gens:
                if len(g) != q:
                    raise ValueError(f"generator {perm_to_word(g)} is not on {q} letters")
        return Config(q, r, gens)


# ---------------------------------------------------------------------------
# addresses and leaf partitions


def format_address(a: Address) -> str:
    s, w = a
    return f"{s}:" + "".join(str(d) for d in w)


def parse_address(text: str) -> Address:
    s_str, _, w_str = text.partition(":")
    return (int(s_str), tuple(int(ch) for ch in w_str))


def common_prefix_length(x: Address, y: Address) -> int | float:
    """Length of the common initial segment of two boundary points.

    Points in different summands are infinitely far apart, so the sentinel
    INFINITE_DISTANCE is returned there; the visual distance is exp(-result)
    in every case.
    """
    if x[0] != y[0]:
        return INFINITE_DISTANCE
    n = 0
    for a, b in zip(x[1], y[1]):
        if a != b:
            break
        n += 1
    return n


def visual_distance(x: Address, y: Address) -> float:
    return math.exp(-common_prefix_length(x, y))


@dataclass(frozen=True, slots=True)
class LeafPartition:
    """Partition of an n-summand forest boundary into balls.

    Leaves are addresses, canonically sorted by (summand, word); per summand
    they form a complete prefix code.
    """

    n: int
    leaves: tuple[Address, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("summand count must be at least 1")
        it = iter(self.leaves)
        prev = next(it, None)
        for leaf in it:  # adjacent pairs in one scan; equal leaves pass here and fail validate()
            if not prev <= leaf:
                raise ValueError("leaves must be canonically sorted")
            prev = leaf

    def validate(self, q: int) -> None:
        """Raise ValueError unless each summand's leaves are a complete prefix code.

        One scan of the sorted leaves: the leaves of a complete prefix code
        are its successive depth-first leaves.  The first is all zeros; each
        later one is its predecessor with the trailing q-1 digits stripped,
        the last digit raised by one, and then only zeros; the last is all
        q-1 digits.  Summands 1..n follow one another.  Such a scan reads no
        digit or summand out of range, so on a pass there is nothing else to
        check.  On a failure the leaves are scanned again in order for a
        summand or digit out of range, which is reported first, as by a
        check of every leaf before the codes.
        """
        top = q - 1
        bad = self._first_bad_summand(top)
        if bad is None:
            return
        for s, w in self.leaves:
            if not 1 <= s <= self.n:
                raise ValueError(f"summand {s} out of range 1..{self.n}")
            if any(d < 0 or d >= q for d in w):
                raise ValueError(f"digit out of range in {w}")
        raise ValueError(f"summand {bad}: leaves are not a complete prefix code")

    def _first_bad_summand(self, top: int) -> int | None:
        """The first summand that fails the successor scan of validate, None if none does."""
        cur, prev = 0, None  # prev: the last leaf of summand cur, None once it ended on all top digits
        for s, w in self.leaves:
            if s != cur:
                if prev is not None:
                    return cur
                if s != cur + 1:
                    return cur + 1
                if any(w):
                    return s
                cur = s
            elif prev is None:
                return s
            else:
                i = len(prev)
                while prev[i - 1] == top:
                    i -= 1
                if len(w) < i or w[i - 1] != prev[i - 1] + 1 or w[:i - 1] != prev[:i - 1] or any(w[i:]):
                    return s
            prev = None if w.count(top) == len(w) else w
        if prev is not None:
            return cur
        return None if cur == self.n else cur + 1

    @staticmethod
    def roots(n: int) -> "LeafPartition":
        return LeafPartition(n, tuple((s, ()) for s in range(1, n + 1)))

    def leaf_index_of(self, a: Address) -> int:
        """Index of the unique leaf that is a prefix of address a."""
        # a prefix sorts immediately before all of its extensions
        i = bisect_right(self.leaves, a) - 1
        if i >= 0:
            s, w = self.leaves[i]
            if s == a[0] and a[1][: len(w)] == w:
                return i
        raise KeyError(f"no leaf above {format_address(a)}")


def _refinement_walk(l1: Sequence[Address], l2: Sequence[Address]):
    """Yield (b, i, j) for each leaf b of the common refinement, in sorted order,
    with i and j the indices of the leaves of l1 and l2 that are prefixes of b.

    l1 and l2 must be the sorted leaves of complete prefix codes on the same
    summands.  Their current leaves are then always nested, so the deeper one
    is the next leaf of the refinement; a side moves on once its leaf has no
    further leaf of the other side below it.
    """
    n1, n2 = len(l1), len(l2)
    i = j = 0
    while i < n1 and j < n2:
        a, b = l1[i], l2[j]
        if len(a[1]) <= len(b[1]):  # b lies in the ball a
            yield b, i, j
            j += 1
            if j == n2 or l2[j][0] != a[0] or l2[j][1][:len(a[1])] != a[1]:
                i += 1
        else:  # a lies in the ball b
            yield a, i, j
            i += 1
            if i == n1 or l1[i][0] != b[0] or l1[i][1][:len(b[1])] != b[1]:
                j += 1


def common_refinement(p1: LeafPartition, p2: LeafPartition) -> LeafPartition:
    """Coarsest partition refining two complete prefix codes: the leaves of each
    that lie in a ball of the other."""
    if p1.n != p2.n:
        raise ValueError("partitions live on different summand counts")
    return LeafPartition(p1.n, tuple(b for b, _, _ in _refinement_walk(p1.leaves, p2.leaves)))


# ---------------------------------------------------------------------------
# labeled isometries (finitely supported portraits)


@dataclass(frozen=True, slots=True)
class LabeledIsometry:
    """D-admissible automorphism of one rooted q-ary tree with finite support.

    labels maps tree vertices (digit words) to non-identity permutations; the
    action on a word applies the label at each visited domain vertex.
    """

    q: int
    labels: tuple[tuple[Word, Perm], ...]  # sorted, identity labels omitted

    @staticmethod
    def make(q: int, labels: dict[Word, Perm]) -> "LabeledIsometry":
        """Normalise and check labels from outside; restrict, inverse, compose and _reduce build normal ones."""
        ident = identity_perm(q)
        items = tuple(sorted((w, p) for w, p in labels.items() if p != ident))
        for w, p in items:
            if len(p) != q or not is_perm(p):
                raise ValueError(f"label at {w} is not a permutation of {q} letters")
            if any(d < 0 or d >= q for d in w):
                raise ValueError(f"label at {w} is on no vertex of the {q}-ary tree")
        return LabeledIsometry(q, items)

    @staticmethod
    def identity(q: int) -> "LabeledIsometry":
        return LabeledIsometry(q, ())

    def label_dict(self) -> dict[Word, Perm]:
        return dict(self.labels)

    @property
    def is_identity(self) -> bool:
        return not self.labels

    def min_support_depth(self) -> int | float:
        """Depth of the shallowest non-identity label (inf if identity)."""
        return min((len(w) for w, _ in self.labels), default=math.inf)

    def check_labels_in(self, group: frozenset[Perm]) -> None:
        for w, p in self.labels:
            if p not in group:
                raise ValueError(f"label {perm_to_word(p)} at {w} is outside D")

    def apply_word(self, word: Word) -> Word:
        """Image of a word: digit i moves by the label at word[:i]."""
        out = None
        for w, p in self.labels:
            i = len(w)
            if i < len(word) and word[:i] == w:
                if out is None:
                    out = list(word)
                out[i] = p[word[i]]
        return word if out is None else tuple(out)

    def restrict(self, u: Word) -> "LabeledIsometry":
        """The induced automorphism of the subtree below u, rebased to a root."""
        if not self.labels:
            return self
        # stripping a common prefix keeps the labels sorted
        return LabeledIsometry(self.q, tuple((w[len(u):], p) for w, p in self.labels
                                             if w[: len(u)] == u))

    def compose(self, other: "LabeledIsometry") -> "LabeledIsometry":
        """self after other."""
        if self.q != other.q:
            raise ValueError("mismatched arities")
        if not other.labels:
            return self
        if not self.labels:
            return other
        mine = self.label_dict()
        theirs = other.label_dict()
        support = set(theirs)
        inv_other = other.inverse()
        support |= {inv_other.apply_word(w) for w in mine}
        ident = identity_perm(self.q)
        out: dict[Word, Perm] = {}
        for v in support:
            p = compose_perms(mine.get(other.apply_word(v), ident), theirs.get(v, ident))
            if p != ident:
                out[v] = p
        return LabeledIsometry(self.q, tuple(sorted(out.items())))

    def inverse(self) -> "LabeledIsometry":
        if not self.labels:
            return self
        out = ((self.apply_word(w), invert_perm(p)) for w, p in self.labels)
        return LabeledIsometry(self.q, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# tree pairs


class ArrowKind(Enum):
    MERGE = "merge"
    VERY_ELEMENTARY_MERGE = "very_elementary_merge"
    TRANSFORMATION = "transformation"
    STRICT_TRANSFORMATION = "strict_transformation"
    NOT_AN_ARROW = "not_an_arrow"


def is_merge_kind(kind: ArrowKind) -> bool:
    return kind in (ArrowKind.MERGE, ArrowKind.VERY_ELEMENTARY_MERGE)


@dataclass(frozen=True, slots=True)
class TreePair:
    """A D-admissible local similarity from an n-summand to an m-summand forest.

    Group elements have n = m = config.r; maps with codomain over config.r
    summands play the role of vertices acted on by the group, with
    level = n the number of domain summands.
    """

    config: Config
    domain: LeafPartition
    codomain: LeafPartition
    leaf_map: tuple[int, ...]  # domain leaf i -> index into codomain.leaves
    decorations: tuple[LabeledIsometry, ...]  # one per domain leaf

    def __post_init__(self):
        k = len(self.domain.leaves)
        if len(self.codomain.leaves) != k:
            raise ValueError("leaf counts differ")
        if sorted(self.leaf_map) != list(range(k)):
            raise ValueError("leaf map is not a bijection")
        if len(self.decorations) != k:
            raise ValueError("need one decoration per domain leaf")
        self.domain.validate(self.config.q)
        self.codomain.validate(self.config.q)
        for dec in self.decorations:
            if dec.q != self.config.q:
                raise ValueError("decoration arity mismatch")
            dec.check_labels_in(self.config.group)

    def image_leaf(self, i: int) -> Address:
        return self.codomain.leaves[self.leaf_map[i]]

    def apply(self, a: Address) -> Address:
        """Image of a boundary point given by a sufficiently deep finite address."""
        i = self.domain.leaf_index_of(a)
        s, w = self.domain.leaves[i]
        ms, mw = self.image_leaf(i)
        tail = a[1][len(w):]
        return (ms, mw + self.decorations[i].apply_word(tail))

    def act_on_depth(self, depth: int) -> dict[Address, Address]:
        """The full action on all addresses of the given depth."""
        q = self.config.q
        out: dict[Address, Address] = {}
        for i, (s, w) in enumerate(self.domain.leaves):
            if len(w) > depth:
                raise ValueError("depth is shallower than the domain partition")
            ms, mw = self.image_leaf(i)
            dec = self.decorations[i]
            for tail in product(range(q), repeat=depth - len(w)):
                out[(s, w + tail)] = (ms, mw + dec.apply_word(tail))
        return out


def identity_element(config: Config, n: int | None = None) -> TreePair:
    return isometry_element(config, n=n)


def isometry_element(config: Config, portraits: list[LabeledIsometry] | None = None,
                     n: int | None = None) -> TreePair:
    """The strict transformation acting by the given portrait in each summand."""
    n = config.r if n is None else n
    if portraits is None:
        portraits = [LabeledIsometry.identity(config.q)] * n
    if len(portraits) != n:
        raise ValueError("need one portrait per summand")
    part = LeafPartition.roots(n)
    return TreePair(config, part, part, tuple(range(n)), tuple(portraits))


# A tree pair under construction is a map {domain leaf: (image leaf, decoration)}.
Entries = dict[Address, tuple[Address, LabeledIsometry]]


def _entries(g: TreePair) -> Entries:
    return {a: (g.image_leaf(i), g.decorations[i]) for i, a in enumerate(g.domain.leaves)}


def _pair(config: Config, n: int, m: int, entries: Entries) -> TreePair:
    """The tree pair from n onto m summands with the given leaves."""
    dom = sorted(entries)
    cod = sorted(img for img, _ in entries.values())
    index = {a: j for j, a in enumerate(cod)}
    return TreePair(config, LeafPartition(n, tuple(dom)), LeafPartition(m, tuple(cod)),
                    tuple(index[entries[a][0]] for a in dom), tuple(entries[a][1] for a in dom))


def _reduce(config: Config, entries: Entries) -> Entries:
    """Merge cherries until none is left, in place; returns entries.

    A cherry is a vertex whose q children are domain leaves mapped onto the q
    children of one codomain vertex by a permutation tau in D.  It is merged
    into one leaf whose decoration has tau at the root and the children's
    decorations below.  A merge changes only its own q leaves and q images,
    so it never spoils another cherry, and the reduced pair does not depend
    on the order of the merges.  The worklist runs deepest first, and each
    merge queues the parent it may have completed.
    """
    q, D = config.q, config.group
    ident = identity_perm(q)
    work: dict[int, set[Address]] = {}
    for s, w in entries:
        if w:
            work.setdefault(len(w) - 1, set()).add((s, w[:-1]))
    for depth in range(max(work, default=-1), -1, -1):
        for s, pw in work.pop(depth, ()):
            children = [(s, pw + (d,)) for d in range(q)]
            if any(c not in entries for c in children):
                continue
            imgs = [entries[c][0] for c in children]
            t, stem = imgs[0][0], imgs[0][1][:-1]
            if any(ms != t or not mw or mw[:-1] != stem for ms, mw in imgs):
                continue
            tau = tuple(mw[-1] for _, mw in imgs)
            if tau not in D:
                continue
            # the root sorts first, then each child's sorted labels under its digit
            labels = [] if tau == ident else [((), tau)]
            for d, c in enumerate(children):
                labels.extend(((d,) + w, p) for w, p in entries.pop(c)[1].labels)
            entries[(s, pw)] = ((t, stem), LabeledIsometry(q, tuple(labels)))
            if pw:
                work.setdefault(depth - 1, set()).add((s, pw[:-1]))
    return entries


def inverse(g: TreePair) -> TreePair:
    entries = {img: (a, dec.inverse()) for a, (img, dec) in _entries(g).items()}
    return _pair(g.config, g.codomain.n, g.domain.n, _reduce(g.config, entries))


# A tree pair read along one of its partitions: the sorted leaves, the leaf
# each is matched with on the other side, and the decoration of each match,
# a map from the domain ball to the image ball.
Side = tuple[Sequence[Address], Sequence[Address], Sequence[LabeledIsometry]]


def _domain_side(g: TreePair) -> Side:
    cod = g.codomain.leaves
    return g.domain.leaves, [cod[j] for j in g.leaf_map], g.decorations


def _codomain_side(g: TreePair) -> Side:
    pre = [0] * len(g.leaf_map)  # image leaf -> its domain leaf
    for i, j in enumerate(g.leaf_map):
        pre[j] = i
    dom, decs = g.domain.leaves, g.decorations
    return g.codomain.leaves, [dom[i] for i in pre], [decs[i] for i in pre]


def _entries_side(entries: Entries, by_image: bool) -> Side:
    """The domain side of entries, or their codomain side if by_image."""
    rows = sorted((img, a, dec) if by_image else (a, img, dec) for a, (img, dec) in entries.items())
    return tuple(zip(*rows))


def _walk(front: Side, back: Side, front_inverse: bool = False, back_inverse: bool = False) -> Entries:
    """The entries of G∘H (H applied first), not yet reduced.

    front reads G along its domain and back reads H along its codomain.  A
    side flagged as inverse is read as its pair's inverse: the domain side of
    P^-1 is the codomain side of P, and the codomain side of P^-1 the domain
    side of P, each decoration inverted where the walk reaches it, so
    inverse(P) is never built.  Each leaf b of the common refinement of H's
    codomain and G's domain lies below an image leaf of H and below a domain
    leaf of G.  Its preimage under H, its image under G and the composite
    decoration on it make one entry.  The walk yields the leaves below one
    leaf of either side in a row, so each decoration is inverted once.
    """
    gl, gimg, gdecs = front
    hl, hpre, hdecs = back
    entries: Entries = {}
    last_j = last_k = -1
    for b, j, k in _refinement_walk(hl, gl):
        if j != last_j:
            last_j = j
            (s, w), hd = hpre[j], hdecs[j]
            hd, hd_inv = (hd.inverse(), hd) if back_inverse else (hd, hd.inverse())
            cut = len(hl[j][1])
        if k != last_k:
            last_k = k
            (ms, mw), gd = gimg[k], gdecs[k]
            if front_inverse:
                gd = gd.inverse()
            gcut = len(gl[k][1])
        u = hd_inv.apply_word(b[1][cut:])
        v = b[1][gcut:]
        entries[(s, w + u)] = ((ms, mw + gd.apply_word(v)), gd.restrict(v).compose(hd.restrict(u)))
    return entries


def compose(g: TreePair, h: TreePair) -> TreePair:
    """The element g∘h (h applied first), in canonical form: the reduced walk of _walk."""
    if g.config != h.config:
        raise ValueError("config mismatch")
    if g.domain.n != h.codomain.n:
        raise ValueError("summand counts do not compose")
    entries = _reduce(g.config, _walk(_domain_side(g), _codomain_side(h)))
    return _pair(g.config, h.domain.n, g.codomain.n, entries)


def expand_leaf(g: TreePair, leaf_index: int) -> TreePair:
    """Split one domain leaf (and its image) one level down; inverse of a cherry merge."""
    entries = _entries(g)
    s, w = g.domain.leaves[leaf_index]
    (ms, mw), dec = entries.pop((s, w))
    for d in range(g.config.q):
        entries[(s, w + (d,))] = ((ms, mw + dec.apply_word((d,))), dec.restrict((d,)))
    return _pair(g.config, g.domain.n, g.codomain.n, entries)


def canonical_form(g: TreePair) -> TreePair:
    """The unique reduced representative of the boundary map of g (see _reduce); g if reduced."""
    entries = _entries(g)
    if len(_reduce(g.config, entries)) == len(g.leaf_map):
        return g  # no cherry merged
    return _pair(g.config, g.domain.n, g.codomain.n, entries)


# ---------------------------------------------------------------------------
# decision procedures


def forest_portraits(g: TreePair) -> list[LabeledIsometry] | None:
    """Portraits of g as a strict transformation, or None if g is not one.

    g lies in the product of the D-admissible isometry groups of the summands
    iff its reduced form sends each summand root to itself.  Every cherry of
    such an isometry has its vertex permutation in D, so it reduces to the
    roots; conversely a root-to-root pair is an isometry with its decorations
    as portraits, and those have labels in D.  Equal leaf counts make the
    summand counts equal.
    """
    return _reduced_portraits(canonical_form(g))


def _reduced_portraits(c: TreePair) -> list[LabeledIsometry] | None:
    """forest_portraits of a pair already in canonical form."""
    if any(w or c.image_leaf(i) != (s, ()) for i, (s, w) in enumerate(c.domain.leaves)):
        return None
    return list(c.decorations)


def depth_triviality(g: TreePair) -> int | float | None:
    """Largest k with g trivial on all vertices to depth k in every summand.

    Returns None when g is not a D-admissible isometry of each summand, and
    math.inf for the identity.
    """
    portraits = forest_portraits(g)
    if portraits is None:
        return None
    return min((p.min_support_depth() for p in portraits), default=math.inf)


def classify_arrow(alpha: TreePair) -> ArrowKind:
    """Most specific kind of a local similarity as a poset arrow."""
    return _classify_reduced(canonical_form(alpha))


def _classify_reduced(a: TreePair) -> ArrowKind:
    """classify_arrow of a pair already in canonical form."""
    n, m = a.domain.n, a.codomain.n
    if n == m:
        if all(w == () for _, w in a.domain.leaves) and all(w == () for _, w in a.codomain.leaves):
            sigma = tuple(a.image_leaf(i)[0] for i in range(n))
            if sigma == tuple(range(1, n + 1)):
                return ArrowKind.STRICT_TRANSFORMATION
            return ArrowKind.TRANSFORMATION
        return ArrowKind.NOT_AN_ARROW
    if n > m:
        if any(w != () for _, w in a.domain.leaves):
            return ArrowKind.NOT_AN_ARROW
        counts = [0] * (m + 1)
        for i in range(n):
            counts[a.image_leaf(i)[0]] += 1
        if all(c in (1, a.config.q) for c in counts[1:]):
            return ArrowKind.VERY_ELEMENTARY_MERGE
        return ArrowKind.MERGE
    return ArrowKind.NOT_AN_ARROW


def stabilizer_test(gamma: TreePair, phi: TreePair) -> bool:
    """Whether gamma fixes the class of phi under postcomposition.

    The stabilizer consists exactly of the conjugates of strict
    transformations, so the test conjugates gamma back through phi, as
    phi^-1 ∘ (gamma ∘ phi) on two walks with phi^-1 read in place, and
    reads the answer off the reduced entries; no pair is built.  Only the
    conjugate is reduced: reduced entries are unique whatever the
    partitions they were walked on.
    """
    if gamma.config != phi.config:
        raise ValueError("config mismatch")
    if phi.codomain.n != phi.config.r or gamma.domain.n != phi.config.r:
        raise ValueError("gamma must act on the codomain forest of phi")
    phi_cod = _codomain_side(phi)
    moved = _walk(_domain_side(gamma), phi_cod)  # gamma ∘ phi, left unreduced
    conj = _reduce(phi.config, _walk(phi_cod, _entries_side(moved, True), front_inverse=True))
    return all(not a[1] and img == a for a, (img, _) in conj.items())  # roots onto themselves


def _internal_vertices(part: LeafPartition) -> list[Address]:
    """Proper ancestors of the leaves (vertices above the partition)."""
    out = set()
    for s, w in part.leaves:
        for i in range(len(w)):
            out.add((s, w[:i]))
    return sorted(out)


def conjugates_into(phi: TreePair, kprime: int, k: int) -> bool:
    """Whether phi carries every depth-kprime-trivial strict transformation of
    its domain forest into a depth-k-trivial one of its codomain forest.

    Labels strictly below a domain leaf conjugate to labels at a computable
    depth, so only those cases are checked analytically; the finitely many
    labels above the leaves are conjugated explicitly, by
    _labels_conjugate_into, which builds no pair.
    """
    for i, (s, w) in enumerate(phi.domain.leaves):
        dm = len(phi.image_leaf(i)[1])
        # a label at relative depth t >= max(0, kprime - len(w)) below this leaf
        # lands at depth dm + t in the codomain
        if dm + max(0, kprime - len(w)) < k:
            return False
    phi_dom = _domain_side(phi)
    return all(_labels_conjugate_into(phi, phi_dom, v, k)
               for v in _internal_vertices(phi.domain) if len(v[1]) >= kprime)


def _labels_conjugate_into(phi: TreePair, phi_dom: Side, v: Address, k: int) -> bool:
    """Whether phi carries each single non-identity label at the internal
    domain vertex v into a depth-k-trivial strict transformation.

    phi_dom is _domain_side(phi).  Each conjugate phi nu phi^-1 is read as
    (phi ∘ nu) ∘ phi^-1 on two walks, with nu read off its one label and
    phi^-1 in place, and no pair is built.  It is depth-k-trivial and strict
    iff its reduced entries send each summand root to itself with portraits,
    their decorations, that have no label shallower than k.
    """
    config = phi.config
    q, n = config.q, phi.domain.n
    roots = [(s, ()) for s in range(1, n + 1)]
    ident = identity_perm(q)
    for p in config.sorted_group():
        if p != ident:
            portraits = [LabeledIsometry.identity(q)] * n
            portraits[v[0] - 1] = LabeledIsometry(q, ((v[1], p),))
            moved = _walk(phi_dom, (roots, roots, portraits))  # phi ∘ nu
            conj = _reduce(config, _walk(_entries_side(moved, False), phi_dom, back_inverse=True))
            if any(a[1] or img != a or dec.min_support_depth() < k
                   for a, (img, dec) in conj.items()):
                return False
    return True


def subnormal_depth(phi: TreePair, k: int) -> int:
    """Minimal k' such that conjugation by phi maps depth-k'-trivial strict
    transformations into depth-k-trivial ones, that is, the least k' with
    conjugates_into(phi, k', k).

    conjugates_into is the conjunction of two conditions, each monotone in k':

    - the leaf condition holds iff k' >= kA, where kA is 0 or the largest
      |w| + k - dm over the domain leaves w whose image has depth dm < k;
    - the vertex condition checks the internal vertices of depth >= k', so it
      holds iff k' exceeds the depth of every internal vertex at which some
      label conjugates to a label shallower than k; call that threshold kB.

    The answer is max(kA, kB), found by scanning the internal vertices of depth
    >= kA deepest first: the first failure at depth d gives d + 1 > kA, and
    no failure gives kA.  phi is read along its domain once, and only if a
    conjugation is tried.  The answer never exceeds bound = max over the leaves of
    max(|w|, |w| + k - dm), at which an upward search over k' = 0, 1, ...
    always stops: kA <= bound, and every internal vertex lies strictly above
    a leaf, so kB <= the depth of the deepest leaf <= bound.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ka = 0
    for i, (s, w) in enumerate(phi.domain.leaves):
        dm = len(phi.image_leaf(i)[1])
        if dm < k:
            ka = max(ka, len(w) + k - dm)
    scan = sorted((v for v in _internal_vertices(phi.domain) if len(v[1]) >= ka),
                  key=lambda v: -len(v[1]))
    if phi.config.group_order == 1 or not scan:
        return ka
    phi_dom = _domain_side(phi)
    for v in scan:
        if not _labels_conjugate_into(phi, phi_dom, v, k):
            return len(v[1]) + 1
    return ka


def thompson_membership(g: TreePair) -> dict[str, bool]:
    """Flags for the canonical representative of a group element.

    in_v: every decoration of the canonical form is trivial.
    in_f: additionally the leaf bijection is order-preserving.
    """
    c = canonical_form(g)
    in_v = all(dec.is_identity for dec in c.decorations)
    in_f = in_v and c.leaf_map == tuple(range(len(c.leaf_map)))
    return {"in_v": in_v, "in_f": in_f}


# ---------------------------------------------------------------------------
# serialization

def element_to_json(g: TreePair) -> dict:
    return {
        "q": g.config.q,
        "r": g.config.r,
        "D": [perm_to_word(p) for p in g.config.sorted_group()],
        "domain": [format_address(a) for a in g.domain.leaves],
        "codomain": [format_address(a) for a in g.codomain.leaves],
        "map": list(g.leaf_map),
        "decorations": [
            {"".join(str(d) for d in w): perm_to_word(p) for w, p in dec.labels}
            for dec in g.decorations
        ],
    }


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def element_from_json(data: dict) -> TreePair:
    try:
        q = _json_int(data["q"], "q")
        r = _json_int(data["r"], "r")
        gens = tuple(word_to_perm(w) for w in data["D"])
        config = Config(q, r, gens)
        domain = [parse_address(t) for t in data["domain"]]
        codomain = [parse_address(t) for t in data["codomain"]]
        n_dom = max((a[0] for a in domain), default=r)
        n_cod = max((a[0] for a in codomain), default=r)
        decs = tuple(
            LabeledIsometry.make(q, {tuple(int(ch) for ch in w): word_to_perm(p)
                                     for w, p in d.items()})
            for d in data["decorations"]
        )
        return TreePair(
            config,
            LeafPartition(max(n_dom, 1), tuple(sorted(domain))),
            LeafPartition(max(n_cod, 1), tuple(sorted(codomain))),
            tuple(_json_int(i, "leaf index") for i in data["map"]),
            decs,
        )
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# random elements (seeded; used by the property tests and tests/golden_cases.py)


def random_partition(rng: Random, config: Config, n: int, max_depth: int) -> LeafPartition:
    leaves: list[Address] = []

    def grow(s: int, w: Word):
        if len(w) < max_depth and rng.random() < 0.45:
            for d in range(config.q):
                grow(s, w + (d,))
        else:
            leaves.append((s, w))

    for s in range(1, n + 1):
        grow(s, ())
    return LeafPartition(n, tuple(sorted(leaves)))


def random_labeled_isometry(rng: Random, config: Config, max_depth: int = 2) -> LabeledIsometry:
    labels: dict[Word, Perm] = {}
    if config.group_order > 1 and rng.random() < 0.5:
        elems = config.sorted_group()
        for _ in range(rng.randrange(1, 3)):
            depth = rng.randrange(0, max_depth + 1)
            w = tuple(rng.randrange(config.q) for _ in range(depth))
            labels[w] = elems[rng.randrange(len(elems))]
    return LabeledIsometry.make(config.q, labels)


def random_partition_with_leaf_count(rng: Random, config: Config, n: int,
                                     count: int) -> LeafPartition:
    """A partition of an n-summand forest with exactly `count` leaves.

    Each split adds q - 1 leaves, so the required number of splits lands on
    `count` exactly.
    """
    q = config.q
    if count < n or (count - n) % (q - 1) != 0:
        raise ValueError(f"no partition of {n} summands with {count} leaves")
    leaves = {(s, ()) for s in range(1, n + 1)}
    for _ in range((count - n) // (q - 1)):
        a = sorted(leaves)[rng.randrange(len(leaves))]
        leaves.remove(a)
        leaves.update((a[0], a[1] + (d,)) for d in range(q))
    return LeafPartition(n, tuple(sorted(leaves)))


def random_element(rng: Random, config: Config, max_depth: int = 4,
                   n: int | None = None, m: int | None = None) -> TreePair:
    """Random tree pair nB -> mB (defaults to a group element)."""
    n = config.r if n is None else n
    m = config.r if m is None else m
    q = config.q
    if (n - m) % (q - 1) != 0:
        raise ValueError("no local similarities between these summand counts")
    dom = random_partition(rng, config, n, max_depth)
    count = len(dom.leaves)
    if count < m:
        # grow to a leaf count compatible with both sides
        count += (q - 1) * (-(-(m - count) // (q - 1)))
        dom = random_partition_with_leaf_count(rng, config, n, count)
    cod = random_partition_with_leaf_count(rng, config, m, count)
    perm = list(range(count))
    rng.shuffle(perm)
    decs = tuple(random_labeled_isometry(rng, config) for _ in range(count))
    return canonical_form(TreePair(config, dom, cod, tuple(perm), decs))
