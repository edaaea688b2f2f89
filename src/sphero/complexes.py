"""Decorated disjoint-support complexes and the split-class posets around them.

The flag complex on q-subsets of {1..n} decorated by cosets of D in Sym(q)
models the space of very elementary splittings; its connectivity grows
linearly in n.  The full poset of splitting classes, the cut posets that
contract onto depth-one cuts, and the orbit counts of the level-filtered
vertex category are enumerated here at desk scale.  The orbit counts use no
tree-pair arithmetic: a chain is a tuple of ball tuples, twisted at its last
object only (see ``count_cell_orbits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, combinations, combinations_with_replacement, groupby, permutations, product
from operator import or_

from .groups import Address, Config, LabeledIsometry, LeafPartition, TreePair, Word
from .homology import ChainComplex, flag_complex
from .perms import Perm, compose_perms, identity_perm, perm_to_word
from .posets import GenPoset


class EnumerationCap(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


# ---------------------------------------------------------------------------
# decorated complexes


def coset_representative(sigma: Perm, group: frozenset[Perm]) -> Perm:
    """Lexicographically minimal element of the left coset sigma D."""
    return min(compose_perms(sigma, d) for d in group)


def decorations_for(config: Config) -> list[Perm]:
    """Canonical representatives of Sym(q)/D, sorted."""
    reps = {coset_representative(p, config.group) for p in permutations(range(config.q))}
    return sorted(reps)


@dataclass(frozen=True)
class DecoratedVertex:
    support: tuple[int, ...]  # sorted q-subset of {1..n}
    decoration: Perm  # minimal coset representative


@dataclass(frozen=True)
class DecoratedComplex:
    """Flag complex with decorated q-subset vertices, edges on disjoint supports.

    The graph is not stored: ``neighbours`` derives it per support class, and
    ``edges`` lists it as index pairs for the JSON and CSV writers.
    """

    n: int
    config: Config
    vertices: tuple[DecoratedVertex, ...]

    @cached_property
    def neighbours(self) -> tuple[int, ...]:
        """Bit j of neighbours[i] is set when vertices i and j have disjoint supports.

        Vertices come in runs that share a support, and every vertex of a run
        has the same neighbours: the vertices outside the OR of meets[x], the
        mask of the vertices whose support holds x, over x in its support.
        That is O(q) mask operations per run, not a test per pair of runs.
        """
        runs = [(s, len(list(run))) for s, run in groupby(self.vertices, key=lambda v: v.support)]
        meets = [0] * (self.n + 1)
        start = 0
        for support, k in runs:
            for x in support:
                meets[x] |= ((1 << k) - 1) << start
            start += k
        every = (1 << start) - 1
        return tuple(chain.from_iterable([every ^ reduce(or_, map(meets.__getitem__, support))] * k
                                         for support, k in runs))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The pairs i < j of vertices with disjoint supports, in lexicographic order."""
        out = []
        for i, m in enumerate(self.neighbours):
            m &= -(2 << i)  # the neighbours above i
            while m:
                low = m & -m
                m ^= low
                out.append((i, low.bit_length() - 1))
        return tuple(out)

    def vertex_index(self) -> dict[DecoratedVertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.config.q,
            "D": [perm_to_word(p) for p in self.config.sorted_group()],
            "vertices": [
                {"support": list(v.support), "decoration": perm_to_word(v.decoration)}
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
        }

    def chain_complex(self, max_dim: int) -> ChainComplex:
        return flag_complex(range(len(self.vertices)), self.neighbours, max_dim)


def build_complex(config: Config, n: int) -> DecoratedComplex:
    """All decorated q-subsets of {1..n}, grouped by support; edges join disjoint supports."""
    if n < 1:
        raise ValueError("n must be at least 1")
    decs = decorations_for(config)
    vertices = tuple(
        DecoratedVertex(tuple(sup), dec)
        for sup in combinations(range(1, n + 1), config.q)
        for dec in decs
    )
    return DecoratedComplex(n, config, vertices)


def connectivity_bound(config: Config, n: int) -> int:
    """The linear lower bound for the connectivity of the complex on n elements."""
    return (n - config.q) // (2 * config.q - 1) - 1


def morse_value(vertex: DecoratedVertex, config: Config) -> int:
    """Binary number with q digits; digit i (most significant first) marks i in the support."""
    base = set(range(1, config.q + 1))
    if not (base & set(vertex.support)):
        raise ValueError("vertex is disjoint from the base support; it has no Morse value")
    return sum(1 << (config.q - i) for i in base & set(vertex.support))


def vertex_descending_link(cx: DecoratedComplex, a: DecoratedVertex) -> tuple[DecoratedComplex, dict[int, int]]:
    """Full subcomplex on vertices disjoint from a with larger minimum, relabeled.

    Returns the relabeled complex on {1..k} together with the order-preserving
    relabeling of the ground set; the relabeled vertices are asserted to be
    those of the freshly built complex on k elements (none when k <= 1).
    """
    config = cx.config
    base = set(range(1, config.q + 1))
    if not (base & set(a.support)):
        raise ValueError("vertex must meet the base support")
    min_a = min(a.support)
    avail = [x for x in range(min_a + 1, cx.n + 1) if x not in a.support]
    relabel = {x: i + 1 for i, x in enumerate(avail)}
    relabeled = tuple(sorted(
        (DecoratedVertex(tuple(sorted(relabel[x] for x in v.support)), v.decoration)
         for v in cx.vertices
         if not (set(v.support) & set(a.support)) and min_a < min(v.support)),
        key=lambda v: (v.support, v.decoration),
    ))
    sub = build_complex(config, max(len(avail), 1))
    if relabeled != sub.vertices:
        raise AssertionError("descending link does not match the complex on k elements")
    return sub, relabel


# ---------------------------------------------------------------------------
# splitting records


Tile = tuple[Word, int]  # (word of the ball, target summand in 1..n)
Block = tuple[Tile, ...]  # one domain summand: labeled tiling, sorted by word


def tilings(q: int, t: int) -> list[tuple[Word, ...]]:
    """Complete prefix codes of the rooted q-ary tree with exactly t leaves."""
    if t == 1:
        return [((),)]
    if (t - 1) % (q - 1) != 0 or t < 1:
        return []
    out = []
    for split in _compositions(t, q):
        parts = [tilings(q, c) for c in split]
        for combo in product(*parts):
            words = []
            for d, sub in enumerate(combo):
                words.extend((d,) + w for w in sub)
            out.append(tuple(sorted(words)))
    return out


def _compositions(total: int, parts: int):
    """Ordered splits of total into parts positive summands, in lexicographic order."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def canonical_block(config: Config, block: Block) -> Block:
    """Minimal representative of the block under the D-admissible isometry action.

    The orbit is every independent choice of a label in D at each internal
    vertex of the tiling, so the minimum is found bottom-up: each child
    subtree is replaced by its own minimum, and the root label places the
    children.  Child segments have fixed lengths, so for a fixed root label the
    smallest block is the concatenation of the segment minima.
    """
    if len(block) == 1 or len(config.group) == 1:
        return block
    return _min_tiling(config.group, config.q, block)


def _min_tiling(group: frozenset[Perm], q: int, block: Block) -> Block:
    if len(block) == 1:
        return block
    children: list[list[Tile]] = [[] for _ in range(q)]
    for w, t in block:
        children[w[0]].append((w[1:], t))
    mins = [_min_tiling(group, q, tuple(c)) for c in children]
    best = _root_label(group, [m[0] for m in mins])
    return tuple(((d,) + w, t) for d, c in enumerate(best) for w, t in mins[c])


def _root_label(group: frozenset[Perm], firsts: list[Tile]) -> Perm:
    """The root label that places minimal children with these first tiles.

    The label p moves child c to position p[c]; D is closed under inverses,
    so putting child p[d] at position d runs over the same arrangements.
    Children carry disjoint targets, so two arrangements first differ where
    they hold different children, and there the children's first tiles decide.
    """
    return min(group, key=lambda p: [firsts[c] for c in p])


@dataclass(frozen=True, slots=True)
class SplitRecord:
    """A splitting class: blocks of targets, each with a labeled tiling.

    Blocks are canonically sorted; each block's tiling is the minimal orbit
    representative under D-admissible isometries.  The object id is built
    once, with the record: sorting the records and naming the poset's
    objects both read it.
    """

    config: Config
    n: int
    blocks: tuple[Block, ...]
    _id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = []
        for block in self.blocks:
            tiles = ",".join(("".join(map(str, w)) or "e") + ">" + str(t) for w, t in block)
            parts.append("(" + tiles + ")")
        object.__setattr__(self, "_id", f"k{self.k}:" + "|".join(parts))

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def is_very_elementary(self) -> bool:
        for block in self.blocks:
            if len(block) == 1:
                continue
            if len(block) != self.config.q or any(len(w) != 1 for w, _ in block):
                return False
        return True

    def object_id(self) -> str:
        return self._id


def make_record(config: Config, n: int, raw_blocks) -> SplitRecord:
    blocks = tuple(sorted(canonical_block(config, tuple(sorted(b))) for b in raw_blocks))
    targets = sorted(t for b in blocks for _, t in b)
    if targets != list(range(1, n + 1)):
        raise ValueError("blocks do not partition the target set")
    return SplitRecord(config, n, blocks)


def _set_partitions(items: list[int]):
    """Set partitions of the sorted items; every part comes sorted."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _canonical_blocks(config: Config, n: int) -> list[list[Block]]:
    """table[t]: every canonical block on the targets 1..t, for t <= n.

    A block is canonical iff its children are canonical and ``_root_label``
    picks the identity for them, as in ``_min_tiling`` (always, when D is
    trivial).  Canonical form commutes with order-preserving relabeling,
    since ``_min_tiling`` only compares tiles, so the children on an ordered
    split of 1..t into q parts come from the tables of the part sizes,
    relabeled in order.  Each canonical block is built once, from its own
    split and children.
    """
    q, ident, trivial = config.q, identity_perm(config.q), config.group_order == 1
    table: list[list[Block]] = [[], [(((), 1),)]]
    words: dict[Word, Word] = {}  # one tuple per word, shared by the blocks that hold it
    for t in range(2, n + 1):
        blocks = []
        for sizes in _compositions(t, q):
            for split in _ordered_splits(range(1, t + 1), sizes):
                options = [_relabeled(table[len(part)], part) for part in split]
                for children in product(*options):
                    if trivial or _root_label(config.group, [c[0] for c in children]) == ident:
                        blocks.append(tuple((words.setdefault(v := (d,) + w, v), x)
                                            for d, c in enumerate(children) for w, x in c))
        table.append(blocks)
    return table


def _ordered_splits(items, sizes: tuple[int, ...]):
    """Ordered tuples of disjoint sorted parts of items with these sizes."""
    if not sizes:
        yield ()
        return
    for first in combinations(items, sizes[0]):
        rest = [x for x in items if x not in first]
        for tail in _ordered_splits(rest, sizes[1:]):
            yield (first,) + tail


def _relabeled(blocks: list[Block], targets) -> list[Block]:
    """The blocks on 1..t with target i renamed to the i-th of the sorted targets.

    Targets 1..t rename nothing, so the blocks themselves are returned, not a copy.
    """
    if targets[-1] == len(targets):  # sorted distinct positive targets: exactly 1..t
        return blocks
    return [tuple((w, targets[x - 1]) for w, x in b) for b in blocks]


def split_records(config: Config, n: int, cap: int = 6) -> list[SplitRecord]:
    """All splitting classes with fewer than n blocks, canonicalized and sorted.

    Each part of a set partition of 1..n takes its blocks from the table of
    canonical blocks for its size, so no block is canonicalized here.
    """
    if n > cap:
        raise EnumerationCap(f"n={n} exceeds the enumeration cap {cap}")
    table = _canonical_blocks(config, n)
    out = []
    for part in _set_partitions(list(range(1, n + 1))):
        if len(part) >= n:
            continue  # the all-singletons partition is the identity, not a split
        choices = [_relabeled(table[len(p)], p) for p in part]
        out += (SplitRecord(config, n, tuple(sorted(combo))) for combo in product(*choices))
    return sorted(out, key=lambda r: (r.k, r.object_id()))


# cuts of a block: tilings at or above the tiles


def _cuts_of_words(words: set[Word], prefix: Word, q: int):
    if prefix in words:
        yield (prefix,)
        return
    yield (prefix,)
    child_cuts = []
    for d in range(q):
        child_cuts.append(list(_cuts_of_words(words, prefix + (d,), q)))
    for combo in product(*child_cuts):
        yield tuple(sorted(w for sub in combo for w in sub))


def block_cuts(config: Config, block: Block) -> list[tuple[Word, ...]]:
    """All ball partitions of the block's tree sitting at or above its tiles."""
    words = {w for w, _ in block}
    return sorted(set(_cuts_of_words(words, (), config.q)))


def _induced_blocks(config: Config, block: Block, cut: tuple[Word, ...]) -> list[Block]:
    out = []
    for c in cut:
        tiles = tuple(sorted((w[len(c):], t) for w, t in block if w[: len(c)] == c))
        out.append(canonical_block(config, tiles))
    return out


def has_arrow(r1: SplitRecord, r2: SplitRecord) -> bool:
    """Whether r1 factors through r2, i.e. r1 arises by cutting r2's trees.

    A pairwise test, kept as the reference for the arrows that
    ``split_class_poset`` generates from cuts.
    """
    if r1.k <= r2.k or r1.n != r2.n:
        return False
    targets1 = [frozenset(t for _, t in b) for b in r1.blocks]
    blocks1 = list(r1.blocks)
    for b2 in r2.blocks:
        t2 = frozenset(t for _, t in b2)
        members = [blocks1[i] for i, t1 in enumerate(targets1) if t1 <= t2]
        covered = frozenset(t for b in members for _, t in b)
        if covered != t2:
            return False
        want = sorted(members)
        found = False
        for cut in block_cuts(r2.config, b2):
            if len(cut) != len(members):
                continue
            if sorted(_induced_blocks(r2.config, b2, cut)) == want:
                found = True
                break
        if not found:
            return False
    return True


def split_class_poset(records: list[SplitRecord]) -> GenPoset:
    """Poset of splitting classes below a level-n vertex, arrows by factorization.

    ``records`` is ``split_records(config, n)``, or a part of it (see
    ``elementary_split_poset``), one object per record.
    Arrows are generated from the coarser record: every choice of one cut per
    block induces a finer set of blocks, which is a record unless it is the
    all-singletons partition.  This is the condition of ``has_arrow``.

    Record blocks are canonical, and so is every subtree of one, so a cut
    induces its blocks without ``canonical_block``: the tiles below a cut word
    are one run of the sorted block, with the cut word stripped.  The cuts
    and their runs depend only on the block's words, so they are found once
    per shape, and each block zips its targets into them.
    """
    ids = {r.blocks: r.object_id() for r in records}
    shapes: dict[tuple[Word, ...], list[list[tuple[int, tuple[Word, ...]]]]] = {}
    arrows = []
    for r2 in records:
        per_block = []
        for b in r2.blocks:
            words, targets = zip(*b)
            if words not in shapes:
                shapes[words] = [_cut_runs(words, cut) for cut in block_cuts(r2.config, b)]
            per_block.append([[tuple(zip(run, targets[lo:])) for lo, run in runs]
                              for runs in shapes[words]])
        k, target = r2.k, ids[r2.blocks]
        for combo in product(*per_block):
            blocks = tuple(sorted(chain.from_iterable(combo)))
            if len(blocks) > k and blocks in ids:
                arrows.append((ids[blocks], target))
    return GenPoset.make(list(ids.values()), arrows).require_valid()


def _cut_runs(words: tuple[Word, ...], cut: tuple[Word, ...]) -> list[tuple[int, tuple[Word, ...]]]:
    """Per cut word, the start of its run in the sorted words and the run's words below it.

    The cut is sorted and prefix-free, so its runs follow one another.
    """
    runs, lo = [], 0
    for c in cut:
        run = tuple(w[len(c):] for w in words if w[:len(c)] == c)
        runs.append((lo, run))
        lo += len(run)
    return runs


def elementary_split_poset(records: list[SplitRecord]) -> GenPoset:
    """Subposet of very elementary splitting classes, built from those records alone.

    ``split_class_poset`` generates each arrow from its coarser record, so
    given the very elementary records it builds every arrow between them and
    no other; a cut of a very elementary block is the block itself or its q
    singletons, so each record has few cuts to try.  The result is the full
    subcategory of ``split_class_poset(records)`` on those records, with the
    same object ids.
    """
    return split_class_poset([r for r in records if r.is_very_elementary])


def elementary_record_to_simplex(record: SplitRecord) -> tuple[DecoratedVertex, ...]:
    """The simplex of the decorated complex carried by a very elementary record."""
    if not record.is_very_elementary:
        raise ValueError("record is not very elementary")
    verts = []
    for block in record.blocks:
        if len(block) == 1:
            continue
        support = tuple(sorted(t for _, t in block))
        order = {t: w[0] for w, t in block}  # element -> which child ball
        sigma = tuple(order[support[i]] for i in range(len(support)))
        # decoration: the coset of the permutation sending position i to child sigma[i]
        verts.append(DecoratedVertex(support, coset_representative(sigma, record.config.group)))
    return tuple(sorted(verts, key=lambda v: (v.support, v.decoration)))


# ---------------------------------------------------------------------------
# cut posets (descending links of non-elementary records)


@dataclass(frozen=True)
class CutPoset:
    """Refinement poset of the intermediate ball partitions of a record.

    Elements are per-block cuts, excluding the all-roots and all-tiles
    partitions; p_top is the depth-one cut on split blocks and retract maps
    every element to the depth-one cut on the blocks it divides.
    """

    record: SplitRecord
    elements: tuple[tuple[tuple[Word, ...], ...], ...]
    poset: GenPoset
    p_top: tuple[tuple[Word, ...], ...]
    retract: dict[tuple, tuple]


def _cut_refines(c1: tuple[Word, ...], c2: tuple[Word, ...]) -> bool:
    return all(any(w[: len(v)] == v for v in c2) for w in c1)


def element_id(elem) -> str:
    return "|".join(",".join("".join(map(str, w)) or "e" for w in cut) for cut in elem)


def cut_poset(record: SplitRecord) -> CutPoset:
    """Build the cut poset of a non-very-elementary record and its cone data."""
    if record.is_very_elementary:
        raise ValueError("very elementary records have no depth-one top element here")
    q = record.config.q
    per_block = [block_cuts(record.config, b) for b in record.blocks]
    k = record.k
    n = record.n
    elems = []
    for combo in product(*per_block):
        size = sum(len(c) for c in combo)
        if size == k or size == n:
            continue  # the trivial partition and the full tile partition
        elems.append(tuple(combo))
    depth_one = tuple(
        tuple((d,) for d in range(q)) if len(b) > 1 else ((),)
        for b in record.blocks
    )
    retract = {}
    for e in elems:
        retract[e] = tuple(
            (tuple((d,) for d in range(q)) if cut != ((),) else ((),))
            for cut in e
        )
    arrows = []
    for e1 in elems:
        for e2 in elems:
            if e1 != e2 and all(_cut_refines(c1, c2) for c1, c2 in zip(e1, e2)):
                arrows.append((element_id(e1), element_id(e2)))
    poset = GenPoset.make([element_id(e) for e in elems], arrows).require_valid()
    return CutPoset(record, tuple(elems), poset, depth_one, retract)


def check_cone_relations(cp: CutPoset) -> None:
    """Assert the three retraction relations that cone off the cut poset."""
    ids = {e: element_id(e) for e in cp.elements}
    if cp.p_top not in set(cp.elements):
        raise AssertionError("depth-one cut is not an element of the poset")
    for e in cp.elements:
        f = cp.retract[e]
        if f not in ids:
            raise AssertionError("retract image leaves the poset")
        if not all(_cut_refines(c1, c2) for c1, c2 in zip(e, f)):
            raise AssertionError("element does not refine its retract image")
        if not all(_cut_refines(c1, c2) for c1, c2 in zip(cp.p_top, f)):
            raise AssertionError("the depth-one cut does not refine a retract image")
    for e1 in cp.elements:
        for e2 in cp.elements:
            if all(_cut_refines(a, b) for a, b in zip(e1, e2)):
                f1, f2 = cp.retract[e1], cp.retract[e2]
                if not all(_cut_refines(a, b) for a, b in zip(f1, f2)):
                    raise AssertionError("retract is not order preserving")


# ---------------------------------------------------------------------------
# level-filtered vertex category modulo strict transformations


def _forest_tilings(config: Config, n_summands: int, total_tiles: int,
                    max_depth: int | None = None) -> list[tuple[Address, ...]]:
    """Ordered partitions of an n-summand forest into total_tiles balls."""
    per_summand: list[list[tuple[Word, ...]]] = []
    out: list[tuple[Address, ...]] = []

    def rec(s: int, remaining: int, acc: list[Address]):
        if s > n_summands:
            if remaining == 0:
                out.append(tuple(acc))
            return
        max_here = remaining - (n_summands - s)
        for t in range(1, max_here + 1):
            for tl in tilings(config.q, t):
                if max_depth is not None and any(len(w) > max_depth for w in tl):
                    continue
                rec(s + 1, remaining - t, acc + [(s, w) for w in tl])

    rec(1, total_tiles, [])
    return out


def strict_class_poset(config: Config, max_level: int) -> tuple[GenPoset, dict[str, TreePair]]:
    """Truncation of the level-filtered vertex category modulo strict transformations.

    Objects are ordered tilings of the codomain forest with at most max_level
    tiles of depth at most 2; arrows are refinements (merges) and
    reorderings (transformations).  Returns the poset and a representative
    tree pair per object.
    """
    objects: dict[str, tuple[Address, ...]] = {}
    for m in range(1, max_level + 1):
        if (m - config.r) % (config.q - 1) != 0:
            continue
        for tiling in _forest_tilings(config, config.r, m, max_depth=2):
            for order in permutations(tiling):
                oid = tiling_id(order)
                objects[oid] = order
    arrows = []
    items = sorted(objects.items())
    for id1, t1 in items:
        s1 = set(t1)
        for id2, t2 in items:
            if id1 == id2:
                continue
            if len(t1) == len(t2):
                if s1 == set(t2):
                    arrows.append((id1, id2))
            elif len(t1) > len(t2):
                if all(any(a[0] == b[0] and a[1][: len(b[1])] == b[1] for b in t2) for a in t1):
                    arrows.append((id1, id2))
    poset = GenPoset.make(list(objects), arrows).require_valid()
    reps = {oid: _tiling_rep(config, tiling) for oid, tiling in objects.items()}
    return poset, reps


def tiling_id(order: tuple[Address, ...]) -> str:
    return f"L{len(order)}:" + "|".join(f"{s}:" + "".join(map(str, w)) for s, w in order)


def parse_tiling_id(oid: str) -> tuple[Address, ...]:
    _, rest = oid.split(":", 1)
    out = []
    for part in rest.split("|"):
        s, w = part.split(":")
        out.append((int(s), tuple(int(ch) for ch in w)))
    return tuple(out)


def _tiling_rep(config: Config, order: tuple[Address, ...]) -> TreePair:
    m = len(order)
    dom = LeafPartition.roots(m)
    cod = sorted(order)
    index = {a: i for i, a in enumerate(cod)}
    leaf_map = tuple(index[order[i]] for i in range(m))
    decs = tuple(LabeledIsometry.identity(config.q) for _ in range(m))
    return TreePair(config, dom, LeafPartition(config.r, tuple(cod)), leaf_map, decs)


def act_on_tiling_object(gamma_portraits: list[LabeledIsometry], oid_tiling: tuple[Address, ...]) -> tuple[Address, ...]:
    """Postcompose an object by a strict transformation of the codomain forest."""
    return tuple((s, gamma_portraits[s - 1].apply_word(w)) for s, w in oid_tiling)


# ---------------------------------------------------------------------------
# orbit counting of chains


def _twist(chain: tuple, portraits: list[LabeledIsometry]) -> tuple:
    """The chain after the strict transformation with these portraits of its last object.

    A decoration-free arrow out of m roots is the tuple of the m balls that
    the roots map onto, and a chain is the tuple of its arrows.  Each arrow's
    balls move by the portraits, and the portraits restricted below those
    balls are a strict transformation of the arrow's domain, handed on to the
    arrow before; what reaches the first object is dropped.
    """
    out = []
    for arrow in reversed(chain):
        out.append(act_on_tiling_object(portraits, arrow))
        portraits = [portraits[s - 1].restrict(w) for s, w in arrow]
    return tuple(reversed(out))


def _chain_orbit(config: Config, chain: tuple) -> set[tuple]:
    """The orbit of a chain under single-label twists of its last object.

    Labels sit at every vertex down to the deepest ball of the chain; ball
    depths do not change under a twist, so every chain of the orbit has the
    same moves.
    """
    q = config.q
    gens = [p for p in config.sorted_group() if p != identity_perm(q)]
    m = max(s for s, _ in chain[-1])  # the last arrow's balls tile all m summands
    depth = max(len(w) for arrow in chain for _, w in arrow)
    words = [w for d in range(depth + 1) for w in product(range(q), repeat=d)]
    ident = LabeledIsometry.identity(q)
    moves = [[LabeledIsometry.make(q, {v: p}) if t == s else ident for t in range(m)]
             for s in range(m) for v in words for p in gens]
    seen, frontier = {chain}, [chain]
    while frontier:
        cur = frontier.pop()
        for portraits in moves:
            new = _twist(cur, portraits)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return seen


def count_cell_orbits(config: Config, k: int, d: int) -> int:
    """Orbits of nondegenerate d-chains in the nerve of the level-k truncation.

    Chains (d >= 1) are enumerated through k = 3; levels (d = 0) are counted for any k.

    Only the levels m = r + j(q-1), j >= 0, are populated: these are the leaf
    counts of the complete prefix codes of a forest of r rooted q-ary trees.
    A chain runs down a weakly decreasing sequence of levels; each arrow is a
    merge (every order of every tiling of the lower level's forest) or, between
    equal levels, a non-identity permutation of the roots.

    Chains are identified up to simultaneous strict twists of their objects,
    and it is enough to twist the last object:
    - The pool arrows are reduced and decoration-free, so every chain is
      already in normal form, where each arrow's decorations are stripped
      into a strict factor composed onto the arrow before.
    - Twisting an inner object by chi turns the arrow into it into chi∘a and
      the arrow out of it into b∘chi⁻¹.  Normalizing the second pushes chi⁻¹
      back onto the first, so the chain returns unchanged.
    - A twist of the first object is stripped off and dropped.
    - A twist of the last object, composed and normalized, is exactly the
      restriction cascade of ``_twist``.
    Orbits partition the chains, so each chain not yet seen starts a new one.
    """
    if k < 1 or d < 0:
        raise ValueError("need k >= 1 and d >= 0")
    if d >= 1 and k > 3:
        raise EnumerationCap(f"k={k} exceeds the enumeration cap 3")
    populated = list(range(config.r, k + 1, config.q - 1))
    if d == 0:
        return len(populated)
    total = 0
    for seq in combinations_with_replacement(populated[::-1], d + 1):
        pools = []
        for a, b in zip(seq, seq[1:]):
            if a == b:  # every order of the roots but the first, the identity
                pools.append(list(permutations((s, ()) for s in range(1, a + 1)))[1:])
            else:
                pools.append([o for t in _forest_tilings(config, b, a) for o in permutations(t)])
        seen: set[tuple] = set()
        for chain in product(*pools):
            if chain not in seen:
                seen |= _chain_orbit(config, chain)
                total += 1
    return total
