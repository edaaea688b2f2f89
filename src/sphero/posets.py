"""Generalized posets: finite categories with at most one arrow per ordered pair.

Arrows are stored as a composition-closed relation on object ids (identity
arrows implicit).  Pairs of mutually inverse arrows are allowed, so objects
may be uniquely isomorphic; collapsing those isomorphism clusters gives the
underlying honest poset, which is where order complexes are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .homology import flag_complex, neighbour_masks

ObjId = str
Arrow = tuple[ObjId, ObjId]


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class GenPoset:
    objects: tuple[ObjId, ...]
    arrows: frozenset[Arrow]

    @staticmethod
    def make(objects, arrows) -> "GenPoset":
        known = set(objects)
        objs = tuple(sorted(known))
        arr = frozenset((a, b) for a, b in arrows if a != b)
        for a, b in arr:
            if a not in known or b not in known:
                raise PosetError(f"arrow ({a},{b}) mentions unknown object")
        return GenPoset(objs, arr)

    def validate(self) -> tuple[ObjId, ObjId, ObjId] | None:
        """None if composition-closed, else the first witness triple (a,b,c)."""
        return self._witness

    @cached_property
    def _witness(self) -> tuple[ObjId, ObjId, ObjId] | None:
        """The answer of ``validate``, scanned once per frozen poset: the least witness, unsorted."""
        out = {}
        for a, b in self.arrows:
            out.setdefault(a, []).append(b)
        return min(((a, b, c) for a, b in self.arrows for c in out.get(b, ())
                    if a != c and (a, c) not in self.arrows), default=None)

    def require_valid(self) -> "GenPoset":
        w = self.validate()
        if w is not None:
            raise PosetError(f"missing composite for {w[0]} -> {w[1]} -> {w[2]}")
        return self

    def iso_pairs(self) -> frozenset[Arrow]:
        return frozenset((a, b) for a, b in self.arrows if (b, a) in self.arrows)

    @property
    def is_honest(self) -> bool:
        return not self.iso_pairs()

    def successors(self, x: ObjId) -> list[ObjId]:
        return sorted(b for a, b in self.arrows if a == x)

    def predecessors(self, x: ObjId) -> list[ObjId]:
        return sorted(a for a, b in self.arrows if b == x)

    def full_subcategory(self, keep) -> "GenPoset":
        """The objects in keep with every arrow between them."""
        keep = set(keep)
        return GenPoset.make(
            [o for o in self.objects if o in keep],
            [(a, b) for a, b in self.arrows if a in keep and b in keep],
        )

    def components(self) -> list[frozenset[ObjId]]:
        """Connected components of the underlying undirected graph."""
        adj: dict[ObjId, set[ObjId]] = {o: set() for o in self.objects}
        for a, b in self.arrows:
            adj[a].add(b)
            adj[b].add(a)
        seen: set[ObjId] = set()
        comps = []
        for o in self.objects:
            if o in seen:
                continue
            stack, comp = [o], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(adj[x] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def to_json(self) -> dict:
        return {"objects": list(self.objects), "arrows": sorted(list(a) for a in self.arrows)}


def transitive_closure(objects, arrows) -> GenPoset:
    """Convenience constructor closing the relation under composition."""
    arr = {(a, b) for a, b in arrows if a != b}
    changed = True
    while changed:
        changed = False
        out: dict[ObjId, set[ObjId]] = {}
        for a, b in arr:
            out.setdefault(a, set()).add(b)
        new = set()
        for a, b in arr:
            for c in out.get(b, ()):
                if a != c and (a, c) not in arr:
                    new.add((a, c))
        if new:
            arr |= new
            changed = True
    return GenPoset.make(objects, arr)


def quotient_by_subgroupoid(c: GenPoset, pairs) -> tuple[GenPoset, dict[ObjId, ObjId]]:
    """Collapse each cluster of the subgroupoid to a point.

    Every listed pair must be an isomorphism pair of c.  Since c is closed
    under composition, a chain of such pairs already joins isomorphic objects,
    so the clusters need no closure step.  Returns the quotient and the
    projection map; the class of x is named by its minimal member.
    """
    c.require_valid()
    cls: dict[ObjId, set[ObjId]] = {o: {o} for o in c.objects}
    for a, b in pairs:
        if a == b:
            continue
        if (a, b) not in c.arrows or (b, a) not in c.arrows:
            raise PosetError(f"({a},{b}) is not an isomorphism pair of the category")
        if cls[a] is not cls[b]:
            merged = cls[a] | cls[b]
            for o in merged:
                cls[o] = merged
    proj = {o: min(cls[o]) for o in c.objects}
    arrows = {(proj[a], proj[b]) for a, b in c.arrows if proj[a] != proj[b]}
    out = GenPoset.make(sorted(set(proj.values())), arrows)
    return out.require_valid(), proj


def underlying_poset(c: GenPoset) -> tuple[GenPoset, dict[ObjId, ObjId]]:
    """Quotient by all isomorphism pairs; the result is an honest poset."""
    return quotient_by_subgroupoid(c, c.iso_pairs())


def join(c: GenPoset, d: GenPoset) -> GenPoset:
    """Disjoint union plus one arrow from every c-object to every d-object."""
    if set(c.objects) & set(d.objects):
        raise PosetError("join requires disjoint object ids")
    arrows = set(c.arrows) | set(d.arrows)
    arrows |= {(a, b) for a in c.objects for b in d.objects}
    return GenPoset.make(c.objects + d.objects, arrows).require_valid()


def coone(c: GenPoset, d: GenPoset) -> GenPoset:
    """join(c, d) with an extra object "tip" receiving from c and mapping into d."""
    tip = "tip"
    if tip in c.objects or tip in d.objects:
        raise PosetError(f"tip id {tip!r} collides with an existing object")
    base = join(c, d)
    arrows = set(base.arrows)
    arrows |= {(a, tip) for a in c.objects}
    arrows |= {(tip, b) for b in d.objects}
    return GenPoset.make(base.objects + (tip,), arrows).require_valid()


def order_complex(p: GenPoset):
    """Simplicial chain complex of the chains of an honest poset.

    The chains of an honest composition-closed relation are exactly the
    cliques of its comparability graph, so the complex is a flag complex.
    Generalized posets must pass through underlying_poset first; an
    isomorphism pair raises PosetError saying so, as does a missing composite.
    """
    if not p.is_honest:
        raise PosetError("order complex requires an honest poset; collapse isomorphisms first")
    p.require_valid()
    return flag_complex(*neighbour_masks(p.objects, p.arrows), _height(p))


def _predecessors_in_order(p: GenPoset) -> dict[ObjId, list[ObjId]]:
    """The predecessors of each object of an honest poset, keyed in a topological order.

    In a composition-closed honest poset an arrow a -> b gives b every
    predecessor of a, and a too, so sorting by the number of predecessors is
    a topological order.
    """
    preds: dict[ObjId, list[ObjId]] = {o: [] for o in p.objects}
    for a, b in p.arrows:
        preds[b].append(a)
    return {o: preds[o] for o in sorted(p.objects, key=lambda o: len(preds[o]))}


def chain_count(p: GenPoset) -> int:
    """The number of chains of an honest poset, all lengths: the cells of its order complex.

    Each object ends one chain of its own and one more for each chain ending
    at a predecessor.
    """
    ending: dict[ObjId, int] = {}
    for o, before in _predecessors_in_order(p).items():
        ending[o] = 1 + sum(ending[a] for a in before)
    return sum(ending.values())


def _height(p: GenPoset) -> int:
    """The length of the longest chain of an honest poset (its objects less one; -1 if empty):
    the dimension of its order complex."""
    longest: dict[ObjId, int] = {}
    for o, before in _predecessors_in_order(p).items():
        longest[o] = 1 + max((longest[a] for a in before), default=0)
    return max(longest.values(), default=0) - 1


def descending_link(c: GenPoset, x: ObjId, lower) -> tuple[GenPoset, GenPoset]:
    """Both halves of the descending link of x relative to a set of objects.

    The first part is spanned by lower objects with an arrow into x, the
    second by lower objects receiving an arrow from x; the caller takes the
    join.  Presence of an isomorphism between x and a lower object is an
    error, since attaching such an x is a homotopy equivalence and carries no
    link condition.
    """
    lower = set(lower)
    if x in lower:
        raise PosetError(f"{x} already lies in the base")
    for y in lower:
        if (x, y) in c.arrows and (y, x) in c.arrows:
            raise PosetError(f"{x} is isomorphic to {y} in the base")
    over = [y for y in lower if (y, x) in c.arrows]
    under = [y for y in lower if (x, y) in c.arrows]
    return c.full_subcategory(over), c.full_subcategory(under)


def fixed_subcategory(c: GenPoset, generators: list[dict[ObjId, ObjId]]) -> GenPoset:
    """Full subcategory of objects fixed by every generator of an action."""
    for g in generators:
        if sorted(g) != sorted(c.objects) or sorted(g.values()) != sorted(c.objects):
            raise PosetError("generator is not a permutation of the objects")
        for a, b in c.arrows:
            if (g[a], g[b]) not in c.arrows:
                raise PosetError(f"action does not preserve arrow ({a},{b})")
    fixed = [o for o in c.objects if all(g[o] == o for g in generators)]
    return c.full_subcategory(fixed)


# ---------------------------------------------------------------------------
# Morse functions


@dataclass
class MorseReport:
    ok: bool
    well_behaved: bool
    witness: Arrow | None = None


def check_morse(c: GenPoset, values: dict[ObjId, int], base: set[ObjId] | None = None) -> MorseReport:
    """Check the Morse conditions for a height function on c minus a base.

    No non-invertible arrow may join objects of equal value; the function is
    well behaved when no isomorphism joins objects of different value.
    """
    base = base or set()
    isos = c.iso_pairs()
    ok, well, witness = True, True, None
    for a, b in c.arrows:
        if a in base or b in base:
            continue
        if (a, b) in isos:
            if values[a] != values[b]:
                well = False
                witness = witness or (a, b)
        elif values[a] == values[b]:
            ok = False
            witness = witness or (a, b)
    return MorseReport(ok, well, witness)


def morse_build_order(c: GenPoset, values: dict[ObjId, int], base: set[ObjId] | None = None):
    """Yield (object, built-so-far) pairs in increasing Morse value.

    Objects of the base come first and are never yielded; within a level the
    object order is by id, which by well-behavedness does not change the
    descending links up to isomorphism.
    """
    base = set(base or ())
    built = set(base)
    for x in sorted((o for o in c.objects if o not in base), key=lambda o: (values[o], o)):
        yield x, set(built)
        built.add(x)


def poset_isomorphic(p1: GenPoset, p2: GenPoset) -> bool:
    """Backtracking isomorphism test for small categories."""
    if len(p1.objects) != len(p2.objects) or len(p1.arrows) != len(p2.arrows):
        return False

    def signature(p: GenPoset, o: ObjId):
        return (len(p.predecessors(o)), len(p.successors(o)))

    sig1 = {o: signature(p1, o) for o in p1.objects}
    sig2 = {o: signature(p2, o) for o in p2.objects}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    order = sorted(p1.objects, key=lambda o: (sig1[o], o))
    candidates = {o: [u for u in p2.objects if sig2[u] == sig1[o]] for o in order}

    def extend(i: int, assignment: dict[ObjId, ObjId], used: set[ObjId]) -> bool:
        if i == len(order):
            return True
        o = order[i]
        for u in candidates[o]:
            if u in used:
                continue
            good = True
            for o2, u2 in assignment.items():
                if ((o, o2) in p1.arrows) != ((u, u2) in p2.arrows):
                    good = False
                    break
                if ((o2, o) in p1.arrows) != ((u2, u) in p2.arrows):
                    good = False
                    break
            if good:
                assignment[o] = u
                used.add(u)
                if extend(i + 1, assignment, used):
                    return True
                del assignment[o]
                used.remove(u)
        return False

    return extend(0, {}, set())
