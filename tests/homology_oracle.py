"""Oracles for ``sphero.homology``, kept from the code they replaced.

``lex_levels_oracle`` is ``_lex_levels``, the listing of a flag complex's
cells in its own labels, every dimension through the top, in lexicographic
order, that ``ChainComplex`` cached and read through its ``cells``,
``level``, ``basis``, ``faces``, ``euler_characteristic``,
``dump_matrices`` and equality, before ``sphero.homology._lex_walk``, one
lazy walk for every dimension, replaced it.  Those members are kept here
as ``cells_oracle``, ``level_oracle``, ``basis_oracle``, ``faces_oracle``,
``euler_characteristic_oracle``, ``dump_matrices_oracle`` and
``complex_key_oracle`` (what equality compared, with the counts and masks);
they read an ``ExplicitComplex``'s ``simplices`` and list any other complex
from its neighbour masks.
``flag_complex_oracle`` is the clique search that built every simplex as a
vertex tuple, before chain complexes held vertex bitmasks.
``boundary_columns_oracle`` is the column builder that chain complexes used
when they stored their boundary matrices; it slices the vertex tuples.
``reduced_homology_oracle`` is the homology-direction loop: it hands every
boundary matrix, in its own column order and without clearing, to
``sparse_invariant_factors``: no spanning forest for the first boundary, no
transpose and no cleared columns.
``tietze_trivializes_oracle`` is the generator elimination that re-reduces,
re-sorts and rewrites every relator on every step.
``pi1_report_oracle`` is ``pi1_report`` as it built every triangle's relator
before its search began (``pi1_presentation_oracle``), and
``tietze_incremental_oracle`` the incremental search it ran them through, on
the whole list, before the search read the relators of a complex's
triangles only when it needed them.  ``simplicial_join`` is
the join of two simplicial complexes, the oracle for ``sphero.posets.join``.
``chains_oracle`` lists the chains of an honest poset as tuples, as
``sphero.posets.order_complex`` did before it took the clique search.
``coboundary_oracle`` builds a cleared coboundary from ``faces_oracle``,
as ``reduced_homology`` did before its one-pass coboundary, and
``spanning_forest_oracle`` is Kruskal's scan over every edge, before the
forest stopped once it spanned.  ``one_pass_coboundary_oracle`` fills every
column of a cleared coboundary in one pass over the cells, and
``early_forest_oracle`` is Kruskal's scan stopping once the forest spans:
``reduced_homology`` used both before it took the coboundary columns and
the forest from neighbour masks.  ``row_indexed_homology_oracle`` runs the
passes as ``reduced_homology`` ran them before its rows were the coface
masks: Kruskal's forest over the lexicographic edge list, then coboundaries
from ``row_indexed_coboundary_oracle``, whose lazily filled ``RowCoboundary``
put each coface on its row in reversed lexicographic order.
``spread_copy_oracle`` is the copy those passes ran on, every dimension
through through_dim + 1 listed.  ``eager_flag_complex_oracle`` is
``flag_complex`` as it listed every dimension through max_dim in its own
labels when it was built, before it counted the top one and listed the
others only in the spread order.  ``and_coboundary_oracle`` is the
coboundary builder that took each face's coface vertices from the AND of its
vertices' neighbour masks, before the spread copy kept every clique's common
neighbours.  ``complex_from_simplices`` builds an ``ExplicitComplex`` from
simplex tuples; ``sphero.homology`` took such complexes, flag or not, before
it reduced flag complexes only, and the oracles still do.
``slot_list_homology_oracle`` runs the passes as ``reduced_homology`` ran them
before they read the spread listing in place: each coboundary copied into a
``SlotListCoboundary`` (its faces, coface vertices and lows in parallel lists,
and a () slot per column) and reduced by ``slot_list_invariant_factors``, the
pass that filled those slots, with the pivot rows copied into a set for the
next pass.  ``pairwise_runs_neighbours_oracle`` is
``sphero.complexes.DecoratedComplex.neighbours`` as it tested every pair of
support runs, before it took the vertices meeting each ground element.
``cyc_reduce_oracle`` is ``sphero.homology._cyc_reduce`` as it stripped each
cancelling end pair with a fresh slice, before it cut them in one.
``witness_oracle`` is ``sphero.posets.GenPoset.validate`` as it scanned the
arrows in sorted order, before it took the least witness of an unsorted scan.
``euclidean_snf_oracle`` is ``_euclidean_snf``, the sparse Smith normal form
that finished the echeloned core with Euclidean row and column steps, before
``sphero.homology._sparse_snf_full`` alternated the echelon until diagonal;
it reads any matrix whole.
"""

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import groupby

from sphero.homology import (ChainComplex, Column, HomologyError, HomologyResult, _cyc_reduce,
                             _divisibility_chain, _free_reduce, _spanning_forest, _sparse_snf_full,
                             flag_complex, sparse_invariant_factors)
from sphero.posets import GenPoset, ObjId, PosetError


@dataclass(frozen=True, eq=False)
class ExplicitComplex(ChainComplex):
    """A simplicial complex that holds its cells, listed in full, and need not be a flag complex.

    It keeps no spread listing, so ``sphero.homology`` cannot reduce it; only
    the oracles here read it, through ``cells_oracle``, ``level_oracle``,
    ``basis_oracle`` and ``faces_oracle``, which take its ``simplices``.  The
    ``dump_matrices`` and ``check_boundary_squared`` it inherits walk its
    neighbour masks, so they describe the flag complex of its 1-skeleton:
    ``dump_matrices_oracle`` dumps its own cells.
    """

    simplices: tuple[tuple[int, ...], ...] = field(default=(), repr=False)


def lex_levels_oracle(neighbours: Sequence[int], top: int) -> list[tuple[int, ...]]:
    """The cliques of each dimension 0..top of the masks, each dimension sorted by bit position.

    Each clique is extended by its common neighbours above its highest bit,
    in increasing order, from cliques in lexicographic order.
    """
    adj = {1 << i: m for i, m in enumerate(neighbours)}  # keyed by the vertex's bit
    # the last cliques, each with its common neighbours above its highest bit
    cliques, above = tuple(adj), [m & -(x << 1) for x, m in adj.items()]
    levels = [cliques]
    for _ in range(top):
        nxt, nxt_above = [], []
        for clique, m in zip(cliques, above):
            while m:
                low = m & -m
                m ^= low  # m keeps the common neighbours above low
                nxt.append(clique | low)
                nxt_above.append(m & adj[low])
        cliques, above = tuple(nxt), nxt_above
        levels.append(cliques)
    return levels


def cells_oracle(cx: ChainComplex, top: int | None = None) -> tuple[tuple[int, ...], ...]:
    """cx's cells of each dimension through top (default: its dimension), as int bitmasks.

    Bit i stands for vertices[i], and each dimension is sorted
    lexicographically by bit positions.  An ``ExplicitComplex``'s cells are
    its ``simplices``; a flag complex's are ``lex_levels_oracle``'s cliques of
    its neighbour masks, nothing above top listed.
    """
    top = cx.dim if top is None else min(top, cx.dim)
    if isinstance(cx, ExplicitComplex):
        return cx.simplices[:top + 1]
    return tuple(lex_levels_oracle(cx.neighbours, top))


def level_oracle(cx: ChainComplex, d: int) -> tuple[int, ...]:
    """cx's d-cells, 0 <= d <= its dimension, listing no dimension above d."""
    return cells_oracle(cx, d)[d]


def basis_oracle(cx: ChainComplex, top: int | None = None) -> tuple[tuple[tuple, ...], ...]:
    """The d-simplices as vertex tuples in vertex order, for each dimension d through top."""
    return tuple(_vertex_tuples(cx, cells) for cells in cells_oracle(cx, top))


def _vertex_tuples(cx: ChainComplex, cells: Iterable[int]) -> tuple[tuple, ...]:
    """Each cell's vertices, lowest bit first."""
    verts, out = cx.vertices, []
    for s in cells:
        simplex = []
        while s:
            low = s & -s
            s ^= low
            simplex.append(verts[low.bit_length() - 1])
        out.append(tuple(simplex))
    return tuple(out)


def faces_oracle(cx: ChainComplex, d: int) -> Iterator[tuple[int, int, int]]:
    """(cell index, face index, sign) for every face of every d-cell, 1 <= d <= dim.

    Face i of a simplex drops its i-th lowest bit and carries the sign (-1)^i.
    """
    lower, upper = cells_oracle(cx, d)[d - 1:]
    index = {s: i for i, s in enumerate(lower)}
    for j, s in enumerate(upper):
        m, sign = s, 1
        while m:
            low = m & -m
            m ^= low
            yield j, index[s ^ low], sign
            sign = -sign


def complex_key_oracle(cx: ChainComplex) -> tuple:
    """cx's vertices, counts, neighbour masks and cells: what two listings of one complex share."""
    return cx.vertices, cx.counts, cx.neighbours, cells_oracle(cx)


def euler_characteristic_oracle(cx: ChainComplex) -> int:
    return sum((-1) ** d * cx.n_cells(d) for d in range(cx.dim + 1))


def dump_matrices_oracle(cx: ChainComplex) -> str:
    """Boundary matrices as text, from ``faces_oracle``: a dimension header, then row-major integers."""
    lines = []
    for d in range(1, cx.dim + 1):
        rows, cols = cx.n_cells(d - 1), cx.n_cells(d)
        lines.append(f"dim {d} {rows}x{cols}")
        table = [[0] * cols for _ in range(rows)]
        for j, r, v in faces_oracle(cx, d):
            table[r][j] = v
        lines.extend(" ".join(str(x) for x in row) for row in table)
    return "\n".join(lines) + "\n"


def complex_from_simplices(simplices_by_dim: list[list[tuple]]) -> ExplicitComplex:
    """The complex with these simplex lists as its cells, each sorted as ``flag_complex`` sorts.

    The 0-cells fix the vertex order and so the orientation of every simplex,
    whatever the order of its tuple; each higher dimension is put in
    lexicographic order of bit positions, whatever the order of its list.
    Raises HomologyError on a simplex of the wrong length for its dimension, a
    repeated vertex, a vertex that is not a 0-cell, a face that is not a cell,
    or a simplex listed twice.
    """
    bit: dict = {}
    cells: list[tuple[int, ...]] = []
    for d, simplices in enumerate(simplices_by_dim):
        lower = set(cells[-1]) if cells else set()
        keyed = []  # (bit positions, mask)
        for s in simplices:
            if len(s) != d + 1:
                raise HomologyError(f"{s!r} has {len(s)} vertices, not {d + 1}")
            if d == 0:
                bit.setdefault(s[0], 1 << len(bit))  # a repeated 0-cell keeps its first bit
            try:
                bits = [bit[v] for v in s]
            except KeyError:
                raise HomologyError(f"a vertex of {s!r} is not a 0-cell") from None
            m = sum(bits)  # a repeated vertex carries, leaving fewer than d + 1 bits
            if m.bit_count() != d + 1:
                raise HomologyError(f"{s!r} repeats a vertex")
            if d and not lower.issuperset(map(m.__xor__, bits)):  # the faces m ^ b
                raise HomologyError(f"a face of {s!r} is not a {d - 1}-cell")
            keyed.append((sorted(b.bit_length() for b in bits), m))
        if len({m for _, m in keyed}) != len(keyed):
            raise HomologyError(f"a {d}-simplex is listed twice")
        cells.append(tuple(m for _, m in sorted(keyed)))
    adj = [0] * len(bit)
    for e in cells[1] if len(cells) > 1 else ():
        low = e & -e
        adj[low.bit_length() - 1] |= e ^ low
        adj[e.bit_length() - 1] |= low
    return ExplicitComplex(tuple(bit), tuple(map(len, cells)), tuple(adj), simplices=tuple(cells))


def flag_complex_oracle(vertices: list, edges: list[tuple], max_dim: int) -> list[list[tuple]]:
    """Simplex tuples per dimension of the clique complex, truncated above max_dim.

    Cliques are extended by larger vertices only, in increasing order, from a
    lexicographically ordered frontier, so each dimension comes out sorted.
    """
    verts = sorted(set(vertices))
    vindex = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [0] * n
    for a, b in edges:
        i, j = vindex[a], vindex[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    by_dim: list[list[tuple]] = [[(v,) for v in verts]]
    frontier = [((i,), adj[i] & ~((1 << (i + 1)) - 1)) for i in range(n)]
    d = 0
    while d < max_dim:
        nxt = []
        cells = []
        for clique, allowed in frontier:
            m = allowed
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                bigger = clique + (j,)
                cells.append(tuple(verts[k] for k in bigger))
                nxt.append((bigger, allowed & adj[j] & ~((1 << (j + 1)) - 1)))
        if not cells:
            break
        by_dim.append(cells)
        frontier = nxt
        d += 1
    return by_dim


def boundary_columns_oracle(cx: ChainComplex, d: int) -> list[Column]:
    """Columns of the boundary map from dimension d, empty beyond range."""
    if not 1 <= d <= cx.dim:
        return []
    lower, upper = (_vertex_tuples(cx, cells) for cells in cells_oracle(cx, d)[d - 1:])
    index = {s: i for i, s in enumerate(lower)}
    cols = []
    for s in upper:
        col: Column = {}
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            col[index[face]] = (-1) ** j
        cols.append(col)
    return cols


def reduced_homology_oracle(cx: ChainComplex, through_dim: int) -> HomologyResult:
    """Reduced homology in degrees 0..through_dim from the invariant factors of each boundary."""
    n0 = cx.n_cells(0)
    rank: dict[int, int] = {0: 1 if n0 else 0}  # augmentation
    factors: dict[int, list[int]] = {}
    for d in range(1, through_dim + 2):
        cols = boundary_columns_oracle(cx, d)
        factors[d], rank[d] = sparse_invariant_factors(cols) if cols else ([], 0)
    betti = tuple(cx.n_cells(d) - rank[d] - rank[d + 1] for d in range(through_dim + 1))
    torsion = tuple(tuple(x for x in factors[d + 1] if x > 1) for d in range(through_dim + 1))
    return HomologyResult(betti, torsion)


def tietze_trivializes_oracle(ngens: int, relators: list[tuple[int, ...]], budget: int) -> bool:
    """Budgeted generator elimination; True only if all generators die.

    The budget counts work units (relator letters rewritten), so large
    presentations degrade to "unknown" rather than stalling.
    """
    gens = set(range(1, ngens + 1))
    rels = [_cyc_reduce(r) for r in relators]
    steps = 0
    while gens and steps < budget:
        steps += max(1, sum(map(len, rels)) // 64)
        rels = [r for r in (_cyc_reduce(r) for r in rels) if r]
        # a generator occurring exactly once in some relator can be eliminated
        pick = None
        for r in sorted(rels, key=len):
            counts: dict[int, int] = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for x in r:
                if counts[abs(x)] == 1 and abs(x) in gens:
                    pick = (r, abs(x))
                    break
            if pick:
                break
        if pick is None:
            return False
        rel, g = pick
        i = next(k for k, x in enumerate(rel) if abs(x) == g)
        rest = rel[i + 1:] + rel[:i]  # rel ~ g * rest or g^-1 * rest cyclically
        if rel[i] > 0:
            sub = tuple(-x for x in reversed(rest))  # g = rest^-1
        else:
            sub = rest  # g^-1 = rest^-1, so g = rest
        new_rels = []
        for r in rels:
            if r is rel:
                continue
            w: list[int] = []
            for x in r:
                if x == g:
                    w.extend(sub)
                elif x == -g:
                    w.extend(-y for y in reversed(sub))
                else:
                    w.append(x)
            new_rels.append(_free_reduce(tuple(w)))
        gens.remove(g)
        rels = new_rels
    return not gens


def cyc_reduce_oracle(word: tuple[int, ...]) -> tuple[int, ...]:
    """The free reduction of word, then its cancelling end pairs stripped one slice at a time."""
    w = _free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def pi1_presentation_oracle(cx: ChainComplex) -> tuple[int, list[tuple[int, ...]], bool]:
    """The edge-path presentation as ``pi1_report`` built it whole: generators, relators, tree-only.

    The spanning tree is a BFS over adjacency lists in edge order; the last
    value says that every edge is a tree edge, so the group is trivial
    without a search.
    """
    n0 = cx.n_cells(0)
    if n0 == 0:
        raise HomologyError("empty complex")
    listed = cells_oracle(cx, 2)
    edges = listed[1] if cx.dim >= 1 else ()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n0)]
    for ei, e in enumerate(edges):
        a, b = (e & -e).bit_length() - 1, e.bit_length() - 1
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    # spanning tree by BFS
    tree: set[int] = set()
    seen = {0}
    queue = [0]
    for x in queue:  # the queue grows while it is walked
        for y, ei in adj[x]:
            if y not in seen:
                seen.add(y)
                tree.add(ei)
                queue.append(y)
    if len(seen) != n0:
        raise HomologyError("pi1 report requires a connected complex")
    # edges run from their lower bit to their higher one; tree edges get no letter
    letter = {e: g + 1 for g, e in enumerate(e for ei, e in enumerate(edges) if ei not in tree)}
    relators = []
    for t in listed[2] if cx.dim >= 2 else ():
        # the triangle a < b < c reads ab, bc, then ac backwards; 0 is the empty word
        low, high = t & -t, 1 << (t.bit_length() - 1)
        relators.append(_free_reduce((letter.get(t ^ high, 0), letter.get(t ^ low, 0),
                                      -letter.get(low | high, 0))))
    return len(letter), relators, not letter


def pi1_report_oracle(cx: ChainComplex, h1: HomologyResult, budget: int = 5000,
                      eliminated: list[int] | None = None) -> dict:
    """``pi1_report`` on the whole presentation, searched by ``tietze_incremental_oracle``.

    ``eliminated``, if given, receives the generators the search eliminates, in order.
    """
    if len(h1.betti) < 2:
        raise HomologyError("pi1 report needs the reduced homology through degree 1")
    ngens, relators, tree_only = pi1_presentation_oracle(cx)
    if tree_only:
        return {"status": "trivial", "generators": 0, "relators": 0}
    if h1.betti[1] > 0 or h1.torsion[1]:
        return {"status": "nontrivial", "h1_betti": h1.betti[1], "h1_torsion": list(h1.torsion[1])}
    status = tietze_incremental_oracle(ngens, relators, budget, eliminated)
    return {"status": "trivial" if status else "unknown",
            "generators": ngens, "relators": len(relators)}


def tietze_incremental_oracle(ngens: int, relators: list[tuple[int, ...]], budget: int,
                              eliminated: list[int] | None = None) -> bool:
    """The incremental elimination on a relator list: every relator cyclically reduced first.

    It decides as ``tietze_trivializes_oracle`` does: a step rewrites only the
    relators in the eliminated generator's entry of an occurrence index (a
    superset), and a heap of (length, position) entries, checked when they
    reach the top, finds the shortest relator with a once-occurring
    generator.  ``eliminated``, if given, receives each step's generator.
    """
    gens = set(range(1, ngens + 1))
    rels = {p: _cyc_reduce(r) for p, r in enumerate(relators)}
    total = sum(map(len, rels.values()))
    occ: dict[int, set[int]] = {}
    for p, r in rels.items():
        for x in r:
            occ.setdefault(abs(x), set()).add(p)
    once: dict[int, int] = {}  # position -> its first generator occurring once
    heap: list[tuple[int, int]] = []
    touched = list(rels)  # relators not yet cyclically reduced and checked
    steps = 0
    while gens and steps < budget:
        steps += max(1, total // 64)
        for p in touched:
            r = rels[p]
            if len(r) >= 2 and r[0] == -r[-1]:  # free-reduced: only the ends can cancel
                c = _cyc_reduce(r)
                total -= len(r) - len(c)
                rels[p] = r = c
            once.pop(p, None)
            if not r:
                del rels[p]
                continue
            counts: dict[int, int] = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            g = next((abs(x) for x in r if counts[abs(x)] == 1 and abs(x) in gens), None)
            if g is not None:
                once[p] = g
                heappush(heap, (len(r), p))
        while heap and (heap[0][1] not in once or len(rels[heap[0][1]]) != heap[0][0]):
            heappop(heap)
        if not heap:
            return False
        _, pk = heappop(heap)
        g = once.pop(pk)
        if eliminated is not None:
            eliminated.append(g)
        rel = rels.pop(pk)
        total -= len(rel)
        i = next(k for k, x in enumerate(rel) if abs(x) == g)
        rest = rel[i + 1:] + rel[:i]  # rel ~ g * rest or g^-1 * rest cyclically
        if rel[i] > 0:
            sub = tuple(-x for x in reversed(rest))  # g = rest^-1
        else:
            sub = rest  # g^-1 = rest^-1, so g = rest
        inv = tuple(-x for x in reversed(sub))
        touched = []
        for p in occ.pop(g):
            r = rels.get(p)
            if r is None or (g not in r and -g not in r):
                continue
            w: list[int] = []
            for x in r:
                if x == g:
                    w.extend(sub)
                elif x == -g:
                    w.extend(inv)
                else:
                    w.append(x)
            rels[p] = new = _free_reduce(tuple(w))
            total += len(new) - len(r)
            touched.append(p)
        for a in {abs(x) for x in rest}:
            occ[a].update(touched)
        gens.remove(g)
    return not gens

def simplicial_join(a: ChainComplex, b: ChainComplex) -> ExplicitComplex:
    """Join of two simplicial complexes (independent oracle for category joins).

    Vertices of the two inputs are tagged to stay disjoint; simplices are all
    unions of a simplex from each side (or from one side alone).
    """
    sa = [[tuple(("a", v) for v in s) for s in cells] for cells in basis_oracle(a)]
    sb = [[tuple(("b", v) for v in s) for s in cells] for cells in basis_oracle(b)]
    by_dim: list[set] = [set() for _ in range(a.dim + b.dim + 2)]
    for d, cells in [*enumerate(sa), *enumerate(sb)]:
        by_dim[d].update(cells)
    for da, cells_a in enumerate(sa):
        for db, cells_b in enumerate(sb):
            by_dim[da + db + 1].update(tuple(sorted(s + t)) for s in cells_a for t in cells_b)
    return complex_from_simplices([sorted(cells) for cells in by_dim if cells])


def witness_oracle(p: GenPoset) -> tuple[ObjId, ObjId, ObjId] | None:
    """The first (a, b, c) with arrows a -> b -> c and none a -> c, in sorted order, or None."""
    out: dict = {}
    for a, b in sorted(p.arrows):
        out.setdefault(a, []).append(b)
    for a, b in sorted(p.arrows):
        for c in out.get(b, []):
            if a != c and (a, c) not in p.arrows:
                return (a, b, c)
    return None


def chains_oracle(p: GenPoset) -> list[list[tuple[ObjId, ...]]]:
    """Chains x0 -> x1 -> ... of distinct comparable objects, by length.

    Only defined on honest posets; result[d] lists the d-simplices of the
    order complex in deterministic order.
    """
    if not p.is_honest:
        raise PosetError("order complex requires an honest poset; collapse isomorphisms first")
    succ: dict[ObjId, list[ObjId]] = {o: [] for o in p.objects}
    for a, b in p.arrows:
        succ[a].append(b)
    for ys in succ.values():
        ys.sort()
    out: list[list[tuple[ObjId, ...]]] = [[(o,) for o in p.objects]]
    while True:
        nxt = [chain + (y,) for chain in out[-1] for y in succ[chain[-1]]]
        if not nxt:
            return out
        out.append(nxt)


def coboundary_oracle(cx: ChainComplex, d: int, cleared: set[int]) -> list[Column]:
    """The coboundary of dimension d in anti-transposed order, cleared faces left out.

    Columns are the (d-1)-cells from the last to the first, and d-cell j sits
    on row n_cells(d) - 1 - j.  Cleared faces and faces without cofaces give
    no column.
    """
    top = cx.n_cells(d) - 1
    cob: list[Column | None] = [{} for _ in range(cx.n_cells(d - 1))]
    for r in cleared:
        cob[r] = None
    for j, r, v in faces_oracle(cx, d):
        col = cob[r]
        if col is not None:
            col[top - j] = v
    return [col for col in reversed(cob) if col]


def spanning_forest_oracle(n0: int, edges: tuple[int, ...]) -> set[int]:
    """Indices of the edges (vertex bitmasks) that Kruskal's union-find keeps, scanning all."""
    parent = list(range(n0))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    forest = set()
    for j, e in enumerate(edges):
        a, b = find((e & -e).bit_length() - 1), find(e.bit_length() - 1)
        if a != b:
            parent[a] = b
            forest.add(j)
    return forest


def one_pass_coboundary_oracle(cx: ChainComplex, d: int, cleared: set[int]) -> list[Column]:
    """The coboundary of dimension d in anti-transposed order, cleared faces left out.

    Columns are the (d-1)-cells from the last to the first, and d-cell j sits
    on row n_cells(d) - 1 - j, so the max-low pass pivots on the smallest
    coface.  One pass over the d-cells fills the columns, keyed by face mask:
    face i of s is s less its i-th lowest bit, with sign (-1)^i.  Cleared faces
    (by index) get no column, and faces without cofaces give an empty one, left
    out.
    """
    lower, upper = cells_oracle(cx, d)[d - 1:]
    cols: dict[int, Column] = {lower[i]: {} for i in range(len(lower) - 1, -1, -1)
                               if i not in cleared}
    row = cx.n_cells(d)
    for s in upper:
        row -= 1
        m, sign = s, 1
        while m:
            low = m & -m
            m ^= low
            col = cols.get(s ^ low)
            if col is not None:
                col[row] = sign
            sign = -sign
    return [col for col in cols.values() if col]


def early_forest_oracle(n0: int, edges: tuple[int, ...]) -> set[int]:
    """Indices of the edges (vertex bitmasks) that Kruskal's union-find keeps, in order.

    A forest on n0 vertices has at most n0 - 1 edges, and once it has them it
    spans, so no later edge joins two trees: the scan stops there.
    """
    parent = list(range(n0))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    forest: set[int] = set()
    need = n0 - 1
    for j, e in enumerate(edges):
        a, b = find((e & -e).bit_length() - 1), find(e.bit_length() - 1)
        if a != b:
            parent[a] = b
            forest.add(j)
            if len(forest) == need:
                break
    return forest


class SlotListCoboundary:
    """A coboundary on (face, coface vertices) pairs, in their order, each column kept as its pair.

    Column i is the face faces[i], a (d-1)-cell, with cands[i], the vertices v
    whose f | v is a d-cell; its low is lows[i], the largest of those cofaces,
    and its entries, on the rows named by the coface masks, are built only by
    ``fill``.  ``columns`` holds () for each until ``slot_list_invariant_factors``
    fills it.  Cleared faces and faces without cofaces give no column.
    """

    __slots__ = ("faces", "cands", "lows", "columns")

    def __init__(self, pairs: Iterable[tuple[int, int]], cleared: set[int]):
        faces, cands, lows = self.faces, self.cands, self.lows = [], [], []
        for f, m in pairs:
            if m and f not in cleared:
                faces.append(f)
                cands.append(m)
                lows.append(f | 1 << (m.bit_length() - 1))
        self.columns = [()] * len(faces)  # one slot per column: () until it is filled

    def fill(self, i: int) -> Column:
        """Column i's entries, highest v first: f | v with sign (-1)^(bits of f below v)."""
        f, m = self.faces[i], self.cands[i]
        col: Column = {}
        rest, sign = f, -1 if f.bit_count() & 1 else 1
        while m:
            top = 1 << rest.bit_length() >> 1  # the next bit of f from the top; 0 past the last
            rest ^= top
            run = m & -top if top else m  # the candidates above top: one sign
            m ^= run
            while run:
                high = 1 << (run.bit_length() - 1)
                run ^= high
                col[f | high] = sign
            sign = -sign
        return col


def slot_list_invariant_factors(columns: list[Column], pivot_rows: set[int] | None = None,
                                lazy: SlotListCoboundary | None = None) -> tuple[list[int], int]:
    """Invariant factors and rank from sparse integer columns, a lazy one filled into its slot.

    Each column is reduced on its lowest row against the unit pivots found so
    far; a column whose low ends up a unit becomes a pivot, any other nonzero
    column is parked.  Parked columns are then cleared on every pivot row.  The
    pivot columns are unit triangular on the pivot rows, so the matrix is
    equivalent to an identity block plus the cleared parked columns, and only
    that core goes to ``_sparse_snf_full``.  If ``pivot_rows`` is given, the
    rows of the unit pivots are added to it.

    With ``lazy``, an empty column i is unfilled: its low is ``lazy.lows[i]``,
    known before its entries, ``lazy.fill(i)``.  If no pivot sits on that low
    yet, it becomes one as its index, and is filled the first time a column is
    reduced against it; otherwise it is filled and reduced like any other
    column.  A filled column takes its place in ``columns`` and is never
    edited, so afterwards each holds its entries or, never needed, none.
    """
    pivots: dict[int, Column | int] = {}  # an int: the index of an emergent column, unfilled
    parked: list[Column] = []
    for i, col in enumerate(columns):
        if not col:
            if lazy is None:
                continue
            low = lazy.lows[i]
            if low not in pivots:
                pivots[low] = i  # emergent: filled when a column is reduced against it
                continue
            col = columns[i] = lazy.fill(i)
        shared = True  # still the caller's column: copied before its first edit
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                break
            if type(p) is int:
                # targets left to right: columns[p] while p is still the index
                columns[p] = pivots[low] = p = lazy.fill(p)
            if shared:
                col, shared = dict(col), False
            f = col[low] * p[low]  # p[low] is +-1
            for r, v in p.items():
                nv = col.get(r, 0) - f * v
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
        if not col:
            continue
        low = max(col)
        if abs(col[low]) == 1:
            pivots[low] = col  # pivot columns are only read from here on
        else:
            parked.append(dict(col) if shared else col)
    core: list[Column] = []
    for col in parked:
        # highest pivot row first: pivots[r] has no entry below r, so fill-in
        # only lands on lower rows and no cleared row comes back
        todo = [-r for r in col if r in pivots]
        heapify(todo)
        while todo:
            r = -heappop(todo)
            if r not in col:
                continue  # cancelled by fill-in, or queued twice
            p = pivots[r]
            if type(p) is int:
                columns[p] = pivots[r] = p = lazy.fill(p)
            f = col[r] * p[r]
            for rr, v in p.items():
                nv = col.get(rr, 0) - f * v
                if nv:
                    if rr not in col and rr in pivots:
                        heappush(todo, -rr)
                    col[rr] = nv
                else:
                    col.pop(rr, None)
        if col:
            core.append(col)
    if pivot_rows is not None:
        pivot_rows.update(pivots)
    units = [1] * len(pivots)
    if not core:
        return units, len(pivots)
    factors, rank = _sparse_snf_full(core)
    return units + factors, len(pivots) + rank


def slot_list_homology_oracle(cx: ChainComplex, through_dim: int) -> HomologyResult:
    """Reduced homology from the spanning forest and the cleared coboundaries of cx's spread listing.

    Each coboundary is a ``SlotListCoboundary`` copied off the listing, reduced
    by ``slot_list_invariant_factors``, and its pivot rows are copied into the
    next pass's cleared set.
    """
    sp = cx.spread
    rank: dict[int, int] = {0: 1 if cx.n_cells(0) else 0}  # augmentation
    factors: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for d in range(1, through_dim + 2):
        if not cx.n_cells(d):
            f, r = [], 0
        elif d == 1:
            cleared = _spanning_forest(cx.neighbours if sp is None else sp.neighbours)
            f, r = [1] * len(cleared), len(cleared)
        else:
            cob = SlotListCoboundary(zip(reversed(sp.levels[d - 1]), reversed(sp.commons[d - 1])), cleared)
            pivots: set[int] = set()
            f, r = slot_list_invariant_factors(cob.columns, pivots, cob)
            cleared = pivots
        factors[d], rank[d] = f, r
    betti = tuple(cx.n_cells(d) - rank[d] - rank[d + 1] for d in range(through_dim + 1))
    torsion = tuple(tuple(x for x in factors[d + 1] if x > 1) for d in range(through_dim + 1))
    return HomologyResult(betti, torsion)


class RowCoboundary(SlotListCoboundary):
    """A coboundary whose columns put each coface on its row, filled on first use.

    Column i is the face faces[i] with cands[i], the vertices v whose f | v
    may be a d-cell, from the lowest one that is, and ``rows`` maps each
    d-cell to its row; lows[i] is the row of that lowest coface.
    """

    __slots__ = ("rows",)

    def fill(self, i: int) -> Column:
        """Column i's entries: f | v on its row with sign (-1)^(bits of f below v)."""
        f, m, get = self.faces[i], self.cands[i], self.rows.get
        col: Column = {}
        rest, sign = f, 1
        while m:
            b = rest & -rest  # the next bit of f; 0 past the last
            rest ^= b
            run = m & (b - 1) if b else m  # the candidates below b: one sign
            m ^= run
            while run:
                low = run & -run
                run ^= low
                row = get(f | low)
                if row is not None:
                    col[row] = sign
            sign = -sign
        return col


def row_indexed_coboundary_oracle(cx: ChainComplex, d: int, cleared: set[int]) -> RowCoboundary:
    """The coboundary of dimension d in anti-transposed order, cleared faces left out, unfilled.

    Columns are the (d-1)-cells from the last to the first, and d-cell j sits
    on row n_cells(d) - 1 - j, so the max-low pass pivots on the smallest
    coface: f | v for the lowest v in the AND of the neighbour masks of f's
    vertices that gives a cell.  Cleared faces (by mask) and faces without
    cofaces give no column.
    """
    lower, upper = cells_oracle(cx, d)[d - 1:]
    rows = {s: r for r, s in enumerate(reversed(upper))}
    adj = {1 << i: m for i, m in enumerate(cx.neighbours)}
    cob = RowCoboundary((), set())
    cob.rows = rows
    for f in reversed(lower):
        if f in cleared:
            continue
        m, x = -1, f
        while x:
            b = x & -x
            x ^= b
            m &= adj[b]
        while m:
            low = m & -m
            row = rows.get(f | low)
            if row is not None:
                cob.faces.append(f)
                cob.cands.append(m)
                cob.lows.append(row)
                break
            m ^= low
    cob.columns = [()] * len(cob.faces)
    return cob


def spread_copy_oracle(cx: ChainComplex, through_dim: int) -> ChainComplex:
    """cx's cells through through_dim + 1 with vertex i moved to i*k mod n0.

    k is the first integer >= floor(5*n0/8) prime to n0.  The copy is the
    flag complex of the moved 1-skeleton.
    """
    n0, top = cx.n_cells(0), min(cx.dim, through_dim + 1)
    k = 5 * n0 // 8
    while math.gcd(k, n0) != 1:
        k += 1
    moved = [0] * n0
    for i, m in enumerate(cx.neighbours):
        moved[i * k % n0] = sum(1 << (j * k % n0) for j in range(n0) if m >> j & 1)
    return flag_complex(range(n0), moved, top)


def row_indexed_homology_oracle(cx: ChainComplex, through_dim: int) -> HomologyResult:
    """Reduced homology from a spanning forest and cleared row-indexed coboundaries on cx's order.

    The forest is Kruskal's over the lexicographic edge list; each unit pivot
    row of a coboundary clears its d-cell's column of the next one.
    """
    n0, listed = cx.n_cells(0), cells_oracle(cx, through_dim + 1)
    rank: dict[int, int] = {0: 1 if n0 else 0}  # augmentation
    factors: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for d in range(1, through_dim + 2):
        if not cx.n_cells(d):
            f, r = [], 0
        elif d == 1:
            cleared = {listed[1][j] for j in early_forest_oracle(n0, listed[1])}
            f, r = [1] * len(cleared), len(cleared)
        else:
            pivots: set[int] = set()
            cob = row_indexed_coboundary_oracle(cx, d, cleared)
            f, r = slot_list_invariant_factors(cob.columns, pivots, cob)
            cleared = {listed[d][-1 - p] for p in pivots}
        factors[d], rank[d] = f, r
    betti = tuple(cx.n_cells(d) - rank[d] - rank[d + 1] for d in range(through_dim + 1))
    torsion = tuple(tuple(x for x in factors[d + 1] if x > 1) for d in range(through_dim + 1))
    return HomologyResult(betti, torsion)


def eager_flag_complex_oracle(vertices: Iterable, neighbours: Sequence[int], max_dim: int) -> ExplicitComplex:
    """Clique complex of a graph given by neighbour masks, every dimension through max_dim listed.

    Each clique is extended by its common neighbours above its highest bit,
    in increasing order, from cliques in lexicographic order.
    """
    adj = {1 << i: m for i, m in enumerate(neighbours)}  # keyed by the vertex's bit
    cells = [tuple(adj)]
    # the last cells, each with its common neighbours above its highest bit
    cliques, above = list(adj), [m & -(x << 1) for x, m in adj.items()]
    while len(cells) <= max_dim:
        top = len(cells) == max_dim  # cells of the top dimension are not extended
        nxt, nxt_above = [], []
        for clique, m in zip(cliques, above):
            while m:
                low = m & -m
                m ^= low  # m keeps the common neighbours above low
                nxt.append(clique | low)
                if not top:
                    nxt_above.append(m & adj[low])
        if not nxt:
            break
        cells.append(tuple(nxt))
        cliques, above = nxt, nxt_above
    # the masks of the 1-skeleton: none when it has no edges
    return ExplicitComplex(tuple(vertices), tuple(map(len, cells)),
                           tuple(neighbours) if len(cells) > 1 else (0,) * len(neighbours),
                           simplices=tuple(cells))


def and_coboundary_oracle(neighbours: Sequence[int], faces: Iterable[int],
                          cleared: set[int]) -> SlotListCoboundary:
    """The coboundary on these faces, in their order, cleared faces left out, unfilled.

    The cofaces of face f are the f | v, v in the AND of the neighbour masks
    of f's vertices.  Cleared faces and faces without cofaces give no column.
    """
    adj = {1 << i: m for i, m in enumerate(neighbours)}  # keyed by the vertex's bit
    pairs = []
    for f in faces:
        if f in cleared:
            continue
        m, x = -1, f
        while x:
            b = x & -x
            x ^= b
            m &= adj[b]
        if m:
            pairs.append((f, m))
    return SlotListCoboundary(pairs, set())


def pairwise_runs_neighbours_oracle(vertices: Sequence) -> tuple[int, ...]:
    """``DecoratedComplex.neighbours`` by a disjointness test per pair of support runs.

    Vertices come in runs that share a support; each vertex of a run gets the
    union of the runs whose supports miss its own.
    """
    runs = []  # (support bitmask, bitmask of the run's vertices, run length)
    start = 0
    for support, run in groupby(vertices, key=lambda v: v.support):
        k = len(list(run))
        runs.append((sum(1 << x for x in support), ((1 << k) - 1) << start, k))
        start += k
    out: list[int] = []
    for s, _, k in runs:
        out += [sum(block for t, block, _ in runs if not s & t)] * k
    return tuple(out)


def euclidean_snf_oracle(columns: list[Column]) -> tuple[list[int], int]:
    """Sparse integer diagonalization with smallest-entry pivoting.

    Unit pivots eliminate for free; otherwise Euclidean row/column steps
    shrink the pivot until it divides its row and column, keeping coefficient
    growth under control.  Returns the invariant factors and the rank.
    """
    rows: dict[int, int] = {}  # wide row keys, such as coface masks, numbered as they first appear
    colmap: dict[int, Column] = {j: {rows.setdefault(r, len(rows)): v for r, v in c.items()}
                                 for j, c in enumerate(columns) if c}
    rowidx: dict[int, set[int]] = {}
    for j, col in colmap.items():
        for r in col:
            rowidx.setdefault(r, set()).add(j)

    def set_entry(j: int, r: int, v: int) -> None:
        col = colmap[j]
        if v:
            if r not in col:
                rowidx.setdefault(r, set()).add(j)
            col[r] = v
        elif r in col:
            del col[r]
            rowidx[r].discard(j)

    def col_op(j_dst: int, j_src: int, f: int) -> None:
        # column j_dst -= f * column j_src
        for r, v in list(colmap[j_src].items()):
            set_entry(j_dst, r, colmap[j_dst].get(r, 0) - f * v)
        if not colmap[j_dst]:
            del colmap[j_dst]

    def row_op(r_dst: int, r_src: int, f: int) -> None:
        # row r_dst -= f * row r_src
        for j in list(rowidx.get(r_src, ())):
            v = colmap[j].get(r_src, 0)
            set_entry(j, r_dst, colmap[j].get(r_dst, 0) - f * v)

    diag: list[int] = []
    while colmap:
        best = None
        for j, col in colmap.items():
            for r, v in col.items():
                a = abs(v)
                cost = (a != 1, (len(rowidx[r]) - 1) * (len(col) - 1), a)
                if best is None or cost < best[0]:
                    best = (cost, r, j)
            if best is not None and best[0][0] is False and best[0][1] == 0:
                break
        _, r, j = best
        while True:
            piv = colmap[j][r]
            off_col = [rr for rr in colmap[j] if rr != r and colmap[j][rr] % piv]
            if off_col:
                rr = off_col[0]
                q = colmap[j][rr] // piv
                row_op(rr, r, q)  # leaves a remainder of smaller absolute value
                r = rr
                continue
            off_row = [jj for jj in rowidx[r] if jj != j and colmap[jj][r] % piv]
            if off_row:
                jj = off_row[0]
                q = colmap[jj][r] // piv
                col_op(jj, j, q)
                j = jj
                continue
            break
        piv = colmap[j][r]
        for rr in [x for x in colmap[j] if x != r]:
            row_op(rr, r, colmap[j][rr] // piv)
        for jj in [x for x in list(rowidx[r]) if x != j]:
            col_op(jj, j, colmap[jj][r] // piv)
        for rr in colmap[j]:
            rowidx[rr].discard(j)
        del colmap[j]
        diag.append(abs(piv))
    return _divisibility_chain(diag), len(diag)
