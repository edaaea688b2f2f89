"""Exact integral simplicial homology via Smith normal form.

Every chain complex here is a flag complex: the clique complex of its
1-skeleton, truncated above its dimension.  The paper's complexes are all
of this kind (a simplex of a decorated disjoint-support complex is a set of
pairwise disjoint vertices, one of an order complex a chain, a clique of
the comparability graph), and so, as in Bauer's Ripser (2021), a coface
f | v of a cell needs no membership test.  A chain complex is its vertex
labels, its cell counts and the neighbour masks of its 1-skeleton.  Its
simplices are the cliques of those masks, each an int bitmask (bit i is
vertices[i], as Ripser's simplices are integers) oriented by the vertex
order; they are named by their masks and never stored in the complex's own
labels.  ``_lex_walk`` is the one walk that enumerates the d-cells in those
labels, lazily and in lexicographic order (``_lex_walk`` order), for the
readers that need them in that order: ``dump_matrices``, the boundary check
and the pi1 report.  ``flag_complex`` builds a complex from the masks, not
edge lists, and lists each clique once (Zomorodian's incremental clique
search, 2010), in the order homology reduces them: from dimension 2 up, it
lists the cliques below its top dimension in the spread vertex order below,
each with its common neighbours, and counts the top ones as the popcounts
of the last extension masks.  Those lists are the complex's counts, and
``reduced_homology`` reduces them as they are; its passes reach a top cell
only as a coface f | v of a listed face.  At q=2 with Sym(2) and n=14,
``chain_complex(4)`` so lists 363,454 cliques once and not the 945,945
4-cells.  Boundary matrices are not stored but derived from the cells, face
i of s being s less its i-th lowest bit with sign (-1)^i, so boundary
squared vanishes by construction: ``_faces`` enumerates them, and the
coboundaries below take each column from the neighbour masks.  They are
reduced by one elimination: a unit-pivot column pass, then the leftover core
of columns with non-unit lows, cleared on the pivot rows (empty on
torsion-free instances), is echeloned by its lows, and that echelon is
alternated on columns and rows until diagonal.  The echelon reduces each core
column on its low as the pass does, and where the low entry a of the column
holding that low does not divide the reduced column's b it replaces the pair
by a 2 x 2 extended-gcd column step of determinant 1, leaving +-gcd(a, b) on
the low and zero in the reduced column; so dependent columns vanish.  It
then reduces each column's entries on lower pivot rows modulo those pivots
(Hermite form), which keeps the next pass's entries small.
Unimodular steps and transposing keep the invariant factors, so this is
exact: at q=2 with Sym(2) and n=9 the 42 core columns of rank 10 are
diagonal after a column and a row pass, and at n=10 after three passes.
Entries are Python integers, so no overflow is possible.

``reduced_homology`` needs only the rank and invariant factors of each
boundary, and finds them with clearing (Chen-Kerber 2011; Bauer's Ripser,
2021).  The first boundary is the incidence matrix of a graph: it is totally
unimodular, so its rank comes from a spanning forest, and every factor is 1.
The forest is Kruskal's over the edges in descending mask order, read off
the neighbour masks: Kruskal meets the edges of vertex i to lower vertices
together, highest first, and keeps one iff its other end is outside i's
tree, so i, from the highest vertex down, keeps the edges to the highest
neighbours below it outside its tree, taking each one's tree in as it goes;
that is O(n0) mask operations, not a find per edge.  Each higher boundary is
reduced as its transpose, the coboundary, with the faces as columns in
ascending mask order and each coface on the row named by its own mask, so
the pass pivots on the largest coface and no table of rows is built.  The
cofaces of a face f are the cells f | v for v in the AND of the neighbour
masks of f's vertices (in the spread listing below, the common-neighbour
mask kept when f was listed), and the largest is f | v for the highest such
v: that is the column's low, found without its other entries.  Most
columns are emergent (Ripser's emergent pairs): no earlier column holds a
pivot on their low.  Such a column is not reduced at all, so
its unreduced entries, +-1 at the low and entries on smaller cofaces, are
its pivot column as they stand; it stays its face's index in the listing,
read in place, and its entries are built only when a later column is
reduced against it.  Rows that carry a unit pivot in one coboundary name
columns of the next that reduce to zero, and the next pass leaves out the
columns on its pivot table's rows.
This is exact over the integers, in any vertex order.
For the forest, d1 d2 = 0 and peeling the forest from its leaves write each
forest-edge row of d2 as an integer combination of the other rows.  Above
it, a unit pivot column c is an integer combination of coboundary columns,
so the next coboundary kills it.  Its pivot is +-1 and its other entries lie
on smaller cofaces, so the cleared columns form a unit triangular set, and
leaving them out is a unimodular column operation.  Transposing keeps the
invariant factors.

The passes run in a spread vertex order.  A structured order works against
emergent columns: with vertices sorted by support, as ``build_complex`` lists
them, many faces share the same largest coface, so their columns collide on
one low and all but the first are filled and reduced.  The passes therefore
run on the cliques of the 1-skeleton with vertex i moved to
n0 - 1 - (i*k mod n0), k the first integer >= floor(5*n0/8) prime to n0
(fixed, no randomness); the reversal makes mask order the reversed
lexicographic order of the labels i*k mod n0.  At q=2 with Sym(2) and n=11,
5,893 of the 5,994 columns of the coboundary of d3 are then emergent instead
of 4,639, 230 are filled instead of 3,683, and 130 column additions are made
instead of 4,017.  ``_spread`` lists those cliques in descending mask order,
each extended by its common neighbours below its lowest bit, and keeps with
each the clique's common neighbours, the vertices of its coboundary column,
so no column ANDs neighbour masks again.  A complex keeps that listing,
made once when it is built, as ``spread``; each f | v above is then a cell.
Only the homology leaves the function: ``dump_matrices`` and the pi1 report
read the complex's own labels, in ``_lex_walk`` order.

``pi1_report`` presents the edge-path group by a generator for each edge off
a breadth-first spanning tree and a relator for each triangle: the letters
of its three edges, those of tree edges dropped.  It is read off the
neighbour masks and lists nothing in the complex's own labels: the edges
are numbered, and the triangles found, in ``_lex_walk`` order, and the
letter total the budget is counted from is 3 * ``n_cells(2)`` less the
cofaces of the tree edges.  The relators are implicit, as the coboundary
columns are: a budgeted Tietze search reads a triangle's relator off its
mask only when it first needs it, that is when the generator of one of its
edges is eliminated (the triangles on edge e are the e | v, v in the AND of
the neighbour masks of e's ends, when the complex has 2-cells; a complex of
dimension 1 has none), or when the triangle comes first in cell order among
those never read and no relator shorter than 3 is left; only the triangles
on tree edges, of lengths 1 and 2, are read up front.  So a search's work is
bounded by its budget, not by the complex: at q=2 with trivial labels and
n=9, budget 5000 reads 976 of the 10,080 triangles.  Each step decides as a
search over every relator would.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Collection, Container, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import NamedTuple

Column = dict[int, int]


class HomologyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chain complexes


class _Spread(NamedTuple):
    """A complex's cliques listed in the spread vertex order (module docstring).

    ``neighbours`` are the moved 1-skeleton's masks, ``levels[d]`` its d-cliques
    in descending mask order, each extended by its common neighbours below its
    lowest bit, highest first, and ``commons[d][i]`` the AND of the neighbour
    masks of the vertices of ``levels[d][i]``.  ``top`` counts the cliques of
    dimension len(levels), which are not listed.
    """

    neighbours: list[int]
    levels: list[list[int]]
    commons: list[list[int]]
    top: int


@dataclass(frozen=True, eq=False)
class ChainComplex:
    """A flag complex as vertex labels, cell counts and its 1-skeleton's neighbour masks.

    Its d-cells are the cliques of d + 1 vertices of the 1-skeleton, for d up
    to its dimension: int bitmasks, bit i standing for vertices[i], each
    oriented by the vertex order.  neighbours[i] is the neighbour mask of
    vertex i in the 1-skeleton, and ``counts[d]`` the number of d-cells.
    ``flag_complex`` lists no cell in its own labels when it builds one: from
    dimension 2 up it keeps ``spread``, its cliques below the top in the
    spread order that homology reduces.  ``dump_matrices`` and
    ``check_boundary_squared`` number the cells in ``_lex_walk`` order and
    store none.  Complexes compare by identity.
    """

    vertices: tuple
    counts: tuple[int, ...]
    neighbours: tuple[int, ...] = field(repr=False)
    spread: _Spread | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.counts) - 1

    def n_cells(self, d: int) -> int:
        return self.counts[d] if 0 <= d < len(self.counts) else 0

    def dump_matrices(self) -> str:
        """Boundary matrices as text: a dimension header, then row-major integers."""
        lines = []
        for d in range(1, self.dim + 1):
            rows, cols = self.n_cells(d - 1), self.n_cells(d)
            lines.append(f"dim {d} {rows}x{cols}")
            table = [[0] * cols for _ in range(rows)]
            for j, r, v in _faces(self.neighbours, d):
                table[r][j] = v
            lines.extend(" ".join(str(x) for x in row) for row in table)
        return "\n".join(lines) + "\n"

    def check_boundary_squared(self) -> None:
        """Raise HomologyError if some boundary composed with the next is nonzero.

        It holds by construction, so only tests call this, as an oracle.
        """
        for d in range(2, self.dim + 1):
            lower: list[Column] = [{} for _ in range(self.n_cells(d - 1))]
            for j, r, v in _faces(self.neighbours, d - 1):
                lower[j][r] = v
            acc: list[Column] = [{} for _ in range(self.n_cells(d))]
            for j, r, v in _faces(self.neighbours, d):
                for rr, vv in lower[r].items():
                    acc[j][rr] = acc[j].get(rr, 0) + v * vv
            for j, col in enumerate(acc):
                if any(col.values()):
                    raise HomologyError(f"boundary squared nonzero at dim {d}, column {j}")


def neighbour_masks(vertices: Iterable, edges: Collection[tuple]) -> tuple[tuple, list[int]]:
    """The sorted distinct vertices and their neighbour masks, from an edge list.

    Bit j of the i-th mask is set when the i-th and j-th vertices are joined.
    Raises HomologyError on an edge endpoint that is not a vertex, or a loop.
    """
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    if stray := {v for e in edges for v in e} - index.keys():
        raise HomologyError(f"edge endpoints that are not vertices: {stray!r}")
    adj = [0] * len(verts)
    for a, b in edges:
        i, j = index[a], index[b]
        if i == j:
            raise HomologyError("loops are not allowed")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(verts), adj


def flag_complex(vertices: Iterable, neighbours: Sequence[int], max_dim: int) -> ChainComplex:
    """Clique complex of a simple graph given by neighbour masks, truncated above max_dim.

    Bit j of neighbours[i] is set when vertices[i] and vertices[j] are
    adjacent; the masks must be symmetric and loop-free, as ``neighbour_masks``
    makes them from an edge list.  No cell is listed in these labels.  From
    max_dim 2 up the cliques below max_dim are listed once, in the spread
    order that homology reduces (``_spread``), and those of dimension max_dim
    are counted; below that the counts are the vertices and half the total
    popcount of the masks.
    """
    spread = _spread(neighbours, max_dim) if max_dim >= 2 else None
    if spread is not None:
        counts = [*map(len, spread.levels), spread.top]
    else:
        counts = [len(neighbours), sum(map(int.bit_count, neighbours)) // 2 if max_dim == 1 else 0]
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    # the masks of the 1-skeleton: none when it has no edges
    return ChainComplex(tuple(vertices), tuple(counts),
                        tuple(neighbours) if len(counts) > 1 else (0,) * len(neighbours),
                        spread=spread)


def _lex_walk(neighbours: Sequence[int], d: int) -> Iterator[int]:
    """The d-cells (cliques of d + 1 vertices) of the masks' flag complex, lazily, in lexicographic order.

    Level k of the walk extends each clique of level k - 1, in order, by its
    common neighbours above its highest bit, lowest first, starting from the
    empty clique with every vertex; the innermost level yields the cells.
    """
    def extended(cliques: Iterable[tuple[int, int]], last: bool) -> Iterator:
        for clique, m in cliques:  # each clique with its common neighbours above its highest bit
            while m:
                y = m & -m
                m ^= y  # m keeps the common neighbours above y
                yield clique | y if last else (clique | y, m & neighbours[y.bit_length() - 1])

    cliques: Iterable[tuple[int, int]] = ((0, (1 << len(neighbours)) - 1),)
    for _ in range(d):
        cliques = extended(cliques, False)
    return extended(cliques, True)


def _faces(neighbours: Sequence[int], d: int) -> Iterator[tuple[int, int, int]]:
    """(cell index, face index, sign) for every face of every d-cell of the masks' flag complex, d >= 1.

    Cells are numbered in ``_lex_walk`` order; face i of a simplex drops its
    i-th lowest bit and carries the sign (-1)^i.
    """
    index = {s: i for i, s in enumerate(_lex_walk(neighbours, d - 1))}
    for j, s in enumerate(_lex_walk(neighbours, d)):
        m, sign = s, 1
        while m:
            low = m & -m
            m ^= low
            yield j, index[s ^ low], sign
            sign = -sign


def _spread(neighbours: Sequence[int], top: int) -> _Spread:
    """The cliques below dimension top in the spread order, and the number of the next dimension.

    Vertex i moves to n0 - 1 - (i*k mod n0) (module docstring).  Each clique
    is extended by its common neighbours below its lowest bit, highest first,
    from cliques in descending mask order, and keeps the AND of its vertices'
    neighbour masks; the listing stops at a dimension without cliques.  The
    counts of the listed dimensions and the next one are the flag complex's.
    """
    n0 = len(neighbours)
    k = 5 * n0 // 8
    while math.gcd(k, n0) != 1:
        k += 1
    bit = [1 << (n0 - 1 - i * k % n0) for i in range(n0)]
    moved = [0] * n0
    for i, m in enumerate(neighbours):
        x = 0
        while m:
            low = m & -m
            m ^= low
            x |= bit[low.bit_length() - 1]
        moved[n0 - 1 - i * k % n0] = x
    adj = {1 << i: m for i, m in enumerate(moved)}  # keyed by the vertex's bit
    cliques = list(adj)[::-1]
    common = [adj[x] for x in cliques]
    levels, commons = [cliques], [common]
    for _ in range(1, top):
        nxt, nxt_common = [], []
        for clique, c in zip(cliques, common):
            m = c & ((clique & -clique) - 1)  # the common neighbours below its lowest bit
            while m:
                high = 1 << (m.bit_length() - 1)
                m ^= high
                nxt.append(clique | high)
                nxt_common.append(c & adj[high])
        if not nxt:
            break
        levels.append(nxt)
        commons.append(nxt_common)
        cliques, common = nxt, nxt_common
    n = sum((c & ((x & -x) - 1)).bit_count() for x, c in zip(cliques, common))
    return _Spread(moved, levels, commons, n)


# ---------------------------------------------------------------------------
# Smith normal form


def _divisibility_chain(diag: list[int]) -> list[int]:
    """Invariant factors of a diagonal matrix via pairwise gcd/lcm fixups.

    One sweep over the pairs i < j is enough.  Once (d_i, d_j) is replaced by
    its gcd and lcm, d_i divides d_j.  Later steps only shrink d_i to a
    divisor of itself, and replace later entries by the gcd and lcm of
    multiples of d_i.  So the sweep leaves a divisibility chain, which is
    sorted.
    """
    d = [abs(x) for x in diag]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def _sparse_snf_full(columns: list[Column]) -> tuple[list[int], int]:
    """Invariant factors and rank of a core: the echelon alternated on columns and rows until diagonal.

    ``_echelon`` leaves as many columns as the rank, with distinct lows, by
    column steps of determinant 1; on the transpose it does the same by row
    steps.  Unimodular steps on either side, and transposing, keep the
    invariant factors, so once each column has one entry the diagonal has
    them (Kannan-Bachem 1979, who alternate column and row Hermite forms).

    The alternation ends.  Call the entry on the largest low the corner.  A
    column pass leaves it alone in its row, as +-gcd of that row, and a row
    pass alone in its column, as +-gcd of that column; so each pass's corner
    divides the last one, which lay in the line the pass reduces.  If
    |corner| does not shrink, the last corner divided that line and was alone
    in its other line: the pass goes shortest first, so a one-entry line
    keeps the low (``_extended_gcd(k*a, a)`` is (a, 0, 1): one holding k*a
    yields to one holding a), and every other entry of the line is reduced to
    zero.  The corner is then alone in its row and column, and no later step
    touches it.  So each round either strictly shrinks |corner| or leaves it
    inert, and the rest of the matrix goes on without it.
    """
    columns = _echelon(columns)
    while any(len(col) > 1 for col in columns):
        columns = _echelon(_transposed(columns))
    return _divisibility_chain([v for col in columns for v in col.values()]), len(columns)


def _echelon(columns: list[Column]) -> list[Column]:
    """The columns brought to Hermite column form: as many as the rank, none zero, sorted by low.

    Shortest first, each column is reduced on its low against the column that
    holds that low, as in the unit pass, until its low is free or it is zero.
    Where that column's low entry a does not divide this column's b, the two
    columns p and c become s*p + t*c, with g = s*a + t*b = +-gcd(a, b) at
    the low, and (a/g)*c - (b/g)*p, which is zero there: a 2 x 2 column step
    of determinant (s*a + t*b)/g = 1.  Distinct lows make the columns left
    independent.  Then each column's entry on a lower pivot row r, highest
    first, is reduced by floor division modulo the low entry p[r] of the
    column p with low r, into [0, |p[r]|) with its sign; lows do not change.
    """
    pivots: dict[int, Column] = {}
    for col in sorted(columns, key=len):
        col = dict(col)
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                pivots[low] = col
                break
            a, b = p[low], col[low]
            if b % a:
                g, s, t = _extended_gcd(a, b)
                pivots[low] = _combined(s, p, t, col)
                col = _combined(a // g, col, -b // g, p)
                continue
            q = b // a
            for r, v in p.items():
                nv = col.get(r, 0) - q * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
    lows = sorted(pivots)
    for i, low in enumerate(lows):
        for r in reversed(lows[:i]):
            q = pivots[low].get(r, 0) // pivots[r][r]
            if q:
                pivots[low] = _combined(1, pivots[low], -q, pivots[r])
    return [pivots[low] for low in lows]


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*a + t*b = +-gcd(a, b); either sign serves the column step."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _combined(x: int, c: Column, y: int, d: Column) -> Column:
    """The column x*c + y*d, without zero entries."""
    out = {r: x * v for r, v in c.items()} if x else {}
    for r, v in d.items():
        nv = out.get(r, 0) + y * v
        if nv:
            out[r] = nv
        else:
            out.pop(r, None)
    return out


def _transposed(columns: list[Column]) -> list[Column]:
    """The rows of the columns, as columns keyed by column index."""
    rows: dict[int, Column] = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    return list(rows.values())


def sparse_invariant_factors(columns: list[Column], pivots: dict[int, Column | int] | None = None,
                             faces: Sequence[int] = (), commons: Sequence[int] = (),
                             cleared: Container[int] = ()) -> tuple[list[int], int]:
    """Invariant factors and rank from sparse integer columns.

    Each column is reduced on its lowest row against the unit pivots found so
    far; a column whose low ends up a unit becomes a pivot, any other nonzero
    column is parked.  Parked columns are then cleared on every pivot row.  The
    pivot columns are unit triangular on the pivot rows, so the matrix is
    equivalent to an identity block plus the cleared parked columns, and only
    that core goes on to the echelon, alternated until diagonal
    (``_sparse_snf_full``).  If ``pivots`` is given, the unit
    pivots are left in it, keyed by their rows.

    With ``faces``, the columns are a coboundary's, read in place off a
    listing: column i is face faces[i] with coface vertices commons[i], from
    the last i to the first, and faces in ``cleared`` or without cofaces give
    none.  Its low, f | v for the highest v in commons[i], is known before its
    entries.  If no pivot sits on that low yet, it becomes one as its index i
    and is filled when a column is first reduced against it; otherwise it is
    filled and reduced.  ``columns`` then starts empty and gets each filled
    column, which is never edited.
    """
    if pivots is None:
        pivots = {}  # an int: the listing index of an emergent column, unfilled
    parked: list[Column] = []
    for col in _filled_columns(columns, pivots, faces, commons, cleared) if faces else columns:
        shared = True  # still the caller's column: copied before its first edit
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                break
            if type(p) is int:
                pivots[low] = p = _coboundary_column(faces[p], commons[p])
                columns.append(p)
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
                pivots[r] = p = _coboundary_column(faces[p], commons[p])
                columns.append(p)
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
    units = [1] * len(pivots)
    if not core:
        return units, len(pivots)
    factors, rank = _sparse_snf_full(core)
    return units + factors, len(pivots) + rank


def _filled_columns(columns: list[Column], pivots: dict[int, Column | int], faces: Sequence[int],
                    commons: Sequence[int], cleared: Container[int]) -> Iterator[Column]:
    """The listing's columns, last face first, that are not emergent, each filled into ``columns``.

    An emergent column goes into ``pivots`` on its low as its index instead.
    """
    for i in range(len(faces) - 1, -1, -1):
        m, f = commons[i], faces[i]
        if m and f not in cleared:
            low = f | 1 << (m.bit_length() - 1)
            if low not in pivots:
                pivots[low] = i
                continue
            columns.append(col := _coboundary_column(f, m))
            yield col


def _coboundary_column(f: int, m: int) -> Column:
    """Face f's column: f | v for v in m, highest first, with sign (-1)^(bits of f below v)."""
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


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyResult:
    """Reduced integral homology: per dimension a Betti number and torsion list."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def is_trivial_through(self, k: int) -> bool:
        return all(self.betti[d] == 0 and not self.torsion[d] for d in range(k + 1))


def _spanning_forest(neighbours: Sequence[int]) -> set[int]:
    """Kruskal's forest over the edges in descending mask order, as edge masks, from neighbour masks.

    Vertex i, from the highest down, keeps the edge to the highest neighbour
    below it outside its tree, takes that neighbour's tree in, and repeats
    (module docstring).
    """
    parent = list(range(len(neighbours)))
    tree = [1 << i for i in parent]  # the vertex mask of each root's tree

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    forest: set[int] = set()
    for i in range(len(neighbours) - 1, -1, -1):
        r = find(i)
        m = neighbours[i] & ((1 << i) - 1) & ~tree[r]  # neighbours below i outside its tree
        while m:
            j = m.bit_length() - 1
            t = find(j)
            parent[t] = r
            tree[r] |= tree[t]
            m &= ~tree[t]
            forest.add(1 << i | 1 << j)
    return forest


def reduced_homology(cx: ChainComplex, through_dim: int) -> HomologyResult:
    """Reduced homology in degrees 0..through_dim (degree 0 via augmentation).

    The first boundary goes to a spanning forest, and each higher one is
    reduced as a cleared coboundary on coface masks, all on cx's spread
    listing (module docstring); a complex built below dimension 2 keeps none,
    and its forest is taken in its own labels.
    """
    sp = cx.spread
    rank: dict[int, int] = {0: 1 if cx.n_cells(0) else 0}  # augmentation
    factors: dict[int, list[int]] = {}
    # cells whose rows of the next boundary are dropped: the forest's edges, then the
    # pivot table of the last pass, keyed by its rows
    cleared: Container[int] = set()
    for d in range(1, through_dim + 2):
        if not cx.n_cells(d):
            f, r = [], 0
        elif d == 1:
            # an incidence matrix: totally unimodular, rank from a spanning forest
            cleared = _spanning_forest(cx.neighbours if sp is None else sp.neighbours)
            f, r = [1] * len(cleared), len(cleared)
        else:
            pivots: dict[int, Column | int] = {}
            f, r = sparse_invariant_factors([], pivots, sp.levels[d - 1], sp.commons[d - 1],
                                            cleared)
            cleared = pivots
        factors[d], rank[d] = f, r
    betti = tuple(cx.n_cells(d) - rank[d] - rank[d + 1] for d in range(through_dim + 1))
    torsion = tuple(tuple(x for x in factors[d + 1] if x > 1) for d in range(through_dim + 1))
    return HomologyResult(betti, torsion)


# ---------------------------------------------------------------------------
# bounded fundamental group search


def pi1_report(cx: ChainComplex, h1: HomologyResult, budget: int = 5000) -> dict:
    """Three-valued simple-connectivity report from the edge-path group.

    ``h1`` is the reduced homology of ``cx`` through degree 1 or more, as the
    caller already computed it; its degree-1 group is the abelianization.
    "trivial" is only answered when the presentation simplifies to nothing
    within budget; "nontrivial" only with an abelianization witness, so a
    "trivial" answer is always sound.  The generators are the edges off a
    breadth-first spanning tree, numbered in ``_lex_walk`` order, and the
    relators the triangles, each read off its mask when first needed
    (``_Triangles``).
    """
    if len(h1.betti) < 2:
        raise HomologyError("pi1 report needs the reduced homology through degree 1")
    n0 = cx.n_cells(0)
    if n0 == 0:
        raise HomologyError("empty complex")
    # spanning tree by BFS from vertex 0, each vertex's new neighbours taken in increasing order
    tree: list[int] = []
    seen, queue = 1, [0]
    for x in queue:  # the queue grows while it is walked
        m = cx.neighbours[x] & ~seen
        seen |= m
        while m:
            low = m & -m
            m ^= low
            tree.append(1 << x | low)
            queue.append(low.bit_length() - 1)
    if len(queue) != n0:
        raise HomologyError("pi1 report requires a connected complex")
    # edges run from their lower bit to their higher one; tree edges get no letter
    in_tree = set(tree)
    off_tree = (e for e in _lex_walk(cx.neighbours, 1) if e not in in_tree)
    letter = {e: g for g, e in enumerate(off_tree, 1)}
    if not letter:
        return {"status": "trivial", "generators": 0, "relators": 0}
    if h1.betti[1] > 0 or h1.torsion[1]:
        return {"status": "nontrivial", "h1_betti": h1.betti[1], "h1_torsion": list(h1.torsion[1])}
    status = _tietze_trivializes(len(letter), _Triangles(cx, tree, letter), budget)
    return {"status": "trivial" if status else "unknown",
            "generators": len(letter), "relators": cx.n_cells(2)}


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if x == 0:
            continue
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyc_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    w, k = _free_reduce(word), 0
    while 2 * k + 1 < len(w) and w[k] == -w[-1 - k]:  # the cancelling end pairs, cut in one slice
        k += 1
    return w[k:len(w) - k]


class _Relators:
    """A presentation's relators by position, every one given up front.

    ``given`` maps each position to its relator, cyclically reduced, and
    ``later`` counts the letters of the relators not given yet: none here.
    ``_Triangles`` gives most of its relators later, as the search asks for
    them, through ``containing`` and through ``take``, which gives the
    relator that ``untouched`` found.
    """

    later = 0

    def __init__(self, relators: Iterable[tuple[int, ...]] = ()):
        self.given = {p: _cyc_reduce(r) for p, r in enumerate(relators)}

    def containing(self, g: int) -> list[tuple[int, tuple[int, ...]]]:
        """(position, relator) for the relators holding generator g that were not given before."""
        return []

    def untouched(self) -> tuple[int, int] | None:
        """(length, position) of the first relator not given yet, or None if every one was."""
        return None


class _Triangles(_Relators):
    """The relators of a complex's triangles, each read off its mask when the search first needs it.

    Triangle a < b < c reads ab, bc, then ac backwards, with the letters of
    tree edges dropped.  The triangles on a tree edge (lengths 1 and 2) are
    given up front; any other triangle has three distinct letters, so it is
    cyclically reduced and its first letter occurs once.  The triangles on an
    edge e are the e | v, v in the AND of the neighbour masks of e's ends, in
    a complex with 2-cells; one of dimension 1 has no triangle, whatever
    cliques its graph has, and so its masks are taken as empty.  ``read``
    holds the triangles whose relator was read, and ``rest`` walks the masks
    in ``_lex_walk`` order, which positions (a * n0 + b) * n0 + c keep.
    """

    def __init__(self, cx: ChainComplex, tree: Iterable[int], letter: dict[int, int]):
        self.n0, self.letter = cx.n_cells(0), letter
        self.edge = [0, *letter]  # generator -> its edge
        self.neighbours = cx.neighbours if cx.n_cells(2) else (0,) * self.n0
        self.read: set[int] = set()
        self.rest = _lex_walk(self.neighbours, 2)  # the triangles after head, in cell order
        self.head, self.first = 0, None  # the first triangle not read and its (3, position)
        self.given = {p: r for e in tree for p, r in self._on(e)}
        self.later = 3 * (cx.n_cells(2) - len(self.read))

    def relator(self, t: int) -> tuple[int, ...]:
        low, high = t & -t, 1 << (t.bit_length() - 1)
        get = self.letter.get
        word = (get(t ^ high, 0), get(t ^ low, 0), -get(low | high, 0))
        return tuple(x for x in word if x) if 0 in word else word

    def _position(self, t: int) -> int:
        a, c = (t & -t).bit_length() - 1, t.bit_length() - 1
        b = (t ^ 1 << a ^ 1 << c).bit_length() - 1
        return (a * self.n0 + b) * self.n0 + c

    def _on(self, e: int) -> list[tuple[int, tuple[int, ...]]]:
        """(position, relator) for the triangles on edge e not read before, now read."""
        n0, get, read, out = self.n0, self.letter.get, self.read, []
        lo = e & -e
        a, b = lo.bit_length() - 1, e.bit_length() - 1
        hi, le = 1 << b, get(e, 0)
        m = self.neighbours[a] & self.neighbours[b]
        while m:
            v = m & -m
            m ^= v
            t = e | v
            if t in read:
                continue
            read.add(t)
            c, la, lb = v.bit_length() - 1, get(lo | v, 0), get(hi | v, 0)
            if v < lo:  # c < a < b
                p, word = (c * n0 + a) * n0 + b, (la, le, -lb)
            elif v < hi:  # a < c < b
                p, word = (a * n0 + c) * n0 + b, (la, lb, -le)
            else:  # a < b < c
                p, word = (a * n0 + b) * n0 + c, (le, lb, -la)
            out.append((p, tuple(x for x in word if x) if 0 in word else word))
        return out

    def containing(self, g: int) -> list[tuple[int, tuple[int, ...]]]:
        return self._on(self.edge[g])

    def untouched(self) -> tuple[int, int] | None:
        if not self.head or self.head in self.read:  # read since, or not yet looked for
            self.head = next((t for t in self.rest if t not in self.read), 0)
            self.first = (3, self._position(self.head)) if self.head else None
        return self.first

    def take(self) -> tuple[int, tuple[int, ...]]:
        """(position, relator) of the first triangle not read, now read; ``untouched`` finds it."""
        self.read.add(self.head)
        return self.first[1], self.relator(self.head)


def _tietze_trivializes(ngens: int, relators: _Relators, budget: int) -> bool:
    """Budgeted generator elimination; True only if all generators die.

    Each step takes the shortest relator in which some generator occurs
    exactly once (ties to the earliest position, then its first such letter),
    solves it for that generator and substitutes the solution into the other
    relators.  The budget counts work units (relator letters rewritten), so
    large presentations degrade to "unknown" rather than stalling.

    The search is incremental.  Relators are kept in a dict keyed by their
    position, with a running total of their lengths and an index from each
    generator to the relators that may hold it (a superset: letters that
    reduction cancels are not taken out).  A step rewrites only the relators
    in the eliminated generator's index entry, free-reducing each as it is
    written, and the next step cyclically reduces only those.  A heap holds
    (length, position) for the relators with a once-occurring generator; an
    entry is checked when it reaches the top, and dropped if its relator is
    gone, has another length now, or has no once-occurring generator left.

    Relators that ``relators`` did not give up front join as the search needs
    them: those holding the eliminated generator before its rewrite, and the
    first one left, by position, when nothing in the heap comes before it.
    Until then they are as they came, every letter a live generator occurring
    once, so the first one is the letter a step would take; their letters
    are in the total from the start.

    The decisions are those of re-reducing, re-sorting and rewriting every
    relator on every step (``tietze_trivializes_oracle`` in the tests):
    - relators are only ever dropped, so their relative order never changes,
      and the stable sort by length scanned for the first relator with a
      once-occurring generator finds the minimum (length, position): the top
      of the heap or the first relator not given yet;
    - a relator without the eliminated generator is left as it was, already
      free and cyclically reduced, so it needs no work;
    - every letter left in a relator is still a generator, since the
      eliminated one is substituted away everywhere;
    - the budget is counted the same way: the first step counts the lengths of
      the cyclically reduced inputs, and every later step adds
      max(1, total // 64), where total counts the relators as the previous
      rewrite left them, free-reduced but not yet cyclically reduced.
    """
    gens = set(range(1, ngens + 1))
    rels: dict[int, tuple[int, ...]] = {}
    occ: defaultdict[int, set[int]] = defaultdict(set)

    def index(ps: Iterable[tuple[int, tuple[int, ...]]]) -> None:
        for p, r in ps:
            rels[p] = r
            for x in r:
                occ[x if x > 0 else -x].add(p)

    index(relators.given.items())
    total = sum(map(len, rels.values())) + relators.later
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
            for x in r:
                if r.count(x) + r.count(-x) == 1 and (x if x > 0 else -x) in gens:
                    once[p] = x if x > 0 else -x
                    heappush(heap, (len(r), p))
                    break
        while heap and (heap[0][1] not in once or len(rels[heap[0][1]]) != heap[0][0]):
            heappop(heap)
        first = relators.untouched()
        if heap and (first is None or heap[0] < first):
            _, pk = heappop(heap)
            g = once.pop(pk)
            rel = rels.pop(pk)
        elif first is not None:
            _, rel = relators.take()
            g = rel[0] if rel[0] > 0 else -rel[0]
        else:
            return False
        total -= len(rel)
        i = rel.index(g) if g in rel else rel.index(-g)
        rest = rel[i + 1:] + rel[:i]  # rel ~ g * rest or g^-1 * rest cyclically
        if rel[i] > 0:
            sub = tuple(-x for x in reversed(rest))  # g = rest^-1
        else:
            sub = rest  # g^-1 = rest^-1, so g = rest
        inv = tuple(-x for x in reversed(sub))
        index(relators.containing(g))
        touched = []
        for p in occ.pop(g, ()):
            r = rels.get(p)
            if r is None or (g not in r and -g not in r):
                continue
            w: list[int] = []  # r with g substituted, free-reduced as it is written
            for x in r:
                for y in sub if x == g else inv if x == -g else (x,):
                    if w and w[-1] == -y:
                        w.pop()
                    else:
                        w.append(y)
            rels[p] = new = tuple(w)
            total += len(new) - len(r)
            touched.append(p)
        for a in {x if x > 0 else -x for x in rest}:
            occ[a].update(touched)
        gens.remove(g)
    return not gens
