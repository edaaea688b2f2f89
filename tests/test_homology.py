import inspect
import math
import sys
from collections import Counter
from functools import reduce
from itertools import combinations, count
from operator import and_
from pathlib import Path
from random import Random

import homology_oracle
import pytest
from dense_snf import smith_normal_form
from golden_cases import OUTPUTS
from homology_oracle import (and_coboundary_oracle, basis_oracle, boundary_columns_oracle,
                             cells_oracle, coboundary_oracle, complex_from_simplices, complex_key_oracle,
                             cyc_reduce_oracle, dump_matrices_oracle, eager_flag_complex_oracle,
                             early_forest_oracle, euclidean_snf_oracle, euler_characteristic_oracle,
                             flag_complex_oracle, level_oracle, lex_levels_oracle,
                             one_pass_coboundary_oracle, pi1_presentation_oracle, pi1_report_oracle,
                             reduced_homology_oracle,
                             row_indexed_homology_oracle, spanning_forest_oracle,
                             spread_copy_oracle, tietze_trivializes_oracle)
from hypothesis import given, settings
from hypothesis import strategies as st

from sphero import cli, homology
from sphero.complexes import build_complex, connectivity_bound
from sphero.groups import Config
from sphero.homology import (
    HomologyError,
    HomologyResult,
    _divisibility_chain,
    _echelon,
    _sparse_snf_full,
    flag_complex,
    neighbour_masks,
    pi1_report,
    reduced_homology,
    sparse_invariant_factors,
)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    factors, rank, P, Q = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert factors == [1, 1, 1] and rank == 3


def test_snf_hand_example():
    factors, rank, P, Q = smith_normal_form([[2, 4], [6, 8]])
    assert factors == [2, 4] and rank == 2


def test_snf_zero_matrix():
    factors, rank = smith_normal_form([[0, 0], [0, 0]], with_transforms=False)
    assert factors == [] and rank == 0


def test_snf_divisibility_chain():
    m = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    factors, rank, P, Q = smith_normal_form(m)
    assert rank == 3
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_divisibility_chain_matches_dense_snf():
    rng = Random(20261018)
    for _ in range(300):
        diag = [rng.randrange(1, 61) for _ in range(rng.randrange(0, 9))]
        mat = [[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)]
        assert _divisibility_chain(diag) == smith_normal_form(mat, with_transforms=False)[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_snf_random_certified_and_matches_sparse(seed):
    rng = Random(seed)
    m = rng.randrange(1, 5)
    n = rng.randrange(1, 5)
    mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
    factors, rank, P, Q = smith_normal_form(mat)  # re-multiplication check built in
    cols = [{i: mat[i][j] for i in range(m) if mat[i][j]} for j in range(n)]
    sfactors, srank = sparse_invariant_factors([c for c in cols if c])
    assert srank == rank
    assert sorted(x for x in sfactors if x > 1) == sorted(x for x in factors if x > 1)


def _face_columns(cx, d):
    """Boundary columns from dimension d of a flag complex, read off ``_faces``; empty beyond range."""
    if not 1 <= d <= cx.dim:
        return []
    cols = [{} for _ in range(cx.n_cells(d))]
    for j, r, v in homology._faces(cx.neighbours, d):
        cols[j][r] = v
    return cols


# ---------------------------------------------------------------------------
# unit-pivot pass with a Schur core, against the whole-matrix Euclidean oracle


@pytest.fixture
def cores(monkeypatch):
    """Every column list that sparse_invariant_factors hands to _sparse_snf_full."""
    seen: list[list[dict]] = []

    def spy(columns):
        seen.append([dict(c) for c in columns])
        return _sparse_snf_full(columns)

    monkeypatch.setattr(homology, "_sparse_snf_full", spy)
    return seen


def _random_columns(rng):
    m, n = rng.randrange(3, 13), rng.randrange(3, 13)
    density = rng.choice((0.2, 0.35, 0.5))
    return [{i: v for i in range(m) if rng.random() < density and (v := rng.randrange(-3, 4))}
            for _ in range(n)]


def _torsion_columns(rng):
    """A sparse matrix with a factor 2 or 3: a diagonal mixed by unimodular steps."""
    m, n = rng.randrange(3, 13), rng.randrange(3, 13)
    k = rng.randrange(1, min(m, n) + 1)
    diag = [rng.choice((1, 1, 2, 3)) for _ in range(k)]
    diag[rng.randrange(k)] = rng.choice((2, 3))
    cols = [{r: d} for r, d in zip(rng.sample(range(m), k), diag)] + [{} for _ in range(n - k)]
    for _ in range(rng.randrange(1, m + n)):
        c = rng.choice((1, -1))
        if rng.random() < 0.5:  # column dst += c * column src
            dst, src = rng.sample(range(n), 2)
            for r, v in cols[src].items():
                cols[dst][r] = cols[dst].get(r, 0) + c * v
        else:  # row dst += c * row src
            dst, src = rng.sample(range(m), 2)
            for col in cols:
                if src in col:
                    col[dst] = col.get(dst, 0) + c * col[src]
        cols = [{r: v for r, v in col.items() if v} for col in cols]
    rng.shuffle(cols)
    return cols, _divisibility_chain(diag)


def test_schur_core_matches_whole_matrix_oracle(cores):
    rng = Random(20260301)
    torsion_seen = 0
    for trial in range(600):
        if trial % 2:
            cols, diag = _torsion_columns(rng)
        else:
            cols, diag = _random_columns(rng), None
        nonzero = [c for c in cols if c]
        cores.clear()
        factors, rank = sparse_invariant_factors(cols)
        want_factors, want_rank = euclidean_snf_oracle(cols)
        assert (sorted(factors), rank) == (sorted(want_factors), want_rank), cols
        if diag is not None:
            assert sorted(factors) == diag, cols
        assert len(cores) <= 1
        if any(f > 1 for f in factors):
            torsion_seen += 1
            assert cores, f"torsion without a parked column: {cols}"
        if nonzero and abs(nonzero[0][max(nonzero[0])]) == 1:
            # the first nonzero column is a unit pivot and never reaches the core
            assert not cores or len(cores[0]) < len(nonzero), cols
    assert torsion_seen >= 300


def test_schur_core_has_no_entry_on_a_pivot_row(cores):
    # A unit triangular block on rows 0..k-1 comes first, and every other
    # column is a multiple of 3 on rows >= k: the pivot rows are exactly 0..k-1.
    rng = Random(7)
    for _ in range(300):
        k, extra = rng.randrange(1, 8), rng.randrange(1, 5)
        cols = []
        for i in range(k):
            col = {r: rng.randrange(-3, 4) for r in range(i) if rng.random() < 0.5}
            col[i] = rng.choice((1, -1))
            cols.append(col)
        for _ in range(rng.randrange(1, 6)):
            col = {r: rng.randrange(-3, 4) for r in range(k) if rng.random() < 0.6}
            col.update({k + e: 3 * rng.randrange(-2, 3) for e in range(extra)})
            col[k + rng.randrange(extra)] = 3
            cols.append(col)
        cols = [{r: v for r, v in col.items() if v} for col in cols]
        cores.clear()
        factors, rank = sparse_invariant_factors(cols)
        assert len(cores) == 1
        assert all(r >= k for col in cores[0] for r in col), cols
        want_factors, want_rank = euclidean_snf_oracle(cols)
        assert (sorted(factors), rank) == (sorted(want_factors), want_rank), cols
        assert sorted(factors)[:k] == [1] * k and all(f % 3 == 0 for f in sorted(factors)[k:])


def test_schur_core_on_matching_complex_boundary(cores):
    # d_3 of the q=2 sym complex at n=9 carries 8 x Z/3
    cols = _face_columns(build_complex(Config.make(2, 1, "sym"), 9).chain_complex(3), 3)
    factors, rank = sparse_invariant_factors(cols)
    want_factors, want_rank = euclidean_snf_oracle(cols)
    assert (sorted(factors), rank) == (sorted(want_factors), want_rank)
    assert [f for f in factors if f > 1] == [3] * 8
    assert len(cores) == 1 and len(cores[0]) < len(cols)


def _repeated_low_columns(rng):
    """Columns whose lows fall on two rows, with low entries that often divide neither way."""
    m, n = rng.randrange(3, 10), rng.randrange(2, 10)
    lows = rng.sample(range(1, m), 2)
    cols = []
    for _ in range(n):
        low = rng.choice(lows)
        col = {r: v for r in range(low) if rng.random() < 0.5 and (v := rng.randrange(-4, 5))}
        col[low] = rng.choice((2, 3, 4, 6, 9, -2, -3, -6))
        cols.append(col)
    return cols


def _assert_echelon_exact(cols):
    """The echelon's shape, and the core routine's factors against the Euclidean oracle on the
    raw columns; return the echelon."""
    echelon = _echelon(cols)
    rows = {r for col in cols for r in col}
    want_factors, want_rank = euclidean_snf_oracle(cols)
    assert all(echelon), cols
    assert len({max(col) for col in echelon}) == len(echelon) == want_rank, cols
    assert {r for col in echelon for r in col} <= rows, cols
    assert euclidean_snf_oracle(echelon) == _sparse_snf_full(cols) == (want_factors, want_rank), cols
    return echelon


@pytest.mark.parametrize("kind", ["random", "torsion", "repeated-lows"])
def test_echelon_keeps_rank_many_columns_and_the_invariant_factors(kind):
    rng = Random({"random": 20261101, "torsion": 20261102, "repeated-lows": 20261103}[kind])
    gcd_steps = 0
    for _ in range(300):
        if kind == "random":
            cols = _random_columns(rng)
        elif kind == "torsion":
            cols, diag = _torsion_columns(rng)
        else:
            cols = _repeated_low_columns(rng)
        _assert_echelon_exact(cols)
        factors, rank = _sparse_snf_full(cols)
        rows = sorted({r for col in cols for r in col})
        # the dense oracle's entries explode past 10**4000 on some 12 x 10 random matrices
        if rows and min(len(rows), len(cols)) < 10:
            dense = [[col.get(r, 0) for col in cols] for r in rows]
            assert smith_normal_form(dense, with_transforms=False) == (factors, rank), cols
        if kind == "torsion":
            assert factors == diag, cols
        on_lows = [[col[low] for col in cols if col and max(col) == low]
                   for low in {max(col) for col in cols if col}]
        gcd_steps += any(a % b and b % a for low in on_lows for a, b in combinations(low, 2))
    if kind == "repeated-lows":
        assert gcd_steps >= 150, gcd_steps  # low entries neither of which divides the other


@pytest.mark.parametrize("sub,n", [("sym", 7), ("sym", 9), ("sym", 10), ("triv", 9)])
def test_echelon_on_torsion_grid_cores(cores, sub, n):
    # the cleared cores through nu + 1, against the Euclidean oracle on each whole core
    cc, through = _torsion_grid_point(sub, n)
    reduced_homology(cc, through)
    assert len(cores) == 1
    echelon = _assert_echelon_exact(cores[0])
    assert len(echelon) < len(cores[0]) or (sub, n) in {("sym", 7), ("sym", 10)}


def _wide_columns(rng, size):
    """m, and n columns of m rows, m and n uniform in 1..size, of a density from 0.1 to 1 and
    entries uniform in [-R, R] for R from 1 to 20, zeros dropped, row i keyed i*7919 + 3."""
    m, n = rng.randint(1, size), rng.randint(1, size)
    density, bound = rng.choice((0.1, 0.3, 0.6, 1)), rng.choice((1, 2, 3, 6, 20))
    return m, [{i * 7919 + 3: v for i in range(m)
                if rng.random() < density and (v := rng.randint(-bound, bound))} for _ in range(n)]


def test_sparse_snf_full_matches_the_whole_matrix_oracles():
    # The oracles grow their own entries on raw dense matrices: on this seed's draws of up
    # to 20 x 20, euclidean_snf_oracle runs past 100 s on a 20 x 20 one and 4 s on a 20 x 19
    # one, and smith_normal_form stalls on some whose smaller side is 7 or more; so m, n <= 18
    # here, and the dense check takes a smaller side under 7.
    rng = Random(7)
    for _ in range(300):
        m, cols = _wide_columns(rng, 18)
        got = _sparse_snf_full(cols)
        assert got == euclidean_snf_oracle(cols), cols
        if min(m, len(cols)) < 7:
            dense = [[col.get(i * 7919 + 3, 0) for col in cols] for i in range(m)]
            assert smith_normal_form(dense, with_transforms=False) == got, cols


@pytest.mark.parametrize("cols,want", [
    # the corner ties the other entry of its column, which the row pass meets as a one-entry row
    ([{0: 3, 1: 3}], ([3], 1)),
    ([{0: -3, 1: 3}], ([3], 1)),
    ([{0: 6, 1: 3}], ([3], 1)),  # ... or divides it: _extended_gcd(6, 3) is (3, 0, 1)
    ([{0: 4}, {0: 2, 1: 2}], ([2, 4], 2)),  # the corner 2 ties the entry above it, left mod 4
    ([{0: 8}, {0: 4, 1: 2}], ([2, 8], 2)),  # ... or divides it
    ([{1: 4}, {0: 2, 1: 2}], ([2, 4], 2)),  # the corner's column comes second on its low
    ([{0: 6}, {0: 6, 1: 3}, {1: 3, 2: 3}], ([3, 3, 6], 3)),  # the Hermite reduction diagonalizes
    # three passes: the row pass shrinks the corner, and the next one meets a tie
    ([{0: 3, 1: 2}, {0: 2, 1: 4}], ([1, 8], 2)),
    ([{1: 6}, {0: 6, 1: 3, 2: 2}, {1: 6}], ([1, 12], 2)),  # _extended_gcd(6, 2) in the row pass
])
def test_sparse_snf_full_on_corner_ties(cols, want):
    assert _sparse_snf_full(cols) == euclidean_snf_oracle(cols) == want
    rows = sorted({r for col in cols for r in col})
    assert smith_normal_form([[col.get(r, 0) for col in cols] for r in rows],
                             with_transforms=False) == want


def test_extended_gcd_of_a_multiple_keeps_the_divisor():
    for a in (1, 2, 3, 7, -3):
        for k in (1, -1, 2, -5):
            assert homology._extended_gcd(k * a, a) == (a, 0, 1)


@pytest.mark.parametrize("kind", ["random", "torsion", "repeated-lows"])
def test_echelon_is_sorted_by_low_and_hermite_reduced(kind):
    # each entry on a lower pivot row r is reduced modulo the low entry p of the column with
    # low r: it lies in [0, |p|) with the sign of p
    rng = Random({"random": 20261104, "torsion": 20261105, "repeated-lows": 20261106}[kind])
    draw = {"random": _random_columns, "torsion": lambda rng: _torsion_columns(rng)[0],
            "repeated-lows": _repeated_low_columns}[kind]
    reduced = 0
    for _ in range(300):
        cols = draw(rng)
        echelon = _echelon(cols)
        lows = [max(col) for col in echelon]
        assert lows == sorted(lows), cols
        pivot = {low: col[low] for low, col in zip(lows, echelon)}
        for low, col in zip(lows, echelon):
            for r, v in col.items():
                if r < low and r in pivot:
                    p = pivot[r]
                    assert (v if p > 0 else -v) in range(abs(p)), (cols, echelon)
                    reduced += abs(p) > 1
    assert reduced >= 100, reduced


def test_matching_complex_m7_has_z3_in_degree_one():
    # the q=2 sym complex at n=7 is the matching complex M_7 (Bouc 1992)
    cc = build_complex(Config.make(2, 1, "sym"), 7).chain_complex(2)
    res = reduced_homology(cc, 1)
    assert res.betti == (0, 0)
    assert res.torsion == ((), (3,))


# ---------------------------------------------------------------------------
# flag complexes and homology


def test_flag_triangle():
    cx = flag_complex(*neighbour_masks([1, 2, 3], [(1, 2), (1, 3), (2, 3)]), 2)
    assert cx.n_cells(2) == 1
    assert reduced_homology(cx, 2).betti == (0, 0, 0)


def test_flag_petersen():
    vs = list(combinations(range(1, 6), 2))
    edges = [(a, b) for a, b in combinations(vs, 2) if not set(a) & set(b)]
    cx = flag_complex(*neighbour_masks(vs, edges), 2)
    assert cx.n_cells(1) == 15 and cx.n_cells(2) == 0
    res = reduced_homology(cx, 1)
    assert res.betti == (0, 6)
    ok0 = reduced_homology(cx, 0).is_trivial_through(0)
    ok1 = reduced_homology(cx, 1).is_trivial_through(1)
    assert ok0 and not ok1


def test_flag_disjoint_edges():
    cx = flag_complex(*neighbour_masks([1, 2, 3, 4, 5, 6], [(1, 2), (3, 4), (5, 6)]), 2)
    res = reduced_homology(cx, 1)
    assert res.betti[0] == 2
    assert not reduced_homology(cx, 0).is_trivial_through(0)


def test_reduced_homology_point():
    cx = flag_complex(["p"], [0], 2)
    res = reduced_homology(cx, 2)
    assert res.betti == (0, 0, 0)
    assert res.is_trivial_through(2)
    assert cx.n_cells(0) > 0  # (-1)-acyclic: nonempty


def test_reduced_homology_sphere_boundary():
    # the 4-cycle, and the oracle on the boundary of a triangle, which is not a flag complex
    assert reduced_homology(_cross_polytope(2), 1).betti == (0, 1)
    cx = complex_from_simplices([
        [(1,), (2,), (3,)],
        [(1, 2), (1, 3), (2, 3)],
    ])
    assert reduced_homology_oracle(cx, 1).betti == (0, 1)


def test_basis_not_closed_under_faces_raises():
    for simplices in ([[(1,), (2,)], [(1, 2), (1, 3)]],
                      [[(1,), (2,), (3,)], [(1, 2), (2, 3)], [(1, 2, 3)]]):
        with pytest.raises(HomologyError):
            complex_from_simplices(simplices)


def test_repeated_vertex_raises():
    with pytest.raises(HomologyError, match="repeats a vertex"):
        complex_from_simplices([[(1,), (2,)], [(1, 1)]])


def test_vertex_that_is_not_a_zero_cell_raises():
    with pytest.raises(HomologyError, match="not a 0-cell"):
        complex_from_simplices([[(1,), (2,)], [(1, 3)]])


def test_simplex_of_the_wrong_length_raises():
    for simplices in ([[(1, 2)]], [[(1,), (2,), (3,)], [(1, 2, 3)]], [[()]]):
        with pytest.raises(HomologyError, match="vertices, not"):
            complex_from_simplices(simplices)


def test_repeated_simplex_raises():
    # two copies of one triangle would otherwise give a 2-cycle
    edges = list(combinations((1, 2, 3), 2))
    for simplices in ([[(1,), (1,)]], [[(1,), (2,), (3,)], edges, [(1, 2, 3), (1, 2, 3)]]):
        with pytest.raises(HomologyError, match="listed twice"):
            complex_from_simplices(simplices)


def test_flag_edge_endpoint_that_is_not_a_vertex_raises():
    with pytest.raises(HomologyError, match="not vertices"):
        neighbour_masks([1, 2], [(1, 2), (2, 3)])


def test_flag_loop_raises():
    with pytest.raises(HomologyError, match="loops are not allowed"):
        neighbour_masks([1, 2], [(1, 2), (2, 2)])


RP2_TRIANGLES = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def _subdivision(cx):
    """The barycentric subdivision of cx as a flag complex: the order complex of its face poset.

    Its vertices are cx's cells, as masks, each joined to its proper faces.
    """
    faces = [s for cells in cells_oracle(cx) for s in cells]
    index = {s: i for i, s in enumerate(faces)}
    adj = [0] * len(faces)
    for i, s in enumerate(faces):
        sub = (s - 1) & s  # the proper nonempty submasks of s, from the largest down
        while sub:
            j = index[sub]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            sub = (sub - 1) & s
    return flag_complex(faces, adj, cx.dim)


def _rp2():
    """The six-vertex projective plane, not a flag complex."""
    return complex_from_simplices(_closure(RP2_TRIANGLES))


def _cross_polytope(k):
    """The boundary of the k-dimensional cross-polytope, a (k - 1)-sphere: 2k vertices, each
    joined to all but its antipode (vertex i ^ 1)."""
    n = 2 * k
    return flag_complex(range(n), [((1 << n) - 1) ^ (1 << i) ^ (1 << (i ^ 1)) for i in range(n)], k - 1)


def test_projective_plane_torsion():
    # the library on the barycentric subdivision, the oracle on the six-vertex complex
    cx = _subdivision(_rp2())
    assert cx.counts == (31, 90, 60)
    res = reduced_homology(cx, 2)
    assert res.betti == (0, 0, 0)
    assert res.torsion[1] == (2,)
    assert reduced_homology_oracle(_rp2(), 2) == res


def test_flag_complex_bases_come_out_sorted():
    # the clique search emits every dimension in sorted order, with no sort of its own
    rng = Random(23)
    for trial in range(60):
        n = rng.randrange(3, 9)
        labels = list(range(0, 3 * n, 3)) if trial % 2 else [f"v{i:02d}" for i in range(n)]
        rng.shuffle(labels)
        edges = [(a, b) for a, b in combinations(labels, 2) if rng.random() < 0.6]
        cx = flag_complex(*neighbour_masks(labels, edges), n)
        adjacent = {frozenset(e) for e in edges}
        for d, cells in enumerate(basis_oracle(cx)):
            assert list(cells) == sorted(cells)
            want = [c for c in combinations(sorted(labels), d + 1)
                    if all(frozenset(p) in adjacent for p in combinations(c, 2))]
            assert list(cells) == want


def test_flag_complex_matches_tuple_oracle():
    # masks against the tuple clique search they replaced: the same bases, the
    # same boundary columns and the same homology, on int and string labels
    rng = Random(20261019)
    for trial in range(120):
        n = rng.randrange(1, 11)
        labels = rng.sample(range(-20, 40), n) if trial % 2 else [f"w{rng.random():.6f}" for _ in range(n)]
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [e for e in combinations(labels, 2) if rng.random() < p]
        max_dim = rng.randrange(0, 5)
        cx = flag_complex(*neighbour_masks(labels, edges), max_dim)
        bases = flag_complex_oracle(labels, edges, max_dim)
        assert basis_oracle(cx) == tuple(map(tuple, bases)), trial
        oracle = complex_from_simplices(bases)
        assert complex_key_oracle(oracle) == complex_key_oracle(cx), trial
        for d in range(1, cx.dim + 1):
            assert _face_columns(cx, d) == boundary_columns_oracle(oracle, d), (trial, d)
        through = max(cx.dim - 1, 0)
        assert reduced_homology(cx, through) == reduced_homology_oracle(oracle, through), trial


def test_euler_characteristic_matches_betti_sum():
    rng = Random(11)
    for _ in range(15):
        n = rng.randrange(4, 8)
        verts = list(range(n))
        edges = [(i, j) for i, j in combinations(verts, 2) if rng.random() < 0.5]
        cx = flag_complex(*neighbour_masks(verts, edges), n)
        res = reduced_homology(cx, cx.dim)
        assert all(not t for t in res.torsion)  # flag complexes here stay torsion-free
        chi_cells = euler_characteristic_oracle(cx)
        chi_betti = 1 + sum((-1) ** d * res.betti[d] for d in range(len(res.betti)))
        assert chi_cells == chi_betti


# ---------------------------------------------------------------------------
# coboundary order with clearing, against the homology-direction loop


def _closure(facets):
    """Sorted simplex lists per dimension of the complex the facets generate."""
    by_dim: dict[int, set] = {}
    for f in facets:
        for k in range(1, len(f) + 1):
            by_dim.setdefault(k - 1, set()).update(combinations(f, k))
    return [sorted(by_dim[d]) for d in range(len(by_dim))]


def _assert_boundaries_match_oracle(cx):
    """Derived boundaries equal the stored columns they replaced, and square to zero."""
    for d in range(cx.dim + 2):
        assert _face_columns(cx, d) == boundary_columns_oracle(cx, d), d
    cx.check_boundary_squared()


def test_clearing_matches_oracle_on_random_complexes():
    rng = Random(20261018)
    disconnected = torsion = 0
    for trial in range(300):
        n = rng.randrange(6, 13)
        through = rng.choice((2, 3))
        if trial % 2:
            # flag complex of a seeded graph, often disconnected
            p = rng.choice((0.15, 0.3, 0.5, 0.7))
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            cx = flag_complex(*neighbour_masks(range(n), edges), through + 1)
            want = reduced_homology_oracle(cx, through)
        else:
            # seeded triangles and tetrahedra, half of the time on top of a
            # relabeled six-vertex projective plane (Z/2 in degree one): the
            # oracle on that complex, the library on its barycentric subdivision
            facets = [tuple(sorted(rng.sample(range(n), rng.choice((3, 3, 4)))))
                      for _ in range(rng.randrange(2, 2 * n))]
            if trial % 4 == 0:
                label = rng.sample(range(n), 6)
                facets += [tuple(sorted(label[v] for v in t)) for t in RP2_TRIANGLES]
            explicit = complex_from_simplices(_closure(facets))
            want = reduced_homology_oracle(explicit, through)
            cx = _subdivision(explicit)
        _assert_boundaries_match_oracle(cx)
        assert reduced_homology(cx, through) == want, (trial, want)
        disconnected += want.betti[0] > 0
        torsion += any(want.torsion)
    assert disconnected >= 20 and torsion >= 10, (disconnected, torsion)


@pytest.mark.parametrize("sub,n,torsion", [
    ("sym", 7, ((), (3,))),  # Bouc 1992
    ("sym", 9, ((), (), (3,) * 8)),
    ("triv", 8, ((), (), ())),
])
def test_clearing_matches_oracle_on_grid_points(sub, n, torsion):
    config = Config.make(2, 1, sub)
    through = connectivity_bound(config, n) + 1
    cc = build_complex(config, n).chain_complex(through + 1)
    _assert_boundaries_match_oracle(cc)
    res = reduced_homology(cc, through)
    assert res == reduced_homology_oracle(cc, through)
    assert res.torsion == torsion


# ---------------------------------------------------------------------------
# one-pass coboundary and early-stopping forest, against the builders they replaced


def _items(columns):
    """Columns as lists of (row, value) in their own order, so the order is compared too."""
    return [list(col.items()) for col in columns]


def test_coboundary_matches_face_oracle_on_random_flag_complexes():
    rng = Random(20261019)
    checked = 0
    for trial in range(200):
        n = rng.randrange(1, 12)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        cx = flag_complex(*neighbour_masks(range(n), edges), rng.randrange(1, 5))
        for d in range(1, cx.dim + 1):
            k = cx.n_cells(d - 1)
            cleared = set(rng.sample(range(k), rng.randrange(k + 1)))
            got = one_pass_coboundary_oracle(cx, d, cleared)
            assert _items(got) == _items(coboundary_oracle(cx, d, cleared)), (trial, d)
            checked += bool(got)
    assert checked >= 100, checked


@pytest.mark.parametrize("q,sub", [(2, "sym"), (2, "triv"), (3, "sym"), (3, "triv")])
def test_coboundary_matches_face_oracle_on_grid_points(q, sub):
    # with the cleared sets that reduced_homology hands on: the forest, then each pass
    config = Config.make(q, 1, sub)
    for n in range(q, 10):
        cc = build_complex(config, n).chain_complex(max(connectivity_bound(config, n), 0) + 2)
        cleared = early_forest_oracle(cc.n_cells(0), level_oracle(cc, 1)) if cc.dim else set()
        for d in range(2, cc.dim + 1):
            cols = one_pass_coboundary_oracle(cc, d, cleared)
            assert _items(cols) == _items(coboundary_oracle(cc, d, cleared)), (n, d)
            pivots: dict = {}
            sparse_invariant_factors(cols, pivots)
            cleared = {cc.n_cells(d) - 1 - p for p in pivots}


def test_spanning_forest_stops_where_full_kruskal_would():
    rng = Random(20261019)
    split = 0
    for trial in range(300):
        n0 = trial % 12  # 0 and 1 included
        p = rng.choice((0.05, 0.15, 0.3, 0.6, 0.9))
        edges = [e for e in combinations(range(n0), 2) if rng.random() < p]
        cx = flag_complex(*neighbour_masks(range(n0), edges), 1)
        cells = level_oracle(cx, 1) if cx.dim else ()
        if trial % 2:
            cells = tuple(rng.sample(cells, len(cells)))  # Kruskal on any edge order
        forest = early_forest_oracle(n0, cells)
        assert forest == spanning_forest_oracle(n0, cells), trial
        split += n0 - len(forest) > 1
    assert split >= 50, split


def test_mask_forest_is_kruskals_early_forest():
    # the same edges as Kruskal's scan over the edges in descending mask order
    rng = Random(20261020)
    split = isolated = 0
    for trial in range(300):
        n0 = trial % 14  # 0 and 1 included
        p = rng.choice((0.03, 0.1, 0.2, 0.4, 0.8))
        edges = [e for e in combinations(range(n0), 2) if rng.random() < p]
        cx = flag_complex(*neighbour_masks(range(n0), edges), 1)
        cells = tuple(sorted(level_oracle(cx, 1) if cx.dim else (), reverse=True))
        want = {cells[j] for j in spanning_forest_oracle(n0, cells)}
        assert homology._spanning_forest(cx.neighbours) == want, trial
        # complex_from_simplices derives the same masks from any order of the same edges
        bases = [[(v,) for v in range(n0)], rng.sample(edges, len(edges))]
        cy = complex_from_simplices(bases if edges else bases[:1])
        assert cy.neighbours == cx.neighbours, trial
        split += n0 - len(want) > 1
        isolated += any(m == 0 for m in cx.neighbours)
    assert split >= 100 and isolated >= 100, (split, isolated)


# the lines of a pass that run once per column addition, in the pass and in the clearing of
# parked columns: in sparse_invariant_factors, and in the slot-list pass it replaced
def _addition_lines(fn):
    lines = {fn.__code__.co_firstlineno + i
             for i, line in enumerate(inspect.getsource(fn).splitlines()) if "f = col[" in line}
    assert len(lines) == 2, (fn, lines)
    return lines


_ADDITION_LINES = {fn.__code__: _addition_lines(fn)
                   for fn in (homology.sparse_invariant_factors,
                              homology_oracle.slot_list_invariant_factors)}


def _spied_passes(run, trace=True):
    """run()'s result, and per coboundary pass (a sparse_invariant_factors call, or one of the
    oracles' slot-list pass): its factors and rank, its pivot rows, how many of its lazy columns
    were filled, its column additions (0 unless traced) and the core it handed to
    _sparse_snf_full, whose echelon is alternated until diagonal (None if none)."""
    passes = []
    full = homology._sparse_snf_full
    additions = 0

    def count_additions(frame, event, arg):
        nonlocal additions
        if event == "line" and frame.f_lineno in _ADDITION_LINES[frame.f_code]:
            additions += 1
        return count_additions

    def spied(reduce):
        def spy(columns, pivots, *lazy):
            passes.append(record := {"core": None})
            start = additions
            out = reduce(columns, pivots, *lazy)
            record.update(out=out, pivots=set(pivots), additions=additions - start,
                          fills=sum(1 for col in columns if col))  # a lazy column is filled once
            return out
        return spy

    def spy_full(core):
        passes[-1]["core"] = [dict(col) for col in core]
        return full(core)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "sparse_invariant_factors", spied(homology.sparse_invariant_factors))
        mp.setattr(homology_oracle, "slot_list_invariant_factors",
                   spied(homology_oracle.slot_list_invariant_factors))
        mp.setattr(homology, "_sparse_snf_full", spy_full)
        mp.setattr(homology_oracle, "_sparse_snf_full", spy_full)
        if trace:
            sys.settrace(lambda frame, event, arg:
                         count_additions if frame.f_code in _ADDITION_LINES else None)
        try:
            res = run()
        finally:
            sys.settrace(None)
    return res, passes


def _pivot_passes(cx, through):
    """What reduced_homology did: its forests, its coboundary passes and its result."""
    forests = []
    forest = homology._spanning_forest

    def spy_forest(neighbours):
        forests.append(forest(neighbours))
        return forests[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_spanning_forest", spy_forest)
        res, passes = _spied_passes(lambda: reduced_homology(cx, through))
    return forests, passes, res


def _explicit_passes(cx, through):
    """The same passes, from the one-pass coboundaries and Kruskal's early-stopping forest:
    the forest, then per coboundary its factors and rank and its pivot rows."""
    if through < 0 or not cx.n_cells(1):
        return []
    edges = level_oracle(cx, 1)
    cleared = early_forest_oracle(cx.n_cells(0), edges)
    seen = [{edges[j] for j in cleared}]
    for d in range(2, through + 2):
        if not cx.n_cells(d):
            break
        pivots: dict = {}
        seen.append((sparse_invariant_factors(one_pass_coboundary_oracle(cx, d, cleared), pivots),
                     set(pivots)))
        cleared = {cx.n_cells(d) - 1 - p for p in pivots}
    return seen


def _reversed(cx):
    """cx with its vertex order reversed: vertex i takes bit n0 - 1 - i."""
    bases = [list(b) for b in basis_oracle(cx)]
    bases[0].reverse()
    return complex_from_simplices(bases)


def _assert_same_pivots(cx, through):
    """Check reduced_homology's passes pivot for pivot against the row-indexed oracle, and its
    homology against the oracles on cx; return the number of coboundary passes.

    The oracle runs where reversed lexicographic order is the mask order of the passes: on
    the spread copy listed in full, whose labels are the reversal of the passes' labels, when
    cx keeps a spread listing, and on cx with its vertices reversed when it keeps none.  A
    mask goes to its row there through the bit reversal.
    """
    forests, passes, res = _pivot_passes(cx, through)
    oc = _reversed(cx) if cx.spread is None else spread_copy_oracle(cx, through)
    want_res, want = _spied_passes(lambda: row_indexed_homology_oracle(oc, through))
    n0, oc_cells = cx.n_cells(0), cells_oracle(oc)

    def rev(m):
        return int(f"{m:0{n0}b}"[::-1], 2)

    # the lazy row-indexed passes are those of eagerly built columns
    explicit = _explicit_passes(oc, through)
    assert [(exp["out"], exp["pivots"]) for exp in want] == explicit[1:]
    assert [{rev(e) for e in forest} for forest in forests] == explicit[:1]
    assert len(passes) == len(want)
    for d, got, exp in zip(count(2), passes, want):
        row = {s: r for r, s in enumerate(reversed(oc_cells[d]))}
        assert {row[rev(m)] for m in got["pivots"]} == exp["pivots"], d
        assert [got[k] for k in ("out", "fills", "additions")] == \
            [exp[k] for k in ("out", "fills", "additions")], d
        if exp["core"] is None:
            assert got["core"] is None, d
            continue
        core = [{row[rev(m)]: v for m, v in col.items()} for col in got["core"]]
        # the two orientations differ by one sign per dimension
        assert core in (exp["core"], [{r: -v for r, v in col.items()} for col in exp["core"]]), d
    assert res == want_res == row_indexed_homology_oracle(cx, through)
    assert res == reduced_homology_oracle(cx, through)
    return len(passes)


def _random_complex(rng, trial):
    """A seeded flag complex and the complex the oracles run on: on odd trials the flag complex
    less some of its top cells, which is not a flag complex, and its barycentric subdivision;
    on even trials the flag complex twice."""
    n = rng.randrange(1, 13)
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    cx = flag_complex(*neighbour_masks(range(n), edges), rng.randrange(2, 5))
    if trial % 2 and cx.dim >= 2:
        bases = [list(b) for b in basis_oracle(cx)]
        bases[-1] = [s for s in bases[-1] if rng.random() < 0.5]
        explicit = complex_from_simplices(bases if bases[-1] else bases[:-1])
        return _subdivision(explicit), explicit
    return cx, cx


def test_mask_pivots_match_explicit_pass_on_random_complexes():
    # flag complexes, and subdivisions of non-flag ones: a flag complex less some of its top
    # cells, whose homology the oracle gives
    rng = Random(20261021)
    passes = nonflag = 0
    for trial in range(200):
        cx, explicit = _random_complex(rng, trial)
        nonflag += cx is not explicit
        through = rng.randrange(max(cx.dim - 1, 0), cx.dim + 1)
        passes += _assert_same_pivots(cx, through)
        assert reduced_homology(cx, through) == reduced_homology_oracle(explicit, through), trial
    assert passes >= 150 and nonflag >= 50, (passes, nonflag)


@pytest.mark.parametrize("sub,n", [("sym", 7), ("sym", 9), ("triv", 9)])
def test_mask_pivots_match_explicit_pass_on_torsion_grid_points(sub, n):
    # through nu + 1, and through nu
    cc, through = _torsion_grid_point(sub, n)
    assert _assert_same_pivots(cc, through) == through
    assert _assert_same_pivots(cc, through - 1) == through - 1


@pytest.mark.parametrize("sub,n,extra,want", [
    ("sym", 9, 1, [(29, 18), (666, 5_924)]),
    ("triv", 8, 1, [(46, 25), (2_293, 3_696)]),
    ("sym", 11, 0, [(0, 0), (230, 130)]),
])
def test_spread_passes_fill_and_add_as_pinned(sub, n, extra, want):
    # (filled columns, column additions) of each coboundary pass through nu + extra, as they
    # have been since the passes ran in the spread order
    config = Config.make(2, 1, sub)
    through = connectivity_bound(config, n) + extra
    cc = build_complex(config, n).chain_complex(through + 1)
    _, passes = _spied_passes(lambda: reduced_homology(cc, through))
    assert [(p["fills"], p["additions"]) for p in passes] == want


def _assert_in_place_passes_match_slot_lists(cx, through, trace=True):
    """reduced_homology's passes, on the listing in place, against the slot-list passes they
    replaced, pass for pass: factors and rank, pivot rows, filled columns, column additions (if
    traced) and core; return the number of coboundary passes."""
    res, got = _spied_passes(lambda: reduced_homology(cx, through), trace)
    want_res, want = _spied_passes(lambda: homology_oracle.slot_list_homology_oracle(cx, through),
                                   trace)
    assert got == want
    assert res == want_res
    return len(got)


def test_in_place_passes_match_slot_list_oracle_on_random_complexes():
    rng = Random(20261028)
    passes = 0
    for trial in range(200):
        cx, _ = _random_complex(rng, trial)
        passes += _assert_in_place_passes_match_slot_lists(cx, rng.randrange(0, cx.dim + 1))
    assert passes >= 100, passes


@pytest.mark.parametrize("sub,n", [("sym", 7), ("sym", 9), ("triv", 9)])
def test_in_place_passes_match_slot_list_oracle_on_torsion_grid_points(sub, n):
    # through nu + 1, with the Z/3 torsion in the last pass's core; the additions at triv n=9
    # are traced against the row-indexed oracle in the mask-pivot test, so not again here
    cc, through = _torsion_grid_point(sub, n)
    trace = (sub, n) != ("triv", 9)
    assert _assert_in_place_passes_match_slot_lists(cc, through, trace) == through


# ---------------------------------------------------------------------------
# the spread vertex order: reduced_homology's passes run on a relabelled copy


def _relabelled(cx, rng):
    """cx with its vertices in a seeded order: vertex i takes a seeded bit, through its
    neighbour masks."""
    n0 = cx.n_cells(0)
    perm = rng.sample(range(n0), n0)
    moved = [0] * n0
    for i, m in enumerate(cx.neighbours):
        moved[perm[i]] = sum(1 << perm[j] for j in range(n0) if m >> j & 1)
    return flag_complex(range(n0), moved, cx.dim)


def _torsion_grid_point(sub, n):
    config = Config.make(2, 1, sub)
    through = connectivity_bound(config, n) + 1
    return build_complex(config, n).chain_complex(through + 1), through


def test_reduced_homology_is_invariant_under_vertex_relabelling():
    rng = Random(20261023)
    nonflag = 0
    for trial in range(40):
        cx, explicit = _random_complex(rng, trial)
        through = rng.randrange(0, cx.dim + 1)
        nonflag += cx is not explicit
        want = reduced_homology(cx, through)
        assert want == reduced_homology_oracle(explicit, through), trial
        for _ in range(20):
            assert reduced_homology(_relabelled(cx, rng), through) == want, trial
    assert nonflag >= 10, nonflag


@pytest.mark.parametrize("sub,n", [("sym", 7), ("sym", 9), ("triv", 9)])
def test_reduced_homology_is_invariant_under_vertex_relabelling_on_torsion_grid_points(sub, n):
    # a grid point is a flag complex truncated above through + 1
    rng = Random(20261023 + n)
    cc, through = _torsion_grid_point(sub, n)
    want = reduced_homology(cc, through)
    assert any(want.torsion)
    for _ in range(20):
        cy = _relabelled(cc, rng)
        assert [len(c) for c in cells_oracle(cy)] == [len(c) for c in cells_oracle(cc)]
        assert reduced_homology(cy, through) == want


def _spread_labels(n0):
    """The spread copy's label of each vertex i: n0 - 1 - (i*k mod n0), for the first
    k >= floor(5*n0/8) prime to n0."""
    k = next(k for k in count(math.floor(5 * n0 / 8)) if math.gcd(k, n0) == 1)
    return [n0 - 1 - i * k % n0 for i in range(n0)]


def _common(neighbours, s):
    """The AND of the neighbour masks of the vertices of s."""
    return reduce(and_, (m for i, m in enumerate(neighbours) if s >> i & 1), -1)


def _assert_spread_listing(cx, through):
    """cx's spread listing against cx moved to the spread labels: its cells through the listed
    dimensions in descending mask order, the next dimension counted, the neighbour masks moved,
    each clique's common neighbours the AND of its vertices' masks; and the homology reduced
    from it against the oracle."""
    sp = cx.spread
    label = _spread_labels(cx.n_cells(0))

    def moved(s):
        return sum(1 << t for i, t in enumerate(label) if s >> i & 1)

    neighbours, levels, commons = sp.neighbours, sp.levels, sp.commons
    assert cx.dim <= len(levels) <= cx.dim + 1
    assert levels == [sorted(map(moved, cells), reverse=True) for cells in cells_oracle(cx, len(levels) - 1)]
    assert sp.top == cx.n_cells(len(levels))
    assert [neighbours[t] for t in label] == list(map(moved, cx.neighbours))
    assert commons == [[_common(neighbours, s) for s in level] for level in levels]
    assert reduced_homology(cx, through) == reduced_homology_oracle(cx, through)


def test_spread_copy_is_taken_exactly_when_clique_closed():
    # every flag complex is clique-closed: one built through dimension 2 or more keeps its
    # spread listing, on random graphs and on grid points through nu + 1
    rng = Random(20261024)
    taken = 0
    for trial in range(300):
        n = rng.randrange(1, 13)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        max_dim = rng.randrange(0, 5)
        cx = flag_complex(*neighbour_masks(range(n), edges), max_dim)
        assert (cx.spread is not None) == (max_dim >= 2), trial
        if cx.spread is not None:
            _assert_spread_listing(cx, rng.randrange(0, cx.dim + 2))
            taken += 1
    assert taken >= 150, taken
    for sub, n in (("sym", 7), ("sym", 9), ("triv", 8)):
        cc, through = _torsion_grid_point(sub, n)
        _assert_spread_listing(cc, through)


def _sphere_boundary(k):
    """The proper faces of the k-simplex, listed from the top vertex down."""
    verts = list(range(k, -1, -1))
    return [list(combinations(verts, j + 1)) for j in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_mask_homology_matches_oracle_on_sphere_boundaries(k):
    # S^(k-1): the library on the cross-polytope boundary, the oracle on it and on the
    # boundary of the k-simplex, which is not a flag complex
    cx = _cross_polytope(k)
    res = reduced_homology(cx, k - 1)
    assert res == reduced_homology_oracle(cx, k - 1)
    assert res == reduced_homology_oracle(complex_from_simplices(_sphere_boundary(k)), k - 1)
    assert res.betti == (0,) * (k - 1) + (1,)


def test_mask_homology_matches_oracle_on_projective_plane():
    # relabeled and listed in a seeded order: the builder's cells come out sorted all the same
    rng = Random(20261022)
    for trial in range(20):
        label = rng.sample(range(6), 6)
        tris = [tuple(label[v] for v in t) for t in RP2_TRIANGLES]
        edges = list({(t[i], t[j]) for t in tris for i in range(3) for j in range(i + 1, 3)})
        bases = [[(v,) for v in rng.sample(range(6), 6)], rng.sample(edges, len(edges)),
                 rng.sample(tris, len(tris))]
        cx = complex_from_simplices(bases)
        assert all(list(c) == sorted(c, key=lambda s: [i for i in range(6) if s >> i & 1])
                   for c in cells_oracle(cx)), trial
        # the library on its barycentric subdivision
        res = reduced_homology(_subdivision(cx), 2)
        assert res == reduced_homology_oracle(cx, 2), trial
        assert res.betti == (0, 0, 0) and res.torsion == ((), (2,), ()), trial


def test_chain_complex_carries_its_one_skeleton_masks():
    verts, adj = neighbour_masks("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert flag_complex(verts, adj, 0).neighbours == (0, 0, 0, 0)
    for max_dim in (1, 2):
        cx = flag_complex(verts, adj, max_dim)
        assert cx.neighbours == tuple(adj)
        assert complex_from_simplices([list(b) for b in basis_oracle(cx)]).neighbours == tuple(adj)


# ---------------------------------------------------------------------------
# a flag complex: its cliques listed once, in the spread order, its own labels walked on read


_READERS = {"cells": cells_oracle, "basis": basis_oracle,
            "vertices, counts, masks and cells": complex_key_oracle}


def _assert_lazy_top_matches_eager(verts, adj):
    """For every max_dim through the clique number + 1, flag_complex against the eager oracle:
    the counts, read first and walking nothing in its own labels, the top counted and not
    listed in the spread order, the dump walking no dimension above max_dim, each way of
    reading the cells, and the homology."""
    n = len(adj)
    omega = eager_flag_complex_oracle(verts, adj, n).dim + 1 if n else 0
    for max_dim in range(omega + 2):
        want = eager_flag_complex_oracle(verts, adj, max_dim)
        with pytest.MonkeyPatch.context() as mp:
            walked, _ = _listings(mp)
            cx = flag_complex(verts, adj, max_dim)
            assert cx.dim == want.dim, max_dim
            assert [cx.n_cells(d) for d in range(-1, want.dim + 2)] == \
                [want.n_cells(d) for d in range(-1, want.dim + 2)], max_dim
            assert walked == [], max_dim
            assert cx.dump_matrices() == dump_matrices_oracle(want), max_dim
        assert sorted(set(walked)) == list(range(cx.dim + 1 if cx.dim else 0)), (max_dim, walked)
        assert cx.dim <= max_dim, max_dim
        if max_dim < 2:
            assert cx.spread is None, max_dim
        else:
            listed = len(cx.spread.levels)
            assert listed == min(max_dim, want.dim + 1), max_dim
            assert cx.spread.top == want.n_cells(listed), max_dim
        assert cx.neighbours == want.neighbours, max_dim
        if max_dim == 0 or not want.n_cells(1):
            assert cx.neighbours == (0,) * n, max_dim
        for name, read in _READERS.items():
            assert read(cx) == read(want), (max_dim, name)
        for through in range(want.dim + 1):
            assert reduced_homology(flag_complex(verts, adj, max_dim), through) == \
                reduced_homology_oracle(want, through), (max_dim, through)


def test_lazy_top_matches_eager_flag_complex_on_random_graphs():
    rng = Random(20261025)
    with_edges = 0
    for trial in range(150):
        n = rng.randrange(0, 11)
        labels = rng.sample(range(-20, 40), n) if trial % 2 else [f"u{rng.random():.6f}" for _ in range(n)]
        p = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        verts, adj = neighbour_masks(labels, [e for e in combinations(labels, 2) if rng.random() < p])
        _assert_lazy_top_matches_eager(verts, adj)
        with_edges += any(m for m in adj)
    assert with_edges >= 75, with_edges


@pytest.mark.parametrize("q,sub,nmax", [(2, "sym", 8), (2, "triv", 7), (3, "sym", 9), (3, "triv", 6)])
def test_lazy_top_matches_eager_flag_complex_on_grid_points(q, sub, nmax):
    config = Config.make(q, 1, sub)
    for n in range(q, nmax + 1):
        cx = build_complex(config, n)
        _assert_lazy_top_matches_eager(range(len(cx.vertices)), cx.neighbours)


def _listings(mp):
    """Patch the clique walk and the spread listing to record them: the d of every walk of a
    complex's d-cells in its own labels, and the number of spread listings."""
    walked, spread = [], []
    walk, spread_of = homology._lex_walk, homology._spread
    mp.setattr(homology, "_lex_walk", lambda neighbours, d: walked.append(d) or walk(neighbours, d))
    mp.setattr(homology, "_spread", lambda *a: spread.append(1) or spread_of(*a))
    return walked, spread


@pytest.mark.parametrize("q,sub,n,top", [(2, "sym", 11, 17_325), (3, "triv", 9, 30_240)])
def test_nu_grid_pipeline_never_lists_the_top(q, sub, n, top):
    # scripts/nu_grid.py: chain_complex(nu + 1) -> reduced_homology(., nu) -> n_cells and dim,
    # every clique listed once, in the spread order, and the top counted
    config = Config.make(q, 1, sub)
    through = max(connectivity_bound(config, n), 0)
    with pytest.MonkeyPatch.context() as mp:
        own, spread = _listings(mp)
        cc = build_complex(config, n).chain_complex(through + 1)
        res = reduced_homology(cc, through)
        counts = [cc.n_cells(d) for d in range(cc.dim + 1)]
    assert own == [] and len(spread) == (through + 1 >= 2)
    assert cc.dim == through + 1 and counts[-1] == top
    if cc.spread is not None:
        assert len(cc.spread.levels) == cc.dim and cc.spread.top == top
    assert res.is_trivial_through(through)


def test_desclink_lists_no_cell_in_its_own_labels(tmp_path):
    # each order complex of dimension 2 or more is listed once, in the spread order, and
    # reduced from that listing: here the full poset's (dimension 2); the star poset's is
    # 1-dimensional, so its cells are counted from the masks and none is listed
    with pytest.MonkeyPatch.context() as mp:
        own, spread = _listings(mp)
        assert cli.main(["desclink", "--q", "2", "--subgroup", "triv", "--n", "4", "--full", "--star",
                         "--out", str(tmp_path / "dl.json"),
                         "--homology-csv", str(tmp_path / "dl.csv")]) == 0
    assert own == [] and len(spread) == 1


def test_verify_nu_pi1_lists_nothing_above_dimension_two(tmp_path):
    out = tmp_path / "nu.csv"
    with pytest.MonkeyPatch.context() as mp:
        listed, _ = _listings(mp)
        assert cli.main(["verify-nu", "--q", "2", "--subgroup", "sym", "--nmax", "9",
                         "--pi1-budget", "5000", "--out", str(out)]) == 0
    rows = {int(r[0]): r for r in (line.split(",") for line in out.read_text().splitlines()[2:])}
    # nu = 1 at n = 8 and 9: a 3-dimensional complex whose pi1 was searched, its top not
    # walked: the pi1 report walks the edges and the triangles, and nothing else walks
    assert [rows[n][1] for n in (8, 9)] == ["1", "1"] and "n/a" not in (rows[8][5], rows[9][5])
    assert set(listed) == {1, 2}, listed


def _assert_mask_columns_match_and_oracle(cx):
    """The coboundary columns of the spread listing from its kept common-neighbour masks against
    those of the AND of neighbour masks, with the cleared sets the passes hand on; return the
    number of columns compared."""
    sp = cx.spread
    neighbours, levels, commons = sp.neighbours, sp.levels, sp.commons
    cleared, compared = homology._spanning_forest(neighbours), 0
    for d in range(2, len(levels) + 1):
        faces = levels[d - 1][::-1]
        got = [(f, m) for f, m in zip(faces, commons[d - 1][::-1]) if m and f not in cleared]
        want = and_coboundary_oracle(neighbours, faces, cleared)
        cols = [homology._coboundary_column(f, m) for f, m in got]
        assert [(f, m, max(col)) for (f, m), col in zip(got, cols)] == _lazy(want), d
        assert _items(cols) == _items(map(want.fill, range(len(want.faces)))), d
        compared += len(got)
        if d < len(levels):  # the pivots of this pass clear the next one
            pivots: dict = {}
            sparse_invariant_factors([], pivots, levels[d - 1], commons[d - 1], cleared)
            cleared = pivots
    return compared


def _lazy(cob):
    """A slot-list coboundary's unfilled columns as (face, coface vertices, low), and that none
    is filled."""
    assert cob.columns == [()] * len(cob.faces)
    return list(zip(cob.faces, cob.cands, cob.lows))


@pytest.mark.parametrize("sub,nmax", [("sym", 11), ("triv", 10)])
def test_mask_columns_match_and_oracle_on_grid_points(sub, nmax):
    config = Config.make(2, 1, sub)
    for n in range(6, nmax + 1):
        through = connectivity_bound(config, n) + 1
        cc = build_complex(config, n).chain_complex(through + 1)
        assert _assert_mask_columns_match_and_oracle(cc), n


def test_mask_columns_match_and_oracle_on_random_complexes():
    rng = Random(20261026)
    flags = 0
    for trial in range(200):
        cx, _ = _random_complex(rng, trial)
        if cx.spread is not None:
            flags += bool(_assert_mask_columns_match_and_oracle(cx))
    assert flags >= 50, flags


def _rank_mod_p(columns, p):
    """Rank over F_p: each column reduced on its lowest row against the pivots so far."""
    pivots: dict[int, dict[int, int]] = {}
    for col0 in columns:
        col = {r: v % p for r, v in col0.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
                break
            f = col[low]
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return len(pivots)


def test_ranks_mod_p_certify_grid_homology():
    # rank_p of each boundary is the number of its invariant factors prime to p;
    # the ranks and torsion are read off reduced_homology through nu+1
    config = Config.make(2, 1, "sym")
    drops = []
    for n in range(2, 10):
        through = max(connectivity_bound(config, n) + 1, 0)
        cc = build_complex(config, n).chain_complex(through + 2)
        res = reduced_homology(cc, through)
        rank = [1]  # augmentation
        for d in range(through + 1):
            rank.append(cc.n_cells(d) - rank[d] - res.betti[d])
        for d in range(1, through + 2):
            cols = _face_columns(cc, d)
            for p in (2, 3, 10007):
                prime_to_p = rank[d] - sum(t % p == 0 for t in res.torsion[d - 1])
                assert _rank_mod_p(cols, p) == prime_to_p, (n, d, p)
                if prime_to_p < rank[d]:
                    drops.append((n, d, p, rank[d] - prime_to_p))
        if cc.dim <= through + 1:  # no cell above: the whole complex
            full = reduced_homology(cc, cc.dim)
            chi = sum((-1) ** d * b for d, b in enumerate(full.betti))
            assert chi == euler_characteristic_oracle(cc) - 1, n
    assert drops == [(7, 2, 3, 1), (9, 3, 3, 8)]


# ---------------------------------------------------------------------------
# fundamental group reports


def _k4(max_dim):
    """The complete graph on four vertices, as a flag complex truncated above max_dim: at
    max_dim 2 the boundary of the tetrahedron, a 2-sphere."""
    return flag_complex(range(4), [0b1111 ^ 1 << i for i in range(4)], max_dim)


def test_pi1_two_sphere_trivial():
    cx = _k4(2)
    assert pi1_report(cx, reduced_homology(cx, 1))["status"] == "trivial"


def test_pi1_circle_nontrivial():
    cx = _cross_polytope(2)  # the 4-cycle
    rep = pi1_report(cx, reduced_homology(cx, 1))
    assert rep["status"] == "nontrivial"
    assert rep["h1_betti"] == 1


def test_pi1_requires_connected():
    cx = flag_complex([1, 2], [0, 0], 2)
    h1 = reduced_homology(cx, 1)
    with pytest.raises(HomologyError):
        pi1_report(cx, h1)


def test_pi1_requires_homology_through_degree_one():
    cx = _cross_polytope(2)  # the 4-cycle
    with pytest.raises(HomologyError):
        pi1_report(cx, reduced_homology(cx, 0))


def test_pi1_never_false_trivial_on_torsion():
    # projective plane, subdivided: H1 = Z/2 so the report must not say trivial
    cx = _subdivision(_rp2())
    rep = pi1_report(cx, reduced_homology(cx, 1))
    assert rep["status"] == "nontrivial"
    assert rep["h1_torsion"] == [2]


def _search(ngens, rels, budget):
    """The search on an explicit relator list, every relator given up front."""
    return homology._tietze_trivializes(ngens, homology._Relators(rels), budget)


def _spy_presentations(cx, budgets):
    """pi1_report statuses at each budget, and the whole presentation its search reads from.

    The search reads the triangles' relators as it needs them; the spy reads
    every one off the same source, and it must be the presentation that
    ``pi1_report`` built whole before (``pi1_presentation_oracle``).
    """
    seen = []
    search = homology._tietze_trivializes

    def spy(ngens, relators, budget):
        seen.append((ngens, [relators.relator(t) for t in homology._lex_walk(relators.neighbours, 2)]))
        return search(ngens, relators, budget)

    h1 = reduced_homology(cx, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_tietze_trivializes", spy)
        statuses = [pi1_report(cx, h1, b)["status"] for b in budgets]
    assert all(p == seen[0] for p in seen)
    assert seen[0] == pi1_presentation_oracle(cx)[:2]
    return statuses, seen[0]


def test_pi1_orients_edges_by_vertex_order():
    # the 2-sphere with its labels running down, as an order complex lists its chains: the
    # same bitmasks, so the same presentation as the ascending one
    cx_up = _k4(2)
    cx_down = flag_complex((3, 2, 1, 0), cx_up.neighbours, 2)
    assert cx_down.vertices == (3, 2, 1, 0) and cells_oracle(cx_down) == cells_oracle(cx_up)
    assert _spy_presentations(cx_down, [5000]) == _spy_presentations(cx_up, [5000])


def test_pi1_unknown_with_tiny_budget():
    simps = [
        [(i,) for i in range(4)],
        list(combinations(range(4), 2)),
        list(combinations(range(4), 3)),
    ]
    # budget 0 never enters the search; 3 is the oracle's smallest budget that
    # eliminates all three generators, one unit each, on the explicit presentation
    ngens, rels, _ = pi1_presentation_oracle(complex_from_simplices(simps))
    assert [tietze_trivializes_oracle(ngens, rels, b) for b in (2, 3)] == [False, True]
    assert [_search(ngens, rels, b) for b in (2, 3)] == [False, True]
    # the same complex as a flag complex: K4 truncated above dimension 2
    statuses, presentation = _spy_presentations(_k4(2), [0, 2, 3])
    assert statuses == ["unknown", "unknown", "trivial"]
    assert presentation == (ngens, rels)


def test_pi1_octahedron_budget_pins():
    # the octahedron, a flag 2-sphere: 7 generators, one unit each
    cx = _cross_polytope(3)
    h1 = reduced_homology(cx, 1)
    statuses, (ngens, rels) = _spy_presentations(cx, [6, 7])
    assert statuses == ["unknown", "trivial"] and ngens == 7
    assert [tietze_trivializes_oracle(ngens, rels, b) for b in (6, 7)] == [False, True]
    assert [pi1_report_oracle(cx, h1, b)["status"] for b in (6, 7)] == ["unknown", "trivial"]


def test_pi1_reads_no_triangle_without_two_cells():
    # K4 truncated above dimension 1 is a graph: its triangles are not 2-cells, so nothing
    # kills its three generators; at dimension 2 it is a 2-sphere
    for report in (pi1_report, pi1_report_oracle):
        assert report(_k4(1), NO_H1, 5000)["status"] == "unknown"
        assert report(_k4(2), NO_H1, 5000)["status"] == "trivial"


def _random_presentation(rng):
    """5-40 generators and relators of length 1-6, more than 64 letters in all."""
    ngens = rng.randint(5, 40)
    m = rng.randint(ngens // 2, 2 * ngens)
    rels = []
    while len(rels) < m or sum(map(len, rels)) <= 64:
        rels.append(tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
                          for _ in range(rng.randint(1, 6))))
    return ngens, rels


def test_tietze_matches_oracle_on_random_presentations():
    rng = Random(20261018)
    outcomes = {False: 0, True: 0}
    for _ in range(25):
        ngens, rels = _random_presentation(rng)
        for budget in [*range(1, 121), 10**6]:
            got = _search(ngens, rels, budget)
            assert got == tietze_trivializes_oracle(ngens, rels, budget), (ngens, rels, budget)
            outcomes[got] += 1
    assert min(outcomes.values()) > 0.3 * sum(outcomes.values()), outcomes


def test_tietze_budget_counts_relators_before_cyclic_reduction():
    # Step 1 (134 letters, cost 2) sets 1 = 2^-1, which turns (1, 1, 2) into
    # (2^-1) and each (1, p, 2) into the conjugate (2^-1, p, 2): 130 letters
    # before cyclic reduction, 44 after.  Step 2 costs 130 // 64 = 2, not 1, and
    # the 43 later steps 1 each, so all 45 generators die from budget 47 on.
    ngens = 45
    rels = [(1, 2), (1, 1, 2)] + [(1, p, 2) for p in range(3, ngens + 1)]
    for budget in range(1, 121):
        assert _search(ngens, rels, budget) == tietze_trivializes_oracle(ngens, rels, budget), budget
    assert next(b for b in range(1, 121) if tietze_trivializes_oracle(ngens, rels, b)) == 47


@pytest.fixture(scope="module")
def grid_presentations():
    """What pi1_report searches at q=2 sym n=8 and 9 and triv n=8, budget 5000."""
    out = {}
    for d, n in (("sym", 8), ("sym", 9), ("triv", 8)):
        cx = build_complex(Config.make(2, 1, d), n).chain_complex(2)
        (status,), (ngens, rels) = _spy_presentations(cx, [5000])
        out[d, n] = ngens, rels, status
    return out


def test_tietze_matches_oracle_on_grid_presentations(grid_presentations):
    shapes = {k: (ngens, len(rels), status) for k, (ngens, rels, status) in grid_presentations.items()}
    assert shapes == {("sym", 8): (183, 420, "trivial"), ("sym", 9): (343, 1260, "unknown"),
                      ("triv", 8): (785, 3360, "unknown")}
    for ngens, rels, _ in grid_presentations.values():
        for budget in (1, 64, 500, 5000):
            assert _search(ngens, rels, budget) == tietze_trivializes_oracle(ngens, rels, budget), (ngens, budget)


def test_tietze_smallest_proving_budget_on_grid(grid_presentations):
    ngens, rels, _ = grid_presentations["sym", 8]
    smallest = 1500  # the oracle's smallest budget that proves q=2 sym n=8 trivial
    assert [tietze_trivializes_oracle(ngens, rels, b) for b in (smallest - 1, smallest)] == [False, True]
    assert [_search(ngens, rels, b) for b in (smallest - 1, smallest)] == [False, True]
    cx = build_complex(Config.make(2, 1, "sym"), 8).chain_complex(2)
    h1 = reduced_homology(cx, 1)
    assert [pi1_report(cx, h1, b)["status"] for b in (smallest - 1, smallest)] == ["unknown", "trivial"]


PI1_BUDGETS = (0, 1, 2, 3, 17, 64, 500, 1499, 1500, 5000, 20000, 10**6)


def _pi1_outcomes(cx, h1):
    """pi1_report and its oracle at each budget, each report with the generators it
    eliminated in order, or the error both raise."""
    out = []
    containing = homology._Triangles.containing
    for report in (pi1_report, pi1_report_oracle):
        runs = []
        try:
            for budget in PI1_BUDGETS:
                eliminated = []
                if report is pi1_report:
                    with pytest.MonkeyPatch.context() as mp:
                        # the search asks each step's triangles on the eliminated edge once
                        mp.setattr(homology._Triangles, "containing",
                                   lambda self, g: eliminated.append(g) or containing(self, g))
                        runs.append((report(cx, h1, budget), eliminated))
                else:
                    runs.append((report(cx, h1, budget, eliminated), eliminated))
        except HomologyError as exc:
            runs = str(exc)
        out.append(runs)
    return out


def _count_outcomes(counts, runs):
    if isinstance(runs, list):
        counts.update(rep["status"] for rep, _ in runs)


def test_pi1_matches_oracle_on_grid_complexes():
    # every budget on the grid complexes: reports and eliminations as the whole
    # presentation and the incremental search gave them
    statuses = Counter()
    for q, d, nmax in ((2, "sym", 9), (2, "triv", 8), (3, "sym", 8)):
        for n in range(2, nmax + 1):
            cx = build_complex(Config.make(q, 1, d), n).chain_complex(2)
            if not cx.n_cells(0):
                continue
            got, want = _pi1_outcomes(cx, reduced_homology(cx, 1))
            assert got == want, (q, d, n)
            _count_outcomes(statuses, got)
    assert statuses["trivial"] and statuses["unknown"] and statuses["nontrivial"], statuses


# H~1 = 0 claimed for every complex, so that the search also runs on
# presentations that never trivialise: those run out of relators shorter
# than 3 and take the untouched triangles in cell order
NO_H1 = HomologyResult((0, 0), ((), ()))


def test_pi1_matches_oracle_on_relabelled_complexes():
    # the shuffled vertices change cells[2]'s order and so the position tie-break
    rng = Random(20261019)
    grid = [build_complex(Config.make(2, 1, d), n).chain_complex(2)
            for d, n in (("sym", 7), ("sym", 8), ("triv", 6), ("triv", 7))]
    statuses, taken = Counter(), []
    take = homology._Triangles.take
    for i in range(60):
        if i % 3:  # a random graph's flag complex
            n = rng.randint(6, 13)
            cx = flag_complex(*neighbour_masks(range(n), [e for e in combinations(range(n), 2)
                                                          if rng.random() < 0.7]), 2)
        else:
            cx = rng.choice(grid)
        cx = _relabelled(cx, rng)
        for h1 in (reduced_homology(cx, 1), NO_H1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(homology._Triangles, "take", lambda self: taken.append(1) or take(self))
                got, want = _pi1_outcomes(cx, h1)
            assert got == want, (i, cells_oracle(cx))
            _count_outcomes(statuses, got)
    assert statuses["trivial"] and statuses["unknown"] and statuses["nontrivial"], statuses
    assert len(taken) > 100


def test_pi1_search_reads_triangles_within_its_budget():
    # q=2 triv n=9 has 10,080 triangles; at budget 5000 the search runs a few
    # steps and reads the relators of the triangles on tree edges and on the
    # eliminated generators' edges, not every triangle
    cx = build_complex(Config.make(2, 1, "triv"), 9).chain_complex(2)
    h1 = reduced_homology(cx, 1)
    searched, built = [], []
    search, on, take = homology._tietze_trivializes, homology._Triangles._on, homology._Triangles.take
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_tietze_trivializes",
                   lambda ngens, relators, budget: searched.append(relators) or search(ngens, relators, budget))
        # every relator the search is given: the triangles on an edge, and the first one not read
        mp.setattr(homology._Triangles, "_on", lambda self, e: built.extend(out := on(self, e)) or out)
        mp.setattr(homology._Triangles, "take", lambda self: built.append(out := take(self)) or out)
        rep = pi1_report(cx, h1, 5000)
    assert rep == {"status": "unknown", "generators": 1441, "relators": 10080}
    (triangles,) = searched
    positions = [p for p, _ in built]
    assert len(set(positions)) == len(positions) == len(triangles.read)
    assert 0 < len(triangles.read) < 0.2 * 10080


def test_cyc_reduce_matches_the_slice_loop_on_random_words():
    # the cancelling end pairs cut in one slice against the loop that sliced each off; the
    # words cancel deep at their ends, as a substitution leaves them, and some hold zeros
    rng = Random(20261030)
    deep = 0
    for _ in range(2000):
        ends = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 9))]
        core = [rng.choice((1, -1, 0)) * rng.randint(1, 4) for _ in range(rng.randint(0, 6))]
        word = tuple(ends + core + [-x for x in reversed(ends)])
        got = homology._cyc_reduce(word)
        assert got == cyc_reduce_oracle(word), word
        deep += len(word) - len(got) >= 8
    assert deep > 300, deep


def _assert_lex_walks_list_the_levels(cx):
    """The mask walks that pi1_report reads its edges and triangles from, against the listing
    oracle's levels 1 and 2: the triangles walked are a complex's 2-cells, none below dimension
    2."""
    edges = tuple(homology._lex_walk(cx.neighbours, 1))
    triangles = tuple(homology._Triangles(cx, (), {}).rest)
    assert edges == (level_oracle(cx, 1) if cx.dim >= 1 else ())
    assert triangles == (level_oracle(cx, 2) if cx.dim >= 2 else ())
    assert len(triangles) == cx.n_cells(2)


def test_lex_walks_list_the_levels_on_random_flag_complexes():
    rng = Random(20261031)
    for max_dim in range(4):
        _assert_lex_walks_list_the_levels(flag_complex((), (), max_dim))
    graph_triangles = 0
    for _ in range(300):
        n = rng.randrange(0, 13)
        p = rng.choice((0.2, 0.5, 0.8))
        verts, adj = neighbour_masks(range(n), [e for e in combinations(range(n), 2) if rng.random() < p])
        cx = flag_complex(verts, adj, rng.randrange(0, 4))
        _assert_lex_walks_list_the_levels(cx)
        graph_triangles += cx.dim == 1 and any(homology._lex_walk(cx.neighbours, 2))
    assert graph_triangles >= 30, graph_triangles


def _assert_lex_walk_lists_every_level(neighbours, dim):
    """The one lexicographic clique walk against the listing oracle at every d from 0 through
    dim + 1; return the number of cliques walked above dimension 2."""
    want = lex_levels_oracle(neighbours, dim + 1)
    for d in range(dim + 2):
        assert tuple(homology._lex_walk(neighbours, d)) == want[d], d
    return sum(map(len, want[3:]))


def test_lex_walk_lists_every_level_on_random_graphs():
    rng = Random(20261032)
    deep = 0
    for _ in range(300):
        n = rng.randrange(0, 13)
        p = rng.choice((0.2, 0.5, 0.8, 1.0))
        _, adj = neighbour_masks(range(n), [e for e in combinations(range(n), 2) if rng.random() < p])
        # through the clique number, whose level is empty
        deep += bool(_assert_lex_walk_lists_every_level(adj, flag_complex(range(n), adj, n).dim))
    assert deep >= 75, deep


def test_lex_walk_lists_every_level_on_torsion_grid_points():
    deep = 0
    for _, cc, _ in _torsion_grid_complexes():
        deep += bool(_assert_lex_walk_lists_every_level(cc.neighbours, cc.dim))
    assert deep >= 3, deep


def test_dump_matrices_matches_the_listing_oracle_on_random_flag_complexes():
    # against the oracle dump of the complex itself and of the tuple clique search's complex
    rng = Random(20261033)
    deep = 0
    for trial in range(150):
        n = rng.randrange(0, 11)
        p = rng.choice((0.2, 0.5, 0.8, 0.9))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        max_dim = rng.randrange(0, 5)
        cx = flag_complex(*neighbour_masks(range(n), edges), max_dim)
        want = dump_matrices_oracle(complex_from_simplices(flag_complex_oracle(range(n), edges, max_dim)))
        assert cx.dump_matrices() == dump_matrices_oracle(cx) == want, trial
        deep += cx.dim >= 3
    assert deep >= 20, deep


def test_dump_matrices_matches_the_listing_oracle_through_dimension_three():
    # no golden dump reaches dimension 3
    cc = build_complex(Config.make(2, 1, "sym"), 8).chain_complex(3)
    assert cc.counts == (28, 210, 420, 105)
    assert cc.dump_matrices() == dump_matrices_oracle(cc)


def _torsion_grid_complexes():
    """The complexes of the torsion benchmark's verify-nu runs, q=2 sym nmax 9 and triv nmax 8,
    built and reduced as verify-nu builds them: ((subgroup, n), complex, its homology or None
    when it is empty)."""
    for sub, nmax in (("sym", 9), ("triv", 8)):
        config = Config.make(2, 1, sub)
        for n in range(2, nmax + 1):
            through = max(connectivity_bound(config, n) + 1, 0)
            cc = build_complex(config, n).chain_complex(through + 1)
            yield (sub, n), cc, reduced_homology(cc, max(through, 1)) if cc.n_cells(0) else None


def test_lex_walks_list_the_levels_on_torsion_grid_points():
    for _, cc, _ in _torsion_grid_complexes():
        _assert_lex_walks_list_the_levels(cc)


def test_pi1_report_lists_no_level_on_torsion_grid_points():
    # the generators and the triangles are read off the neighbour masks: nothing is listed in
    # the complex's own labels, and the lazy walk goes over the edges and triangles only
    statuses = {}
    with pytest.MonkeyPatch.context() as mp:
        walked, _ = _listings(mp)
        for key, cc, res in _torsion_grid_complexes():
            if res is not None and res.betti[0] == 0 and cc.dim >= 1:
                statuses[key] = pi1_report(cc, res, 5000)["status"]
    assert set(walked) == {1, 2}, walked
    want = {}  # the pi1 column of the verify-nu goldens of those runs
    for sub, nmax in (("sym", 9), ("triv", 8)):
        lines = Path(OUTPUTS, f"verify-nu-q2-{sub}-nmax{nmax}.csv").read_text().splitlines()[2:]
        want.update(((sub, int(r[0])), r[5]) for r in (line.split(",") for line in lines) if r[5] != "n/a")
    assert statuses == want and len(want) == 9


def test_pi1_search_reads_976_triangles_at_triv_n9():
    # budget 5000 at q=2 triv n=9 reads the triangles on the tree edges and on the eliminated
    # generators' edges: 976 of 10,080, every one a 2-cell
    cx = build_complex(Config.make(2, 1, "triv"), 9).chain_complex(2)
    h1 = reduced_homology(cx, 1)
    searched = []
    search = homology._tietze_trivializes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_tietze_trivializes",
                   lambda ngens, relators, budget: searched.append(relators) or search(ngens, relators, budget))
        assert pi1_report(cx, h1, 5000)["status"] == "unknown"
    (triangles,) = searched
    assert len(triangles.read) == 976 and triangles.read <= set(level_oracle(cx, 2))
