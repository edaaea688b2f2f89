"""Oracles for ``sphero.homology``, kept from the code they replaced.

``boundary_columns_oracle`` is the column builder that chain complexes used
when they stored their boundary matrices.  ``reduced_homology_oracle`` is the
homology-direction loop: it hands every boundary matrix, in its own column
order and without clearing, to ``sparse_invariant_factors``: no spanning forest
for the first boundary, no transpose and no cleared columns.
"""

from sphero.homology import ChainComplex, Column, HomologyResult, sparse_invariant_factors


def boundary_columns_oracle(cx: ChainComplex, d: int) -> list[Column]:
    """Columns of the boundary map from dimension d, empty beyond range."""
    if not 1 <= d <= cx.dim:
        return []
    index = {s: i for i, s in enumerate(cx.basis[d - 1])}
    cols = []
    for s in cx.basis[d]:
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
