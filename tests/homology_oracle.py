"""The homology-direction loop that ``reduced_homology`` replaced, kept as its oracle.

It hands every boundary matrix, in its own column order and without clearing,
to ``sparse_invariant_factors``: no spanning forest for the first boundary, no
transpose and no cleared columns.
"""

from sphero.homology import ChainComplex, HomologyResult, sparse_invariant_factors


def reduced_homology_oracle(cx: ChainComplex, through_dim: int) -> HomologyResult:
    """Reduced homology in degrees 0..through_dim from the invariant factors of each boundary."""
    n0 = cx.n_cells(0)
    rank: dict[int, int] = {0: 1 if n0 else 0}  # augmentation
    factors: dict[int, list[int]] = {}
    for d in range(1, through_dim + 2):
        cols = cx.boundary_columns(d)
        factors[d], rank[d] = sparse_invariant_factors(cols) if cols else ([], 0)
    betti = tuple(cx.n_cells(d) - rank[d] - rank[d + 1] for d in range(through_dim + 1))
    torsion = tuple(tuple(x for x in factors[d + 1] if x > 1) for d in range(through_dim + 1))
    return HomologyResult(betti, torsion)
