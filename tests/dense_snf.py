"""Dense Smith normal form with certified unimodular transforms.

A test oracle for the sparse elimination in ``sphero.homology``: it works on
a dense row-major matrix, shares no code with the sparse path, and checks
P @ matrix @ Q against the diagonal of factors by re-multiplication.
"""

from sphero.homology import HomologyError


def smith_normal_form(matrix: list[list[int]], with_transforms: bool = True):
    """Invariant factors of an integer matrix.

    Returns (factors, rank) or, with transforms, (factors, rank, P, Q) where
    P @ matrix @ Q is the diagonal of factors; the transforms are certified by
    re-multiplication before returning.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [list(row) for row in matrix]
    P = [[int(i == j) for j in range(m)] for i in range(m)] if with_transforms else None
    Q = [[int(i == j) for j in range(n)] for i in range(n)] if with_transforms else None

    def row_op(i, j, c):  # row i -= c * row j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        if P is not None:
            P[i] = [x - c * y for x, y in zip(P[i], P[j])]

    def col_op(i, j, c):  # col i -= c * col j
        for row in a:
            row[i] -= c * row[j]
        if Q is not None:
            for row in Q:
                row[i] -= c * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if P is not None:
            P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if Q is not None:
            for row in Q:
                row[i], row[j] = row[j], row[i]

    factors: list[int] = []
    t = 0
    while t < min(m, n):
        # find a nonzero entry of minimal absolute value in the active block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    qv = a[i][t] // a[t][t]
                    row_op(i, t, qv)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    qv = a[t][j] // a[t][t]
                    col_op(j, t, qv)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility into the remaining block
        piv = a[t][t]
        fixup = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % piv:
                    row_op(t, i, -1)  # add row i to row t, then restart pivot work
                    fixup = True
                    break
            if fixup:
                break
        if fixup:
            continue
        if piv < 0:
            a[t] = [-x for x in a[t]]
            if P is not None:
                P[t] = [-x for x in P[t]]
        factors.append(a[t][t])
        t += 1

    rank = len(factors)
    if with_transforms:
        _certify_snf(matrix, factors, P, Q)
        return factors, rank, P, Q
    return factors, rank


def _certify_snf(matrix, factors, P, Q):
    m, n = len(P), len(Q)
    prod = [[sum(P[i][k] * matrix[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    prod = [[sum(prod[i][k] * Q[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            want = factors[i] if i == j and i < len(factors) else 0
            if prod[i][j] != want:
                raise HomologyError("Smith normal form certificate failed")
