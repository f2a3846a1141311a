"""Independent brute-force oracles.

Everything here deliberately avoids the normal-form machinery it is used to
check: determinants come from fraction-free elimination, kernels and
preimages from box enumeration, subgroup lists from raw closure, and the
Hermite form from row-by-row Euclid; box search reduces against that
Hermite form.  Of `linalg` only the matrix type is used.  The selfcheck
command and the test suite both lean on these; the oracles that only
tests read live in `tests/counting_oracles.py`.
"""

from __future__ import annotations

from itertools import product

from .groups import CayleyGroup, Subgroup, subgroup_closure
from .linalg import IntMatrix

__all__ = [
    "det_bareiss",
    "hermite_reference",
    "box_preimage_vectors",
    "all_subgroups_2gen",
]


def det_bareiss(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_reference(B: IntMatrix) -> IntMatrix:
    """Column Hermite normal form by the textbook method, for cross-checking.

    Row by row, Euclid runs across the columns that have no pivot yet: the
    one with the smallest nonzero entry in the row divides the others, until
    at most one is nonzero there.  That one becomes the pivot, made
    positive.  Finally each entry to the left of a pivot is reduced into
    [0, pivot).  No entry is kept small on the way; inputs must be small.
    """
    m = B.rows
    free = [list(c) for c in B.columns()]
    pivots: list[tuple[int, list[int]]] = []
    for r in range(m):
        live = [c for c in free if c[r]]
        while len(live) > 1:
            p = min(live, key=lambda c: abs(c[r]))
            for c in live:
                if c is not p:
                    q = c[r] // p[r]
                    c[:] = [a - q * b for a, b in zip(c, p)]
            live = [c for c in live if c[r]]
        if live:
            p = live[0]
            if p[r] < 0:
                p[:] = [-a for a in p]
            free = [c for c in free if c is not p]
            pivots.append((r, p))
    for k, (r, p) in enumerate(pivots):
        for _, c in pivots[:k]:
            q = c[r] // p[r]
            c[:] = [a - q * b for a, b in zip(c, p)]
    return IntMatrix.from_columns([c for _, c in pivots], rows=m)


def _pivots(hnf: IntMatrix) -> dict[int, tuple[int, ...]]:
    # pivot row -> column of a matrix in column Hermite form
    return {next(i for i, e in enumerate(col) if e): col for col in hnf.columns()}


def box_preimage_vectors(M: IntMatrix, R: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """All nonzero x with entries in [-bound, bound] and M x in span(R), up to sign.

    Only vectors whose first nonzero coordinate is positive are returned.
    M x lies in span(R) iff it reduces to zero against the pivots of the
    textbook Hermite form of R; with no columns in R these are the kernel
    vectors of M.  The reduction runs row by row and stops at the first
    nonzero remainder: a pivot column is zero above its pivot row, so row i
    of the remainder depends only on the pivots at rows up to i.
    """
    pivots = _pivots(hermite_reference(R))
    rows = [M.row(i) for i in range(M.rows)]
    out = []
    for cand in product(range(-bound, bound + 1), repeat=M.cols):
        lead = next((c for c in cand if c), 0)
        if lead <= 0:
            continue
        used: list[tuple[int, tuple[int, ...]]] = []
        for i, row in enumerate(rows):
            v = sum(r * c for r, c in zip(row, cand)) - sum(q * col[i] for q, col in used)
            col = pivots.get(i)
            if col is not None:
                q = v // col[i]
                v -= q * col[i]
                used.append((q, col))
            if v:
                break
        else:
            out.append(cand)
    return out


def all_subgroups_2gen(G: CayleyGroup) -> list[Subgroup]:
    """Every subgroup generated by at most two elements, deduplicated.

    For groups of order <= 12 this is the full subgroup lattice.
    """
    found: dict[tuple[int, ...], Subgroup] = {}
    triv = subgroup_closure(G, ())
    found[triv.elements] = triv
    for a in range(G.order):
        H = subgroup_closure(G, (a,))
        found.setdefault(H.elements, H)
        for b in range(a + 1, G.order):
            H2 = subgroup_closure(G, (a, b))
            found.setdefault(H2.elements, H2)
    return [found[k] for k in sorted(found)]
