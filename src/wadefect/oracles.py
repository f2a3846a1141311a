"""Independent brute-force oracles.

Everything here deliberately avoids the normal-form machinery it is used to
check: determinants come from fraction-free elimination, kernels and
preimages from box enumeration, quotient orders from coset enumeration,
subgroup counts from raw closure, and the Hermite form from row-by-row
Euclid; box search and coset enumeration reduce against that Hermite form.
Of `linalg` only the matrix type is used.  The selfcheck command and the
test suite both lean on these.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from .groups import CayleyGroup, Subgroup, subgroup_closure
from .linalg import IntMatrix

__all__ = [
    "det_bareiss",
    "hermite_reference",
    "gcd_of_k_minors",
    "diagonal_from_minor_gcds",
    "box_preimage_vectors",
    "coset_count",
    "all_subgroups_2gen",
    "cyclic_subgroup_count",
    "quotient_element_orders",
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


def gcd_of_k_minors(M: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when all vanish).  Exponential; small inputs only."""
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            sub = IntMatrix.from_rows([[M[i, j] for j in cols] for i in rows], cols=k)
            g = gcd(g, det_bareiss(sub))
    return g


def diagonal_from_minor_gcds(M: IntMatrix) -> tuple[int, ...]:
    """Smith diagonal via d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    size = min(M.rows, M.cols)
    out = []
    prev = 1
    for k in range(1, size + 1):
        g = gcd_of_k_minors(M, k)
        if g == 0:
            out.extend([0] * (size - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _pivots(hnf: IntMatrix) -> dict[int, tuple[int, ...]]:
    # pivot row -> column of a matrix in column Hermite form
    return {next(i for i, e in enumerate(col) if e): col for col in hnf.columns()}


def _reduce_mod(v: list[int], pivots: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    for r in sorted(pivots):
        col = pivots[r]
        q = v[r] // col[r]
        if q:
            for i in range(r, len(v)):
                v[i] -= q * col[i]
    return tuple(v)


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


def _cosets(num: IntMatrix, pivots: dict[int, tuple[int, ...]]) -> set[tuple[int, ...]]:
    # the cosets met by span(num), each as its residue against the pivots of
    # a Hermite form of the lattice, by breadth-first closure
    gens = num.columns()
    seen = {(0,) * num.rows}
    frontier = list(seen)
    while frontier:
        nxt = []
        for rep in frontier:
            for g in gens:
                for s in (1, -1):
                    cand = _reduce_mod([a + s * b for a, b in zip(rep, g)], pivots)
                    if cand not in seen:
                        if len(seen) >= 100000:
                            raise RuntimeError("coset enumeration limit hit; quotient too large or infinite")
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return seen


def coset_count(num: IntMatrix, den: IntMatrix) -> int:
    """Number of cosets of span(den) met by span(num), by breadth-first closure.

    Raises past 100,000 cosets, as it does when that number is infinite.
    """
    return len(_cosets(num, _pivots(hermite_reference(den))))


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


def cyclic_subgroup_count(G: CayleyGroup) -> int:
    """Count distinct cyclic subgroups by raw closure, no dedup tricks."""
    seen = set()
    for g in range(G.order):
        seen.add(subgroup_closure(G, (g,)).elements)
    return len(seen)


def quotient_element_orders(relations: IntMatrix) -> list[int]:
    """Orders of all elements of Z^n / span(relations), when that quotient is finite.

    Brute force through coset enumeration; used to cross-check torsion
    invariants on small finite quotients.
    """
    n = relations.rows
    pivots = _pivots(hermite_reference(relations))
    if len(pivots) != n:
        raise RuntimeError("quotient is infinite")
    orders = []
    for rep in _cosets(IntMatrix.identity(n), pivots):
        k = 1
        acc = rep
        while any(acc):
            acc = _reduce_mod([a + b for a, b in zip(acc, rep)], pivots)
            k += 1
        orders.append(k)
    return sorted(orders)
