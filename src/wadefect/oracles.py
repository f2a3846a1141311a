"""Independent brute-force oracles.

Everything here deliberately avoids the normal-form machinery it is used to
check: determinants come from fraction-free elimination, kernels from box
enumeration, quotient orders from coset enumeration, subgroup counts from
raw closure, and the Hermite form from row-by-row Euclid.  The selfcheck
command and the test suite both lean on these.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from .groups import CayleyGroup, Subgroup, subgroup_closure
from .linalg import IntMatrix, hermite_column_form

__all__ = [
    "det_bareiss",
    "hermite_reference",
    "gcd_of_k_minors",
    "diagonal_from_minor_gcds",
    "box_kernel_vectors",
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


def box_kernel_vectors(M: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """All nonzero kernel vectors with entries in [-bound, bound], up to sign.

    Only vectors whose first nonzero coordinate is positive are returned.
    """
    n = M.cols
    rows = [M.row(i) for i in range(M.rows)]
    out = []
    for cand in product(range(-bound, bound + 1), repeat=n):
        lead = next((c for c in cand if c), 0)
        if lead <= 0:
            continue
        for row in rows:
            if sum(r * c for r, c in zip(row, cand)):
                break
        else:
            out.append(cand)
    return out


def _reduce_mod(v: list[int], pivots: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    for r in sorted(pivots):
        col = pivots[r]
        q = v[r] // col[r]
        if q:
            for i in range(r, len(v)):
                v[i] -= q * col[i]
    return tuple(v)


def coset_count(num: IntMatrix, den_hnf: IntMatrix, limit: int = 100000) -> int:
    """Number of cosets of span(den_hnf) met by span(num), by breadth-first closure.

    `den_hnf` must already be in column Hermite form with full row support on
    its pivot rows for residues to be finite; raises if `limit` is hit.
    """
    pivots: dict[int, tuple[int, ...]] = {}
    for j in range(den_hnf.cols):
        col = den_hnf.column(j)
        r = next(i for i, e in enumerate(col) if e)
        pivots[r] = col
    zero = tuple([0] * num.rows)
    seen = {_reduce_mod(list(zero), pivots)}
    frontier = [next(iter(seen))]
    gens = [num.column(j) for j in range(num.cols)]
    while frontier:
        nxt = []
        for rep in frontier:
            for g in gens:
                for s in (1, -1):
                    cand = _reduce_mod([a + s * b for a, b in zip(rep, g)], pivots)
                    if cand not in seen:
                        if len(seen) >= limit:
                            raise RuntimeError("coset enumeration limit hit; quotient too large or infinite")
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return len(seen)


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


def quotient_element_orders(relations: IntMatrix, limit: int = 100000) -> list[int]:
    """Orders of all elements of Z^n / span(relations), when that quotient is finite.

    Brute force through coset enumeration; used to cross-check torsion
    invariants on small finite quotients.
    """
    n = relations.rows
    pivots: dict[int, tuple[int, ...]] = {}
    hnf = hermite_column_form(relations)
    for j in range(hnf.cols):
        col = hnf.column(j)
        r = next(i for i, e in enumerate(col) if e)
        pivots[r] = col
    if len(pivots) != n:
        raise RuntimeError("quotient is infinite")
    zero = tuple([0] * n)
    seen = {zero}
    frontier = [zero]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    while frontier:
        nxt = []
        for rep in frontier:
            for g in units:
                for s in (1, -1):
                    cand = _reduce_mod([a + s * b for a, b in zip(rep, g)], pivots)
                    if cand not in seen:
                        if len(seen) >= limit:
                            raise RuntimeError("coset enumeration limit hit")
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    orders = []
    for rep in seen:
        k = 1
        acc = rep
        while any(acc):
            acc = _reduce_mod([a + b for a, b in zip(acc, rep)], pivots)
            k += 1
        orders.append(k)
    return sorted(orders)
