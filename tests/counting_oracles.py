"""Brute-force oracles that only the tests read.

Like `wadefect.oracles`, they avoid the normal-form machinery they check:
Smith diagonals come from gcds of minors, quotient orders from coset
enumeration against the textbook Hermite form, and cyclic subgroup counts
from raw closure.  Of `linalg` only the matrix type is used.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from wadefect.groups import CayleyGroup, subgroup_closure
from wadefect.linalg import IntMatrix
from wadefect.oracles import _pivots, det_bareiss, hermite_reference


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


def _reduce_mod(v: list[int], pivots: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    for r in sorted(pivots):
        col = pivots[r]
        q = v[r] // col[r]
        if q:
            for i in range(r, len(v)):
                v[i] -= q * col[i]
    return tuple(v)


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
