"""The column-major reduction chain against a copy of its earlier compositions.

The chain runs Hermite → split → Smith on column lists: `_hnf` returns the
pivot rows with the columns, the split reads them, and `_diagonalize`
builds only the transforms a caller reads.  The reference below composes
the same insertion and scan steps the way the package did before: a
Hermite form built as a matrix and rescanned for its pivots, preimages
from a row-major stack, and one Smith routine building U and V for every
caller.  Both must give equal results entry for entry.
"""

import random
from itertools import chain

import pytest

from wadefect.linalg import (
    FinAbInvariants,
    IntMatrix,
    QuotientNotFiniteError,
    SmithDecomposition,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    hstack,
    preimage,
    smith_normal_form,
    torsion_coordinates,
    torsion_generators,
)
from wadefect.linalg import _block_scan, _hnf_insert


def ref_hermite(B):
    m = B.rows
    pivots, support, rows = {}, {}, []
    for j in range(B.cols):
        _hnf_insert(list(B.column(j)), pivots, rows, support, m)
    cols = [pivots[r] for r in rows]
    for k, r in enumerate(rows):
        ck, piv, sk = cols[k], cols[k][r], support[r]
        for j in range(k):
            q = cols[j][r] // piv
            if q:
                for i in sk:
                    cols[j][i] -= q * ck[i]
    return IntMatrix.from_columns(cols, rows=m)


def ref_preimage(A, R):
    S = hstack([A, R])
    m, c, n = S.rows, S.cols, A.cols
    flat = list(S.entries)
    for i in range(n):
        flat += [0] * i + [1] + [0] * (c - i - 1)
    cols = ref_hermite(IntMatrix(m + n, c, flat)).columns()
    return IntMatrix.from_columns([col[m:] for col in cols if not any(col[:m])], rows=n)


def ref_smith(A):
    m, n = A.rows, A.cols
    W = [list(A.row(i)) + [int(i == j) for j in range(m)] for i in range(m)]
    W += [[int(k == j) for j in range(n)] for k in range(n)]
    t = 0
    least = _block_scan(W, 0, m, n, 1)[1]
    while least is not None:
        i, j = least
        W[t], W[i] = W[i], W[t]
        if j != t:
            for r in W:
                r[t], r[j] = r[j], r[t]
        row, p = W[t], W[t][t]
        for i in range(t + 1, m):
            if q := W[i][t] // p:
                W[i] = [a - q * b for a, b in zip(W[i], row)]
        for j in range(t + 1, n):
            if q := row[j] // p:
                for r in W:
                    r[j] -= q * r[t]
        if not any(W[i][t] for i in range(t + 1, m)) and not any(row[t + 1 : n]):
            bad, least = _block_scan(W, t + 1, m, n, p)
            if bad is None:
                if p < 0:
                    W[t] = [-a for a in row]
                t += 1
                continue
            W[t] = [a + b for a, b in zip(row, bad)]
        least = _block_scan(W, t, m, n, 1)[1]
    return SmithDecomposition(
        IntMatrix(m, m, chain.from_iterable(r[n:] for r in W[:m])),
        IntMatrix(m, n, chain.from_iterable(r[:n] for r in W[:m])),
        IntMatrix(n, n, chain.from_iterable(W[m:])),
        tuple(W[i][i] for i in range(min(m, n))),
    )


def ref_split(H):
    unit, rest, start = {}, [], 0
    for col in H.columns():
        start = next(i for i in range(start, H.rows) if col[i])
        if col[start] == 1:
            unit[start] = col
        else:
            rest.append(col)
        start += 1
    rows = [i for i in range(H.rows) if i not in unit]
    return IntMatrix.from_columns([[col[i] for i in rows] for col in rest], rows=len(rows)), rows, unit


def ref_split_smith(relations):
    block, rows, unit = ref_split(ref_hermite(relations))
    return block, rows, unit, ref_smith(block)


def ref_cokernel(relations):
    block, rows, _, snf = ref_split_smith(relations)
    return FinAbInvariants(tuple(d for d in snf.diagonal if d > 1), len(rows) - block.cols)


def ref_torsion_generators(relations):
    block, rows, _, snf = ref_split_smith(relations)
    BV = block @ snf.V
    gens = []
    for i, d in enumerate(snf.diagonal):
        if d > 1:
            col = dict(zip(rows, BV.column(i)))
            gens.append([col.get(r, 0) // d for r in range(relations.rows)])
    return IntMatrix.from_columns(gens, rows=relations.rows)


def ref_torsion_coordinates(relations):
    _, rows, unit, snf = ref_split_smith(relations)
    phi, moduli = [], []
    for u, d in zip(map(snf.U.row, range(len(rows))), snf.diagonal):
        if d > 1:
            cls = dict(zip(rows, u)) | {r: -sum(a * c[k] for a, k in zip(u, rows)) for r, c in unit.items()}
            phi.append([cls[j] % d for j in range(relations.rows)])
            moduli.append(d)
    return IntMatrix.from_rows(phi, cols=relations.rows), tuple(moduli)


def random_case(rng, lo, hi):
    """A matrix of lo..hi rows and columns: dense, sparse, low-rank or scaled."""
    m, n = rng.randint(lo, hi), rng.randint(lo, hi)
    kind = rng.randrange(4)
    if kind == 0:
        entries = [rng.randint(-3, 3) for _ in range(m * n)]
    elif kind == 1:
        entries = [rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(m * n)]
    elif kind == 2:
        k = rng.randint(0, min(m, n))
        B = IntMatrix(m, k, (rng.randint(-2, 2) for _ in range(m * k)))
        C = IntMatrix(k, n, (rng.randint(-2, 2) for _ in range(k * n)))
        entries = list((B @ C).entries)
    else:
        t = rng.choice((2, 3, 4, 6))
        entries = [t * rng.randint(-2, 2) if rng.random() < 0.6 else rng.randint(-1, 1) for _ in range(m * n)]
    return IntMatrix(m, n, entries)


def check_against_reference(rng, A, counts):
    assert hermite_column_form(A) == ref_hermite(A), A
    assert smith_normal_form(A) == ref_smith(A), A
    inv = cokernel_invariants(A)
    assert inv == ref_cokernel(A), A
    assert torsion_generators(A) == ref_torsion_generators(A), A
    assert torsion_coordinates(A) == ref_torsion_coordinates(A), A
    k = rng.randint(0, A.cols + 1)
    R = IntMatrix(A.rows, k, (rng.randint(-3, 3) for _ in range(A.rows * k)))
    basis = preimage(A, R)
    assert basis == ref_preimage(A, R), (A, R)
    # finite_quotient splits the preimage's Hermite form without reducing it again
    expected = ref_cokernel(ref_preimage(A, R))
    if expected.free_rank:
        with pytest.raises(QuotientNotFiniteError):
            finite_quotient(A, R)
    else:
        assert finite_quotient(A, R) == expected, (A, R)
    counts["torsion"] += bool(inv.factors)
    counts["free"] += inv.free_rank > 0
    counts["finite_quotient"] += not expected.free_rank and not expected.is_trivial()


@pytest.mark.parametrize("count, lo, hi, seed", [(3000, 0, 6, 71), (300, 4, 22, 72)], ids=["small", "large"])
def test_chain_matches_the_earlier_compositions(count, lo, hi, seed):
    rng = random.Random(seed)
    counts = dict(torsion=0, free=0, finite_quotient=0)
    for _ in range(count):
        check_against_reference(rng, random_case(rng, lo, hi), counts)
    # each branch is reached often: torsion, free rank, a finite nontrivial quotient
    assert min(counts.values()) >= count // 20, counts
