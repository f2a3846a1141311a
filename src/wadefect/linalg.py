"""Exact integer linear algebra.

Smith and Hermite normal forms, saturated kernels, lattice sums and
intersections, and invariant factors of finitely presented abelian groups.
Everything runs on Python's arbitrary-precision integers; there is no
overflow mode.  Kernels, solves and intersections come from the column
Hermite form of a stacked matrix, whose size reduction keeps entries small;
the Smith form is used only for invariant factors and torsion generators.
Every column reduction in the Hermite form and in back-substitution walks
only the support (the nonzero rows) of the column it subtracts; a pivot's
support is recomputed whenever the pivot column changes.

Lattices are column spans of integer matrices.  The canonical form is the
column Hermite normal form produced by :func:`hermite_column_form`: two
matrices span the same lattice iff their canonical forms are equal, entry
for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "AbelianPresentation",
    "FinAbInvariants",
    "SubgroupGens",
    "DimensionError",
    "ContainmentError",
    "QuotientNotFiniteError",
    "smith_normal_form",
    "smith_diagonal",
    "hermite_column_form",
    "kernel_basis",
    "cokernel_invariants",
    "torsion_generators",
    "lattice_sum",
    "lattice_intersection",
    "finite_quotient",
    "membership",
    "ColumnSolver",
    "hstack",
    "vstack",
    "xgcd",
]


class DimensionError(ValueError):
    """Matrix shapes do not match the operation."""


class ContainmentError(ValueError):
    """A lattice that must contain another one does not."""


class QuotientNotFiniteError(ValueError):
    """A lattice quotient that must be finite has positive free rank."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """Immutable dense matrix over the integers, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows = int(rows)
        cols = int(cols)
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape {rows}x{cols}")
        data = tuple(map(int, entries))
        if len(data) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows_data = list(rows_data)
        if not rows_data:
            if cols is None:
                raise DimensionError("cols is required for a matrix with no rows")
            return cls(0, cols, ())
        width = len(rows_data[0]) if cols is None else cols
        flat: list[int] = []
        for r in rows_data:
            if len(r) != width:
                raise DimensionError("ragged row data")
            flat.extend(r)
        return cls(len(rows_data), width, flat)

    @classmethod
    def from_columns(cls, cols_data: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols_data = list(cols_data)
        if not cols_data:
            if rows is None:
                raise DimensionError("rows is required for a matrix with no columns")
            return cls(rows, 0, ())
        height = len(cols_data[0]) if rows is None else rows
        for c in cols_data:
            if len(c) != height:
                raise DimensionError("ragged column data")
        return cls(height, len(cols_data), chain.from_iterable(zip(*cols_data)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, (int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_columns([self.row(i) for i in range(self.rows)], rows=self.cols)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * m
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        out[base + j] += av * brow[j]
        return IntMatrix(n, m, out)

    def times_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        return tuple(sum(r * v for r, v in zip(self.row(i), vec)) for i in range(self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix(self.rows, self.cols, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (-a for a in self.entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.to_rows()!r})" if self.rows else f"IntMatrix(0, {self.cols}, ())"


def hstack(mats: Sequence[IntMatrix], rows: int | None = None) -> IntMatrix:
    """Concatenate matrices left to right; `rows` is required when the list is empty."""
    mats = [m for m in mats]
    if not mats:
        if rows is None:
            raise DimensionError("rows is required to hstack nothing")
        return IntMatrix(rows, 0, ())
    height = mats[0].rows
    if any(m.rows != height for m in mats):
        raise DimensionError("hstack of matrices with different row counts")
    flat: list[int] = []
    for i in range(height):
        for m in mats:
            flat.extend(m.row(i))
    return IntMatrix(height, sum(m.cols for m in mats), flat)


def vstack(mats: Sequence[IntMatrix], cols: int | None = None) -> IntMatrix:
    """Concatenate matrices top to bottom; `cols` is required when the list is empty."""
    mats = [m for m in mats]
    if not mats:
        if cols is None:
            raise DimensionError("cols is required to vstack nothing")
        return IntMatrix(0, cols, ())
    width = mats[0].cols
    if any(m.cols != width for m in mats):
        raise DimensionError("vstack of matrices with different column counts")
    flat: list[int] = []
    for m in mats:
        flat.extend(m.entries)
    return IntMatrix(sum(m.rows for m in mats), width, flat)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]


def _smith_eliminate(A: IntMatrix, track: bool):
    m, n = A.rows, A.cols
    D = A.to_rows()
    U = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
    V = [[int(i == j) for j in range(n)] for i in range(n)] if track else None

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        if track:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        if track:
            for r in V:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        if track:
            U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in D:
            r[dst] += q * r[src]
        if track:
            for r in V:
                r[dst] += q * r[src]

    size = min(m, n)
    t = 0
    while t < size:
        # bring the smallest nonzero entry of the trailing block to (t, t);
        # a unit entry is already optimal, so stop scanning at one
        best = None
        pi = pj = -1
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                e = row[j]
                if e and (best is None or abs(e) < best):
                    best = abs(e)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)

        while True:
            for i in range(t + 1, m):
                while D[i][t]:
                    q = D[i][t] // D[t][t]
                    if q:
                        add_row(i, t, -q)
                    if D[i][t]:
                        swap_rows(i, t)
            swapped = False
            for j in range(t + 1, n):
                while D[t][j]:
                    q = D[t][j] // D[t][t]
                    if q:
                        add_col(j, t, -q)
                    if D[t][j]:
                        swap_cols(j, t)
                        swapped = True
            if swapped:
                # column t picked up entries from the swapped-in column
                continue
            d = D[t][t]
            dirty_row = -1
            for i in range(t + 1, m):
                row = D[i]
                for j in range(t + 1, n):
                    if row[j] % d:
                        dirty_row = i
                        break
                if dirty_row >= 0:
                    break
            if dirty_row < 0:
                break
            # fold the offending row into the pivot row and re-eliminate
            add_row(t, dirty_row, 1)
        if D[t][t] < 0:
            D[t] = [-e for e in D[t]]
            if track:
                U[t] = [-e for e in U[t]]
        t += 1

    diagonal = tuple(D[i][i] for i in range(size))
    return D, U, V, diagonal


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form by least-absolute-value pivoting.

    Returns U, D, V with U @ A @ V = D exactly; the diagonal of D is
    nonnegative and satisfies the divisibility chain d1 | d2 | ..., so it is
    uniquely determined by A.
    """
    D, U, V, diagonal = _smith_eliminate(A, track=True)
    return SmithDecomposition(
        U=IntMatrix.from_rows(U, cols=A.rows),
        D=IntMatrix.from_rows(D, cols=A.cols),
        V=IntMatrix.from_rows(V, cols=A.cols),
        diagonal=diagonal,
    )


def smith_diagonal(A: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal alone, skipping the transform bookkeeping."""
    return _smith_eliminate(A, track=False)[3]


def _support(col: list[int], row: int, m: int) -> list[int]:
    return [i for i in range(row, m) if col[i]]


def _reduce_against_lower_pivots(
    col: list[int], pivots: dict[int, list[int]], support: dict[int, list[int]], row: int
) -> None:
    # keep stored entries small; without this, repeated xgcd merges blow up
    # coefficients exponentially on wide inputs
    for r in sorted(k for k in pivots if k > row):
        p = pivots[r]
        q = col[r] // p[r]
        if q:
            for i in support[r]:
                col[i] -= q * p[i]


def _hnf_insert(v: list[int], pivots: dict[int, list[int]], support: dict[int, list[int]], m: int) -> None:
    row = 0
    while row < m:
        if not v[row]:
            row += 1
            continue
        c = pivots.get(row)
        if c is None:
            if v[row] < 0:
                for i in range(row, m):
                    v[i] = -v[i]
            _reduce_against_lower_pivots(v, pivots, support, row)
            pivots[row] = v
            support[row] = _support(v, row, m)
            return
        a = c[row]
        q = v[row] // a
        if q:
            for i in support[row]:
                v[i] -= q * c[i]
        if v[row]:
            # the merge rewrites both columns, so it runs over every row
            g, x, y = xgcd(a, v[row])
            aq, bq = a // g, v[row] // g
            for i in range(row, m):
                ci, vi = c[i], v[i]
                c[i] = x * ci + y * vi
                v[i] = aq * vi - bq * ci
            _reduce_against_lower_pivots(c, pivots, support, row)
            support[row] = _support(c, row, m)
        row += 1


def hermite_column_form(B: IntMatrix) -> IntMatrix:
    """Canonical column Hermite normal form of the lattice spanned by B's columns.

    Zero columns are dropped; pivot rows strictly increase left to right,
    pivots are positive, and within a pivot row every entry to the left of
    the pivot is reduced into [0, pivot).  The result is a basis, and two
    column spans are equal iff their forms are equal.

    Columns are inserted one at a time.  Subtracting a multiple of a pivot
    column walks only that column's support, the rows where it is nonzero;
    a support is recomputed whenever its column changes, that is when the
    column becomes a pivot and after each xgcd merge into it.
    """
    m = B.rows
    pivots: dict[int, list[int]] = {}
    # support[r]: ascending rows i >= r where pivots[r] is nonzero.  It is
    # exact after every insertion.  The back-reduction below leaves it stale
    # but never reads it stale: step k reads support[r_k] and writes only
    # columns j < k, which no later step reads from.
    support: dict[int, list[int]] = {}
    for j in range(B.cols):
        _hnf_insert(list(B.column(j)), pivots, support, m)
    rows_sorted = sorted(pivots)
    cols = [pivots[r] for r in rows_sorted]
    for k, r in enumerate(rows_sorted):
        ck = cols[k]
        piv = ck[r]
        sk = support[r]
        for j in range(k):
            cj = cols[j]
            q = cj[r] // piv
            if q:
                for i in sk:
                    cj[i] -= q * ck[i]
    return IntMatrix.from_columns(cols, rows=m)


def _hermite_split(top: IntMatrix, bottom: IntMatrix) -> tuple[list[tuple[int, ...]], IntMatrix]:
    """Hermite form of [top; bottom], split at the first column with zero top.

    Pivot rows increase left to right, so the columns before the split have
    nonzero tops, which form an echelon basis of span(top).  The bottoms of
    the columns after it are a basis, in canonical Hermite form, of the
    bottoms of the vectors in the span whose top is zero.
    """
    m = top.rows
    cols = hermite_column_form(vstack([top, bottom])).columns()
    k = next((k for k, c in enumerate(cols) if not any(c[:m])), len(cols))
    return cols[:k], IntMatrix.from_columns([c[m:] for c in cols[k:]], rows=bottom.rows)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the full integer kernel {x : A @ x = 0}, in canonical Hermite form.

    The basis spans the saturated kernel lattice, not a finite-index
    sublattice: the columns of A stacked over the identity span every pair
    (A x; x), and the kernel is the set of bottoms x with zero top.
    """
    return _hermite_split(A, IntMatrix.identity(A.cols))[1]


class ColumnSolver:
    """Exact integral solving A @ x = b for a fixed A.

    Back-substitutes against an echelon basis of span(A) whose columns carry
    their preimages, from the Hermite form of A stacked over the identity.
    Each basis column is stored as its support, the nonzero entries split at
    row m of [A; I]: a step updates the remainder from the top part and the
    solution from the bottom part, and skips every zero entry.
    """

    def __init__(self, A: IntMatrix):
        self.A = A
        m = A.rows
        echelon = _hermite_split(A, IntMatrix.identity(A.cols))[0]
        # (pivot row, pivot, nonzero (row, entry) of the top, nonzero
        # (row - m, entry) of the bottom) in increasing pivot order
        self._echelon = []
        for c in echelon:
            top = [(i, c[i]) for i in range(m) if c[i]]
            bottom = [(i - m, c[i]) for i in range(m, len(c)) if c[i]]
            self._echelon.append((top[0][0], top[0][1], top, bottom))

    def solve(self, B: IntMatrix) -> IntMatrix | None:
        """Return X with A @ X = B, or None if some column has no integer solution."""
        A = self.A
        if B.rows != A.rows:
            raise DimensionError(f"cannot solve {A.rows}x{A.cols} against {B.rows} rows")
        n = A.cols
        xcols: list[list[int]] = []
        for j in range(B.cols):
            r = list(B.column(j))
            x = [0] * n
            for p, piv, top, bottom in self._echelon:
                # later basis columns are zero at row p, so a remainder there
                # survives to the final check
                q = r[p] // piv
                if q:
                    for i, e in top:
                        r[i] -= q * e
                    for i, e in bottom:
                        x[i] += q * e
            if any(r):
                return None
            xcols.append(x)
        return IntMatrix.from_columns(xcols, rows=n)

    def contains(self, B: IntMatrix) -> bool:
        return self.solve(B) is not None


def membership(v: Sequence[int], B: IntMatrix) -> bool:
    """Whether the vector v lies in the column span of B, decided exactly."""
    v = tuple(int(e) for e in v)
    if len(v) != B.rows:
        raise DimensionError(f"vector of length {len(v)} against {B.rows} rows")
    return ColumnSolver(B).contains(IntMatrix.from_columns([v], rows=B.rows))


@dataclass(frozen=True)
class AbelianPresentation:
    """The abelian group Z^ambient_rank modulo the column span of `relations`."""

    ambient_rank: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.ambient_rank:
            raise DimensionError(
                f"relations have {self.relations.rows} rows, ambient rank is {self.ambient_rank}"
            )


@dataclass(frozen=True)
class FinAbInvariants:
    """Isomorphism class of a finitely generated abelian group.

    `factors` is the invariant-factor chain d1 | d2 | ... with every entry
    at least 2; `free_rank` counts the Z summands.  Two groups are
    isomorphic iff these fields coincide.
    """

    factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        if any(d < 2 for d in self.factors):
            raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {self.factors}")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    @property
    def order(self) -> int:
        """Group order; only meaningful when free_rank is 0."""
        return prod(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors and not self.free_rank

    def pretty(self) -> str:
        parts = [f"Z/{d}" for d in self.factors] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class SubgroupGens:
    """Generators of a subgroup of an ambient finitely presented abelian group.

    The vectors live in the ambient Z^n; the subgroup they generate is well
    defined modulo the ambient relation lattice.
    """

    ambient: AbelianPresentation
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = tuple(tuple(int(e) for e in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.ambient.ambient_rank:
                raise DimensionError(
                    f"generator of length {len(g)} in ambient rank {self.ambient.ambient_rank}"
                )


def _invariants_from_diagonal(diagonal: Sequence[int], ambient_rank: int) -> FinAbInvariants:
    nonzero = [d for d in diagonal if d]
    factors = tuple(d for d in nonzero if d > 1)
    return FinAbInvariants(factors=factors, free_rank=ambient_rank - len(nonzero))


def cokernel_invariants(P: AbelianPresentation) -> FinAbInvariants:
    """Invariant factors and free rank of Z^n / (column span of relations).

    The relations are compressed to a Hermite basis first; only the Smith
    diagonal of the compressed matrix is computed.
    """
    reduced = hermite_column_form(P.relations)
    return _invariants_from_diagonal(smith_diagonal(reduced), P.ambient_rank)


def torsion_generators(P: AbelianPresentation) -> SubgroupGens:
    """Vectors generating exactly the torsion subgroup of Z^n / relations.

    With H the Hermite form of the relations and U @ H @ V = D its Smith
    form, H @ V = U^-1 @ D.  The columns of U^-1 at diagonal entries >= 2
    generate the torsion, one per torsion invariant factor, and column i of
    H @ V is d_i times column i of U^-1.
    """
    H = hermite_column_form(P.relations)
    snf = smith_normal_form(H)
    gens = tuple(
        tuple(e // d for e in H.times_vector(snf.V.column(i))) for i, d in enumerate(snf.diagonal) if d > 1
    )
    return SubgroupGens(ambient=P, generators=gens)


def lattice_sum(B1: IntMatrix, B2: IntMatrix) -> IntMatrix:
    """Canonical basis of span(B1) + span(B2)."""
    if B1.rows != B2.rows:
        raise DimensionError(f"lattice sum of spans in Z^{B1.rows} and Z^{B2.rows}")
    return hermite_column_form(hstack([B1, B2]))


def lattice_intersection(B1: IntMatrix, B2: IntMatrix) -> IntMatrix:
    """Canonical basis of span(B1) ∩ span(B2), by Zassenhaus' method.

    The columns of [B1 B2; B1 0] span the pairs (B1 x + B2 y; B1 x); those
    with zero top have B1 x = -B2 y, so the bottoms of the Hermite columns
    with zero top are a basis of the intersection, in canonical form.
    """
    if B1.rows != B2.rows:
        raise DimensionError(f"lattice intersection of spans in Z^{B1.rows} and Z^{B2.rows}")
    return _hermite_split(hstack([B1, B2]), hstack([B1, IntMatrix.zeros(B1.rows, B2.cols)]))[1]


def finite_quotient(num: IntMatrix, den: IntMatrix) -> FinAbInvariants:
    """Invariant factors of span(num) / span(den).

    Requires span(den) ⊆ span(num) and equal ranks, so the quotient is a
    finite group; the result always has free rank 0.
    """
    if num.rows != den.rows:
        raise DimensionError(f"quotient of spans in Z^{num.rows} and Z^{den.rows}")
    basis = hermite_column_form(num)
    X = ColumnSolver(basis).solve(hermite_column_form(den))
    if X is None:
        raise ContainmentError("denominator lattice is not contained in the numerator lattice")
    inv = cokernel_invariants(AbelianPresentation(ambient_rank=basis.cols, relations=X))
    if inv.free_rank:
        raise QuotientNotFiniteError(
            f"quotient has free rank {inv.free_rank}; lattice ranks differ"
        )
    return inv
