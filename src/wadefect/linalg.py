"""Exact integer linear algebra.

Smith and Hermite normal forms, saturated kernels and preimages, finite
lattice quotients, and invariant factors of finitely presented abelian
groups.  Everything runs on Python's arbitrary-precision integers; there is
no overflow mode.

One column-major chain does every reduction: Hermite → split → Smith.
`_hnf` takes columns as lists and returns the pivot rows with the reduced
columns; :func:`hermite_column_form` wraps it, and :func:`preimage`
passes it the columns of the input stacked over [I 0] directly, whose
size reduction keeps entries small.  The split (`_split`,
:func:`split_unit_pivots` for a given matrix) reads the unit pivots off
those pivot rows: a unit-pivot row is zero in every other column, so that
row and its column are a zero summand of the quotient.  The block left
goes to one pivot rule, `_diagonalize`, to which each caller adds only
the transforms it reads: :func:`smith_normal_form` both U and V,
:func:`torsion_generators` V alone, and :func:`cokernel_invariants` and
a lattice quotient (:func:`finite_quotient`, the cokernel of one
preimage, whose canonical form is split as it comes) neither;
:func:`torsion_coordinates` reads U from :func:`smith_normal_form`.  A
solve back-substitutes on the Hermite basis of its lattice
(:class:`ColumnSolver`), so its solutions are coordinates in that basis;
a basis that is canonical already is adopted with no second reduction.
Every column reduction in the Hermite form and in back-substitution walks
only the support (the nonzero rows) of the column it subtracts; a pivot's
support is recomputed whenever it changes.  A product is two private
steps, which `@` runs together: the right factor's nonzero entries are
read once, row by row (`_prepared`), then applied to a left factor
(`_times_prepared`), so a caller with many left factors against one right
factor reads it once.  A membership test (`ColumnSolver.contains`) runs
the back-substitution of a solve but stops at the first column outside the
span and builds no solution.

Lattices and presentations are plain matrices: a lattice is the column span
of an integer matrix, and a finitely presented abelian group is Z^rows
modulo the column span of its relation matrix.  The canonical form of a
lattice is the column Hermite normal form produced by
:func:`hermite_column_form`: two matrices span the same lattice iff their
canonical forms are equal, entry for entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Sequence
from itertools import chain, compress
from math import prod
from operator import add, attrgetter, neg, sub

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "FinAbInvariants",
    "DimensionError",
    "ContainmentError",
    "QuotientNotFiniteError",
    "smith_normal_form",
    "hermite_column_form",
    "preimage",
    "split_unit_pivots",
    "cokernel_invariants",
    "torsion_generators",
    "torsion_coordinates",
    "finite_quotient",
    "ColumnSolver",
    "hstack",
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


class _Frozen:
    """Base of the package's immutable values.

    A subclass names two or more fields in `__slots__` and sets them in
    `__init__` by `object.__setattr__`; assigning or deleting an attribute
    raises AttributeError.  Equality, hashing and copies read the fields
    through one getter per class, `_fields`: a value equals only a value of
    exactly its class with equal fields and hashes its fields, and copy,
    deepcopy and pickle call its class on them (so `__init__` takes them
    positionally), so a copy equals its original wherever its fields do.
    `repr` names every field.  `CayleyGroup` opts out: groups compare and
    hash by identity.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class IntMatrix(_Frozen):
    """Immutable dense matrix over the integers, stored row-major.

    The public constructors coerce every entry with `int` and check the
    count.  `_trusted` and `_from_columns` skip both, for entries that are
    ints already and come in the right number: results computed here from
    other matrices (products, sums, stacks, normal forms, solves); in
    `modules` the stock builders, the left translations of a cover kernel
    basis, the orbit columns of the greedy scan, the cover's projection
    and the bar complex's matrices; and in `scenario_io` the action and
    relation rows of a document, once its own checks have turned every
    entry into an int and counted every row.
    """

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
    def _trusted(cls, rows: int, cols: int, entries: Iterable[int]) -> "IntMatrix":
        # rows * cols entries, all ints already: no coercion, no count check;
        # the slots are set through their own descriptors, the cheapest way
        # past the immutable __setattr__
        self = object.__new__(cls)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, tuple(entries))
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(n, n, (((1,) + (0,) * n) * n)[: n * n])  # a one, then n zeros, repeated

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

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return _times_prepared(self, _prepared(other))

    def times_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        return tuple(sum(r * v for r, v in zip(self.row(i), vec)) for i in range(self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix._trusted(self.rows, self.cols, map(add, self.entries, other.entries))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix._trusted(self.rows, self.cols, map(sub, self.entries, other.entries))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols, map(neg, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.to_rows()!r})" if self.rows else f"IntMatrix(0, {self.cols}, ())"


_set_rows, _set_cols, _set_entries = (vars(IntMatrix)[f].__set__ for f in IntMatrix.__slots__)


def _prepared(B: IntMatrix) -> tuple[int, list[list[tuple[int, int]]]]:
    # the right factor of a product, read once: its width and the nonzero
    # (column, entry) pairs of each of its rows, found by `compress` without
    # a Python loop over the zeros
    m, b = B.cols, B.entries
    cols = tuple(range(m))  # a tuple hands out its ints; a range makes each anew
    rows = (b[t * m : (t + 1) * m] for t in range(B.rows))
    return m, [[(j, row[j]) for j in compress(cols, row)] for row in rows]


def _times_prepared(A: IntMatrix, right: tuple[int, list[list[tuple[int, int]]]]) -> IntMatrix:
    # A @ B for `right` = _prepared(B), with A.cols == B.rows left to the caller
    m, sparse = right
    n, k, a = A.rows, A.cols, A.entries
    inner = tuple(range(k))
    out = [0] * (n * m)
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        base = i * m
        for t in compress(inner, arow):
            av = arow[t]
            for j, e in sparse[t]:
                out[base + j] += av * e
    return IntMatrix._trusted(n, m, out)


def hstack(mats: Sequence[IntMatrix], rows: int | None = None) -> IntMatrix:
    """Concatenate matrices left to right; `rows`, required when the list is empty, must match each."""
    mats = [m for m in mats]
    if not mats:
        if rows is None:
            raise DimensionError("rows is required to hstack nothing")
        return IntMatrix(rows, 0, ())
    height = mats[0].rows if rows is None else rows
    if any(m.rows != height for m in mats):
        raise DimensionError("hstack of matrices with different row counts")
    flat: list[int] = []
    for i in range(height):
        for m in mats:
            flat.extend(m.row(i))
    return IntMatrix._trusted(height, sum(m.cols for m in mats), flat)


def _from_columns(cols: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    # `from_columns` for int columns computed here, each of length `rows`
    return IntMatrix._trusted(rows, len(cols), chain.from_iterable(zip(*cols)))


class SmithDecomposition(_Frozen):
    """U @ A @ V = D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0."""

    __slots__ = ("U", "D", "V", "diagonal")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix, diagonal: tuple[int, ...]):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "diagonal", diagonal)


def _block_scan(
    W: list[list[int]], t: int, m: int, n: int, p: int
) -> tuple[list[int] | None, tuple[int, int] | None]:
    # one pass over the block of rows and columns t and beyond: the first
    # row with an entry that p does not divide, else (None, the (row, column)
    # of the least nonzero |entry|, first in row order on a tie, or None for
    # a zero block).  p = 1 finds the least entry alone; a unit ends the
    # scan, and is reached only when |p| = 1, as a larger p fails to divide it
    best, at = 0, None
    for i in range(t, m):
        r = W[i]
        for j in range(t, n):
            e = r[j]
            if e:
                if e % p:
                    return r, None
                e = abs(e)
                if e < best or not best:
                    if e == 1:
                        return None, (i, j)
                    best, at = e, (i, j)
    return None, at


def _diagonalize(W: list[list[int]], m: int, n: int) -> tuple[int, ...]:
    """Diagonalize the top-left m x n block of W in place; return its diagonal.

    Row operations act on whole rows of W and column operations on every
    row of W, so columns beyond n carry a row transform U and rows beyond m
    a column transform V, and a caller adds only those it reads.  Step t,
    on the trailing block of rows and columns t and beyond:

    1. its least nonzero entry becomes the pivot p, swapped to (t, t);
    2. floor-division multiples of row t and of column t are subtracted
       from the rest of column t and row t;
    3. if a remainder is left in column t or row t, step t repeats;
    4. if p does not divide some entry, that entry's row is added to row t
       and step t repeats;
    5. otherwise p is made positive and step t + 1 begins.

    |p| never grows, since p stays in the block, and it falls at least every
    second pass: a remainder is nonzero and smaller than |p|, and after the
    fold either a smaller entry exists or p is picked again at (t, t) (ties
    go to the first entry in row order) and leaves a remainder in row t.
    On leaving step t, p is alone in its row and column and divides the
    block, which every later operation keeps, so the chain d1 | d2 | ...
    holds.  Only the block steers the rule, so the diagonal and each
    transform are the same whichever transforms ride along.

    Each pass scans the block once, in `_block_scan`: the scan for step 4
    that finds no entry p fails to divide also finds the least entry of the
    next block, which is step t + 1's pivot.
    """
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
                    W[t] = list(map(neg, row))
                t += 1
                continue
            W[t] = list(map(add, row, bad))
        least = _block_scan(W, t, m, n, 1)[1]
    return tuple(W[i][i] for i in range(min(m, n)))


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form by one pivot rule on one working matrix.

    Returns U, D, V with U @ A @ V = D exactly and U, V unimodular; the
    diagonal of D is nonnegative and satisfies the divisibility chain
    d1 | d2 | ..., so it is uniquely determined by A.

    The working matrix is W = [[A, I_m], [I_n, 0]], its zero block not
    stored, diagonalized by `_diagonalize`: a row operation on the first m
    rows updates A and U together, and a column operation on the first n
    columns updates A and V together, so the top-left block is always
    U @ A @ V.
    """
    m, n = A.rows, A.cols
    # row i < m of W is row i of A and of U; row m + k is row k of V
    W = [list(A.row(i)) + [int(i == j) for j in range(m)] for i in range(m)]
    W += [[int(k == j) for j in range(n)] for k in range(n)]
    diagonal = _diagonalize(W, m, n)
    return SmithDecomposition(
        U=IntMatrix._trusted(m, m, chain.from_iterable(r[n:] for r in W[:m])),
        D=IntMatrix._trusted(m, n, chain.from_iterable(r[:n] for r in W[:m])),
        V=IntMatrix._trusted(n, n, chain.from_iterable(W[m:])),
        diagonal=diagonal,
    )


def _support(col: list[int], row: int, m: int) -> list[int]:
    return [i for i in range(row, m) if col[i]]


def _reduce_against_lower_pivots(
    col: list[int], pivots: dict[int, list[int]], support: dict[int, list[int]], lower: list[int]
) -> None:
    # keep stored entries small; without this, repeated xgcd merges blow up
    # coefficients exponentially on wide inputs
    for r in lower:
        p = pivots[r]
        q = col[r] // p[r]
        if q:
            for i in support[r]:
                col[i] -= q * p[i]


def _hnf_insert(
    v: list[int], pivots: dict[int, list[int]], rows: list[int], support: dict[int, list[int]], m: int
) -> None:
    # rows: the pivot rows, ascending
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
            _reduce_against_lower_pivots(v, pivots, support, rows[bisect_right(rows, row) :])
            pivots[row] = v
            insort(rows, row)
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
            _reduce_against_lower_pivots(c, pivots, support, rows[bisect_right(rows, row) :])
            support[row] = _support(c, row, m)
        row += 1


def _hnf(columns: Iterable[list[int]], m: int) -> tuple[list[int], list[list[int]]]:
    """(pivot rows, columns) of the canonical column Hermite form of the given columns.

    The columns are lists of length m, reduced in place and inserted one at
    a time; the pivot rows ascend and each returned column is the one whose
    pivot row stands at its position.  This is the one reduction under
    :func:`hermite_column_form`, :func:`preimage` and the invariants, which
    read its pivot rows instead of scanning for them.
    """
    pivots: dict[int, list[int]] = {}
    # support[r]: ascending rows i >= r where pivots[r] is nonzero.  It is
    # exact after every insertion.  The back-reduction below leaves it stale
    # but never reads it stale: step k reads support[r_k] and writes only
    # columns j < k, which no later step reads from.
    support: dict[int, list[int]] = {}
    rows: list[int] = []
    for v in columns:
        _hnf_insert(v, pivots, rows, support, m)
    cols = [pivots[r] for r in rows]
    for k, r in enumerate(rows):
        ck = cols[k]
        piv = ck[r]
        sk = support[r]
        for j in range(k):
            cj = cols[j]
            q = cj[r] // piv
            if q:
                for i in sk:
                    cj[i] -= q * ck[i]
    return rows, cols


def _columns_of(B: IntMatrix) -> Iterable[list[int]]:
    # B's columns as fresh lists, for `_hnf` to reduce in place
    return map(list, map(B.column, range(B.cols)))


def hermite_column_form(B: IntMatrix) -> IntMatrix:
    """Canonical column Hermite normal form of the lattice spanned by B's columns.

    Zero columns are dropped; pivot rows strictly increase left to right,
    pivots are positive, and within a pivot row every entry to the left of
    the pivot is reduced into [0, pivot).  The result is a basis, and two
    column spans are equal iff their forms are equal.

    Columns are inserted one at a time (`_hnf`).  Subtracting a multiple of
    a pivot column walks only that column's support, the rows where it is
    nonzero; a support is recomputed whenever its column changes, that is
    when the column becomes a pivot and after each xgcd merge into it.
    """
    return _from_columns(_hnf(_columns_of(B), B.rows)[1], B.rows)


def _preimage(A: IntMatrix, R: IntMatrix) -> tuple[list[int], list[list[int]]]:
    # :func:`preimage` as `_hnf` gives it: pivot rows and columns
    m, n = A.rows, A.cols
    if R.rows != m:
        raise DimensionError(f"preimage of a map into Z^{m} modulo a lattice in Z^{R.rows}")
    stack = chain(
        (list(A.column(j)) + [0] * j + [1] + [0] * (n - j - 1) for j in range(n)),
        (list(R.column(j)) + [0] * n for j in range(R.cols)),
    )
    rows, cols = _hnf(stack, m + n)
    k = bisect_left(rows, m)  # the first column with zero top
    return [r - m for r in rows[k:]], [col[m:] for col in cols[k:]]


def preimage(A: IntMatrix, R: IntMatrix) -> IntMatrix:
    """Basis of {x : A @ x in span(R)}, in canonical Hermite form.

    Column j of the stack [A R; I 0] is column j of [A R] over the unit
    vector e_j (zero for j >= A.cols), so the stack spans the pairs
    (A x + R z; x).  Those with zero top have A x = -R z.  Pivot rows
    increase left to right, so the Hermite columns with zero top come last,
    and their bottoms are a basis, in canonical Hermite form, of the whole
    preimage lattice, not a finite-index sublattice.  The stack's columns
    go straight to `_hnf`, and no matrix of it is built.
    """
    return _from_columns(_preimage(A, R)[1], A.cols)


class ColumnSolver:
    """Exact integral solving in the Hermite basis of span(A).

    `basis` is `hermite_column_form(A)`, and `solve(B)` returns X with
    basis @ X = B.  A basis that is canonical already, such as a
    :func:`preimage` result, is adopted as it is by `_canonical`, with no
    second Hermite form.  Each basis column is stored as its support, the
    nonzero (row, entry) pairs, the first of them its pivot:
    back-substitution takes x_j from the remainder at column j's pivot row
    and walks only the support.  `contains(B)` is `solve(B) is not None`
    without building X.
    """

    def __init__(self, A: IntMatrix):
        self._adopt(hermite_column_form(A))

    @classmethod
    def _canonical(cls, basis: IntMatrix) -> "ColumnSolver":
        # a solver on a basis already in canonical Hermite form
        self = cls.__new__(cls)
        self._adopt(basis)
        return self

    def _adopt(self, basis: IntMatrix) -> None:
        self.basis = basis
        self._supports = [[(i, e) for i, e in enumerate(c) if e] for c in basis.columns()]

    def _columns(self, B: IntMatrix):
        # B's columns as fresh lists, once the row counts match
        if B.rows != self.basis.rows:
            raise DimensionError(f"cannot solve {self.basis.rows}x{self.basis.cols} against {B.rows} rows")
        return _columns_of(B)

    def _back_substitute(self, r: list[int]) -> list[int]:
        # reduce r in place against the basis and return the multiples taken;
        # r is left zero exactly when it lies in the span
        x = []
        for support in self._supports:
            p, piv = support[0]
            # later basis columns are zero at row p, so a remainder there
            # survives to the caller's check
            q = r[p] // piv
            if q:
                for i, e in support:
                    r[i] -= q * e
            x.append(q)
        return x

    def solve(self, B: IntMatrix) -> IntMatrix | None:
        """Return X with basis @ X = B, or None if some column of B is outside the span."""
        xcols = []
        for r in self._columns(B):
            xcols.append(self._back_substitute(r))
            if any(r):
                return None
        return _from_columns(xcols, self.basis.cols)

    def contains(self, B: IntMatrix) -> bool:
        """Whether every column of B lies in the span; stops at the first that does not, and builds no X."""
        for r in self._columns(B):
            self._back_substitute(r)
            if any(r):
                return False
        return True


class FinAbInvariants(_Frozen):
    """Isomorphism class of a finitely generated abelian group.

    `factors` is the invariant-factor chain d1 | d2 | ... with every entry
    at least 2; `free_rank` counts the Z summands.  Two groups are
    isomorphic iff these fields coincide.
    """

    __slots__ = ("factors", "free_rank")

    def __init__(self, factors: Iterable[int] = (), free_rank: int = 0):
        factors = tuple(int(d) for d in factors)
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be at least 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {factors}")
        free_rank = int(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "free_rank", free_rank)

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


def _pivot_rows(cols: Sequence[Sequence[int]], m: int) -> list[int]:
    # each column's first nonzero row, in a column Hermite form with m rows
    rows, start = [], 0
    for col in cols:
        # pivot rows strictly increase, so each search starts below the last
        start = next(i for i in range(start, m) if col[i])
        rows.append(start)
        start += 1
    return rows


def _split(
    rows: Sequence[int], cols: Sequence[Sequence[int]], m: int
) -> tuple[list[Sequence[int]], list[int], dict[int, Sequence[int]]]:
    # (non-unit-pivot columns, kept rows, unit) of :func:`split_unit_pivots`,
    # from the pivot rows of an m-row column Hermite form
    unit = {r: c for r, c in zip(rows, cols) if c[r] == 1}
    return [c for r, c in zip(rows, cols) if r not in unit], [i for i in range(m) if i not in unit], unit


def split_unit_pivots(H: IntMatrix) -> tuple[IntMatrix, list[int], dict[int, tuple[int, ...]]]:
    """Split the unit pivots off a column Hermite form: return (block, rows, unit).

    In the canonical form H of :func:`hermite_column_form`, a row whose
    pivot is 1 is zero in every other column: columns to its right start
    below it, and columns to its left are reduced into [0, 1) there.  So
    each unit-pivot column, with its row, splits Z^rows / span(H) as a zero
    summand.  `rows` lists the other rows in order and `block` is the
    non-unit-pivot columns restricted to them; including Z^len(rows) into
    Z^H.rows on `rows` induces Z^len(rows) / span(block) ≅ Z^H.rows / span(H).
    `unit` maps each unit-pivot row r to its column c, and gives the map
    back: a kept row is its own class, and e_r that of e_r - c, which is
    -c on the kept rows and zero on the unit-pivot ones.  The package's own
    callers take the pivot rows from `_hnf` instead of scanning H for them.
    """
    cols = H.columns()
    rest, rows, unit = _split(_pivot_rows(cols, H.rows), cols, H.rows)
    return _from_columns([[c[i] for i in rows] for c in rest], len(rows)), rows, unit


def _split_relations(relations: IntMatrix) -> tuple[list[Sequence[int]], list[int], dict[int, Sequence[int]]]:
    # `_split` of the relations' Hermite form, its pivot rows read from `_hnf`
    return _split(*_hnf(_columns_of(relations), relations.rows), relations.rows)


def _cokernel(rest: Sequence[Sequence[int]], rows: list[int]) -> FinAbInvariants:
    # Z^rows / span(rest) for the split of a Hermite form: the Smith diagonal
    # of the block, with no transform built
    diagonal = _diagonalize([[c[i] for c in rest] for i in rows], len(rows), len(rest))
    return FinAbInvariants(tuple(d for d in diagonal if d > 1), len(rows) - len(rest))


def cokernel_invariants(relations: IntMatrix) -> FinAbInvariants:
    """Invariant factors and free rank of Z^rows / (column span of relations).

    The relations are compressed to a Hermite basis and its unit pivots are
    split off (:func:`split_unit_pivots`); only the remaining block, whose
    rank is its width, is diagonalized, and only its diagonal is read.
    """
    rest, rows, _ = _split_relations(relations)
    return _cokernel(rest, rows)


def torsion_generators(relations: IntMatrix) -> IntMatrix:
    """A matrix whose columns generate exactly the torsion subgroup of Z^rows / relations.

    The Hermite form of the relations is split at its unit pivots
    (:func:`split_unit_pivots`), and the torsion of Z^rows' / block maps
    isomorphically onto the torsion of Z^rows / relations by padding with
    zeros on the split-off rows.  With U @ block @ V = D the Smith form of
    the block, block @ V = U^-1 @ D.  The columns of U^-1 at diagonal
    entries >= 2 generate the block's torsion, one per torsion invariant
    factor, and column i of block @ V is d_i times column i of U^-1.  So
    only V is built.  The block's columns are the non-unit-pivot columns,
    which are zero on the split-off rows, so those columns combine by V to
    the padded generators directly.
    """
    rest, rows, _ = _split_relations(relations)
    k, r, m = len(rows), len(rest), relations.rows
    W = [[c[i] for c in rest] for i in rows] + [[int(a == b) for b in range(r)] for a in range(r)]
    gens = []
    for i, d in enumerate(_diagonalize(W, k, r)):
        if d > 1:
            col = [0] * m
            for c, v in zip(rest, W[k:]):
                if q := v[i]:
                    col = [a + q * b for a, b in zip(col, c)]
            gens.append([e // d for e in col])
    return _from_columns(gens, m)


def torsion_coordinates(relations: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """(Phi, moduli) such that x -> (Phi x mod d_i) maps the torsion onto ⊕ Z/d_i.

    The torsion is that of Z^rows / relations, its invariant factors the
    moduli d_i, and Phi inverts :func:`torsion_generators`.  With U the
    Smith U behind both, Phi is the rows of U at d_i >= 2 times the classes
    of :func:`split_unit_pivots`, each row reduced mod its d_i.
    """
    rest, rows, unit = _split_relations(relations)
    snf = smith_normal_form(_from_columns([[c[i] for i in rows] for c in rest], len(rows)))
    phi, moduli = [], []
    for u, d in zip(map(snf.U.row, range(len(rows))), snf.diagonal):
        if d > 1:
            cls = dict(zip(rows, u)) | {r: -sum(a * c[k] for a, k in zip(u, rows)) for r, c in unit.items()}
            phi.append([cls[j] % d for j in range(relations.rows)])
            moduli.append(d)
    return IntMatrix._trusted(len(phi), relations.rows, chain.from_iterable(phi)), tuple(moduli)


def finite_quotient(num: IntMatrix, den: IntMatrix) -> FinAbInvariants:
    """Invariant factors of (span(num) + span(den)) / span(den).

    By the second isomorphism theorem this is span(num) / (span(num) ∩
    span(den)), and span(num) / span(den) when den lies in num.  The map
    x -> num @ x + span(den) sends Z^cols onto it with kernel
    preimage(num, den), so the quotient is the cokernel of that one
    preimage; neither matrix is reduced first, and the preimage's Hermite
    form is split as `_hnf` returns it, not reduced again.  It must be finite: a
    positive free rank raises QuotientNotFiniteError.
    """
    if num.rows != den.rows:
        raise DimensionError(f"quotient of spans in Z^{num.rows} and Z^{den.rows}")
    rest, rows, _ = _split(*_preimage(num, den), num.cols)
    inv = _cokernel(rest, rows)
    if inv.free_rank:
        raise QuotientNotFiniteError(
            f"quotient has free rank {inv.free_rank}; lattice ranks differ"
        )
    return inv
