import random
from math import isqrt, prod

import pytest

from counting_oracles import coset_count, diagonal_from_minor_gcds, quotient_element_orders
from wadefect.linalg import (
    ColumnSolver,
    DimensionError,
    FinAbInvariants,
    IntMatrix,
    QuotientNotFiniteError,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    hstack,
    preimage,
    smith_normal_form,
    split_unit_pivots,
    torsion_coordinates,
    torsion_generators,
    xgcd,
)
from wadefect.linalg import _prepared, _times_prepared
from wadefect.oracles import box_preimage_vectors, det_bareiss, hermite_reference
from wadefect.zoo import group_zoo, random_module, random_unimodular


def cols(*vecs, rows=None):
    return IntMatrix.from_columns(list(vecs), rows=rows)


def kernel(A):
    # the full integer kernel: the preimage of the zero lattice
    return preimage(A, IntMatrix(A.rows, 0, ()))


def lattice_sum(B1, B2):
    """Canonical basis of span(B1) + span(B2): one Hermite form of the two side by side."""
    return hermite_column_form(hstack([B1, B2]))


def membership(v, B):
    """Whether the vector v lies in the column span of B."""
    return ColumnSolver(B).contains(IntMatrix.from_columns([v], rows=B.rows))


def zeros(rows, cols_):
    return IntMatrix(rows, cols_, (0,) * (rows * cols_))


def is_zero(m):
    return not any(m.entries)


def transpose(m):
    return IntMatrix.from_columns([m.row(i) for i in range(m.rows)], rows=m.cols)


def random_matrix(rng, max_dim=6, bound=9):
    r, c = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix(r, c, (rng.randint(-bound, bound) for _ in range(r * c)))


def max_bits(m):
    return max((abs(e).bit_length() for e in m.entries), default=0)


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_hstack_rows_must_match_the_inputs(self):
        assert hstack([], rows=3) == IntMatrix(3, 0, ())
        assert hstack([IntMatrix.identity(2)], rows=2) == IntMatrix.identity(2)
        with pytest.raises(DimensionError):
            hstack([IntMatrix.identity(2)], rows=3)

    def test_empty_matrices_are_legal(self):
        z = IntMatrix(0, 3, ())
        assert z.rows == 0 and z.cols == 3
        assert (z @ IntMatrix.identity(3)).cols == 3
        assert IntMatrix(3, 0, ()) @ IntMatrix(0, 2, ()) == zeros(3, 2)

    def test_immutability(self):
        m = IntMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_trusted_matrices_are_immutable_too(self):
        # _trusted sets its slots through their descriptors, past __setattr__,
        # which must still refuse every assignment and deletion afterwards
        for m in (IntMatrix._trusted(2, 2, (1, 2, 3, 4)), IntMatrix.identity(3), hermite_column_form(cols((2, 4)))):
            before = (m.rows, m.cols, m.entries)
            for field in ("rows", "cols", "entries", "other"):
                with pytest.raises(AttributeError):
                    setattr(m, field, 1)
                with pytest.raises(AttributeError):
                    delattr(m, field)
            assert (m.rows, m.cols, m.entries) == before
        assert IntMatrix._trusted(1, 2, iter([5, 6])) == IntMatrix(1, 2, (5, 6))

    def test_matmul_and_vector(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        assert a.times_vector((1, 1)) == (3, 7)

    def test_public_constructor_coerces_and_checks_the_count(self):
        m = IntMatrix(1, 2, (True, False))
        assert m.entries == (1, 0)
        assert all(type(e) is int for e in m.entries)
        with pytest.raises(DimensionError):
            IntMatrix(2, 1, (1, 2, 3))

    def test_product_matches_a_triple_loop(self):
        # zero rows and columns, an inner dimension of 0, negative entries,
        # non-square factors, and sparse as well as dense right factors
        def reference(a, b):
            return [
                [sum(a[i, t] * b[t, j] for t in range(a.cols)) for j in range(b.cols)]
                for i in range(a.rows)
            ]

        def draw(rng, r, c):
            density = rng.choice((0.0, 0.2, 1.0))
            return IntMatrix(r, c, (rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(r * c)))

        rng = random.Random(311)
        for _ in range(300):
            n, k, m = (rng.randint(0, 5) for _ in range(3))
            a, b = draw(rng, n, k), draw(rng, k, m)
            product = a @ b
            assert (product.rows, product.cols) == (n, m)
            assert product.to_rows() == reference(a, b)
        # `@` prepares its right factor and applies it; one prepared factor
        # serves every left factor, of any height, 0 x k included, and a
        # k x 0 factor gives empty rows
        big, past_64_bits = 2**64, 0
        shapes = [(3, 0), (0, 3), (0, 0)] + [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(60)]
        for k, m in shapes:
            b = draw(rng, k, m)
            if rng.random() < 0.5:
                b = IntMatrix(k, m, (e * (big + rng.randint(0, 9)) for e in b.entries))
            right = _prepared(b)
            for n in (0, 1, rng.randint(2, 6)):
                a = draw(rng, n, k)
                if rng.random() < 0.5:
                    a = IntMatrix(n, k, (e * big for e in a.entries))
                product = _times_prepared(a, right)
                assert (product.rows, product.cols) == (n, m)
                assert product.to_rows() == reference(a, b)
                assert product == a @ b
                past_64_bits += any(abs(e) > big for e in product.entries)
        assert past_64_bits

    def test_computed_entries_are_ints(self):
        rng = random.Random(313)
        a = IntMatrix(3, 4, (rng.randint(-5, 5) for _ in range(12)))
        b = IntMatrix(4, 2, (rng.randint(-5, 5) for _ in range(8)))
        snf = smith_normal_form(a)
        results = [
            a @ b,
            a + a,
            a - a,
            -a,
            hstack([a, a]),
            IntMatrix.identity(3),
            hermite_column_form(a),
            ColumnSolver(a).solve(a @ IntMatrix.identity(4)),
            kernel(a),
            snf.U,
            snf.D,
            snf.V,
        ]
        for r in results:
            assert len(r.entries) == r.rows * r.cols
            assert all(type(e) is int for e in r.entries)

    def test_transpose_round_trip(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert transpose(a).to_rows() == [[1, 4], [2, 5], [3, 6]]
        assert transpose(transpose(a)) == a


class TestXgcd:
    @pytest.mark.parametrize("a,b", [(0, 0), (12, 18), (-12, 18), (7, -3), (0, -5)])
    def test_bezout(self, a, b):
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g


class TestSmith:
    def test_worked_example(self):
        # gcd-of-minors oracle: d1 = gcd(entries) = 2, d1*d2 = |det| = 8
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (2, 4)
        assert snf.diagonal == diagonal_from_minor_gcds(a)
        assert snf.U @ a @ snf.V == snf.D

    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.diagonal == (1, 1, 1)

    def test_zero_matrix(self):
        snf = smith_normal_form(zeros(2, 3))
        assert snf.diagonal == (0, 0)

    def test_empty_shapes(self):
        for shape in ((0, 0), (0, 4), (4, 0)):
            snf = smith_normal_form(zeros(*shape))
            assert snf.diagonal == ()
            assert snf.U @ zeros(*shape) @ snf.V == snf.D

    def test_postconditions_randomized(self):
        rng = random.Random(101)
        cases = [random_matrix(rng) for _ in range(120)]
        for _ in range(60):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            density = rng.uniform(0.1, 0.5)
            cases.append(IntMatrix(r, c, (rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(r * c))))
        for _ in range(60):
            # rank below min(r, c): a product through k < min(r, c) columns
            r, c = rng.randint(2, 8), rng.randint(2, 8)
            k = rng.randint(1, min(r, c) - 1)
            left = IntMatrix(r, k, (rng.randint(-4, 4) for _ in range(r * k)))
            cases.append(left @ IntMatrix(k, c, (rng.randint(-4, 4) for _ in range(k * c))))
        for a in cases:
            snf = smith_normal_form(a)
            assert snf.U @ a @ snf.V == snf.D
            assert all(snf.D[i, j] == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
            assert abs(det_bareiss(snf.U)) == 1
            assert abs(det_bareiss(snf.V)) == 1
            d = snf.diagonal
            assert all(e >= 0 for e in d)
            for x, y in zip(d, d[1:]):
                assert (y % x == 0) if x else (y == 0)

    def test_diagonal_matches_minor_gcds(self):
        rng = random.Random(55)
        for k in range(200):
            a = random_matrix(rng, max_dim=3 if k < 40 else 4, bound=6)
            assert smith_normal_form(a).diagonal == diagonal_from_minor_gcds(a)

    def test_diagonal_matches_minor_gcds_on_nearly_unit_triangles(self):
        # the shape finite_quotient hands over: upper triangular and mostly
        # unit on the diagonal, so most pivots are units, with a few
        # non-unit entries that still need the divisibility fold
        rng = random.Random(56)
        folded = 0
        for _ in range(60):
            size = rng.randint(2, 6)
            diag = [rng.choice((1, -1)) for _ in range(size)]
            for i in rng.sample(range(size), rng.randint(1, 2)):
                diag[i] = rng.choice((2, 3, 4, 6, -2, -3))
            a = IntMatrix.from_rows(
                [
                    [diag[i] if i == j else rng.randint(-5, 5) if j > i and rng.random() < 0.5 else 0 for j in range(size)]
                    for i in range(size)
                ]
            )
            snf = smith_normal_form(a)
            assert snf.diagonal == diagonal_from_minor_gcds(a)
            assert snf.U @ a @ snf.V == snf.D
            folded += snf.diagonal[-1] not in {abs(d) for d in diag}
        assert folded

    def test_deterministic(self):
        a = IntMatrix.from_rows([[3, 1, -2], [0, 4, 1]])
        assert smith_normal_form(a) == smith_normal_form(a)

    def test_one_scan_per_pass_keeps_every_pivot(self):
        # the pivot rule with a fresh scan of the block for the least entry
        # on every pass and a separate scan for a row that p does not
        # divide; the routine scans the block once per pass, and must pick
        # the same pivots, so the same U, D and V
        def two_scans(A):
            m, n = A.rows, A.cols
            W = [list(A.row(i)) + [int(i == j) for j in range(m)] for i in range(m)]
            W += [[int(k == j) for j in range(n)] for k in range(n)]
            t = 0
            while t < min(m, n):
                entries = [(abs(e), i, j) for i in range(t, m) for j in range(t, n) if (e := W[i][j])]
                if not entries:
                    break
                _, i, j = min(entries)
                W[t], W[i] = W[i], W[t]
                for r in W:
                    r[t], r[j] = r[j], r[t]
                row, p = W[t], W[t][t]
                for i in range(t + 1, m):
                    q = W[i][t] // p
                    W[i] = [a - q * b for a, b in zip(W[i], row)]
                for j in range(t + 1, n):
                    q = row[j] // p
                    for r in W:
                        r[j] -= q * r[t]
                if any(W[i][t] for i in range(t + 1, m)) or any(row[t + 1 : n]):
                    continue
                bad = [r for r in W[t + 1 : m] if any(e % p for e in r[t + 1 : n])]
                if bad:
                    W[t] = [a + b for a, b in zip(row, bad[0])]
                    continue
                if p < 0:
                    W[t] = [-a for a in row]
                t += 1
            return [r[n:] for r in W[:m]], [r[:n] for r in W[:m]], W[m:]

        rng = random.Random(107)
        for _ in range(400):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            density = rng.choice((0.3, 0.7, 1.0))
            a = IntMatrix(r, c, (rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(r * c)))
            snf = smith_normal_form(a)
            assert (snf.U.to_rows(), snf.D.to_rows(), snf.V.to_rows()) == two_scans(a)


class TestKernel:
    def test_row_vector(self):
        assert kernel(IntMatrix.from_rows([[1, 1]])).columns() == [(1, -1)]

    def test_identity_has_no_kernel(self):
        assert kernel(IntMatrix.identity(3)).cols == 0

    def test_primitive_kernel(self):
        # brute force over a small box confirms (2, -1) is primitive
        a = IntMatrix.from_rows([[2, 4]])
        basis = kernel(a)
        assert basis.columns() == [(2, -1)]
        assert box_preimage_vectors(a, IntMatrix(1, 0, ()), 4) == [(2, -1), (4, -2)]

    def test_saturation_randomized(self):
        rng = random.Random(7)
        for _ in range(60)[:60]:
            r, c = rng.randint(1, 3), rng.randint(1, 4)
            a = IntMatrix(r, c, (rng.randint(-5, 5) for _ in range(r * c)))
            basis = kernel(a)
            assert is_zero(a @ basis)
            found = box_preimage_vectors(a, IntMatrix(r, 0, ()), 3)
            if basis.cols == 0:
                assert not found
            elif found:
                assert ColumnSolver(basis).contains(cols(*found, rows=c))


def random_relations(rng, rows):
    # k columns spanning a rank of at most j, so some are dependent or zero
    j, k = rng.randint(0, 2), rng.randint(0, 3)
    B = IntMatrix(rows, j, (rng.randint(-4, 4) for _ in range(rows * j)))
    return B @ IntMatrix(j, k, (rng.randint(-2, 2) for _ in range(j * k)))


class TestPreimage:
    def test_examples(self):
        # 2x in span(4) iff x is even; with no relations the preimage is the kernel
        assert preimage(IntMatrix.from_rows([[2]]), cols((4,), rows=1)).columns() == [(2,)]
        assert preimage(IntMatrix.from_rows([[1, 1]]), IntMatrix(1, 0, ())).columns() == [(1, -1)]
        assert preimage(IntMatrix(2, 0, ()), cols((1, 0), rows=2)) == IntMatrix(0, 0, ())

    def test_against_box_and_kernel_route_randomized(self):
        rng = random.Random(41)
        nonkernel = 0
        for _ in range(80):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            A = IntMatrix(m, n, (rng.randint(-5, 5) for _ in range(m * n)))
            R = random_relations(rng, m)
            P = preimage(A, R)
            assert ColumnSolver(R).contains(A @ P)
            found = box_preimage_vectors(A, R, 3)
            if found:
                assert ColumnSolver(P).contains(cols(*found, rows=n))
            # the route it replaces: the top n rows of ker [A -R], made canonical
            K = kernel(hstack([A, -R]))
            assert P == hermite_column_form(IntMatrix.from_rows([K.row(i) for i in range(n)], cols=K.cols))
            nonkernel += P != kernel(A)
        # most pairs must exercise R, not only the kernel case
        assert nonkernel >= 20


class TestEntryGrowth:
    # h is the bit length of the product of A's row norms, Hadamard's bound
    # on the minors of A; kernel and solution entries stay within it
    @pytest.mark.parametrize("rows,cols_", [(40, 45), (60, 65)])
    def test_kernel_and_solve_stay_within_hadamard(self, rows, cols_):
        rng = random.Random(rows)
        a = IntMatrix(rows, cols_, (rng.randint(-9, 9) for _ in range(rows * cols_)))
        h = isqrt(prod(sum(e * e for e in a.row(i)) for i in range(rows))).bit_length()
        basis = kernel(a)
        assert basis.cols == cols_ - rows
        assert is_zero(a @ basis)
        assert max_bits(basis) <= h
        b = a @ IntMatrix(cols_, 3, (rng.randint(-9, 9) for _ in range(cols_ * 3)))
        solver = ColumnSolver(a)
        sol = solver.solve(b)
        assert solver.basis @ sol == b
        assert max_bits(sol) <= h + max_bits(b) + cols_.bit_length()

    @pytest.mark.parametrize("shape", ["sparse-30x40", "dense-30x30"])
    def test_smith_transforms_stay_small(self, shape):
        # the inputs need a few hundred (sparse) to a few thousand (dense)
        # bits in U and V; 10,000 bits catches a routine whose transforms blow up
        rng = random.Random(2)
        if shape == "sparse-30x40":
            a = IntMatrix(30, 40, (rng.randint(-5, 5) if rng.random() < 0.2 else 0 for _ in range(1200)))
        else:
            a = IntMatrix(30, 30, (rng.randint(-9, 9) for _ in range(900)))
        snf = smith_normal_form(a)
        assert snf.U @ a @ snf.V == snf.D
        assert abs(det_bareiss(snf.U)) == 1
        assert abs(det_bareiss(snf.V)) == 1
        assert max(max_bits(snf.U), max_bits(snf.V)) < 10_000


def bar_d2(M):
    """Boundary C2 -> C1 of the inhomogeneous bar complex of M over its whole group."""
    G, n = M.group, M.n
    mats = M.element_matrices()
    out = []
    for a in range(G.order):
        inv = mats[G.inverses[a]]
        for b in range(G.order):
            for i in range(n):
                col = [0] * (n * G.order)
                for r in range(n):
                    col[b * n + r] += inv[r, i]
                col[G.table[a][b] * n + i] -= 1
                col[a * n + i] += 1
                out.append(col)
    return IntMatrix.from_columns(out, rows=n * G.order)


def reference_cases(rng):
    """Sparse and dense matrices with dependent columns, merge triggers and bar boundaries."""
    for _ in range(80):
        m = rng.randint(1, 12)
        density = rng.uniform(0.15, 1.0)
        drawn = [
            [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(m)]
            for _ in range(rng.randint(1, 15))
        ]
        # integer combinations of drawn columns, so many columns are dependent
        target = rng.randint(len(drawn), 30)
        while len(drawn) < target:
            a, b = rng.choice(drawn), rng.choice(drawn)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            drawn.append([x * e + y * f for e, f in zip(a, b)])
        rng.shuffle(drawn)
        yield IntMatrix.from_columns(drawn, rows=m)
    for _ in range(40):
        # columns sharing a leading row with coprime non-unit entries, then a
        # third one there: the pivot is rewritten by an xgcd merge and must be
        # subtracted afterwards with its new support
        m = rng.randint(2, 10)
        r = rng.randrange(m - 1)
        drawn = []
        for lead in (2, 3, rng.choice((5, 7, 4))):
            tail = [rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(m - r - 1)]
            drawn.append([0] * r + [lead * rng.choice((1, -1))] + tail)
        drawn += [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, 4))]
        yield IntMatrix.from_columns(drawn, rows=m)
    for G in group_zoo():
        if G.order <= 6:
            yield bar_d2(random_module(rng, G, max_rank=3))


class TestHermite:
    def test_canonical_under_column_shuffles(self):
        rng = random.Random(3)
        for _ in range(30):
            m = random_matrix(rng, max_dim=5, bound=5)
            shuffled = list(m.columns())
            rng.shuffle(shuffled)
            doubled = shuffled + [tuple(2 * e for e in c) for c in shuffled]
            assert hermite_column_form(m) == hermite_column_form(cols(*doubled, rows=m.rows))

    def test_pivot_convention(self):
        h = hermite_column_form(cols((1, 1), (1, -1), rows=2))
        assert h.columns() == [(1, 1), (0, 2)]

    def test_zero_lattice(self):
        assert hermite_column_form(zeros(3, 2)).cols == 0

    def test_matches_textbook_reference(self):
        rng = random.Random(29)
        for A in reference_cases(rng):
            ref = hermite_reference(A)
            assert hermite_column_form(A) == ref
            K = kernel(A)
            assert is_zero(A @ K)
            assert K.cols == A.cols - ref.cols
            assert hermite_reference(K) == K
            solver = ColumnSolver(A)
            assert solver.basis == ref
            Y = IntMatrix(A.cols, 1, [rng.randint(-3, 3) for _ in range(A.cols)])
            X = solver.solve(A @ Y)
            assert X is not None and ref @ X == A @ Y
            b = IntMatrix(A.rows, 1, [rng.randint(-5, 5) for _ in range(A.rows)])
            in_span = hermite_reference(hstack([A, b])) == ref
            assert (solver.solve(b) is not None) == in_span


class TestLatticeOps:
    def test_sum_diagonal(self):
        s = lattice_sum(cols((2, 0), rows=2), cols((0, 2), rows=2))
        assert s.columns() == [(2, 0), (0, 2)]

    def test_sum_with_empty(self):
        b = cols((3, 6), rows=2)
        assert lattice_sum(b, IntMatrix(2, 0, ())) == hermite_column_form(b)

    def test_sum_index_two(self):
        # span{(1,1)} + span{(1,-1)} has index 2 in Z^2 and contains (2,0)
        s = lattice_sum(cols((1, 1), rows=2), cols((1, -1), rows=2))
        assert membership((2, 0), s)
        assert not membership((1, 0), s)
        assert coset_count(IntMatrix.identity(2), s) == 2

    def test_sum_monotone_and_commutative(self):
        rng = random.Random(11)
        for _ in range(25):
            b1 = random_matrix(rng, max_dim=4, bound=4)
            b2 = IntMatrix(b1.rows, 2, (rng.randint(-4, 4) for _ in range(b1.rows * 2)))
            s = lattice_sum(b1, b2)
            assert s == lattice_sum(b2, b1)
            assert ColumnSolver(s).contains(b1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lattice_sum(IntMatrix.identity(2), IntMatrix.identity(3))
        with pytest.raises(DimensionError):
            preimage(IntMatrix.identity(2), IntMatrix.identity(3))


class TestMembershipSolve:
    def test_examples(self):
        assert membership((2, 2), cols((1, 1), rows=2))
        assert not membership((1, 0), cols((0, 1), rows=2))
        assert not membership((3, 3), cols((2, 0), (0, 2), rows=2))

    def test_solve_round_trip(self):
        rng = random.Random(17)
        for _ in range(30):
            a = random_matrix(rng, max_dim=4, bound=4)
            x = IntMatrix(a.cols, 2, (rng.randint(-3, 3) for _ in range(a.cols * 2)))
            b = a @ x
            solver = ColumnSolver(a)
            sol = solver.solve(b)
            assert sol is not None
            assert solver.basis @ sol == b

    def test_solve_fails_exactly_outside_the_span(self):
        rng = random.Random(19)
        for _ in range(60):
            a = random_matrix(rng, max_dim=5, bound=4)
            b = IntMatrix(a.rows, 1, (rng.randint(-4, 4) for _ in range(a.rows)))
            outside = hermite_column_form(hstack([a, b])) != hermite_column_form(a)
            solver = ColumnSolver(a)
            sol = solver.solve(b)
            assert (sol is None) == outside
            assert solver.contains(b) == (not outside)
            if sol is not None:
                assert solver.basis @ sol == b
        # contains stops at the first column outside the span and builds no
        # solution, but answers as solve does: on lattices of every rank, the
        # empty basis among them, and on B of 0 to 3 columns mixing members
        # of the span with arbitrary vectors; a row mismatch raises from both
        answers = set()
        for t in range(200):
            a = random_matrix(rng, max_dim=5, bound=4)
            if t % 5 == 0:
                a = IntMatrix(a.rows, 0, ())
            solver = ColumnSolver(a)
            columns = []
            for _ in range(t % 4):
                if rng.random() < 0.6:
                    columns.append(a.times_vector([rng.randint(-3, 3) for _ in range(a.cols)]))
                else:
                    columns.append([rng.randint(-4, 4) for _ in range(a.rows)])
            b = IntMatrix.from_columns(columns, rows=a.rows)
            answers.add(solver.contains(b))
            assert solver.contains(b) == (solver.solve(b) is not None)
            wrong = zeros(a.rows + 1, b.cols)
            for check in (solver.solve, solver.contains):
                with pytest.raises(DimensionError):
                    check(wrong)
        assert answers == {True, False}

    def test_a_canonical_matrix_is_its_own_basis(self):
        # Hermite forms and preimages are canonical, so a solve against one
        # returns coordinates in its own columns
        rng = random.Random(23)
        for _ in range(40):
            a = random_matrix(rng, max_dim=5, bound=4)
            k = rng.randint(0, 3)
            r = IntMatrix(a.rows, k, (rng.randint(-4, 4) for _ in range(a.rows * k)))
            for canonical in (hermite_column_form(a), preimage(a, r)):
                solver = ColumnSolver(canonical)
                assert solver.basis == canonical
                x = IntMatrix(canonical.cols, 2, (rng.randint(-3, 3) for _ in range(canonical.cols * 2)))
                assert solver.solve(canonical @ x) == x

    def test_edge_shapes(self):
        # a lattice with no columns contains only 0
        empty = ColumnSolver(IntMatrix(3, 0, ()))
        assert empty.basis == IntMatrix(3, 0, ())
        assert empty.solve(zeros(3, 2)) == IntMatrix(0, 2, ())
        assert not empty.contains(cols((0, 1, 0), rows=3))
        # A with no rows spans the zero lattice of Z^0
        no_rows = ColumnSolver(IntMatrix(0, 4, ()))
        assert no_rows.basis == IntMatrix(0, 0, ())
        assert no_rows.solve(IntMatrix(0, 2, ())) == IntMatrix(0, 2, ())
        # B with no columns has the empty solution
        solver = ColumnSolver(cols((2, 1), (0, 3)))
        assert solver.solve(IntMatrix(2, 0, ())) == IntMatrix(2, 0, ())

    def test_vector_length_checked(self):
        with pytest.raises(DimensionError):
            ColumnSolver(IntMatrix.identity(2)).solve(cols((1, 2, 3), rows=3))


class TestUnimodularInverse:
    # a unimodular U spans Z^n, so its Hermite basis is I; its inverse is
    # V @ U' from its Smith form U' @ U @ V = I
    def test_round_trip(self):
        u = IntMatrix.from_rows([[1, 2], [0, 1]])
        assert ColumnSolver(u).basis == IntMatrix.identity(2)
        snf = smith_normal_form(u)
        assert snf.D == IntMatrix.identity(2)
        assert snf.V @ snf.U @ u == IntMatrix.identity(2)

    def test_random_unimodular_draws_invert(self):
        rng = random.Random(41)
        for n in range(1, 7):
            for _ in range(10):
                u = random_unimodular(rng, n)
                snf = smith_normal_form(u)
                assert snf.D == IntMatrix.identity(n)
                inv = snf.V @ snf.U
                assert u @ inv == IntMatrix.identity(n) == inv @ u

    def test_rejects_non_unimodular(self):
        assert ColumnSolver(IntMatrix.from_rows([[2, 0], [0, 1]])).solve(IntMatrix.identity(2)) is None


def reference_invariants(rel):
    """Invariants from the Smith diagonal of the whole Hermite form, with no split."""
    diagonal = smith_normal_form(hermite_column_form(rel)).diagonal
    nonzero = [d for d in diagonal if d]
    return FinAbInvariants(tuple(d for d in nonzero if d > 1), rel.rows - len(nonzero))


def prime_divisors(d):
    return [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]


def split_cases(rng):
    yield IntMatrix.identity(4)  # all pivots are units
    yield cols((1, 3, -2), (0, 1, 5), (0, 0, 1))  # unimodular: all units again
    yield IntMatrix(3, 0, ())  # no columns
    yield IntMatrix(0, 3, ())  # no rows
    yield cols((0, 2, 0, 0), (0, 4, 0, 6), rows=4)  # zero rows
    yield cols((-2, 1, 0), (0, -3, 4), (0, 0, -1))  # negative pivots
    for _ in range(40):
        # echelon columns with pivots drawn from units and non-units, mixed
        # by the Hermite form
        n, k = rng.randint(1, 6), rng.randint(0, 7)
        columns = []
        for _ in range(k):
            r = rng.randrange(n)
            col = [0] * r + [rng.choice((1, 1, -1, 2, 2, 3, 4, -6))] + [rng.randint(-5, 5) for _ in range(n - r - 1)]
            columns.append(col)
        yield IntMatrix.from_columns(columns, rows=n)
    for _ in range(20):
        yield random_matrix(rng, bound=4)  # dense, negative entries


class TestPresentations:
    def test_cokernel_examples(self):
        p = cols((1, 0, 0), (0, 2, 0), rows=3)
        assert cokernel_invariants(p) == FinAbInvariants((2,), 1)
        assert cokernel_invariants(IntMatrix(2, 0, ())) == FinAbInvariants((), 2)
        # Z/2 x Z/3 is cyclic of order 6; element orders confirm
        p6 = cols((2, 0), (0, 3), rows=2)
        assert cokernel_invariants(p6) == FinAbInvariants((6,), 0)
        assert max(quotient_element_orders(p6)) == 6

    def test_torsion_generators_diagonal(self):
        p = cols((1, 0, 0), (0, 2, 0), rows=3)
        gens = torsion_generators(p)
        assert (gens.rows, gens.cols) == (3, 1)
        v = gens.column(0)
        # the generator has order exactly 2 in the quotient
        assert not membership(v, p)
        assert membership(tuple(2 * e for e in v), p)

    def test_torsion_generators_trivial_cases(self):
        assert torsion_generators(IntMatrix(2, 0, ())) == IntMatrix(2, 0, ())
        g = torsion_generators(cols((-2,), rows=1))
        # (1) and (-1) name the same class of order 2 in Z/2
        assert g.columns() in ([(1,)], [(-1,)])

    def test_torsion_generators_generate_exactly_the_torsion(self):
        rng = random.Random(23)
        dense = []
        for _ in range(25):
            n = rng.randint(1, 4)
            k = rng.randint(0, 12)
            dense.append(IntMatrix(n, k, (rng.randint(-4, 4) for _ in range(n * k))))
        nontrivial = 0
        for rel in dense + list(split_cases(random.Random(14))):
            inv = cokernel_invariants(rel)
            gens = torsion_generators(rel)
            assert (gens.rows, gens.cols) == (rel.rows, len(inv.factors))
            for v, d in zip(gens.columns(), inv.factors):
                # v has order exactly d in the quotient
                assert membership(tuple(d * e for e in v), rel)
                for p in prime_divisors(d):
                    assert not membership(tuple(d // p * e for e in v), rel)
            # the quotient by the generators is torsion-free, so they reach all torsion
            assert cokernel_invariants(hstack([rel, gens])) == FinAbInvariants((), inv.free_rank)
            nontrivial += bool(inv.factors)
        assert nontrivial >= 20


def coordinate_cases(rng):
    """Relation matrices for T's coordinates: many unit pivots, free rank, zero columns."""
    yield from split_cases(rng)
    for _ in range(180):
        n = rng.randint(1, 8)
        columns = []
        for _ in range(rng.randint(0, 9)):
            kind = rng.random()
            if kind < 0.1:
                columns.append([0] * n)
            elif kind < 0.8:
                r = rng.randrange(n)
                pivot = rng.choice((1, 1, 1, -1, 2, 3, 4, 6))
                columns.append([0] * r + [pivot] + [rng.randint(-6, 6) for _ in range(n - r - 1)])
            else:
                columns.append([rng.randint(-4, 4) for _ in range(n)])
        yield IntMatrix.from_columns(columns, rows=n)


class TestTorsionCoordinates:
    def test_coordinates_invert_the_generators(self):
        # Phi kills the relations and sends the torsion generators to the
        # unit vectors, row i mod d_i, and its moduli are the invariant factors
        counts = dict(cases=0, unit_and_torsion=0, free=0, zero_column=0)
        for rel in coordinate_cases(random.Random(24)):
            phi, moduli = torsion_coordinates(rel)
            inv = cokernel_invariants(rel)
            assert moduli == inv.factors
            assert (phi.rows, phi.cols) == (len(moduli), rel.rows)
            gens = torsion_generators(rel)
            killed, images = phi @ rel, phi @ gens
            for i, d in enumerate(moduli):
                assert all(0 <= e < d for e in phi.row(i))
                assert all(e % d == 0 for e in killed.row(i)), rel
                assert [e % d for e in images.row(i)] == [int(i == j) for j in range(len(moduli))], rel
            counts["cases"] += 1
            counts["unit_and_torsion"] += bool(moduli) and len(split_unit_pivots(hermite_column_form(rel))[2]) >= 2
            counts["free"] += inv.free_rank > 0
            counts["zero_column"] += not all(map(any, rel.columns()))
        assert counts["cases"] >= 200
        assert min(counts.values()) >= 20, counts


class TestUnitPivotSplit:
    def test_block_keeps_the_non_unit_pivots(self):
        rng = random.Random(12)
        mixed = 0
        for rel in split_cases(rng):
            H = hermite_column_form(rel)
            block, rows, unit = split_unit_pivots(H)
            units = [c for c in H.columns() if next(e for e in c if e) == 1]
            assert rows == sorted(rows) and len(rows) == rel.rows - len(units)
            # unit maps the unit-pivot rows, none of them kept, to their
            # columns: a 1 at the row, zeros above it and on every other
            # unit-pivot row, which Phi's unit-pivot correction relies on
            assert sorted(unit.values()) == sorted(units) and not set(unit) & set(rows)
            for r, c in unit.items():
                assert c[r] == 1 and not any(c[:r])
                assert all(c[s] == 0 for s in unit if s != r)
            assert block.cols == H.cols - len(units) and block.rows == len(rows)
            # the block is itself a Hermite form, with every pivot at least 2
            assert hermite_column_form(block) == block
            assert all(next(e for e in c if e) >= 2 for c in block.columns())
            mixed += bool(units) and bool(block.cols)
        assert mixed >= 10

    def test_invariants_match_the_unsplit_smith_diagonal(self):
        rng = random.Random(13)
        for rel in split_cases(rng):
            assert cokernel_invariants(rel) == reference_invariants(rel), rel

    def test_unit_vector_in_span_iff_a_column(self):
        # a Hermite-form property: e_i lies in span(H) iff e_i is a column of H
        rng = random.Random(15)
        units_not_e = 0
        for rel in split_cases(rng):
            H = hermite_column_form(rel)
            solver = ColumnSolver(H)
            columns = H.columns()
            for i in range(H.rows):
                e = tuple(int(r == i) for r in range(H.rows))
                assert solver.contains(cols(e, rows=H.rows)) == (e in columns), (rel, i)
            # unit pivots with other nonzero entries, which the test must not take for e_i
            units_not_e += sum(next(x for x in c if x) == 1 and sum(map(abs, c)) > 1 for c in columns)
        assert units_not_e >= 10


class TestFiniteQuotient:
    def test_examples(self):
        z2 = IntMatrix.identity(2)
        assert finite_quotient(z2, cols((2, 0), (0, 2), rows=2)) == FinAbInvariants((2, 2))
        assert finite_quotient(z2, z2) == FinAbInvariants()
        den = cols((2, 1), (0, 3), rows=2)
        assert finite_quotient(z2, den) == FinAbInvariants((6,))
        # coset enumeration agrees with the determinant
        assert coset_count(z2, hermite_column_form(den)) == 6
        assert abs(det_bareiss(den)) == 6

    def test_order_equals_det_randomized(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 4)
            den = IntMatrix(n, n, (rng.randint(-4, 4) for _ in range(n * n)))
            d = abs(det_bareiss(den))
            if d == 0:
                continue
            assert finite_quotient(IntMatrix.identity(n), den).order == d

    def test_containment_error(self):
        # den need not lie in num: (2Z^2 + Z^2) / Z^2 is trivial
        num, den = cols((2, 0), (0, 2), rows=2), IntMatrix.identity(2)
        got = finite_quotient(num, den)
        assert got == FinAbInvariants()
        assert got == self.old_route(hstack([num, den]), den)
        assert got.order == coset_count(hstack([num, den]), hermite_column_form(den))

    def test_rank_mismatch_error(self):
        with pytest.raises(QuotientNotFiniteError):
            finite_quotient(IntMatrix.identity(2), cols((2, 0), rows=2))

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            finite_quotient(IntMatrix.identity(2), IntMatrix.identity(3))

    @staticmethod
    def redundant_pair(rng):
        """A numerator with dependent, repeated and zero columns, and a wider denominator inside it."""
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        B = IntMatrix(n, r, (rng.randint(-3, 3) for _ in range(n * r)))
        num_cols = B.columns()
        num_cols += [rng.choice(num_cols) for _ in range(rng.randint(1, 2))]
        num_cols += (B @ IntMatrix(r, 1, (rng.randint(-2, 2) for _ in range(r)))).columns()
        num_cols += [(0,) * n] * rng.randint(1, 2)
        rng.shuffle(num_cols)
        num = IntMatrix.from_columns(num_cols, rows=n)
        # a common factor t in Y makes (Z/t)^rank a quotient of the answer
        k = rng.randint(n + 1, n + 3)
        t = rng.randint(1, 3)
        return num, num @ IntMatrix(num.cols, k, (t * rng.randint(-2, 2) for _ in range(num.cols * k)))

    @staticmethod
    def old_route(num, den):
        # both lattices reduced first, then a solve against the reduced numerator
        X = ColumnSolver(hermite_column_form(num)).solve(hermite_column_form(den))
        return cokernel_invariants(X)

    def test_redundant_columns_match_the_reduced_route_randomized(self):
        rng = random.Random(37)
        checked = nontrivial = 0
        for _ in range(80):
            num, den = self.redundant_pair(rng)
            if hermite_column_form(den).cols < hermite_column_form(num).cols:
                continue
            got = finite_quotient(num, den)
            assert got == self.old_route(num, den)
            assert got.order == coset_count(num, hermite_column_form(den))
            assert kernel(num).cols > 0
            checked += 1
            nontrivial += not got.is_trivial()
        assert checked >= 70 and nontrivial >= 40

    def test_denominator_column_outside_the_numerator(self):
        rng = random.Random(41)
        moved_cases = 0
        for _ in range(30):
            num, den = self.redundant_pair(rng)
            # some unit vector lies outside span(num) unless it is all of Z^rows
            units = [tuple(int(i == j) for i in range(num.rows)) for j in range(num.rows)]
            outside = [v for v in units if not membership(v, num)]
            if not outside:
                continue
            moved = den.columns()
            moved[rng.randrange(den.cols)] = outside[0]
            den = IntMatrix.from_columns(moved, rows=num.rows)
            # the quotient is (span(num) + span(den)) / span(den)
            got = finite_quotient(num, den)
            assert got == self.old_route(hstack([num, den]), den)
            assert got.order == coset_count(hstack([num, den]), hermite_column_form(den))
            moved_cases += 1
        assert moved_cases >= 20

    def test_one_hermite_form_per_call(self, monkeypatch):
        # the preimage's Hermite form, the stack [num den; I 0], is the only
        # reduction: its canonical columns are split as they come
        import wadefect.linalg as linalg_mod

        calls = []
        real = linalg_mod._hnf

        def counting(columns, m):
            calls.append(m)
            return real(columns, m)

        def refuse(*args):
            raise AssertionError("finite_quotient solved against its numerator")

        monkeypatch.setattr(linalg_mod, "_hnf", counting)
        monkeypatch.setattr(linalg_mod, "ColumnSolver", refuse)
        # span(num) is Z x 2Z and span(den) 2Z x 4Z
        num, den = cols((1, 0), (0, 2), (1, 2), rows=2), cols((2, 0), (0, 4), rows=2)
        assert finite_quotient(num, den) == FinAbInvariants((2, 2))
        assert calls == [num.rows + num.cols]


class TestOracles:
    def test_oracles_bind_no_linalg_routine_but_intmatrix(self):
        # the oracles check linalg, so they may share its matrix type only
        import counting_oracles
        import wadefect.linalg
        import wadefect.oracles

        for oracles in (wadefect.oracles, counting_oracles):
            bound = {
                name
                for name, obj in vars(oracles).items()
                if obj is wadefect.linalg or getattr(obj, "__module__", None) == "wadefect.linalg"
            }
            assert bound == {"IntMatrix"}, oracles.__name__

    def test_coset_count_takes_any_denominator(self):
        # no Hermite form is asked of the caller: Z^n / span(den) has |det| elements
        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            den = IntMatrix(n, n, (rng.randint(-3, 3) for _ in range(n * n)))
            d = abs(det_bareiss(den))
            if not 1 < d <= 150 or den == hermite_column_form(den):
                continue
            assert coset_count(IntMatrix.identity(n), den) == d
            assert len(quotient_element_orders(den)) == d
            checked += 1
        assert checked >= 20


class TestFinAbInvariants:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FinAbInvariants((4, 2))
        with pytest.raises(ValueError):
            FinAbInvariants((1, 2))

    def test_pretty(self):
        assert FinAbInvariants().pretty() == "0"
        assert FinAbInvariants((2, 4)).pretty() == "Z/2 x Z/4"
        assert FinAbInvariants((), 2).pretty() == "Z x Z"
        assert FinAbInvariants((2, 2)).order == 4


def test_big_integer_entries_survive():
    big = 10**40
    a = IntMatrix.from_rows([[big, 1], [0, big]])
    snf = smith_normal_form(a)
    assert snf.U @ a @ snf.V == snf.D
    assert snf.diagonal[0] == 1 and snf.diagonal[1] == big * big
