import random
from math import isqrt, prod

import pytest

from wadefect.linalg import (
    AbelianPresentation,
    ColumnSolver,
    ContainmentError,
    DimensionError,
    FinAbInvariants,
    IntMatrix,
    QuotientNotFiniteError,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    hstack,
    kernel_basis,
    lattice_intersection,
    lattice_sum,
    membership,
    smith_normal_form,
    torsion_generators,
    xgcd,
)
from wadefect.oracles import (
    box_kernel_vectors,
    coset_count,
    det_bareiss,
    diagonal_from_minor_gcds,
    hermite_reference,
    quotient_element_orders,
)
from wadefect.zoo import group_zoo, random_module


def cols(*vecs, rows=None):
    return IntMatrix.from_columns(list(vecs), rows=rows)


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

    def test_empty_matrices_are_legal(self):
        z = IntMatrix(0, 3, ())
        assert z.rows == 0 and z.cols == 3
        assert (z @ IntMatrix.identity(3)).cols == 3
        assert IntMatrix(3, 0, ()) @ IntMatrix(0, 2, ()) == IntMatrix.zeros(3, 2)

    def test_immutability(self):
        m = IntMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_matmul_and_vector(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        assert a.times_vector((1, 1)) == (3, 7)

    def test_transpose_round_trip(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().transpose() == a


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
        snf = smith_normal_form(IntMatrix.zeros(2, 3))
        assert snf.diagonal == (0, 0)

    def test_empty_shapes(self):
        for shape in ((0, 0), (0, 4), (4, 0)):
            snf = smith_normal_form(IntMatrix.zeros(*shape))
            assert snf.diagonal == ()
            assert snf.U @ IntMatrix.zeros(*shape) @ snf.V == snf.D

    def test_postconditions_randomized(self):
        rng = random.Random(101)
        for _ in range(120):
            a = random_matrix(rng)
            snf = smith_normal_form(a)
            assert snf.U @ a @ snf.V == snf.D
            assert abs(det_bareiss(snf.U)) == 1
            assert abs(det_bareiss(snf.V)) == 1
            d = snf.diagonal
            assert all(e >= 0 for e in d)
            for x, y in zip(d, d[1:]):
                assert (y % x == 0) if x else (y == 0)

    def test_diagonal_matches_minor_gcds(self):
        rng = random.Random(55)
        for _ in range(40):
            a = random_matrix(rng, max_dim=3, bound=6)
            assert smith_normal_form(a).diagonal == diagonal_from_minor_gcds(a)

    def test_deterministic(self):
        a = IntMatrix.from_rows([[3, 1, -2], [0, 4, 1]])
        assert smith_normal_form(a) == smith_normal_form(a)


class TestKernel:
    def test_row_vector(self):
        assert kernel_basis(IntMatrix.from_rows([[1, 1]])).columns() == [(1, -1)]

    def test_identity_has_no_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).cols == 0

    def test_primitive_kernel(self):
        # brute force over a small box confirms (2, -1) is primitive
        a = IntMatrix.from_rows([[2, 4]])
        basis = kernel_basis(a)
        assert basis.columns() == [(2, -1)]
        assert box_kernel_vectors(a, 4) == [(2, -1), (4, -2)]

    def test_saturation_randomized(self):
        rng = random.Random(7)
        for _ in range(60)[:60]:
            r, c = rng.randint(1, 3), rng.randint(1, 4)
            a = IntMatrix(r, c, (rng.randint(-5, 5) for _ in range(r * c)))
            basis = kernel_basis(a)
            assert (a @ basis).is_zero()
            found = box_kernel_vectors(a, 3)
            if basis.cols == 0:
                assert not found
            elif found:
                assert ColumnSolver(basis).contains(cols(*found, rows=c))


class TestEntryGrowth:
    # h is the bit length of the product of A's row norms, Hadamard's bound
    # on the minors of A; kernel and solution entries stay within it
    @pytest.mark.parametrize("rows,cols_", [(40, 45), (60, 65)])
    def test_kernel_and_solve_stay_within_hadamard(self, rows, cols_):
        rng = random.Random(rows)
        a = IntMatrix(rows, cols_, (rng.randint(-9, 9) for _ in range(rows * cols_)))
        h = isqrt(prod(sum(e * e for e in a.row(i)) for i in range(rows))).bit_length()
        basis = kernel_basis(a)
        assert basis.cols == cols_ - rows
        assert (a @ basis).is_zero()
        assert max_bits(basis) <= h
        b = a @ IntMatrix(cols_, 3, (rng.randint(-9, 9) for _ in range(cols_ * 3)))
        sol = ColumnSolver(a).solve(b)
        assert a @ sol == b
        assert max_bits(sol) <= h + max_bits(b) + cols_.bit_length()


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
        assert hermite_column_form(IntMatrix.zeros(3, 2)).cols == 0

    def test_matches_textbook_reference(self):
        rng = random.Random(29)
        for A in reference_cases(rng):
            ref = hermite_reference(A)
            assert hermite_column_form(A) == ref
            K = kernel_basis(A)
            assert (A @ K).is_zero()
            assert K.cols == A.cols - ref.cols
            assert hermite_reference(K) == K
            solver = ColumnSolver(A)
            Y = IntMatrix(A.cols, 1, [rng.randint(-3, 3) for _ in range(A.cols)])
            X = solver.solve(A @ Y)
            assert X is not None and A @ X == A @ Y
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

    def test_intersection_examples(self):
        two = cols((2, 0), (0, 2), rows=2)
        three = cols((3, 0), (0, 3), rows=2)
        assert lattice_intersection(two, three).columns() == [(6, 0), (0, 6)]
        b = cols((1, 1), rows=2)
        assert lattice_intersection(b, b) == hermite_column_form(b)
        assert lattice_intersection(b, cols((1, -1), rows=2)).cols == 0

    def test_intersection_contained(self):
        rng = random.Random(13)
        for _ in range(25):
            b1 = random_matrix(rng, max_dim=4, bound=4)
            b2 = IntMatrix(b1.rows, 2, (rng.randint(-4, 4) for _ in range(b1.rows * 2)))
            inter = lattice_intersection(b1, b2)
            assert ColumnSolver(hermite_column_form(b1)).contains(inter)
            assert ColumnSolver(hermite_column_form(b2)).contains(inter)
        # for full-rank pairs, (L1 + L2) / L2 and L1 / (L1 ∩ L2) are isomorphic
        for _ in range(25):
            n = rng.randint(1, 4)
            k1, k2 = rng.randint(n, 5), rng.randint(n, 5)
            b1 = IntMatrix(n, k1, (rng.randint(-4, 4) for _ in range(n * k1)))
            b2 = IntMatrix(n, k2, (rng.randint(-4, 4) for _ in range(n * k2)))
            if hermite_column_form(b1).cols < n or hermite_column_form(b2).cols < n:
                continue
            inter = lattice_intersection(b1, b2)
            assert finite_quotient(lattice_sum(b1, b2), b2) == finite_quotient(b1, inter)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lattice_sum(IntMatrix.identity(2), IntMatrix.identity(3))
        with pytest.raises(DimensionError):
            lattice_intersection(IntMatrix.identity(2), IntMatrix.identity(3))


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
            sol = ColumnSolver(a).solve(b)
            assert sol is not None
            assert a @ sol == b

    def test_solve_fails_exactly_outside_the_span(self):
        rng = random.Random(19)
        for _ in range(60):
            a = random_matrix(rng, max_dim=5, bound=4)
            b = IntMatrix(a.rows, 1, (rng.randint(-4, 4) for _ in range(a.rows)))
            outside = hermite_column_form(hstack([a, b])) != hermite_column_form(a)
            sol = ColumnSolver(a).solve(b)
            assert (sol is None) == outside
            if sol is not None:
                assert a @ sol == b

    def test_vector_length_checked(self):
        with pytest.raises(DimensionError):
            membership((1, 2, 3), IntMatrix.identity(2))


class TestUnimodularInverse:
    # the inverse of a square U is the solution of U @ X = I
    def test_round_trip(self):
        u = IntMatrix.from_rows([[1, 2], [0, 1]])
        assert ColumnSolver(u).solve(IntMatrix.identity(2)) @ u == IntMatrix.identity(2)

    def test_rejects_non_unimodular(self):
        assert ColumnSolver(IntMatrix.from_rows([[2, 0], [0, 1]])).solve(IntMatrix.identity(2)) is None


class TestPresentations:
    def test_cokernel_examples(self):
        p = AbelianPresentation(3, cols((1, 0, 0), (0, 2, 0), rows=3))
        assert cokernel_invariants(p) == FinAbInvariants((2,), 1)
        assert cokernel_invariants(AbelianPresentation(2, IntMatrix(2, 0, ()))) == FinAbInvariants((), 2)
        # Z/2 x Z/3 is cyclic of order 6; element orders confirm
        p6 = AbelianPresentation(2, cols((2, 0), (0, 3), rows=2))
        assert cokernel_invariants(p6) == FinAbInvariants((6,), 0)
        assert max(quotient_element_orders(p6.relations)) == 6

    def test_relations_row_check(self):
        with pytest.raises(DimensionError):
            AbelianPresentation(2, IntMatrix.identity(3))

    def test_torsion_generators_diagonal(self):
        p = AbelianPresentation(3, cols((1, 0, 0), (0, 2, 0), rows=3))
        gens = torsion_generators(p)
        assert len(gens.generators) == 1
        v = gens.generators[0]
        # the generator has order exactly 2 in the quotient
        assert not membership(v, p.relations)
        assert membership(tuple(2 * e for e in v), p.relations)

    def test_torsion_generators_trivial_cases(self):
        assert torsion_generators(AbelianPresentation(2, IntMatrix(2, 0, ()))).generators == ()
        g = torsion_generators(AbelianPresentation(1, cols((-2,), rows=1)))
        # (1) and (-1) name the same class of order 2 in Z/2
        assert g.generators in (((1,),), ((-1,),))

    def test_torsion_generators_generate_exactly_the_torsion(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 4)
            k = rng.randint(0, 12)
            rel = IntMatrix(n, k, (rng.randint(-4, 4) for _ in range(n * k)))
            p = AbelianPresentation(n, rel)
            inv = cokernel_invariants(p)
            gens = torsion_generators(p)
            assert len(gens.generators) == len(inv.factors)
            for v, d in zip(gens.generators, inv.factors):
                assert membership(tuple(d * e for e in v), rel)
                assert not membership(v, rel) if d > 1 else True
            # the quotient by the generators is torsion-free, so they reach all torsion
            g = IntMatrix.from_columns(list(gens.generators), rows=n) if gens.generators else IntMatrix(n, 0, ())
            assert cokernel_invariants(AbelianPresentation(n, hstack([rel, g]))) == FinAbInvariants((), inv.free_rank)


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
        with pytest.raises(ContainmentError):
            finite_quotient(cols((2, 0), (0, 2), rows=2), IntMatrix.identity(2))

    def test_rank_mismatch_error(self):
        with pytest.raises(QuotientNotFiniteError):
            finite_quotient(IntMatrix.identity(2), cols((2, 0), rows=2))

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            finite_quotient(IntMatrix.identity(2), IntMatrix.identity(3))


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
