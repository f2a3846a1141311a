import copy
import pickle
import random

import pytest

from counting_oracles import quotient_element_orders
from wadefect import modules
from wadefect.engine import Scenario, defect, verify_cover
from wadefect.groups import (
    Subgroup,
    cyclic_subgroups,
    from_permutations,
    from_table,
    full_subgroup,
    subgroup_closure,
    trivial_subgroup,
)
from wadefect.linalg import (
    ColumnSolver,
    ContainmentError,
    FinAbInvariants,
    IntMatrix,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    hstack,
    preimage,
    split_unit_pivots,
)
from wadefect.modules import (
    GammaModule,
    ModuleError,
    coinvariants,
    direct_sum,
    free_cover,
    free_module,
    h1,
    h1_bar,
    induced_module,
    norm_one_module,
    tate_h_minus1,
    trivial_module,
    validate,
    with_doubled_generators,
)
from wadefect.oracles import all_subgroups_2gen
from wadefect.zoo import (
    _conjugate,
    _with_orbit_relations,
    a4,
    cyclic,
    group_zoo,
    klein,
    q8,
    random_module,
    random_subgroup,
    random_unimodular,
    s3,
    sign_characters,
)


def sign_module(G):
    return GammaModule(G, 1, IntMatrix(1, 0, ()), [IntMatrix.from_rows([[-1]])] * len(G.generator_indices))


def unit_rows(H):
    # the rows of a canonical Hermite form H whose e_i the scan skips
    return set(split_unit_pivots(H)[2])


def column_rows(H):
    # the earlier rule's rows: those r with e_r a column of H
    return {r for r, c in split_unit_pivots(H)[2].items() if sum(map(abs, c)) == 1}


def canonical_span_scan(M, skipped):
    """(kept, kernel rank, spans) of the greedy scan, with each span in canonical Hermite form.

    `skipped(H)` gives the rows of the span H whose e_i the scan skips, and
    `spans` lists H for the relations and after each kept orbit.
    """
    G, n = M.group, M.n
    mats = M.element_matrices()
    spans = [hermite_column_form(M.relations)]
    kept = []
    for i in range(n):
        if i not in skipped(spans[-1]):
            kept.append(i)
            orbit = IntMatrix.from_columns([mats[g].column(i) for g in range(G.order)], rows=n)
            spans.append(hermite_column_form(hstack([spans[-1], orbit])))
    return tuple(kept), G.order * len(kept) - (n - spans[0].cols), spans


class TestValidate:
    def test_trivial_action_ok(self):
        validate(trivial_module(klein(), 2))

    def test_sign_action_ok(self):
        validate(sign_module(cyclic(2)))

    def test_doubling_is_not_an_automorphism(self):
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix(1, 0, ()), [IntMatrix.from_rows([[2]])])
        with pytest.raises(ModuleError, match="incompatible"):
            validate(M)

    def test_unstable_relations_rejected(self):
        G = cyclic(2)
        # relations 3Z in rank 2, but the swap moves (3,0) to (0,3) outside the lattice
        M = GammaModule(
            G,
            2,
            IntMatrix.from_columns([(3, 0)], rows=2),
            [IntMatrix.from_rows([[0, 1], [1, 0]])],
        )
        with pytest.raises(ModuleError, match="preserve"):
            validate(M)

    def test_unstable_relations_off_the_generating_positions_are_incompatible(self):
        # designated generator 0 of a table group is the identity element,
        # not a generating position; its swap moves (3, 0) out of the
        # lattice, and validate reports it as a failed congruence with D[e]
        T = from_table(cyclic(2).table)
        assert 0 not in T.generating_positions and T.generator_indices[0] == T.identity
        M = GammaModule(
            T,
            2,
            IntMatrix.from_columns([(3, 0)], rows=2),
            [IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.identity(2)],
        )
        with pytest.raises(ModuleError, match="incompatible action of generator 0"):
            validate(M)

    def test_congruence_only_modulo_relations(self):
        # the action matrix squares to I only modulo the relation lattice
        G = cyclic(2)
        M = GammaModule(
            G,
            1,
            IntMatrix.from_columns([(4,)], rows=1),
            [IntMatrix.from_rows([[3]])],
        )
        validate(M)
        assert h1(M, full_subgroup(G)) == h1_bar(M, full_subgroup(G))

    def test_relation_free_modules_are_compared_without_a_solve(self, monkeypatch):
        # a relation-free module must obey the law exactly, so validate
        # compares matrices; one changed entry of a designated generator's
        # action is caught whether the generator is on the tree or not
        def no_solver(*args):
            raise AssertionError("a relation-free module needs no ColumnSolver")

        monkeypatch.setattr(modules, "ColumnSolver", no_solver)
        P = s3()
        T = from_table(P.table)
        M = norm_one_module(P)
        action = list(M.element_matrices())
        validate(GammaModule(T, M.n, M.relations, action))
        on_tree = T.generating_positions[0]
        off_tree = next(k for k in range(T.order) if k not in T.generating_positions and k != T.identity)
        assert T.tree[T.generator_indices[on_tree]] == (T.identity, on_tree)
        for k in (on_tree, off_tree):
            changed = list(action)
            rows = changed[k].to_rows()
            rows[0][0] += 1
            changed[k] = IntMatrix.from_rows(rows)
            with pytest.raises(ModuleError, match="incompatible"):
                validate(GammaModule(T, M.n, M.relations, changed))

    def test_all_pairs_compatibility_on_zoo_modules(self):
        for G in (klein(), s3()):
            M = norm_one_module(G)
            validate(M)
            mats = M.element_matrices()
            for g in range(G.order):
                for h in range(G.order):
                    assert mats[g] @ mats[h] == mats[G.table[g][h]]

    def test_stored_matrices_match_products_along_the_tree(self):
        # validate multiplies by each generating position's matrix through
        # one prepared right factor; what it stores must be, entry for entry
        # and in tree order, the plain `@` derivation of `trusted`
        rng = random.Random(37)
        kinds = {True: 0, False: 0}
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                for i in range(4):
                    M = random_module(rng, G)
                    if i % 2 and not M.relations.cols:
                        M = _with_orbit_relations(rng, M, 1)
                    kinds[bool(M.relations.cols)] += 1
                    reference = trusted(GammaModule(G, M.n, M.relations, M.action))._matrices
                    validate(M)
                    assert list(M._matrices) == list(reference)
                    assert all(M._matrices[g].entries == D.entries for g, D in reference.items())
        assert min(kinds.values()) >= 10

    def test_pruned_law_check_matches_all_pairs_on_table_groups(self):
        # validate checks the law along a search over the generating positions
        # plus one congruence per designated generator; a brute-force check on
        # all pairs must agree with it on every perturbed action
        def law_holds(T, relations, action):
            rel = ColumnSolver(relations)
            ident = IntMatrix.identity(relations.rows)
            if not all(rel.contains(a @ relations) for a in action):
                return False
            if not rel.contains(action[T.identity] - ident):
                return False
            return all(
                rel.contains(action[g] @ action[h] - action[T.table[g][h]])
                for g in range(T.order)
                for h in range(T.order)
            )

        rng = random.Random(23)
        outcomes = set()
        failures_off_generators = 0
        for P in group_zoo():
            T = from_table(P.table)
            for _ in range(8):
                M = random_module(rng, P)
                action = list(M.element_matrices())
                g = rng.randrange(T.order)
                way = rng.choice(("relation", "swap", "negate"))
                if way == "relation":
                    X = IntMatrix.from_rows(
                        [[rng.randint(-3, 3) for _ in range(M.n)] for _ in range(M.relations.cols)],
                        cols=M.n,
                    )
                    action[g] = action[g] + M.relations @ X
                elif way == "swap":
                    action[g] = action[rng.choice([h for h in range(T.order) if h != g])]
                else:
                    action[g] = -action[g]
                expected = law_holds(T, M.relations, action)
                try:
                    validate(GammaModule(T, M.n, M.relations, action))
                    accepted = True
                except ModuleError:
                    accepted = False
                assert accepted == expected, (T.order, g, way)
                if way == "relation":
                    assert accepted
                outcomes.add(accepted)
                if not accepted and g not in T.generating_positions:
                    failures_off_generators += 1
        assert outcomes == {True, False}
        assert failures_off_generators


class TestFreeCover:
    def test_trivial_module_over_z2(self):
        G = cyclic(2)
        cover = free_cover(trivial_module(G))
        assert cover.cover_rank == 2
        assert cover.kernel_basis.columns() == [(1, -1)]
        assert cover.kernel.element_matrix(1) == IntMatrix.from_rows([[-1]])

    def test_z_mod_2_over_trivial_group(self):
        G = cyclic(1)
        M = GammaModule(G, 1, IntMatrix.from_columns([(-2,)], rows=1), [IntMatrix.identity(1)])
        cover = free_cover(M)
        assert cover.cover_rank == 1
        assert cover.kernel_basis.columns() == [(2,)]

    def test_scan_keeps_e_i_behind_a_unit_pivot_column(self):
        # Z^2 / (1, 2): the relation's Hermite column has its unit pivot in
        # row 0, so e_0 = -2 e_1 modulo the span is skipped, though it is
        # not a column; e_1 is kept and alone covers M
        G = cyclic(1)
        M = GammaModule(G, 2, IntMatrix.from_columns([(1, 2)], rows=2), [IntMatrix.identity(2)])
        cover = free_cover(M)
        assert cover.projection == IntMatrix.from_columns([(0, 1)], rows=2)
        assert cover.cover_rank == 1

    def test_unit_pivot_scan_against_the_column_scan(self, monkeypatch):
        # the earlier rule kept e_i unless e_i was a column of the span's
        # Hermite form; covers built under it serve as the reference.  The
        # scan keeps one running echelon form, and a test-local scan that
        # takes each span's canonical form gives the same kept set
        rng = random.Random(17)
        cases = []
        for G in group_zoo():
            for M in (random_module(rng, G), _with_orbit_relations(rng, random_module(rng, G), 1), norm_one_module(G)):
                M = _conjugate(M, random_unimodular(rng, M.n))
                sc = Scenario(G, M, (full_subgroup(G), random_subgroup(rng, G)), (random_subgroup(rng, G),))
                cases.append((M, GammaModule(G, M.n, M.relations, M.action), sc))
        references = []
        for _, ref, _ in cases:
            # free_cover, and defect's route, read the scan cached on the module
            ref._scan = canonical_span_scan(ref, column_rows)[:2]
            references.append(free_cover(ref))
        # per insertion into the running form: the column given, and the
        # form's unit-pivot rows after it
        inserted = []
        real_insert = modules._hnf_insert

        def recording(v, pivots, rows, support, m):
            column = tuple(v)
            real_insert(v, pivots, rows, support, m)
            inserted.append((column, {r for r, c in pivots.items() if c[r] == 1}))

        covers = []
        for M, _, _ in cases:
            del inserted[:]
            with monkeypatch.context() as patch:
                patch.setattr(modules, "_hnf_insert", recording)
                covers.append(free_cover(M))
            kept, rank, spans = canonical_span_scan(M, unit_rows)
            assert modules._greedy_scan(M) == (kept, rank)
            # the relations' span and one after each kept orbit: the running
            # form's unit-pivot rows are those of the span's canonical form
            ends = [spans[0].cols + M.group.order * j for j in range(len(kept) + 1)]
            assert len(inserted) == ends[-1]
            for end, H in zip(ends, spans):
                so_far = hermite_column_form(IntMatrix.from_columns([c for c, _ in inserted[:end]], rows=M.n))
                assert so_far == H
                assert (inserted[end - 1][1] if end else set()) == set(split_unit_pivots(so_far)[2])
                # on any one span, the rule keeps a subset of what the column
                # rule keeps; the scan is greedy, so a whole cover can still
                # come out larger
                assert column_rows(H) <= unit_rows(H)
        smaller = nontrivial = 0
        for (M, ref, sc), cover, old in zip(cases, covers, references):
            smaller += cover.cover_rank < old.cover_rank
            assert hermite_column_form(hstack([cover.projection, M.relations])) == IntMatrix.identity(M.n)
            for H in (full_subgroup(M.group), *sc.s_subgroups, *sc.sc_subgroups):
                assert tate_h_minus1(cover.kernel, H) == tate_h_minus1(old.kernel, H)
            # ref carries the reference cover, cached on it
            ref_sc = Scenario(sc.group, ref, sc.s_subgroups, sc.sc_subgroups)
            got = defect(sc, use_shortcuts=False)
            assert got == defect(ref_sc, use_shortcuts=False)
            nontrivial += not got.invariants.is_trivial()
        assert smaller >= 3 and nontrivial >= 3

    def test_scan_inserts_each_column_once_and_reduces_no_span(self, monkeypatch):
        # one running echelon form: R's Hermite basis, then each kept
        # vector's |G| orbit columns, each given to the insertion step once,
        # rank(R) + |G| d in all, and no Hermite form of any span
        import wadefect.linalg as linalg_mod

        def refuse(*args):
            raise AssertionError("the scan reduced a span again")

        rng = random.Random(83)
        cases = [trivial_module(cyclic(1), 60)]
        for G in group_zoo():
            T = from_table(G.table)
            for M in (random_module(rng, G), _with_orbit_relations(rng, random_module(rng, G), 1), norm_one_module(G)):
                # a table group designates every element, in index order
                cases += [M, GammaModule(T, M.n, M.relations, M.element_matrices())]
        received = []
        real_insert = modules._hnf_insert
        kinds = {True: 0, False: 0}
        for M in cases:
            validate(M)
            basis = modules._relation_lattice(M).basis  # R's one reduction, before the scan
            del received[:]
            with monkeypatch.context() as patch:
                patch.setattr(modules, "_hnf_insert", lambda v, *state: received.append(tuple(v)) or real_insert(v, *state))
                patch.setattr(linalg_mod, "_hnf", refuse)
                kept, _ = modules._greedy_scan(M)
            mats = M.element_matrices()
            assert received == basis.columns() + [mats[g].column(i) for i in kept for g in range(M.group.order)]
            assert len(received) == basis.cols + M.group.order * len(kept)
            kinds[bool(M.relations.cols)] += 1
        assert kinds == {True: 24, False: 25}

    def test_free_rank_one_presentation_needs_no_correction(self):
        # Z[G] presented with a single module generator: the cover is bijective
        G = cyclic(1)
        M = trivial_module(G)
        assert free_cover(M).kernel_basis.cols == 0

    def test_exactness_rank(self):
        for G in (klein(), s3()):
            M = norm_one_module(G)
            cover = free_cover(M)
            assert cover.kernel_basis.cols == cover.cover_rank - M.n

    def test_projection_is_onto_and_cover_is_small(self):
        rng = random.Random(3)
        for G in group_zoo():
            for _ in range(4):
                M = random_module(rng, G)
                cover = free_cover(M)
                onto = hermite_column_form(hstack([cover.projection, M.relations]))
                assert onto == IntMatrix.identity(M.n)
                d, rest = divmod(cover.cover_rank, G.order)
                assert rest == 0 and d <= M.n
                free_rank = cokernel_invariants(M.relations).free_rank
                assert cover.kernel_basis.cols == cover.cover_rank - free_rank

    def test_relation_rank_comes_from_the_scan(self, monkeypatch):
        # no second normal form of the relations: the greedy scan's first
        # Hermite form already gives their rank
        rng = random.Random(5)
        modules_with_relations = [_with_orbit_relations(rng, random_module(rng, G), 1) for G in group_zoo()]

        def refuse(*args):
            raise AssertionError("free_cover took a second normal form of the relations")

        monkeypatch.setattr(modules, "cokernel_invariants", refuse)
        covers = [free_cover(M) for M in modules_with_relations]
        monkeypatch.undo()
        for M, cover in zip(modules_with_relations, covers):
            assert cover.kernel_basis.cols == cover.cover_rank - cokernel_invariants(M.relations).free_rank

    def test_klein_augmentation_ideal_needs_two_generators(self):
        # d = 2: the augmentation ideal of the Klein group is not cyclic
        assert free_cover(norm_one_module(klein())).cover_rank == 8

    def test_kernel_action_satisfies_group_law_exactly(self):
        rng = random.Random(2)
        for G in (klein(), s3()):
            M = random_module(rng, G)
            cover = free_cover(M)
            mats = cover.kernel.element_matrices()
            for g in range(G.order):
                for h in range(G.order):
                    assert mats[g] @ mats[h] == mats[G.table[g][h]]

    def test_projection_kills_kernel(self):
        M = norm_one_module(klein())
        cover = free_cover(M)
        image = cover.projection @ cover.kernel_basis
        assert ColumnSolver(M.relations).contains(image)

    def test_basis_order_is_element_major(self):
        G = cyclic(2)
        M = trivial_module(G)
        # projection columns: identity block then the block of the generator
        assert free_cover(M).projection.to_rows() == [[1, 1]]

    def test_the_kernel_basis_is_its_own_solver_basis(self):
        # free_cover solves against its kernel basis, a preimage and so
        # canonical: the solutions are coordinates in the kernel's own basis
        rng = random.Random(61)
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                for M in (norm_one_module(G), random_module(rng, G, max_rank=3)):
                    basis = free_cover(M).kernel_basis
                    solver = ColumnSolver(basis)
                    assert solver.basis == basis, G.order
                    x = IntMatrix(basis.cols, 1, (rng.randint(-3, 3) for _ in range(basis.cols)))
                    assert solver.solve(basis @ x) == x, G.order


class TestRelationLattice:
    def test_each_module_reduces_its_relations_at_most_once(self, monkeypatch):
        # every "modulo R" question of validate, the faithful quotient, the
        # greedy scan, verify_cover and h1_bar's check of d1 along the tree
        # is answered from one Hermite form of R per relation matrix, shared
        # by the faithful quotient's module, and a relation-free module never
        # reduces its empty R
        import wadefect.engine as engine_mod
        import wadefect.linalg as linalg_mod

        real_hnf, real_quotient = linalg_mod.hermite_column_form, engine_mod._faithful_quotient
        reduced, quotients = [], []

        def counting_hnf(B):
            reduced.append(B)
            return real_hnf(B)

        def recording_quotient(sc):
            Q = real_quotient(sc)
            if Q is not None and Q is not sc:
                quotients.append(Q.module)
            return Q

        monkeypatch.setattr(linalg_mod, "hermite_column_form", counting_hnf)
        monkeypatch.setattr(modules, "hermite_column_form", counting_hnf)
        monkeypatch.setattr(engine_mod, "_faithful_quotient", recording_quotient)

        def reductions(M):
            return sum(B is M.relations for B in reduced)

        rng = random.Random(53)
        cases = []
        for G in group_zoo():
            M = _with_orbit_relations(rng, random_module(rng, G), 1)
            cases += [M, with_doubled_generators(M)]
            cases += [norm_one_module(G), induced_module(G, random_subgroup(rng, G)), trivial_module(G, 2)]
        kinds = {True: 0, False: 0}
        shared = 0
        for M in cases:
            G = M.group
            sc = Scenario(G, M, (full_subgroup(G), random_subgroup(rng, G)))
            validate(M)
            engine_mod._faithful_quotient(sc)
            once = int(M.relations.cols > 0)
            assert reductions(M) == once
            built = len(quotients)
            defect(sc, use_shortcuts=False)
            verify_cover(free_cover(M))
            assert h1(M, full_subgroup(G)) == h1_bar(M, full_subgroup(G))
            assert reductions(M) == once
            defect(sc)
            # a proper quotient's module is a new object on the same R, and
            # shares M's reduction of it, so R is reduced once in all
            assert reductions(M) == once
            shared += sum(Q.relations.cols > 0 for Q in quotients[built:])
            kinds[bool(M.relations.cols)] += 1
        assert quotients and shared and kinds == {True: 16, False: 24}



class TestCanonicalBasesReducedOnce:
    def test_cycles_and_kernel_basis_come_from_one_reduction(self, monkeypatch):
        # h1_bar's cycles and free_cover's kernel basis are each one
        # preimage, already in canonical Hermite form, and the solver on
        # each adopts that very matrix: no Hermite form is taken of it again.
        # Every reduction runs through linalg._hnf: h1_bar takes three (the
        # cycles' stack, T(B) and the cokernel of X) once R's lattice is
        # built, and free_cover one, the kernel's preimage; its scan inserts
        # into one running echelon form and reduces no span
        import wadefect.linalg as linalg_mod

        real_preimage, real_hnf = modules.preimage, linalg_mod.hermite_column_form
        real_core, real_homology = getattr(linalg_mod, "_hnf", None), modules._bar_homology
        bases, hnf_inputs, solvers, core_calls = [], [], [], []

        def recording_preimage(A, R):
            out = real_preimage(A, R)
            bases.append(out)
            return out

        def recording_hnf(B):
            hnf_inputs.append(B)
            return real_hnf(B)

        def counting_core(columns, m):
            core_calls.append(m)
            return real_core(columns, m)

        def recording_homology(M, gens):
            out = real_homology(M, gens)
            solvers.append(out[1])
            return out

        monkeypatch.setattr(modules, "preimage", recording_preimage)
        for mod in (linalg_mod, modules):
            monkeypatch.setattr(mod, "hermite_column_form", recording_hnf)
        for mod in (linalg_mod, modules):
            monkeypatch.setattr(mod, "_hnf", counting_core, raising=False)
        monkeypatch.setattr(modules, "_bar_homology", recording_homology)

        rng = random.Random(59)
        checked = 0
        for G in group_zoo():
            for M in (norm_one_module(G), _with_orbit_relations(rng, random_module(rng, G), 1)):
                validate(M)
                if M.relations.cols:
                    modules._relation_lattice(M)
                for run in ("h1_bar", "free_cover"):
                    del bases[:], hnf_inputs[:], solvers[:], core_calls[:]
                    if run == "h1_bar":
                        h1_bar(M, full_subgroup(G))
                        (solver,) = solvers
                        reductions = 3
                    else:
                        cover = free_cover(M)
                        solver = cover.kernel._solver
                        reductions = 1
                    (basis,) = bases
                    assert solver.basis is basis
                    assert not any(B is basis for B in hnf_inputs)
                    assert len(core_calls) == reductions
                    checked += basis.cols > 0
        assert checked >= 20


class TestConjugate:
    def test_the_action_is_intertwined_and_the_relations_move(self):
        rng = random.Random(59)
        for G in group_zoo():
            for _ in range(3):
                M = random_module(rng, G)
                U = random_unimodular(rng, M.n)
                C = _conjugate(M, U)
                assert C.relations == U @ M.relations
                for k, mat in enumerate(M.action):
                    assert C.action[k] @ U == U @ mat, (G.order, k)


def left_translated(G, d, B, g):
    # rows of B moved by left translation by g on Z[G]^d: (h, k) -> (g*h, k)
    rows = [None] * B.rows
    for h in range(G.order):
        for k in range(d):
            rows[G.table[g][h] * d + k] = B.row(h * d + k)
    return IntMatrix.from_rows(rows, cols=B.cols)


class TestKernelMatricesOnDemand:
    def test_derived_matrices_match_a_freshly_validated_kernel(self):
        # the trusted kernel solves each matrix on first use; it must equal
        # the matrix a full validation derives along G.tree, and the basis
        # of Y must move by left translation under it
        rng = random.Random(71)
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                for _ in range(2):
                    M = random_module(rng, G, max_rank=3)
                    cover = free_cover(M)
                    Y = cover.kernel
                    assert Y.validated
                    fresh = GammaModule(G, Y.n, Y.relations, Y.action)
                    validate(fresh)
                    d = cover.cover_rank // G.order
                    for g in rng.sample(range(G.order), G.order):
                        assert Y.element_matrix(g) == fresh.element_matrix(g)
                        assert cover.kernel_basis @ Y.element_matrix(g) == left_translated(G, d, cover.kernel_basis, g)

    def test_deep_tree_walk_does_not_recurse(self):
        # Z/1100 from its table: every element is designated, the tree is a
        # path of depth 1099 along the first generator
        n = 1100
        G = from_table([[(a + b) % n for b in range(n)] for a in range(n)])
        depth = {G.identity: 0}
        for g, (parent, _) in G.tree.items():
            depth[g] = depth[parent] + 1
        far = max(depth, key=depth.get)
        assert depth[far] == n - 1
        M = GammaModule(G, 1, IntMatrix(1, 0, ()), [IntMatrix.from_rows([[(-1) ** g]]) for g in range(n)])
        # validate derives every element matrix in tree order, with no climb
        validate(M)
        assert M.element_matrix(far) == IntMatrix.from_rows([[(-1) ** (n - 1)]])

    def test_reading_one_kernel_matrix_stores_only_that_element(self):
        # Z/24 on one generator: the tree is a path of depth 23, and the
        # kernel solves its far end directly instead of storing the path
        G = cyclic(24)
        depth = {G.identity: 0}
        for g, (parent, _) in G.tree.items():
            depth[g] = depth[parent] + 1
        far = max(depth, key=depth.get)
        assert depth[far] == 23
        cover = free_cover(norm_one_module(G))
        Y = cover.kernel
        before = set(Y._matrices)
        mat = Y.element_matrix(far)
        assert set(Y._matrices) == before | {far} and far not in before
        d = cover.cover_rank // G.order
        assert cover.kernel_basis @ mat == left_translated(G, d, cover.kernel_basis, far)


class TestKernelActionsOnGeneratingPositions:
    def test_every_designated_generator_matches_a_direct_solve(self):
        # free_cover solves the kernel action on the generating positions and
        # the kernel solves the other designated generators on first read;
        # each must be the matrix that moves the kernel basis by left
        # translation
        rng = random.Random(211)
        derived = 0
        for P in group_zoo():
            T = from_table(P.table)
            for _ in range(3):
                M = random_module(rng, T)
                cover = free_cover(M)
                basis = cover.kernel_basis
                d = cover.cover_rank // T.order
                solver = ColumnSolver(basis)
                for k, g in enumerate(T.generator_indices):
                    expected = solver.solve(left_translated(T, d, basis, g))
                    assert cover.kernel.action[k] == expected, (T.order, k)
                    derived += k not in T.generating_positions
                verify_cover(cover)
        assert derived

    def test_the_kernel_keeps_the_matrices_free_cover_derived(self):
        # the solves of the action's entries become the kernel's element
        # matrices, so coinvariants and later reads reuse them instead of
        # solving again
        for P in group_zoo():
            T = from_table(P.table)
            Y = free_cover(norm_one_module(T)).kernel
            for k, g in enumerate(T.generator_indices):
                if k not in T.generating_positions:
                    assert Y.element_matrix(g) is Y.action[k], (T.order, k)

    def test_the_cover_of_a_table_group_derives_nothing_in_advance(self):
        # a table group designates every element; the kernel solves their
        # matrices when they are read, and the cover solves only the
        # generating positions while it is built
        for P in group_zoo():
            T = from_table(P.table)
            Y = free_cover(norm_one_module(T)).kernel
            solved = {T.generator_indices[k] for k in T.generating_positions}
            assert set(Y._matrices) <= {T.identity} | solved, T.order

    def test_derived_entries_match_an_eager_derivation_and_a_direct_solve(self):
        rng = random.Random(97)
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                for _ in range(2):
                    M = random_module(rng, G, max_rank=3)
                    cover = free_cover(M)
                    basis = cover.kernel_basis
                    d = cover.cover_rank // G.order
                    solver = ColumnSolver(basis)
                    gens = G.generator_indices
                    # every element matrix, eagerly, along the tree from the solves
                    eager = {G.identity: IntMatrix.identity(basis.cols)}
                    for g, (parent, k) in G.tree.items():
                        eager[g] = eager[parent] @ solver.solve(left_translated(G, d, basis, gens[k]))
                    action = cover.kernel.action
                    solved = {gens[k] for k in G.generating_positions}
                    assert set(cover.kernel._matrices) <= {G.identity} | solved
                    for k in rng.sample(range(len(gens)), len(gens)):
                        assert action[k] == eager[gens[k]], (G.order, k)
                        assert action[k] == solver.solve(left_translated(G, d, basis, gens[k])), (G.order, k)

    def test_the_derived_action_reads_as_a_tuple(self):
        T = from_table(s3().table)
        Y = free_cover(norm_one_module(T)).kernel
        whole = tuple(Y.action)
        assert len(Y.action) == len(whole) == T.order
        assert Y.action == whole and whole == Y.action and not Y.action != whole
        assert Y.action[-1] == whole[-1]
        assert Y.action[1:3] == whole[1:3] and type(Y.action[1:3]) is tuple
        assert Y.action[::-1] == whole[::-1]
        with pytest.raises(IndexError):
            Y.action[T.order]
        for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            Z = copier(Y)
            assert Z.action == whole and Z.validated
            assert tate_h_minus1(Z, full_subgroup(T)) == tate_h_minus1(Y, full_subgroup(T))


class TestSignCharacters:
    @staticmethod
    def all_sign_patterns(G):
        # one sign per designated generator, in increasing binary order
        gens = G.generator_indices
        out = []
        for bits in range(1 << len(gens)):
            action = [IntMatrix.from_rows([[-1 if bits >> k & 1 else 1]]) for k in range(len(gens))]
            M = GammaModule(G, 1, IntMatrix(1, 0, ()), action)
            try:
                validate(M)
            except ModuleError:
                continue
            out.append(tuple(m[0, 0] for m in M.element_matrices()))
        return out

    def test_matches_all_sign_patterns_on_table_copies(self):
        # the table copies of order <= 8 designate at most 8 generators
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                if len(G.generator_indices) <= 8:
                    assert sign_characters(G) == self.all_sign_patterns(G)

    def test_random_module_over_a_table_group_of_order_24(self):
        s4 = from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
        T = from_table(s4.table)
        assert len(sign_characters(T)) == 2
        M = random_module(random.Random(5), T)
        assert M.validated and M.group is T


class TestCoinvariants:
    def test_trivial_subgroup(self):
        P = coinvariants(norm_one_module(klein()), trivial_subgroup(klein()))
        assert P.cols == 0

    def test_sign_action(self):
        G = cyclic(2)
        P = coinvariants(sign_module(G), full_subgroup(G))
        assert P.rows == 1
        assert P.columns() == [(-2,)]
        assert cokernel_invariants(P) == FinAbInvariants((2,))

    def test_free_module_coinvariants_torsion_free(self):
        G = cyclic(2)
        inv = cokernel_invariants(coinvariants(free_module(G), full_subgroup(G)))
        assert inv == FinAbInvariants((), 1)

    def test_relations_are_honoured(self):
        # Z/4 with C2 acting by 3: Z / (4, 3 - 1) = Z/2
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix.from_columns([(4,)], rows=1), [IntMatrix.from_rows([[3]])])
        assert cokernel_invariants(coinvariants(M, full_subgroup(G))) == FinAbInvariants((2,))

    def test_no_identity_matrix_is_built(self, monkeypatch):
        # coinvariants and h1_bar subtract the identity entry by entry
        G = klein()
        M = norm_one_module(G)
        validate(M)

        def refuse(cls, n):
            raise AssertionError("a new identity matrix was built")

        monkeypatch.setattr(IntMatrix, "identity", classmethod(refuse))
        assert cokernel_invariants(coinvariants(M, full_subgroup(G))) == FinAbInvariants((2, 2))
        assert h1_bar(M, full_subgroup(G)) == FinAbInvariants((2,))

    def test_a_cover_kernel_solves_no_identity_matrix(self):
        # on a cover kernel the identity would be one more solve, B X = B;
        # cyclic_subgroups lists the trivial subgroup with generator e, and
        # the last subgroup lists every element
        G = a4()
        Y = free_cover(norm_one_module(G)).kernel
        assert cyclic_subgroups(G)[0].generators == (G.identity,)
        everything = Subgroup(elements=tuple(range(G.order)), generators=tuple(range(G.order)))
        for H in (full_subgroup(G), trivial_subgroup(G), *cyclic_subgroups(G), everything):
            coinvariants(Y, H)
        assert G.identity not in Y._matrices
        assert coinvariants(Y, cyclic_subgroups(G)[0]).cols == 0

    def test_a_subgroup_with_no_generators_still_validates(self):
        # the sign matrix doubled squares to 4, not 1: no action of C2
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix(1, 0, ()), [IntMatrix.from_rows([[-2]])])
        with pytest.raises(ModuleError, match="incompatible action"):
            coinvariants(M, trivial_subgroup(G))


class TestTateHMinus1:
    def test_free_module_trivial(self):
        for G in (cyclic(2), klein(), s3()):
            M = free_module(G)
            for H in all_subgroups_2gen(G):
                assert tate_h_minus1(M, H).is_trivial()

    def test_sign_action(self):
        G = cyclic(2)
        assert tate_h_minus1(sign_module(G), full_subgroup(G)) == FinAbInvariants((2,))

    def test_augmentation_ideal_of_klein(self):
        # torsion of the full coinvariants of the rank-3 augmentation lattice;
        # coset enumeration gives a group of order 4 and exponent 2
        G = klein()
        M = norm_one_module(G)
        P = coinvariants(M, full_subgroup(G))
        assert quotient_element_orders(P) == [1, 2, 2, 2]
        assert tate_h_minus1(M, full_subgroup(G)) == FinAbInvariants((2, 2))


class TestH1:
    def test_z2_trivial_coefficients(self):
        G = cyclic(2)
        assert h1(trivial_module(G), full_subgroup(G)) == FinAbInvariants((2,))

    def test_klein_augmentation_ideal(self):
        G = klein()
        M = norm_one_module(G)
        assert h1(M, full_subgroup(G)) == FinAbInvariants((2,))
        for g in (1, 2, 3):
            assert h1(M, subgroup_closure(G, (g,))).is_trivial()

    def test_bar_examples(self):
        G = klein()
        assert h1_bar(free_module(G), full_subgroup(G)).is_trivial()
        assert h1_bar(trivial_module(G), full_subgroup(G)) == FinAbInvariants((2, 2))
        C3 = cyclic(3)
        assert h1_bar(trivial_module(C3), full_subgroup(C3)) == FinAbInvariants((3,))

    def test_bar_walks_any_subgroup_order(self):
        # order 65: the only bound on the walk is the group-order cap applied
        # when a scenario is read
        G = cyclic(65)
        M = trivial_module(G)
        assert h1_bar(M, full_subgroup(G)) == h1(M, full_subgroup(G)) == FinAbInvariants((65,))

    def test_torsion_coefficients(self):
        # Z/2 with trivial C2-action: H_1(C2, Z/2) = Z/2 by both routes
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix.from_columns([(2,)], rows=1), [IntMatrix.identity(1)])
        assert h1(M, full_subgroup(G)) == FinAbInvariants((2,))
        assert h1_bar(M, full_subgroup(G)) == FinAbInvariants((2,))

    def test_coprime_torsion_vanishes(self):
        # |C2| and |Z/3| coprime, so homology dies; sign action keeps it honest
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix.from_columns([(3,)], rows=1), [IntMatrix.from_rows([[-1]])])
        assert h1(M, full_subgroup(G)).is_trivial()
        assert h1_bar(M, full_subgroup(G)).is_trivial()

    def test_universal_coefficients_value(self):
        # H_1(C2, Z/4 trivial) = C2 tensor Z/4 = Z/2
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix.from_columns([(4,)], rows=1), [IntMatrix.identity(1)])
        assert h1(M, full_subgroup(G)) == FinAbInvariants((2,))
        assert h1_bar(M, full_subgroup(G)) == FinAbInvariants((2,))

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(42)
        for _ in range(40):
            G = rng.choice(group_zoo())
            M = random_module(rng, G)
            H = random_subgroup(rng, G)
            assert h1(M, H) == h1_bar(M, H)

    def test_conjugation_invariance(self):
        from wadefect.groups import conjugate_subgroup

        rng = random.Random(43)
        for _ in range(15):
            G = rng.choice([s3(), q8(), a4()])
            M = random_module(rng, G)
            H = random_subgroup(rng, G)
            g = rng.randrange(G.order)
            assert h1(M, H) == h1(M, conjugate_subgroup(G, H, g))

    def test_cover_independence(self):
        rng = random.Random(44)
        for _ in range(10):
            G = rng.choice([klein(), s3()])
            M = random_module(rng, G)
            M2 = with_doubled_generators(M)
            validate(M2)
            M3 = _conjugate(M, random_unimodular(rng, M.n))
            for H in (full_subgroup(G), random_subgroup(rng, G)):
                assert h1(M, H) == h1(M2, H) == h1(M3, H)

    def test_abelianization_comparison(self):
        from wadefect.groups import abelianization, subgroup_cayley

        for G in (klein(), s3(), q8()):
            M = trivial_module(G)
            for H in all_subgroups_2gen(G):
                assert h1(M, H) == abelianization(subgroup_cayley(G, H))


def full_bar_denominator(M, H):
    # every column of the bar d2, n |H|^2 of them, then the relation-induced
    # chains, with h1_bar's boundary conventions and chain indexing
    G = M.group
    pos = {g: i for i, g in enumerate(H.elements)}
    n = M.n
    rows = n * H.order
    cols = []
    for a in H.elements:
        inv_cols = M.element_matrix(G.inverses[a]).columns()
        for b in H.elements:
            for i in range(n):
                col = [0] * rows
                col[pos[b] * n : pos[b] * n + n] = inv_cols[i]
                col[pos[G.table[a][b]] * n + i] -= 1
                col[pos[a] * n + i] += 1
                cols.append(col)
    for a in H.elements:
        for rc in M.relations.columns():
            col = [0] * rows
            col[pos[a] * n : pos[a] * n + n] = rc
            cols.append(col)
    return IntMatrix.from_columns(cols, rows=rows)


def full_bar_d1(M, H):
    # d1 on all of C1: block a is D[a^-1] - I
    G = M.group
    ident = M.element_matrix(G.identity)
    return hstack([M.element_matrix(G.inverses[a]) - ident for a in H.elements], rows=M.n)


def bar_tree_map(M, H):
    # T on all of C1, block a of n columns is T[a]: T[e] = 0 and
    # T[a s_j] = T[a] + D[a^-1] in block j along h1_bar's breadth-first tree
    G = M.group
    gens = subgroup_closure(G, H.generators).generators
    n = M.n
    rows = n * len(gens)
    T = {G.identity: [[0] * rows for _ in range(n)]}
    order = [G.identity]
    for a in order:
        inv_cols = M.element_matrix(G.inverses[a]).columns()
        for j, s in enumerate(gens):
            c = G.table[a][s]
            if c not in T:
                T[c] = [list(col) for col in T[a]]
                for i in range(n):
                    for r in range(n):
                        T[c][i][j * n + r] += inv_cols[i][r]
                order.append(c)
    return IntMatrix.from_columns([col for a in H.elements for col in T[a]], rows=rows)


def full_bar_h1(M, H):
    # H_1 from the full complex: one Hermite form of every boundary column,
    # split at its unit pivots, and the preimage of R under d1 on the kept
    # rows, modulo the block
    block, rows, _ = split_unit_pivots(hermite_column_form(full_bar_denominator(M, H)))
    d1 = full_bar_d1(M, H)
    d1_rows = IntMatrix.from_columns([d1.column(r) for r in rows], rows=M.n)
    return finite_quotient(preimage(d1_rows, M.relations), block)


def trusted(M):
    # M marked validated with its element matrices filled along G.tree as
    # validate fills them, but with none of its checks, so that h1_bar's
    # own checks meet actions that break the group law
    G = M.group
    D = M._matrices = {G.identity: IntMatrix.identity(M.n)}
    for g, (parent, k) in G.tree.items():
        D[g] = D[parent] @ M.action[k]
    M._validated = True
    return M


def breaks_d_d(M, H):
    # d∘d = 0 modulo R fails on some column of the full d2 or relation chain
    return not ColumnSolver(M.relations).contains(full_bar_d1(M, H) @ full_bar_denominator(M, H))


def points_module(perms):
    # augmentation kernel of the permutation module on the d points, basis
    # e_i - e_{d-1} for i < d - 1: the module of the degree-d norm-one torus
    G = from_permutations(perms)
    n = len(perms[0]) - 1
    action = []
    for p in perms:
        cols = []
        for i in range(n):
            col = [0] * n
            if p[i] != n:
                col[p[i]] += 1
            if p[n] != n:
                col[p[n]] -= 1
            cols.append(col)
        action.append(IntMatrix.from_columns(cols, rows=n))
    return GammaModule(G, n, IntMatrix(n, 0, ()), action)


@pytest.fixture
def bar_denominators(monkeypatch):
    # the matrices handed to the Hermite form of `modules`, in call order;
    # the last one of an h1_bar call is its boundary matrix, the only one it
    # reduces there
    seen = []

    def capture(B):
        seen.append(B)
        return hermite_column_form(B)

    monkeypatch.setattr(modules, "hermite_column_form", capture)
    return seen


class TestBarSpanningSet:
    def test_denominator_spans_the_full_boundary_lattice(self, bar_denominators):
        # the [e|e] and [a|s] chains, taken to the k generator blocks along
        # the tree, must span what every d2 column plus the relation chains
        # span there: the same lattice T(B), the H_1 of the full complex, and
        # the same H_1 as the cover
        rng = random.Random(81)
        with_relations = 0
        cases = 0
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                for i in range(3):
                    M = random_module(rng, G)
                    if i % 2 and not M.relations.cols:
                        M = _with_orbit_relations(rng, M, 1)
                    with_relations += bool(M.relations.cols)
                    H = random_subgroup(rng, G)
                    # hand-built, with every element listed as a generator
                    redundant = Subgroup(elements=H.elements, generators=H.elements)
                    for K in (full_subgroup(G), trivial_subgroup(G), H, redundant):
                        got = h1_bar(M, K)
                        den = bar_denominators[-1]
                        k = len(subgroup_closure(G, K.generators).generators)
                        assert den.rows == M.n * k
                        full = bar_tree_map(M, K) @ full_bar_denominator(M, K)
                        assert hermite_column_form(den) == hermite_column_form(full)
                        assert got == full_bar_h1(M, K), (G.order, K.elements)
                        assert got == h1(M, K)
                        cases += 1
        assert cases == 192
        # at least half of the 48 modules have relations
        assert with_relations >= 24

    def test_full_group_denominator_shapes(self, bar_denominators):
        # n k rows and n (|H| (k - 1) + 1) + |H| r columns, one block of n
        # per non-tree edge, with k = 2 generators and r = 0 relations; the
        # spanning set on all of C1 was n |H| x n (1 + |H| k), 132 x 275 for
        # A4, and the full d2 has n |H|^2 columns, 1,584 for A4
        s4_points = points_module([(1, 0, 2, 3), (1, 2, 3, 0)])
        for M, shape in ((norm_one_module(a4()), (22, 143)), (s4_points, (6, 75))):
            assert h1_bar(M, full_subgroup(M.group)) == FinAbInvariants((2,))
            den = bar_denominators[-1]
            assert (den.rows, den.cols) == shape


class TestBarBoundaryRoute:
    def test_broken_group_law_raises_containment_error(self):
        # marked validated, so h1_bar alone must see that the action breaks
        # the group law: s^2 = e acts by 4, on Z and on Z/5.  On Z/5 every
        # bad boundary is a unit-pivot column that the split drops, so only
        # the explicit d∘d check catches it
        G = cyclic(2)
        for relations in (IntMatrix(1, 0, ()), IntMatrix.from_columns([(5,)], rows=1)):
            M = trusted(GammaModule(G, 1, relations, [IntMatrix.from_rows([[2]])]))
            with pytest.raises(ContainmentError):
                h1_bar(M, full_subgroup(G))
        # S3 with both generators acting as the first one
        M = norm_one_module(s3())
        collapsed = GammaModule(M.group, M.n, M.relations, [M.action[0]] * 2)
        with pytest.raises(ModuleError):
            validate(collapsed)
        trusted(collapsed)
        with pytest.raises(ContainmentError):
            h1_bar(collapsed, full_subgroup(M.group))

    def test_perturbed_actions_raise_exactly_when_d_d_fails(self):
        # one action entry off by one, marked validated: h1_bar must raise
        # exactly when d1 of some column of the full d2 or relation chain
        # leaves R.  Its check (a), d1_red T(B) ⊆ R, runs first; the cases
        # that then fail (b), d1 = d1_red T modulo R, are the ones (a) alone
        # would let through
        rng = random.Random(14)
        cases = raised = only_b = 0
        for G in group_zoo() + [cyclic(4), cyclic(5)]:
            for t in range(60):
                M = random_module(rng, G)
                if t % 2:
                    M = _with_orbit_relations(rng, M, 1)
                k = rng.randrange(len(M.action))
                i, j = rng.randrange(M.n), rng.randrange(M.n)
                rows = M.action[k].to_rows()
                rows[i][j] += rng.choice((-1, 1))
                action = list(M.action)
                action[k] = IntMatrix.from_rows(rows)
                P = trusted(GammaModule(G, M.n, M.relations, action))
                for K in [full_subgroup(G)] + cyclic_subgroups(G):
                    try:
                        h1_bar(P, K)
                        message = None
                    except ContainmentError as exc:
                        message = str(exc)
                    assert (message is not None) == breaks_d_d(P, K), (G.order, K.elements)
                    cases += 1
                    raised += message is not None
                    only_b += message is not None and "generator blocks" in message
        assert cases == 3120
        assert 0 < raised < cases
        assert only_b >= 1

    def test_torsion_coefficients_where_chains_mod_boundaries_differ(self):
        # with relations, the torsion of C1 / B can exceed H_1 = K / B: the
        # cycles must be cut out by the preimage under d1, not read off B
        rng = random.Random(81)
        cases = differ = 0
        for G in group_zoo():
            for _ in range(3):
                M = _with_orbit_relations(rng, random_module(rng, G), 1)
                for K in (full_subgroup(G), random_subgroup(rng, G)):
                    got = h1_bar(M, K)
                    assert got == h1(M, K), (G.order, K.elements)
                    chains = cokernel_invariants(full_bar_denominator(M, K)).factors
                    differ += chains != got.factors
                    cases += 1
        assert cases == 48
        assert differ >= 8

    def test_tree_law_is_d1_equal_to_d1_red_t(self):
        # check (b), d1_red T[c] ≡ D[c^-1] - I modulo R on every c, telescopes
        # down the walk's tree to the group law D[s_j^-1] D[a^-1] ≡ D[c^-1]
        # on its edges c = a s_j: the walk must grow T by that recursion, and
        # _bar_tree_law must give the verdict of (b) itself, whether or not
        # the action obeys the group law
        rng = random.Random(37)
        cases = with_relations = perturbed = broken = 0
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                for t in range(4):
                    M = random_module(rng, G)
                    if t % 2:
                        M = _with_orbit_relations(rng, M, 1)
                    if t >= 2:
                        # one action entry off by one, marked validated
                        k = rng.randrange(len(M.action))
                        rows = M.action[k].to_rows()
                        rows[rng.randrange(M.n)][rng.randrange(M.n)] += rng.choice((-1, 1))
                        action = list(M.action)
                        action[k] = IntMatrix.from_rows(rows)
                        M = trusted(GammaModule(G, M.n, M.relations, action))
                        perturbed += 1
                    with_relations += bool(M.relations.cols)
                    for K in (full_subgroup(G), random_subgroup(rng, G)):
                        gens = subgroup_closure(G, K.generators).generators
                        n, rows = M.n, M.n * len(gens)
                        T, tree, _ = modules._bar_walk(M, gens)
                        assert T.keys() == set(K.elements) and tree.keys() == T.keys() - {G.identity}
                        assert T[G.identity] == IntMatrix(rows, n, [0] * (rows * n))
                        for c, (a, j) in tree.items():
                            assert G.table[a][gens[j]] == c
                            step = T[a].to_rows()
                            inv = M.element_matrix(G.inverses[a]).to_rows()
                            for i in range(n):
                                step[j * n + i] = [x + y for x, y in zip(step[j * n + i], inv[i])]
                            assert T[c] == IntMatrix.from_rows(step, cols=n)
                        dl = K.elements
                        T_all = hstack([T[g] for g in dl], rows=rows)
                        check_b = modules._congruent(M, modules._bar_d1(M, gens) @ T_all, modules._bar_d1(M, dl))
                        assert modules._bar_tree_law(M, gens, tree) == check_b, (G.order, K.elements)
                        broken += not check_b
                        cases += 1
        assert cases == 128
        assert with_relations >= 32 and perturbed == 32
        assert broken >= 8



class TestBarReach:
    def test_norm_one_of_order_48_and_60(self):
        # S4 x C2 and A5: C1 has rank n |H| = 2,256 and 3,540, the generator
        # blocks n k = 141 and 118
        s4_c2 = from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])
        a5 = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
        for G, expected in ((s4_c2, (2, 2)), (a5, (2,))):
            M = norm_one_module(G)
            got = h1_bar(M, full_subgroup(G))
            assert got == h1(M, full_subgroup(G)) == FinAbInvariants(expected)

    def test_points_module_of_order_168(self):
        # PSL(2,7) on the 8 points of P^1(F_7): x -> x + 1 and x -> -1/x.
        # By Shapiro's lemma the augmentation kernel sits between the Schur
        # multiplier Z/2 and H_1 of a point stabilizer of order 21, Z/3
        M = points_module([(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)])
        G = M.group
        assert G.order == 168
        got = h1_bar(M, full_subgroup(G))
        assert got == h1(M, full_subgroup(G)) == FinAbInvariants((6,))


def reference_norm_one(G):
    # the stock builders as they were written column by column through the
    # public IntMatrix constructors, kept as the reference for the one builder
    basis = [g for g in range(G.order) if g != G.identity]
    pos = {g: i for i, g in enumerate(basis)}
    n = len(basis)
    action = []
    for h in G.generator_indices:
        cols = []
        for g in basis:
            col = [0] * n
            hg = G.table[h][g]
            if hg != G.identity:
                col[pos[hg]] += 1
            if h != G.identity:
                col[pos[h]] -= 1
            cols.append(col)
        action.append(IntMatrix.from_columns(cols, rows=n))
    return GammaModule(G, n, IntMatrix(n, 0, ()), action)


def reference_induced(G, delta):
    coset_of, reps = {}, []
    for g in range(G.order):
        if g in coset_of:
            continue
        for d in delta.elements:
            coset_of[G.table[g][d]] = len(reps)
        reps.append(g)
    n = len(reps)
    action = []
    for h in G.generator_indices:
        cols = []
        for rep in reps:
            col = [0] * n
            col[coset_of[G.table[h][rep]]] = 1
            cols.append(col)
        action.append(IntMatrix.from_columns(cols, rows=n))
    return GammaModule(G, n, IntMatrix(n, 0, ()), action)


def reference_trivial(G, rank):
    return GammaModule(G, rank, IntMatrix(rank, 0, ()), [IntMatrix.identity(rank)] * len(G.generator_indices))


def reference_free(G, copies):
    N = G.order
    n = N * copies
    action = []
    for h in G.generator_indices:
        cols = []
        for c in range(copies):
            for g in range(N):
                col = [0] * n
                col[c * N + G.table[h][g]] = 1
                cols.append(col)
        action.append(IntMatrix.from_columns(cols, rows=n))
    return GammaModule(G, n, IntMatrix(n, 0, ()), action)


def reference_direct_sum(M1, M2):
    n = M1.n + M2.n
    rel_cols = [tuple(c) + (0,) * M2.n for c in M1.relations.columns()]
    rel_cols += [(0,) * M1.n + tuple(c) for c in M2.relations.columns()]
    relations = IntMatrix.from_columns(rel_cols, rows=n) if rel_cols else IntMatrix(n, 0, ())
    action = []
    for a, b in zip(M1.action, M2.action):
        cols = [tuple(c) + (0,) * M2.n for c in a.columns()]
        cols += [(0,) * M1.n + tuple(c) for c in b.columns()]
        action.append(IntMatrix.from_columns(cols, rows=n))
    return GammaModule(M1.group, n, relations, action)


def reference_doubled(M):
    n = M.n
    n2 = 2 * n
    rel_cols = [tuple(c) + (0,) * n for c in M.relations.columns()]
    for i in range(n):
        col = [0] * n2
        col[i] = 1
        col[n + i] = -1
        rel_cols.append(tuple(col))
    relations = IntMatrix.from_columns(rel_cols, rows=n2)
    action = []
    for a in M.action:
        cols = [tuple(c) + (0,) * n for c in a.columns()]
        cols += [(0,) * n + tuple(c) for c in a.columns()]
        action.append(IntMatrix.from_columns(cols, rows=n2))
    return GammaModule(M.group, n2, relations, action)


class TestConstructions:
    def test_norm_one_trivial_group(self):
        assert norm_one_module(cyclic(1)).n == 0

    def test_norm_one_z2(self):
        M = norm_one_module(cyclic(2))
        assert M.n == 1
        assert M.action[0] == IntMatrix.from_rows([[-1]])

    def test_norm_one_klein_action(self):
        # expanding h*(g - e) = (hg - e) - (h - e) for h = first generator
        M = norm_one_module(klein())
        assert M.action[0].columns() == [(-1, 0, 0), (-1, 0, 1), (-1, 1, 0)]

    def test_induced_full_subgroup_is_trivial_z(self):
        G = klein()
        M = induced_module(G, full_subgroup(G))
        assert M.n == 1
        assert all(m == IntMatrix.identity(1) for m in M.action)

    def test_induced_trivial_subgroup_is_free(self):
        G = klein()
        M = induced_module(G, trivial_subgroup(G))
        assert M.n == 4
        for H in all_subgroups_2gen(G):
            assert h1(M, H).is_trivial()

    def test_induced_coset_swap(self):
        G = klein()
        M = induced_module(G, subgroup_closure(G, (1,)))
        assert M.n == 2
        assert M.action[0] == IntMatrix.identity(2)
        assert M.action[1] == IntMatrix.from_rows([[0, 1], [1, 0]])

    def test_rank_zero_module(self):
        G = klein()
        M = GammaModule(G, 0, IntMatrix(0, 0, ()), [IntMatrix.identity(0)] * 2)
        assert h1(M, full_subgroup(G)).is_trivial()
        assert h1_bar(M, full_subgroup(G)).is_trivial()

    def test_direct_sum_h1_splits(self):
        G = klein()
        M = direct_sum(trivial_module(G), norm_one_module(G))
        got = h1(M, full_subgroup(G))
        assert got == FinAbInvariants((2, 2, 2))

    def test_lattice_requires_no_relations(self):
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix.from_columns([(2,)], rows=1), [IntMatrix.identity(1)])
        with pytest.raises(ModuleError):
            tate_h_minus1(M, full_subgroup(G))

    def test_builders_match_the_reference_constructions(self):
        # every stock builder against its column-by-column reference, entry
        # for entry, over the zoo groups and their table copies
        def same(M, R):
            assert (M.group, M.n, M.relations, M.action) == (R.group, R.n, R.relations, R.action)
            assert all(type(e) is int for m in (M.relations, *M.action) for e in m.entries)

        rng = random.Random(97)
        compared = 0
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                pairs = [(norm_one_module(G), reference_norm_one(G))]
                for H in [trivial_subgroup(G), full_subgroup(G)] + cyclic_subgroups(G):
                    pairs.append((induced_module(G, H), reference_induced(G, H)))
                for k in (1, 2, 3):
                    pairs.append((trivial_module(G, k), reference_trivial(G, k)))
                    pairs.append((free_module(G, k), reference_free(G, k)))
                draws = [random_module(rng, G) for _ in range(3)] + [norm_one_module(G)]
                for A, B in zip(draws, draws[1:] + draws[:1]):
                    pairs.append((direct_sum(A, B), reference_direct_sum(A, B)))
                    pairs.append((with_doubled_generators(A), reference_doubled(A)))
                for M, R in pairs:
                    same(M, R)
                compared += len(pairs)
        assert compared > 300
