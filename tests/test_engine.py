import itertools
import math
import random
from collections import Counter
from copy import deepcopy

import pytest

from wadefect.engine import (
    DefectResult,
    Scenario,
    ScenarioError,
    _bar_head,
    _class_representatives,
    _image_quotient,
    _is_detectably_free,
    _y_head,
    ch1_torus,
    defect,
    quick_vanish,
    validate_scenario,
    verify_cover,
)
from wadefect.groups import (
    Subgroup,
    conjugate_subgroup,
    cyclic_subgroups,
    from_permutations,
    from_table,
    full_subgroup,
    is_cyclic_subgroup,
    subgroup_closure,
    trivial_subgroup,
)
from wadefect.linalg import (
    ColumnSolver,
    FinAbInvariants,
    IntMatrix,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    hstack,
    torsion_generators,
)
from wadefect.modules import (
    GammaModule,
    ModuleError,
    coinvariants,
    direct_sum,
    free_cover,
    free_module,
    h1,
    induced_module,
    norm_one_module,
    trivial_module,
    validate,
)
from wadefect.oracles import all_subgroups_2gen
from wadefect.zoo import (
    _conjugate,
    a4,
    cyclic,
    d4,
    group_zoo,
    klein,
    q8,
    random_module,
    random_subgroup,
    random_unimodular,
    s3,
)


def klein_scenario(s_full, sc_full, module=None):
    if module is None:
        module = norm_one_module(klein())
    G = module.group
    full = full_subgroup(G)
    return Scenario(G, module, (full,) * s_full, (full,) * sc_full)


def cols_of(v):
    return IntMatrix.from_columns([v], rows=len(v))


def local_torsion(cover, H):
    """Torsion generators of the H-coinvariants of the cover kernel, as columns."""
    return torsion_generators(coinvariants(cover.kernel, H))


class TestLocalImage:
    def test_trivial_subgroup_gives_zero(self):
        cover = free_cover(norm_one_module(klein()))
        assert local_torsion(cover, trivial_subgroup(klein())).cols == 0

    def test_full_group_gives_order_two(self):
        G = klein()
        cover = free_cover(norm_one_module(G))
        gens = local_torsion(cover, full_subgroup(G))
        assert gens.cols == 1
        v = gens.column(0)
        rel = coinvariants(cover.kernel, full_subgroup(G))
        solver = ColumnSolver(rel)
        assert not solver.contains(cols_of(v))
        assert solver.contains(cols_of(tuple(2 * e for e in v)))

    def test_cyclic_subgroups_give_zero(self):
        G = klein()
        cover = free_cover(norm_one_module(G))
        for g in (1, 2, 3):
            assert local_torsion(cover, subgroup_closure(G, (g,))).cols == 0


class TestDefectKleinExample:
    def test_both_places(self):
        res = defect(klein_scenario(2, 0))
        assert res.invariants == FinAbInvariants((2,))
        assert res.shortcut is None
        assert res.s_nc_used == (0, 1)

    def test_single_place(self):
        assert defect(klein_scenario(1, 0)).invariants == FinAbInvariants((2,))

    def test_complement_full_kills_it(self):
        res = defect(klein_scenario(2, 1))
        assert res.invariants.is_trivial()
        # and the full pipeline agrees with the shortcut
        assert defect(klein_scenario(2, 1), use_shortcuts=False).invariants.is_trivial()

    def test_all_cyclic_s(self):
        G = klein()
        cyc = subgroup_closure(G, (1,))
        sc = Scenario(G, norm_one_module(G), (cyc, trivial_subgroup(G)), ())
        assert defect(sc).invariants.is_trivial()
        assert defect(sc, use_shortcuts=False).invariants.is_trivial()

    def test_free_module(self):
        sc = klein_scenario(2, 0, module=free_module(klein()))
        assert defect(sc).invariants.is_trivial()
        assert defect(sc, use_shortcuts=False).invariants.is_trivial()

    def test_induced_module_vanishes(self):
        G = klein()
        M = induced_module(G, subgroup_closure(G, (1,)))
        sc = Scenario(G, M, (full_subgroup(G),), ())
        assert defect(sc, use_shortcuts=False).invariants.is_trivial()

    def test_rank_zero_module(self):
        G = klein()
        M = GammaModule(G, 0, IntMatrix(0, 0, ()), [IntMatrix.identity(0)] * 2)
        sc = Scenario(G, M, (full_subgroup(G),), ())
        assert defect(sc, use_shortcuts=False).invariants.is_trivial()


class TestQuickVanish:
    def test_complement_full_tag(self):
        res = quick_vanish(klein_scenario(1, 1))
        assert res is not None and res.shortcut == "complement-full-group"

    def test_all_cyclic_tag(self):
        G = klein()
        sc = Scenario(G, norm_one_module(G), (subgroup_closure(G, (1,)),), ())
        res = quick_vanish(sc)
        assert res is not None and res.shortcut == "all-cyclic-S"

    def test_empty_s_counts_as_all_cyclic(self):
        M = norm_one_module(klein())
        res = quick_vanish(Scenario(M.group, M, (), ()))
        assert res is not None and res.shortcut == "all-cyclic-S"

    def test_free_module_tag(self):
        res = quick_vanish(klein_scenario(1, 0, module=free_module(klein())))
        assert res is not None and res.shortcut == "free-module"

    def test_no_condition_met(self):
        assert quick_vanish(klein_scenario(1, 0)) is None

    def test_induced_module_is_not_detectably_free(self):
        # quasi-trivial but not free: the shortcut must not fire, the pipeline
        # still computes zero
        G = klein()
        M = induced_module(G, subgroup_closure(G, (1,)))
        sc = Scenario(G, M, (full_subgroup(G),), ())
        assert quick_vanish(sc) is None


    def test_generator_orbits_match_the_element_scan(self):
        # the shortcut reads the generating positions only; the reference
        # scans every element matrix for a fixed-point-free permutation action
        def element_scan(M):
            if M.relations.cols or M.n % M.group.order:
                return False
            G = M.group
            for g in range(G.order):
                mat = M.element_matrix(g)
                images = []
                for j in range(M.n):
                    col = mat.column(j)
                    ones = [i for i, e in enumerate(col) if e == 1]
                    if len(ones) != 1 or any(e not in (0, 1) for e in col):
                        return False
                    images.append(ones[0])
                if sorted(images) != list(range(M.n)):
                    return False
                if g != G.identity and any(images[j] == j for j in range(M.n)):
                    return False
            return True

        rng = random.Random(503)
        checked = free = 0
        for P in group_zoo():
            for G in (P, from_table(P.table)):
                subgroups = [trivial_subgroup(G), full_subgroup(G)] + cyclic_subgroups(G)
                modules = [free_module(G, k) for k in (1, 2, 3)]
                modules += [induced_module(G, H) for H in subgroups]
                modules += [direct_sum(free_module(G), induced_module(G, H)) for H in subgroups]
                modules += [random_module(rng, G) for _ in range(16)]
                for M in modules:
                    expected = element_scan(M)
                    assert _is_detectably_free(M) == expected, (G.order, M.n)
                    checked += 1
                    free += expected
        assert checked >= 500 and 100 <= free < checked


class TestReduceToNoncyclic:
    def test_filters_cyclic_entries(self):
        G = klein()
        cyc = subgroup_closure(G, (1,))
        sc = Scenario(G, norm_one_module(G), (cyc, full_subgroup(G)), ())
        assert defect(sc).s_nc_used == (1,)

    def test_defect_invariant_randomized(self):
        rng = random.Random(600)
        for _ in range(10):
            G = rng.choice(group_zoo())
            M = random_module(rng, G)
            s = tuple(random_subgroup(rng, G) for _ in range(rng.randint(1, 3)))
            scs = tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2)))
            noncyclic = tuple(H for H in s if not is_cyclic_subgroup(G, H))
            assert defect(Scenario(G, M, s, scs), use_shortcuts=False).invariants == \
                defect(Scenario(G, M, noncyclic, scs), use_shortcuts=False).invariants


class TestEngineProperties:
    def test_results_are_finite(self):
        rng = random.Random(601)
        for _ in range(8):
            G = rng.choice(group_zoo())
            sc = Scenario(G, random_module(rng, G),
                          tuple(random_subgroup(rng, G) for _ in range(2)), ())
            assert defect(sc, use_shortcuts=False).invariants.free_rank == 0

    def test_complement_append_divides_order(self):
        rng = random.Random(602)
        for _ in range(8):
            G = rng.choice([klein(), d4(), q8(), a4()])
            M = random_module(rng, G)
            s = (full_subgroup(G),)
            base = defect(Scenario(G, M, s, ()), use_shortcuts=False)
            extra = random_subgroup(rng, G)
            more = defect(Scenario(G, M, s, (extra,)), use_shortcuts=False)
            assert base.invariants.order % more.invariants.order == 0

    def test_s_sublist_order_divides(self):
        rng = random.Random(603)
        for _ in range(8):
            G = rng.choice([klein(), d4(), a4()])
            M = random_module(rng, G)
            s1 = (random_subgroup(rng, G),)
            s2 = s1 + (random_subgroup(rng, G),)
            small = defect(Scenario(G, M, s1, ()), use_shortcuts=False)
            big = defect(Scenario(G, M, s2, ()), use_shortcuts=False)
            assert big.invariants.order % small.invariants.order == 0

    def test_conjugate_entries_change_nothing(self):
        rng = random.Random(604)
        for _ in range(8):
            G = rng.choice([s3(), d4(), q8()])
            M = random_module(rng, G)
            H = random_subgroup(rng, G)
            g = rng.randrange(G.order)
            a = defect(Scenario(G, M, (H,), ()), use_shortcuts=False)
            b = defect(Scenario(G, M, (conjugate_subgroup(G, H, g),), ()), use_shortcuts=False)
            assert a.invariants == b.invariants

    def test_repeated_subgroups_idempotent(self):
        G = klein()
        M = norm_one_module(G)
        full = full_subgroup(G)
        once = defect(Scenario(G, M, (full,), ()), use_shortcuts=False)
        thrice = defect(Scenario(G, M, (full, full, full), ()), use_shortcuts=False)
        assert once.invariants == thrice.invariants

    def test_explicit_cyclic_complement_entries_are_noise(self):
        rng = random.Random(605)
        G = d4()
        M = random_module(rng, G)
        s = (full_subgroup(G),)
        base = defect(Scenario(G, M, s, ()), use_shortcuts=False)
        cyc = subgroup_closure(G, (1,))
        with_cyc = defect(Scenario(G, M, s, (cyc,)), use_shortcuts=False)
        assert base.invariants == with_cyc.invariants


class TestCh1Torus:
    def test_free_cocharacters_vanish(self):
        G = klein()
        full = full_subgroup(G)
        assert ch1_torus(G, free_module(G), (full,), ()).is_trivial()
        assert ch1_torus(G, free_module(G), (full, full), (full,)).is_trivial()

    def test_cyclic_group_has_empty_numerator(self):
        G = cyclic(2)
        Msign = GammaModule(G, 1, IntMatrix(1, 0, ()), [IntMatrix.from_rows([[-1]])])
        assert ch1_torus(G, Msign, (full_subgroup(G),), ()).is_trivial()

    def test_klein_augmentation_cocharacters(self):
        # all three cyclic images together cover the (Z/2)^2 coinvariant
        # torsion, so the quotient vanishes; hand-checked by coset reduction
        G = klein()
        got = ch1_torus(G, norm_one_module(G), (full_subgroup(G),), ())
        assert got.is_trivial()

    def test_rejects_relations(self):
        G = cyclic(2)
        M = GammaModule(G, 1, IntMatrix.from_columns([(2,)], rows=1), [IntMatrix.identity(1)])
        with pytest.raises(ModuleError):
            ch1_torus(G, M, (full_subgroup(G),), ())

    def test_each_single_fault_raises_its_error_type(self):
        G = klein()
        full = full_subgroup(G)
        not_closed = Subgroup(elements=(0, 1, 2), generators=(1, 2))
        broken = GammaModule(G, 1, IntMatrix(1, 0, ()), [IntMatrix.from_rows([[2]])] * len(G.generator_indices))
        with pytest.raises(ScenarioError):
            ch1_torus(klein(), norm_one_module(G), (full,), ())
        with pytest.raises(ModuleError):
            ch1_torus(G, broken, (full,), ())
        with pytest.raises(ScenarioError):
            ch1_torus(G, norm_one_module(G), (not_closed,), ())
        with pytest.raises(ScenarioError):
            ch1_torus(G, norm_one_module(G), (full,), (not_closed,))

    def test_matches_defect_through_the_cover_kernel(self):
        # feeding the cover kernel back through the torus pipeline
        # reproduces the defect
        rng = random.Random(606)
        for _ in range(5):
            G = rng.choice([klein(), s3()])
            M = random_module(rng, G)
            s = (full_subgroup(G),)
            cover = free_cover(M)
            assert ch1_torus(G, cover.kernel, s, ()) == defect(Scenario(G, M, s, ()), use_shortcuts=False).invariants


class TestScenarioValidation:
    def test_module_group_identity(self):
        G1, G2 = klein(), klein()
        with pytest.raises(ScenarioError):
            validate_scenario(Scenario(G1, norm_one_module(G2), (), ()))

    def test_bad_subgroup(self):
        G = klein()
        bad = Subgroup(elements=(0, 1, 2))
        with pytest.raises(ScenarioError):
            validate_scenario(Scenario(G, norm_one_module(G), (bad,), ()))

    def test_defect_result_rejects_free_rank(self):
        with pytest.raises(AssertionError):
            DefectResult(FinAbInvariants((), 1), ())


def test_verify_cover_passes_on_valid_covers():
    for G in (klein(), s3()):
        verify_cover(free_cover(norm_one_module(G)))
        verify_cover(free_cover(trivial_module(G, 2)))


def test_verify_cover_catches_a_corrupted_trusted_kernel():
    # the kernel is marked validated by construction, so validate(kernel)
    # alone would accept anything; verify_cover must check a fresh copy
    cover = free_cover(norm_one_module(s3()))
    Y = cover.kernel
    Y.action = (Y.action[1], Y.action[0])
    assert Y.validated
    with pytest.raises(AssertionError):
        verify_cover(cover)


def test_verify_cover_rejects_an_identity_kernel_action():
    # identity matrices obey the group law, so a law check alone accepts
    # them, and H_1 then reads 0 instead of Z/2
    G = klein()
    M = norm_one_module(G)
    cover = free_cover(M)
    assert h1(M, full_subgroup(G)) == FinAbInvariants((2,))
    Y = cover.kernel
    # the kernel reads its action from its stored element matrices
    Y._matrices = {g: IntMatrix.identity(Y.n) for g in G.generator_indices}
    validate(GammaModule(G, Y.n, Y.relations, Y.action))
    assert h1(M, full_subgroup(G)) == FinAbInvariants()
    with pytest.raises(AssertionError, match="left translation"):
        verify_cover(cover)


def test_verify_cover_rejects_conjugated_kernels():
    # a unimodular conjugate of the kernel action is lawful but no longer
    # the left translation on the kernel basis
    rng = random.Random(9)
    rejected = 0
    for P in group_zoo():
        for G in (P, from_table(P.table)):
            for M in (norm_one_module(G), trivial_module(G, 2)):
                cover = free_cover(M)
                Y = cover.kernel
                if Y.n < 2:
                    continue
                conjugate = _conjugate(Y, random_unimodular(rng, Y.n))
                if conjugate.action == Y.action:
                    continue
                validate(GammaModule(G, Y.n, Y.relations, conjugate.action))
                Y.action = conjugate.action
                Y._matrices.clear()
                with pytest.raises(AssertionError, match="cover kernel"):
                    verify_cover(cover)
                rejected += 1
    assert rejected >= 20


def test_verify_cover_derives_no_kernel_matrix():
    # the checks read only the generating positions' matrices, which
    # free_cover solves, so a table group's kernel stores no other element
    # matrix beyond the identity
    s5 = from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    for P in group_zoo() + [s5]:
        T = from_table(P.table)
        cover = free_cover(norm_one_module(T))
        verify_cover(cover)
        solved = {T.generator_indices[k] for k in T.generating_positions}
        assert set(cover.kernel._matrices) <= {T.identity} | solved, T.order


def test_s4_norm_one_defect_derives_few_kernel_matrices():
    G = s4()
    M = norm_one_module(G)
    defect(Scenario(G, M, (full_subgroup(G),), ()), use_shortcuts=False)
    # the identity plus the generators of the few subgroups adjoined
    assert len(free_cover(M).kernel._matrices) < G.order


def zassenhaus_intersection(B1, B2):
    """Canonical basis of span(B1) ∩ span(B2), by Zassenhaus' method.

    The columns of [B1 B2; B1 0] span the pairs (B1 x + B2 y; B1 x); those
    with zero top have B1 x = -B2 y, so the bottoms of the Hermite columns
    with zero top are a basis of the intersection, in canonical form.
    """
    m = B1.rows
    top = hstack([B1, B2])
    stacked = [top.column(j) + (B1.column(j) if j < B1.cols else (0,) * m) for j in range(top.cols)]
    H = hermite_column_form(IntMatrix.from_columns(stacked, rows=2 * m))
    return IntMatrix.from_columns([c[m:] for c in H.columns() if not any(c[:m])], rows=m)


# The pruned pipeline against the unpruned one: every non-cyclic S entry,
# every non-cyclic complement entry and every cyclic subgroup, adjoined as
# given, and the defect taken as N1 / (N1 ∩ N2) rather than (N1 + N2) / N2.
# `image(H)` may serve the torsion images from a cache.
def unpruned_quotient(Y, s_subgroups, sc_subgroups, image=None):
    G = Y.group
    base = hermite_column_form(coinvariants(Y, full_subgroup(G)))
    if image is None:
        def image(H):
            return torsion_generators(coinvariants(Y, H))

    def joined(subgroups):
        out = base
        for H in subgroups:
            out = hermite_column_form(hstack([out, image(H)]))
        return out

    num = joined(H for H in s_subgroups if not is_cyclic_subgroup(G, H))
    den = joined([H for H in sc_subgroups if not is_cyclic_subgroup(G, H)] + cyclic_subgroups(G))
    return finite_quotient(num, zassenhaus_intersection(num, den))


def z2_cubed():
    return from_permutations([(1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 0, 1, 6, 7, 4, 5), (4, 5, 6, 7, 0, 1, 2, 3)])


def s4():
    return from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])


def relabelled_copy(rng, M):
    """M over the group of its table with the elements renamed at random."""
    G = M.group
    name = list(range(G.order))
    rng.shuffle(name)
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[name[a]][name[b]] = name[G.table[a][b]]
    mats = M.element_matrices()
    action = [None] * G.order
    for a in range(G.order):
        action[name[a]] = mats[a]
    # from_table designates every element as a generator, in index order
    return GammaModule(from_table(table), M.n, M.relations, action)


def norm_one_based_scenario(rng, G):
    M = norm_one_module(G)
    shape = rng.randrange(3)
    if shape == 1:
        M = direct_sum(M, random_module(rng, G, max_rank=2))
    elif shape == 2:
        M = _conjugate(M, random_unimodular(rng, M.n))
    if rng.random() < 0.25:
        M = relabelled_copy(rng, M)
        G = M.group
    first = full_subgroup(G) if rng.random() < 0.4 else random_subgroup(rng, G)
    s = [first] + [random_subgroup(rng, G) for _ in range(rng.randint(0, 1))]
    s.append(rng.choice([first, conjugate_subgroup(G, first, rng.randrange(G.order))]))
    scs = tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2)))
    return Scenario(G, M, tuple(s), scs)


class TestClassRepresentatives:
    def test_pruned_matches_unpruned_randomized(self):
        rng = random.Random(610)
        groups = group_zoo() + [z2_cubed(), s4()]
        nontrivial = 0
        for _ in range(40):
            sc = norm_one_based_scenario(rng, rng.choice(groups))
            G, M = sc.group, sc.module
            got = defect(sc, use_shortcuts=False).invariants
            assert got == unpruned_quotient(free_cover(M).kernel, sc.s_subgroups, sc.sc_subgroups)
            nontrivial += not got.is_trivial()
            Y = M if not M.relations.cols else free_cover(M).kernel
            assert ch1_torus(G, Y, sc.s_subgroups, sc.sc_subgroups) == \
                unpruned_quotient(Y, sc.s_subgroups, sc.sc_subgroups)
        # agreement on trivial answers alone would not exercise the denominator
        assert nontrivial >= 5

    def test_cyclic_representatives_kept(self):
        a5 = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
        s4_c2 = from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])
        for G, total, kept in ((s4(), 17, 3), (a5, 32, 3), (s4_c2, 34, 6)):
            cyclic = cyclic_subgroups(G)
            assert (len(cyclic), len(_class_representatives(G, cyclic))) == (total, kept)

    def test_s4_norm_one_defect_takes_four_coinvariants(self, monkeypatch):
        # the ambient, the full S entry and 2 of the 17 cyclic subgroups:
        # T = Z/2, so the representative of order 3 is dropped before the
        # containment pruning keeps those of orders 4 and 2
        import wadefect.engine as engine_mod

        calls = []
        real = engine_mod.coinvariants

        def counting(M, H):
            calls.append(H)
            return real(M, H)

        monkeypatch.setattr(engine_mod, "coinvariants", counting)
        G = s4()
        defect(Scenario(G, norm_one_module(G), (full_subgroup(G),), ()), use_shortcuts=False)
        assert len(calls) == 4


class TestSumQuotient:
    def test_normal_forms_stay_in_linalg(self):
        # T's coordinates come from linalg.torsion_coordinates; the engine
        # takes no Hermite form, split or Smith form of its own
        import wadefect.engine as engine_mod

        assert not {"hermite_column_form", "smith_normal_form", "split_unit_pivots"} & vars(engine_mod).keys()

    def test_one_hermite_form_per_lattice(self, monkeypatch):
        # one Hermite form per torsion image, one of the ambient L_G for T's
        # coordinates, one of D in those coordinates for the T / D exit, and
        # one inside finite_quotient: its preimage, whose canonical form is
        # split as it comes; no Hermite form is taken of D over Y.  Every
        # Hermite form runs through linalg._hnf, which is counted
        import wadefect.engine as engine_mod
        import wadefect.linalg as linalg_mod

        hnf_calls, torsion_calls = [], []
        real_hnf, real_torsion = linalg_mod._hnf, engine_mod.torsion_generators

        def counting_hnf(columns, m):
            hnf_calls.append(m)
            return real_hnf(columns, m)

        def counting_torsion(relations):
            torsion_calls.append(relations.cols)
            return real_torsion(relations)

        G = s4()
        M = norm_one_module(G)
        kernel = free_cover(M).kernel
        monkeypatch.setattr(linalg_mod, "_hnf", counting_hnf)
        monkeypatch.setattr(engine_mod, "torsion_generators", counting_torsion)
        sc = Scenario(G, M, (full_subgroup(G),) * 2, (random_subgroup(random.Random(1), G),))
        assert defect(sc, use_shortcuts=False).invariants == FinAbInvariants((2,))
        assert free_cover(M).kernel is kernel
        # the full S entry once, and the cyclic representatives of orders 4
        # and 2; T = Z/2 drops the one of order 3, and the cyclic complement
        # entry lies in a conjugate of a kept one
        assert len(torsion_calls) == 3
        assert len(hnf_calls) == len(torsion_calls) + 3

    def test_quotient_receives_the_s_side_images_alone(self, monkeypatch):
        # D is not passed beside the S-side images: finite_quotient forms
        # (D + images) / D itself, in T's coordinates.  Both matrices have
        # rank(T) rows and D begins with diag(d_i), so T = Z^r / diag(d_i).
        import wadefect.engine as engine_mod

        calls = []

        def recording(num, den):
            calls.append((num, den))
            return finite_quotient(num, den)

        G = s4()
        M = norm_one_module(G)
        full = full_subgroup(G)
        monkeypatch.setattr(engine_mod, "finite_quotient", recording)
        assert defect(Scenario(G, M, (full, full), ()), use_shortcuts=False).invariants == FinAbInvariants((2,))
        (num, den), = calls
        Y = free_cover(M).kernel
        moduli = cokernel_invariants(coinvariants(Y, full)).factors
        r = len(moduli)
        diagonal = IntMatrix.from_rows([[d * (i == j) for j in range(r)] for i, d in enumerate(moduli)])
        assert num.rows == den.rows == r
        assert den.columns()[:r] == diagonal.columns()
        # one column per torsion generator of the full S entry, whose image
        # is all of T
        assert num.cols == torsion_generators(coinvariants(Y, full)).cols
        assert finite_quotient(num, diagonal) == FinAbInvariants(moduli)

    def test_quotient_entries_are_bounded_by_the_moduli(self, monkeypatch):
        # the image stage's stated entry bound: with T = ⊕ Z/d_i, the
        # quotient's num and den have rank(T) rows, den begins with
        # diag(d_i), and every other entry of row i lies in [0, d_i),
        # whatever the size of the cover kernel
        import wadefect.engine as engine_mod

        calls = []

        def recording(num, den):
            calls.append((num, den))
            return finite_quotient(num, den)

        monkeypatch.setattr(engine_mod, "finite_quotient", recording)
        rng = random.Random(3131)
        groups = group_zoo() + [z2_cubed(), s4()]
        checked = 0
        for _ in range(100):
            sc = norm_one_based_scenario(rng, rng.choice(groups))
            calls.clear()
            defect(sc, use_shortcuts=False)
            if not calls:
                continue
            (num, den), = calls
            Y = free_cover(sc.module).kernel
            moduli = cokernel_invariants(coinvariants(Y, full_subgroup(sc.group))).factors
            r = len(moduli)
            assert num.rows == den.rows == r
            for i, d in enumerate(moduli):
                assert den.row(i)[:r] == tuple(d * (i == j) for j in range(r))
                assert all(0 <= e < d for e in num.row(i) + den.row(i)[r:]), (i, d)
            checked += 1
        assert checked >= 15

    def test_zassenhaus_intersection_contained_and_isomorphic(self):
        rng = random.Random(13)
        for _ in range(25):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            b1 = IntMatrix(n, k, (rng.randint(-4, 4) for _ in range(n * k)))
            b2 = IntMatrix(n, 2, (rng.randint(-4, 4) for _ in range(n * 2)))
            inter = zassenhaus_intersection(b1, b2)
            assert ColumnSolver(b1).contains(inter)
            assert ColumnSolver(b2).contains(inter)
        # for full-rank pairs, (L1 + L2) / L2 and L1 / (L1 ∩ L2) are isomorphic
        for _ in range(25):
            n = rng.randint(1, 4)
            k1, k2 = rng.randint(n, 5), rng.randint(n, 5)
            b1 = IntMatrix(n, k1, (rng.randint(-4, 4) for _ in range(n * k1)))
            b2 = IntMatrix(n, k2, (rng.randint(-4, 4) for _ in range(n * k2)))
            if hermite_column_form(b1).cols < n or hermite_column_form(b2).cols < n:
                continue
            inter = zassenhaus_intersection(b1, b2)
            assert finite_quotient(hstack([b1, b2]), b2) == finite_quotient(b1, inter)

    def test_conjugated_norm_one_scenarios_match_the_intersection_quotient(self):
        rng = random.Random(929)
        groups = [klein(), d4(), q8(), a4(), z2_cubed()]
        nontrivial = 0
        for k in range(120):
            G = groups[k % len(groups)]
            M = norm_one_module(G)
            M = _conjugate(M, random_unimodular(rng, M.n))
            subgroups = {H.elements: H for H in all_subgroups_2gen(G) + [full_subgroup(G)]}
            non_cyclic = [H for H in subgroups.values() if not is_cyclic_subgroup(G, H)]
            proper = [H for H in subgroups.values() if H.order < G.order]
            s = tuple(rng.choice(non_cyclic) for _ in range(rng.randint(1, 3)))
            scs = tuple(rng.choice(proper) for _ in range(rng.randint(0, 2)))
            got = defect(Scenario(G, M, s, scs), use_shortcuts=False).invariants
            assert got == unpruned_quotient(free_cover(M).kernel, s, scs)
            nontrivial += not got.is_trivial()
        assert nontrivial >= 50


class TestImageGate:
    def test_gate_matches_unpruned_randomized(self, monkeypatch):
        # Each draw's exit is read independently of the engine from T, the
        # torsion of the G-coinvariants of the cover kernel: t = 1, every
        # non-cyclic S entry of order prime to t, the unpruned denominator
        # already holding sat(L_G), or the quotient.  The engine must take
        # that exit, computing no image at the first two and no quotient at
        # the first three, and agree with the unpruned quotient.
        import wadefect.engine as engine_mod

        calls = Counter()

        def spy(name):
            real = getattr(engine_mod, name)

            def counting(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(engine_mod, name, counting)

        spy("torsion_generators")
        spy("finite_quotient")
        rng = random.Random(2026)
        modules = []
        for G in group_zoo() + [z2_cubed(), s4()]:
            norm_one = _conjugate(norm_one_module(G), random_unimodular(rng, G.order - 1))
            modules += [norm_one, random_module(rng, G), random_module(rng, G), relabelled_copy(rng, norm_one)]
        relations = sum(1 for M in modules if M.relations.cols)
        table_groups = sum(1 for M in modules if len(M.group.generator_indices) == M.group.order > 2)
        assert relations >= 5 and table_groups >= 5
        subgroups, images = {}, {}
        exits, nontrivial = Counter(), 0
        for _ in range(400):
            M = rng.choice(modules)
            G, Y = M.group, free_cover(M).kernel
            if id(G) not in subgroups:
                found = {H.elements: H for H in all_subgroups_2gen(G) + [full_subgroup(G)]}
                subgroups[id(G)] = [H for H in found.values() if not is_cyclic_subgroup(G, H)] or [full_subgroup(G)]
            s = tuple(rng.choice(subgroups[id(G)]) if rng.random() < 0.6 else random_subgroup(rng, G)
                      for _ in range(rng.randint(1, 3)))
            scs = tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2)))

            def image(H, Y=Y):
                key = (id(Y), H.elements)
                if key not in images:
                    images[key] = torsion_generators(coinvariants(Y, H))
                return images[key]

            L_G = coinvariants(Y, full_subgroup(G))
            t = cokernel_invariants(L_G).order
            den = hermite_column_form(hstack(
                [L_G] + [image(H) for H in [H for H in scs if not is_cyclic_subgroup(G, H)] + cyclic_subgroups(G)]
            ))
            if t == 1:
                exit_ = "t=1"
            elif all(math.gcd(H.order, t) == 1 for H in s if not is_cyclic_subgroup(G, H)):
                exit_ = "coprime"
            elif ColumnSolver(den).contains(torsion_generators(L_G)):
                exit_ = "filled"
            else:
                exit_ = "quotient"
            exits[exit_] += 1
            calls.clear()
            got = defect(Scenario(G, M, s, scs), use_shortcuts=False).invariants
            assert got == unpruned_quotient(Y, s, scs, image)
            assert calls["finite_quotient"] == (exit_ == "quotient")
            if exit_ in ("t=1", "coprime"):
                assert calls["torsion_generators"] == 0
            nontrivial += not got.is_trivial()
        assert nontrivial >= 50
        assert min(exits[e] for e in ("t=1", "coprime", "filled", "quotient")) >= 10, exits


def abelian_group(dims):
    """The group of coordinate tuples mod dims, by `from_table`, and its elements in index order."""
    elements = list(itertools.product(*(range(d) for d in dims)))
    index = {x: k for k, x in enumerate(elements)}
    table = [[index[tuple((a + b) % d for a, b, d in zip(x, y, dims))] for y in elements] for x in elements]
    return from_table(table), elements


def wedge_quotient(num, den, moduli):
    """Invariant factors of (span(num) + span(den)) / span(den) inside the sum of the Z/m, by enumeration.

    With A the quotient, |A[m]| is the number of x in D + S with m x in D,
    over |D|.  The exponent f of A is the least m with A[m] = A, and
    A ≅ Z/f + A' with |A'[m]| = |A[m]| / gcd(m, f); peeling factors this
    way uses nothing from `linalg`.
    """
    def span(gens):
        seen = {tuple(0 for _ in moduli)}
        frontier = list(seen)
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % q for a, b, q in zip(v, g, moduli))
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    D, DS = span(den), span(num + den)
    size = len(DS) // len(D)
    counts = {m: sum(tuple(m * a % q for a, q in zip(x, moduli)) in D for x in DS) // len(D)
              for m in range(1, size + 1)}
    factors = []
    while size > 1:
        f = next(m for m in range(1, size + 1) if counts[m] == size)
        factors.append(f)
        counts = {m: c // math.gcd(m, f) for m, c in counts.items()}
        size //= f
    return FinAbInvariants(reversed(factors))


ABELIAN_DIMS = [(2, 2), (2, 4), (4, 4), (2, 2, 2), (2, 2, 4), (3, 3), (2, 6), (3, 9), (2, 2, 2, 2)]


def exterior_square_scenarios(rng, count):
    """Seeded regular norm-one scenarios over abelian groups, each with its closed-form defect.

    Z[G] is H-free, so H_1(H, I_G) ≅ H_2(H, Z) naturally in H, and for
    abelian H that is ∧²H (Brown, Cohomology of Groups, V.6.4).  For
    G = ⊕ Z/d_i the defect is therefore (Σ_S ∧²Γ_v + D) / D inside
    ∧²G = ⊕_(i<j) Z/gcd(d_i, d_j), with D = Σ_complement ∧²Γ_v; the image
    of ∧²H is spanned by h ∧ h' over pairs of H's generators, so cyclic
    subgroups add 0.  Yields (scenario, closed form, use_shortcuts).
    """
    groups = {dims: abelian_group(dims) for dims in ABELIAN_DIMS}
    for k in range(count):
        dims = ABELIAN_DIMS[k % len(ABELIAN_DIMS)]
        G, elements = groups[dims]
        M = norm_one_module(G)
        if rng.random() < 0.3:
            M = _conjugate(M, random_unimodular(rng, M.n))
        pairs = [(i, j, math.gcd(dims[i], dims[j])) for i in range(len(dims)) for j in range(i + 1, len(dims))]
        moduli = [q for _, _, q in pairs]

        def wedges(H):
            gens = [elements[g] for g in H.generators]
            return [tuple((x[i] * y[j] - x[j] * y[i]) % q for i, j, q in pairs)
                    for a, x in enumerate(gens) for y in gens[a + 1:]]

        def draw(seeds):
            return subgroup_closure(G, [rng.randrange(G.order) for _ in range(seeds)])

        s = tuple(draw(rng.randint(2, 3)) for _ in range(rng.randint(1, 2)))
        scs = tuple(draw(rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
        expected = wedge_quotient([w for H in s for w in wedges(H)], [w for H in scs for w in wedges(H)], moduli)
        yield Scenario(G, M, s, scs), expected, rng.random() < 0.5


def test_abelian_regular_defect_is_an_exterior_square_quotient():
    nontrivial, factors = 0, set()
    for sc, expected, shortcuts in exterior_square_scenarios(random.Random(4242), 144):
        got = defect(sc, use_shortcuts=shortcuts).invariants
        assert got == expected, (sc.s_subgroups, sc.sc_subgroups)
        nontrivial += not got.is_trivial()
        factors.update(got.factors)
    assert nontrivial >= 50 and {3, 4} <= factors, (nontrivial, factors)


# Transitive groups of prime degree p: the p-cycle (0 1 ... p-1) plus the
# listed generators, each a list of cycles, and the group order.
PRIME_DEGREE = [
    ("C5", 5, [], 5),
    ("D5", 5, [[(1, 4), (2, 3)]], 10),
    ("F20", 5, [[(1, 2, 4, 3)]], 20),
    ("A5", 5, [[(0, 1, 2)]], 60),
    ("S5", 5, [[(0, 1)]], 120),
    ("F21", 7, [[(1, 2, 4), (3, 6, 5)]], 21),
    ("F42", 7, [[(1, 3, 2, 6, 4, 5)]], 42),
    ("PSL(3,2)", 7, [[(1, 2, 4), (3, 6, 5)], [(0, 1), (2, 4)]], 168),
]


def permutation(d, cycles):
    images = list(range(d))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return images


def points_norm_one_module(perms):
    """The kernel of Z^d -> Z for the permutation module on d points.

    Basis f_j = e_j - e_0 for j = 1..d-1; a permutation p sends f_j to
    f_p(j) - f_p(0), where f_0 = 0.
    """
    n = len(perms[0]) - 1
    action = []
    for p in perms:
        entries = [0] * (n * n)
        for j in range(1, n + 1):
            if p[j]:
                entries[(p[j] - 1) * n + j - 1] += 1
            if p[0]:
                entries[(p[0] - 1) * n + j - 1] -= 1
        action.append(IntMatrix(n, n, entries))
    return GammaModule(from_permutations(perms), n, IntMatrix(n, 0, ()), action)


@pytest.mark.parametrize("name, d, extra, order", PRIME_DEGREE, ids=[row[0] for row in PRIME_DEGREE])
def test_prime_degree_norm_one_defect_vanishes(name, d, extra, order):
    # The norm-one torus of a degree-p extension is retract rational
    # (Colliot-Thélène and Sansuc, J. Algebra, 1987), so weak approximation
    # holds and the defect is 0 for every S.  Cyclic subgroups add nothing
    # to the other closed forms; here dropping their adjoin shows.
    M = points_norm_one_module([permutation(d, [tuple(range(d))])] + [permutation(d, c) for c in extra])
    G = M.group
    assert G.order == order
    full = full_subgroup(G)
    cases = [((full,), ())]
    if order <= 60:
        rng = random.Random(d * 1000 + order)
        noncyclic = [H for H in all_subgroups_2gen(G) if not is_cyclic_subgroup(G, H)]
        for _ in range(3 if noncyclic else 0):
            cases.append((tuple(rng.choices(noncyclic, k=2)), tuple(rng.choices(noncyclic, k=rng.randint(0, 2)))))
    for s, sc in cases:
        assert defect(Scenario(G, M, s, sc), use_shortcuts=False).invariants == FinAbInvariants(), (s, sc)


# PSL(2,11) on the 12 points of P^1(F_11), with infinity as point 11:
# x -> x + 1 and x -> -1/x.  Relabelling x -> x + 1 mod 12 moves infinity
# to 0, so that the basis e_i - e_11 of its norm-one module is the
# f_j = e_j - e_0 of points_norm_one_module, in the same order.
PSL_2_11 = [
    [(p[(y - 1) % 12] + 1) % 12 for y in range(12)]
    for p in ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11), (11, 10, 5, 7, 8, 2, 9, 3, 4, 6, 1, 0))
]


def route_log(monkeypatch):
    """Spy on `defect`'s route: ("quotient", |Q| or None for N = G) per faithful quotient, then the head's name."""
    import wadefect.engine as engine_mod

    log = []
    real_quotient, real_bar, real_y = engine_mod._faithful_quotient, engine_mod._bar_head, engine_mod._y_head

    def quotient(sc):
        Q = real_quotient(sc)
        log.append(("quotient", None if Q is None else Q.group.order))
        return Q

    def bar_head(M):
        log.append("bar")
        return real_bar(M)

    def y_head(Y):
        log.append("cover")
        return real_y(Y)

    monkeypatch.setattr(engine_mod, "_faithful_quotient", quotient)
    monkeypatch.setattr(engine_mod, "_bar_head", bar_head)
    monkeypatch.setattr(engine_mod, "_y_head", y_head)
    return log


def test_psl_2_11_norm_one_defect_is_z2(monkeypatch):
    log = route_log(monkeypatch)
    M = points_norm_one_module(PSL_2_11)
    G = M.group
    assert (G.order, M.n) == (660, 11)
    sc = Scenario(G, M, (full_subgroup(G),), ())
    assert defect(sc).invariants == FinAbInvariants((2,))
    # n k = 22 rows of T(B) against a cover kernel of rank 649: no cover
    assert M._cover is None and log == [("quotient", 660), "bar"]
    # a cover built already is a memo only: defect still takes the bar head, and leaves the cover in place
    cover = free_cover(M)
    log.clear()
    for shortcuts in (True, False):
        assert defect(sc, use_shortcuts=shortcuts).invariants == FinAbInvariants((2,))
    assert log == [("quotient", 660), "bar", "bar"]
    assert M._cover is cover


def psl_2_11_variant(variant):
    """The norm-one scenario of PSL(2,11) on 12 points with S = {G}, changed in one way that keeps the defect's form."""
    a, b = PSL_2_11
    M = points_norm_one_module(PSL_2_11)
    if variant == "generators":
        # b, ab and ba, composed as permutations: a new element order, tree and k
        M = points_norm_one_module([b, [a[i] for i in b], [b[i] for i in a]])
    elif variant == "M+M":
        M = direct_sum(M, M)
    elif variant == "M+Z":
        M = direct_sum(M, trivial_module(M.group))
    elif variant == "conjugate":
        M = _conjugate(M, random_unimodular(random.Random(11), M.n))
    G = M.group
    sc = Scenario(G, M, (full_subgroup(G),), ())
    return inflation(sc, 2, as_table=False) if variant == "xC2" else sc


@pytest.mark.parametrize(
    "variant, order, factors",
    [("generators", 660, (2,)), ("M+M", 660, (2, 2)), ("M+Z", 660, (2,)), ("conjugate", 660, (2,)),
     ("xC2", 1320, (2,))],
    ids=["generators", "M+M", "M+Z", "conjugate", "xC2"],
)
def test_psl_2_11_norm_one_defect_keeps_its_form(variant, order, factors):
    # with shortcuts on, the inflation is solved over its faithful quotient
    # PSL(2,11), and with them off over all 1,320 elements
    sc = psl_2_11_variant(variant)
    assert sc.group.order == order
    for shortcuts in (True, False):
        assert defect(sc, use_shortcuts=shortcuts).invariants == FinAbInvariants(factors), shortcuts


def test_trivial_action_gives_a_zero_defect_with_no_shortcut(monkeypatch):
    G = klein()
    M = trivial_module(G, 2)
    sc = Scenario(G, M, (full_subgroup(G),) * 2, ())
    # N = G: no head runs, and no shortcut label is set
    assert defect(sc) == DefectResult(FinAbInvariants(), (0, 1))
    assert M._scan is None and M._cover is None
    assert defect(sc, use_shortcuts=False).invariants.is_trivial()
    # a cover built already changes nothing: the quotient still runs, finds N = G, and no head runs
    free_cover(M)
    log = route_log(monkeypatch)
    assert defect(sc) == DefectResult(FinAbInvariants(), (0, 1))
    assert log == [("quotient", None)]


def test_psl_2_7_norm_one_defect_is_z2_without_a_cover():
    # PSL(2,7) on the 8 points of P^1(F_7), with infinity as point 7:
    # x -> x + 1 and x -> -1/x.  n k = 14 rows against a kernel of rank 161.
    M = points_norm_one_module([(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)])
    G = M.group
    assert (G.order, M.n) == (168, 7)
    sc = Scenario(G, M, (full_subgroup(G),), ())
    for shortcuts in (True, False):
        assert defect(sc, use_shortcuts=shortcuts).invariants == FinAbInvariants((2,))
    assert M._cover is None
    assert defect_by_both_routes(sc) == FinAbInvariants((2,))


def test_a_built_cover_steers_neither_the_quotient_nor_the_head(monkeypatch):
    # each scenario runs four times on its own deep copy: with shortcuts on
    # and off, each with and without the scenario module's cover built first
    log = route_log(monkeypatch)
    rng = random.Random(3232)
    groups = group_zoo() + [z2_cubed()]
    scenarios = []
    for draw in range(48):
        G = rng.choice(groups)
        if draw % 3 == 0:
            sc = norm_one_based_scenario(rng, G)
        else:
            # random_module twists by a sign character and adds relations to about half
            M = random_module(rng, G)
            s = (full_subgroup(G) if rng.random() < 0.5 else random_subgroup(rng, G), random_subgroup(rng, G))
            sc = Scenario(G, M, s, tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2))))
        scenarios.append(inflation(sc, rng.choice((2, 3)), rng.random() < 0.3) if draw % 4 == 1 else sc)
    # the norm-one modules of A4 and S4 on 4 points take the bar head, here over G and inflated
    for perms in ([(1, 2, 0, 3), (1, 0, 3, 2)], [(1, 2, 3, 0), (1, 0, 2, 3)]):
        M = points_norm_one_module(perms)
        sc = Scenario(M.group, M, (full_subgroup(M.group),), ())
        scenarios += [sc, inflation(sc, 2, False), inflation(sc, 3, True)]
    M = points_norm_one_module([(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)])
    scenarios.append(Scenario(M.group, M, (full_subgroup(M.group),), ()))
    routes, heads = {}, Counter()
    for k, sc in enumerate(scenarios):
        for shortcuts in (True, False):
            runs = []
            for build in (False, True):
                copy = deepcopy(sc)
                if build:
                    free_cover(copy.module)
                log.clear()
                runs.append((defect(copy, use_shortcuts=shortcuts), tuple(log)))
            assert runs[0] == runs[1], (k, shortcuts)
            routes[k, shortcuts] = route = runs[0][1]
            if route[-1:] in (("bar",), ("cover",)):
                heads[route[-1], not shortcuts or route[0] == ("quotient", sc.group.order)] += 1
    # PSL(2,7): n k = 14 rows against a kernel of rank 161, with or without a cover
    assert (routes[k, True], routes[k, False]) == ((("quotient", 168), "bar"), ("bar",))
    # both heads run, over G and over a proper quotient
    assert all(heads[head, over_g] >= 3 for head in ("bar", "cover") for over_g in (True, False)), heads


@pytest.mark.parametrize(
    "G, factors",
    [(s4(), (2,)), (from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]), (2,)), (d4(), (2,)), (q8(), ()),
     (a4(), (2,)), (klein(), (2,))],
    ids=["S4", "A5", "D4", "Q8", "A4", "Klein"],
)
def test_regular_norm_one_defects_keep_the_cover_route(G, factors):
    # here k = d = 2, so the regular module has n k = 2 (|G| - 1) rows of
    # T(B) against a cover kernel of rank 2 |G| - (|G| - 1) = |G| + 1; Klein,
    # 6 against 5, is the closest.  The answer is the Schur multiplier.
    M = norm_one_module(G)
    assert defect(Scenario(G, M, (full_subgroup(G),), ())).invariants == FinAbInvariants(factors)
    assert M._cover is not None


# The image stage on both heads: T(B) on G's generator blocks, and the
# coinvariants of the cover kernel.
def defect_by_both_routes(sc):
    validate_scenario(sc)
    M = sc.module
    via_bar = _image_quotient(sc.group, *_bar_head(M), sc.s_subgroups, sc.sc_subgroups)
    via_cover = _image_quotient(sc.group, *_y_head(free_cover(M).kernel), sc.s_subgroups, sc.sc_subgroups)
    assert via_bar == via_cover, (sc.s_subgroups, sc.sc_subgroups)
    return via_bar


def test_the_bar_and_cover_routes_agree_on_seeded_scenarios():
    nontrivial = Counter()
    for sc, expected, _ in exterior_square_scenarios(random.Random(4242), 144):
        assert defect_by_both_routes(sc) == expected
        nontrivial["exterior square"] += not expected.is_trivial()
    rng = random.Random(612)
    groups = group_zoo() + [z2_cubed(), s4()]
    for _ in range(300):
        nontrivial["norm one"] += not defect_by_both_routes(norm_one_based_scenario(rng, rng.choice(groups))).is_trivial()
    kinds = Counter()
    for _ in range(60):
        # random_module conjugates every module and adds relations to about half
        M = random_module(rng, rng.choice(groups))
        if rng.random() < 0.3:
            M = relabelled_copy(rng, M)
            kinds["table"] += 1
        G = M.group
        kinds["relations"] += bool(M.relations.cols)
        s = (full_subgroup(G) if rng.random() < 0.5 else random_subgroup(rng, G), random_subgroup(rng, G))
        sc = Scenario(G, M, s, tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2))))
        nontrivial["random module"] += not defect_by_both_routes(sc).is_trivial()
    assert kinds["relations"] >= 10 and kinds["table"] >= 5, kinds
    assert sum(nontrivial.values()) >= 50 and nontrivial["random module"], nontrivial


# The faithful quotient.  Over G × C_m with C_m acting trivially, and each
# entry pulled back to its full preimage, the defect is the one over G: the
# argument of `defect`'s docstring, with N containing C_m.
def inflation(sc, m, as_table):
    """sc lifted to G × C_m, on which C_m acts trivially, with each entry replaced by its full preimage.

    The product is a table group when `as_table` is set, and otherwise the
    permutation group of G's left-regular generators beside an m-cycle.
    """
    G, M = sc.group, sc.module
    mats = M.element_matrices()
    if as_table:
        pairs = [(a, i) for a in range(G.order) for i in range(m)]
        lifted = from_table([[G.table[a][b] * m + (i + j) % m for b, j in pairs] for a, i in pairs])
    else:
        d = G.order
        perms = [list(G.table[s]) + list(range(d, d + m)) for s in G.generator_indices]
        lifted = from_permutations(perms + [list(range(d)) + [d + (i + 1) % m for i in range(m)]])
        # the tree reaches parents first; position k < |gens| lifts G's
        # designated generator k, and the last one generates C_m
        steps = [(s, 0) for s in G.generator_indices] + [(G.identity, 1)]
        pair_of = {lifted.identity: (G.identity, 0)}
        for x, (p, k) in lifted.tree.items():
            (a, i), (b, j) = pair_of[p], steps[k]
            pair_of[x] = (G.table[a][b], (i + j) % m)
        pairs = [pair_of[x] for x in range(lifted.order)]
    index = {pair: x for x, pair in enumerate(pairs)}

    def preimage(H):
        P = subgroup_closure(lifted, [index[h, 0] for h in H.generators] + [index[G.identity, 1]])
        assert P.elements == tuple(sorted(index[h, i] for h in H.elements for i in range(m)))
        return P

    return Scenario(
        lifted,
        GammaModule(lifted, M.n, M.relations, [mats[pairs[x][0]] for x in lifted.generator_indices]),
        [preimage(H) for H in sc.s_subgroups],
        [preimage(H) for H in sc.sc_subgroups],
    )


def test_inflations_by_a_trivially_acting_cyclic_factor_keep_the_defect(monkeypatch):
    import wadefect.engine as engine_mod

    quotients = []
    real = engine_mod._faithful_quotient

    def spy(sc):
        quotients.append(real(sc))
        return quotients[-1]

    monkeypatch.setattr(engine_mod, "_faithful_quotient", spy)
    rng = random.Random(3131)
    groups = group_zoo() + [z2_cubed()]
    # the exterior-square draws over groups of order at most 12 give most of the nontrivial answers
    wedges = (w[0] for w in exterior_square_scenarios(rng, 1000) if w[0].group.order <= 12)
    kinds, nontrivial = Counter(), 0
    for draw in range(200):
        G = rng.choice(groups)
        if draw % 2 == 0:
            sc = next(wedges)
            G = sc.group
        elif draw % 4 == 1:
            sc = norm_one_based_scenario(rng, G)
        else:
            # random_module twists by a sign character and adds relations to about half
            M = random_module(rng, G)
            s = (full_subgroup(G) if rng.random() < 0.5 else random_subgroup(rng, G), random_subgroup(rng, G))
            sc = Scenario(G, M, s, tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2))))
        as_table = rng.random() < 0.3
        lifted = inflation(sc, rng.choice((2, 3, 4)), as_table)
        expected = defect(sc, use_shortcuts=False).invariants
        assert defect(sc).invariants == expected
        quotients.clear()
        results = (defect(lifted), defect(lifted, use_shortcuts=False))
        for got in results:
            assert got.invariants == expected, draw
            # read over G × C_m, where the pulled-back entries may have stopped being cyclic
            assert got.s_nc_used == tuple(
                k for k, H in enumerate(lifted.s_subgroups) if not is_cyclic_subgroup(lifted.group, H)
            )
        if results[0].shortcut is None:
            # the quotient is by N, the elements acting trivially modulo the relations, read here one by one
            (Q,) = quotients
            M = lifted.module
            rel, identity = ColumnSolver(M.relations), IntMatrix.identity(M.n)
            kernel = sum(rel.contains(D - identity) for D in M.element_matrices())
            assert (1 if Q is None else Q.group.order) * kernel == lifted.group.order, draw
            kinds["N = G" if Q is None else "proper"] += 1
        nontrivial += not expected.is_trivial()
        kinds["relations"] += bool(sc.module.relations.cols)
        kinds["table"] += as_table or len(G.generator_indices) == G.order > 2
    assert nontrivial >= 50 and kinds["proper"] >= 50 and kinds["N = G"] >= 5, (nontrivial, kinds)
    assert kinds["relations"] >= 10 and kinds["table"] >= 10, kinds
