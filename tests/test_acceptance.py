"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS line each
criterion prints; every tolerance and budget is asserted, not just printed.
"""

import random
import time

from wadefect import catalog
from wadefect.engine import Scenario, defect
from wadefect.groups import (
    abelianization,
    conjugate_subgroup,
    from_permutations,
    full_subgroup,
    is_cyclic_subgroup,
    subgroup_cayley,
    subgroup_closure,
)
from wadefect.linalg import (
    ColumnSolver,
    FinAbInvariants,
    IntMatrix,
    preimage,
    smith_normal_form,
)
from wadefect.modules import (
    free_cover,
    free_module,
    h1,
    h1_bar,
    norm_one_module,
    tate_h_minus1,
    trivial_module,
    validate,
    with_doubled_generators,
)
from wadefect.oracles import all_subgroups_2gen, box_preimage_vectors, det_bareiss
from wadefect.scenario_io import parse_scenario
from wadefect.zoo import (
    _conjugate,
    a4,
    cyclic,
    d4,
    klein,
    q8,
    random_module,
    random_subgroup,
    random_unimodular,
    s3,
)

# the zoo named by the criteria: order <= 12, every subgroup is 2-generated,
# so the 2-generator enumeration below is the full subgroup lattice
TEST_GROUPS = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(12), klein(), s3(), d4(), q8(), a4()]


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_klein_reproduction():
    budget = 1.0
    cases = [
        ("klein-norm-one-both-places", (2,)),
        ("klein-norm-one-complement-full", ()),
        ("quasi-trivial-free", ()),
    ]
    timings = []
    for name, expected in cases:
        sc = parse_scenario(catalog.catalog_document(name))
        t0 = time.monotonic()
        res = defect(sc)
        dt = time.monotonic() - t0
        assert res.invariants.factors == expected, name
        assert dt < budget, f"{name} took {dt:.2f}s"
        timings.append(dt)
    # the all-cyclic S variant, built directly
    G = klein()
    M = norm_one_module(G)
    cyc_s = tuple(subgroup_closure(G, (g,)) for g in (1, 2, 3))
    t0 = time.monotonic()
    res = defect(Scenario(G, M, cyc_s, ()))
    dt = time.monotonic() - t0
    assert res.invariants.is_trivial()
    assert dt < budget
    timings.append(dt)
    # and nothing changes without the vanishing shortcuts
    assert defect(Scenario(G, M, (full_subgroup(G), full_subgroup(G)), ()),
                  use_shortcuts=False).invariants.factors == (2,)
    assert defect(Scenario(G, M, cyc_s, ()), use_shortcuts=False).invariants.is_trivial()
    report(1, f"four Klein scenarios exact, worst runtime {max(timings) * 1000:.0f} ms")


def test_criterion_2_schur_multiplier():
    G = klein()
    M = norm_one_module(G)
    assert h1(M, full_subgroup(G)) == FinAbInvariants((2,))
    for g in (1, 2, 3):
        H = subgroup_closure(G, (g,))
        assert len(H.elements) == 2
        assert h1(M, H).is_trivial()
    # H_1(G, I_G) = H_2(G, Z), also as the defect with S = {G}: cyclic
    # subgroups have H_2 = 0, so with no complement entries the regular
    # norm-one defect is the Schur multiplier.  Textbook values
    # (Karpilovsky, The Schur Multiplier, 1987): M(S_n) = M(A_n) = Z/2 for
    # n = 4, 5; M(D_2m) is Z/2 for even m and 0 for odd m; M(Q8) = 0; and
    # Kunneth, M(G x H) = M(G) + M(H) + G^ab (x) H^ab.
    budget = 2.0
    rows = [
        (from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)]), (2,)),  # S4
        (from_permutations([(1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 0, 1, 6, 7, 4, 5), (4, 5, 6, 7, 0, 1, 2, 3)]),
         (2, 2, 2)),  # (Z/2)^3
        (a4(), (2,)),
        (d4(), (2,)),
        (q8(), ()),
        (s3(), ()),
        (from_permutations([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]), (2,)),  # C2 x C4
        (from_permutations([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]), (2,)),  # dihedral of order 12
        (from_permutations([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]), (3,)),  # C3 x C3
        (from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]), (2, 2)),  # S4 x C2
        (from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]), (2,)),  # A5
    ]
    for G, schur in rows:
        M = norm_one_module(G)
        full = full_subgroup(G)
        t0 = time.monotonic()
        assert h1(M, full) == FinAbInvariants(schur)
        assert defect(Scenario(G, M, (full,), ()), use_shortcuts=False).invariants == FinAbInvariants(schur)
        dt = time.monotonic() - t0
        assert dt < budget, f"order {G.order} took {dt:.2f}s"
    report(2, f"H_1(G, I) is the Schur multiplier for Klein and {len(rows)} more groups; it vanishes over order-2 subgroups")


def test_criterion_3_oracle_equivalence():
    budget = 60.0
    instances = 200
    rng = random.Random(20260808)
    t0 = time.monotonic()
    for _ in range(instances):
        G = rng.choice(TEST_GROUPS)
        M = random_module(rng, G, max_rank=4)
        H = random_subgroup(rng, G)
        assert h1(M, H) == h1_bar(M, H), (G, H.elements)
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"took {elapsed:.1f}s"
    report(3, f"{instances} randomized instances, h1 == h1_bar, {elapsed:.1f}s")


def test_criterion_4_free_module_vanishing():
    checked = 0
    for G in TEST_GROUPS:
        subgroups = all_subgroups_2gen(G)
        for k in (1, 2):
            M = free_module(G, k)
            cover = free_cover(M)
            for H in subgroups:
                assert tate_h_minus1(cover.kernel, H).is_trivial()
                if len(H.elements) <= 12:
                    assert h1_bar(M, H).is_trivial()
                checked += 1
        # defect of any scenario over the free module is trivial
        M = free_module(G)
        full = full_subgroup(G)
        sc = Scenario(G, M, (full, full), ())
        assert defect(sc).invariants.is_trivial()
        assert defect(sc, use_shortcuts=False).invariants.is_trivial()
    report(4, f"free modules: {checked} (group, subgroup, k) triples all vanish")


def test_criterion_5_abelianization_oracle():
    checked = 0
    for G in TEST_GROUPS:
        M = trivial_module(G)
        for H in all_subgroups_2gen(G):
            expected = abelianization(subgroup_cayley(G, H))
            assert h1(M, H) == expected, (G, H.elements)
            checked += 1
    report(5, f"h1 with trivial coefficients equals abelianization on {checked} subgroups")


def test_criterion_6_reduction_laws():
    rng = random.Random(4242)
    trials = 12
    for _ in range(trials):
        G = rng.choice(TEST_GROUPS)
        M = random_module(rng, G)
        s = tuple(random_subgroup(rng, G) for _ in range(rng.randint(1, 3)))
        scs = tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 2)))
        sc = Scenario(G, M, s, scs)
        base = defect(sc, use_shortcuts=False).invariants
        noncyclic = tuple(H for H in s if not is_cyclic_subgroup(G, H))
        assert base == defect(Scenario(G, M, noncyclic, scs), use_shortcuts=False).invariants
        extra = random_subgroup(rng, G)
        appended = defect(Scenario(G, M, s, scs + (extra,)), use_shortcuts=False).invariants
        assert base.order % appended.order == 0
        g = rng.randrange(G.order)
        twin = conjugate_subgroup(G, s[0], g)
        widened = defect(Scenario(G, M, s + (twin,), scs), use_shortcuts=False).invariants
        assert widened == base
    report(6, f"reduction, complement monotonicity, conjugate idempotence on {trials} scenarios")


def test_criterion_7_cover_independence():
    rng = random.Random(777)
    trials = 10
    different_covers = 0
    for _ in range(trials):
        G = rng.choice([klein(), s3(), d4(), cyclic(4), cyclic(6)])
        M = random_module(rng, G)
        M2 = with_doubled_generators(M)
        validate(M2)
        # a change of basis moves the greedy generating set, and so the cover
        M3 = _conjugate(M, random_unimodular(rng, M.n))
        validate(M3)
        s = tuple(random_subgroup(rng, G) for _ in range(rng.randint(1, 2)))
        scs = tuple(random_subgroup(rng, G) for _ in range(rng.randint(0, 1)))
        a = defect(Scenario(G, M, s, scs), use_shortcuts=False).invariants
        b = defect(Scenario(G, M2, s, scs), use_shortcuts=False).invariants
        c = defect(Scenario(G, M3, s, scs), use_shortcuts=False).invariants
        assert a == b == c
        cover, cover3 = free_cover(M), free_cover(M3)
        if (cover.cover_rank, cover.kernel_basis) != (cover3.cover_rank, cover3.kernel_basis):
            different_covers += 1
    # the comparison is only a test if some covers actually differ
    assert different_covers > 0
    # the Klein value survives the doubled cover too
    G = klein()
    M2 = with_doubled_generators(norm_one_module(G))
    full = full_subgroup(G)
    assert defect(Scenario(G, M2, (full, full), ()), use_shortcuts=False).invariants.factors == (2,)
    report(7, f"original, doubled-generator and conjugated modules agree on {trials} scenarios, "
              f"{different_covers} with a different cover")


def test_criterion_8_linear_algebra_postconditions():
    budget = 30.0
    rng = random.Random(1234)
    t0 = time.monotonic()
    box_checks = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix(rows, cols, (rng.randint(-9, 9) for _ in range(rows * cols)))
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.D
        assert abs(det_bareiss(snf.U)) == 1
        assert abs(det_bareiss(snf.V)) == 1
        d = snf.diagonal
        assert all(e >= 0 for e in d)
        for x, y in zip(d, d[1:]):
            assert (y % x == 0) if x else (y == 0)
        basis = preimage(A, IntMatrix(rows, 0, ()))
        assert not any((A @ basis).entries)
        # saturation: brute-force box kernel vectors must lie in the span
        if basis.cols or cols <= 6:
            bound = 2 if cols <= 5 else 1
            found = box_preimage_vectors(A, IntMatrix(rows, 0, ()), bound)
            if basis.cols == 0:
                assert not found
            elif found:
                box_checks += 1
                assert ColumnSolver(basis).contains(IntMatrix.from_columns(found, rows=cols))
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"took {elapsed:.1f}s"
    report(8, f"500 matrices: SNF postconditions and saturation ({box_checks} box checks), {elapsed:.1f}s")
