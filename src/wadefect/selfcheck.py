"""Built-in invariant suite behind `wadefect selfcheck`.

Each check prints one PASS/FAIL line.  The randomized checks are seeded, so
a given seed always exercises the same instances.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from . import catalog, oracles, zoo
from .engine import Scenario, _bar_head, _image_quotient, _y_head, defect
from .groups import (
    abelianization,
    from_permutations,
    full_subgroup,
    subgroup_cayley,
    subgroup_closure,
    trivial_subgroup,
)
from .linalg import ColumnSolver, IntMatrix, hermite_column_form, preimage, smith_normal_form
from .modules import GammaModule, free_cover, free_module, h1, h1_bar, trivial_module
from .scenario_io import parse_scenario

__all__ = ["run_selfcheck", "CHECKS"]


def _random_matrix(rng: random.Random) -> IntMatrix:
    # 1 to 6 rows and columns, entries in [-9, 9]
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    return IntMatrix(rows, cols, (rng.randint(-9, 9) for _ in range(rows * cols)))


def check_smith_postconditions(rng: random.Random) -> None:
    # 60 small dense matrices, then one sparse 24x30 (density 0.2)
    cases = [_random_matrix(rng) for _ in range(60)]
    cases.append(IntMatrix(24, 30, (rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(720))))
    for A in cases:
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.D, "U*A*V != D"
        assert all(snf.D[i, j] == 0 for i in range(A.rows) for j in range(A.cols) if i != j), "D is not diagonal"
        assert abs(oracles.det_bareiss(snf.U)) == 1, "U is not unimodular"
        assert abs(oracles.det_bareiss(snf.V)) == 1, "V is not unimodular"
        diag = snf.diagonal
        assert all(d >= 0 for d in diag), "negative diagonal entry"
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0), f"broken chain {diag}"


def check_hermite_canonical(rng: random.Random) -> None:
    for _ in range(40):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 16)
        density = rng.uniform(0.15, 1.0)
        entries = [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(rows * cols)]
        A = IntMatrix(rows, cols, entries)
        assert hermite_column_form(A) == oracles.hermite_reference(A), "Hermite form differs from the reference"


def check_kernel_saturation(rng: random.Random) -> None:
    for _ in range(25):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        A = IntMatrix(rows, cols, (rng.randint(-5, 5) for _ in range(rows * cols)))
        # k columns spanning a rank of at most j, so some are dependent or zero
        j, k = rng.randint(0, 2), rng.randint(0, 3)
        B = IntMatrix(rows, j, (rng.randint(-4, 4) for _ in range(rows * j)))
        R = B @ IntMatrix(j, k, (rng.randint(-2, 2) for _ in range(j * k)))
        basis = preimage(A, R)
        assert ColumnSolver(R).contains(A @ basis), "preimage basis does not map into span(R)"
        solver = ColumnSolver(basis)
        for v in oracles.box_preimage_vectors(A, R, 3):
            v_col = IntMatrix.from_columns([v], rows=cols)
            assert solver.contains(v_col), f"box preimage vector {v} outside returned span"


def _check_defect_routes(sc: Scenario) -> None:
    # the image stage on the bar complex of G's generator blocks and on the cover kernel
    M = sc.module
    via_bar, via_cover = (
        _image_quotient(sc.group, *head, sc.s_subgroups, sc.sc_subgroups)
        for head in (_bar_head(M), _y_head(free_cover(M).kernel))
    )
    assert via_bar == via_cover, f"the bar and cover routes disagree on the defect over {sc.group!r}"


def check_oracle_equivalence(rng: random.Random) -> None:
    groups = zoo.group_zoo()
    for _ in range(20):
        G = rng.choice(groups)
        M = zoo.random_module(rng, G)
        # the trivial subgroup needs the [e|e] chains, the full group k >= 2 generators
        for H in (zoo.random_subgroup(rng, G), full_subgroup(G), trivial_subgroup(G)):
            assert h1(M, H) == h1_bar(M, H), f"h1 disagrees with the bar complex on {G!r}, {H.elements}"
        s = (full_subgroup(G) if rng.random() < 0.5 else zoo.random_subgroup(rng, G), zoo.random_subgroup(rng, G))
        _check_defect_routes(Scenario(G, M, s, (zoo.random_subgroup(rng, G),)))
    # the catalog's Klein norm-one entries answer Z/2
    for name in catalog.catalog_names():
        _check_defect_routes(parse_scenario(catalog.catalog_document(name)))
    # A5 on the permutation module of its 5 points, from a 5-cycle and a 3-cycle
    perms = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]
    G = from_permutations(perms)
    action = [IntMatrix.from_columns([[int(i == p[j]) for i in range(5)] for j in range(5)]) for p in perms]
    M = GammaModule(G, 5, IntMatrix(5, 0, ()), action)
    s = (full_subgroup(G), zoo.random_subgroup(rng, G))
    _check_defect_routes(Scenario(G, M, s, (zoo.random_subgroup(rng, G),)))


def check_abelianization_oracle(rng: random.Random) -> None:
    for G in (zoo.klein(), zoo.s3(), zoo.cyclic(6)):
        M = trivial_module(G)
        for H in oracles.all_subgroups_2gen(G):
            expected = abelianization(subgroup_cayley(G, H))
            assert h1(M, H) == expected, f"h1 with trivial coefficients != abelianization on {H}"


def check_free_module_vanishing(rng: random.Random) -> None:
    for G in (zoo.klein(), zoo.s3()):
        M = free_module(G)
        for H in oracles.all_subgroups_2gen(G):
            assert h1(M, H).is_trivial(), "free module has nonzero H_1"
        full = full_subgroup(G)
        res = defect(Scenario(G, M, (full,), ()), use_shortcuts=False)
        assert res.invariants.is_trivial(), "free module has nonzero defect"


def check_catalog_values(rng: random.Random) -> None:
    for name in catalog.catalog_names():
        sc = parse_scenario(catalog.catalog_document(name))
        got = defect(sc).invariants.factors
        want = catalog.CATALOG_EXPECTED[name]
        assert got == want, f"{name}: computed {got}, expected {want}"


def check_klein_paper_values(rng: random.Random) -> None:
    from .modules import norm_one_module

    G = zoo.klein()
    M = norm_one_module(G)
    full = full_subgroup(G)
    assert h1(M, full).factors == (2,), "H_1(Klein, I) should be Z/2"
    for g in range(1, 4):
        H = subgroup_closure(G, (g,))
        assert h1(M, H).is_trivial(), "H_1 over an order-2 subgroup should vanish"
    both = defect(Scenario(G, M, (full, full), ()))
    assert both.invariants.factors == (2,)
    killed = defect(Scenario(G, M, (full, full), (full,)))
    assert killed.invariants.is_trivial()


CHECKS: list[tuple[str, Callable[[random.Random], None]]] = [
    ("smith-postconditions", check_smith_postconditions),
    ("hermite-canonical", check_hermite_canonical),
    ("kernel-saturation", check_kernel_saturation),
    ("oracle-equivalence", check_oracle_equivalence),
    ("abelianization-oracle", check_abelianization_oracle),
    ("free-module-vanishing", check_free_module_vanishing),
    ("catalog-values", check_catalog_values),
    ("klein-paper-values", check_klein_paper_values),
]


def run_selfcheck(seed: int = 0, emit: Callable[[str], None] = print) -> bool:
    ok = True
    for name, fn in CHECKS:
        rng = random.Random(seed)
        try:
            fn(rng)
        except AssertionError as exc:
            ok = False
            emit(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            ok = False
            emit(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            emit(f"PASS {name}")
    return ok
