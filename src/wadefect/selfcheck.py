"""Built-in invariant suite behind `wadefect selfcheck`.

Each check prints one PASS/FAIL line.  The randomized checks are seeded, so
a given seed always exercises the same instances.
"""

from __future__ import annotations

import random
from typing import Callable

from . import catalog, oracles, zoo
from .engine import Scenario, defect
from .groups import abelianization, full_subgroup, subgroup_cayley, subgroup_closure
from .linalg import IntMatrix, hermite_column_form, membership, smith_normal_form
from .modules import free_module, h1, h1_bar, tate_h_minus1, trivial_module, free_cover
from .scenario_io import parse_scenario

__all__ = ["run_selfcheck", "CHECKS"]


def _random_matrix(rng: random.Random, max_dim: int = 6, bound: int = 9) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix(rows, cols, (rng.randint(-bound, bound) for _ in range(rows * cols)))


def check_smith_postconditions(rng: random.Random) -> None:
    for _ in range(60):
        A = _random_matrix(rng)
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.D, "U*A*V != D"
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
    from .linalg import kernel_basis

    for _ in range(25):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        A = IntMatrix(rows, cols, (rng.randint(-5, 5) for _ in range(rows * cols)))
        basis = kernel_basis(A)
        assert (A @ basis).is_zero(), "kernel basis is not annihilated"
        for v in oracles.box_kernel_vectors(A, 3):
            assert membership(v, basis), f"box kernel vector {v} outside returned span"


def check_oracle_equivalence(rng: random.Random) -> None:
    groups = zoo.group_zoo()
    for _ in range(20):
        G = rng.choice(groups)
        M = zoo.random_module(rng, G)
        H = zoo.random_subgroup(rng, G)
        assert h1(M, H) == h1_bar(M, H), f"h1 disagrees with the bar complex on {G!r}"


def check_abelianization_oracle(rng: random.Random) -> None:
    for G in (zoo.klein(), zoo.s3(), zoo.cyclic(6)):
        M = trivial_module(G)
        for H in oracles.all_subgroups_2gen(G):
            expected = abelianization(subgroup_cayley(G, H))
            assert h1(M, H) == expected, f"h1 with trivial coefficients != abelianization on {H}"


def check_free_module_vanishing(rng: random.Random) -> None:
    for G in (zoo.klein(), zoo.s3()):
        M = free_module(G)
        cover = free_cover(M)
        for H in oracles.all_subgroups_2gen(G):
            assert h1(M, H).is_trivial(), "free module has nonzero H_1"
            assert tate_h_minus1(cover.kernel, H).is_trivial()
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
