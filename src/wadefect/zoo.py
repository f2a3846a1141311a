"""Stock groups and seeded random instances for tests and selfcheck.

The randomized module generator only produces inputs that are valid by
construction: permutation or sign-twisted bases, relation lattices closed
under the action, and unimodular changes of coordinates.  That keeps the
randomized properties about the mathematics, not about input validation.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .groups import CayleyGroup, Subgroup, cyclic_subgroups, from_permutations, subgroup_closure
from .linalg import IntMatrix, hermite_column_form, smith_normal_form
from .modules import GammaModule, ModuleError, direct_sum, free_module, induced_module, norm_one_module
from .modules import trivial_module, validate

__all__ = [
    "cyclic",
    "klein",
    "s3",
    "d4",
    "q8",
    "a4",
    "group_zoo",
    "sign_characters",
    "random_unimodular",
    "random_module",
    "random_subgroup",
]


def cyclic(n: int) -> CayleyGroup:
    if n == 1:
        return from_permutations([(0,)])
    return from_permutations([tuple((i + 1) % n for i in range(n))])


def klein() -> CayleyGroup:
    return from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])


def s3() -> CayleyGroup:
    return from_permutations([(1, 2, 0), (1, 0, 2)])


def d4() -> CayleyGroup:
    return from_permutations([(1, 2, 3, 0), (3, 2, 1, 0)])


def q8() -> CayleyGroup:
    # left multiplication by i and j on 1, -1, i, -i, j, -j, k, -k as 0..7
    return from_permutations([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)])


def a4() -> CayleyGroup:
    return from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])


def group_zoo() -> list[CayleyGroup]:
    return [cyclic(2), cyclic(3), cyclic(6), klein(), s3(), d4(), q8(), a4()]


def sign_characters(G: CayleyGroup) -> list[tuple[int, ...]]:
    """All homomorphisms to {1, -1}, as value tuples per element.

    A sign per generating position extends along `G.tree` to a value per
    element; it is a homomorphism exactly when `validate` accepts those
    values as a rank-1 module.  The characters are ordered by the integer
    whose bit j is set when designated generator j maps to -1.
    """
    gens = G.generator_indices
    out = []
    for bits in range(1 << len(G.generating_positions)):
        sign = {k: -1 if bits >> i & 1 else 1 for i, k in enumerate(G.generating_positions)}
        value = [1] * G.order
        for g, (parent, k) in G.tree.items():
            value[g] = value[parent] * sign[k]
        action = [IntMatrix.from_rows([[value[g]]]) for g in gens]
        try:
            validate(GammaModule(G, 1, IntMatrix(1, 0, ()), action))
        except ModuleError:
            continue
        out.append(tuple(value))
    return sorted(out, key=lambda chi: sum(1 << j for j, g in enumerate(gens) if chi[g] == -1))


def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return IntMatrix.from_rows(rows, cols=n)


def _twist(M: GammaModule, chi: Sequence[int]) -> GammaModule:
    action = []
    for k, mat in enumerate(M.action):
        sign = chi[M.group.generator_indices[k]]
        action.append(mat if sign == 1 else -mat)
    return GammaModule(M.group, M.n, M.relations, action)


def _conjugate(M: GammaModule, U: IntMatrix) -> GammaModule:
    snf = smith_normal_form(U)  # U is unimodular, so snf.U @ U @ snf.V = I
    Uinv = snf.V @ snf.U
    action = [U @ mat @ Uinv for mat in M.action]
    relations = U @ M.relations
    return GammaModule(M.group, M.n, relations, action)


def _with_orbit_relations(rng: random.Random, M: GammaModule, count: int) -> GammaModule:
    validate(M)
    mats = M.element_matrices()
    cols = list(M.relations.columns())
    for _ in range(count):
        v = tuple(rng.randint(-4, 4) for _ in range(M.n))
        for g in range(M.group.order):
            cols.append(mats[g].times_vector(v))
    relations = hermite_column_form(IntMatrix.from_columns(cols, rows=M.n)) if cols else M.relations
    return GammaModule(M.group, M.n, relations, M.action)


def random_module(rng: random.Random, G: CayleyGroup, max_rank: int = 4) -> GammaModule:
    """A validated module of rank <= max_rank with a not-too-obvious presentation."""
    bases: list[GammaModule] = [trivial_module(G, rng.randint(1, max_rank))]
    for H in cyclic_subgroups(G):
        index = G.order // len(H.elements)
        if index <= max_rank:
            bases.append(induced_module(G, H))
    if G.order <= max_rank:
        bases.append(free_module(G))
        if G.order - 1 >= 1:
            bases.append(norm_one_module(G))
    M = rng.choice(bases)
    if M.n < max_rank and rng.random() < 0.3:
        other = trivial_module(G, rng.randint(1, max_rank - M.n))
        M = direct_sum(M, other)
    chars = sign_characters(G)
    chi = rng.choice(chars)
    M = _twist(M, chi)
    if rng.random() < 0.5:
        M = _with_orbit_relations(rng, M, rng.randint(1, 2))
    M = _conjugate(M, random_unimodular(rng, M.n))
    validate(M)
    return M


def random_subgroup(rng: random.Random, G: CayleyGroup) -> Subgroup:
    k = rng.choice((0, 1, 1, 2))
    seed = [rng.randrange(G.order) for _ in range(k)]
    return subgroup_closure(G, seed)
