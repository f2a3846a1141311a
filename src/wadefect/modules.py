"""Finitely generated modules over a finite group.

A :class:`GammaModule` presents the abelian group Z^n modulo a relation
lattice, together with one action matrix per designated group generator.
Action matrices for arbitrary elements are derived by a breadth-first
search over the group's generating positions and are only required to
satisfy the group law modulo the relation lattice.  A relation-free module
is a lattice, and its action matrices satisfy the group law exactly.

The homology entry points are :func:`h1` (through a free cover
0 -> Y -> Z[G]^d -> M -> 0 on a greedy generating set of M: H_1 of M is
the torsion of the coinvariants of the relation-free kernel module Y)
and :func:`h1_bar` (directly from the inhomogeneous bar complex).  The two
must always agree; h1_bar exists to be the independent cross-check.
"""

from __future__ import annotations

from typing import Sequence

from .groups import CayleyGroup, GroupError, Subgroup, subgroup_cayley, subgroup_closure
from .linalg import (
    AbelianPresentation,
    ColumnSolver,
    FinAbInvariants,
    IntMatrix,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    hstack,
    kernel_basis,
    membership,
)

__all__ = [
    "GammaModule",
    "FreeCover",
    "ModuleError",
    "DEFAULT_BAR_CAP",
    "validate",
    "free_cover",
    "coinvariants",
    "tate_h_minus1",
    "h1",
    "h1_bar",
    "restrict",
    "norm_one_module",
    "induced_module",
    "trivial_module",
    "free_module",
    "direct_sum",
    "with_doubled_generators",
]

DEFAULT_BAR_CAP = 64


class ModuleError(ValueError):
    """Invalid module data: incompatible action or unstable relation lattice."""


class GammaModule:
    """Z^n modulo a relation lattice, with a group acting by integer matrices."""

    __slots__ = ("group", "n", "relations", "action", "_element_matrices")

    def __init__(self, group: CayleyGroup, n: int, relations: IntMatrix, action: Sequence[IntMatrix]):
        self.group = group
        self.n = int(n)
        self.relations = relations
        self.action = tuple(action)
        self._element_matrices: tuple[IntMatrix, ...] | None = None
        if relations.rows != self.n:
            raise ModuleError(f"relations have {relations.rows} rows for a rank-{self.n} presentation")
        if len(self.action) != len(group.generator_indices):
            raise ModuleError(
                f"need {len(group.generator_indices)} action matrices, got {len(self.action)}"
            )
        for k, mat in enumerate(self.action):
            if mat.rows != self.n or mat.cols != self.n:
                raise ModuleError(f"action matrix {k} is {mat.rows}x{mat.cols}, expected {self.n}x{self.n}")

    @property
    def validated(self) -> bool:
        return self._element_matrices is not None

    def element_matrix(self, g: int) -> IntMatrix:
        """Action matrix of an arbitrary element, derived by `validate`."""
        validate(self)
        return self._element_matrices[g]

    def element_matrices(self) -> tuple[IntMatrix, ...]:
        validate(self)
        return self._element_matrices

    def __repr__(self) -> str:
        return f"GammaModule(n={self.n}, relations={self.relations.cols}, group_order={self.group.order})"


def validate(M: GammaModule) -> None:
    """Check all module invariants; derive and cache per-element action matrices.

    Every generator must preserve the relation lattice.  A breadth-first
    search from the identity, acting by I, over the generating positions
    sets D[g s_k] = D[g] A[k] for each new element; every other product must
    agree with the stored matrix.  Then each designated generator j must have
    A[j] = D[s_j].  Equalities hold modulo the relations; a violation raises
    :class:`ModuleError` naming it.

    Together this is the group law on all pairs.  Congruences survive right
    multiplication by any matrix and left multiplication by a lattice-stable
    one such as D[g].  Along the search tree, D[g] D[e] = D[g] and
    D[g] D[p] A[k] = D[gp] A[k] = D[gp s_k], so D[g] D[h] = D[gh] for all h,
    and D[g] A[j] = D[g] D[s_j] = D[g s_j].
    """
    if M.validated:
        return
    G = M.group
    rel_solver = ColumnSolver(M.relations)
    for k, mat in enumerate(M.action):
        if not rel_solver.contains(mat @ M.relations):
            raise ModuleError(
                f"action of generator {k} (element {G.generator_indices[k]}) does not preserve the relations"
            )
    derived: list[IntMatrix | None] = [None] * G.order
    derived[G.identity] = IntMatrix.identity(M.n)
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for k in G.generating_positions:
                gen_elem = G.generator_indices[k]
                product = G.table[g][gen_elem]
                mat = derived[g] @ M.action[k]
                if derived[product] is None:
                    derived[product] = mat
                    nxt.append(product)
                elif not rel_solver.contains(mat - derived[product]):
                    raise ModuleError(f"incompatible action on the pair ({g}, {gen_elem})")
        frontier = nxt
    for k, gen_elem in enumerate(G.generator_indices):
        if not rel_solver.contains(M.action[k] - derived[gen_elem]):
            raise ModuleError(f"incompatible action of generator {k} (element {gen_elem})")
    M._element_matrices = tuple(derived)


class FreeCover:
    """The exact sequence 0 -> Y -> Z[G]^d -> M -> 0 at the matrix level.

    The d copies of Z[G] cover a greedy Z[G]-generating set e_{i_0}, ...,
    e_{i_{d-1}} of M.  The middle term has basis (g, k) at index g*d + k
    (element index major); the projection sends (g, k) to g acting on
    e_{i_k}.  Y is the saturated kernel, returned as the relation-free
    module `kernel` under left translation; since Y is free, its action
    satisfies the group law exactly.
    """

    __slots__ = ("module", "cover_rank", "projection", "kernel_basis", "kernel")

    def __init__(
        self,
        module: GammaModule,
        cover_rank: int,
        projection: IntMatrix,
        kernel_basis: IntMatrix,
        kernel: GammaModule,
    ):
        self.module = module
        self.cover_rank = cover_rank
        self.projection = projection
        self.kernel_basis = kernel_basis
        self.kernel = kernel


def _cover_shift_rows(G: CayleyGroup, d: int, B: IntMatrix, g: int) -> IntMatrix:
    # left translation by g on Z[G]^d permutes basis blocks: (h, k) -> (g*h, k)
    rows: list[tuple[int, ...]] = [()] * B.rows
    for h in range(G.order):
        target = G.table[g][h]
        for k in range(d):
            rows[target * d + k] = B.row(h * d + k)
    return IntMatrix.from_rows(rows, cols=B.cols)


def free_cover(M: GammaModule) -> "FreeCover":
    """Free cover of M on a greedy generating set, with its kernel module.

    Basis vectors of M are scanned in order; e_i is kept when it is not in
    the lattice spanned by the relations and the orbits of the vectors kept
    so far.  The kernel action is solved for the designated generators only.
    """
    validate(M)
    G = M.group
    n = M.n
    mats = M.element_matrices()
    kept: list[int] = []
    span = hermite_column_form(M.relations)
    for i in range(n):
        if membership([int(r == i) for r in range(n)], span):
            continue
        kept.append(i)
        orbit = IntMatrix.from_columns([mats[g].column(i) for g in range(G.order)], rows=n)
        span = hermite_column_form(hstack([span, orbit]))
    d = len(kept)
    cover_rank = G.order * d
    projection = IntMatrix.from_columns([mats[g].column(i) for g in range(G.order) for i in kept], rows=n)
    stacked = hstack([projection, -M.relations])
    K = kernel_basis(stacked)
    top = IntMatrix.from_rows([K.row(i) for i in range(cover_rank)], cols=K.cols)
    basis = hermite_column_form(top)

    expected_rank = cover_rank - cokernel_invariants(
        AbelianPresentation(ambient_rank=n, relations=M.relations)
    ).free_rank
    if basis.cols != expected_rank:
        raise AssertionError(
            f"cover kernel has rank {basis.cols}, exactness requires {expected_rank}"
        )

    solver = ColumnSolver(basis)
    matrices = []
    for g in G.generator_indices:
        C = solver.solve(_cover_shift_rows(G, d, basis, g))
        if C is None:
            raise AssertionError("cover kernel is not stable under the group action")
        matrices.append(C)
    kernel = GammaModule(G, basis.cols, IntMatrix(basis.cols, 0, ()), matrices)
    return FreeCover(M, cover_rank, projection, basis, kernel)


def coinvariants(M: GammaModule, delta: Subgroup) -> AbelianPresentation:
    """Presentation of the coinvariants of M under a subgroup.

    Z^n modulo the relations of M and the columns of (rho(g) - 1) for g
    running over the subgroup's generators; generator differences span the
    same lattice as differences over the whole subgroup.
    """
    G = M.group
    if subgroup_closure(G, delta.generators).elements != delta.elements:
        raise GroupError("subgroup generators do not generate its element set")
    ident = IntMatrix.identity(M.n)
    blocks = [M.relations] + [M.element_matrix(g) - ident for g in delta.generators]
    return AbelianPresentation(ambient_rank=M.n, relations=hstack(blocks, rows=M.n))


def tate_h_minus1(M: GammaModule, delta: Subgroup) -> FinAbInvariants:
    """Torsion of the coinvariants: Tate cohomology in degree -1 for a torsion-free module."""
    if M.relations.cols:
        raise ModuleError("Tate H^-1 needs a relation-free module")
    inv = cokernel_invariants(coinvariants(M, delta))
    return FinAbInvariants(factors=inv.factors, free_rank=0)


def h1(M: GammaModule, delta: Subgroup) -> FinAbInvariants:
    """First group homology of `delta` with coefficients in M, via the free cover."""
    return tate_h_minus1(free_cover(M).kernel, delta)


def h1_bar(M: GammaModule, delta: Subgroup, *, cap: int = DEFAULT_BAR_CAP) -> FinAbInvariants:
    """First group homology from the inhomogeneous bar complex C2 -> C1 -> C0.

    Boundary conventions, for a left module:
        d(m ⊗ [g])      = g^{-1} m - m
        d(m ⊗ [g1|g2])  = g1^{-1} m ⊗ [g2] - m ⊗ [g1 g2] + m ⊗ [g1]
    Torsion in M is handled by working with ambient chains modulo
    relation-induced chains.  Independent of the free-cover route.
    """
    validate(M)
    G = M.group
    if subgroup_closure(G, delta.generators).elements != delta.elements:
        raise GroupError("subgroup generators do not generate its element set")
    dl = delta.elements
    size = len(dl)
    if size > cap:
        raise ModuleError(f"bar complex cap exceeded: subgroup order {size} > {cap}")
    pos = {g: i for i, g in enumerate(dl)}
    n = M.n
    mats = M.element_matrices()
    ident = IntMatrix.identity(n)

    d1 = hstack([mats[G.inverses[g]] - ident for g in dl], rows=n)

    c1_rank = n * size
    # denominator: the d2 columns, then the relation-induced chains
    den_cols: list[list[int]] = []
    for a in dl:
        inv_cols = mats[G.inverses[a]].columns()
        base_a = pos[a] * n
        for b in dl:
            base_ab = pos[G.table[a][b]] * n
            base_b = pos[b] * n
            for i in range(n):
                col = [0] * c1_rank
                col[base_b : base_b + n] = inv_cols[i]
                col[base_ab + i] -= 1
                col[base_a + i] += 1
                den_cols.append(col)
    for a in dl:
        base = pos[a] * n
        for rc in M.relations.columns():
            col = [0] * c1_rank
            col[base : base + n] = rc
            den_cols.append(col)

    # cycles: ambient chains whose boundary lands in the relation lattice of M;
    # H_1 of a finite group with finitely generated coefficients is finite
    K = kernel_basis(hstack([d1, -M.relations]))
    cycles = IntMatrix.from_rows([K.row(i) for i in range(c1_rank)], cols=K.cols)
    return finite_quotient(cycles, IntMatrix.from_columns(den_cols, rows=c1_rank))


def restrict(M: GammaModule, delta: Subgroup) -> GammaModule:
    """The same abelian group as a module over the subgroup, rebuilt standalone."""
    validate(M)
    sub = subgroup_cayley(M.group, delta)
    mats = M.element_matrices()
    return GammaModule(
        group=sub,
        n=M.n,
        relations=M.relations,
        action=[mats[g] for g in delta.elements],
    )


def norm_one_module(G: CayleyGroup) -> GammaModule:
    """Augmentation-kernel module of rank |G| - 1.

    Basis (g - e) for g != e in canonical element order, with the action
    h * (g - e) = (hg - e) - (h - e).
    """
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


def induced_module(G: CayleyGroup, delta: Subgroup) -> GammaModule:
    """Permutation module on the left cosets of a subgroup.

    Cosets are indexed by first appearance while scanning elements in
    canonical order, so the basis is deterministic.
    """
    if subgroup_closure(G, delta.generators).elements != delta.elements:
        raise GroupError("subgroup generators do not generate its element set")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
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


def trivial_module(G: CayleyGroup, rank: int = 1) -> GammaModule:
    ident = IntMatrix.identity(rank)
    return GammaModule(G, rank, IntMatrix(rank, 0, ()), [ident] * len(G.generator_indices))


def free_module(G: CayleyGroup, copies: int = 1) -> GammaModule:
    """Z[G]^copies with the left regular action, basis (copy, element)."""
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


def direct_sum(M1: GammaModule, M2: GammaModule) -> GammaModule:
    if M1.group is not M2.group:
        raise ModuleError("direct sum requires modules over the same group")
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


def with_doubled_generators(M: GammaModule) -> GammaModule:
    """An isomorphic presentation on a redundantly doubled generator set.

    Each generator is listed twice; the duplicates are identified by extra
    relations.  Free covers of the result are structurally different from
    covers of M, which makes this the natural cross-check input.
    """
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
