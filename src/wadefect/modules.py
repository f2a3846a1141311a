"""Finitely generated modules over a finite group.

A :class:`GammaModule` presents the abelian group Z^n modulo a relation
lattice, together with one action matrix per designated group generator.
The action matrices are only required to satisfy the group law modulo the
relation lattice.  A relation-free module is a lattice, and its action
matrices satisfy the group law exactly.  :func:`validate` derives every
element's action matrix along the group's spanning tree `CayleyGroup.tree`
and checks the law once per module.  :func:`free_cover` builds one cover
per module; its kernel solves each matrix from the left translation that
defines it, when it is first read, so only `engine.verify_cover` checks it.
The stock modules are relation-free and come from one builder, each
from a rule giving the (row, entry) pairs of every generator's columns.

The homology entry points are :func:`h1` (through a free cover
0 -> Y -> Z[G]^d -> M -> 0 on a greedy generating set of M: H_1 of M is
the torsion of the coinvariants of the relation-free kernel module Y)
and :func:`h1_bar` (directly from the inhomogeneous bar complex, with
its 1-chains modulo boundaries read in the coordinates of the subgroup's
generators along a spanning tree).  The two must always agree; h1_bar
exists to be the independent cross-check.  `engine.defect` reads H_1 of
the whole group from the same reduction, `_bar_homology`, when its n k
rows are fewer than the rank of the cover kernel, which the scan of
`free_cover` gives before any cover is built (`_greedy_scan`).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from operator import add, sub

from .groups import CayleyGroup, GroupError, Subgroup, _left_cosets, subgroup_closure
from .linalg import (
    ColumnSolver,
    ContainmentError,
    FinAbInvariants,
    IntMatrix,
    QuotientNotFiniteError,
    _columns_of,
    _from_columns,
    _hnf_insert,
    _prepared,
    _times_prepared,
    cokernel_invariants,
    hermite_column_form,
    hstack,
    preimage,
)

__all__ = [
    "GammaModule",
    "FreeCover",
    "ModuleError",
    "validate",
    "free_cover",
    "coinvariants",
    "tate_h_minus1",
    "h1",
    "h1_bar",
    "norm_one_module",
    "induced_module",
    "trivial_module",
    "free_module",
    "direct_sum",
    "with_doubled_generators",
]

class ModuleError(ValueError):
    """Invalid module data: incompatible action or unstable relation lattice."""


class GammaModule:
    """Z^n modulo a relation lattice, with a group acting by integer matrices.

    `action` holds the given matrix of each designated generator, and
    `_matrices` the element matrices that :func:`validate` derives along
    `group.tree`, read through `element_matrix`; a :class:`_CoverKernel`
    solves its matrices instead.  `_scan`, `_cover` and `_relation_solver`
    cache the greedy scan, the free cover and the `ColumnSolver` of R.
    """

    __slots__ = ("group", "n", "relations", "action", "_matrices", "_validated", "_scan", "_cover", "_relation_solver")

    def __init__(self, group: CayleyGroup, n: int, relations: IntMatrix, action: Sequence[IntMatrix]):
        self.group = group
        self.n = int(n)
        self.relations = relations
        self.action = tuple(action)
        # filled by validate, in tree order
        self._matrices: dict[int, IntMatrix] = {}
        self._validated = False
        self._scan: tuple[tuple[int, ...], int] | None = None
        self._cover: FreeCover | None = None
        self._relation_solver: ColumnSolver | None = None
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
        return self._validated

    def element_matrix(self, g: int) -> IntMatrix:
        """Action matrix of an arbitrary element, as `validate` derived it."""
        validate(self)
        mats = self._matrices  # empty only on a trivial group with no designated generator
        return IntMatrix.identity(self.n) if not mats and g == self.group.identity else mats[g]

    def element_matrices(self) -> tuple[IntMatrix, ...]:
        validate(self)
        mats = self._matrices  # a cover kernel solves the ones it has not stored
        return tuple(mats[g] if g in mats else self.element_matrix(g) for g in range(self.group.order))

    def __repr__(self) -> str:
        return f"GammaModule(n={self.n}, relations={self.relations.cols}, group_order={self.group.order})"


def _relation_lattice(M: GammaModule) -> ColumnSolver:
    # the one reduction of M's relations, built on first need
    if M._relation_solver is None:
        M._relation_solver = ColumnSolver(M.relations)
    return M._relation_solver


def _congruent(M: GammaModule, a: IntMatrix, b: IntMatrix | None = None) -> bool:
    # a ≡ b (b = 0 if omitted) modulo M's relations: exactly first, and only exactly if there are none
    b = IntMatrix._trusted(a.rows, a.cols, (0,) * len(a.entries)) if b is None else b
    return a == b or (M.relations.cols > 0 and _relation_lattice(M).contains(a - b))


class _DerivedAction(Sequence):
    """A cover kernel's action: entry k is `module.element_matrix(s_k)`, its element matrix itself.

    It reads, slices, iterates and compares as a tuple of one matrix per
    designated generator, and copies and pickles with its module.
    """

    __slots__ = ("module",)

    def __init__(self, module: GammaModule):
        self.module = module

    def __len__(self) -> int:
        return len(self.module.group.generator_indices)

    def __getitem__(self, k):
        g = self.module.group.generator_indices[k]  # an IndexError past the end stops iteration
        return tuple(map(self.module.element_matrix, g)) if isinstance(k, slice) else self.module.element_matrix(g)

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, _DerivedAction) else other)


def validate(M: GammaModule) -> None:
    """Check all module invariants, then mark M validated.

    Every generating position's matrix must preserve the relation lattice.
    Each element's matrix D[g] is then derived in `G.tree` order from
    D[e] = I by D[p s_k] = D[p] A[k] (D[s_k] = A[k] itself) and stored on
    M, where `element_matrix` reads it.  Every (element, generating
    position) pair off the tree must agree with it, D[g] A[k] = D[g s_k],
    and each designated generator j must have A[j] = D[s_j].  Equalities
    hold modulo the relations R; a violation raises :class:`ModuleError`
    naming it.  Each check is `_congruent`: a relation-free module is
    compared exactly, with no solve, and so is a pair equal entry for entry;
    any other pair is a membership test of the difference in span(R).
    Each generating position's matrix A[k] is the right factor of every
    product D[g] A[k], on the tree and off it, so its nonzero entries are
    read once (`linalg._prepared`) and applied to each D[g]; R is read once
    for the lattice checks A[k] R ≡ 0.

    Together this is the group law on all pairs.  Congruences survive right
    multiplication by any matrix and left multiplication by a lattice-stable
    one such as D[g].  Along `G.tree`, D[g] D[e] = D[g] and
    D[g] D[p] A[k] = D[gp] A[k] = D[gp s_k], so D[g] D[h] = D[gh] for all h,
    and D[g] A[j] = D[g] D[s_j] = D[g s_j].

    The other designated generators need no lattice check of their own.
    For such a j, D[s_j] is a product of generating positions' matrices, so
    it preserves R, and A[j] ≡ D[s_j] puts every column of A[j] - D[s_j] in
    span(R), so A[j] preserves R too.  A module whose A[j] breaks the
    lattice fails that congruence instead, and the set of accepted modules
    is the same as with a lattice check on every designated generator.
    """
    if M.validated:
        return
    G = M.group
    if M.relations.cols:
        relations = _prepared(M.relations)
        for k in G.generating_positions:
            if not _congruent(M, _times_prepared(M.action[k], relations)):
                raise ModuleError(
                    f"action of generator {k} (element {G.generator_indices[k]}) does not preserve the relations"
                )
    # each generating position's matrix is the right factor of |G| products
    right = {k: _prepared(M.action[k]) for k in G.generating_positions}
    D = M._matrices
    if G.generator_indices:  # a trivial group with none builds no n x n matrix
        D[G.identity] = IntMatrix.identity(M.n)
    for h, (p, k) in G.tree.items():
        D[h] = M.action[k] if p == G.identity else _times_prepared(D[p], right[k])
    for g in (G.identity, *G.tree):
        for k in G.generating_positions:
            gen_elem = G.generator_indices[k]
            product = G.table[g][gen_elem]
            if G.tree.get(product) == (g, k):
                continue
            if not _congruent(M, _times_prepared(D[g], right[k]), D[product]):
                raise ModuleError(f"incompatible action on the pair ({g}, {gen_elem})")
    for k, gen_elem in enumerate(G.generator_indices):
        if not _congruent(M, M.action[k], D[gen_elem]):
            raise ModuleError(f"incompatible action of generator {k} (element {gen_elem})")
    M._validated = True


class FreeCover:
    """The exact sequence 0 -> Y -> Z[G]^d -> M -> 0 at the matrix level.

    The d copies of Z[G] cover a greedy Z[G]-generating set e_{i_0}, ...,
    e_{i_{d-1}} of M.  The middle term has basis (g, k) at index g*d + k
    (element index major); the projection sends (g, k) to g acting on
    e_{i_k}.  Y is the kernel: the preimage under the projection of the
    relation lattice of M.  `kernel_basis` is its canonical Hermite basis
    B, and `kernel` (a :class:`_CoverKernel`) is the relation-free module
    on B under left translation P_g, which permutes the basis of Z[G]^d.
    B has full column rank and Y is G-stable, so D[g] is the one X with
    B X = P_g B.  g -> P_g is a representation, so the kernel satisfies
    the group law by construction, and it is marked validated.
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
    return IntMatrix._trusted(B.rows, B.cols, chain.from_iterable(rows))


class _CoverKernel(GammaModule):
    """A cover kernel on its Hermite basis B: D[g] is the X with B X = P_g B, solved on first read."""

    __slots__ = ("_solver", "_d")

    def __init__(self, group: CayleyGroup, solver: ColumnSolver, d: int):
        n = solver.basis.cols
        self.group, self.n, self.relations = group, n, IntMatrix(n, 0, ())
        self.action = _DerivedAction(self)
        self._matrices, self._validated, self._scan, self._cover, self._relation_solver = {}, True, None, None, None
        self._solver, self._d = solver, d

    def element_matrix(self, g: int) -> IntMatrix:
        mat = self._matrices.get(g)
        if mat is None:
            mat = self._solver.solve(_cover_shift_rows(self.group, self._d, self._solver.basis, g))
            if mat is None:
                raise AssertionError("cover kernel is not stable under the group action")
            self._matrices[g] = mat
        return mat


def _greedy_scan(M: GammaModule) -> tuple[tuple[int, ...], int]:
    """(kept, kernel rank) of `free_cover`'s scan, run once per module and cached on it.

    One running column echelon form takes R's Hermite basis, then each kept
    vector's |G| orbit columns, each once (`linalg._hnf_insert`), with no
    back-reduction.  Its pivots are the canonical form's: each is a lattice
    invariant up to sign, and kept positive.  The cover on the kept basis
    vectors has rank |G| len(kept), and by exactness its kernel has that
    rank minus the free rank of M.
    """
    if M._scan is None:
        validate(M)
        G, n = M.group, M.n
        mats = M.element_matrices()
        kept: list[int] = []
        pivots, rows, support = {}, [], {}  # the running form, in `_hnf_insert`'s terms
        for v in _columns_of(_relation_lattice(M).basis) if M.relations.cols else ():
            _hnf_insert(v, pivots, rows, support, n)
        free_rank = n - len(rows)  # of M, read off before the scan adds orbits to the span
        for i in range(n):
            if i not in pivots or pivots[i][i] != 1:
                kept.append(i)
                for g in range(G.order):
                    _hnf_insert(list(mats[g].column(i)), pivots, rows, support, n)
        M._scan = (tuple(kept), G.order * len(kept) - free_rank)
    return M._scan


def free_cover(M: GammaModule) -> "FreeCover":
    """Free cover of M on a greedy generating set, with its kernel module.

    Basis vectors of M are scanned in order.  Let H be a column echelon form
    of the span so far, with positive pivots: the relations and the orbits
    of the vectors kept so far.  e_i is kept unless row i of H has a unit
    pivot.  Every e_j ends up in the final span, by descending induction on
    j: a kept e_j lies in its own orbit, and a skipped e_j is its unit-pivot
    column minus a combination of the later e_j', all in the final span,
    which contains every earlier span.  On any one span the rule skips
    every e_i already in it: if e_i lies in span(H), its first nonzero
    entry, a 1 in row i, is a multiple of row i's pivot, so that pivot is 1.
    The scan is greedy, so a cover is not minimal, and it can come out
    larger than a scan that skips only the e_i in the span.  It runs once
    per module, in :func:`_greedy_scan`, on one running form.

    The kernel is one `preimage` of the relations of M under the
    projection, so it comes out saturated and in canonical form, and its
    `ColumnSolver` adopts it as its basis with no second reduction: the
    solves give kernel coordinates.  Only the generating positions are
    solved here, so an unstable kernel fails at once; a table group
    designates all |G| elements, and `coinvariants` reads only a
    subgroup's generators.  The cover is built once per module and cached
    on it.
    """
    if M._cover is not None:
        return M._cover
    kept, expected_rank = _greedy_scan(M)
    G = M.group
    mats = M.element_matrices()
    d = len(kept)
    cover_rank = G.order * d
    projection = _from_columns([mats[g].column(i) for g in range(G.order) for i in kept], M.n)
    basis = preimage(projection, M.relations)
    if basis.cols != expected_rank:
        raise AssertionError(
            f"cover kernel has rank {basis.cols}, exactness requires {expected_rank}"
        )

    kernel = _CoverKernel(G, ColumnSolver._canonical(basis), d)
    for k in G.generating_positions:
        kernel.element_matrix(G.generator_indices[k])
    M._cover = FreeCover(M, cover_rank, projection, basis, kernel)
    return M._cover


def _minus_identity(A: IntMatrix) -> IntMatrix:
    # A - I for a square A, with no identity matrix built or solved for
    entries = list(A.entries)
    for i in range(0, len(entries), A.cols + 1):
        entries[i] -= 1
    return IntMatrix._trusted(A.rows, A.cols, entries)


def coinvariants(M: GammaModule, delta: Subgroup) -> IntMatrix:
    """Relation matrix of the coinvariants of M under a subgroup.

    The coinvariants are Z^n modulo the relations of M and the columns of
    (rho(g) - 1) for g running over the subgroup's generators; generator
    differences span the same lattice as differences over the whole subgroup.
    The identity's block is zero, so no matrix is derived or solved for it.
    """
    if subgroup_closure(M.group, delta.generators).elements != delta.elements:
        raise GroupError("subgroup generators do not generate its element set")
    validate(M)  # here too, for a subgroup with no generators
    blocks = [_minus_identity(M.element_matrix(g)) for g in delta.generators if g != M.group.identity]
    return hstack([M.relations] + blocks, rows=M.n)


def tate_h_minus1(M: GammaModule, delta: Subgroup) -> FinAbInvariants:
    """Torsion of the coinvariants: Tate cohomology in degree -1 for a torsion-free module."""
    if M.relations.cols:
        raise ModuleError("Tate H^-1 needs a relation-free module")
    inv = cokernel_invariants(coinvariants(M, delta))
    return FinAbInvariants(factors=inv.factors, free_rank=0)


def h1(M: GammaModule, delta: Subgroup) -> FinAbInvariants:
    """First group homology of `delta` with coefficients in M, via the free cover."""
    return tate_h_minus1(free_cover(M).kernel, delta)


def _bar_walk(
    M: GammaModule, gens: Sequence[int]
) -> tuple[dict[int, IntMatrix], dict[int, tuple[int, int]], IntMatrix]:
    """(T, tree, T(B)) of :func:`h1_bar` on the blocks of `gens`, distinct and not e.

    T maps each element c of the subgroup that `gens` generate, in the
    order the breadth-first tree reaches it, to the n k x n matrix T[c],
    and `tree` maps each c but e to its tree edge (a, j), c = a s_j, in
    that order.  T(B) has one block of n columns per non-tree edge, then,
    when M has relations R, T[a] R for each a in that order.
    """
    G, n = M.group, M.n
    rows, size = n * len(gens), n * n
    # T[c]'s row-major entries: a tree edge adds D[a^{-1}] to block j of
    # its parent's, whose n x n entries are contiguous.  Each non-tree edge
    # (a, s_j) contributes T(boundary of [a|s_j]) = (T[a] + D[a^{-1}] in
    # block j) - T[c], kept with its width for T(B)'s rows.
    T = {G.identity: IntMatrix._trusted(rows, n, (0,) * (rows * n))}
    tree: dict[int, tuple[int, int]] = {}
    order = [G.identity]
    edges: list[tuple[tuple[int, ...], int]] = []
    for a in order:
        Ta = T[a].entries
        inv = M.element_matrix(G.inverses[a]).entries
        for j, s in enumerate(gens):
            lo, hi = j * size, (j + 1) * size
            step = Ta[:lo] + tuple(map(add, Ta[lo:hi], inv)) + Ta[hi:]
            c = G.table[a][s]
            if c in T:
                edges.append((tuple(map(sub, step, T[c].entries)), n))
            else:
                T[c] = IntMatrix._trusted(rows, n, step)
                tree[c] = (a, j)
                order.append(c)
    if M.relations.cols:
        R = _prepared(M.relations)  # read once for every T[a] R
        edges += [(_times_prepared(T[a], R).entries, M.relations.cols) for a in order]
    entries = chain.from_iterable(e[t * w : (t + 1) * w] for t in range(rows) for e, w in edges)
    den = IntMatrix._trusted(rows, sum(w for _, w in edges), entries)
    return T, tree, den


def _bar_d1(M: GammaModule, elements: Sequence[int]) -> IntMatrix:
    # d1 on the blocks of `elements`: [D[c^{-1}] - I]_c
    return hstack([_minus_identity(M.element_matrix(M.group.inverses[c])) for c in elements], rows=M.n)


def _bar_homology(
    M: GammaModule, gens: Sequence[int]
) -> tuple[dict[int, IntMatrix], ColumnSolver, IntMatrix, dict[int, tuple[int, int]]]:
    """(T, cycles, X, tree) for H_1 = Z / T(B) = coker X on the blocks of `gens` (:func:`h1_bar`).

    The cycles Z = preimage(d1_red, R) are canonical, so their
    `ColumnSolver` adopts them as its basis with no second reduction, and X
    is the Hermite form of T(B) solved in it.  `tree` is the walk's.
    A failed solve is check (a) of :func:`h1_bar` and raises ContainmentError.
    """
    T, tree, den = _bar_walk(M, gens)
    cycles = ColumnSolver._canonical(preimage(_bar_d1(M, gens), M.relations))
    X = cycles.solve(hermite_column_form(den))
    if X is None:
        raise ContainmentError("bar boundaries are not cycles: the action breaks the group law")
    return T, cycles, X, tree


def _bar_tree_law(M: GammaModule, gens: Sequence[int], tree: dict[int, tuple[int, int]]) -> bool:
    # check (b) of :func:`h1_bar`: D[s_j^{-1}] D[a^{-1}] ≡ D[c^{-1}] modulo R
    # on every tree edge c = a s_j; D[e] = I, so an edge at e holds as it stands
    G, D = M.group, M.element_matrix
    left = [D(G.inverses[s]) for s in gens]
    return all(
        _congruent(M, left[j] @ D(G.inverses[a]), D(G.inverses[c])) for c, (a, j) in tree.items() if a != G.identity
    )


def h1_bar(M: GammaModule, delta: Subgroup) -> FinAbInvariants:
    """First group homology from the inhomogeneous bar complex C2 -> C1 -> C0.

    Boundary conventions, for a left module:
        d(m ⊗ [g])      = g^{-1} m - m
        d(m ⊗ [g1|g2])  = g1^{-1} m ⊗ [g2] - m ⊗ [g1 g2] + m ⊗ [g1]
    Torsion in M is handled by working with ambient chains modulo
    relation-induced chains: B spans the boundaries and those chains, and
    the cycles K are the chains whose boundary lies in the relations R of M.

    The boundaries are taken from a spanning set of 2-chains, m ⊗ [e|e] and
    m ⊗ [a|s] for a in the subgroup H and s among the k generators
    s_1, ..., s_k that `subgroup_closure` keeps, which spans the same
    lattice as the full d2.  Indeed d(m ⊗ [a|e]) = a^{-1} m ⊗ [e] =
    d(a^{-1} m ⊗ [e|e]), and d∘d = 0 on m ⊗ [a|p|s] gives
        d(m ⊗ [a|ps]) = d(m ⊗ [a|p]) + d(m ⊗ [ap|s]) - d(a^{-1} m ⊗ [p|s]),
    so induction on the length of b as a word in the generators puts every
    d(m ⊗ [a|b]) in the span.  When M has relations its matrices obey the
    group law only modulo them, so d∘d lands in the relation-induced chains,
    which B holds as well.

    C1 / B is computed in the coordinates of the k generator blocks, along a
    breadth-first spanning tree of H's Cayley graph on s_1, ..., s_k (each
    s_j is distinct and not e, so it is a child of e with label j).  Let
    T: C1 -> Z^(n k) send m ⊗ [c] to T[c] m, where T[e] = 0 and, on a tree
    edge c = a s_j, T[c] = T[a] + D[a^{-1}] placed in block j.  T is onto,
    since T[s_j] is the identity on block j.  Let E be spanned by
    m ⊗ [e] = d(m ⊗ [e|e]) and the boundaries of m ⊗ [a|s_j] on the tree
    edges; E lies in B, and T kills it by its recursion.  Modulo E,
    m ⊗ [c] ≡ m ⊗ [a] + a^{-1} m ⊗ [s_j] on a tree edge, so by induction
    down the tree the blocks [s_j] generate C1 / E.  T sends them to the
    standard basis of Z^(n k), so T induces an isomorphism C1 / E ≅ Z^(n k)
    and ker T = E.  Hence C1 / B ≅ Z^(n k) / T(B), and T(B) is spanned by T
    of the |H| (k - 1) + 1 non-tree edges, n columns each, and T[a] R for
    every a in H.  C1 has rank n |H|; this matrix has n k rows.

    d1 on the generator blocks is d1_red = [D[s_j^{-1}] - I]_j, and once
    d1 = d1_red T modulo R the cycles map onto Z = preimage(d1_red, R), so
    H_1 = Z / T(B): the cokernel of the Hermite form of T(B) solved in Z's
    basis (:func:`_bar_homology`, which `engine.defect` shares).  That
    needs d∘d = 0 modulo R on all of B, which is checked in full, in two
    parts, and an action that breaks the group law raises ContainmentError:
    (a) d1_red T(B) ⊆ R, which is that solve, and (b) d1_red T[c] ≡
    D[c^{-1}] - I modulo R for every c in H, that is d1 = d1_red T on C1.
    Together they give d1(B) ⊆ R.  Conversely d1(B) ⊆ R gives (b) by
    induction down the tree, since d1 kills the tree-edge boundaries modulo
    R, and then (a).

    Check (b) needs no T.  With L[c] = d1_red T[c], the recursion of T
    gives L[e] = 0 and, on each tree edge c = a s_j,
        L[c] = L[a] + (D[s_j^{-1}] - I) D[a^{-1}],
    so L[c] - (D[c^{-1}] - I) = (L[a] - (D[a^{-1}] - I))
    + (D[s_j^{-1}] D[a^{-1}] - D[c^{-1}]), and at e it is I - D[e] = 0.
    By induction down the tree, (b) holds exactly when
    D[s_j^{-1}] D[a^{-1}] ≡ D[c^{-1}] modulo R on every tree edge, which
    holds as it stands on the edges at e: the group law on the tree's
    edges, one n x n product each (:func:`_bar_tree_law`), with no T of H's
    elements stacked and no d1 on all of C1 built.

    Independent of the free-cover route: it shares only the element
    matrices and the subgroup's generators, and uses no kernel, cover or
    solve from it.
    """
    validate(M)
    closure = subgroup_closure(M.group, delta.generators)
    if closure.elements != delta.elements:
        raise GroupError("subgroup generators do not generate its element set")
    _, _, X, tree = _bar_homology(M, closure.generators)
    if not _bar_tree_law(M, closure.generators, tree):
        raise ContainmentError(
            "the generator blocks do not carry d1 along the tree: the action breaks the group law"
        )
    # H_1 of a finite group with finitely generated coefficients is finite
    inv = cokernel_invariants(X)
    if inv.free_rank:
        raise QuotientNotFiniteError(f"H_1 has free rank {inv.free_rank}; the action breaks the group law")
    return inv


def _relation_free(G: CayleyGroup, n: int, column) -> GammaModule:
    # the relation-free rank-n module in which designated generator h sends
    # e_j to the sum of entry * e_row over the (row, entry) pairs of
    # column(h, j); every entry is an int made here, so nothing is coerced
    action = []
    for h in G.generator_indices:
        entries = [0] * (n * n)
        for j in range(n):
            for r, e in column(h, j):
                entries[r * n + j] += e
        action.append(IntMatrix._trusted(n, n, entries))
    return GammaModule(G, n, IntMatrix._trusted(n, 0, ()), action)


def _block_diagonal(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    # [[a, 0], [0, b]]; a row-major matrix stacks by concatenating its rows
    right, left = (0,) * b.cols, (0,) * a.cols
    rows = [a.row(i) + right for i in range(a.rows)] + [left + b.row(i) for i in range(b.rows)]
    return IntMatrix._trusted(a.rows + b.rows, a.cols + b.cols, chain.from_iterable(rows))


def norm_one_module(G: CayleyGroup) -> GammaModule:
    """Augmentation-kernel module of rank |G| - 1.

    Basis (g - e) for g != e in canonical element order, with the action
    h * (g - e) = (hg - e) - (h - e).
    """
    basis = [g for g in range(G.order) if g != G.identity]
    pos = {g: i for i, g in enumerate(basis)}

    def column(h: int, j: int) -> list[tuple[int, int]]:
        hg = G.table[h][basis[j]]
        return [(pos[x], s) for x, s in ((hg, 1), (h, -1)) if x != G.identity]

    return _relation_free(G, len(basis), column)


def induced_module(G: CayleyGroup, delta: Subgroup) -> GammaModule:
    """Permutation module on the left cosets of a subgroup.

    Cosets are indexed by first appearance while scanning elements in
    canonical order, so the basis is deterministic.
    """
    if subgroup_closure(G, delta.generators).elements != delta.elements:
        raise GroupError("subgroup generators do not generate its element set")
    coset_of, reps = _left_cosets(G, delta.elements)
    return _relation_free(G, len(reps), lambda h, j: [(coset_of[G.table[h][reps[j]]], 1)])


def trivial_module(G: CayleyGroup, rank: int = 1) -> GammaModule:
    return _relation_free(G, rank, lambda h, j: [(j, 1)])


def free_module(G: CayleyGroup, copies: int = 1) -> GammaModule:
    """Z[G]^copies with the left regular action, basis (copy, element)."""
    N = G.order
    return _relation_free(G, N * copies, lambda h, j: [(j - j % N + G.table[h][j % N], 1)])


def direct_sum(M1: GammaModule, M2: GammaModule) -> GammaModule:
    if M1.group is not M2.group:
        raise ModuleError("direct sum requires modules over the same group")
    action = [_block_diagonal(a, b) for a, b in zip(M1.action, M2.action)]
    return GammaModule(M1.group, M1.n + M2.n, _block_diagonal(M1.relations, M2.relations), action)


def with_doubled_generators(M: GammaModule) -> GammaModule:
    """An isomorphic presentation on a redundantly doubled generator set.

    Each generator is listed twice; the duplicates are identified by extra
    relations.  Those relations give every row of the first copy a unit
    pivot, so the greedy scan of `free_cover` keeps the second copy's
    generators at the positions it keeps for M: both covers have the same
    rank and the same kernel basis.
    """
    n = M.n
    ident = IntMatrix.identity(n)
    # [M.relations on the first copy | e_i - e_(n+i)]
    relations = hstack([
        _block_diagonal(M.relations, IntMatrix._trusted(n, 0, ())),
        IntMatrix._trusted(2 * n, n, ident.entries + (-ident).entries),
    ])
    return GammaModule(M.group, 2 * n, relations, [_block_diagonal(a, a) for a in M.action])
