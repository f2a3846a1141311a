"""The defect pipeline.

The defect of weak approximation from a group, a module, and the
decomposition subgroups of the places of S and of the known non-cyclic
part of its complement.  It lives in T = H_1(G, M), where each subgroup H
contributes the image of H_1(H, M).  With S the span of the images of the
non-cyclic S entries, and D that of the complement side with every cyclic
subgroup adjoined for free (the Chebotarev step), the defect is
(D + S) / D ≅ S / (S ∩ D), which `finite_quotient` of the S-side images
over D gives with no lattice intersection.  Each side adjoins its
subgroups only up to conjugacy and containment: one representative per
conjugacy class, none inside a conjugate of another.

One of two heads gives T's coordinates and the images; the tail,
`_image_quotient`, does the rest and cannot tell them apart.

- `_y_head` reads T from a relation-free Y, as the cover kernel and a
  torus's cocharacters are.  L_H, the span of the columns rho(h) - 1 over
  H's generators, presents the coinvariants Z^n / L_H.  The torsion image
  of H lies in sat(L_H) ⊆ sat(L_G), so in T = sat(L_G) / L_G, which is
  H_1(G, M) for the cover kernel of M.
- `_bar_head` reads T = Z_G / T(B) on G's generator blocks from
  `modules._bar_homology`, as `modules.h1_bar` does, with no cover.

`defect` takes the bar head when n k < r.  Those are the rows of the
matrices each head reduces: T(B) has n k rows for the k generating
positions, and the cover kernel of `free_cover` has rank
r = |G| d - (free rank of M) on its d greedy generators.  The route reads
the scenario and `use_shortcuts` alone; a cover built earlier is a memo
that `free_cover` returns if the cover head runs on its module.

With shortcuts on, `defect` first divides G by N, the kernel of the
action: the g with D[g] ≡ I modulo the relations.  Over Q = G/N, with
each listed entry replaced by its image, the defect is the same.  The
five-term exact sequence of 1 -> N -> G -> Q -> 1 (Brown, Cohomology of
Groups, VII.6) ends H_1(N, M)_Q -> H_1(G, M) -> H_1(Q, M) -> 0, as
M_N = M.  N acts trivially, so H_1(N, M) = N^ab ⊗ M (universal
coefficients), and x ⊗ m is the image of x ⊗ m in H_1(<x>, M) = <x> ⊗ M:
the cyclic images span it, so the kernel of T -> T_Q lies in D.  The same
sequence for H ∩ N puts H_1(H, M) onto H_1(HN/N, M), so by naturality
T -> T_Q carries the image of each subgroup onto that of its image, and
the cyclic subgroups of G map onto those of Q.  Hence D and the S images
map onto their counterparts over Q, with kernel inside D, and (D + S)/D
is unchanged.  When N = G, T_Q = 0 and the defect is 0.

The stage works in T ≅ ⊕ Z/d_i (`linalg.torsion_coordinates`), so after
the head each matrix has rank(T) rows: D begins with diag(d_i), and every
other entry of row i lies in [0, d_i).  It stops as soon as T forces the
answer:

1. t = |T| = d_1 ... d_r.  If t = 1, every image is 0 and so is the defect.
2. |H| kills H_1(H, M) (Brown, Cohomology of Groups, III.10.2; for Y
   torsion-free it is the torsion of Y_H, Tate H^-1(H, Y)).  Its image in
   T is therefore 0 when gcd(|H|, t) = 1, and such subgroups are dropped
   from both sides before the containment pruning, which then keeps what
   it kept before: a subgroup containing a conjugate of a kept H has an
   order divisible by |H|, so it is not dropped either.  t = 1 drops every
   subgroup.  If no S entry survives, the defect is 0.
3. If T / D is trivial, D holds every S image and the defect is 0; no S
   image is computed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import gcd, prod

from .groups import (
    CayleyGroup,
    Subgroup,
    _left_cosets,
    cyclic_subgroups,
    full_subgroup,
    is_cyclic_subgroup,
    is_subgroup,
)
from .linalg import (
    FinAbInvariants,
    IntMatrix,
    _Frozen,
    cokernel_invariants,
    finite_quotient,
    hstack,
    preimage,
    torsion_coordinates,
    torsion_generators,
)
from .modules import (
    FreeCover,
    GammaModule,
    ModuleError,
    _bar_d1,
    _bar_homology,
    _congruent,
    _cover_shift_rows,
    _greedy_scan,
    coinvariants,
    free_cover,
    validate,
)

__all__ = [
    "Scenario",
    "DefectResult",
    "ScenarioError",
    "validate_scenario",
    "defect",
    "ch1_torus",
    "quick_vanish",
    "verify_cover",
]


class ScenarioError(ValueError):
    """Scenario pieces do not fit together."""


class Scenario(_Frozen):
    """Input to the defect computation.

    `s_subgroups` lists one decomposition subgroup per place of S
    (repetitions allowed); `sc_subgroups` lists the non-cyclic decomposition
    subgroups known to occur over the complement.  Cyclic subgroups of the
    complement need never be listed: they are always adjoined.
    """

    __slots__ = ("group", "module", "s_subgroups", "sc_subgroups")

    def __init__(
        self,
        group: CayleyGroup,
        module: GammaModule,
        s_subgroups: Sequence[Subgroup],
        sc_subgroups: Sequence[Subgroup] = (),
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "s_subgroups", tuple(s_subgroups))
        object.__setattr__(self, "sc_subgroups", tuple(sc_subgroups))


class DefectResult(_Frozen):
    """A finite abelian group plus bookkeeping about how it was obtained."""

    __slots__ = ("invariants", "s_nc_used", "shortcut")

    def __init__(self, invariants: FinAbInvariants, s_nc_used: tuple[int, ...], shortcut: str | None = None):
        if invariants.free_rank:
            raise AssertionError("the defect is a finite group; free rank must be 0")
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "s_nc_used", tuple(s_nc_used))
        object.__setattr__(self, "shortcut", shortcut)


def validate_scenario(sc: Scenario) -> None:
    if sc.module.group is not sc.group:
        raise ScenarioError("module is defined over a different group object")
    validate(sc.module)
    for label, subgroups in (("S", sc.s_subgroups), ("S_complement", sc.sc_subgroups)):
        for k, H in enumerate(subgroups):
            if not is_subgroup(sc.group, H):
                raise ScenarioError(f"{label}[{k}] is not a subgroup of the group")


def _class_representatives(G: CayleyGroup, candidates: Sequence[Subgroup]) -> list[Subgroup]:
    """The candidates, by decreasing order, that lie in no conjugate of one kept before.

    Inner automorphisms act trivially on H_1(G, -), and H_1 of a subgroup
    maps to the coinvariants through H_1 of any subgroup containing it
    (Brown, Cohomology of Groups, III.8), so a dropped candidate adds
    nothing to a sum of torsion images.  H lies in g K g^-1 when g^-1 h g
    is in K for each generator h of H.
    """
    table, inverses = G.table, G.inverses
    kept: list[tuple[Subgroup, set[int]]] = []
    for H in sorted(candidates, key=lambda H: -H.order):
        if not any(
            K.order % H.order == 0
            and any(all(table[table[inverses[g]][h]][g] in K_elems for h in H.generators) for g in range(G.order))
            for K, K_elems in kept
        ):
            kept.append((H, set(H.elements)))
    return [H for H, _ in kept]


def _noncyclic_positions(G: CayleyGroup, subgroups: Sequence[Subgroup]) -> tuple[int, ...]:
    return tuple(k for k, H in enumerate(subgroups) if not is_cyclic_subgroup(G, H))


def _reduced(A: IntMatrix, moduli: tuple[int, ...]) -> IntMatrix:
    return IntMatrix.from_rows([[e % d for e in A.row(i)] for i, d in enumerate(moduli)], cols=A.cols)


def _image_quotient(
    G: CayleyGroup,
    phi: IntMatrix,
    moduli: tuple[int, ...],
    image: Callable[[Subgroup], IntMatrix],
    s_subgroups: Sequence[Subgroup],
    sc_subgroups: Sequence[Subgroup],
) -> FinAbInvariants:
    """(D + the S-side images) / D, in the coordinates of T = H_1(G, M) ≅ ⊕ Z/d_i.

    A head gives (phi, moduli, image): x -> (phi x mod d_i) maps its
    ambient onto T, and the columns of image(H) span the image of
    H_1(H, M) there.  |H| kills H_1(H, M), so the answer is 0, with no
    S-side image computed, at the module docstring's three exits: t = 1,
    no S entry of order sharing a factor with t, or T / D trivial.
    Subgroups of order prime to t are dropped on both sides.
    """
    t = prod(moduli)

    def representatives(candidates: list[Subgroup]) -> list[Subgroup]:
        return _class_representatives(G, [H for H in candidates if gcd(H.order, t) > 1])

    def images(reps: list[Subgroup]) -> list[IntMatrix]:
        return [_reduced(phi @ image(H), moduli) for H in reps]

    s_reps = representatives([H for H in s_subgroups if not is_cyclic_subgroup(G, H)])
    if not s_reps:
        return FinAbInvariants()
    diagonal = IntMatrix.from_rows([[d * (i == j) for j in range(len(moduli))] for i, d in enumerate(moduli)])
    denominator = hstack([diagonal] + images(representatives(list(sc_subgroups) + cyclic_subgroups(G))))
    if cokernel_invariants(denominator).is_trivial():
        return FinAbInvariants()
    return finite_quotient(hstack(images(s_reps), rows=len(moduli)), denominator)


def _y_head(Y: GammaModule) -> tuple[IntMatrix, tuple[int, ...], Callable[[Subgroup], IntMatrix]]:
    """T as the torsion of Y_G for a relation-free Y, and H's image as that of Y_H."""
    phi, moduli = torsion_coordinates(coinvariants(Y, full_subgroup(Y.group)))
    return phi, moduli, lambda H: torsion_generators(coinvariants(Y, H))


def _bar_head(M: GammaModule) -> tuple[IntMatrix, tuple[int, ...], Callable[[Subgroup], IntMatrix]]:
    """T = Z_G / T(B) on G's generator blocks (`modules._bar_homology`), with no cover.

    T's coordinates come from X, the Hermite form of T(B) written in the
    basis of the cycles Z_G = preimage(d1_red, R), whose solve is check (a)
    of `modules.h1_bar`.  A cycle of C1(H) on H's generators h_1, ..., h_m
    is sum m_j ⊗ [h_j] with (m_j) in Z_H = preimage(d1_red of H, R), up to
    boundaries of H, which lie in those of G.  So the image of H_1(H, M)
    is spanned by [T[h_1] ... T[h_m]] Z_H in G's blocks (Brown, Cohomology
    of Groups, III.8).  Those are cycles of G exactly when the action obeys
    the group law, so a failed image solve raises AssertionError.
    """
    T, cycles, X, _ = _bar_homology(M, full_subgroup(M.group).generators)
    rows = cycles.basis.rows

    def image(H: Subgroup) -> IntMatrix:
        chains = hstack([T[h] for h in H.generators], rows=rows)
        x = cycles.solve(chains @ preimage(_bar_d1(M, H.generators), M.relations))
        if x is None:
            raise AssertionError("bar chains are not cycles: the action breaks the group law")
        return x

    return (*torsion_coordinates(X), image)


def _is_detectably_free(M: GammaModule) -> bool:
    # relation-free, the generating positions permute the basis (a validated
    # relation-free action is invertible, so one 1 per column and zeros
    # elsewhere make a permutation), and every orbit has |G| elements: by
    # orbit-stabilizer no nonidentity element fixes a basis vector, so the
    # basis splits into regular orbits and the module is free
    if M.relations.cols:
        return False
    validate(M)
    perms = []
    for k in M.group.generating_positions:
        cols = M.action[k].columns()
        if any(c.count(1) != 1 or c.count(0) != M.n - 1 for c in cols):
            return False
        perms.append([c.index(1) for c in cols])
    unseen = set(range(M.n))
    while unseen:
        orbit = [unseen.pop()]
        for x in orbit:
            step = {p[x] for p in perms} & unseen
            unseen -= step
            orbit += step
        if len(orbit) != M.group.order:
            return False
    return True


def quick_vanish(sc: Scenario) -> DefectResult | None:
    """Vanishing criteria that force a trivial defect, or None.

    Fires when the complement list contains the whole group, when every S
    entry is cyclic, or when the module is detectably free (permutation
    basis with a free action).
    """
    validate_scenario(sc)
    G = sc.group
    s_nc = _noncyclic_positions(G, sc.s_subgroups)
    trivial = FinAbInvariants()
    if any(len(H.elements) == G.order for H in sc.sc_subgroups):
        return DefectResult(trivial, s_nc, shortcut="complement-full-group")
    if not s_nc:
        return DefectResult(trivial, s_nc, shortcut="all-cyclic-S")
    if _is_detectably_free(sc.module):
        return DefectResult(trivial, s_nc, shortcut="free-module")
    return None


def _faithful_quotient(sc: Scenario) -> Scenario | None:
    """The scenario over Q = G/N for N the kernel of the action: sc itself when N = 1, None when N = G.

    N is the g with D[g] ≡ I modulo R (`modules._congruent`), read from the
    element matrices `validate` derived.  Q's elements are the left cosets
    of N, indexed by `groups._left_cosets`, and its designated generators
    are the images of G's generating positions, acting by their matrices.
    Each listed entry is replaced by its image.  The module docstring says
    why the defect does not change.  N acts trivially modulo R, so the
    generators' matrices define Q's module.  It has the same R object, so it
    shares M's one reduction of R, which the test D[g] ≡ I has built
    whenever some D[g] differs from I and R is not empty.
    """
    G, M = sc.group, sc.module
    identity = IntMatrix.identity(M.n)
    kernel = [g for g, D in enumerate(M.element_matrices()) if _congruent(M, D, identity)]
    if len(kernel) == 1:
        return sc
    if len(kernel) == G.order:
        return None
    coset_of, reps = _left_cosets(G, kernel)
    positions = G.generating_positions
    Q = CayleyGroup(
        table=[[coset_of[G.table[a][b]] for b in reps] for a in reps],
        identity=coset_of[G.identity],
        inverses=[coset_of[G.inverses[a]] for a in reps],
        generator_indices=[coset_of[G.generator_indices[k]] for k in positions],
    )

    def image(H: Subgroup) -> Subgroup:
        gens = {coset_of[h] for h in H.generators} - {Q.identity}
        return Subgroup({coset_of[h] for h in H.elements}, gens)

    module = GammaModule(Q, M.n, M.relations, [M.action[k] for k in positions])
    module._relation_solver = M._relation_solver
    return Scenario(
        Q,
        module,
        [image(H) for H in sc.s_subgroups],
        [image(H) for H in sc.sc_subgroups],
    )


def defect(sc: Scenario, *, use_shortcuts: bool = True) -> DefectResult:
    """The weak-approximation defect of a scenario, as invariant factors.

    With shortcuts on, the pipeline runs over the faithful quotient
    Q = G/N (`_faithful_quotient`), and a module on which all of G acts
    trivially has defect 0, with no shortcut label.  This is sound by the
    five-term exact sequence H_1(N, M)_Q -> H_1(G, M) -> H_1(Q, M) -> 0 of
    1 -> N -> G -> Q -> 1 (Brown, Cohomology of Groups, VII.6): N acts
    trivially, so H_1(N, M) = N^ab ⊗ M, spanned by the x ⊗ m that come
    from H_1(<x>, M) = <x> ⊗ M for x in N, and those cyclic images lie in
    the denominator (module docstring).  A cover built earlier steers
    neither the quotient nor the head.  `s_nc_used` is read over G, since a
    non-cyclic S entry can have a cyclic image in Q.
    """
    # quick_vanish validates the scenario; without it, validate here
    if not use_shortcuts:
        validate_scenario(sc)
    elif (short := quick_vanish(sc)) is not None:
        return short
    s_nc = _noncyclic_positions(sc.group, sc.s_subgroups)
    if use_shortcuts:
        sc = _faithful_quotient(sc)
        if sc is None:
            return DefectResult(FinAbInvariants(), s_nc)
    M = sc.module
    # the head whose matrices have fewer rows (module docstring)
    if M.n * len(M.group.generating_positions) < _greedy_scan(M)[1]:
        head = _bar_head(M)
    else:
        head = _y_head(free_cover(M).kernel)
    return DefectResult(_image_quotient(sc.group, *head, sc.s_subgroups, sc.sc_subgroups), s_nc)


def ch1_torus(
    group: CayleyGroup,
    y_module: GammaModule,
    s_subgroups: Sequence[Subgroup],
    sc_subgroups: Sequence[Subgroup],
) -> FinAbInvariants:
    """Torus-side pipeline: the cocharacter lattice is used directly, no cover."""
    if y_module.relations.cols:
        raise ModuleError("a torus cocharacter module must be relation-free")
    sc = Scenario(group, y_module, s_subgroups, sc_subgroups)
    validate_scenario(sc)
    return _image_quotient(group, *_y_head(y_module), sc.s_subgroups, sc.sc_subgroups)


def verify_cover(cover: FreeCover) -> None:
    """Deep consistency checks for a free cover; raises AssertionError on failure.

    The kernel action is pinned by the identity that defines it.  Let B be
    `kernel_basis` and P_g left translation by g on Z[G]^d.  Each
    generating position k must have B A[k] = P_{s_k} B, and the projection
    must kill the kernel modulo the relations (`modules._congruent`).  Only
    the generating positions' stored matrices are read, so no kernel matrix
    is solved; a tuple later assigned to `kernel.action` is checked on them.

    B has full column rank (a Hermite basis: its columns have distinct
    pivot rows), so D[g] is the unique X with B X = P_g B, which is how
    `modules._CoverKernel` solves every element matrix.  g -> P_g is a
    representation, so B D[g] D[h] = P_g P_h B = P_{gh} B = B D[gh], and
    D[g] D[h] = D[gh] holds exactly.  A check of the law alone would accept
    any lawful action, such as identity matrices or a conjugate of the
    true one.
    """
    Y = cover.kernel
    G = Y.group
    B = cover.kernel_basis
    d = cover.cover_rank // G.order
    gens = G.generator_indices
    for k in G.generating_positions:
        if B @ Y.action[k] != _cover_shift_rows(G, d, B, gens[k]):
            raise AssertionError(f"cover kernel: generator {k} does not act by left translation")
    if not _congruent(cover.module, cover.projection @ B):
        raise AssertionError("projection does not kill the cover kernel")
