"""Finite groups as explicit multiplication tables.

Elements are integers 0..N-1.  Groups built from permutation generators get
a canonical indexing: breadth-first closure from the identity, applying the
generators in the given order by right multiplication.  That ordering is
what scenario files and action matrices refer to, so it is part of the
contract, not an implementation detail.

Permutations are tuples p with p[i] the image of i, and the product x*y
acts by (x*y)(i) = x(y(i)).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd, prod

from .linalg import FinAbInvariants, _Frozen

__all__ = [
    "CayleyGroup",
    "Subgroup",
    "GroupError",
    "DEFAULT_ORDER_CAP",
    "from_permutations",
    "from_table",
    "subgroup_closure",
    "cyclic_subgroups",
    "conjugate_subgroup",
    "abelianization",
    "is_subgroup",
    "is_cyclic_subgroup",
    "full_subgroup",
    "trivial_subgroup",
    "subgroup_cayley",
]

DEFAULT_ORDER_CAP = 2000


class GroupError(ValueError):
    """Invalid group data: bad table, bad generators, or a cap exceeded."""


class CayleyGroup(_Frozen):
    """A finite group with a full multiplication table.

    `table[i][j]` is the index of g_i * g_j.  `generating_positions` lists,
    in increasing order, the positions in `generator_indices` of a greedy
    irredundant generating subset of the designated generators: a position
    is kept when its element is outside the subgroup generated by those kept
    before it.  Per-generator loops run over this subset; the designated
    generators themselves must generate the whole table.

    `tree` is the breadth-first spanning tree of the Cayley graph on that
    subset, rooted at the identity: it maps every other element, in the
    order reached, to (parent, k) with element = parent * generator_indices[k].
    """

    __slots__ = ("order", "table", "identity", "inverses", "generator_indices", "generating_positions", "tree")
    # groups are told apart by identity; the tables run to millions of entries
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, table, identity, inverses, generator_indices):
        object.__setattr__(self, "order", len(table))
        object.__setattr__(self, "table", tuple(tuple(row) for row in table))
        object.__setattr__(self, "identity", int(identity))
        object.__setattr__(self, "inverses", tuple(inverses))
        object.__setattr__(self, "generator_indices", tuple(generator_indices))
        kept, tree = _span(self.table, self.identity, self.generator_indices)
        if len(tree) + 1 != self.order:
            raise GroupError(f"the designated generators generate {len(tree) + 1} of {self.order} elements")
        object.__setattr__(self, "generating_positions", tuple(kept))
        object.__setattr__(self, "tree", tree)

    def __reduce__(self):
        # the other fields are derived from these four, in the same way
        return CayleyGroup, (self.table, self.identity, self.inverses, self.generator_indices)

    def __repr__(self) -> str:
        return f"CayleyGroup(order={self.order}, generators={self.generator_indices})"


class Subgroup(_Frozen):
    """A subgroup as a sorted element set plus a generating subset."""

    __slots__ = ("elements", "generators")

    def __init__(self, elements: Iterable[int], generators: Iterable[int] = ()):
        elems = tuple(sorted({int(e) for e in elements}))
        gens = tuple(sorted({int(g) for g in generators}))
        if not set(gens) <= set(elems):
            raise GroupError("subgroup generators must be listed among its elements")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "generators", gens)

    @property
    def order(self) -> int:
        return len(self.elements)


def _is_permutation(row: Sequence[int], n: int) -> bool:
    return len(row) == n and sorted(row) == list(range(n))


def _validate_latin(table: list[list[int]]) -> None:
    n = len(table)
    for i, row in enumerate(table):
        if not _is_permutation(row, n):
            raise GroupError(f"row {i} is not a permutation of 0..{n - 1}: not a Latin square")
    for j in range(n):
        col = [table[i][j] for i in range(n)]
        if not _is_permutation(col, n):
            raise GroupError(f"column {j} is not a permutation of 0..{n - 1}: not a Latin square")


def _find_identity(table: list[list[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            return e
    raise GroupError("table has no two-sided identity")


def _span(table, identity, candidates: Sequence[int]) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Keep each candidate outside the closure of those kept before it; return (kept positions, tree).

    The closure is a breadth-first search from the identity by right
    multiplication by the kept candidates in order, redone after each keep.
    `tree` records the last search: it maps every element reached other
    than the identity, in the order reached, to (parent, p) with
    element = parent * candidates[p].
    """
    kept: list[int] = []
    tree: dict[int, tuple[int, int]] = {}
    for pos, c in enumerate(candidates):
        if c == identity or c in tree:
            continue
        kept.append(pos)
        tree = {}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                row = table[x]
                for p in kept:
                    y = row[candidates[p]]
                    if y != identity and y not in tree:
                        tree[y] = (x, p)
                        nxt.append(y)
            frontier = nxt
    return kept, tree


def _light_associativity(table, gens) -> tuple[int, int, int] | None:
    # Light's test: with gens generating the magma, checking (x*a)*y == x*(a*y)
    # for a in gens and all x, y settles associativity of the whole table.
    n = len(table)
    for a in gens:
        ta = table[a]
        for x in range(n):
            row_xa = table[table[x][a]]
            row_x = table[x]
            for y in range(n):
                if row_xa[y] != row_x[ta[y]]:
                    return (x, a, y)
    return None


def from_table(table: Sequence[Sequence[int]]) -> CayleyGroup:
    """Validate a full multiplication table; generators default to all elements."""
    rows = [list(r) for r in table]
    n = len(rows)
    if n == 0:
        raise GroupError("empty table")
    if any(len(r) != n for r in rows):
        raise GroupError("table is not square")
    for r in rows:
        for e in r:
            if not isinstance(e, int) or isinstance(e, bool) or not (0 <= e < n):
                raise GroupError(f"table entry {e!r} out of range 0..{n - 1}")
    _validate_latin(rows)
    identity = _find_identity(rows)
    # an associative Latin square with an identity is a group, so each row's
    # identity entry is a two-sided inverse; every element is designated
    G = CayleyGroup(
        table=rows,
        identity=identity,
        inverses=[row.index(identity) for row in rows],
        generator_indices=range(n),
    )
    bad = _light_associativity(G.table, G.generating_positions)
    if bad is not None:
        x, a, y = bad
        raise GroupError(f"associativity fails on ({x}, {a}, {y})")
    return G


def from_permutations(gens: Sequence[Sequence[int]], *, order_cap: int = DEFAULT_ORDER_CAP) -> CayleyGroup:
    """Close permutation generators into a group with canonical BFS indexing.

    The closure records right[x][k], the index of x * g_k, and the edge
    (p, k) that first reached each element b = p * g_k.  Parents come
    before their children, so row a of the table fills in element order
    from a * e = a by a * b = (a * p) * g_k = right[table[a][p]][k]: |G|²
    lookups, and no permutation is composed after the closure.
    """
    perms = [tuple(int(v) for v in g) for g in gens]
    if perms:
        degree = len(perms[0])
        for g in perms:
            if not _is_permutation(g, degree):
                raise GroupError(f"generator {g!r} is not a permutation of 0..{degree - 1}")
    else:
        degree = 0

    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = []
    reached: list[tuple[int, int]] = []  # the edge (p, k) to element i + 1
    for x, perm in enumerate(elements):  # the closure appends as it goes
        step = []
        for k, g in enumerate(perms):
            y = tuple(map(perm.__getitem__, g))
            i = index.get(y)
            if i is None:
                if len(elements) >= order_cap:
                    raise GroupError(f"group order exceeds the cap of {order_cap}")
                i = index[y] = len(elements)
                elements.append(y)
                reached.append((x, k))
            step.append(i)
        right.append(step)

    table = []
    for a in range(len(elements)):
        row = [a]
        for p, k in reached:
            row.append(right[row[p]][k])
        table.append(row)
    inverses = [row.index(0) for row in table]
    return CayleyGroup(
        table=table,
        identity=0,
        inverses=inverses,
        generator_indices=[index[g] for g in perms],
    )


def _check_indices(G: CayleyGroup, indices) -> None:
    for i in indices:
        if not (0 <= i < G.order):
            raise GroupError(f"element index {i} out of range for a group of order {G.order}")


def subgroup_closure(G: CayleyGroup, seed: Sequence[int]) -> Subgroup:
    """Least subgroup of G containing the seed elements, generated by the seeds `_span` keeps."""
    seed = [int(s) for s in seed]
    _check_indices(G, seed)
    kept, tree = _span(G.table, G.identity, seed)
    return Subgroup(elements=(G.identity, *tree), generators=tuple(seed[p] for p in kept))


def _cycle(G: CayleyGroup, g: int) -> tuple[int, ...]:
    elems = {G.identity}
    x = g
    while x != G.identity:
        elems.add(x)
        x = G.table[x][g]
    return tuple(sorted(elems))


def cyclic_subgroups(G: CayleyGroup) -> list[Subgroup]:
    """All distinct cyclic subgroups of G, including the trivial one.

    Deduplicated by element set and returned sorted by element set, so the
    order is deterministic; the stored generator is the least group element
    generating the subgroup.
    """
    found: dict[tuple[int, ...], Subgroup] = {}
    for g in range(G.order):
        key = _cycle(G, g)
        if key not in found:
            found[key] = Subgroup(elements=key, generators=(g,))
    return [found[k] for k in sorted(found)]


def conjugate_subgroup(G: CayleyGroup, H: Subgroup, g: int) -> Subgroup:
    """The conjugate g H g^-1."""
    _check_indices(G, (g,))
    _check_indices(G, H.elements)
    ginv = G.inverses[g]
    conj = lambda h: G.table[G.table[g][h]][ginv]
    return Subgroup(
        elements=tuple(conj(h) for h in H.elements),
        generators=tuple(conj(h) for h in H.generators),
    )


def full_subgroup(G: CayleyGroup) -> Subgroup:
    gens = tuple(G.generator_indices[k] for k in G.generating_positions)
    return Subgroup(elements=tuple(range(G.order)), generators=gens)


def trivial_subgroup(G: CayleyGroup) -> Subgroup:
    return Subgroup(elements=(G.identity,), generators=())


def is_subgroup(G: CayleyGroup, H: Subgroup) -> bool:
    """Whether H's generators generate exactly its element set.

    The closure of the generators is a subgroup, so this also settles that
    the element set is closed.
    """
    elems = set(H.elements)
    if not all(0 <= e < G.order for e in elems):
        return False
    return {G.identity, *_span(G.table, G.identity, H.generators)[1]} == elems


def is_cyclic_subgroup(G: CayleyGroup, H: Subgroup) -> bool:
    # both are sorted tuples of distinct elements
    return any(_cycle(G, g) == H.elements for g in H.elements)


def subgroup_cayley(G: CayleyGroup, H: Subgroup) -> CayleyGroup:
    """Rebuild a subgroup as a standalone group, re-indexed by sorted elements."""
    _check_indices(G, H.elements)
    if not is_subgroup(G, H):
        raise GroupError("not a subgroup of this group")
    old = list(H.elements)
    pos = {g: i for i, g in enumerate(old)}
    table = [[pos[G.table[a][b]] for b in old] for a in old]
    return from_table(table)


def _left_cosets(G: CayleyGroup, elements: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    """(coset index of each element, least element of each coset) for the left cosets g H, in element order."""
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in range(G.order):
        if g not in coset_of:
            for h in elements:
                coset_of[G.table[g][h]] = len(reps)
            reps.append(g)
    return coset_of, reps


def _quotient(G: CayleyGroup, N: Sequence[int]) -> tuple[CayleyGroup, dict[int, int]]:
    """(G/N, coset index of each element) for a normal subgroup N given by its elements.

    Q's elements are the left cosets of N in `_left_cosets` order, and its
    designated generators are the images of G's generating positions.
    """
    coset_of, reps = _left_cosets(G, N)
    Q = CayleyGroup(
        table=[[coset_of[G.table[a][b]] for b in reps] for a in reps],
        identity=coset_of[G.identity],
        inverses=[coset_of[G.inverses[a]] for a in reps],
        generator_indices=[coset_of[G.generator_indices[k]] for k in G.generating_positions],
    )
    return Q, coset_of


def _invariants_from_orders(orders: Sequence[int]) -> FinAbInvariants:
    """Invariant factors of a finite abelian group A from the orders of its elements.

    The exponent e of A is its largest invariant factor, so A ≅ Z/e ⊕ A′
    and the other factors are those of A′.  The count of a with m·a = 0
    is multiplicative over direct sums and is gcd(m, d) in Z/d, so in A′
    it is A's count divided by the product of gcd(m, d) over the factors
    d taken so far.  m kills A′ exactly when that count is |A′|, so the
    exponent of A′, which divides |A′|, is the least such divisor m of
    |A′|.  The factors come off largest first.
    """
    factors: list[int] = []
    rest = len(orders)
    while rest > 1:
        e = next(
            m for m in range(2, rest + 1)
            if rest % m == 0 and sum(m % o == 0 for o in orders) // prod(gcd(m, d) for d in factors) == rest
        )
        factors.append(e)
        rest //= e
    return FinAbInvariants(factors=tuple(reversed(factors)))


def abelianization(G: CayleyGroup) -> FinAbInvariants:
    """Invariant factors of G modulo its commutator subgroup.

    The subgroup generated by all commutators is already normal, so one
    closure suffices; the abelian quotient (`_quotient`) is then decomposed
    from the orders of its elements.
    """
    comms = set()
    for a in range(G.order):
        ainv = G.inverses[a]
        for b in range(G.order):
            comms.add(G.table[G.table[G.table[a][b]][ainv]][G.inverses[b]])
    Q, _ = _quotient(G, subgroup_closure(G, sorted(comms)).elements)
    return _invariants_from_orders([len(_cycle(Q, q)) for q in range(Q.order)])
