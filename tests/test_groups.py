import hashlib
import random
from functools import reduce
from itertools import product
from math import gcd, lcm

import pytest

from counting_oracles import cyclic_subgroup_count
from wadefect.groups import (
    CayleyGroup,
    _invariants_from_orders,
    GroupError,
    Subgroup,
    abelianization,
    conjugate_subgroup,
    cyclic_subgroups,
    from_permutations,
    from_table,
    full_subgroup,
    is_cyclic_subgroup,
    is_subgroup,
    subgroup_cayley,
    subgroup_closure,
    trivial_subgroup,
)
from wadefect.linalg import FinAbInvariants
from wadefect.oracles import all_subgroups_2gen
from wadefect.zoo import a4, cyclic, d4, group_zoo, klein, q8, s3

KLEIN_GENS = [(1, 0, 3, 2), (2, 3, 0, 1)]


# name -> (permutation generators, order): the zoo's groups and three larger ones
PERMUTATION_GROUPS = {
    "C2": ([(1, 0)], 2),
    "C3": ([(1, 2, 0)], 3),
    "C6": ([(1, 2, 3, 4, 5, 0)], 6),
    "klein": (KLEIN_GENS, 4),
    "S3": ([(1, 2, 0), (1, 0, 2)], 6),
    "D4": ([(1, 2, 3, 0), (3, 2, 1, 0)], 8),
    "Q8": ([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)], 8),
    "A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 12),
    "S5": ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 120),
    "S5xC2": ([(1, 2, 3, 4, 0, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 5)], 240),
    "A6": ([(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)], 360),
}


def composed_reference(gens):
    """(table, inverses, generator indices) by composing every pair of permutations.

    The elements are indexed as `from_permutations` documents: breadth-first
    from the identity, by right multiplication by the generators in order.
    """
    degree = len(gens[0])
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    for x in elements:
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    table = tuple(tuple(index[tuple(a[b[i]] for i in range(degree))] for b in elements) for a in elements)
    inverses = tuple(row.index(0) for row in table)
    return table, inverses, tuple(index[tuple(g)] for g in gens)


def order_of(G, g):
    return len(subgroup_closure(G, (g,)).elements)


class TestFromPermutations:
    def test_single_swap(self):
        G = from_permutations([(1, 0)])
        assert G.order == 2
        assert G.table[1][1] == 0

    def test_klein_four(self):
        G = from_permutations(KLEIN_GENS)
        assert G.order == 4
        assert all(G.table[g][g] == 0 for g in range(4))
        assert sorted(order_of(G, g) for g in range(4)) == [1, 2, 2, 2]

    def test_symmetric_three(self):
        G = from_permutations([(1, 2, 0), (1, 0, 2)])
        assert G.order == 6

    def test_rejects_non_bijection(self):
        with pytest.raises(GroupError):
            from_permutations([(0, 0)])
        with pytest.raises(GroupError):
            from_permutations([(1, 0), (0, 1, 2)])

    def test_no_generators_gives_trivial_group(self):
        G = from_permutations([])
        assert G.order == 1 and G.identity == 0

    def test_order_cap(self):
        with pytest.raises(GroupError):
            from_permutations([tuple((i + 1) % 12 for i in range(12))], order_cap=10)

    def test_order_cap_is_inclusive(self):
        cycle = [tuple((i + 1) % 12 for i in range(12))]
        assert from_permutations(cycle, order_cap=12).order == 12
        with pytest.raises(GroupError, match="^group order exceeds the cap of 11$"):
            from_permutations(cycle, order_cap=11)

    @pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
    def test_table_matches_composing_every_pair(self, name):
        gens, order = PERMUTATION_GROUPS[name]
        G = from_permutations(gens)
        assert G.order == order
        got = (G.table, G.inverses, G.generator_indices)
        want = composed_reference(gens)
        if order > 24:
            got, want = (hashlib.sha256(repr(x).encode()).hexdigest() for x in (got, want))
        assert got == want

    def test_canonical_bfs_indexing(self):
        # elements are discovered identity-first, then by right multiplication
        G = from_permutations(KLEIN_GENS)
        assert G.identity == 0
        assert G.generator_indices == (1, 2)
        assert G.generating_positions == (0, 1)

    def test_generating_positions_are_irredundant_and_generate(self):
        def reach(G, positions):
            gens = [G.generator_indices[k] for k in positions]
            seen = {G.identity}
            frontier = [G.identity]
            while frontier:
                frontier = [G.table[x][g] for x in frontier for g in gens if G.table[x][g] not in seen]
                seen.update(frontier)
            return len(seen)

        for P in group_zoo():
            for G in (P, from_table(P.table)):
                positions = G.generating_positions
                assert reach(G, positions) == G.order
                for drop in range(len(positions)):
                    assert reach(G, positions[:drop] + positions[drop + 1 :]) < G.order
                assert 2 ** len(positions) <= G.order

    def test_designated_generators_must_generate(self):
        G = klein()
        with pytest.raises(GroupError, match="generate"):
            CayleyGroup(G.table, G.identity, G.inverses, (1,))


class TestFromTable:
    def test_trivial(self):
        G = from_table([[0]])
        assert G.order == 1 and G.identity == 0

    def test_z2(self):
        G = from_table([[0, 1], [1, 0]])
        assert G.order == 2
        assert G.inverses == (0, 1)
        assert G.generator_indices == (0, 1)

    def test_rejects_non_latin(self):
        with pytest.raises(GroupError):
            from_table([[0, 0], [1, 1]])

    def test_rejects_no_identity(self):
        # a Latin square in which no row acts as the identity
        with pytest.raises(GroupError, match="identity"):
            from_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])

    def test_rejects_non_associative(self):
        # a Latin square with two-sided identity that is not a group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupError, match="associativity"):
            from_table(table)

    def test_rejects_non_associative_large_table(self):
        # Z/520 with one intercalate swapped: still a Latin square with a
        # two-sided identity and inverses, but no longer associative
        n = 520
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        for r in (3, 263):
            table[r][5], table[r][265] = table[r][265], table[r][5]
        with pytest.raises(GroupError, match="associativity"):
            from_table(table)

    def test_round_trip_from_permutation_group(self):
        for G in (klein(), s3(), d4()):
            H = from_table([list(r) for r in G.table])
            assert H.order == G.order
            orders = sorted(order_of(G, g) for g in range(G.order))
            assert orders == sorted(order_of(H, g) for g in range(H.order))


class TestSubgroups:
    def test_closure_identity_only(self):
        G = klein()
        assert subgroup_closure(G, ()).elements == (0,)
        assert subgroup_closure(G, (0,)).elements == (0,)

    def test_closure_single_element(self):
        G = klein()
        assert subgroup_closure(G, (1,)).elements == (0, 1)

    def test_closure_two_elements_is_whole_group(self):
        G = klein()
        assert subgroup_closure(G, (1, 2)).elements == (0, 1, 2, 3)

    def test_closure_bad_index(self):
        with pytest.raises(GroupError):
            subgroup_closure(klein(), (9,))

    def test_is_subgroup(self):
        G = s3()
        assert is_subgroup(G, full_subgroup(G))
        assert is_subgroup(G, trivial_subgroup(G))
        assert not is_subgroup(G, Subgroup(elements=(0, 1))) or order_of(G, 1) == 2

    def test_every_returned_subgroup_is_closed(self):
        rng = random.Random(5)
        for G in group_zoo():
            for _ in range(6):
                seed = [rng.randrange(G.order) for _ in range(rng.randint(0, 2))]
                H = subgroup_closure(G, seed)
                assert is_subgroup(G, H)
                elems = set(H.elements)
                assert all(G.table[a][b] in elems for a in elems for b in elems)

    def test_closure_keeps_an_irredundant_seed_subset(self):
        G = a4()
        assert len(subgroup_closure(G, range(12)).generators) <= 2
        for G in group_zoo():
            assert subgroup_closure(G, (G.identity,)).generators == ()

    def test_is_subgroup_rejects_sets_its_generators_do_not_fill(self):
        G = klein()
        assert not is_subgroup(G, Subgroup(elements=(0, 1, 2), generators=(1,)))
        assert not is_subgroup(G, Subgroup(elements=(0, 1, 2), generators=(1, 2)))
        assert not is_subgroup(G, Subgroup(elements=(1,), generators=(1,)))


class TestCyclicSubgroups:
    def test_trivial_group(self):
        assert len(cyclic_subgroups(cyclic(1))) == 1

    def test_klein(self):
        subs = cyclic_subgroups(klein())
        assert len(subs) == 4
        assert sorted(len(H.elements) for H in subs) == [1, 2, 2, 2]

    def test_s3_count_from_bruteforce(self):
        G = s3()
        # brute-force closure oracle: trivial + three order-2 + one order-3
        assert cyclic_subgroup_count(G) == 5
        assert len(cyclic_subgroups(G)) == 5

    def test_counts_match_bruteforce_everywhere(self):
        for G in group_zoo():
            assert len(cyclic_subgroups(G)) == cyclic_subgroup_count(G)

    def test_deterministic_order(self):
        subs = cyclic_subgroups(d4())
        assert [H.elements for H in subs] == sorted(H.elements for H in subs)

    def test_cyclicity_flag(self):
        G = klein()
        assert is_cyclic_subgroup(G, subgroup_closure(G, (1,)))
        assert not is_cyclic_subgroup(G, full_subgroup(G))
        assert is_cyclic_subgroup(q8(), subgroup_closure(q8(), (2,)))
        # every subgroup of the zoo, and element sets that are no subgroup:
        # H is cyclic when some element's powers are exactly its elements
        rng = random.Random(33)
        for G in group_zoo():
            sets = [H.elements for H in all_subgroups_2gen(G)]
            sets += [rng.sample(range(G.order), rng.randint(1, G.order)) for _ in range(20)]
            powers = []
            for g in range(G.order):
                seen, x = {G.identity}, g
                while x not in seen:
                    seen.add(x)
                    x = G.table[x][g]
                powers.append(seen)
            for elements in sets:
                expected = any(powers[g] == set(elements) for g in elements)
                assert is_cyclic_subgroup(G, Subgroup(elements)) == expected, (G.order, elements)


class TestConjugation:
    def test_identity_fixes(self):
        G = s3()
        H = subgroup_closure(G, (2,))
        assert conjugate_subgroup(G, H, G.identity) == H

    def test_normal_subgroup_fixed(self):
        G = s3()
        rotation = next(g for g in range(6) if order_of(G, g) == 3)
        H = subgroup_closure(G, (rotation,))
        for g in range(6):
            assert conjugate_subgroup(G, H, g).elements == H.elements

    def test_transposition_moved(self):
        G = from_permutations([(1, 2, 0), (1, 0, 2)])
        # conjugating <(01)> by the 3-cycle gives a different order-2 subgroup
        H = subgroup_closure(G, (2,))
        moved = conjugate_subgroup(G, H, 1)
        assert moved.elements != H.elements
        assert len(moved.elements) == 2
        assert is_subgroup(G, moved)

    def test_preserves_order_and_cyclicity(self):
        rng = random.Random(8)
        for G in group_zoo():
            for _ in range(5):
                H = subgroup_closure(G, [rng.randrange(G.order) for _ in range(rng.randint(0, 2))])
                g = rng.randrange(G.order)
                K = conjugate_subgroup(G, H, g)
                assert len(K.elements) == len(H.elements)
                assert is_cyclic_subgroup(G, K) == is_cyclic_subgroup(G, H)


class TestAbelianization:
    def test_klein(self):
        assert abelianization(klein()) == FinAbInvariants((2, 2))

    def test_s3(self):
        assert abelianization(s3()) == FinAbInvariants((2,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
    def test_cyclic(self, n):
        expected = FinAbInvariants((n,)) if n > 1 else FinAbInvariants()
        assert abelianization(cyclic(n)) == expected

    def test_more_groups(self):
        assert abelianization(d4()) == FinAbInvariants((2, 2))
        assert abelianization(q8()) == FinAbInvariants((2, 2))
        assert abelianization(a4()) == FinAbInvariants((3,))

    @pytest.mark.parametrize(
        "cycles, factors",
        [((2, 4), (2, 4)), ((2, 2, 2), (2, 2, 2)), ((4, 4), (4, 4)), ((2, 6), (2, 6)), ((3, 9), (3, 9))],
    )
    def test_abelian_groups_with_repeated_primes(self, cycles, factors):
        # one cycle per factor, on disjoint points
        degree = sum(cycles)
        gens = []
        start = 0
        for n in cycles:
            perm = list(range(degree))
            perm[start : start + n] = [start + (i + 1) % n for i in range(n)]
            gens.append(tuple(perm))
            start += n
        assert abelianization(from_permutations(gens)) == FinAbInvariants(factors)

    def test_invariants_match_the_per_prime_partitions(self):
        # products of cyclic groups, against a copy of the earlier routine
        # that reads each prime's partition off the counts killed by p^j
        rng = random.Random(19)
        for _ in range(400):
            cycles = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(0, 3))]
            orders = [
                reduce(lcm, (n // gcd(a, n) for a, n in zip(x, cycles)), 1)
                for x in product(*(range(n) for n in cycles))
            ]
            rng.shuffle(orders)
            assert _invariants_from_orders(orders) == per_prime_invariants(orders), cycles


def per_prime_invariants(orders):
    size = len(orders)
    primes = [p for p in range(2, size + 1) if size % p == 0 and all(p % q for q in range(2, p))]
    per_prime = {}
    for p in primes:
        # lam_conj[j-1] = number of cyclic p-power factors of order >= p^j
        lam_conj = []
        prev = 0
        j = 1
        while True:
            killed = sum(1 for o in orders if p**j % o == 0)
            exponent = 0
            while killed > 1:
                assert killed % p == 0
                killed //= p
                exponent += 1
            if exponent == prev:
                break
            lam_conj.append(exponent - prev)
            prev = exponent
            j += 1
        per_prime[p] = [sum(1 for c in lam_conj if c >= i) for i in range(1, lam_conj[0] + 1)] if lam_conj else []
    width = max((len(v) for v in per_prime.values()), default=0)
    descending = []
    for i in range(width):
        d = 1
        for p, lam in per_prime.items():
            if i < len(lam):
                d *= p ** lam[i]
        descending.append(d)
    return FinAbInvariants(factors=tuple(reversed(descending)))


class TestSubgroupCayley:
    def test_rebuild_matches_order(self):
        G = d4()
        for H in all_subgroups_2gen(G):
            S = subgroup_cayley(G, H)
            assert S.order == len(H.elements)

    def test_rejects_non_subgroup(self):
        with pytest.raises(GroupError):
            subgroup_cayley(klein(), Subgroup(elements=(0, 1, 2)))


def test_zoo_orders():
    assert [G.order for G in (klein(), s3(), d4(), q8(), a4())] == [4, 6, 8, 8, 12]
    assert sorted(order_of(q8(), g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
