"""Built-in scenarios.

The Klein entries model a biquadratic extension whose only non-cyclic
decomposition groups sit at two ramified places, acting on the norm-one
torus module of rank 3.  Expected invariant factors are frozen here and
re-verified by `wadefect selfcheck`.
"""

from __future__ import annotations

from .groups import full_subgroup, subgroup_closure
from .modules import free_module, induced_module, norm_one_module
from .scenario_io import scenario_document
from .zoo import klein

__all__ = ["CATALOG_EXPECTED", "catalog_names", "catalog_document", "describe"]

KLEIN_GENS = [[1, 0, 3, 2], [2, 3, 0, 1]]

# name -> (description, module over the Klein group, full places in S,
# full places over the complement, invariant factors selfcheck re-checks)
_ENTRIES = {
    "klein-norm-one-both-places": (
        "Klein four-group, norm-one module of rank 3; S holds both places with "
        "full decomposition group, nothing non-cyclic over the complement.",
        norm_one_module, 2, 0, (2,),
    ),
    "klein-norm-one-one-place": (
        "Same module, but S holds only one of the two full places; the other "
        "one lies over the complement and kills the defect.",
        norm_one_module, 1, 1, (),
    ),
    "klein-norm-one-complement-full": (
        "Both full places in S and the full group also listed over the "
        "complement; the defect vanishes.",
        norm_one_module, 2, 1, (),
    ),
    "quasi-trivial-free": (
        "Free module Z[G] over the Klein four-group; the defect vanishes for "
        "every choice of places.",
        free_module, 2, 0, (),
    ),
    "perm-module-coset": (
        "Coset permutation module of rank 2 over the Klein four-group (an "
        "induced, hence quasi-trivial, torus); the defect vanishes.",
        lambda G: induced_module(G, subgroup_closure(G, (1,))), 1, 0, (),
    ),
}

CATALOG_EXPECTED = {name: entry[4] for name, entry in _ENTRIES.items()}


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def describe(name: str) -> str:
    return _ENTRIES[name][0]


def catalog_document(name: str) -> dict:
    """The scenario document for a catalog entry; KeyError for unknown names."""
    _, module, s_full, sc_full, _ = _ENTRIES[name]
    G = klein()
    full = full_subgroup(G)
    return scenario_document(
        permutation_generators=KLEIN_GENS,
        module=module(G),
        s_subgroups=[full] * s_full,
        sc_subgroups=[full] * sc_full,
    )
