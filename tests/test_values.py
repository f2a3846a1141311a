"""The package's values: records, copies and pickles, and the import set.

`Scenario`, `DefectResult`, `Subgroup`, `SmithDecomposition` and
`FinAbInvariants` are immutable records: construction by position or
keyword with defaults, checks with fixed messages, equality only within the
type, a hash over the fields, and a repr that names every field.
`IntMatrix` shares their equality, hashing and immutability; `CayleyGroup`
compares and hashes by identity.  Every public value survives `copy.copy`,
`copy.deepcopy` and `pickle`, and every value class but `CayleyGroup` takes
its equality, hash and copies from the one base `_Frozen`.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wadefect
from wadefect import catalog
from wadefect.engine import DefectResult, Scenario, defect
from wadefect.groups import CayleyGroup, GroupError, Subgroup, from_permutations
from wadefect.linalg import FinAbInvariants, IntMatrix, SmithDecomposition, _Frozen, smith_normal_form
from wadefect.modules import norm_one_module
from wadefect.scenario_io import parse_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def klein():
    return from_permutations(catalog.KLEIN_GENS)


def catalog_scenario():
    # the first catalog entry: the norm-one torus over Klein, defect Z/2
    return parse_scenario(catalog.catalog_document(catalog.catalog_names()[0]))


FIELDS = {
    "Scenario": ("group", "module", "s_subgroups", "sc_subgroups"),
    "DefectResult": ("invariants", "s_nc_used", "shortcut"),
    "Subgroup": ("elements", "generators"),
    "SmithDecomposition": ("U", "D", "V", "diagonal"),
    "FinAbInvariants": ("factors", "free_rank"),
    "IntMatrix": ("rows", "cols", "entries"),
}


def records():
    G = klein()
    M = norm_one_module(G)
    full = Subgroup(range(4), (1, 2))
    I = IntMatrix.identity(2)
    inv = FinAbInvariants((2,))
    return {
        "Scenario": lambda: Scenario(G, M, [full], [full]),
        "DefectResult": lambda: DefectResult(inv, (0,), "s-cyclic"),
        "Subgroup": lambda: Subgroup((0, 1), (1,)),
        "SmithDecomposition": lambda: SmithDecomposition(I, I, I, (1, 1)),
        "FinAbInvariants": lambda: FinAbInvariants((2, 4), 1),
        "IntMatrix": lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
    }


class TestConstruction:
    def test_positional_and_keyword_agree(self):
        G = klein()
        M = norm_one_module(G)
        H = Subgroup((0, 1), (1,))
        I = IntMatrix.identity(1)
        inv = FinAbInvariants((2,))
        assert Scenario(G, M, [H], [H]) == Scenario(group=G, module=M, s_subgroups=[H], sc_subgroups=[H])
        assert DefectResult(inv, (0,), "x") == DefectResult(invariants=inv, s_nc_used=(0,), shortcut="x")
        assert Subgroup((0, 1), (1,)) == Subgroup(elements=(0, 1), generators=(1,))
        assert SmithDecomposition(I, I, I, (1,)) == SmithDecomposition(U=I, D=I, V=I, diagonal=(1,))
        assert FinAbInvariants((2,), 1) == FinAbInvariants(factors=(2,), free_rank=1)

    def test_defaults(self):
        G = klein()
        sc = Scenario(G, norm_one_module(G), [Subgroup((0,))])
        assert sc.sc_subgroups == ()
        assert DefectResult(FinAbInvariants(), ()).shortcut is None
        assert Subgroup((0, 1)).generators == ()
        assert FinAbInvariants().factors == () and FinAbInvariants().free_rank == 0

    def test_fields_are_normalised(self):
        sc = Scenario(klein(), norm_one_module(klein()), [Subgroup((0,))], [Subgroup((0,))])
        assert isinstance(sc.s_subgroups, tuple) and isinstance(sc.sc_subgroups, tuple)
        H = Subgroup([3, 0, 3, 1], [1, 1])
        assert H.elements == (0, 1, 3) and H.generators == (1,) and H.order == 3
        assert FinAbInvariants([2.0, "4"]).factors == (2, 4)

    def test_sequences_and_counts_are_normalised(self):
        inv = FinAbInvariants((2,))
        listed = DefectResult(inv, [0, 1])
        assert listed.s_nc_used == (0, 1) and listed == DefectResult(inv, (0, 1))
        assert hash(listed) == hash(DefectResult(inv, (0, 1)))
        for rank in (1.0, "1", True):
            A = FinAbInvariants((), rank)
            assert type(A.free_rank) is int and A == FinAbInvariants((), 1)
            assert A.pretty() == "Z" and repr(A) == "FinAbInvariants(factors=(), free_rank=1)"

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: FinAbInvariants((1, 2)), ValueError, "invariant factors must be at least 2"),
            (lambda: FinAbInvariants((4, 2)), ValueError, "invariant factors must form a divisibility chain, got (4, 2)"),
            (lambda: FinAbInvariants((2,), -1), ValueError, "free rank must be nonnegative"),
            (lambda: Subgroup((0, 1), (2,)), GroupError, "subgroup generators must be listed among its elements"),
            (
                lambda: DefectResult(FinAbInvariants((2,), 1), ()),
                AssertionError,
                "the defect is a finite group; free rank must be 0",
            ),
        ],
        ids=["factor-below-2", "broken-chain", "negative-free-rank", "generator-outside", "defect-free-rank"],
    )
    def test_checks_and_messages(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


class TestRecordBehaviour:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_equal_values_hash_equal(self, name):
        make = records()[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_not_equal_to_another_type_with_the_same_fields(self, name):
        a = records()[name]()
        fields = {f: getattr(a, f) for f in FIELDS[name]}
        assert a != SimpleNamespace(**fields)
        assert a != tuple(fields.values())

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_assignment_and_deletion_raise(self, name):
        a = records()[name]()
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_repr_strings(self):
        assert repr(FinAbInvariants((2,))) == "FinAbInvariants(factors=(2,), free_rank=0)"
        assert repr(Subgroup((3, 0, 1), (1,))) == "Subgroup(elements=(0, 1, 3), generators=(1,))"
        assert (
            repr(DefectResult(FinAbInvariants((2,)), (0, 1)))
            == "DefectResult(invariants=FinAbInvariants(factors=(2,), free_rank=0), s_nc_used=(0, 1), shortcut=None)"
        )
        assert repr(Scenario(klein(), norm_one_module(klein()), [Subgroup((0,))])) == (
            "Scenario(group=CayleyGroup(order=4, generators=(1, 2)), "
            "module=GammaModule(n=3, relations=0, group_order=4), "
            "s_subgroups=(Subgroup(elements=(0,), generators=()),), sc_subgroups=())"
        )


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("copier", sorted(COPIERS))
class TestCopyAndPickle:
    def test_values_round_trip(self, copier):
        rt = COPIERS[copier]
        snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        values = [
            IntMatrix.identity(2),
            IntMatrix(0, 3, ()),
            snf,
            FinAbInvariants((2, 4), 1),
            Subgroup((0, 1), (1,)),
            DefectResult(FinAbInvariants((2,)), (0, 1), "s-cyclic"),
        ]
        for v in values:
            w = rt(v)
            assert type(w) is type(v) and w == v and hash(w) == hash(v)

    def test_cayley_group_keeps_its_tree(self, copier):
        G = from_permutations([[1, 2, 0, 3], [0, 1, 3, 2], [1, 0, 2, 3]])
        H = COPIERS[copier](G)
        for field in ("order", "table", "identity", "inverses", "generator_indices", "generating_positions"):
            assert getattr(H, field) == getattr(G, field)
        assert list(H.tree.items()) == list(G.tree.items())

    @pytest.mark.parametrize("solved_first", [False, True], ids=["fresh", "solved"])
    def test_scenario_with_its_module(self, copier, solved_first):
        sc = catalog_scenario()
        if solved_first:
            defect(sc, use_shortcuts=False)  # caches element matrices and the cover on the module
        sc2 = COPIERS[copier](sc)
        assert sc2.module.group is sc2.group
        assert sc2.s_subgroups == sc.s_subgroups and sc2.sc_subgroups == sc.sc_subgroups
        for shortcuts in (True, False):
            assert defect(sc2, use_shortcuts=shortcuts) == defect(sc, use_shortcuts=shortcuts)
        assert defect(sc2).invariants == FinAbInvariants((2,))


class TestCayleyGroupIdentity:
    def test_equal_only_to_itself(self):
        G, H = klein(), klein()
        assert G.table == H.table and G != H and not G == H
        assert G == G and hash(G) == object.__hash__(G)

    @pytest.mark.parametrize("copier", sorted(COPIERS))
    def test_copy_is_another_value_with_equal_fields(self, copier):
        G = klein()
        H = COPIERS[copier](G)
        assert H is not G and H != G
        assert all(getattr(H, f) == getattr(G, f) for f in CayleyGroup.__slots__)


def test_equality_hashing_and_copies_come_from_the_base():
    classes = {}  # every subclass of `_Frozen` in the package's modules, by name
    for info in pkgutil.iter_modules(wadefect.__path__):
        for cls in vars(importlib.import_module(f"wadefect.{info.name}")).values():
            if inspect.isclass(cls) and issubclass(cls, _Frozen) and cls is not _Frozen:
                classes[cls.__qualname__] = cls
    assert set(classes) == set(FIELDS) | {"CayleyGroup"}
    for name, cls in classes.items():
        if cls is CayleyGroup:
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
            assert "__reduce__" in vars(cls)
        else:
            for method in ("__eq__", "__hash__", "__reduce__"):
                assert getattr(cls, method) is getattr(_Frozen, method), (name, method)


def test_import_set_leaves_out_heavy_stdlib_modules():
    # -S keeps site files (which may preload modules) out; -B because -I
    # ignores PYTHONDONTWRITEBYTECODE
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import wadefect, wadefect.cli, wadefect.zoo, wadefect.oracles\n"
        "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect', 'ast') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []
