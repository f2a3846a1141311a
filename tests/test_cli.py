import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from importlib.resources import files

import pytest

from wadefect import catalog, scenario_io
from wadefect.cli import _oracle_subgroups, main
from wadefect.engine import Scenario, defect, quick_vanish
from wadefect.scenario_io import (
    SCHEMA_VERSION,
    SchemaError,
    parse_scenario,
    result_document,
    scenario_document,
)
from wadefect.groups import (
    DEFAULT_ORDER_CAP,
    GroupError,
    Subgroup,
    cyclic_subgroups,
    from_permutations,
    full_subgroup,
    is_cyclic_subgroup,
)
from wadefect.linalg import FinAbInvariants, IntMatrix
from wadefect.modules import norm_one_module, validate
from wadefect.zoo import a4, group_zoo, klein, random_subgroup


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def klein_doc():
    return catalog.catalog_document("klein-norm-one-both-places")


def load_json_output(capsys):
    return json.loads(capsys.readouterr().out)


def psl_2_7_doc():
    """PSL(2,7) on the 8 points of P^1(F_7) (|G| = 168), on the augmentation kernel, with S = {G}.

    The basis is f_j = e_j - e_7, so p f_j = f_p(j) - f_p(7) with f_7 = 0.
    """
    perms = [(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)]
    action = [[[(p[j] == i) - (p[7] == i) for j in range(7)] for i in range(7)] for p in perms]
    return {
        "group": {"permutation_generators": [list(p) for p in perms]},
        "module": {"generators": 7, "relations": [], "action": action},
        "S": [{"elements": list(range(168))}],
        "S_complement": [],
    }


def ladder_documents():
    """The torus-ladder rows of bench/workloads.py, by name; the benchmark module is only read."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return {row[0]: workloads.ladder_document(row) for row in workloads.LADDER}


class TestComputeCommand:
    def test_text_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["compute", path]) == 0
        out = capsys.readouterr().out
        assert "result: Z/2" in out
        assert "invariant factors: [2]" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["compute", path, "--emit", "json"]) == 0
        doc = load_json_output(capsys)
        assert doc["invariant_factors"] == [2]
        assert doc["order"] == 2
        assert doc["pretty"] == "Z/2"
        assert doc["schema_version"] == 1

    def test_shortcut_tag_emitted(self, tmp_path, capsys):
        doc = catalog.catalog_document("quasi-trivial-free")
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path, "--emit", "json"]) == 0
        out = load_json_output(capsys)
        assert out["invariant_factors"] == []
        assert out["shortcut"] == "free-module"

    def test_oracle_and_check_flags(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["compute", path, "--oracle", "bar", "--check"]) == 0

    def test_check_and_oracle_build_the_cover_once(self, tmp_path, capsys, monkeypatch):
        # free_cover caches its cover on the module, so --check, defect and
        # --oracle share one cover
        from wadefect.modules import FreeCover, free_cover

        built = []
        real_init = FreeCover.__init__

        def counting_init(self, *args):
            built.append(self)
            real_init(self, *args)

        monkeypatch.setattr(FreeCover, "__init__", counting_init)
        path = write_scenario(tmp_path, klein_doc())
        assert main(["compute", path, "--oracle", "bar", "--check"]) == 0
        assert len(built) == 1
        M = norm_one_module(klein())
        assert free_cover(M) is free_cover(M)

    def test_table_group_matches_permutation_group_under_check_and_oracle(self, tmp_path, capsys):
        # A4 norm-one with S = {G}, once from permutations and once from the
        # Cayley table, which designates every element as a generator
        G = a4()
        M = norm_one_module(G)
        doc = scenario_document(
            permutation_generators=[(1, 2, 0, 3), (1, 0, 3, 2)], module=M, s_subgroups=(full_subgroup(G),)
        )
        table_doc = dict(doc)
        table_doc["group"] = {"cayley_table": [list(r) for r in G.table]}
        table_doc["module"] = dict(doc["module"], action=[m.to_rows() for m in M.element_matrices()])
        outputs = []
        for name, d in (("perm.json", doc), ("table.json", table_doc)):
            path = write_scenario(tmp_path, d, name)
            assert main(["compute", path, "--check", "--oracle", "bar", "--emit", "json"]) == 0
            out = load_json_output(capsys)
            out.pop("timings_ms")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0]["invariant_factors"] == [2]

    def test_oracle_reaches_a5(self, tmp_path, capsys):
        # the norm-one module of A5 (|G| = 60) with S = {G}: the bar oracle
        # checks the full group and its 32 cyclic subgroups
        perms = [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]
        G = from_permutations(perms)
        doc = scenario_document(
            permutation_generators=perms, module=norm_one_module(G), s_subgroups=(full_subgroup(G),)
        )
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path, "--check", "--oracle", "bar", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]

    def test_oracle_reaches_psl_2_7(self, tmp_path, capsys):
        # the bar oracle walks the whole group, where H_1 is Z/6
        path = write_scenario(tmp_path, psl_2_7_doc())
        assert main(["compute", path, "--check", "--oracle", "bar", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]
        assert main(["h1", path, "--subgroup", "full", "--oracle", "bar", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [6]

    def test_check_and_oracle_leave_the_output_unchanged(self, tmp_path, capsys):
        # the defect's route reads the scenario alone, so neither flag changes a byte
        # of the output, timings aside, over the catalog, the torus ladder and PSL(2,7)
        docs = {name: catalog.catalog_document(name) for name in catalog.catalog_names()}
        docs.update(ladder_documents())
        docs["psl-2-7-points8"] = psl_2_7_doc()
        assert len(docs) == 20
        for name, doc in docs.items():
            path = write_scenario(tmp_path, doc, f"{name}.json")
            for emit in ("json", "text"):
                outputs = set()
                for flags in ([], ["--check"], ["--check", "--oracle", "bar"]):
                    code = main(["compute", path, "--emit", emit, *flags])
                    out = capsys.readouterr().out
                    out = re.sub(r'"timings_ms": \{[^}]*\}', '"timings_ms": {}', out)
                    outputs.add((code, re.sub(r"^timings \(ms\): .*$", "", out, flags=re.M)))
                assert len(outputs) == 1, (name, emit, outputs)
                assert next(iter(outputs))[0] == 0, name

    def test_oracle_subgroups_match_the_classifying_list(self):
        # the list with no cyclicity test is the one that kept only the
        # non-cyclic listed entries: same subgroups, generators and order
        def classifying(sc):
            G = sc.group
            seen = {}
            for H in list(sc.s_subgroups) + list(sc.sc_subgroups):
                if not is_cyclic_subgroup(G, H):
                    seen.setdefault(H.elements, H)
            for C in cyclic_subgroups(G):
                seen.setdefault(C.elements, C)
            seen.setdefault(tuple(range(G.order)), full_subgroup(G))
            return [seen[k] for k in sorted(seen)]

        def listed(sc):
            return [(H.elements, H.generators) for H in _oracle_subgroups(sc)]

        docs = [catalog.catalog_document(name) for name in catalog.catalog_names()]
        docs += [*ladder_documents().values(), psl_2_7_doc()]
        assert len(docs) == 20
        scenarios = [parse_scenario(doc) for doc in docs]
        # listed cyclic entries on two generators, whose one-generator twins must win
        rng = random.Random(3939)
        twins = 0
        for _ in range(60):
            G = rng.choice(group_zoo())
            entries = [random_subgroup(rng, G) for _ in range(rng.randint(0, 3))]
            for C in cyclic_subgroups(G):
                if C.order > 2 and rng.random() < 0.5:
                    entries.append(Subgroup(C.elements, rng.sample([g for g in C.elements if g != G.identity], 2)))
                    twins += 1
            rng.shuffle(entries)
            cut = rng.randint(0, len(entries))
            scenarios.append(Scenario(G, norm_one_module(G), entries[:cut], entries[cut:]))
        assert twins >= 30
        for sc in scenarios:
            assert listed(sc) == [(H.elements, H.generators) for H in classifying(sc)]

    def test_check_on_psl_2_7_verifies_its_own_cover_beside_the_bar_head(self, tmp_path, capsys, monkeypatch):
        # n k = 14 rows against a cover kernel of rank 161: the defect builds
        # no cover, and --check builds the scenario module's one
        import wadefect.engine as engine_mod
        from wadefect.modules import FreeCover

        heads = []
        real_bar, real_y = engine_mod._bar_head, engine_mod._y_head
        monkeypatch.setattr(engine_mod, "_bar_head", lambda M: heads.append("bar") or real_bar(M))
        monkeypatch.setattr(engine_mod, "_y_head", lambda Y: heads.append("cover") or real_y(Y))
        built = []
        real_init = FreeCover.__init__
        monkeypatch.setattr(FreeCover, "__init__", lambda self, *args: built.append(self) or real_init(self, *args))
        path = write_scenario(tmp_path, psl_2_7_doc())
        assert main(["compute", path, "--check", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]
        assert heads == ["bar"] and len(built) == 1
        assert built[0].module.group.order == 168 and built[0].module.n == 7

    def test_missing_file_is_schema_error(self, capsys):
        assert main(["compute", "/nonexistent/path.json"]) == 1
        assert capsys.readouterr().err.startswith("schema error:")

    def test_wide_module_answered_without_an_element_matrix(self, tmp_path, capsys):
        # 133 bytes of rank 2,000 over the trivial group: validate and the
        # all-cyclic-S shortcut read no element matrix, so the dense
        # 2,000 x 2,000 identity is never built
        doc = {
            "group": {"permutation_generators": []},
            "module": {"generators": 2000, "relations": [], "action": []},
            "S": [],
            "S_complement": [],
        }
        sc = parse_scenario(doc)
        validate(sc.module)
        assert quick_vanish(sc).shortcut == "all-cyclic-S"
        assert sc.module._matrices == {}
        assert main(["compute", write_scenario(tmp_path, doc)]) == 0
        assert "result: 0" in capsys.readouterr().out

    def test_wide_module_checked_against_the_bar_complex(self, tmp_path, capsys):
        # the same 133 bytes under --check --oracle bar: the cover of the
        # rank-2,000 module comes from a scan that reduces no span again
        doc = {
            "group": {"permutation_generators": []},
            "module": {"generators": 2000, "relations": [], "action": []},
            "S": [],
            "S_complement": [],
        }
        assert main(["compute", write_scenario(tmp_path, doc), "--check", "--oracle", "bar"]) == 0
        assert "result: 0" in capsys.readouterr().out

    def test_wide_module_builds_one_identity_under_check_and_oracle(self, tmp_path, capsys, monkeypatch):
        # validate stores no element matrix on a trivial group with no
        # designated generator; the first read stores the 2,000 x 2,000
        # identity, and the scan, the cover and the oracle all reuse it
        built = []
        real = IntMatrix.identity
        monkeypatch.setattr(IntMatrix, "identity", classmethod(lambda cls, n: built.append(n) or real(n)))
        doc = {
            "group": {"permutation_generators": []},
            "module": {"generators": 2000, "relations": [], "action": []},
            "S": [],
            "S_complement": [],
        }
        assert main(["compute", write_scenario(tmp_path, doc), "--check", "--oracle", "bar", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == []
        assert built == [2000]

    @pytest.mark.parametrize(
        "case",
        [
            "superscript-digit",
            "non-ascii-digit",
            "padded-digit-strings",
            "directory",
            "non-utf8",
            "long-digit-string",
            "long-number-literal",
            "deep-nesting",
        ],
    )
    def test_unreadable_or_malformed_input_is_schema_error(self, tmp_path, capsys, case):
        doc = klein_doc()
        # past the default limit of 4,300 digits on converting decimal text to int
        long_digits = "7" * 5000
        if case == "superscript-digit":
            # "²".isdigit() holds, but int("²") fails
            doc["module"]["generators"] = "²"
        elif case == "non-ascii-digit":
            # Arabic-Indic three: int() reads it as 3, the schema's [0-9] does not
            doc["module"]["generators"] = "٣"
        elif case == "padded-digit-strings":
            # int() strips whitespace; the schema's anchored pattern does not
            doc["module"]["generators"] = " 3"
            doc["module"]["action"][0][0][0] = "-1\n"
        elif case.startswith("long-"):
            doc["module"]["generators"] = long_digits
        path = write_scenario(tmp_path, doc)
        if case == "long-number-literal":
            # json.load itself refuses the literal, with a plain ValueError
            text = (tmp_path / "scenario.json").read_text()
            (tmp_path / "scenario.json").write_text(text.replace(f'"{long_digits}"', long_digits))
        if case == "directory":
            path = str(tmp_path)
        elif case == "non-utf8":
            (tmp_path / "latin1.json").write_bytes(b'{"S": "\xe9"}')
            path = str(tmp_path / "latin1.json")
        elif case == "deep-nesting":
            # json recurses once per array and raises RecursionError, not ValueError
            (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
            path = str(tmp_path / "deep.json")
        assert main(["compute", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error:")
        assert ("longer than the interpreter converts" in err) == case.startswith("long-")
        assert ("nesting" in err) == (case == "deep-nesting")

    def test_default_cap_refuses_a_large_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("WA_DEFECT_GROUP_CAP", raising=False)
        doc = {
            "group": {"cayley_table": [[]] * 2001},
            "module": {"generators": 1, "relations": [], "action": []},
            "S": [],
            "S_complement": [],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path]) == 2
        assert "cap of 2000" in capsys.readouterr().err

    def test_unknown_member_rejected(self, tmp_path, capsys):
        doc = klein_doc()
        doc["surprise"] = 1
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path]) == 1
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "member, old, new",
        [
            # json keeps the last value: S would become empty and the answer 0
            ("S", '"S_complement": []}', '"S_complement": [], "S": []}'),
            ("schema_version", '"schema_version": 1', '"schema_version": 2, "schema_version": 1'),
            ("generators", '"generators": 3', '"generators": 3, "generators": 3'),
        ],
    )
    def test_repeated_member_rejected(self, tmp_path, capsys, member, old, new):
        path = tmp_path / "scenario.json"
        assert main(["compute", write_scenario(tmp_path, klein_doc())]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        assert main(["compute", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"schema error: member {member!r} is given more than once in one object\n"

    def test_non_integer_entry_rejected(self, tmp_path, capsys):
        doc = klein_doc()
        doc["module"]["relations"] = [[0.5, 0, 0]]
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path]) == 1

    def test_validation_error_exit_code(self, tmp_path, capsys):
        doc = klein_doc()
        # break the action: doubling is not an automorphism
        doc["module"]["action"][0] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_bad_subgroup_exit_code(self, tmp_path, capsys):
        doc = klein_doc()
        doc["S"][0] = {"elements": [0, 1, 2]}
        path = write_scenario(tmp_path, doc)
        assert main(["compute", path]) == 2

    def test_group_cap_env(self, tmp_path, capsys, monkeypatch):
        # the cap is a decimal integer string as a scenario file spells one,
        # and at least 1; anything else is a schema error, even where int()
        # takes it or the group would fit
        path = write_scenario(tmp_path, klein_doc())
        cases = [("3", 2), ("100", 0), ("+100", 0), ("4", 0),
                 (" 5", 1), ("5 ", 1), ("1_0", 1), ("٣", 1), ("", 1), ("0", 1), ("-4", 1), ("2.0", 1)]
        for raw, code in cases:
            monkeypatch.setenv("WA_DEFECT_GROUP_CAP", raw)
            assert main(["compute", path]) == code, raw
            err = capsys.readouterr().err
            if code == 1:
                assert err.startswith("schema error: WA_DEFECT_GROUP_CAP"), raw

    def test_oracle_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        # sabotage the bar route to prove the trap fires with exit code 3
        import wadefect.cli as cli_mod

        monkeypatch.setattr(cli_mod, "h1_bar", lambda M, H, **kw: FinAbInvariants((7,)))
        path = write_scenario(tmp_path, klein_doc())
        assert main(["compute", path, "--oracle", "bar"]) == 3
        assert "oracle mismatch" in capsys.readouterr().err


class TestH1Command:
    def test_full_selector(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["h1", path, "--subgroup", "full", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]

    def test_s_index_selector(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["h1", path, "--subgroup", "S0", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]

    def test_bare_index_selector(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["h1", path, "--subgroup", "1", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]

    def test_order_two_subgroup_vanishes(self, tmp_path, capsys):
        doc = klein_doc()
        doc["S"].append({"elements": [0, 1]})
        path = write_scenario(tmp_path, doc)
        assert main(["h1", path, "--subgroup", "S2", "--emit", "json", "--oracle", "bar"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == []

    def test_unknown_selector(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["h1", path, "--subgroup", "nope"]) == 1
        assert main(["h1", path, "--subgroup", "S9"]) == 1

    @pytest.mark.parametrize(
        "selector",
        [
            # "²".isdigit() holds, but int("²") fails
            pytest.param("²", id="superscript-digit"),
            pytest.param("S²", id="S-superscript-digit"),
            # Arabic-Indic zero and one: int() reads them as in-range
            # indices, [0-9] does not
            pytest.param("S٠", id="S-non-ascii-digit"),
            pytest.param("١", id="bare-non-ascii-digit"),
            # past int()'s default limit of 4,300 digits
            pytest.param("7" * 5000, id="bare-long-digit-string"),
            pytest.param("SC" + "7" * 5000, id="SC-long-digit-string"),
        ],
    )
    def test_malformed_or_huge_selector_is_schema_error(self, tmp_path, capsys, selector):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["h1", path, "--subgroup", selector]) == 1
        assert "schema error" in capsys.readouterr().err

    def test_leading_zeros_select_the_same_index(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["h1", path, "--subgroup", "S" + "0" * 5000 + "1", "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]

    def test_trivial_action_over_z2(self, tmp_path, capsys):
        # H_1 of Z/2 with trivial integer coefficients is Z/2
        doc = {
            "group": {"cayley_table": [[0, 1], [1, 0]]},
            "module": {"generators": 1, "relations": [], "action": [[[1]], [[1]]]},
            "S": [{"elements": [0, 1]}],
            "S_complement": [],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["h1", path, "--subgroup", "full", "--emit", "json", "--oracle", "bar"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]


class TestCatalogCommand:
    def test_emits_valid_scenario(self, capsys):
        assert main(["catalog", "klein-norm-one-both-places"]) == 0
        doc = load_json_output(capsys)
        parse_scenario(doc)

    def test_write_then_compute(self, tmp_path, capsys):
        path = str(tmp_path / "k.json")
        assert main(["catalog", "klein-norm-one-both-places", "--write", path]) == 0
        capsys.readouterr()
        assert main(["compute", path, "--emit", "json"]) == 0
        assert load_json_output(capsys)["invariant_factors"] == [2]

    def test_unwritable_target_is_schema_error(self, tmp_path, capsys):
        for target in (tmp_path, tmp_path / "missing" / "k.json"):
            assert main(["catalog", "klein-norm-one-both-places", "--write", str(target)]) == 1
            assert capsys.readouterr().err.startswith("schema error:")

    def test_unknown_name_lists_entries(self, capsys):
        assert main(["catalog", "no-such-entry"]) == 1
        err = capsys.readouterr().err
        for name in catalog.catalog_names():
            assert name in err

    def test_all_entries_round_trip_and_match_expected(self, tmp_path, capsys):
        from wadefect.engine import defect

        for name in catalog.catalog_names():
            doc = catalog.catalog_document(name)
            path = write_scenario(tmp_path, doc, name=f"{name}.json")
            sc_direct = parse_scenario(doc)
            sc_reread = parse_scenario(json.loads((tmp_path / f"{name}.json").read_text()))
            a = defect(sc_direct)
            b = defect(sc_reread)
            assert a.invariants == b.invariants
            assert a.invariants.factors == catalog.CATALOG_EXPECTED[name]

    def test_round_trip_output_bytes_modulo_timings(self, tmp_path, capsys):
        path = write_scenario(tmp_path, klein_doc())
        assert main(["compute", path, "--emit", "json"]) == 0
        first = load_json_output(capsys)
        assert main(["compute", path, "--emit", "json"]) == 0
        second = load_json_output(capsys)
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert json.dumps(first) == json.dumps(second)


class TestSelfcheckCommand:
    def test_passes(self, capsys):
        assert main(["selfcheck", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS catalog-values" in out
        assert "FAIL" not in out

    def test_corrupted_catalog_value_fails_by_name(self, capsys, monkeypatch):
        monkeypatch.setitem(catalog.CATALOG_EXPECTED, "klein-norm-one-both-places", (4,))
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL catalog-values" in out

    def test_seed_reproducible(self, capsys):
        assert main(["selfcheck", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["selfcheck", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first


class TestModuleEntryPoint:
    """`python -m wadefect` from a checkout, through the real process exit."""

    def run(self, *args, **env):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
        return subprocess.run([sys.executable, "-m", "wadefect", *args], capture_output=True, text=True, env=env)

    def test_selfcheck_passes(self):
        proc = self.run("selfcheck")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 8 and all(line.startswith("PASS ") for line in lines)

    def test_missing_file_exits_with_schema_error(self, tmp_path):
        proc = self.run("compute", str(tmp_path / "missing.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("schema error:")

    def test_schema_error_text_ignores_the_hash_seed(self, tmp_path):
        # a module missing two members names the first in a fixed order,
        # not in the iteration order of a set of strings
        doc = klein_doc()
        doc["module"] = {"generators": 3}
        path = write_scenario(tmp_path, doc)
        errors = set()
        for seed in range(6):
            proc = self.run("compute", path, PYTHONHASHSEED=str(seed))
            assert proc.returncode == 1
            errors.add(proc.stderr)
        assert errors == {"schema error: module: missing member 'relations'\n"}


class TestScenarioParsing:
    def test_int_str_fallback(self, tmp_path):
        doc = klein_doc()
        doc["module"]["relations"] = []
        doc["module"]["generators"] = "3"
        sc = parse_scenario(doc)
        assert sc.module.n == 3

    def test_big_integers_accepted(self):
        doc = klein_doc()
        big = 10**30
        # big * Z^3 is stable under any integral action
        doc["module"]["relations"] = [[str(big), 0, 0], [0, big, 0], [0, 0, str(-big)]]
        sc = parse_scenario(doc)
        assert sc.module.relations[0, 0] == big
        # action entries shifted by multiples of big, every other one given
        # as a decimal string, come out as the same ints, and the shifted
        # action is the catalog's modulo the relations, so it validates
        plain = sc.module.action
        rng = random.Random(3)
        shifts = [[[rng.randint(-2, 2) * big for _ in row] for row in mat] for mat in doc["module"]["action"]]
        doc["module"]["action"] = [
            [
                [str(e + s) if (i + j) % 2 else e + s for j, (e, s) in enumerate(zip(row, srow))]
                for i, (row, srow) in enumerate(zip(mat, smat))
            ]
            for mat, smat in zip(doc["module"]["action"], shifts)
        ]
        action = parse_scenario(doc).module.action
        for mat, want, smat in zip(action, plain, shifts):
            assert all(type(e) is int for e in mat.entries)
            assert mat.to_rows() == [[e + s for e, s in zip(row, srow)] for row, srow in zip(want.to_rows(), smat)]
        assert any(abs(e) > 2**64 for mat in action for e in mat.entries)

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("action", True, "module.action[1][2][1]: booleans are not integers"),
            ("action", 1.0, "module.action[1][2][1]: expected an integer, got float"),
            ("action", "0x1", "module.action[1][2][1]: '0x1' is not a decimal integer string"),
            ("action", " 1", "module.action[1][2][1]: ' 1' is not a decimal integer string"),
            ("action", "ragged", "module.action[0][1]: expected 3 entries, got 2"),
            ("action", "extra row", "module.action[1]: expected 3 rows"),
            ("action", "missing row", "module.action[1]: expected 3 rows"),
            ("relations", False, "module.relations[0][2]: booleans are not integers"),
            ("relations", 2.5, "module.relations[0][2]: expected an integer, got float"),
            ("relations", "+-2", "module.relations[0][2]: '+-2' is not a decimal integer string"),
            ("relations", "ragged", "module.relations[0]: expected length 3, got 2"),
        ],
    )
    def test_bad_matrix_entries_keep_their_messages(self, where, value, message):
        # the checked rows become matrices with no second coercion, so every
        # bad entry and shape must be refused by the schema checks themselves
        doc = klein_doc()
        module = doc["module"]
        if where == "relations":
            module["relations"] = [[2, 0]] if value == "ragged" else [[2, 0, value]]
        elif value == "ragged":
            module["action"][0][1] = module["action"][0][1][:-1]
        elif value == "extra row":
            module["action"][1].append([0, 0, 0])
        elif value == "missing row":
            module["action"][1].pop()
        else:
            module["action"][1][2][1] = value
        with pytest.raises(SchemaError) as info:
            parse_scenario(doc)
        assert str(info.value) == message

    def test_bool_rejected(self):
        doc = klein_doc()
        doc["module"]["generators"] = True
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_wrong_schema_version(self):
        doc = klein_doc()
        doc["schema_version"] = 2
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_each_listed_subgroup_is_checked_once(self, monkeypatch):
        # parse_scenario checks the module only; defect checks every listed entry, once
        import wadefect.engine as engine_mod
        from wadefect import groups

        checked = []
        real = groups.is_subgroup

        def counting(G, H):
            checked.append(H.elements)
            return real(G, H)

        monkeypatch.setattr(groups, "is_subgroup", counting)
        monkeypatch.setattr(engine_mod, "is_subgroup", counting)
        doc = klein_doc()
        doc["S"] = [{"elements": [0, 1, 2, 3]}, {"generator_words": [[0], [1]]}]
        doc["S_complement"] = [{"elements": [0, 1]}]
        sc = parse_scenario(doc)
        assert checked == []
        assert defect(sc).invariants == FinAbInvariants((2,))
        assert checked == [(0, 1, 2, 3), (0, 1, 2, 3), (0, 1)]

    def test_generator_words_subgroup(self):
        doc = klein_doc()
        doc["S"] = [{"generator_words": [[0], [1]]}]
        sc = parse_scenario(doc)
        assert sc.s_subgroups[0].elements == (0, 1, 2, 3)

    def test_table_above_the_default_cap_refused_before_its_rows_are_read(self):
        # the rows are not even valid; the cap check comes first
        doc = klein_doc()
        doc["group"] = {"cayley_table": [[]] * (DEFAULT_ORDER_CAP + 1)}
        with pytest.raises(GroupError, match="cap"):
            parse_scenario(doc)
        with pytest.raises(GroupError, match="cap"):
            parse_scenario(doc, group_cap=4)
        doc["group"] = {"cayley_table": [list(r) for r in klein().table]}
        with pytest.raises(GroupError, match="cap"):
            parse_scenario(doc, group_cap=3)

    def test_cayley_table_group(self):
        G = klein()
        doc = {
            "group": {"cayley_table": [list(r) for r in G.table]},
            "module": {
                "generators": 1,
                "relations": [],
                "action": [[[1]], [[-1]], [[-1]], [[1]]],
            },
            "S": [{"elements": [0, 1, 2, 3]}],
            "S_complement": [],
        }
        sc = parse_scenario(doc)
        assert sc.group.order == 4
        assert len(sc.module.action) == 4

    def test_exactly_one_group_encoding(self):
        doc = klein_doc()
        doc["group"]["cayley_table"] = [[0]]
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_subgroup_needs_exactly_one_member(self):
        doc = klein_doc()
        doc["S"][0] = {"elements": [0], "generator_words": [[0]]}
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_result_document_order_is_product(self):
        doc = result_document(FinAbInvariants((2, 4)))
        assert doc["order"] == 8
        assert doc["pretty"] == "Z/2 x Z/4"
        trivial = result_document(FinAbInvariants())
        assert trivial["order"] == 1 and trivial["pretty"] == "0"

    def test_scenario_document_round_trip(self):
        G = klein()
        doc = scenario_document(
            permutation_generators=[(1, 0, 3, 2), (2, 3, 0, 1)],
            module=norm_one_module(G),
            s_subgroups=[full_subgroup(G)],
        )
        sc = parse_scenario(doc)
        assert sc.group.order == 4
        assert sc.module.n == 3


def load_schema(name):
    return json.loads(files("wadefect").joinpath("schemas", name).read_text(encoding="utf-8"))


class TestSchemaFiles:
    """The JSON Schema documents describe what the parser and the result writer do."""

    def test_int_strings_are_exactly_the_schema_pattern(self):
        pattern = load_schema("scenario.schema.json")["definitions"]["int"]["oneOf"][1]["pattern"]
        probes = ["7", "+7", "-7", "007", " 7", "7 ", "\t7\n", "-1\n", "", "+", "٣", "²", "7_0"]
        for probe in probes:
            # fullmatch: JSON Schema's $ does not match before a final newline
            if re.fullmatch(pattern, probe):
                assert scenario_io._as_int(probe, "x") == int(probe), probe
            else:
                with pytest.raises(SchemaError):
                    scenario_io._as_int(probe, "x")

    def test_scenario_members_match_the_parser(self):
        schema = load_schema("scenario.schema.json")
        props = schema["properties"]
        assert set(props) == scenario_io._TOP_KEYS
        assert set(schema["required"]) == scenario_io._TOP_KEYS - {"schema_version"}
        assert props["schema_version"] == {"const": SCHEMA_VERSION}
        assert set(props["group"]["properties"]) == scenario_io._GROUP_KEYS
        assert "required" not in props["group"]
        assert set(props["module"]["properties"]) == set(props["module"]["required"]) == scenario_io._MODULE_KEYS
        subgroup = schema["definitions"]["subgroup_list"]["items"]
        assert set(subgroup["properties"]) == scenario_io._SUBGROUP_KEYS
        assert "required" not in subgroup
        # draft-07 keeps reusable parts under "definitions"; every $ref names one
        assert "draft-07" in schema["$schema"]
        text = json.dumps(schema)
        refs = re.findall(r'"\$ref": "#/definitions/(\w+)"', text)
        assert text.count("$ref") == len(refs)
        assert set(refs) == set(schema["definitions"])

    def test_result_members_match_the_writer(self):
        schema = load_schema("result.schema.json")
        props = schema["properties"]
        assert props["schema_version"] == {"const": SCHEMA_VERSION}
        plain = result_document(FinAbInvariants((2,)))
        short = result_document(FinAbInvariants(), shortcut="free-module", timings_ms={"total": 1.0})
        assert set(schema["required"]) == set(plain)
        assert set(props) == set(short)

    def test_shortcut_enum_is_what_quick_vanish_returns(self):
        complement = klein_doc()
        complement["S_complement"] = [{"generator_words": [[0], [1]]}]
        cyclic = klein_doc()
        cyclic["S"] = [{"generator_words": [[0]]}]
        free = catalog.catalog_document("quasi-trivial-free")
        labels = {quick_vanish(parse_scenario(doc)).shortcut for doc in (complement, cyclic, free)}
        assert labels == {"complement-full-group", "all-cyclic-S", "free-module"}
        assert labels == set(load_schema("result.schema.json")["properties"]["shortcut"]["enum"])


FUZZ_VALUES = (None, True, 1.5, "x", 2**70, [], {})
FUZZ_ARGV = (
    ["compute"],
    ["compute", "--check"],
    ["compute", "--check", "--oracle", "bar"],
    ["h1", "--subgroup", "full"],
)


def _slots(node):
    # every (container, key) pair inside a JSON document, the document's own members first
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        for key in node if isinstance(node, dict) else range(len(node)):
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def mutated(rng, doc):
    """A copy of doc with one seeded mutation: a replaced value, a deleted
    member, an integer moved by one, or an unknown member or duplicate list entry."""
    doc = json.loads(json.dumps(doc))
    slots = _slots(doc)
    kind = rng.randrange(4)
    if kind == 0:
        node, key = rng.choice(slots)
        node[key] = rng.choice(FUZZ_VALUES)
    elif kind == 1:
        node, key = rng.choice(slots)
        del node[key]
    elif kind == 2:
        node, key = rng.choice([(n, k) for n, k in slots if type(n[k]) is int])
        node[key] += rng.choice((-1, 1))
    else:
        containers = [doc] + [n[k] for n, k in slots if isinstance(n[k], dict) or (isinstance(n[k], list) and n[k])]
        node = rng.choice(containers)
        if isinstance(node, dict):
            node["unknown"] = 0
        else:
            node.append(json.loads(json.dumps(rng.choice(node))))
    return doc


def test_mutated_catalog_documents_exit_cleanly(tmp_path, capsys):
    # every mutation is either computed (0), refused as malformed (1) or
    # refused as an invalid group or module (2); nothing else escapes
    rng = random.Random(26)
    docs = [catalog.catalog_document(name) for name in catalog.catalog_names()]
    path = tmp_path / "scenario.json"
    codes = Counter()
    for i in range(300):
        doc = mutated(rng, docs[i % len(docs)])
        path.write_text(json.dumps(doc))
        argv = FUZZ_ARGV[i % len(FUZZ_ARGV)]
        try:
            code = main([argv[0], str(path)] + argv[1:])
        except Exception as exc:
            pytest.fail(f"{argv} on {doc} raised {exc!r}")
        assert code in (0, 1, 2), (argv, doc)
        codes[code] += 1
    assert set(codes) == {0, 1, 2}, codes
