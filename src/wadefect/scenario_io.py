"""Scenario and result documents.

Scenario files are strict JSON: unknown and repeated members are rejected,
booleans and floats are rejected wherever an integer is expected, and
integers may be given either as JSON numbers or as decimal strings, an
optional sign and ASCII digits with nothing around them (the "int_str"
fallback for toolchains that cannot emit big integers).  Either form may
be as long as the interpreter converts from decimal text, 4,300 digits by
default (`sys.get_int_max_str_digits`); a longer one is a schema error.

Structural problems raise :class:`SchemaError`; mathematically invalid
groups, modules, or subgroups raise the corresponding GroupError /
ModuleError / ScenarioError so the command line can distinguish exit codes.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from .engine import Scenario
from .groups import (
    DEFAULT_ORDER_CAP,
    CayleyGroup,
    GroupError,
    Subgroup,
    from_permutations,
    from_table,
    subgroup_closure,
)
from .linalg import FinAbInvariants, IntMatrix, _from_columns
from .modules import GammaModule, validate

__all__ = [
    "SchemaError",
    "SCHEMA_VERSION",
    "parse_scenario",
    "load_scenario",
    "scenario_document",
    "result_document",
    "dumps_result",
    "render_text",
]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "group", "module", "S", "S_complement"}
_GROUP_KEYS = {"permutation_generators", "cayley_table"}
_MODULE_KEYS = {"generators", "relations", "action"}
_SUBGROUP_KEYS = {"elements", "generator_words"}


class SchemaError(ValueError):
    """The document does not match the scenario schema."""


def _as_int(value: object, where: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not integers")
    if isinstance(value, int):
        return int(value)  # a plain int: the matrices built from these skip coercion
    if isinstance(value, str):
        body = value[1:] if value[:1] in "+-" else value
        if body.isascii() and body.isdigit():
            try:
                return int(value)
            except ValueError as exc:
                raise SchemaError(
                    f"{where}: a decimal integer string of {len(body)} digits is longer than the interpreter converts"
                ) from exc
        raise SchemaError(f"{where}: {value!r} is not a decimal integer string")
    raise SchemaError(f"{where}: expected an integer, got {type(value).__name__}")


def _as_int_list(value: object, where: str) -> list[int]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array")
    # plain ints (not bools) pass as they are, with no error location built
    return [v if type(v) is int else _as_int(v, f"{where}[{k}]") for k, v in enumerate(value)]


def _as_matrix_rows(value: object, rows: int, cols: int, where: str) -> IntMatrix:
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    data = []
    for i, row in enumerate(value):
        r = _as_int_list(row, f"{where}[{i}]")
        if len(r) != cols:
            raise SchemaError(f"{where}[{i}]: expected {cols} entries, got {len(r)}")
        data.extend(r)
    return IntMatrix._trusted(rows, cols, data)


def _check_keys(obj: object, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown members {sorted(unknown)}")


def _parse_group(doc: object, group_cap: int) -> CayleyGroup:
    _check_keys(doc, _GROUP_KEYS, "group")
    given = [k for k in _GROUP_KEYS if k in doc]
    if len(given) != 1:
        raise SchemaError("group: exactly one of 'permutation_generators' or 'cayley_table' is required")
    if given[0] == "permutation_generators":
        raw = doc["permutation_generators"]
        if not isinstance(raw, list):
            raise SchemaError("group.permutation_generators: expected an array")
        gens = [_as_int_list(g, f"group.permutation_generators[{k}]") for k, g in enumerate(raw)]
        return from_permutations(gens, order_cap=group_cap)
    raw = doc["cayley_table"]
    if not isinstance(raw, list):
        raise SchemaError("group.cayley_table: expected an array")
    if len(raw) > group_cap:
        raise GroupError(f"group order exceeds the cap of {group_cap}")
    return from_table([_as_int_list(r, f"group.cayley_table[{k}]") for k, r in enumerate(raw)])


def _parse_module(doc: object, group: CayleyGroup) -> GammaModule:
    _check_keys(doc, _MODULE_KEYS, "module")
    for key in ("generators", "relations", "action"):
        if key not in doc:
            raise SchemaError(f"module: missing member '{key}'")
    n = _as_int(doc["generators"], "module.generators")
    if n < 0:
        raise SchemaError("module.generators: must be nonnegative")
    raw_rel = doc["relations"]
    if not isinstance(raw_rel, list):
        raise SchemaError("module.relations: expected an array of columns")
    columns = []
    for k, col in enumerate(raw_rel):
        c = _as_int_list(col, f"module.relations[{k}]")
        if len(c) != n:
            raise SchemaError(f"module.relations[{k}]: expected length {n}, got {len(c)}")
        columns.append(c)
    relations = _from_columns(columns, n)
    raw_action = doc["action"]
    if not isinstance(raw_action, list):
        raise SchemaError("module.action: expected an array of matrices")
    want = len(group.generator_indices)
    if len(raw_action) != want:
        raise SchemaError(f"module.action: expected {want} matrices (one per group generator), got {len(raw_action)}")
    action = [_as_matrix_rows(mat, n, n, f"module.action[{k}]") for k, mat in enumerate(raw_action)]
    return GammaModule(group, n, relations, action)


def _parse_subgroup(doc: object, group: CayleyGroup, where: str) -> Subgroup:
    _check_keys(doc, _SUBGROUP_KEYS, where)
    given = [k for k in _SUBGROUP_KEYS if k in doc]
    if len(given) != 1:
        raise SchemaError(f"{where}: exactly one of 'elements' or 'generator_words' is required")
    if given[0] == "elements":
        elems = _as_int_list(doc["elements"], f"{where}.elements")
        H = subgroup_closure(group, elems)
        if H.elements != tuple(sorted(set(elems))):
            raise GroupError(
                f"{where}.elements: the listed set is not a subgroup (it must be closed and contain the identity)"
            )
        return H
    raw = doc["generator_words"]
    if not isinstance(raw, list):
        raise SchemaError(f"{where}.generator_words: expected an array of words")
    seeds = []
    for k, word in enumerate(raw):
        w = _as_int_list(word, f"{where}.generator_words[{k}]")
        x = group.identity
        for pos in w:
            if not (0 <= pos < len(group.generator_indices)):
                raise GroupError(f"{where}.generator_words[{k}]: generator position {pos} out of range")
            x = group.table[x][group.generator_indices[pos]]
        seeds.append(x)
    return subgroup_closure(group, seeds)


def parse_scenario(doc: object, *, group_cap: int = DEFAULT_ORDER_CAP) -> Scenario:
    """Parse and fully validate a scenario document; groups above `group_cap` are refused."""
    _check_keys(doc, _TOP_KEYS, "scenario")
    if "schema_version" in doc:
        version = _as_int(doc["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {version}; this build reads version {SCHEMA_VERSION}")
    for key in ("group", "module", "S", "S_complement"):
        if key not in doc:
            raise SchemaError(f"scenario: missing member '{key}'")
    group = _parse_group(doc["group"], group_cap)
    module = _parse_module(doc["module"], group)
    if not isinstance(doc["S"], list) or not isinstance(doc["S_complement"], list):
        raise SchemaError("S and S_complement must be arrays of subgroups")
    s_subgroups = tuple(_parse_subgroup(h, group, f"S[{k}]") for k, h in enumerate(doc["S"]))
    sc_subgroups = tuple(
        _parse_subgroup(h, group, f"S_complement[{k}]") for k, h in enumerate(doc["S_complement"])
    )
    # the subgroups are closures in `group`, on which the module is built
    validate(module)
    return Scenario(group=group, module=module, s_subgroups=s_subgroups, sc_subgroups=sc_subgroups)


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    # json keeps the last of repeated members; a scenario file may not repeat one
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"member {key!r} is given more than once in one object")
        doc[key] = value
    return doc


def load_scenario(path, *, group_cap: int = DEFAULT_ORDER_CAP) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_members)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except SchemaError:
        raise  # a repeated member, before the ValueError below can rename it
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(exc)) from exc
    except RecursionError as exc:
        raise SchemaError("JSON nesting is deeper than the parser's recursion limit") from exc
    except ValueError as exc:
        # json raises a plain ValueError for a number literal of too many digits
        raise SchemaError("a JSON number literal is longer than the interpreter converts") from exc
    return parse_scenario(doc, group_cap=group_cap)


def scenario_document(
    *,
    permutation_generators: Sequence[Sequence[int]],
    module: GammaModule,
    s_subgroups: Sequence[Subgroup],
    sc_subgroups: Sequence[Subgroup] = (),
) -> dict:
    """Serialize a scenario built through the API into a schema-valid document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "group": {"permutation_generators": [list(g) for g in permutation_generators]},
        "module": {
            "generators": module.n,
            "relations": [list(c) for c in module.relations.columns()],
            "action": [m.to_rows() for m in module.action],
        },
        "S": [{"elements": list(H.elements)} for H in s_subgroups],
        "S_complement": [{"elements": list(H.elements)} for H in sc_subgroups],
    }


def result_document(
    invariants: FinAbInvariants,
    *,
    shortcut: str | None = None,
    timings_ms: dict | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "invariant_factors": list(invariants.factors),
        "order": invariants.order,
        "pretty": invariants.pretty(),
    }
    if shortcut is not None:
        doc["shortcut"] = shortcut
    doc["timings_ms"] = dict(timings_ms) if timings_ms else {}
    return doc


def dumps_result(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def render_text(doc: dict) -> str:
    lines = [
        f"result: {doc['pretty']}",
        f"invariant factors: {doc['invariant_factors']}",
        f"order: {doc['order']}",
    ]
    if "shortcut" in doc:
        lines.append(f"shortcut: {doc['shortcut']}")
    timings = doc.get("timings_ms") or {}
    if timings:
        shown = ", ".join(f"{k}={v:.1f}" for k, v in timings.items())
        lines.append(f"timings (ms): {shown}")
    return "\n".join(lines) + "\n"
