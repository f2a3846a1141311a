"""Inputs, executors and answer checks for the three benchmark workloads.

Every workload is a list of items run one after another, the next starting
when the previous one returns (a closed loop with one client).  Inputs
depend only on the seed and on data frozen in this directory, never on
program code that a change could alter, so that two commits are measured
on the same inputs.  The program receives only scenario text or files.

* ``zoo-stream``: seeded scenarios over the groups of ``zoo.group_zoo()``,
  serialized to JSON text and run through ``parse_scenario`` and ``defect``.
* ``torus-ladder``: a fixed ladder of norm-one tori, the same for every
  seed, checked against frozen invariants.
* ``oracle-audit``: ladder scenarios written to files and run through
  ``cli.main(["compute", path, "--check", "--oracle", "bar", "--emit",
  "json"])``, checked against frozen output.

The executors call the program through module attributes (``engine.defect``,
not a name bound at import time) so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

from wadefect import cli, engine, scenario_io
from wadefect.groups import Subgroup, from_permutations
from wadefect.linalg import IntMatrix
from wadefect.modules import GammaModule, with_doubled_generators

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(BENCH_DIR, "references.json")
ZOO_DESIGN_PATH = os.path.join(BENCH_DIR, "zoo_design.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

AUDIT_ARGS = ("--check", "--oracle", "bar", "--emit", "json")


@dataclass
class Item:
    """One scenario of a pass: what the program receives, plus bookkeeping."""

    name: str
    payload: str  # scenario JSON text, or a scenario file path for oracle-audit
    group_order: int
    rank: int
    # the scenario as built by the benchmark; the off-the-clock zoo check
    # recomputes from it
    source: engine.Scenario | None = None


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_references() -> dict:
    return _load(REFERENCES_PATH)


# --- integer matrices as lists of rows -------------------------------------------


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _random_unimodular(rng: random.Random, n: int, steps: int = 6):
    """A seeded product of elementary matrices, with its inverse."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        # U <- E U adds c * row j to row i; U^-1 <- U^-1 E^-1 subtracts
        # c * column i from column j
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]
    return U, Uinv


def _columns_to_rows(cols, n):
    return [[c[i] for c in cols] for i in range(n)]


# --- zoo-stream ------------------------------------------------------------------


def zoo_stream_items(seed: int) -> list[Item]:
    """The zoo stream of one seed.

    ``zoo_design.json`` fixes, for each slot, the group, the module (drawn
    by ``zoo.random_module``), the order and cyclicity of each S and
    complement entry, and the input format.  The seed draws a unimodular
    change of coordinates for each module and picks each subgroup among
    those of its designed order and cyclicity.  See ``freeze.py``.
    """
    design = _load(ZOO_DESIGN_PATH)
    rng = random.Random(seed)
    groups = []
    for g in design["groups"]:
        G = from_permutations(g["permutations"])
        classes: dict[tuple, list[Subgroup]] = {}
        for H in g["subgroups"]:
            key = (len(H["elements"]), H["cyclic"])
            classes.setdefault(key, []).append(Subgroup(tuple(H["elements"]), tuple(H["generators"])))
        groups.append((g, G, classes))
    items = []
    for s in design["scenarios"]:
        g, G, classes = groups[s["group"]]
        n = s["n"]
        U, Uinv = _random_unimodular(rng, n)
        action = [_matmul(_matmul(U, a), Uinv) for a in s["action"]]
        relations = _matmul(U, _columns_to_rows(s["relations"], n)) if s["relations"] else []
        rel_cols = [list(c) for c in zip(*relations)]
        M = GammaModule(
            G, n,
            IntMatrix.from_columns(rel_cols, rows=n) if rel_cols else IntMatrix(n, 0, ()),
            [IntMatrix.from_rows(a, cols=n) for a in action],
        )
        S = tuple(rng.choice(classes[tuple(k)]) for k in s["S"])
        SC = tuple(rng.choice(classes[tuple(k)]) for k in s["S_complement"])
        if s["table"]:
            # a Cayley-table group designates every element as a generator,
            # so the module lists one action matrix per element
            group = {"cayley_table": [list(r) for r in G.table]}
            action = [m.to_rows() for m in M.element_matrices()]
        else:
            group = {"permutation_generators": g["permutations"]}
        doc = {
            "schema_version": 1,
            "group": group,
            "module": {"generators": n, "relations": rel_cols, "action": action},
            "S": [{"elements": list(H.elements)} for H in S],
            "S_complement": [{"elements": list(H.elements)} for H in SC],
        }
        items.append(Item(s["name"], json.dumps(doc), G.order, n, engine.Scenario(G, M, S, SC)))
    return items


def zoo_reference(item: Item, shortcut: str | None) -> tuple[int, ...]:
    """Independent recomputation of a zoo answer, off the clock.

    A shortcut answer is recomputed without shortcuts; a full-pipeline
    answer is recomputed on the doubled-generator presentation, whose free
    cover is structurally different.  Both start from the benchmark's own
    scenario objects, whose subgroups have one or two generators.
    """
    sc = item.source
    if shortcut is not None:
        return engine.defect(sc, use_shortcuts=False).invariants.factors
    doubled = engine.Scenario(sc.group, with_doubled_generators(sc.module), sc.s_subgroups, sc.sc_subgroups)
    return engine.defect(doubled).invariants.factors


def run_scenario_text(text: str) -> tuple[tuple[int, ...], str | None]:
    sc = scenario_io.parse_scenario(json.loads(text))
    result = engine.defect(sc)
    return result.invariants.factors, result.shortcut


# --- torus-ladder ------------------------------------------------------------------

# group name -> permutation generators
LADDER_GROUPS = {
    "klein": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "s3": [(1, 2, 0), (1, 0, 2)],
    "d4": [(1, 2, 3, 0), (3, 2, 1, 0)],
    # the left-regular images of zoo.q8()'s generators
    "q8": [(1, 3, 4, 6, 7, 2, 0, 5), (2, 5, 3, 7, 1, 6, 4, 0)],
    "z2cubed": [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
    "a4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "s4": [(1, 2, 3, 0), (1, 0, 2, 3)],
    "f20": [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],
}

# Subgroups are given as generator words, so each has at most three generators.
FULL = [[0], [1]]
D4_V4A = [[1], [0, 0]]
D4_V4B = [[0, 0], [0, 1]]
Z2CUBED_V4A = [[0], [1]]
Z2CUBED_V4B = [[1], [2]]
A4_V4 = [[1], [0, 0, 1, 0]]
S4_D4 = [[0], [1, 0, 0, 1]]
S4_V4 = [[0, 0], [1, 0, 0, 1]]
F20_D5 = [[0], [1, 1]]

# (row name, group, module kind, S, S_complement).  "regular" is the norm-one
# module, the augmentation kernel of Z[G]; "points" is the augmentation
# kernel of the permutation module on the points the generators move, the
# module of the degree-d norm-one torus.
LADDER = [
    ("klein-regular", "klein", "regular", [FULL], []),
    ("s3-regular", "s3", "regular", [FULL], []),
    ("d4-regular", "d4", "regular", [FULL], []),
    ("d4-regular-v4", "d4", "regular", [D4_V4A], [D4_V4B]),
    ("q8-regular", "q8", "regular", [FULL], []),
    ("z2cubed-regular", "z2cubed", "regular", [[[0], [1], [2]]], []),
    ("z2cubed-regular-v4", "z2cubed", "regular", [Z2CUBED_V4A], [Z2CUBED_V4B]),
    ("a4-regular", "a4", "regular", [FULL], []),
    ("a4-points4", "a4", "points", [A4_V4], []),
    ("a4-points4-full", "a4", "points", [FULL, A4_V4], []),
    ("s4-points4", "s4", "points", [FULL], []),
    ("s4-points4-d4", "s4", "points", [S4_D4], [S4_V4]),
    ("f20-points5", "f20", "points", [FULL], []),
    ("f20-points5-d5", "f20", "points", [F20_D5], []),
]

# the oracle-audit rows, a subset of the ladder
AUDIT_ROWS = ("d4-regular", "q8-regular", "a4-regular", "a4-points4", "s4-points4", "f20-points5")


def _augmentation_action(images: list[int], d: int) -> list[list[int]]:
    """Matrix rows of a permutation acting on the kernel of Z^d -> Z.

    Basis e_i - e_{d-1} for i < d-1; the permutation p sends it to
    (e_{p(i)} - e_{d-1}) - (e_{p(d-1)} - e_{d-1}).
    """
    n = d - 1
    cols = []
    for i in range(n):
        col = [0] * n
        if images[i] != n:
            col[images[i]] += 1
        if images[n] != n:
            col[images[n]] -= 1
        cols.append(col)
    return _columns_to_rows(cols, n)


def ladder_document(row) -> dict:
    _, gname, kind, S, SC = row
    perms = [list(p) for p in LADDER_GROUPS[gname]]
    if kind == "regular":
        # Z[G] with basis the elements in canonical order; g acts by left
        # multiplication, and the identity (element 0) plays the point d-1
        G = from_permutations(perms)
        order = [h for h in range(G.order) if h != G.identity] + [G.identity]
        where = {h: k for k, h in enumerate(order)}
        images = [[where[G.table[g][h]] for h in order] for g in G.generator_indices]
    else:
        images = perms
    d = len(images[0])
    return {
        "schema_version": 1,
        "group": {"permutation_generators": perms},
        "module": {
            "generators": d - 1,
            "relations": [],
            "action": [_augmentation_action(p, d) for p in images],
        },
        "S": [{"generator_words": words} for words in S],
        "S_complement": [{"generator_words": words} for words in SC],
    }


def _ladder_item(row, payload: str, doc: dict) -> Item:
    G = from_permutations(LADDER_GROUPS[row[1]])
    return Item(row[0], payload, G.order, doc["module"]["generators"])


def ladder_items(seed: int) -> list[Item]:
    """The fixed ladder; the seed is accepted for a uniform interface and unused."""
    del seed
    items = []
    for row in LADDER:
        doc = ladder_document(row)
        items.append(_ladder_item(row, json.dumps(doc), doc))
    return items


# --- oracle-audit ------------------------------------------------------------------


def audit_items(seed: int, directory: str) -> list[Item]:
    """Write the audit rows to scenario files in `directory`, one per row."""
    del seed
    by_name = {row[0]: row for row in LADDER}
    items = []
    for name in AUDIT_ROWS:
        row = by_name[name]
        doc = ladder_document(row)
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        items.append(_ladder_item(row, path, doc))
    return items


def run_cli_audit(path: str) -> dict:
    """Run the verified compute path in-process; return exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compute", path, *AUDIT_ARGS])
    doc = json.loads(out.getvalue()) if code == 0 else None
    if doc is not None:
        doc.pop("timings_ms", None)
    return {"exit": code, "result": doc}
