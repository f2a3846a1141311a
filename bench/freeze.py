#!/usr/bin/env python3
"""Regenerate the benchmark's frozen data: the zoo design and the references.

    python3 bench/freeze.py

``zoo_design.json`` is the structure of the zoo stream, drawn once from
``zoo.group_zoo()`` and ``zoo.random_module`` with a fixed design seed:
for slot j and each zoo group, a module of rank 1 + j % 4, 1 + j % 3 S
entries and (j // 4) % 3 proper non-cyclic complement entries (each kept as
an order and a cyclicity; the run seed picks the subgroup), and the input
format (odd slots as a full Cayley table).  Drawing the modules from the
run seed instead made pass time, p50 and max move by 10-40% between seeds.

``references.json`` holds the frozen answers of the fixed workloads.

Each torus-ladder answer is computed through parse_scenario and defect,
cross-checked against defect(..., use_shortcuts=False) and against the
bar-complex oracle (``wadefect compute --oracle bar`` must exit 0 with the
same factors), and, for the rows whose value is known in advance, against
that value.  Each oracle-audit answer is the exit code and JSON output of
``compute --check --oracle bar --emit json`` without its timings.  The
benchmark compares every run against these files, so regenerating them
changes the benchmark: do it only in a change that redefines it, never in
one that claims a gain.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import workloads as W  # noqa: E402
from wadefect import engine, scenario_io, zoo  # noqa: E402
from wadefect.groups import from_permutations, is_cyclic_subgroup  # noqa: E402
from wadefect.modules import norm_one_module  # noqa: E402
from wadefect.oracles import all_subgroups_2gen  # noqa: E402

ZOO_DESIGN_SEED = 20240611
# 13 slots give 104 scenarios, so p90 over scenarios has ten beyond it
ZOO_SLOTS = 13
ZOO_MAX_RANK = 4
# the slot whose S list is all cyclic, so the all-cyclic-S shortcut fires
ZOO_ALL_CYCLIC_SLOT = 5
ZOO_NONCYCLIC_S_SHARE = 0.75

# values known from the norm-one torus literature, asserted before freezing
KNOWN = {
    "klein-regular": [2],
    "s3-regular": [],
    "d4-regular": [2],
    "q8-regular": [],
    "z2cubed-regular": [2, 2, 2],
    "a4-regular": [2],
    "a4-points4": [2],
    "s4-points4": [],
    "f20-points5": [],
}


def _draw_module(rng, G, rank):
    for _ in range(1000):
        M = zoo.random_module(rng, G, max_rank=rank)
        if M.n == rank:
            return M
    raise AssertionError(f"no rank-{rank} module drawn for a group of order {G.order}")


def freeze_zoo_design() -> dict:
    rng = random.Random(ZOO_DESIGN_SEED)
    groups, classes = [], []
    for G in zoo.group_zoo():
        subs = [
            {"elements": list(H.elements), "generators": list(H.generators), "cyclic": is_cyclic_subgroup(G, H)}
            for H in all_subgroups_2gen(G)
        ]
        perms = [[G.table[g][h] for h in range(G.order)] for g in G.generator_indices]
        if from_permutations(perms).table != G.table:
            raise AssertionError("left-regular generators do not rebuild the zoo group's indexing")
        groups.append({
            "permutations": perms,
            "subgroups": subs,
        })
        classes.append(sorted({(len(H["elements"]), H["cyclic"]) for H in subs}))
    scenarios = []
    for j in range(ZOO_SLOTS):
        for gi, G in enumerate(zoo.group_zoo()):
            M = _draw_module(rng, G, 1 + j % ZOO_MAX_RANK)
            noncyclic = [k for k in classes[gi] if not k[1]]
            cyclic = [k for k in classes[gi] if k[1]]
            proper = [k for k in noncyclic if k[0] < G.order]
            S = []
            for k in range(1 + j % 3):
                want_nc = noncyclic and j != ZOO_ALL_CYCLIC_SLOT and (
                    k == 0 or rng.random() < ZOO_NONCYCLIC_S_SHARE
                )
                S.append(rng.choice(noncyclic if want_nc else cyclic))
            SC = [rng.choice(proper) for _ in range((j // 4) % 3)] if proper else []
            scenarios.append({
                "name": f"z{j:02d}-g{gi}",
                "group": gi,
                "n": M.n,
                "relations": [list(c) for c in M.relations.columns()],
                "action": [a.to_rows() for a in M.action],
                "S": [list(k) for k in S],
                "S_complement": [list(k) for k in SC],
                "table": j % 2 == 1,
            })
    return {"design_seed": ZOO_DESIGN_SEED, "groups": groups, "scenarios": scenarios}


def freeze() -> dict:
    refs = {"torus-ladder": {}, "oracle-audit": {}}
    os.makedirs(W.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=W.OUT_DIR) as directory:
        for row in W.LADDER:
            name = row[0]
            doc = W.ladder_document(row)
            sc = scenario_io.parse_scenario(doc)
            if row[2] == "regular" and sc.module.action != norm_one_module(sc.group).action:
                raise AssertionError(f"{name}: module differs from norm_one_module")
            result = engine.defect(sc)
            plain = engine.defect(sc, use_shortcuts=False)
            if plain.invariants != result.invariants:
                raise AssertionError(f"{name}: shortcut and full pipeline disagree")
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            bar = W.run_cli_audit(path)
            if bar["exit"] != 0 or bar["result"]["invariant_factors"] != list(result.invariants.factors):
                raise AssertionError(f"{name}: bar oracle run gave {bar}")
            if name in KNOWN and KNOWN[name] != list(result.invariants.factors):
                raise AssertionError(f"{name}: expected {KNOWN[name]}, got {result.invariants.factors}")
            refs["torus-ladder"][name] = {"factors": list(result.invariants.factors), "shortcut": result.shortcut}
            if name in W.AUDIT_ROWS:
                refs["oracle-audit"][name] = bar
            print(f"{name:22s} {result.invariants.pretty()}", flush=True)
    return refs


def main() -> int:
    with open(W.ZOO_DESIGN_PATH, "w", encoding="utf-8") as fh:
        json.dump(freeze_zoo_design(), fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {os.path.relpath(W.ZOO_DESIGN_PATH)}")
    refs = freeze()
    with open(W.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(W.REFERENCES_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
