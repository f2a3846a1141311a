"""Replay of recorded outputs: refactors must not change a byte of them.

`golden_outputs.json` holds scenario documents and what the program made
of them when the file was recorded:

* ``scenarios``: the five catalog entries, the norm-one module of Z[G]
  with S = {G} over Klein, S3, D4, Q8, (Z/2)^3 and A4, the augmentation
  kernels of the points modules A4/4, S4/4 and F20/5, and PSL(2,7) on the
  8 points of the projective line over F_7.  Four carry relations: the
  Klein norm-one module under `with_doubled_generators` and modulo 4 (the
  relations 4 e_i), Z[D4 / Z(D4)] doubled, which D4 acts on through
  D4 / Z(D4), and the PSL(2,7) points module doubled.
* ``cli``: for each of them, the exit code and stdout of `compute`,
  `compute --check --oracle bar`, `h1 --subgroup full --oracle bar` and
  `h1 --subgroup S0`, all with `--emit json` and timings masked.
* ``zoo``: seeded `zoo.random_module` scenarios over `zoo.group_zoo()`,
  stored as documents, with `defect`'s factors and shortcut label with
  shortcuts on and off.

`golden_guard.py` fails unless every case of an earlier file is still
here unchanged; CI runs it against the base commit's file.
"""

import json
import os
import re

import pytest

from wadefect.cli import main
from wadefect.engine import defect
from wadefect.scenario_io import parse_scenario

with open(os.path.join(os.path.dirname(__file__), "golden_outputs.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

TIMINGS = re.compile(r'("timings_ms": )\{[^}]*\}')


@pytest.mark.parametrize("name", sorted(GOLDEN["scenarios"]))
def test_cli_outputs_match_the_recording(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GOLDEN["scenarios"][name]), encoding="utf-8")
    cases = [c for c in GOLDEN["cli"] if c["scenario"] == name]
    assert len(cases) == 4
    for case in cases:
        command, *flags = case["args"]
        code = main([command, str(path), *flags])
        out = TIMINGS.sub(r"\1{}", capsys.readouterr().out)
        assert (code, out) == (case["exit"], case["stdout"]), case["args"]


def test_zoo_defects_match_the_recording():
    assert len(GOLDEN["zoo"]) == 96
    for k, case in enumerate(GOLDEN["zoo"]):
        for key, use_shortcuts in (("shortcuts_on", True), ("shortcuts_off", False)):
            result = defect(parse_scenario(case["scenario"]), use_shortcuts=use_shortcuts)
            got = {"factors": list(result.invariants.factors), "shortcut": result.shortcut}
            assert got == case[key], (k, key)


def test_guard_keeps_every_recorded_case():
    # CI runs golden_guard.py against the base commit's file; one changed or
    # dropped case of any kind must fail it, and a new case must not
    from golden_guard import missing_cases

    assert missing_cases(GOLDEN, GOLDEN) == []
    edits = {
        "scenario 'a4-regular'": lambda g: g["scenarios"]["a4-regular"]["S"].clear(),
        "cli case 7": lambda g: g["cli"][7].update(exit=3),
        "zoo case 3": lambda g: g["zoo"][3]["shortcuts_on"].update(factors=[9]),
        "zoo case 95": lambda g: g["zoo"].pop(),
    }
    for missing, edit in edits.items():
        head = json.loads(json.dumps(GOLDEN))
        edit(head)
        assert missing_cases(GOLDEN, head) == [missing]
        assert missing_cases(head, GOLDEN) == ([] if missing == "zoo case 95" else [missing])
