"""Replay of recorded outputs: refactors must not change a byte of them.

`golden_outputs.json` holds scenario documents and what the program made
of them when the file was recorded:

* ``scenarios``: the five catalog entries, the norm-one module of Z[G]
  with S = {G} over Klein, S3, D4, Q8, (Z/2)^3 and A4, the augmentation
  kernels of the points modules A4/4, S4/4 and F20/5, and PSL(2,7) on the
  8 points of the projective line over F_7.
* ``cli``: for each of them, the exit code and stdout of `compute`,
  `compute --check --oracle bar`, `h1 --subgroup full --oracle bar` and
  `h1 --subgroup S0`, all with `--emit json` and timings masked.
* ``zoo``: seeded `zoo.random_module` scenarios over `zoo.group_zoo()`,
  stored as documents, with `defect`'s factors and shortcut label with
  shortcuts on and off.
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
