"""Command line front end.

Exit codes: 0 success, 1 schema error or a failed `selfcheck` check,
2 group/module validation error, 3 oracle mismatch (a bug trap; never
expected on a healthy build).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import catalog
from .engine import Scenario, ScenarioError, defect, verify_cover
from .groups import DEFAULT_ORDER_CAP, GroupError, Subgroup, cyclic_subgroups, full_subgroup, is_cyclic_subgroup
from .linalg import FinAbInvariants
from .modules import GammaModule, ModuleError, free_cover, h1, h1_bar
from .scenario_io import SchemaError, _as_int, dumps_result, load_scenario, render_text, result_document
from .selfcheck import run_selfcheck

__all__ = ["main", "OracleMismatchError"]

GROUP_CAP_ENV = "WA_DEFECT_GROUP_CAP"

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_VALIDATION = 2
EXIT_ORACLE = 3


class OracleMismatchError(RuntimeError):
    """The bar-complex recomputation disagreed with the cover route."""


def _group_cap() -> int:
    cap = _as_int(os.environ.get(GROUP_CAP_ENV, str(DEFAULT_ORDER_CAP)), GROUP_CAP_ENV)
    if cap < 1:
        raise SchemaError(f"{GROUP_CAP_ENV} must be at least 1, got {cap}")
    return cap


def _emit(doc: dict, emit: str) -> None:
    if emit == "json":
        sys.stdout.write(dumps_result(doc))
    else:
        sys.stdout.write(render_text(doc))


def _oracle_subgroups(sc: Scenario) -> list[Subgroup]:
    G = sc.group
    seen: dict[tuple[int, ...], Subgroup] = {}
    for H in list(sc.s_subgroups) + list(sc.sc_subgroups):
        if not is_cyclic_subgroup(G, H):
            seen.setdefault(H.elements, H)
    for C in cyclic_subgroups(G):
        seen.setdefault(C.elements, C)
    seen.setdefault(tuple(range(G.order)), full_subgroup(G))
    return [seen[k] for k in sorted(seen)]


def _check_bar(M: GammaModule, H: Subgroup, via_cover: FinAbInvariants) -> None:
    via_bar = h1_bar(M, H)
    if via_cover != via_bar:
        raise OracleMismatchError(
            f"H_1 mismatch on subgroup {H.elements}: cover route {via_cover.factors}, "
            f"bar route {via_bar.factors}"
        )


def _cmd_compute(args) -> int:
    t0 = time.perf_counter()
    sc = load_scenario(args.scenario, group_cap=_group_cap())
    t1 = time.perf_counter()
    result = defect(sc)
    t2 = time.perf_counter()
    if args.check:
        verify_cover(free_cover(sc.module))
    if args.oracle == "bar":
        for H in _oracle_subgroups(sc):
            _check_bar(sc.module, H, h1(sc.module, H))
    doc = result_document(
        result.invariants,
        shortcut=result.shortcut,
        timings_ms={"parse": (t1 - t0) * 1000.0, "compute": (t2 - t1) * 1000.0},
    )
    _emit(doc, args.emit)
    return EXIT_OK


_SELECTOR_RE = re.compile(r"(S|SC)?([0-9]+)")


def _select_subgroup(sc: Scenario, selector: str) -> Subgroup:
    if selector == "full":
        return full_subgroup(sc.group)
    m = _SELECTOR_RE.fullmatch(selector)
    if m is None:
        raise SchemaError(
            f"unknown subgroup selector {selector!r}; use 'full', 'S<k>', 'SC<k>', or a bare S index"
        )
    pool = sc.sc_subgroups if m.group(1) == "SC" else sc.s_subgroups
    # an index with more digits than len(pool) is out of range; checking the
    # length first keeps int() off arbitrarily long digit strings
    idx = m.group(2).lstrip("0") or "0"
    if len(idx) <= len(str(len(pool))) and int(idx) < len(pool):
        return pool[int(idx)]
    raise SchemaError(f"selector {selector!r}: index out of range (have {len(pool)})")


def _cmd_h1(args) -> int:
    t0 = time.perf_counter()
    sc = load_scenario(args.scenario, group_cap=_group_cap())
    H = _select_subgroup(sc, args.subgroup)
    if args.check:
        verify_cover(free_cover(sc.module))
    inv = h1(sc.module, H)
    if args.oracle == "bar":
        _check_bar(sc.module, H, inv)
    t1 = time.perf_counter()
    doc = result_document(inv, timings_ms={"total": (t1 - t0) * 1000.0})
    _emit(doc, args.emit)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    try:
        doc = catalog.catalog_document(args.name)
    except KeyError:
        sys.stderr.write(f"unknown catalog entry {args.name!r}; available entries:\n")
        for name in catalog.catalog_names():
            sys.stderr.write(f"  {name}: {catalog.describe(name)}\n")
        return EXIT_SCHEMA
    text = json.dumps(doc, indent=2) + "\n"
    if args.write:
        try:
            with open(args.write, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(str(exc)) from exc
        sys.stdout.write(f"wrote {args.name} to {args.write}\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    ok = run_selfcheck(seed=args.seed, emit=lambda line: sys.stdout.write(line + "\n"))
    return EXIT_OK if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wadefect",
        description="Compute the defect of weak approximation from finite Galois data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--emit", choices=("text", "json"), default="text", help="output format")
        p.add_argument("--oracle", choices=("bar",), default=None,
                       help="recompute every H_1 through the bar complex and fail on mismatch")
        p.add_argument("--check", action="store_true",
                       help="verify the free cover against the left translation that defines its kernel")

    p_compute = sub.add_parser("compute", help="compute the defect of a scenario file")
    p_compute.add_argument("scenario", help="path to a scenario JSON file")
    add_common(p_compute)
    p_compute.set_defaults(fn=_cmd_compute)

    p_h1 = sub.add_parser("h1", help="compute H_1 of a subgroup acting on the scenario module")
    p_h1.add_argument("scenario", help="path to a scenario JSON file")
    p_h1.add_argument("--subgroup", required=True,
                      help="'full', 'S<k>', 'SC<k>', or a bare index into the S list")
    add_common(p_h1)
    p_h1.set_defaults(fn=_cmd_h1)

    p_catalog = sub.add_parser("catalog", help="emit a built-in scenario")
    p_catalog.add_argument("name", help="catalog entry name")
    p_catalog.add_argument("--write", metavar="PATH", default=None, help="write the scenario to a file")
    p_catalog.set_defaults(fn=_cmd_catalog)

    p_self = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p_self.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    p_self.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except (GroupError, ModuleError, ScenarioError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except OracleMismatchError as exc:
        sys.stderr.write(f"oracle mismatch: {exc}\n")
        return EXIT_ORACLE


if __name__ == "__main__":
    raise SystemExit(main())
