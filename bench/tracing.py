"""Span recording around wadefect's hot-path layers, from outside the package.

A :class:`Tracer` wraps every public function of the traced modules (their
``__all__``) and ``ColumnSolver.solve``, and rebinds each wrapper wherever a
``wadefect`` module holds the original, so calls made through names imported
with ``from .linalg import ...`` are seen too.  :meth:`Tracer.installed`
undoes the rebinding on exit, so untraced passes run the original code.

A span is ``[name, start, end, parent, scenario, stats]``: parent is the
index of the enclosing span (-1 for none) and stats holds shape figures
taken from the arguments and result.  Taking them scans the entries once;
that scan ends before the span does, so it counts in the span's own time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("scenario_io", "groups", "modules", "linalg", "engine", "cli")

# Scalar helpers called once per elimination step: a span each would cost more
# than the work it times.  Their time stays in the caller's self time.
NOT_TRACED = {"linalg.xgcd"}

ROOT = "scenario"


def _bits(matrices) -> int:
    # bit length of the largest |entry|; builtin max/min keep the scan cheap
    return max((max(max(m.entries), -min(m.entries)).bit_length() for m in matrices if m.entries), default=0)


def _snf_stats(args, out):
    A = args[0]
    return {"rows": A.rows, "cols": A.cols, "out_bits": _bits((out.U, out.D, out.V))}


def _hnf_stats(args, out):
    B = args[0]
    return {"rows": B.rows, "cols": B.cols, "in_bits": _bits((B,))}


def _cover_stats(args, out):
    return {"cover_rank": out.cover_rank, "kernel_rank": out.kernel_basis.cols}


def _vanish_stats(args, out):
    return {"hits": int(out is not None)}


# figures summed over a pass; every other figure keeps its maximum
SUMMED = ("hits", "cover_rank", "kernel_rank")

STATS = {
    "linalg.smith_normal_form": _snf_stats,
    "linalg.hermite_column_form": _hnf_stats,
    "modules.free_cover": _cover_stats,
    "engine.quick_vanish": _vanish_stats,
}


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.scenario: str | None = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        stats = STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if stats is not None:
                    rec[5] = stats(args, out)
            finally:
                rec[2] = clock()
                stack.pop()
            return out

        return traced

    @contextlib.contextmanager
    def scenario_span(self, scenario: str):
        """Root span of one scenario, recorded by the benchmark itself."""
        self.scenario = scenario
        rec = [ROOT, 0.0, 0.0, -1, scenario, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.scenario = None

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function to its wrapper; restore on exit."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"wadefect.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in NOT_TRACED:
                    wrappers[fn] = self.wrap(name, fn)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != "wadefect" and not modname.startswith("wadefect."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((mod, attr, value))
        linalg = importlib.import_module("wadefect.linalg")
        solve = linalg.ColumnSolver.solve
        patches.append((linalg.ColumnSolver, "solve", solve))
        wrappers[solve] = self.wrap("linalg.ColumnSolver.solve", solve)
        for owner, attr, original in patches:
            setattr(owner, attr, wrappers[original])
        try:
            yield self
        finally:
            for owner, attr, original in patches:
                setattr(owner, attr, original)


def aggregate(spans: list[list], start: int = 0, end: int | None = None) -> dict:
    """Per-name calls, total and self time, and shape figures over spans[start:end].

    The slice must be closed: every span in it whose parent is not -1 has its
    parent in the slice too, as the spans of one pass or one scenario do.
    The result maps name -> {"calls", "total_s", "self_s", ...}: "hits" sums
    quick_vanish hits, "cover_rank" and "kernel_rank" sum over free_cover
    calls, and "max_<figure>" keeps the largest shape figure seen.
    """
    end = len(spans) if end is None else end
    covered = [0.0] * (end - start)
    for rec in spans[start:end]:
        if rec[3] >= start:
            covered[rec[3] - start] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for k in range(start, end):
        rec = spans[k]
        entry = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = rec[2] - rec[1]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - covered[k - start]
        for key, value in (rec[5] or {}).items():
            if key in SUMMED:
                entry[key] = entry.get(key, 0) + value
            else:
                entry[f"max_{key}"] = max(entry.get(f"max_{key}", 0), value)
    return out
