#!/usr/bin/env python3
"""Stage-level benchmark for wadefect.

    python3 bench/run.py --workload zoo-stream --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run sets up its inputs from the seed, runs passes over them for about
``--seconds`` seconds as a closed loop with one client, repeating the
set-up between passes to time it, checks every answer, and prints a report
whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes.  With ``--trace 1`` passes alternate between untraced and traced,
the metrics are the per-layer ones from the traced passes, plus the tracing
overhead, and the spans are written to ``bench/out/`` when the run ends.
See ``bench/NOTES.md`` for why each workload exists.  ``torus-ladder`` is
not in BENCHMARK.json: its figures were not steady enough to gate a change,
and it is kept for by-hand comparisons of normal-form and cover changes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT_DIR, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("zoo-stream", "torus-ladder", "oracle-audit")
SETUP_REPEATS = 3
MIN_PASSES = 3

# Printed in the report only: on the 6 rows of oracle-audit, p90 lies beyond
# the slowest row, so it measures nothing there; see NOTES.md.
TAIL = {
    "latency_p90_ms": "ms",
}
# per-layer metrics are named <span>.<figure>, figures per traced pass; this
# one is the exception, computed from whole passes
OVERHEAD_METRIC = "trace.overhead_ratio"

# The 10th-percentile time of _calibration_seconds on the reference machine,
# the 2-vCPU VM of NOTES.md.  End-to-end times are scaled to that speed.
REFERENCE_CALIBRATION_S = 1.4e-3

# Times one cold import in a fresh interpreter; the interpreter's own start-up
# is not counted.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import wadefect, wadefect.cli, wadefect.zoo, wadefect.oracles\n"
    "print(time.perf_counter() - t)\n"
)


def _calibration_seconds() -> float:
    """Time a fixed pure-Python integer workload that does not use wadefect.

    The shared host runs this process 30-60% slower in spells of seconds to
    minutes.  Timed next to every scenario, this loop measures the speed the
    host gave the run, and the end-to-end times are scaled by it; see NOTES.md.
    """
    t = time.perf_counter()
    n = 14
    A = [[(i * 7 + j * 13) % 11 - 5 + (i == j) * 9 for j in range(n)] for i in range(n)]
    for k in range(n):  # fraction-free elimination, so entries grow
        for i in range(k + 1, n):
            f, g = A[i][k], A[k][k]
            A[i] = [g * a - f * b for a, b in zip(A[i], A[k])]
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t


def _metric_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Stage-level benchmark for wadefect.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, SRC_DIR],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


class Run:
    """One benchmark run: set-up, timed passes, answer checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import workloads  # imports wadefect, so only once src/ is on the path

        self.W = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        self.items = []
        self.setup_times: list[float] = []
        self.calibration: list[float] = []
        self.passes: list[dict] = []
        self.peak_rss_mb = 0.0
        self.failures: list[str] = []
        self.ok: list[list[bool]] = []

    # -- set-up ---------------------------------------------------------------

    def _generate(self, directory: str):
        W = self.W
        if self.workload == "zoo-stream":
            return W.zoo_stream_items(self.seed)
        if self.workload == "torus-ladder":
            return W.ladder_items(self.seed)
        return W.audit_items(self.seed, directory)

    def setup(self, directory: str) -> None:
        """Time SETUP_REPEATS set-ups; each must generate the same inputs."""
        for _ in range(SETUP_REPEATS):
            imported = _import_seconds()
            t = time.perf_counter()
            items = self._generate(directory)
            self.setup_times.append(imported + time.perf_counter() - t)
            if self.items and [i.payload for i in items] != [i.payload for i in self.items]:
                raise AssertionError("the same seed generated different inputs")
            self.items = items

    # -- timed passes -------------------------------------------------------------

    def _execute(self, payload: str):
        if self.workload == "oracle-audit":
            return self.W.run_cli_audit(payload)
        return self.W.run_scenario_text(payload)

    def _timed(self, payload: str):
        t = time.perf_counter()
        try:
            answer = self._execute(payload)
        except Exception as exc:  # a raised answer is a failed op, not a crash
            answer = ("raised", f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t, answer

    def _one_pass(self, traced: bool) -> dict:
        latencies, answers = [], []
        tracer = self.tracer if traced else None
        start = len(tracer.spans) if tracer else 0
        with tracer.installed() if tracer else contextlib.nullcontext():
            gc.collect()
            t0 = time.perf_counter()
            for item in self.items:
                if self.tracer is None:
                    self.calibration.append(_calibration_seconds())
                with tracer.scenario_span(item.name) if tracer else contextlib.nullcontext():
                    lat, ans = self._timed(item.payload)
                latencies.append(lat)
                answers.append(ans)
            wall = time.perf_counter() - t0
        end = len(tracer.spans) if tracer else 0
        return {"traced": traced, "wall_s": wall, "latencies": latencies,
                "answers": answers, "spans": (start, end)}

    def measure(self, between=None) -> None:
        """Run passes for about ``self.seconds``, calling ``between()`` between passes."""
        t0 = time.perf_counter()
        while True:
            traced = self.tracer is not None and len(self.passes) % 2 == 1
            self.passes.append(self._one_pass(traced))
            n = len(self.passes)
            enough = n >= MIN_PASSES if self.tracer is None else n >= 2
            estimate = statistics.median(p["wall_s"] for p in self.passes)
            if enough and time.perf_counter() - t0 + estimate > self.seconds:
                break
            if between is not None:
                between()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- answer checks (off the clock) ----------------------------------------------

    def check(self, references: dict | None = None) -> None:
        W = self.W
        if references is None and self.workload != "zoo-stream":
            references = W.load_references()
        self.ok = [[False] * len(self.items) for _ in self.passes]
        for k, item in enumerate(self.items):
            answers = [p["answers"][k] for p in self.passes]
            try:
                expected = self._expected(item, answers, references)
            except Exception as exc:  # the reference itself failed: every op of the item fails
                self.failures.append(f"{item.name}: reference raised {type(exc).__name__}: {exc}")
                continue
            for i, ans in enumerate(answers):
                self.ok[i][k] = ans == expected
                if ans != expected:
                    self.failures.append(f"{item.name} pass {i}: got {ans!r}, expected {expected!r}")

    def _expected(self, item, answers, references):
        W = self.W
        if self.workload == "oracle-audit":
            return references["oracle-audit"][item.name]
        if self.workload == "torus-ladder":
            ref = references["torus-ladder"][item.name]
            return tuple(ref["factors"]), ref["shortcut"]
        # zoo-stream: recompute independently from the first non-raised answer's route
        first = next((a for a in answers if a[0] != "raised"), None)
        if first is None:
            raise RuntimeError("every pass raised")
        return W.zoo_reference(item, first[1]), first[1]

    @property
    def attempted(self) -> int:
        return len(self.passes) * len(self.items)

    @property
    def failed(self) -> int:
        return sum(row.count(False) for row in self.ok)

    # -- metrics ------------------------------------------------------------------

    def _untraced(self) -> list[dict]:
        return [p for p in self.passes if not p["traced"]]

    def scenario_best(self) -> list[float]:
        """Each scenario's best time over the untraced passes of this run.

        Noise on a shared host mostly adds time, and slow spells last
        seconds, so the best of several passes moves less from run to run
        than the median pass does; see NOTES.md.
        """
        passes = self._untraced()
        return [min(p["latencies"][k] for p in passes) for k in range(len(self.items))]

    def speed(self) -> float:
        """Reference calibration time over this run's: below 1 on a slow host."""
        return REFERENCE_CALIBRATION_S / statistics.quantiles(self.calibration, n=10)[0]

    def end_to_end(self) -> tuple[dict, dict]:
        """The end-to-end metrics, and the tail metrics the report also prints.

        Times are wall times scaled to the reference machine's speed.
        """
        speed = self.speed()
        best = [t * speed for t in self.scenario_best()]
        pass_s = sum(best)
        values = {
            "setup_s": statistics.median(self.setup_times) * speed,
            "pass_s": pass_s,
            "scenarios_per_s": len(best) / pass_s,
            "latency_p50_ms": statistics.median(best) * 1000.0,
            "latency_p90_ms": statistics.quantiles(best, n=10)[-1] * 1000.0,
            "max_scenario_s": max(best),
            "peak_rss_mb": self.peak_rss_mb,
        }
        return tuple({name: {"value": values[name], "unit": unit} for name, unit in table.items()}
                     for table in (_metric_units("end_to_end"), TAIL))

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p["traced"]]
        aggs = [tracing.aggregate(self.tracer.spans, *p["spans"]) for p in traced]
        out = {}
        for metric, unit in _metric_units("per_layer").items():
            if metric == OVERHEAD_METRIC:
                continue
            span, figure = metric.rsplit(".", 1)
            values = [_figure(agg.get(span, {}), figure) for agg in aggs]
            # counts and shapes repeat exactly from pass to pass; median_low
            # keeps them whole numbers
            out[metric] = {"value": statistics.median_low(values), "unit": unit}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in self._untraced()) - 1.0)
        out[OVERHEAD_METRIC] = {"value": overhead, "unit": "ratio"}
        return out

    def scenario_table(self) -> list[dict]:
        """Per-scenario metadata from the first traced pass, next to each scenario's time."""
        spans = self.tracer.spans
        start, end = next(p["spans"] for p in self.passes if p["traced"])
        roots = [k for k in range(start, end) if spans[k][3] == -1] + [end]
        rows = []
        for item, a, b in zip(self.items, roots, roots[1:]):
            agg = tracing.aggregate(spans, a, b)
            cover = agg.get("modules.free_cover", {})
            snf = agg.get("linalg.smith_normal_form", {})
            hnf = agg.get("linalg.hermite_column_form", {})
            rows.append({
                "scenario": item.name,
                "time_s": spans[a][2] - spans[a][1],
                "group_order": item.group_order,
                "n": item.rank,
                "cover_rank": cover.get("cover_rank", 0),
                "kernel_rank": cover.get("kernel_rank", 0),
                "subgroups": agg.get("modules.coinvariants", {}).get("calls", 0),
                "snf_max_shape": [snf.get("max_rows", 0), snf.get("max_cols", 0)],
                "snf_max_out_bits": snf.get("max_out_bits", 0),
                "hnf_max_shape": [hnf.get("max_rows", 0), hnf.get("max_cols", 0)],
                "hnf_max_in_bits": hnf.get("max_in_bits", 0),
            })
        return rows

    def write_trace(self, table: list[dict]) -> str:
        path = os.path.join(OUT_DIR, f"trace-{self.workload}-seed{self.seed}.json")
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "spans": list(p["spans"])}
                       for p in self.passes],
            "span_fields": ["name", "start", "end", "parent", "scenario", "stats"],
            "spans": self.tracer.spans,
            "scenarios": table,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _figure(entry: dict, figure: str) -> float:
    if figure == "hit_ratio":
        return entry.get("hits", 0) / entry["calls"] if entry.get("calls") else 0.0
    return entry.get(figure, 0)


def _report(run: Run, metrics: dict, tail: dict, table: list[dict], trace_path: str | None) -> None:
    untraced = run._untraced()
    samples = sum(len(p["latencies"]) for p in untraced)
    print(f"workload {run.workload}  seed {run.seed}  passes {len(run.passes)} "
          f"(traced {len(run.passes) - len(untraced)})  scenarios/pass {len(run.items)}  "
          f"untraced samples {samples}")
    print(f"fail_ratio {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for line in run.failures[:20]:
        print(f"  FAILED {line}")
    if run.workload == "zoo-stream":
        first = run.passes[0]["answers"]
        hits = sum(1 for a in first if a[0] != "raised" and a[1] is not None)
        print(f"shortcut share {hits}/{len(first)} = {hits / len(first):.3f}")
    else:
        for item, best in zip(run.items, run.scenario_best()):
            print(f"  {item.name:22s} |G|={item.group_order:3d} n={item.rank:3d}  best {best:.4f} s unscaled")
    if run.calibration:
        print(f"host speed {run.speed():.4f} of the reference; unscaled wall times: "
              f"setup_s {statistics.median(run.setup_times):.6g} s, pass_s {sum(run.scenario_best()):.6g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in tail.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  (tail, not in the result)")
    if trace_path:
        print(f"spans written to {os.path.relpath(trace_path, ROOT_DIR)}")
        for row in table:
            print("  " + json.dumps(row))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "wadefect", "__init__.py")):
        sys.stderr.write(f"wadefect sources not found under {SRC_DIR}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC_DIR)
    import wadefect

    if not os.path.abspath(wadefect.__file__).startswith(SRC_DIR + os.sep):
        sys.stderr.write(f"imported wadefect from {wadefect.__file__}, not from {SRC_DIR}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as directory:
        # set-ups are repeated between passes too, so that setup_s samples the
        # machine over the whole run, not only during its first seconds
        run.setup(directory)
        run.measure(lambda: run.setup(directory))
    run.check()
    tail, table, trace_path = {}, [], None
    if args.trace:
        metrics = run.per_layer()
        table = run.scenario_table()
        trace_path = run.write_trace(table)
    else:
        metrics, tail = run.end_to_end()
    _report(run, metrics, tail, table, trace_path)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
