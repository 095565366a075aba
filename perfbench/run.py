"""Benchmark of diffeolab's three user-facing pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload fixpoint --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each exists):

  fixpoint  fixed_point_search + write_chain at k=2, A=4, then replays of
            each written chain with load_chain + verify_certificate
  sweep     one reduce_norm per op on sweep_profile over k in {2,3},
            A in {1,2,4,8} and both moduli
  battery   one pass of `diffeolab verify` plus `modulus analyze` for both
            moduli, through cli.main

Everything runs in this one process.  BLAS is pinned to one thread, and the
benchmark starts no threads or processes of its own.  The package is
imported from ./src and reached only through `diffeolab.*` and `cli.main`.
The seed stays here: the package receives only the generated inputs.

With --trace 0 nothing is instrumented and the last stdout line is the JSON
result with the end-to-end metrics.  With --trace 1 every op runs twice,
untraced and then traced by perfbench/tracer.py, and the result holds the
per-layer metrics, the accuracy probes and the tracing overhead; the spans
are written to .perfbench_out/ when the run ends.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from meter import Meter
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

# Per-layer counters, reported per traced op as <layer>.<counter>.
LAYER_COUNTERS = [
    ("flow.time_t_map", ("calls", "self_s", "nodes")),
    ("flow.trajectory_chart", ("calls", "self_s")),
    ("fixpoint.make_rescaler", ("calls", "self_s", "nodes")),
    ("diffeo.compose", ("calls", "self_s", "nodes")),
    ("diffeo.compose_all", ("nodes",)),
    ("diffeo.inverse", ("calls", "self_s", "nodes")),
    ("jets.invert_derivs", ("self_s",)),
    ("diffeo.displacement_jets", ("calls", "self_s")),
    ("diffeo.from_dict", ("self_s",)),
    ("diffeo.to_dict", ("self_s",)),
    ("fixpoint.dump_chain", ("self_s",)),
    ("fixpoint.verify_certificate", ("self_s",)),
    ("fixpoint.ck_distance", ("self_s",)),
    ("jets.compose_derivs", ("calls", "self_s")),
    ("reduction.roll_up", ("calls", "self_s", "nodes")),
    ("reduction.spread", ("self_s", "nodes")),
    ("reduction.reduce_norm", ("self_s",)),
    ("norms.holder_norm", ("calls", "self_s")),
    ("reduction.lambda_limit", ("self_s",)),
    ("reduction.conjugator", ("calls", "self_s")),
    ("modulus.oscillation_modulus", ("self_s",)),
    ("modulus.least_concave_majorant", ("self_s",)),
    ("modulus.classify_tameness", ("self_s",)),
]
UNITS = {"calls": "count", "self_s": "s", "nodes": "count"}
# Public functions wrapped in the traced run, named <module>.<function> after
# the module that defines them: the layers above (displacement_jets is a
# method, wrapped on its class) and four that only give the span tree its
# structure.
TRACED = [layer for layer, _ in LAYER_COUNTERS
          if layer != "diffeo.displacement_jets"] + [
    "fixpoint.fixed_point_search", "fixpoint.write_chain",
    "fixpoint.load_chain", "cli.main"]
PROBES = [("diffeo.noise_floor_k2", "seminorm"),
          ("diffeo.noise_floor_k3", "seminorm"),
          ("fixpoint.rescaler_noise_k2", "seminorm"),
          ("fixpoint.rescaler_noise_k3", "seminorm")]
RESULTS = [("fixpoint.fixed_point_search.iterations", "count"),
           ("fixpoint.fixed_point_search.residual", "Ck_distance"),
           ("fixpoint.verify_certificate.residual", "sup_distance"),
           ("fixpoint.write_chain.mb", "MB")]
TRACE_CHECKS = [("trace.overhead_s", "s"), ("trace.self_sum_gap", "ratio")]
SELF_SUM_LIMIT = 0.03

# Calls that must not happen on a workload: it would have stopped bypassing
# a layer.
ISOLATION = {
    "sweep": ("flow.time_t_map", "flow.trajectory_chart",
              "fixpoint.make_rescaler", "reduction.conjugator"),
    "battery": ("fixpoint.make_rescaler", "reduction.conjugator"),
}

# Every per-layer metric with its unit, in report order.
PER_LAYER = [(f"{layer}.{c}", UNITS[c]) for layer, counters in LAYER_COUNTERS
             for c in counters] + PROBES + RESULTS + TRACE_CHECKS


def load_package():
    """Import diffeolab from this checkout's sources; refuse any other copy."""
    if not (SRC / "diffeolab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no diffeolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffeolab
    from diffeolab import cli
    if Path(diffeolab.__file__).resolve().parent != SRC / "diffeolab":
        raise SystemExit(f"perfbench: imported diffeolab from "
                         f"{diffeolab.__file__}, not from {SRC}")
    return diffeolab, cli


# -- running ------------------------------------------------------------------

def stage_of(exc: BaseException) -> str:
    """The stage prefix of a refusal message ("rescaling stage", ...)."""
    head = str(exc).split(":", 1)[0]
    return head if len(head) <= 48 and head != str(exc) else "unnamed"


class Failures:
    def __init__(self):
        self.records: list[dict] = []

    @contextlib.contextmanager
    def guard(self, op):
        try:
            yield
        except Exception as e:          # an op failure is recorded, not fatal
            self.records.append({"op": op, "type": type(e).__name__,
                                 "stage": stage_of(e),
                                 "message": str(e)[:200]})

    def print(self) -> None:
        for rec in self.records:
            print(f"FAILED op {rec['op']}: {rec['type']} [{rec['stage']}] "
                  f"{rec['message']}")


def set_up(name: str, seed: int, work: Path, meter: Meter,
           failures: Failures, dl, cli):
    """Build the workload: input generation SETUP_REPEATS times, then the
    warm-up ops, whose output checks count like any other op's.  Returns it
    with the set-up time in reference seconds (import, the median input
    generation, and the warm-up)."""
    import numpy as np

    def rng(s):
        return np.random.default_rng([s, list(WORKLOADS).index(name)])

    wl = WORKLOADS[name](dl, cli, rng, work)
    for _ in range(SETUP_REPEATS):
        meter.call("prepare", wl.prepare, seed)
    for i in range(wl.warmup_ops):
        with failures.guard(f"warm-up {i}"):
            wl.op(i, meter, "warmup")
    parts = (sum(meter.seconds("import")),
             statistics.median(meter.seconds("prepare")),
             sum(meter.seconds("warmup")) + sum(meter.seconds("warmup.replay")))
    print(f"{name} setup parts: import {parts[0]:.4g} s, input generation "
          f"{parts[1]:.4g} s, warm-up {parts[2]:.4g} s")
    return wl, sum(parts)


def timed_loop(wl, meter: Meter, seconds: float, failures: Failures,
               run_op) -> int:
    """Run whole rounds of ops until the time is spent; returns the ops
    attempted, warm-up included."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        for slot in range(wl.round_ops):
            meter.slot = slot
            with failures.guard(i):
                run_op(i)
            i += 1
    return i + wl.warmup_ops


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer than
    eleven samples."""
    xs = sorted(samples)
    j = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(name, seed, seconds, work, meter, dl, cli) -> dict:
    failures = Failures()
    wl, setup_s = set_up(name, seed, work, meter, failures, dl, cli)
    attempted = timed_loop(wl, meter, seconds, failures,
                           lambda i: wl.op(i, meter))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures.print()
    metrics = {"setup_s": metric(setup_s, "s"),
               "peak_rss_mb": metric(peak_mb, "MB")}
    report = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB")}
    complete = all(meter.intervals.get(label)
                   for label in ("op", wl.tail_label))
    if complete:
        op_name, tail_name, tail_of = wl.REPORT
        op_s = meter.slot_median("op")
        tail_s, pct, n = tail(meter.seconds(wl.tail_label))
        metrics["op_s"] = metric(op_s, "s")
        metrics["tail_s"] = metric(tail_s, "s")
        plain = statistics.median(meter.seconds("op"))
        report[op_name] = (op_s, f"s (wall {meter.slot_median('op', True):.6g}"
                                 f" s; plain median {plain:.6g} s)")
        wall_tail = tail(meter.wall(wl.tail_label))[0]
        report[tail_name] = (tail_s, f"s (p{pct:.0f} of {n} {tail_of}; "
                                     f"wall {wall_tail:.6g} s)")
        report.update(wl.report(meter))
    for key, (value, unit) in report.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} attempted = {attempted} failed = {len(failures.records)}")
    return {"correct": complete and not failures.records,
            "attempted": attempted, "failed": len(failures.records),
            "metrics": metrics}


def accuracy_probes(dl) -> dict:
    """Seminorm of f o f^{-1}, which is 0 in exact arithmetic, for the
    calibrated bump and for the A=4 rescaler, at k=2 and k=3."""
    alpha = dl.holder(0.5)
    out = {}
    for k in (2, 3):
        f = dl.calibrated_bump(0.7 * dl.smallness_threshold(k), alpha, k)
        rescaler = dl.make_rescaler(dl.make_config(k, alpha, 4))
        for key, m in ((f"diffeo.noise_floor_k{k}", f),
                       (f"fixpoint.rescaler_noise_k{k}", rescaler)):
            out[key] = dl.holder_norm(dl.compose(m, dl.inverse(m)), alpha, k)
    return out


def run_traced(name, seed, seconds, work, meter, dl, cli) -> dict:
    probes = accuracy_probes(dl)
    failures = Failures()
    wl, _ = set_up(name, seed, work, meter, failures, dl, cli)
    tracer = Tracer(dl.Diffeo1)
    methods = [(dl.Diffeo1, "displacement_jets", "diffeo.displacement_jets")]
    gaps, traced_ops = [], set()

    def both(i: int) -> None:
        # every traced round repeats the first round's inputs, so the
        # per-op counts of a seed repeat exactly
        i %= wl.round_ops
        wl.op(i, meter, "plain")
        tracer.install("diffeolab", TRACED, methods)
        tracer.op = len(gaps)
        try:
            t0 = time.perf_counter()
            with tracer.span("op"):
                wl.op(i, meter, "traced")
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        traced_ops.add(tracer.op)
        gaps.append(abs(tracer.self_sum(tracer.op) - wall) / wall)

    attempted = timed_loop(wl, meter, seconds, failures, both)
    failures.print()
    rows = tracer.per_name(traced_ops)
    n_ops = max(len(traced_ops), 1)
    values = {}
    for layer, counters in LAYER_COUNTERS:
        row = rows.get(layer, {"calls": 0, "self_s": 0.0, "nodes": 0})
        for c in counters:
            values[f"{layer}.{c}"] = row[c] / n_ops
    values.update(probes)
    results = wl.results()
    for key, _ in RESULTS:
        values[key] = results.get(key, 0.0)
    plain_s = traced_s = 0.0
    if traced_ops:
        plain_s = meter.slot_median("plain")
        traced_s = meter.slot_median("traced")
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.self_sum_gap"] = max(gaps, default=0.0)

    leaks = [f"{layer}.calls" for layer in ISOLATION.get(name, ())
             if rows.get(layer, {}).get("calls", 0)]
    consistent = bool(gaps) and max(gaps) <= SELF_SUM_LIMIT
    print_trace_report(name, rows, n_ops, plain_s, traced_s, values)
    if name == "fixpoint":
        print_search_shares(tracer.per_name(traced_ops,
                                            "fixpoint.fixed_point_search"),
                            n_ops)
    print(f"{name} isolation: "
          + ("ok" if not leaks else "FAILED, calls on " + ", ".join(leaks)))
    print(f"{name} self-time sum vs op wall time: worst gap "
          f"{values['trace.self_sum_gap']:.2%} "
          f"({'ok' if consistent else 'FAILED'}, limit "
          f"{SELF_SUM_LIMIT:.0%})")
    print(f"{name} attempted = {attempted} failed = {len(failures.records)}")
    write_spans(name, seed, tracer, rows, n_ops)

    units = dict(PER_LAYER)
    return {"correct": not failures.records and not leaks and consistent,
            "attempted": attempted, "failed": len(failures.records),
            "metrics": {k: metric(values[k], units[k]) for k in units}}


def print_trace_report(name, rows, n_ops, plain_s, traced_s, values) -> None:
    print(f"{name} traced ops = {n_ops}; per op, by self time:")
    print(f"  {'span':34s} {'calls':>9s} {'self_s':>9s} {'incl_s':>9s}")
    for span, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:34s} {row['calls'] / n_ops:9.1f} "
              f"{row['self_s'] / n_ops:9.4f} {row['incl_s'] / n_ops:9.4f}")
    if traced_s:
        print(f"{name} op median untraced {plain_s:.4f} s,"
              f" traced {traced_s:.4f} s, overhead "
              f"{values['trace.overhead_s']:.4f} s")
    for key, unit in PROBES:
        print(f"{key} = {values[key]:.4g} {unit}")


def print_search_shares(rows, n_ops) -> None:
    """Inclusive wall seconds per search, beside the ROADMAP re-anchor
    figures (k=2, A=4, holder 0.5, norm 1e-3, on another machine)."""
    def incl(name):
        return rows.get(name, {}).get("incl_s", 0.0) / n_ops

    def calls(name):
        return rows.get(name, {}).get("calls", 0) / n_ops

    print("fixpoint search shares (per search, wall s; ROADMAP in brackets):")
    print(f"  fixed_point_search {incl('fixpoint.fixed_point_search'):.3f}"
          f" [3.39]   conjugator {incl('reduction.conjugator'):.3f} [2.31]")
    print(f"  time_t_map x{calls('flow.time_t_map'):.0f}"
          f" {incl('flow.time_t_map'):.3f} [1.50]   displacement_jets "
          f"{incl('diffeo.displacement_jets'):.3f} over "
          f"{calls('diffeo.displacement_jets'):.0f} calls [1.18 over 1094]")


def write_spans(name, seed, tracer, rows, n_ops) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "traced_ops": n_ops,
                   "fields": ["name", "start", "end", "parent", "op",
                              "self_s", "nodes"],
                   "per_name": rows, "spans": tracer.spans}, fh)
    print(f"{name} spans: {len(tracer.spans)} -> {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    dl, cli = load_package()
    t1 = time.perf_counter()
    meter = Meter()
    meter.record("import", t0, t1)

    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = run_traced if args.trace else run_untraced
    try:
        result = run(args.workload, args.seed, args.seconds, work, meter,
                     dl, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
