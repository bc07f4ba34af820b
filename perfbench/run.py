"""Run one biprox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; biprox is imported from its src/.  Every
repetition runs in a fresh interpreter (worker.py), single-process.

--trace 0 measures the end-to-end metrics with tracing off: a few set-up-only
repetitions, then timed passes while a further pass still fits in S seconds
(at least one).  Each metric is the median over the repetitions.  Timed
sections are measured in reference seconds (speed.py), which take out the
machine's speed drift; raw wall times are printed beside them.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, plus the tracing overhead (traced minus untraced
wall time, in reference seconds).

The report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Each run also
writes its full record under perfbench/out/.  README.md explains the
workloads, the metrics and the layer each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("survey", "classify-corpus", "lattice-census")
# Set-up-only repetitions, half before and half after the timed passes, so
# the set-up median samples the machine across the whole run.
SETUP_ONLY_SAMPLES = 6
# One BLAS thread: each repetition uses one core, as a single-process user
# run would on a shared box, and the two-thread handoff adds no noise.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; leave room for the last report.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "ref_s"),
    ("items_per_ref_s", "1/ref_s"),
    ("peak_rss_mb", "MB"),
)

# Traced name -> the aggregates reported for it.
PER_LAYER = (
    ("catalog.catalog_group", ("total_s",)),
    ("permgroup.FiniteGroup", ("calls", "self_s", "distinct_ratio")),
    ("permgroup.subgroup_generated", ("calls", "self_s")),
    ("permgroup.all_subgroups", ("calls", "total_s")),
    ("permgroup.quotient_group", ("total_s",)),
    ("cli.enumerate_pairs", ("total_s",)),
    ("cli.subgroup_class_representatives", ("total_s",)),
    ("cli.equivalence_classes", ("total_s",)),
    ("interval.equivalence_key", ("calls", "total_s")),
    ("interval.inclusions_equivalent", ("calls", "total_s")),
    ("lattice.from_subgroups", ("calls", "total_s", "self_s")),
    ("lattice.is_distributive", ("total_s",)),
    ("lattice.boolean_rank", ("total_s",)),
    ("boxalgebra.generate_biprojection", ("calls", "self_s")),
    ("boxalgebra.is_central", ("calls", "self_s")),
    ("boxalgebra.minimal_central_projections", ("calls", "total_s")),
    ("boxalgebra.minimal_projections_under", ("calls", "total_s")),
    ("boxalgebra.BoxContext", ("calls",)),
    ("boxalgebra.biprojection_lattice", ("calls",)),
    ("boxalgebra.is_normal_biprojection", ("calls",)),
    ("boxalgebra.compress_lower", ("calls",)),
    ("boxalgebra.compress_upper", ("calls",)),
    ("properties.step_context", ("calls", "total_s", "distinct_ratio")),
    ("properties.lengths", ("total_s",)),
    (
        "properties.classify",
        (
            "calls",
            "self_s",
            "raised.NotPositive",
            "raised.NumericRankAmbiguous",
            "raised.other",
        ),
    ),
)
UNITS = {"calls": "count", "total_s": "ref_s", "self_s": "ref_s", "distinct_ratio": "ratio"}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    spawned = time.monotonic()
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--spawned",
        repr(spawned),
        *flags,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition did not finish before the deadline")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited with code {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(trace: dict, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics of a traced pass; absent names read 0 and are listed."""
    metrics, absent = {}, []
    for name, fields in PER_LAYER:
        stat = trace["stats"].get(name)
        for field in fields:
            key = f"{name}.{field}"
            if stat is None or (field == "distinct_ratio" and stat["distinct"] is None):
                metrics[key] = metric(0, UNITS.get(field, "count"))
                absent.append(key)
            elif field == "distinct_ratio":
                # No calls wasted nothing: the ratio reads 1.
                ratio = stat["distinct"] / stat["calls"] if stat["calls"] else 1.0
                metrics[key] = metric(ratio, "ratio")
            elif field.startswith("raised."):
                kind = field[len("raised."):]
                named = {f[len("raised."):] for f in fields if f.startswith("raised.")}
                count = (
                    sum(n for k, n in stat["raised"].items() if k not in named)
                    if kind == "other"
                    else stat["raised"].get(kind, 0)
                )
                metrics[key] = metric(count, "count")
            else:
                metrics[key] = metric(stat[field], UNITS[field])
    metrics["trace.overhead_s"] = metric(overhead_s, "ref_s")
    return metrics, absent


def describe(record: dict) -> str:
    return (
        f"seed={record['seed']} nproc={record['nproc']} python={record['python']} "
        f"numpy={record['numpy']} blas_threads={record['blas_threads']}"
    )


def measure(args, deadline: float) -> tuple[dict, list, list]:
    def setup_samples(count: int) -> list:
        return [
            run_worker(args.workload, args.seed, deadline, "--setup-only")
            for _ in range(count)
        ]

    setups = setup_samples(SETUP_ONLY_SAMPLES // 2)
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_worker(args.workload, args.seed, deadline))
        took = time.monotonic() - began
        if time.monotonic() - start + took > args.seconds:
            break
    setups += setup_samples(SETUP_ONLY_SAMPLES - len(setups))
    med = statistics.median
    metrics = {
        "setup_s": med(r["setup_s"] for r in setups + passes),
        "wall_ref_s": med(p["wall_ref_s"] for p in passes),
        "items_per_ref_s": med(p["ok"] / p["wall_ref_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    metrics = {name: metric(metrics[name], unit) for name, unit in END_TO_END}
    return metrics, setups, passes


def report_end_to_end(metrics: dict, passes: list, setups: list) -> list:
    last = passes[-1]
    lines = [
        f"workload {last['workload']}: {len(passes)} timed pass(es), "
        f"{len(setups) + len(passes)} set-ups; {describe(last)}"
    ]

    def line(name: str, value: float, unit: str, note: str = "") -> None:
        lines.append(f"  {name:<20} {value:.6g} {unit}{note}")

    med = statistics.median
    for name, m in metrics.items():
        line(name, m["value"], m["unit"])
    line("wall_s", med(p["wall_s"] for p in passes), "s", "  (raw, not gated)")
    line("items_per_s", med(p["ok"] / p["wall_s"] for p in passes), "1/s", "  (raw, not gated)")
    line("speed", med(p["speed"] for p in passes), "ref_s/s", "  (machine speed in the timed passes)")
    lats = [p["latency"] for p in passes if p["latency"]]
    if lats:
        n, pct = lats[-1]["n"], lats[-1]["tail_pct"]
        for key, unit in (("p50_ref_ms", "ref_ms"), ("p50_ms", "ms")):
            line(f"latency_{key}", med(lat[key] for lat in lats), unit, f"  (n={n})")
        for key, unit in (("tail_ref_ms", "ref_ms"), ("tail_ms", "ms")):
            note = f"  (p{pct}, n={n}, 10 samples above)"
            line(f"latency_{key}", med(lat[key] for lat in lats), unit, note)
    else:
        lines.append(f"  {'latency_*_ms':<20} not measured: no per-item times")
    attempted = sum(p["attempted"] for p in passes)
    errors = attempted - sum(p["ok"] for p in passes)
    line("error_rate", errors / attempted, "ratio", f"  ({errors}/{attempted})")
    if last["known_failures"]:
        known = ", ".join(f"{k} {v}" for k, v in sorted(last["known_failures"].items()))
        lines.append(f"  known seed failures (not in 'failed'): {known}")
    for p in passes:
        if not p["correct"]:
            lines.append(f"  CHECK FAILED: {p['mismatched']} {p['error'] or ''}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "biprox" / "__init__.py").is_file():
        sys.stderr.write(f"error: no biprox sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, deadline)
            traced = run_worker(args.workload, args.seed, deadline, "--trace")
            passes = [plain, traced]
            metrics, absent = per_layer_metrics(
                traced["trace"], traced["wall_ref_s"] - plain["wall_ref_s"]
            )
            lines = [f"workload {args.workload} traced; {describe(traced)}"]
            lines += [f"  {k:<52} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
            if absent:
                lines.append(f"  absent (reported as 0): {', '.join(absent)}")
            record = {"plain": plain, "traced": traced}
        else:
            metrics, setups, passes = measure(args, deadline)
            lines = report_end_to_end(metrics, passes, setups)
            record = {"setups": setups, "passes": passes}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
