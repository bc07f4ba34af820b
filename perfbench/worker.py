"""One repetition of a biprox benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, because biprox caches
catalog groups and subgroup lists per process: a warm second pass would
skip subgroup enumeration that command-line users pay on every run.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
                                [--setup-only] [--trace]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up time covers interpreter
start, ``import biprox`` and building the workload's inputs.  From the
import on, the speed probe (speed.py) runs; it gives the timed section's
times both as raw seconds and as reference seconds, and its ticks are left
out of both and of set-up time.  The last line of standard output is one
JSON object describing the repetition.

Workloads (the benchmark's seed only permutes the input order; the
program's own numeric seed stays 0):

* ``survey``: ``survey(max_index=12, max_order=60, names=<permuted
  catalog>)`` rendered as CSV and sorted JSON; items are classes.
* ``classify-corpus``: ``classify(BoxContext(G, H), lengths_which=())``
  on every corpus pair with |G| <= 24 plus six regular inclusions G/{1};
  items are pairs.
* ``lattice-census``: ``enumerate_pairs(names=<permuted catalog>)``, the
  ``lattice --format json`` command per pair, then ``equivalence_classes``;
  items are pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import REF_TICK_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
OUT = HERE / "out"

SURVEY_ARGS = {"max_index": 12, "max_order": 60}


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as f:
        return json.load(f)


def import_biprox():
    """Import biprox from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import biprox
    import biprox.cli

    if Path(biprox.__file__).resolve().parent != (src / "biprox").resolve():
        raise SystemExit(f"imported biprox from {biprox.__file__}, not from {src}")
    return biprox, biprox.cli


# -- set-up: build each workload's inputs ------------------------------------


def permuted_catalog(biprox, seed: int) -> list:
    """Catalog names in seed order, with every group already constructed, so
    group construction is part of set-up and not of the timed section."""
    names = biprox.catalog_names()
    random.Random(seed).shuffle(names)
    for name in names:
        biprox.catalog_group(name)
    return names


def corpus_inputs(biprox, seed: int) -> list:
    pairs = load_reference("classify-corpus")["pairs"]
    random.Random(seed).shuffle(pairs)
    inputs = []
    for name, spec in pairs:
        group = biprox.catalog_group(name)
        inputs.append((f"{name}/{spec}", group, biprox.parse_subgroup_spec(group, spec)))
    return inputs


# -- timed sections ------------------------------------------------------------
# Each takes the inputs, a mark(item) callback for the tracer and a clock()
# giving (raw, reference) seconds.  Each returns {"outputs": {item id:
# output}, "latencies": [(raw, reference) seconds per item], ...}.  An item
# that raises gets {"raised": <exception name>} as its output and an infinite
# latency: a failed item misses any latency limit.

FAILED = (math.inf, math.inf)


def elapsed(clock, start: tuple) -> tuple:
    end = clock()
    return end[0] - start[0], end[1] - start[1]


def run_survey(biprox, cli, names, mark, clock) -> dict:
    mark("survey")
    rows, summary = cli.survey(names=names, **SURVEY_ARGS)
    return {
        "csv": cli.survey_csv(rows),
        "summary": canon(summary),
        "outputs": {str(i): canon(row) for i, row in enumerate(rows)},
        "latencies": [],
    }


def run_classify(biprox, cli, inputs, mark, clock) -> dict:
    outputs, latencies = {}, []
    for item, group, sub in inputs:
        mark(item)
        start = clock()
        try:
            report = biprox.classify(biprox.BoxContext(group, sub), lengths_which=())
            outputs[item] = canon(report.to_json_dict())
            latencies.append(elapsed(clock, start))
        except Exception as exc:  # a failing item is counted, not fatal
            outputs[item] = {"raised": type(exc).__name__}
            latencies.append(FAILED)
    return {"outputs": outputs, "latencies": latencies}


def run_census(biprox, cli, names, mark, clock) -> dict:
    mark("enumerate")
    pairs = cli.enumerate_pairs(names=names)
    outputs, latencies, specs = {}, [], {}
    for name, inc in pairs:
        start = clock()
        spec = inc.sub.generator_string()
        item = specs[id(inc)] = f"{name}/{spec}"
        mark(item)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(
                    ["lattice", "--group", name, "--subgroup", spec, "--format", "json"]
                )
            outputs[item] = (
                hashlib.sha256(buf.getvalue().encode()).hexdigest()
                if code == 0
                else {"raised": f"exit code {code}"}
            )
        except Exception as exc:  # a failing item is counted, not fatal
            outputs[item] = {"raised": type(exc).__name__}
        failed = isinstance(outputs[item], dict)
        latencies.append(FAILED if failed else elapsed(clock, start))
    mark("classes")
    classes = cli.equivalence_classes(pairs)
    partition = [[specs[id(inc)] for _name, inc in cls] for cls in classes]
    return {"outputs": outputs, "latencies": latencies, "partition": partition}


WORKLOADS = {
    "survey": (permuted_catalog, run_survey),
    "classify-corpus": (corpus_inputs, run_classify),
    "lattice-census": (permuted_catalog, run_census),
}


# -- checks against the references ---------------------------------------------


def check(result: dict | None, ref: dict) -> dict:
    """Compare a timed section's outputs with the reference outputs.

    ok: items that completed and matched.  failed: items that raised,
    differ, are missing or were not expected.  The known seed failures have
    no reference output: while they still raise they are listed apart and
    counted in neither, and once they complete their reports are checked
    against the facts stored with them.
    """
    expected = ref["outputs"]
    known = ref.get("known_failures", {})
    outputs = {} if result is None else result["outputs"]
    items = sorted(set(expected) | set(known) | set(outputs))
    ok, failed, known_seen, mismatched = 0, 0, {}, []
    member_of = {}
    if result is not None and "partition" in result:
        member_of = {m: canon(sorted(c)) for c in result["partition"] for m in c}
        ref_member_of = {m: canon(sorted(c)) for c in ref["partition"] for m in c}
    for item in items:
        out = outputs.get(item)
        if item in known:
            if isinstance(out, dict):
                known_seen[item] = out["raised"]
                continue
            # Completed since the seed: check the facts known without a reference.
            report = json.loads(out) if out is not None else {}
            facts = known[item]["facts"]
            if all(report.get(k) == v for k, v in facts.items()):
                known_seen[item] = "completed"
                ok += 1
                continue
        good = out is not None and out == expected.get(item)
        if good and member_of:
            good = member_of.get(item) == ref_member_of.get(item)
        if good:
            ok += 1
        else:
            failed += 1
            mismatched.append(item)
    whole = result is not None
    if whole and "csv" in ref:
        whole = result["csv"] == ref["csv"] and result["summary"] == ref["summary"]
    return {
        "attempted": len(items),
        "ok": ok,
        "failed": failed,
        "known_failures": known_seen,
        "mismatched": mismatched[:10],
        "correct": whole and failed == 0,
    }


def latency_summary(latencies: list) -> dict:
    """Median and the highest percentile with at least ten samples above it,
    in raw and in reference milliseconds."""
    n = len(latencies)
    if n == 0:
        return {}
    out = {"n": n, "tail_pct": int(100 * (n - 10) / n) if n > 10 else None}
    for column, suffix in ((0, ""), (1, "_ref")):
        samples = sorted(lat[column] for lat in latencies)
        out[f"p50{suffix}_ms"] = 1000 * statistics.median(samples)
        if n > 10:
            out[f"tail{suffix}_ms"] = 1000 * samples[n - 11]
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    biprox, cli = import_biprox()
    # The probe runs from here to the end, so set-up spans and timed spans
    # share one reference clock; set-up time leaves out its ticks.
    probe = SpeedProbe()
    probe.start()
    tracer = None
    mark = lambda item: None  # noqa: E731
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=probe.ref)
        tracer.install()
        mark = tracer.mark
    build, run = WORKLOADS[args.workload]
    mark("setup")
    inputs = build(biprox, args.seed)
    setup_s = time.monotonic() - args.spawned - probe.paused()
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        probe.stop()
        print(json.dumps(record))
        return 0

    start = probe.read()
    try:
        result = run(biprox, cli, inputs, mark, probe.read)
        error = None
    except Exception as exc:  # the whole workload failed: every item fails
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall_s, wall_ref_s = elapsed(probe.read, start)
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = check(result, load_reference(args.workload))
    latencies = [] if result is None else result["latencies"]
    record.update(
        wall_s=wall_s,
        wall_ref_s=wall_ref_s,
        speed=REF_TICK_S / statistics.median(probe.ticks),
        peak_rss_mb=peak_rss_mb,
        error=error,
        latency=latency_summary(latencies),
        **verdict,
        **environment(),
    )
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
        record["trace"] = {
            "absent": tracer.absent,
            "stats": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "distinct": len(s.keys) if s.keys_ok else None,
                    "raised": s.raised,
                }
                for name, s in tracer.stats.items()
            },
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
