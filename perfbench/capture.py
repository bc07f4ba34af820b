"""Capture the reference outputs that the benchmark checks every run against.

    python3 perfbench/capture.py

Run it only at a commit whose answers are taken as correct; the committed
files were captured at the seed commit of the benchmark.  It writes one
file per workload under perfbench/reference/, from the same timed-section
code the benchmark runs, with the inputs in catalog order:

* survey.json: the CSV, the summary and each class row as sorted JSON;
* classify-corpus.json: the input pairs, each pair's report as sorted JSON,
  and the pairs whose classify raised ("known_failures"), with their
  exception type and the facts a completed report must show;
* lattice-census.json: the SHA-256 of each pair's ``lattice --format json``
  bytes and the equivalence-class partition.
"""

from __future__ import annotations

import json
import time

from worker import (
    REFERENCE,
    import_biprox,
    run_census,
    run_classify,
    run_survey,
)

CORPUS_MAX_ORDER = 24
# Regular inclusions G/{1} added to the corpus slice.  At the seed commit
# classify raises on Z34, D22, Dic9 and Dic11; S5/{1} sets the peak memory
# through the m^2*|G| center arrays.
REGULAR_EXTRAS = ("Z34", "D22", "Dic9", "Dic11", "A5", "S5")


def no_mark(item) -> None:
    pass


def clock() -> tuple:
    now = time.perf_counter()
    return now, now


def write(workload: str, data: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / f"{workload}.json", "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> None:
    biprox, cli = import_biprox()
    names = biprox.catalog_names()

    out = run_survey(biprox, cli, names, no_mark, clock)
    write("survey", {k: out[k] for k in ("csv", "summary", "outputs")})

    pairs = [
        (name, inc.sub.generator_string())
        for name, inc in cli.corpus_pairs()
        if inc.group.order <= CORPUS_MAX_ORDER
    ]
    for name in REGULAR_EXTRAS:
        pairs.append((name, biprox.catalog_group(name).trivial_subgroup().generator_string()))
    inputs = []
    for name, spec in pairs:
        group = biprox.catalog_group(name)
        inputs.append((f"{name}/{spec}", group, biprox.parse_subgroup_spec(group, spec)))
    out = run_classify(biprox, cli, inputs, no_mark, clock)
    outputs, known = {}, {}
    for item, group, sub in inputs:
        result = out["outputs"][item]
        if not isinstance(result, dict):
            outputs[item] = result
            continue
        # Facts any correct report must show: the orders and, for H = {1},
        # that the subgroup lattice is distributive exactly when G is
        # cyclic (Ore, 1938).
        facts = {"group_order": group.order, "sub_order": sub.order}
        if sub.order == 1:
            facts["distributive"] = int(group.element_orders().max()) == group.order
        known[item] = {"raised": result["raised"], "facts": facts}
    write(
        "classify-corpus",
        {"pairs": pairs, "outputs": outputs, "known_failures": known},
    )

    out = run_census(biprox, cli, names, no_mark, clock)
    write("lattice-census", {k: out[k] for k in ("outputs", "partition")})


if __name__ == "__main__":
    main()
