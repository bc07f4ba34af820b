"""Command-line front end: analysis reports, coproduct table emission,
lattice export, the catalog survey, and fusion-ring checking.

Commands and exit codes:

* ``analyze``      full classification report as JSON.
* ``table``        coproduct table of either side; ``--check-paper``
                   validates the two embedded reference instances.
* ``survey``       enumerate catalog inclusions up to equivalence,
                   classify each class, emit CSV rows and summary counts.
* ``lattice``      intermediate-subgroup lattice as DOT with predicates.
* ``fusion-check`` verify a fusion tensor file and report dimensions.

Exit codes: 0 ok, 1 parse error, 2 cap exceeded, 3 numeric ambiguity.
All output is deterministic for fixed flags; survey rows are
reduced by inclusion equivalence with canonically chosen representatives,
so a permuted catalog order yields byte-identical output.

A full census at index < 30 is out of desk-scale reach and deliberately
not attempted: the survey defaults to index <= 12 and hard-caps
``--max-index`` at 30.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .boxalgebra import BoxContext, BoxElement, coproduct_table
from .catalog import catalog_group, catalog_names, parse_group_spec, parse_subgroup_spec
from .errors import (
    AxiomViolation,
    BiprojectionCheckFailed,
    GroupSpecError,
    NotPositive,
    NumericRankAmbiguous,
    OrderCapExceeded,
    QuotientOrderCapExceeded,
    SubgroupCapExceeded,
    TheoremViolation,
)
from .fusionring import fusion_report, load_fusion_file
from .interval import coset_action, core_pair, inclusions_equivalent
from .interval import isomorphism_carrying, pair_invariants
from .lattice import FiniteLattice, boolean_rank, is_distributive, is_modular, to_dot
from .permgroup import DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, all_subgroups, generator_strings
from .properties import classify
from .reference_tables import dual_coset_basis, run_reference_checks, s2_s4_context, s3_context

SCHEMA = "biprox/1"
SURVEY_INDEX_LIMIT = 30

_CSV_REPORT_FIELDS = (
    "distributive",
    "dedekind",
    "cyclic",
    "w_cyclic",
    "w_plus_cyclic",
    "Z",
    "ZZ",
    "F2",
    "w_cyclic_dual",
)
# The survey row's own columns, ahead of the report fields in its CSV.
_SURVEY_ROW_FIELDS = (
    "class_id",
    "group",
    "subgroup",
    "group_order",
    "subgroup_order",
    "index",
    "interval_size",
    "class_size",
    "status",
)
# The report fields that the survey counts, between its total and its errors.
_SURVEY_COUNTED_FIELDS = ("distributive", "dedekind", "cyclic", "w_cyclic", "w_cyclic_dual")

_CAP_ERRORS = (OrderCapExceeded, SubgroupCapExceeded, QuotientOrderCapExceeded)
_NUMERIC_ERRORS = (NumericRankAmbiguous, BiprojectionCheckFailed, NotPositive)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _context_from_args(args) -> BoxContext:
    group = parse_group_spec(args.group, max_order=args.max_order)
    return BoxContext(group, parse_subgroup_spec(group, args.subgroup))


# -- analyze -------------------------------------------------------------


def _interval_figures(lat: FiniteLattice, i: int) -> dict:
    """The figures of [H, G], the up-set of node i of ``lat`` (BoxContext.node)."""
    return {
        "size": int(np.count_nonzero(lat.leq[i])),
        "height": lat.height(i),
        "distributive": is_distributive(lat, i),
        "modular": is_modular(lat, i),
        "boolean_rank": boolean_rank(lat, i),
    }


def cmd_analyze(args) -> int:
    ctx = _context_from_args(args)
    figures = _interval_figures(*ctx.node)
    report = classify(ctx)
    out = {
        "schema": SCHEMA,
        "command": "analyze",
        "group": ctx.group.label(),
        "subgroup": ctx.sub.generator_string(),
        "group_order": ctx.group.order,
        "subgroup_order": ctx.sub.order,
        "index": ctx.index,
        "interval": figures,
        "report": report.to_json_dict(),
    }
    if args.format == "text":
        r = out["report"]
        lines = [
            f"{out['group']} over subgroup of order {ctx.sub.order}"
            f" (index {out['index']}, interval size {figures['size']})",
            "  "
            + "  ".join(f"{k}={r[k]}" for k in _CSV_REPORT_FIELDS),
            f"  sum of reciprocal indices: {r['sum_bound']}",
            f"  lengths: {r['lengths']}",
            f"  witnesses: {r['witnesses']}",
        ]
        _emit("\n".join(lines))
    else:
        _emit_json(out)
    return 0


# -- table ---------------------------------------------------------------


def _primal_coset_basis(ctx: BoxContext) -> List[BoxElement]:
    """Double-coset indicator basis (the canonical spanning set)."""
    return [BoxElement(ctx, row) for row in ctx.basis_matrix]


def _coset_legend(ctx: BoxContext, labels: Sequence[str]) -> Dict[str, str]:
    reps = ctx.coset_reps
    return {labels[i]: ctx.group.cycle_string(int(reps[i])) for i in range(ctx.dim)}


def _check_paper(args, ctx: BoxContext) -> int:
    if args.side == "primal" and inclusions_equivalent(ctx, s3_context()):
        wanted = ("s3-coproduct-table",)
    elif args.side == "dual" and inclusions_equivalent(ctx, s2_s4_context()):
        wanted = ("s2-s4-dual-table", "s2-s4-central-pair")
    else:
        raise GroupSpecError(
            "--check-paper applies to the primal table of S3 over the trivial "
            "subgroup and the dual table of S4 over a transposition"
        )
    rows = [r for r in run_reference_checks() if r[0] in wanted]
    out = {
        "schema": SCHEMA,
        "command": "table",
        "check_paper": True,
        "side": args.side,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in rows],
    }
    _emit_json(out)
    return 0 if all(ok for _, ok, _ in rows) else 3


def cmd_table(args) -> int:
    ctx = _context_from_args(args)
    if args.check_paper:
        return _check_paper(args, ctx)
    labels = tuple(f"e{i + 1}" for i in range(ctx.dim))
    if args.side == "dual":
        basis = dual_coset_basis(ctx)
    else:
        basis = _primal_coset_basis(ctx)
    table = coproduct_table(ctx, basis, labels)
    legend = _coset_legend(ctx, labels)
    if args.format == "json":
        entries = [
            [[[float(z.real), float(z.imag)] for z in cell] for cell in row]
            for row in table.entries
        ]
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "table",
                "group": ctx.group.label(),
                "subgroup": ctx.sub.generator_string(),
                "side": args.side,
                "scale": table.scale,
                "labels": list(table.labels),
                "legend": legend,
                "entries": entries,
            }
        )
    else:
        head = (
            f"# {args.side} coproduct table of {ctx.group.label()} over subgroup "
            f"of order {ctx.sub.order}; entries scaled by delta = {table.scale:.6g}"
        )
        legend_lines = [f"#   {k} = class of {v}" for k, v in legend.items()]
        _emit("\n".join([head, *legend_lines, table.as_text()]))
    return 0


# -- lattice ---------------------------------------------------------------


def cmd_lattice(args) -> int:
    ctx = _context_from_args(args)
    lat, i = ctx.node  # [H, G] is the up-set of node i: no interval lattice is built
    members = np.flatnonzero(lat.leq[i])
    labels = [lat.labels[k] for k in members]
    edges = np.argwhere(lat.covers()[np.ix_(members, members)])  # row-major order
    figures = _interval_figures(lat, i)
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "lattice",
                "group": ctx.group.label(),
                "subgroup": ctx.sub.generator_string(),
                **figures,
                "labels": labels,
                "cover_edges": edges.tolist(),
            }
        )
    else:
        preamble = "// " + "  ".join(f"{k}: {v}" for k, v in figures.items())
        title = f"[{ctx.sub.generator_string()}, {ctx.group.label()}]"
        _emit(preamble + "\n" + to_dot(labels, edges, title))
    return 0


# -- fusion-check -----------------------------------------------------------


def cmd_fusion_check(args) -> int:
    try:
        ring = load_fusion_file(args.file)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    base = {"schema": SCHEMA, "command": "fusion-check", "file": str(args.file)}
    try:
        report = fusion_report(ring)
    except AxiomViolation as exc:
        _emit_json({**base, "ok": False, "violation": str(exc)})
        return 0
    _emit_json({**base, "ok": True, **report})
    return 0


# -- survey -------------------------------------------------------------------


def subgroup_class_representatives(group: FiniteGroup) -> List[Subgroup]:
    """One subgroup per conjugacy class: the member with minimal mask key.
    Conjugates have equal order, so in the (order, key) order of
    ``all_subgroups`` that member is the first listed of its class, which
    the enumeration records as the class of every member; nothing is
    conjugated here."""
    subs = all_subgroups(group)
    return [sub for i, sub in enumerate(subs) if group._subgroup_classes[i] == i]


def enumerate_pairs(
    names: Optional[Sequence[str]] = None,
    max_index: Optional[int] = None,
    max_order: Optional[int] = None,
) -> List[Tuple[str, BoxContext]]:
    """Catalog inclusions (one subgroup per conjugacy class, H < G), each
    with its catalog name and as its context: the one object that
    equivalence classing and the survey row read."""
    out: List[Tuple[str, BoxContext]] = []
    for name in names if names is not None else catalog_names():
        group = catalog_group(name)
        if max_order is not None and group.order > max_order:
            continue
        for sub in subgroup_class_representatives(group):
            if sub.order == group.order:
                continue
            if max_index is not None and group.order // sub.order > max_index:
                continue
            out.append((name, BoxContext(group, sub)))
    return out


def corpus_pairs() -> List[Tuple[str, BoxContext]]:
    """The verification corpus: every catalog inclusion with |G| <= 48 plus
    all inclusions of the degree-4 and degree-5 symmetric groups."""
    return enumerate_pairs(max_order=48) + enumerate_pairs(names=["S5"])


def _pair_sort_key(item: Tuple[str, BoxContext]) -> tuple:
    name, inc = item
    return (inc.group.order, name, inc.sub.order, inc.sub.generator_string())


def equivalence_classes(
    pairs: Sequence[Tuple[str, BoxContext]]
) -> List[List[Tuple[str, BoxContext]]]:
    """Partition by inclusion equivalence; classes and members are sorted
    canonically so the result is independent of input order.  Pairs are
    keyed by their coset action (``coset_action``): a pair whose action was
    already seen joins that action's class, since equal actions give equal
    core quotients.  Each distinct action is taken once as its ``core_pair``,
    (G, H) itself if core_G(H) = 1, and compared, within its invariant
    bucket, with the pair held for each class's first member; a pair past
    the quotient cap is a class of its own."""
    subs_by_group: Dict[int, List[Subgroup]] = {}
    for _, inc in pairs:
        subs_by_group.setdefault(id(inc.group), []).append(inc.sub)
    for subs in subs_by_group.values():
        generator_strings(subs)  # label each group's subgroups in one batch for the sort
    # Pairs go in sorted order, so classes are created sorted by first member.
    classes: List[List[Tuple[str, BoxContext]]] = []
    by_action: Dict[tuple, list] = {}  # (degree, home, row bytes) -> class members
    buckets: Dict[tuple, list] = {}  # pair invariants -> [(pair, members)]
    for item in sorted(pairs, key=_pair_sort_key):
        try:
            rows, home, image, first = coset_action(item[1])
        except _CAP_ERRORS:
            classes.append([item])
            continue
        action = (rows.shape[1], home, rows.tobytes())
        if action not in by_action:
            pair = core_pair(item[1], (rows, home, image, first))
            held = buckets.setdefault(pair_invariants(*pair), [])
            for rep, members in held:
                if isomorphism_carrying(*pair, *rep):
                    break
            else:
                members = []
                held.append((pair, members))
                classes.append(members)
            by_action[action] = members
        by_action[action].append(item)
    return classes


def _survey_row(name: str, ctx: BoxContext) -> dict:
    """Classify one class representative, given by its catalog name and the
    context that enumerate_pairs built for it; the subgroup is written as
    its generator string."""
    lat, i = ctx.node
    row = {
        "group": name,
        "subgroup": ctx.sub.generator_string(),
        "group_order": ctx.group.order,
        "subgroup_order": ctx.sub.order,
        "index": ctx.index,
        "interval_size": int(np.count_nonzero(lat.leq[i])),
    }
    try:
        report = classify(ctx)
    except _CAP_ERRORS as exc:
        return {**row, "status": "cap", "error": str(exc), "report": None}
    except _NUMERIC_ERRORS as exc:
        return {**row, "status": "numeric", "error": str(exc), "report": None}
    return {**row, "status": "ok", "error": "", "report": report.to_json_dict()}


def survey(
    max_index: int = 12,
    names: Optional[Sequence[str]] = None,
    max_order: Optional[int] = None,
) -> Tuple[List[dict], dict]:
    """Classify one representative per equivalence class, the inclusion the
    class already holds, in this process; returns (rows, summary).
    Deterministic: canonical class order and canonical representatives."""
    if max_index > SURVEY_INDEX_LIMIT:
        raise OrderCapExceeded(
            f"max index {max_index} exceeds the survey limit {SURVEY_INDEX_LIMIT}"
        )
    classes = equivalence_classes(
        enumerate_pairs(names=names, max_index=max_index, max_order=max_order)
    )
    rows = []
    counts = {"total": len(classes), **dict.fromkeys(_SURVEY_COUNTED_FIELDS, 0), "errors": 0}
    for class_id, cls in enumerate(classes):
        row = {"class_id": class_id, "class_size": len(cls), **_survey_row(*cls[0])}
        rows.append(row)
        report = row["report"]
        if report is None:
            counts["errors"] += 1
            continue
        if report["cyclic"] and not (
            report["w_cyclic"] and report["dedekind"] and report["distributive"]
        ):
            raise TheoremViolation(
                f"cyclic class {row['group']}/{row['subgroup']} breaks containment"
            )
        for key in _SURVEY_COUNTED_FIELDS:
            counts[key] += bool(report[key])
    summary = {
        "schema": SCHEMA,
        "command": "survey",
        "max_index": max_index,
        "max_order": max_order,
        "seed": 0,  # schema field; no report depends on a seed
        "counts": counts,
    }
    return rows, summary


def survey_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*_SURVEY_ROW_FIELDS, *_CSV_REPORT_FIELDS, "sum_bound"])
    for row in rows:
        report = row["report"]
        cells = [row[k] for k in _SURVEY_ROW_FIELDS]
        if report is None:
            cells += [""] * (len(_CSV_REPORT_FIELDS) + 1)
        else:
            cells += [str(bool(report[k])).lower() for k in _CSV_REPORT_FIELDS]
            cells.append(report["sum_bound"])
        writer.writerow(cells)
    return buf.getvalue()


def cmd_survey(args) -> int:
    rows, summary = survey(
        max_index=args.max_index,
        max_order=args.max_order_filter,
    )
    if args.format == "csv":
        sys.stdout.write(survey_csv(rows))
    elif args.format == "json":
        _emit_json({**summary, "rows": rows})
    else:
        counts = summary["counts"]
        _emit(
            f"survey: index <= {args.max_index}, {counts['total']} equivalence classes\n  "
            + "  ".join(f"{k}={counts[k]}" for k in (*_SURVEY_COUNTED_FIELDS, "errors"))
        )
    return 0


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with parse failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biprox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_context_flags(p) -> None:
        p.add_argument("--group", required=True, help="catalog name, perm:..., or file:...")
        p.add_argument(
            "--subgroup",
            default="trivial",
            help="'trivial', 'full', or cycle-notation generators",
        )
        p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP, dest="max_order")

    p = sub.add_parser("analyze", help="full classification report")
    add_context_flags(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table", help="coproduct table of either side")
    add_context_flags(p)
    p.add_argument("--side", choices=("primal", "dual"), default="primal")
    p.add_argument("--check-paper", action="store_true", dest="check_paper")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("survey", help="classify catalog inclusions up to equivalence")
    p.add_argument("--max-index", type=int, default=12, dest="max_index")
    p.add_argument(
        "--max-order",
        type=int,
        default=None,
        dest="max_order_filter",
        help="restrict the catalog to groups of at most this order",
    )
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("lattice", help="intermediate subgroup lattice as DOT")
    add_context_flags(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("fusion-check", help="verify a fusion tensor file")
    p.add_argument("file")
    p.set_defaults(func=cmd_fusion_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GroupSpecError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _CAP_ERRORS as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 2
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric ambiguity: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
