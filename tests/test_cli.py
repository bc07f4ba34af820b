"""Command-line interface: exit codes, JSON shapes, determinism, and the
spec'd example invocations."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from biprox.boxalgebra import BoxContext
from biprox.catalog import catalog_group
from biprox.cli import (
    corpus_pairs,
    enumerate_pairs,
    equivalence_classes,
    main,
    subgroup_class_representatives,
    survey,
    survey_csv,
)
from biprox.interval import (
    Inclusion,
    core_pair,
    coset_action,
    inclusions_equivalent,
    pair_invariants,
)

KAC_FILE = Path(__file__).resolve().parents[1] / "src" / "biprox" / "data" / "kac210.txt"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze -------------------------------------------------------------------


def test_analyze_s3_trivial(capsys) -> None:
    code, out, _ = run(capsys, "analyze", "--group", "S3", "--subgroup", "trivial")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "biprox/1"
    assert doc["report"]["w_cyclic"] is True
    assert doc["report"]["cyclic"] is False
    assert doc["interval"]["size"] == 6


def test_analyze_z6_cyclic(capsys) -> None:
    code, out, _ = run(capsys, "analyze", "--group", "Z6", "--subgroup", "trivial")
    assert code == 0
    assert json.loads(out)["report"]["cyclic"] is True


def test_analyze_s4_transposition_not_distributive(capsys) -> None:
    code, out, _ = run(capsys, "analyze", "--group", "S4", "--subgroup", "(1,2)")
    assert code == 0
    assert json.loads(out)["report"]["distributive"] is False


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "group, subgroup, name",
    [
        # S5/<(1,2)> and S4/<(1,4)(2,3)> fail (ZZ): the witness takes the SVD path.
        ("S5", "(1,2)", "S5_12"),
        ("S4", "(1,4)(2,3)", "S4_14_23"),
        ("A5", "trivial", "A5_1"),
        ("Q8", "trivial", "Q8_1"),
        ("S4", "trivial", "S4_1"),
        ("S4", "full", "S4_full"),
        # A6/{1}: the one pin where cl (3) exceeds dl (2), so the Dedekind half
        # of each cl step decides the length.
        ("perm:(1,2,3);(2,3,4,5,6)", "trivial", "A6_1"),
        # A6/<(1,2)(3,4)>: a 38-node [H, G] read off A6's 501-node lattice by its endpoints.
        ("perm:(1,2,3);(2,3,4,5,6)", "(1,2)(3,4)", "A6_12_34"),
    ],
)
def test_analyze_output_is_pinned(capsys, group, subgroup, name) -> None:
    code, out, _ = run(capsys, "analyze", "--group", group, "--subgroup", subgroup)
    assert code == 0
    assert out == (DATA / f"analyze_{name}.json").read_text()


def test_analyze_unknown_group_exits_1(capsys) -> None:
    code, _, err = run(capsys, "analyze", "--group", "NOPE")
    assert code == 1
    assert "unknown group spec" in err


def test_analyze_zero_padded_catalog_name_exits_1(capsys) -> None:
    code, out, err = run(capsys, "analyze", "--group", "Z007")
    assert code == 1 and out == ""
    assert "unknown group spec 'Z007'" in err


def test_analyze_order_cap_exits_2(capsys) -> None:
    code, _, err = run(
        capsys, "analyze", "--group", "perm:(1,2,3,4,5,6)", "--max-order", "4"
    )
    assert code == 2
    assert "cap" in err.lower()


@pytest.mark.parametrize("command", ["analyze", "lattice"])
def test_catalog_group_past_max_order_exits_2(capsys, command) -> None:
    # S5 by catalog name exits as the same group given as a perm: spec does.
    for group in ("S5", "perm:(1,2);(1,2,3,4,5)"):
        code, out, err = run(capsys, command, "--group", group, "--max-order", "4")
        assert code == 2 and out == "", group
        assert "cap exceeded" in err, group


def test_bad_subcommand_exits_1(capsys) -> None:
    assert run(capsys, "frobnicate")[0] == 1


def test_help_exits_0(capsys) -> None:
    assert run(capsys, "--help")[0] == 0


# -- table ---------------------------------------------------------------------


def test_dual_table_of_trivial_subgroup_is_multiplication_table(capsys) -> None:
    code, out, _ = run(
        capsys,
        "table", "--group", "Z4", "--subgroup", "trivial",
        "--side", "dual", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    g = catalog_group("Z4")
    # displayed entry of e_i * e_j is exactly e_{ij} (group multiplication)
    for i in range(4):
        for j in range(4):
            k = int(g.cayley[i, j])
            for m in range(4):
                re, im = doc["entries"][i][j][m]
                assert abs(re - (1.0 if m == k else 0.0)) < 1e-9
                assert abs(im) < 1e-9


def test_check_paper_primal_s3(capsys) -> None:
    code, out, _ = run(
        capsys, "table", "--group", "S3", "--subgroup", "trivial", "--check-paper"
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["s3-coproduct-table"]
    assert all(c["passed"] for c in doc["checks"])


def test_check_paper_dual_s4(capsys) -> None:
    code, out, _ = run(
        capsys,
        "table", "--group", "S4", "--subgroup", "(1,2)",
        "--side", "dual", "--check-paper",
    )
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["s2-s4-dual-table", "s2-s4-central-pair"]
    assert all(c["passed"] for c in doc["checks"])


def test_check_paper_rejects_other_instances(capsys) -> None:
    code, _, err = run(
        capsys, "table", "--group", "Z6", "--subgroup", "trivial", "--check-paper"
    )
    assert code == 1
    assert "check-paper" in err


def test_table_text_has_legend(capsys) -> None:
    code, out, _ = run(capsys, "table", "--group", "S3", "--subgroup", "trivial")
    assert code == 0
    assert "e1 = class of ()" in out


# -- lattice ---------------------------------------------------------------------


def test_lattice_s4_transposition_six_nodes(capsys) -> None:
    code, out, _ = run(capsys, "lattice", "--group", "S4", "--subgroup", "(1,2)")
    assert code == 0
    assert "digraph" in out
    assert out.count("label=") == 6


def test_lattice_z6_json(capsys) -> None:
    code, out, _ = run(capsys, "lattice", "--group", "Z6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4
    assert doc["distributive"] is True
    assert doc["boolean_rank"] == 2
    assert len(doc["cover_edges"]) == 4


@pytest.mark.parametrize(
    "group, subgroup, name",
    [("S4", "(1,2)", "S4_12"), ("S4", "trivial", "S4_1"), ("E8", "trivial", "E8_1")],
)
def test_lattice_dot_output_is_pinned(capsys, group, subgroup, name) -> None:
    # The preamble, labels and cover edges of the DOT export, byte for byte.
    code, out, _ = run(capsys, "lattice", "--group", group, "--subgroup", subgroup)
    assert code == 0
    assert out == (DATA / f"lattice_{name}.dot").read_text()


def test_repeated_calls_share_one_parser(capsys) -> None:
    # One process, one parser: a call leaves nothing behind for the next.
    argv = ("lattice", "--group", "S4", "--subgroup", "(1,2)")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert "digraph" in first[1]  # lattice's own --format dot
    assert run(capsys, "lattice", "--bogus")[0] == 1
    code, out, _ = run(capsys, "analyze", "--group", "S3")
    assert code == 0
    assert json.loads(out)["schema"] == "biprox/1"  # analyze's own --format json


# -- fusion-check ------------------------------------------------------------------


def test_fusion_check_kac210(capsys) -> None:
    code, out, _ = run(capsys, "fusion-check", str(KAC_FILE))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["simple"] is True
    assert [round(d) for d in doc["dims"]] == [1, 5, 5, 5, 6, 7, 7]


def test_fusion_check_missing_file_exits_1(capsys) -> None:
    assert run(capsys, "fusion-check", "/nonexistent/ring.txt")[0] == 1


def test_fusion_check_malformed_exits_1(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0 1")  # 4 integers: not a cube
    assert run(capsys, "fusion-check", str(bad))[0] == 1


def test_fusion_check_reports_axiom_violation(tmp_path, capsys) -> None:
    # the cyclic-of-order-3 group ring with one multiplicity removed
    rows = []
    for i in range(3):
        for j in range(3):
            rows.append(" ".join("1" if k == (i + j) % 3 else "0" for k in range(3)))
    lines = rows
    lines[5] = "0 0 0"  # N[1][2][*]: kills the dual of element 1
    bad = tmp_path / "broken.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fusion-check", str(bad))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is False
    assert "violation" in doc


# -- survey -------------------------------------------------------------------------


def test_survey_counts_and_rows(capsys) -> None:
    code, out, _ = run(
        capsys,
        "survey", "--max-index", "4", "--max-order", "16", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    counts = doc["counts"]
    assert counts["cyclic"] <= counts["w_cyclic"] <= counts["total"]
    assert counts["total"] == len(doc["rows"])
    for row in doc["rows"]:
        report = row["report"]
        assert row["status"] == "ok" and report is not None
        if report["cyclic"]:
            assert report["w_cyclic"] and report["dedekind"] and report["distributive"]
        # a maximal inclusion (no proper intermediate subgroup) is cyclic
        if row["interval_size"] == 2:
            assert report["cyclic"]
        if row["group"].startswith("Z") and row["subgroup_order"] == 1:
            assert report["cyclic"]


def test_survey_csv_matches_json(capsys) -> None:
    code, out_csv, _ = run(
        capsys, "survey", "--max-index", "4", "--max-order", "12", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    api_rows, summary = survey(max_index=4, max_order=12)
    assert len(rows) == summary["counts"]["total"] == len(api_rows)
    for got, expect in zip(rows, api_rows):
        assert int(got["class_id"]) == expect["class_id"]
        assert got["group"] == expect["group"]
        assert got["cyclic"] == str(bool(expect["report"]["cyclic"])).lower()
        assert got["sum_bound"] == expect["report"]["sum_bound"]


def test_survey_deterministic_rerun(capsys) -> None:
    first = run(capsys, "survey", "--max-index", "4", "--max-order", "12", "--format", "json")
    second = run(capsys, "survey", "--max-index", "4", "--max-order", "12", "--format", "json")
    assert first == second


def test_survey_rejects_index_above_limit(capsys) -> None:
    assert run(capsys, "survey", "--max-index", "31")[0] == 2


def test_survey_has_no_jobs_flag(capsys) -> None:
    assert run(capsys, "survey", "--jobs", "2")[0] == 1


def test_survey_classes_independent_of_input_order() -> None:
    pairs = enumerate_pairs(names=["Z4", "Z6", "S3", "D3", "Z12"], max_index=6)
    classes_a = equivalence_classes(pairs)
    classes_b = equivalence_classes(list(reversed(pairs)))
    key = lambda classes: [[(n, i.sub.order) for n, i in cls] for cls in classes]
    assert key(classes_a) == key(classes_b)
    # S3 and D3 give identical groups of order 6: their inclusions merge
    merged = [cls for cls in classes_a if {n for n, _ in cls} >= {"S3", "D3"}]
    assert merged, "expected S3 and D3 inclusions to share classes"


def _action_key(rows, home, *_) -> tuple:
    return rows.shape[1], home, rows.tobytes()


def _count_quotients(monkeypatch) -> list:
    """Record the action key of every quotient that ``action_quotient`` builds."""
    import biprox.interval

    built = []
    original = biprox.interval.action_quotient

    def counted(group, rows, home, *rest):
        built.append(_action_key(rows, home))
        return original(group, rows, home, *rest)

    monkeypatch.setattr(biprox.interval, "action_quotient", counted)
    return built


def _split_by_core(pairs) -> tuple[set, set]:
    """The distinct coset actions of ``pairs``: those that only a pair with a
    nontrivial core has (fewer rows than |G|), and those of a core-free pair.
    An action of both kinds is met first on the core-free pair, whose group
    is smaller and sorts first, so its class holds (G, H) and no quotient."""
    cored, core_free = set(), set()
    for _, inc in pairs:
        action = coset_action(inc)
        faithful = len(action[3]) == inc.group.order
        (core_free if faithful else cored).add(_action_key(*action))
    return cored - core_free, core_free


def test_equivalence_classes_build_each_core_quotient_once(monkeypatch) -> None:
    built = _count_quotients(monkeypatch)
    pairs = enumerate_pairs(names=["Z4", "Z6", "S3", "D3", "Z12", "E4"], max_index=6)
    cored, core_free = _split_by_core(pairs)
    classes = equivalence_classes(pairs)
    assert len(classes) < len(pairs)  # some pairs were compared and merged
    assert len(cored) + len(core_free) < len(pairs)  # S3 and D3 repeat each other's actions
    assert cored and core_free
    # One quotient per distinct action with a nontrivial core, none built
    # twice; a core-free pair stands for its own quotient.
    assert sorted(built) == sorted(cored)


def test_equivalence_classes_build_25_quotients_on_the_census(monkeypatch) -> None:
    built = _count_quotients(monkeypatch)
    pairs = enumerate_pairs()
    cored, core_free = _split_by_core(pairs)
    equivalence_classes(pairs)
    assert (len(cored), len(core_free)) == (25, 153)
    assert sorted(built) == sorted(cored)


def _closure_of_pairwise_equivalence(pairs) -> list:
    """Connected components of the pairwise inclusions_equivalent graph, as
    sets of pair positions.  Equal index is necessary for an edge, since an
    isomorphism of pairs maps the image of H onto the image of H."""
    parent = list(range(len(pairs)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            inc_a, inc_b = pairs[a][1], pairs[b][1]
            if inc_a.index == inc_b.index and inclusions_equivalent(inc_a, inc_b):
                parent[root(b)] = root(a)
    components: dict = {}
    for i in range(len(pairs)):
        components.setdefault(root(i), set()).add(i)
    return sorted(map(frozenset, components.values()), key=min)


def test_equivalence_classes_are_the_closure_of_pairwise_equivalence(monkeypatch) -> None:
    import functools

    import biprox.interval

    pairs = enumerate_pairs(max_order=24)
    actions = {_action_key(*coset_action(inc)) for _, inc in pairs}
    assert len(actions) < len(pairs)  # the slice repeats coset actions
    position = {id(inc): i for i, (_, inc) in enumerate(pairs)}
    classes = equivalence_classes(pairs)
    got = sorted((frozenset(position[id(inc)] for _, inc in cls) for cls in classes), key=min)
    # The oracle compares every pair once; memoized quotients keep it fast.
    monkeypatch.setattr(biprox.interval, "core_pair", functools.cache(core_pair))
    monkeypatch.setattr(biprox.interval, "pair_invariants", functools.cache(pair_invariants))
    assert got == _closure_of_pairwise_equivalence(pairs)


def test_equivalence_classes_keep_capped_pairs_apart(monkeypatch) -> None:
    import biprox.interval

    s3, d3 = catalog_group("S3"), catalog_group("D3")
    pairs = [("S3", Inclusion(s3, s3.trivial_subgroup())), ("D3", Inclusion(d3, d3.trivial_subgroup()))]
    a, b = (coset_action(inc) for _, inc in pairs)
    assert a[1] == b[1] and np.array_equal(a[0], b[0])  # one action of order 6
    assert [len(cls) for cls in equivalence_classes(pairs)] == [2]
    monkeypatch.setattr(biprox.interval, "QUOTIENT_CAP", 5)
    assert [[name for name, _ in cls] for cls in equivalence_classes(pairs)] == [["D3"], ["S3"]]


def test_survey_classifies_the_held_inclusions(monkeypatch) -> None:
    # Rows come from the class representatives themselves, not from their
    # generator strings parsed back into subgroups.
    import biprox.cli

    def refuse(*args):
        raise AssertionError("the survey parsed a subgroup spec")

    monkeypatch.setattr(biprox.cli, "parse_subgroup_spec", refuse)
    rows, _ = survey(max_index=12)
    assert survey_csv(rows) == (DATA / "survey_max_index_12.csv").read_text()


def test_survey_builds_one_context_per_enumerated_pair(monkeypatch) -> None:
    # Enumeration builds each pair's context, and equivalence classing and
    # the row classify that same object: no context is built twice.
    built = []
    init = BoxContext.__init__

    def counting(self, group, sub):
        built.append((group.label(), sub.key()))
        init(self, group, sub)

    pairs = enumerate_pairs(max_index=12, max_order=60)
    expected = [(ctx.group.label(), ctx.sub.key()) for _, ctx in pairs]
    monkeypatch.setattr(BoxContext, "__init__", counting)
    survey(max_index=12, max_order=60)
    assert len(expected) == 428
    assert sorted(built) == sorted(expected)


def test_subgroup_class_representatives_s4() -> None:
    reps = subgroup_class_representatives(catalog_group("S4"))
    # 11 conjugacy classes of subgroups of the symmetric group of degree 4
    # (classical count: 1, Z2 x2, Z3, Z4, V4 x2, S3, D4, A4, S4)
    assert len(reps) == 11
    orders = sorted(r.order for r in reps)
    assert orders == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]


def test_corpus_contains_the_named_instances() -> None:
    pairs = corpus_pairs()
    names = {(n, inc.sub.order) for n, inc in pairs}
    assert ("S3", 1) in names
    assert ("Q8", 1) in names
    assert ("S5", 24) in names  # the degree-5 family reaches past order 48
    assert all(inc.sub.order < inc.group.order for _, inc in pairs)
