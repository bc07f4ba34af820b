"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``; under ``pytest -v`` every criterion also appears as its own
test row) and asserts the stated tolerances and time bounds.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from biprox.boxalgebra import BoxContext, biprojection_lattice, element_bK
from biprox.catalog import catalog_group, catalog_names, parse_subgroup_spec
from biprox.cli import corpus_pairs, survey, survey_csv
from biprox.errors import BiprojectionCheckFailed, NumericRankAmbiguous
from biprox.fusionring import find_subrings, fp_dimensions, is_simple, kac210_ring, verify_axioms
from biprox.interval import (
    Inclusion,
    dual_ore_conditions,
    inclusions_equivalent,
    is_H_cyclic,
    ore_verify,
)
from biprox.lattice import boolean_rank
from biprox.permgroup import is_normal_intermediate
from biprox.properties import (
    is_cyclic,
    is_dedekind,
    is_linearly_primitive_inclusion,
    is_w_cyclic,
    is_w_cyclic_dual,
    lengths,
    property_Z,
    property_ZZ,
    sum_bound,
    w_plus_cyclic,
)
from biprox.reference_tables import (
    S2_S4_DUAL_LABELS,
    S2_S4_DUAL_TABLE,
    S3_BASIS_LABELS,
    S3_TABLE,
    central_pair_elements,
    coproduct_table,
    dual_coset_basis,
    is_dual_coproduct_central,
    match_table_up_to_relabeling,
    s2_s4_context,
    s3_context,
    s3_coproduct_table,
)

from identity_battery import run_battery
from spectral_oracle import generate_biprojection_dual, is_normal_biprojection


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")


def _ctx(name: str, sub: str = "trivial") -> BoxContext:
    group = catalog_group(name)
    return BoxContext(group, parse_subgroup_spec(group, sub))


def _normal_routes_agree(ctx: BoxContext) -> bool:
    """Whether, for every intermediate K, the spectral normality check of b_K
    (run by is_normal_biprojection when H = {1}) agrees with HgK = KgH."""
    for k in biprojection_lattice(ctx).payload:
        try:
            numeric = is_normal_biprojection(element_bK(ctx, k))
        except BiprojectionCheckFailed:
            return False
        if numeric != is_normal_intermediate(ctx.sub, k, ctx.group):
            return False
    return True


def _dual_w_cyclic_by_closure(ctx: BoxContext) -> bool:
    """Whether some double-coset indicator generates the dual id, by closing
    its support under the dual coproduct (independent of Ore's test)."""
    return any(
        generate_biprojection_dual(ctx, c)[1].order == ctx.group.order
        for c in range(ctx.dim)
    )


def _w_cyclic_with_retries(ctx: BoxContext, attempts: int = 6) -> bool:
    for seed in range(attempts):
        try:
            return is_w_cyclic(ctx, seed=seed) is not None
        except NumericRankAmbiguous:
            continue
    raise NumericRankAmbiguous(f"ambiguous after {attempts} seeds: {ctx}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_s3_coproduct_table() -> None:
    ctx = s3_context()  # context build outside the timed table computation
    t0 = time.time()
    table = s3_coproduct_table(ctx)
    err = float(np.abs(table.entries - S3_TABLE).max())
    elapsed = time.time() - t0
    lab = {name: i for i, name in enumerate(S3_BASIS_LABELS)}
    row = table.entries[lab["e11"], lab["e11"]]
    want = np.zeros(6)
    want[lab["e22"]] = 2.0
    cited1 = float(np.abs(row - want).max())
    row = table.entries[lab["e21"], lab["e12"]]
    want = np.zeros(6)
    want[lab["e1"]], want[lab["e2"]] = 2.0, -2.0
    cited2 = float(np.abs(row - want).max())
    ok = err <= 1e-9 and cited1 <= 1e-9 and cited2 <= 1e-9 and elapsed < 1.0
    _line(1, "s3-coproduct-table", ok, f"max deviation {err:.3e}, {elapsed:.2f}s")
    assert err <= 1e-9 and cited1 <= 1e-9 and cited2 <= 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def dual_table_match():
    ctx = s2_s4_context()
    t0 = time.time()
    table = coproduct_table(ctx, dual_coset_basis(ctx), S2_S4_DUAL_LABELS)
    sigma = match_table_up_to_relabeling(table.entries, S2_S4_DUAL_TABLE, fixed=1, tol=1e-9)
    elapsed = time.time() - t0
    return ctx, table, sigma, elapsed


def test_criterion_02_s2_s4_dual_table(dual_table_match) -> None:
    ctx, table, sigma, elapsed = dual_table_match
    ok = sigma is not None and elapsed < 5.0
    if sigma is not None:
        perm = np.array(sigma)
        view = table.entries[np.ix_(perm, perm, perm)]
        # some non-unit basis element f has f * f = e1
        unit_row = np.zeros(7)
        unit_row[0] = 1.0
        fs = [
            f
            for f in range(1, 7)
            if np.abs(view[f, f] - unit_row).max() <= 1e-9
        ]
        # and the cited row e2 * e2 = 2 e1 + e2
        want = np.zeros(7)
        want[0], want[1] = 2.0, 1.0
        cited = float(np.abs(view[1, 1] - want).max())
        ok = ok and bool(fs) and cited <= 1e-9
    _line(2, "s2-s4-dual-table", ok, f"relabeling {sigma}, {elapsed:.2f}s")
    assert sigma is not None
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_central_pair_and_Z(dual_table_match) -> None:
    ctx, _table, sigma, _elapsed = dual_table_match
    assert sigma is not None
    x, y, xy = central_pair_elements(ctx, sigma)
    witness_ok = (
        is_dual_coproduct_central(x)
        and is_dual_coproduct_central(y)
        and not is_dual_coproduct_central(xy)
    )
    zz = property_ZZ(ctx)
    z_s2 = property_Z(ctx)
    z_v = property_Z(_ctx("S4", "(1,2)(3,4)"))
    ok = witness_ok and not zz and z_s2 and not z_v
    _line(
        3,
        "coproduct-central-pair",
        ok,
        f"witness {'found' if witness_ok else 'missing'}, ZZ={zz}, "
        f"Z[(12)]={z_s2}, Z[(12)(34)]={z_v}",
    )
    assert witness_ok, "transported central pair lost its centrality pattern"
    assert not zz and z_s2 and not z_v


# ------------------------------------------------------- corpus (criteria 4-6)


@pytest.fixture(scope="module")
def corpus():
    pairs = corpus_pairs()
    t0 = time.time()
    ore = {}
    for name, inc in pairs:
        key = (name, inc.sub.key())
        ore[key] = (
            ore_verify(inc),
            dual_ore_conditions(inc),
            is_linearly_primitive_inclusion(inc),
            is_H_cyclic(inc),
        )
    t_ore = time.time() - t0
    numeric = {}
    for name, inc in pairs:
        ctx = BoxContext(inc.group, inc.sub)
        numeric[(name, inc.sub.key())] = (
            _w_cyclic_with_retries(ctx),
            _dual_w_cyclic_by_closure(ctx),
        )
    cls = {}
    normal_agree = {}
    for name, inc in pairs:
        ctx = BoxContext(inc.group, inc.sub)
        key = (name, inc.sub.key())
        cls[key] = (
            is_dedekind(ctx),
            is_cyclic(ctx),
            ore[key][0].distributive,
            boolean_rank(*inc.node),
            sum_bound(ctx),
        )
        if inc.sub.order == 1:
            normal_agree[key] = _normal_routes_agree(ctx)
    return {
        "pairs": pairs,
        "ore": ore,
        "numeric": numeric,
        "cls": cls,
        "normal_agree": normal_agree,
        "t_ore": t_ore,
    }


def test_criterion_04_ore_and_dual_ore(corpus) -> None:
    ore, t_ore = corpus["ore"], corpus["t_ore"]
    bad_ore = [k for k, (rep, _d, _lp, hc) in ore.items() if rep.distributive and hc is None]
    bad_dual = [
        k
        for k, (rep, dual, lp, _hc) in ore.items()
        if rep.distributive and (dual.cond_normal or dual.cond_sum) and lp is None
    ]
    ok = not bad_ore and not bad_dual and t_ore < 300.0
    _line(
        4,
        "ore-and-dual-ore",
        ok,
        f"{len(ore)} corpus pairs, {len(bad_ore)}+{len(bad_dual)} exceptions, {t_ore:.1f}s",
    )
    assert not bad_ore, f"distributive without single-generator extension: {bad_ore[:5]}"
    assert not bad_dual, f"dual conditions without linear primitivity: {bad_dual[:5]}"
    assert t_ore < 300.0


def test_criterion_05_w_cyclicity_theorems(corpus) -> None:
    numeric, cls = corpus["numeric"], corpus["cls"]
    bad_cyc = [k for k in cls if cls[k][1] and not numeric[k][0]]
    bad_bool = [
        k for k in cls if cls[k][3] is not None and cls[k][3] <= 4 and not numeric[k][0]
    ]
    bad_sum = [
        k
        for k in cls
        if cls[k][4] <= Fraction(2) and cls[k][2] and not numeric[k][0]
    ]
    n_bool = sum(1 for k in cls if cls[k][3] is not None and cls[k][3] <= 4)
    ok = not bad_cyc and not bad_bool and not bad_sum
    _line(
        5,
        "w-cyclicity-theorems",
        ok,
        f"cyclic {sum(1 for k in cls if cls[k][1])}, boolean<=4 {n_bool}, "
        f"exceptions {len(bad_cyc)}+{len(bad_bool)}+{len(bad_sum)}",
    )
    assert not bad_cyc, f"cyclic but not w-cyclic: {bad_cyc[:5]}"
    assert not bad_bool, f"boolean interval rank <= 4 but not w-cyclic: {bad_bool[:5]}"
    assert not bad_sum, f"index-sum <= 2 distributive but not w-cyclic: {bad_sum[:5]}"


def test_criterion_06_numeric_vs_group_theoretic(corpus) -> None:
    ore, numeric, normal_agree = corpus["ore"], corpus["numeric"], corpus["normal_agree"]
    bad_primal = [k for k in numeric if numeric[k][0] != (ore[k][2] is not None)]
    bad_dual = [k for k in numeric if numeric[k][1] != (ore[k][3] is not None)]
    bad_normal = [k for k, agree in normal_agree.items() if not agree]
    ok = not bad_primal and not bad_dual and not bad_normal
    _line(
        6,
        "numeric-vs-group-theoretic",
        ok,
        f"{len(numeric)} pairs, {len(bad_primal)} primal / {len(bad_dual)} dual mismatches, "
        f"{len(bad_normal)} of {len(normal_agree)} H=1 pairs with normality mismatches",
    )
    assert not bad_primal, f"w-cyclic vs linear primitivity: {bad_primal[:5]}"
    assert not bad_dual, f"dual w-cyclic vs single-generator extension: {bad_dual[:5]}"
    assert not bad_normal, f"spectral vs group-theoretic normality of b_K: {bad_normal[:5]}"


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_named_battery() -> None:
    s3 = _ctx("S3")
    q8 = _ctx("Q8")
    z30 = _ctx("Z30")
    a = _ctx("S4", "(1,2)")
    b = _ctx("S4", "(1,2)(3,4)")
    checks = {
        "s3 w-cyclic": is_w_cyclic(s3) is not None,
        "s3 not cyclic": not is_cyclic(s3),
        "s3 not w-plus": not w_plus_cyclic(s3),
        "q8 w-plus": w_plus_cyclic(q8),
        "q8 dedekind": is_dedekind(q8),
        "q8 not cyclic": not is_cyclic(q8),
        "z30 dual w-cyclic": is_w_cyclic_dual(z30) is not None,
        "z30 sum 31/30": sum_bound(z30) == Fraction(31, 30),
        "s4 embeddings inequivalent": not inclusions_equivalent(
            Inclusion(a.group, a.sub), Inclusion(b.group, b.sub)
        ),
        "s4 embeddings differ in w-cyclicity": (is_w_cyclic(a) is not None)
        and (is_w_cyclic(b) is None),
        "s3 lengths": lengths(s3, which=("cl", "wcl")) == {"cl": 2, "wcl": 1},
        "s4 dual length": lengths(_ctx("S4"), which=("dl",)) == {"dl": 2},
    }
    failed = [name for name, good in checks.items() if not good]
    ok = not failed
    _line(7, "named-example-battery", ok, f"{len(checks)} facts, failed: {failed or 'none'}")
    assert not failed


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_identity_suite() -> None:
    t0 = time.time()
    results = run_battery(trials=1000)
    worst = max(results.values())
    elapsed = time.time() - t0
    bad = {k: v for k, v in results.items() if v >= 1e-8}
    ok = not bad
    _line(
        8,
        "algebraic-identity-suite",
        ok,
        f"{len(results)} identity/context cells x 1000 trials, "
        f"worst deviation {worst:.3e}, {elapsed:.1f}s",
    )
    assert not bad, f"deviations at or above 1e-8: {bad}"


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_fusion_ring() -> None:
    t0 = time.time()
    ring = kac210_ring()
    axioms = verify_axioms(ring)  # raises AxiomViolation on any failure
    dims = fp_dimensions(ring)
    expected = np.array([1.0, 5.0, 5.0, 5.0, 6.0, 7.0, 7.0])
    dim_err = float(np.abs(np.sort(dims) - expected).max())
    total = float((dims**2).sum())
    simple = is_simple(ring)
    n_subrings = len(find_subrings(ring))
    elapsed = time.time() - t0
    ok = (
        all(axioms.values())
        and dim_err <= 1e-9
        and abs(total - 210.0) <= 1e-7
        and simple
        and elapsed < 10.0
    )
    _line(
        9,
        "fusion-ring",
        ok,
        f"dims off by {dim_err:.2e}, sum {total:.9f}, "
        f"{n_subrings} closed subrings, {elapsed:.2f}s",
    )
    assert all(axioms.values())
    assert dim_err <= 1e-9
    assert abs(total - 210.0) <= 1e-7
    assert simple
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 10


def test_criterion_10_survey_determinism() -> None:
    t0 = time.time()
    rows_a, summary_a = survey(max_index=12)
    rows_b, summary_b = survey(max_index=12, names=list(reversed(catalog_names())))
    elapsed = time.time() - t0
    json_a = json.dumps({"rows": rows_a, "summary": summary_a}, sort_keys=True)
    json_b = json.dumps({"rows": rows_b, "summary": summary_b}, sort_keys=True)
    byte_identical = json_a == json_b and survey_csv(rows_a) == survey_csv(rows_b)
    counts = summary_a["counts"]
    monotone = counts["cyclic"] <= counts["w_cyclic"] <= counts["total"]
    both = sum(
        1
        for r in rows_a
        if r["report"] is not None
        and r["report"]["distributive"]
        and r["report"]["dedekind"]
    )
    conjunction = counts["cyclic"] == both
    ok = byte_identical and monotone and conjunction and counts["errors"] == 0
    _line(
        10,
        "survey-determinism",
        ok,
        f"{counts['total']} classes, cyclic {counts['cyclic']} <= "
        f"w-cyclic {counts['w_cyclic']}, permuted rerun "
        f"{'identical' if byte_identical else 'DIFFERS'}, {elapsed:.1f}s",
    )
    assert byte_identical, "permuted catalog order changed the survey output"
    assert monotone
    assert conjunction, f"cyclic {counts['cyclic']} != distributive-and-dedekind {both}"
    assert counts["errors"] == 0
