"""Classification predicates: known values on small inclusions, the
compressed-interval reductions, implication tables, and chain lengths."""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import functools
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biprox.boxalgebra
import biprox.cli
import biprox.interval
import biprox.lattice
from biprox import permgroup as permgroup_module
from biprox import properties
from biprox.boxalgebra import (
    BoxContext,
    biprojection_lattice,
    coproduct,
    element_bK,
    generate_biprojection,
    is_central,
    is_dual_coproduct_central,
    is_minimal,
    is_projection,
    minimal_central_projections,
    minimal_projections_under,
    mul_dual,
)
from biprox.catalog import catalog_group, catalog_names, parse_group_spec
from biprox.cli import enumerate_pairs, equivalence_classes, main
from biprox.errors import BiprojectionCheckFailed, NotNested
from biprox.interval import (
    Inclusion,
    inclusions_equivalent,
    ore_verify,
)
from biprox.lattice import FiniteLattice, boolean_rank, is_distributive
from biprox.permgroup import (
    FiniteGroup,
    Permutation,
    Subgroup,
    all_subgroups,
    group_closure,
    is_dedekind_interval,
    is_normal_intermediate,
    parse_cycles,
    parse_generators,
    subgroup_generated,
)
from biprox.properties import (
    _biprojections,
    _block_subgroups,
    _central_nodes,
    _context_dims,
    _f2_violation,
    _fixed_dims,
    _interval_blocks,
    _interval_w_cyclic,
    _interval_z,
    _w_cyclic_block,
    _z_violation,
    classify,
    find_zz_violation_dual,
    is_cyclic,
    is_dedekind,
    is_linearly_primitive_inclusion,
    is_w_cyclic,
    is_w_cyclic_dual,
    lengths,
    lw_rw_cyclic,
    maximal_biprojections,
    property_F2,
    property_Z,
    property_Z_tilde,
    property_ZZ,
    sum_bound,
    verify_theorems,
    w_plus_cyclic,
    wcl_generators,
)
from spectral_oracle import (
    compress_lower,
    compress_upper,
    generate_biprojection_dual,
    generate_from_set,
    is_normal_biprojection,
    step_context,
    top_context,
    zz_blocks_central,
)
from interval_oracle import is_linearly_primitive_group, linearly_primitive_block_by_stabilizers
from permgroup_oracle import double_cosets, subgroup_from_perms
from lattice_oracle import (
    bottom_part,
    closure_route_length,
    interval_route_length,
    interval_subgroups,
    top_part,
)


def trivial_ctx(name: str) -> BoxContext:
    g = catalog_group(name)
    return BoxContext(g, g.trivial_subgroup())


def s4_over(cycles: str) -> BoxContext:
    g = catalog_group("S4")
    return BoxContext(g, subgroup_from_perms(g, [parse_cycles(cycles, g.degree)]))


# -- named small inclusions ---------------------------------------------------


def test_s3_trivial_battery():
    r = classify(trivial_ctx("S3"))
    assert r.w_cyclic and not r.cyclic and not r.w_plus_cyclic
    assert not r.distributive and not r.dedekind
    assert r.Z and r.ZZ and r.F2
    assert not r.w_cyclic_dual  # dual w-cyclicity would need S3 cyclic as a group
    # minimal overgroups of {1} in S3: three of order 2, one of order 3
    assert r.witnesses["maximal_subgroup_orders"] == [2, 2, 2, 3]
    assert r.sum_bound == Fraction(1, 2) * 3 + Fraction(1, 3) == Fraction(11, 6)
    assert r.lengths == {"cl": 2, "wcl": 1, "dl": 2}


def test_q8_trivial_battery():
    r = classify(trivial_ctx("Q8"))
    assert r.w_cyclic and r.w_plus_cyclic and r.dedekind and not r.cyclic
    # the only subgroup of prime order is the center, so one maximal biprojection
    assert r.witnesses["maximal_subgroup_orders"] == [2]
    assert r.sum_bound == Fraction(1, 2)


def test_cyclic_group_contexts_are_cyclic():
    for name in ("Z5", "Z6", "Z12"):
        r = classify(trivial_ctx(name))
        assert r.cyclic and r.distributive and r.dedekind, name
        assert r.w_cyclic and r.w_cyclic_dual, name


@pytest.mark.parametrize("name", ["Z34", "D22", "Dic9", "Dic11"])
def test_classify_completes_on_regular_inclusions(name):
    # The spectral generation loop raised NotPositive (Z34) and
    # NumericRankAmbiguous (D22, Dic9, Dic11) on these; (Ore) then says the
    # lattice of G over {1} is distributive exactly when G is cyclic.
    # Over {1}, w-cyclic means linearly primitive (a faithful irreducible).
    ctx = trivial_ctx(name)
    r = classify(ctx, lengths_which=())
    assert (r.group_order, r.sub_order) == (ctx.group.order, 1)
    assert r.distributive == (name == "Z34")
    assert r.w_cyclic == is_linearly_primitive_group(ctx.group)


def test_z30_sum_above_one_yet_w_cyclic():
    ctx = trivial_ctx("Z30")
    assert sum_bound(ctx) == Fraction(31, 30)  # 1/2 + 1/3 + 1/5
    assert is_w_cyclic(ctx) is not None
    assert sorted(k.order for k in maximal_biprojections(ctx)) == [2, 3, 5]


def test_s4_embeddings_inequivalent_and_differ():
    ca = s4_over("(1,2)")
    cb = s4_over("(1,2)(3,4)")
    assert not inclusions_equivalent(
        Inclusion(ca.group, ca.sub), Inclusion(cb.group, cb.sub)
    )
    ra = classify(ca)
    rb = classify(cb)
    assert ra.w_cyclic and not rb.w_cyclic
    assert ra.w_cyclic_dual and not rb.w_cyclic_dual
    assert ra.Z and not ra.ZZ
    assert not rb.Z
    # w-cyclic on both sides without being cyclic
    assert not ra.cyclic and not ra.distributive


def test_dual_product_of_coproduct_central_pair_can_escape_center():
    ctx = s4_over("(1,2)")
    found = find_zz_violation_dual(ctx)
    assert found is not None
    x, y, prod = found
    assert is_dual_coproduct_central(x) and is_dual_coproduct_central(y)
    assert not is_dual_coproduct_central(prod)
    assert not is_dual_coproduct_central(mul_dual(x, y))


def test_zz_primal_route_equals_dual_route():
    cases = [trivial_ctx("S3"), trivial_ctx("Z6"), trivial_ctx("Q8"),
             s4_over("(1,2)"), s4_over("(1,2)(3,4)")]
    for ctx in cases:
        assert property_ZZ(ctx) == (find_zz_violation_dual(ctx) is None)


def test_abelian_contexts_satisfy_zz_and_f2():
    for name in ("Z6", "Z12", "E8"):
        ctx = trivial_ctx(name)
        assert property_ZZ(ctx)
        assert property_F2(ctx)


def test_f2_on_s3():
    assert property_F2(trivial_ctx("S3"))


# -- block predicates against per-set generation -------------------------------
#
# The former routines, kept verbatim as the oracle: each generates the
# biprojection of a block, a pair or a subset from its sum.


def _oracle_w_cyclic_witness(ctx, seed=0):
    projs = minimal_central_projections(ctx)
    for i, z in enumerate(projs):
        if generate_biprojection(z).subgroup == ctx.sub:
            for v in minimal_projections_under(z, seed=seed):
                if generate_biprojection(v).subgroup == ctx.sub:
                    return i, v
            return i, z
    for i, z in enumerate(projs):
        for v in minimal_projections_under(z, seed=seed):
            if generate_biprojection(v).subgroup == ctx.sub:
                return i, v
    return None


def _oracle_z_violation(ctx):
    for i, z in enumerate(minimal_central_projections(ctx)):
        if not is_central(generate_biprojection(z).element):
            return i
    return None


def _oracle_f2_violation(ctx):
    projs = minimal_central_projections(ctx)
    n = len(projs)
    pair_sub = {}

    def gen(i, j):
        key = (min(i, j), max(i, j))
        if key not in pair_sub:
            pair_sub[key] = generate_from_set([projs[key[0]], projs[key[1]]]).subgroup
        return pair_sub[key]

    for i in range(n):
        for j in range(n):
            target = gen(i, j)
            if not any(
                target.mask[gen(i, r).indices].all()
                and target.mask[gen(r, j).indices].all()
                for r in range(n)
            ):
                return i, j
    return None


def _oracle_wcl(ctx):
    """Fewest blocks generating id, over every subset of the blocks."""
    if ctx.dim == 1:
        return 0
    projs = minimal_central_projections(ctx)
    for size in range(1, len(projs) + 1):
        for combo in itertools.combinations(range(len(projs)), size):
            if generate_from_set([projs[i] for i in combo]).subgroup == ctx.sub:
                return size
    raise AssertionError("the full set of blocks failed to generate id")


_BLOCK_CONTEXTS = [
    lambda: trivial_ctx("S3"),
    lambda: trivial_ctx("Q8"),
    lambda: trivial_ctx("D8"),
    lambda: trivial_ctx("A4"),
    lambda: s4_over("(1,2)"),
    lambda: s4_over("(1,4)(2,3)"),  # (Z) fails here
    lambda: trivial_ctx("S4"),
]


@pytest.mark.parametrize("ctx_factory", _BLOCK_CONTEXTS)
def test_block_predicates_match_per_set_generation(ctx_factory):
    ctx = ctx_factory()
    projs = minimal_central_projections(ctx)
    subs = _block_subgroups(ctx)
    assert len(subs) == len(projs)
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(len(projs)), size):
            meet = np.logical_and.reduce([subs[i].mask for i in combo])
            generated = generate_from_set([projs[i] for i in combo]).subgroup
            assert np.array_equal(meet, generated.mask), combo

    found = _oracle_w_cyclic_witness(ctx)
    assert _w_cyclic_block(ctx) == (None if found is None else found[0])
    witness = is_w_cyclic(ctx)
    assert (witness is None) == (found is None)
    if found is not None:
        assert np.array_equal(witness.coeffs, found[1].coeffs)
    assert _z_violation(ctx) == _oracle_z_violation(ctx)
    assert _f2_violation(ctx) == _oracle_f2_violation(ctx)
    assert wcl_generators(ctx) == _oracle_wcl(ctx)


def _stated_f2_violation(ks):
    """(F2) as stated, on subgroup masks: the first (i, j) with no r such
    that K_i & K_r and K_r & K_j both lie in K_i & K_j."""
    for i, j in itertools.product(range(len(ks)), repeat=2):
        outside = ~(ks[i].mask & ks[j].mask)
        if not any(
            not (ks[i].mask & ks[r].mask & outside).any()
            and not (ks[r].mask & ks[j].mask & outside).any()
            for r in range(len(ks))
        ):
            return i, j
    return None


def test_f2_rule_on_given_block_subgroups(monkeypatch):
    # No corpus inclusion violates (F2), so the comparison above cannot tell
    # a wrong rule; feed random lists of subgroups of S4 in as the blocks.
    ctx = trivial_ctx("S4")
    subs = all_subgroups(ctx.group)
    rng = random.Random(0)
    outcomes = set()
    for _ in range(300):
        ks = rng.sample(subs, rng.randint(1, 5))
        monkeypatch.setattr(properties, "_block_subgroups", lambda _ctx: ks)
        expected = _stated_f2_violation(ks)
        assert _f2_violation(ctx) == expected, [k.order for k in ks]
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def _blockwise_f2_violation(ctx):
    """(F2) with the intersection orders decided block by block, repeated
    subgroups included (the former ``_f2_violation``, kept as the oracle)."""
    m = np.array([k.mask for k in properties._block_subgroups(ctx)], dtype=float)
    pair = m @ m.T
    for i in range(len(m)):
        triple = (m * m[i]) @ m.T
        served = (triple == pair[i][:, None]) & (triple == pair)
        unserved = ~served.any(axis=0)
        if unserved.any():
            return i, int(np.argmax(unserved))
    return None


def test_f2_on_distinct_subgroups_matches_the_blockwise_loop(monkeypatch):
    # Abelian G/{1} has |G| blocks on few distinct kernels (Z12: 12 on 6);
    # random lists of S4's subgroups drawn with repeats map witnesses back
    # to the first block of each subgroup, on both sides of the rule.
    for name in ("Z12", "E8", "Z6", "D4", "E16"):
        ctx = trivial_ctx(name)
        assert _f2_violation(ctx) == _blockwise_f2_violation(ctx) is None, name
    ctx = trivial_ctx("S4")
    subs = all_subgroups(ctx.group)
    rng = random.Random(1)
    outcomes = set()
    for _ in range(300):
        ks = rng.choices(subs, k=rng.randint(1, 8))
        monkeypatch.setattr(properties, "_block_subgroups", lambda _ctx: ks)
        expected = _blockwise_f2_violation(ctx)
        assert _f2_violation(ctx) == expected == _stated_f2_violation(ks), ks
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_z_by_double_cosets_matches_centrality():
    # b_K.pi(g).b_H is the uniform measure on KgH, so b_K is central exactly
    # when KgH = HgK for every g; the two routes agree on every biprojection.
    answers = []
    for factory in _BLOCK_CONTEXTS:
        ctx = factory()
        for k in biprojection_lattice(ctx).payload:
            central = is_central(element_bK(ctx, k))
            assert central == is_normal_intermediate(ctx.sub, k, ctx.group), (ctx, k)
            answers.append(central)
    assert set(answers) == {True, False}


# -- the fixed-point table against the double cosets, on the census -----------


@pytest.fixture(scope="module")
def census_contexts():
    return [ctx for _name, ctx in enumerate_pairs()]


def test_fixed_point_centrality_matches_double_cosets_on_the_census(census_contexts):
    # b_K is central exactly when HgK = KgH for every g: the rank test on
    # the table equals the double-coset test on every node of every [H, G].
    answers = set()
    for ctx in census_contexts:
        lat, top = _biprojections(ctx)
        members = np.flatnonzero(lat.leq[:, top])
        central = _central_nodes(_context_dims(ctx), top)[members]
        normal = [is_normal_intermediate(ctx.sub, lat.payload[m], ctx.group) for m in members]
        assert central.tolist() == normal, ctx
        assert is_dedekind(ctx) == all(normal)
        first = next(
            (i for i, k in enumerate(_block_subgroups(ctx))
             if not is_normal_intermediate(ctx.sub, k, ctx.group)),
            None,
        )
        assert _z_violation(ctx) == first
        answers.update(normal)
        answers.add(first is None)
    assert answers == {True, False}


def test_interval_z_matches_double_cosets_on_census_sub_intervals(census_contexts):
    answers = []
    for ctx in census_contexts:
        lat, top = _biprojections(ctx)
        subs = lat.payload
        for a in np.flatnonzero(lat.leq[:, top]):
            dims = _fixed_dims(lat, a, top)  # one table serves every [a, b]
            for b in np.flatnonzero(lat.leq[a] & lat.leq[:, top]):
                if a == b:
                    continue
                blocks = [subs[m] for m in np.unique(_interval_blocks(lat, dims, a, b)[1])]
                holds = is_dedekind_interval(subs[b], subs[a], blocks)
                assert _interval_z(lat, dims, a, b) == holds, (ctx, a, b)
                answers.append(holds)
    assert set(answers) == {True, False}


def _oracle_w_plus(ctx) -> bool:
    """w+ by the range projection of the sum of the maximal biprojections."""
    from biprox.boxalgebra import id_element, range_projection

    bs = [element_bK(ctx, k) for k in maximal_biprojections(ctx)]
    if not bs:
        return True
    return not range_projection(sum(bs[1:], bs[0])).isclose(id_element(ctx))


def test_w_plus_integers_match_range_projection_on_the_census(census_contexts, monkeypatch):
    projected = []
    honest = properties.range_projection
    monkeypatch.setattr(
        properties, "range_projection", lambda x: projected.append(1) or honest(x)
    )
    routes = {"integers": 0, "range projection": 0}
    answers = set()
    for ctx in census_contexts:
        before = len(projected)
        got = w_plus_cyclic(ctx)
        routes["range projection" if len(projected) > before else "integers"] += 1
        assert got == _oracle_w_plus(ctx), ctx
        answers.add(got)
    assert answers == {True, False}
    assert min(routes.values()) > 0, routes


def test_zz_holds_at_the_trivial_subgroup():
    # At H = {1} the coproduct is the pointwise product, which keeps class
    # functions: every double coset is one element, so the class-count rows
    # are the class indicators, one distinct row per block.
    for name in catalog_names():
        ctx = trivial_ctx(name)
        assert property_ZZ(ctx)
        assert zz_blocks_central(ctx), name


def _refuse(*_args, **_kwargs):
    raise AssertionError("a float route ran")


def test_zz_class_counts_match_the_block_projection_on_the_census(census_contexts, monkeypatch):
    # (ZZ) from double-coset class counts, with the blocks and the center
    # basis refused, against the float projection of the block coproducts.
    # Only the pairs that fail (ZZ) take the center basis, for the witness.
    want = [zz_blocks_central(ctx) for ctx in census_contexts]
    assert want.count(False) == 10
    monkeypatch.setattr(properties, "minimal_central_projections", _refuse)
    monkeypatch.setattr(biprox.boxalgebra, "minimal_central_projections", _refuse)
    monkeypatch.setattr(biprox.boxalgebra, "_center_basis", _refuse)
    assert [property_ZZ(ctx) for ctx in census_contexts] == want
    monkeypatch.undo()
    reached = []
    honest = biprox.boxalgebra._center_basis
    monkeypatch.setattr(
        biprox.boxalgebra, "_center_basis", lambda ctx: reached.append(ctx) or honest(ctx)
    )
    for ctx, holds in zip(census_contexts, want):
        assert (properties._zz_violation(ctx) is None) == holds, ctx
    assert reached == [ctx for ctx, holds in zip(census_contexts, want) if not holds]


def test_zz_raises_when_the_blocks_outnumber_the_class_count_rows(monkeypatch):
    # The distinct rows are never fewer than the blocks: one more block than
    # rows is a failed check, not a (ZZ) answer.
    ctx = trivial_ctx("S4")
    dims = properties._context_dims(ctx)
    one_more = np.vstack([dims, np.ones((1, dims.shape[1]))])  # k + 1 blocks
    monkeypatch.setattr(properties, "_context_dims", lambda _ctx: one_more)
    with pytest.raises(BiprojectionCheckFailed, match="class-count rows"):
        property_ZZ(ctx)


def test_zz_fails_on_a6_over_a_double_transposition_with_no_center_basis(monkeypatch):
    # 92 double cosets: the center basis would build two (92, 92, 360)
    # complex arrays; the class counts read 92 x 360 integers.
    g = parse_group_spec("perm:(1,2,3);(2,3,4,5,6)")
    ctx = BoxContext(g, subgroup_from_perms(g, [parse_cycles("(1,2)(3,4)", g.degree)]))
    monkeypatch.setattr(biprox.boxalgebra, "_center_basis", _refuse)
    assert ctx.dim == 92
    assert not property_ZZ(ctx)


_zz_group = functools.lru_cache(maxsize=None)(parse_group_spec)  # each G built once


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["S4", "A5", "S5", "SL23", "Dic6",
                     "perm:(1,2,3,4);(1,2);(5,6,7)", "perm:(1,2,3);(1,2);(4,5,6);(4,5)"]),
    st.lists(st.integers(min_value=0), min_size=0, max_size=2),
)
def test_zz_class_counts_match_the_block_projection_beyond_the_census(spec, draws):
    # G from the catalog and two direct products (S4 x Z3, S3 x S3); H is
    # generated by 0-2 drawn elements of G.
    g = _zz_group(spec)
    h = subgroup_generated(g, [d % g.order for d in draws])
    ctx = BoxContext(g, h)
    assert property_ZZ(ctx) == zz_blocks_central(ctx)


@functools.cache
def _nonabelian_catalog_names() -> list[str]:
    return [name for name in catalog_names() if not catalog_group(name).is_abelian()]


@functools.cache
def _drawn_group(name: str, draws: frozenset) -> FiniteGroup:
    """The subgroup of catalog group ``name`` generated by the elements
    ``draws``, closed as a group of its own."""
    parent = catalog_group(name)
    return group_closure([Permutation(tuple(parent.images[d].tolist())) for d in sorted(draws)])


def _double_coset_sets(g: FiniteGroup, a: Subgroup, b: Subgroup) -> set:
    return {tuple(c.tolist()) for c in double_cosets(g, a, b)}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0),
    st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    st.lists(st.integers(min_value=0), min_size=0, max_size=2),
)
@example(34, [1, 6], [])  # <(1,2), (3,4)> < S4 over {1}: no block is faithful
def test_predicates_match_their_oracles_on_random_subgroups_as_g(pick, g_draws, h_draws):
    # G is generated by 1-3 drawn elements of a non-abelian catalog group
    # (order <= 120), H by 0-2 drawn elements of G.  Dedekind against
    # HgK = KgH on every member K of [H, G], linear primitivity against the
    # blocks' left stabilizers, and the default chain lengths against the
    # per-pair closures.  The group is picked modulo the list, as
    # sampled_from would draw its first entries far more often.
    names = _nonabelian_catalog_names()
    name = names[pick % len(names)]
    order = catalog_group(name).order
    g = _drawn_group(name, frozenset(d % order for d in g_draws))
    ctx = BoxContext(g, subgroup_generated(g, [d % g.order for d in h_draws]))
    lat, i = ctx.node
    members = [lat.payload[k] for k in np.flatnonzero(lat.leq[i])]
    normal = [
        _double_coset_sets(g, ctx.sub, k) == _double_coset_sets(g, k, ctx.sub) for k in members
    ]
    assert is_dedekind(ctx) == all(normal)
    assert is_linearly_primitive_inclusion(ctx) == linearly_primitive_block_by_stabilizers(ctx)
    assert lengths(ctx) == {n: closure_route_length(ctx, n) for n in properties.DEFAULT_LENGTHS}


def test_classify_makes_no_random_draw(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("classify drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    # S4/<(1,4)> fails (ZZ), so its legacy center-basis witness runs too
    for ctx in (s4_over("(1,4)"), s4_over("(1,2)"), trivial_ctx("A4")):
        classify(ctx)


def test_classify_enumerates_the_interval_once(monkeypatch):
    # Every interval [H, G] is the up-set of H in one subgroup lattice per
    # group: classifying any number of inclusions of a group, with all
    # eleven chain lengths and the theorem battery, builds that lattice's
    # tables once, and none of it calls biprojection_lattice.
    calls, names = [], []
    build = FiniteLattice.from_order

    def counted(leq, *args, **kwargs):
        calls.append(len(leq))
        return build(leq, *args, **kwargs)

    _watch_lattice_builds(monkeypatch, names.append)
    monkeypatch.setattr(FiniteLattice, "from_order", staticmethod(counted))
    s4 = FiniteGroup(catalog_group("S4").images)  # a fresh group: nothing cached
    subs = all_subgroups(s4)
    for sub in (subs[1], s4.trivial_subgroup(), subs[10], subs[-2], s4.full_subgroup()):
        ctx = BoxContext(s4, sub)
        classify(ctx, lengths_which=ALL_NAMES)
        assert all(r.holds for r in verify_theorems(ctx))
        assert ctx.node[0] is s4._subgroup_lattice
    assert calls == [30]
    assert "biprojection_lattice" not in names


@pytest.mark.parametrize("subgroup", [None, "(1,2)"], ids=["S4/1", "S4/(1,2)"])
def test_classify_builds_the_covers_once(monkeypatch, subgroup):
    # Every context reads the reverse() view of the group's lattice, which
    # reads the transpose of its covers: one cover product per group over
    # classify, all eleven chain lengths and the theorem battery of several
    # H, and the view's validate() makes only its own transitivity product.
    s4 = FiniteGroup(catalog_group("S4").images)  # a fresh group: nothing cached
    sub = s4.trivial_subgroup() if subgroup is None else subgroup_from_perms(
        s4, [parse_cycles(subgroup, s4.degree)]
    )
    ctx = BoxContext(s4, sub)
    lat, _ = ctx.node
    products = []
    honest = biprox.lattice._bool_product

    def counted(a, b):
        products.append(a.shape)
        return honest(a, b)

    monkeypatch.setattr(biprox.lattice, "_bool_product", counted)
    subs = all_subgroups(s4)
    for c in (ctx, BoxContext(s4, subs[1]), BoxContext(s4, subs[10]), BoxContext(s4, subs[-2])):
        classify(c, lengths_which=ALL_NAMES)
        assert all(r.holds for r in verify_theorems(c))
    assert products == [(30, 30)]
    bip = lat.reverse()
    bip.validate()
    assert len(products) == 2
    monkeypatch.undo()
    assert np.array_equal(bip.covers(), FiniteLattice.from_order(bip.leq).covers())


def test_z_tilde():
    assert property_Z_tilde(trivial_ctx("Q8"))  # Dedekind forces it
    assert not property_Z_tilde(s4_over("(1,2)(3,4)"))  # already fails (Z)


def _oracle_zz_holds(ctx):
    blocks = minimal_central_projections(ctx)
    return all(is_central(coproduct(a, b)) for i, a in enumerate(blocks) for b in blocks[i:])


def test_zz_projection_matches_per_pair_centrality():
    s5 = catalog_group("S5")
    s5_12 = BoxContext(s5, subgroup_from_perms(s5, [parse_cycles("(1,2)", s5.degree)]))
    answers = []
    for ctx in (s4_over("(1,4)"), s4_over("(1,4)(2,3)"), s5_12, trivial_ctx("S3"),
                trivial_ctx("Q8"), trivial_ctx("A4"), s4_over("(1,2)")):
        holds = _oracle_zz_holds(ctx)
        assert property_ZZ(ctx) == holds, ctx
        answers.append(holds)
    assert set(answers) == {True, False}


# -- interval blocks against the compressed contexts ---------------------------
#
# The former route, kept as the oracle: each interval [K, L] is rebuilt as a
# 2-box context of its own, whose blocks generate their biprojections from
# their sums.


def _oracle_blocks(c: BoxContext):
    return [generate_biprojection(z).subgroup for z in minimal_central_projections(c)]


def _oracle_w(c: BoxContext) -> bool:
    return any(k == c.sub for k in _oracle_blocks(c))


@pytest.mark.parametrize(
    "ctx_factory",
    [
        *(pytest.param(lambda n=n: trivial_ctx(n), id=f"{n}/1")
          for n in ("S3", "Q8", "D8", "A4", "S4")),
        pytest.param(lambda: s4_over("(1,2)"), id="S4/(1,2)"),
        pytest.param(lambda: s4_over("(1,2)(3,4)"), id="S4/(1,2)(3,4)"),  # (Z~) fails
    ],
)
def test_interval_routes_match_compressed_contexts(ctx_factory):
    ctx = ctx_factory()
    assert _block_subgroups(ctx) == _oracle_blocks(ctx)
    lat, top = _biprojections(ctx)
    subs, inside = lat.payload, lat.leq[:, top]
    steps = list(zip(*np.nonzero(lat.leq & inside[:, None] & inside[None, :])))
    for a, b in steps:
        dims = _fixed_dims(lat, a, top)
        step = step_context(ctx, subs[a], subs[b])
        outer = subs[a]
        got = {subs[m].key() for m in _interval_blocks(lat, dims, a, b)[1]}
        want = {
            ctx.group.subgroup_from_indices(outer.indices[k.indices]).key()
            for k in _oracle_blocks(step)
        }
        assert got == want, (subs[a].order, subs[b].order)
        assert _interval_w_cyclic(lat, dims, a, b) == _oracle_w(step)
        assert _interval_z(lat, dims, a, b) == (_oracle_z_violation(step) is None)
    z_tilde = all(
        _oracle_z_violation(step_context(ctx, subs[a], subs[b])) is None
        for a, b in steps if a != b
    )
    assert property_Z_tilde(ctx) == z_tilde
    rows = {r.name: r for r in verify_theorems(ctx)}
    assert rows["top-w-cyclic-implies-w-cyclic"].hypothesis == _oracle_w(top_context(ctx))
    for k in (subs[m] for m in np.flatnonzero(inside)):
        assert lw_rw_cyclic(ctx, k) == {
            "lw": _oracle_w(compress_lower(ctx, k).small),
            "rw": _oracle_w(compress_upper(ctx, k).small),
        }, k.order


def test_interval_blocks_check_fixed_point_dimensions(monkeypatch):
    ctx = trivial_ctx("S3")
    lat = biprojection_lattice(ctx)
    honest = Subgroup.character_table
    monkeypatch.setattr(Subgroup, "character_table", lambda self: honest(self) * 1.1)
    with pytest.raises(BiprojectionCheckFailed):
        property_Z_tilde(ctx)
    with pytest.raises(BiprojectionCheckFailed):
        lw_rw_cyclic(ctx, ctx.sub)
    # Integral dimensions 2 on {1} and on two of the three subgroups of order
    # 2, and less above them: no largest node keeps the dimension.
    group = ctx.group
    orders = group.element_orders()
    row = np.where(orders == 3, -1.0, 2.0)
    row[np.flatnonzero(orders == 2)[2]] = -4.0
    monkeypatch.setattr(Subgroup, "character_table", lambda self: row[None, :])
    with pytest.raises(BiprojectionCheckFailed):
        _interval_blocks(lat, _fixed_dims(lat, lat.bottom, lat.top), lat.bottom, lat.top)


def _watch_lattice_builds(monkeypatch, seen) -> None:
    """Call seen(name) whenever a lattice is built, by ``from_order`` or
    ``_finish``, or ``biprojection_lattice`` is called from any module of
    the package."""
    for name in ("from_order", "_finish"):
        honest = getattr(FiniteLattice, name)

        def watched(*args, _name=name, _honest=honest, **kwargs):
            seen(_name)
            return _honest(*args, **kwargs)

        monkeypatch.setattr(FiniteLattice, name, staticmethod(watched))

    def refused(*_args, **_kwargs):
        seen("biprojection_lattice")

    for module in (biprox, biprox.boxalgebra, biprox.cli, biprox.interval, properties):
        monkeypatch.setattr(module, "biprojection_lattice", refused, raising=False)


def test_verify_theorems_builds_no_group_or_context(monkeypatch):
    # Every interval, (Z~)'s and the top part's included, is read by its
    # endpoints in the group's lattice: no lattice is built either, and
    # biprojection_lattice is not called.  Q8 is Dedekind, so its battery
    # runs property_Z_tilde.
    contexts = [s4_over("(1,2)"), trivial_ctx("Q8"), trivial_ctx("D8")]
    for ctx in contexts:
        ctx.node

    def refuse(*_args, **_kwargs):
        raise AssertionError("a group, a context or a lattice was built")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    monkeypatch.setattr(BoxContext, "__init__", refuse)
    _watch_lattice_builds(monkeypatch, refuse)
    for ctx in contexts:
        assert all(r.holds for r in verify_theorems(ctx))
        lat, i = ctx.node
        for k in np.flatnonzero(lat.leq[i]):
            lw_rw_cyclic(ctx, lat.payload[k])


# -- side-cyclicity and the compressed reductions ----------------------------


def _lin_prim(group, sub) -> bool:
    return linearly_primitive_block_by_stabilizers(Inclusion(group, sub)) is not None


def test_lw_rw_against_fixed_space_stabilizers():
    """lw/rw run on compressed contexts; the fixed-space stabilizer route
    computes the same answers through representations instead of coproduct
    closures."""
    for ctx in (trivial_ctx("S3"), s4_over("(1,2)")):
        from biprox.boxalgebra import biprojection_lattice

        for k in biprojection_lattice(ctx).payload:
            got = lw_rw_cyclic(ctx, k)
            kg = FiniteGroup(k.perms())
            h_in_k = Subgroup(kg, ctx.sub.mask[k.indices])
            assert got["lw"] == _lin_prim(kg, h_in_k), (ctx, k.order)
            assert got["rw"] == _lin_prim(ctx.group, k), (ctx, k.order)


def test_lw_rw_trivial_ends():
    ctx = s4_over("(1,2)")
    assert lw_rw_cyclic(ctx, ctx.sub)["lw"] is True  # u = e1 settles K = H
    assert lw_rw_cyclic(ctx, ctx.group.full_subgroup())["rw"] is True  # K = G


def test_lw_at_intermediate_s3_matches_small_context():
    g = catalog_group("S4")
    ctx = BoxContext(g, g.trivial_subgroup())
    k = subgroup_from_perms(
        g, [parse_cycles("(1,2)", g.degree), parse_cycles("(2,3)", g.degree)]
    )
    assert k.order == 6
    got = lw_rw_cyclic(ctx, k)
    assert got["lw"] == (is_w_cyclic(trivial_ctx("S3")) is not None)
    assert got["lw"] is True


def test_lw_rw_requires_nesting():
    ctx = s4_over("(1,2)")
    stray = subgroup_from_perms(ctx.group, [parse_cycles("(3,4)", ctx.group.degree)])
    with pytest.raises(NotNested):
        lw_rw_cyclic(ctx, stray)
    # H = <(1,2)> and two more transpositions: four members over H, a count
    # that divides 24, but no subgroup, so no node of [H, G].
    g = ctx.group
    mask = ctx.sub.mask.copy()
    mask[[g.index_of(parse_cycles(c, g.degree)) for c in ("(1,3)", "(1,4)")]] = True
    with pytest.raises(ValueError, match="not a subgroup between"):
        lw_rw_cyclic(ctx, Subgroup(g, mask))


# -- w+, sums, and the group-side cross-checks --------------------------------


def test_w_plus_known_values():
    # S3: the three reflection lines span the 2-dim block and the sign
    # block restricts trivially to the order-3 subgroup, so every block
    # meets some maximal biprojection -> not w+.
    assert not w_plus_cyclic(trivial_ctx("S3"))
    # Q8: the 2-dim block has no fixed vector for the central order-2
    # subgroup, the unique maximal biprojection -> w+.
    assert w_plus_cyclic(trivial_ctx("Q8"))
    # Z12: a faithful character is nontrivial on both prime subgroups, so
    # its block is orthogonal to both maximal biprojections -> w+.
    assert w_plus_cyclic(trivial_ctx("Z12"))
    assert w_plus_cyclic(s4_over("(1,2)"))
    assert not w_plus_cyclic(s4_over("(1,2)(3,4)"))


def test_w_plus_complement_structure():
    """When w+ holds, the complement of range(sum of maximal biprojections)
    is a nonzero projection orthogonal to every maximal biprojection and
    generating id; otherwise the range is exactly id."""
    from biprox.boxalgebra import (
        generate_biprojection,
        id_element,
        is_projection,
        mul,
        range_projection,
    )

    for ctx in (trivial_ctx("S3"), trivial_ctx("Q8"), trivial_ctx("Z12"),
                s4_over("(1,2)")):
        bs = [element_bK(ctx, k) for k in maximal_biprojections(ctx)]
        total = bs[0]
        for elem in bs[1:]:
            total = total + elem
        reach = range_projection(total)
        if w_plus_cyclic(ctx):
            comp = id_element(ctx) - reach
            assert is_projection(comp)
            for elem in bs:
                assert mul(comp, elem).norm_max() < 1e-9
            assert generate_biprojection(comp).subgroup == ctx.sub
        else:
            assert reach.isclose(id_element(ctx))


def test_dual_w_cyclicity_matches_single_coset_generation():
    # dual side w-cyclic iff one double-coset indicator generates the dual
    # id, closed under the dual coproduct; the witness is the first such coset
    for ctx in (trivial_ctx("Z6"), trivial_ctx("S3"), s4_over("(1,2)"),
                s4_over("(1,2)(3,4)")):
        generating = [
            c for c in range(ctx.dim)
            if generate_biprojection_dual(ctx, c)[1].order == ctx.group.order
        ]
        assert is_w_cyclic_dual(ctx) == (generating[0] if generating else None)


# -- implications -------------------------------------------------------------


def test_implication_battery_holds_on_sample():
    cases = [trivial_ctx("S3"), trivial_ctx("Q8"), trivial_ctx("Z30"),
             trivial_ctx("D8"), trivial_ctx("A4"),
             s4_over("(1,2)"), s4_over("(1,2)(3,4)")]
    for ctx in cases:
        rows = verify_theorems(ctx)
        assert len(rows) == 10
        bad = [t.name for t in rows if not t.holds]
        assert not bad, (ctx, bad)


def test_cyclic_forces_w_cyclic_in_classify():
    # the invariant is enforced inside classify; a legitimate input can
    # never trip it, so it is only observable as a clean pass here
    r = classify(trivial_ctx("Z12"))
    assert r.cyclic and r.w_cyclic


# -- chain lengths ------------------------------------------------------------


def test_lengths_s3():
    got = lengths(trivial_ctx("S3"), which=("cl", "wcl", "dl", "tcl", "tb4l"))
    assert got["cl"] == 2 and got["wcl"] == 1 and got["dl"] == 2
    assert got["wcl"] <= got["tcl"] <= got["cl"]
    assert got["wcl"] <= got["tb4l"]


def test_dl_s4_is_two():
    got = lengths(trivial_ctx("S4"), which=("dl",))
    assert got["dl"] == 2


def test_lengths_elementary_abelian_rank_three():
    # (Z/2)^3: every chain needs three steps and three generating blocks;
    # a multi-step interval is a subspace lattice of rank >= 2, which is
    # not boolean, so the boolean-step chains also need three cover steps
    got = lengths(trivial_ctx("E8"), which=("cl", "wcl", "dl", "bbl", "tbl"))
    assert got == {"cl": 3, "wcl": 3, "dl": 3, "bbl": 3, "tbl": 3}


def test_chain_inequalities():
    for name in catalog_names():
        got = lengths(trivial_ctx(name), which=("cl", "wcl", "tcl", "tb4l"))
        assert got["wcl"] <= got["tcl"] <= got["cl"], name
        assert got["wcl"] <= got["tb4l"], name


def _oracle_kernel_cover(group) -> int:
    """The fewest irreducible characters whose kernels meet in {1}: read
    each kernel off the character table (chi(g) = chi(1)), then intersect
    level by level; level l holds every meet of l kernels, repeats allowed."""
    table = group.character_table()
    kernels = np.abs(table - table[:, [group.identity_index]]) < 1e-6
    level, size = {np.ones(group.order, dtype=bool).tobytes()}, 0
    while group.trivial_subgroup().mask.tobytes() not in level:
        level = {(np.frombuffer(m, dtype=bool) & k).tobytes() for m in level for k in kernels}
        size += 1
    return size


def test_wcl_is_the_fewest_kernels_meeting_in_the_identity():
    # For H = {1} the block subgroup of chi is ker chi, so wcl(G, {1}) is the
    # paper's representation count: the fewest irreducible representations
    # whose kernels meet in {1}.
    for name in catalog_names():
        ctx = trivial_ctx(name)
        assert wcl_generators(ctx) == _oracle_kernel_cover(ctx.group), name


def test_trivial_context_lengths_and_report():
    g = catalog_group("Z2")
    ctx = BoxContext(g, g.full_subgroup())
    r = classify(ctx)
    assert r.cyclic and r.w_cyclic and r.w_plus_cyclic
    assert r.sum_bound == 0
    assert r.lengths == {"cl": 0, "wcl": 0, "dl": 0}


def test_wcl_not_determined_past_cap():
    # E32/{1}: every block kernel has index 2, so id needs five blocks; the
    # search has no cap, and the answer is an int.
    gens = parse_generators("(1,2);(3,4);(5,6);(7,8);(9,10)")
    g = group_closure(gens, name="elementary 32")
    ctx = BoxContext(g, g.trivial_subgroup())
    assert wcl_generators(ctx) == 5


def test_wcl_exact_on_rank_two():
    ctx = trivial_ctx("V4")
    assert wcl_generators(ctx) == 2


def test_unknown_length_name_rejected():
    # a cap of 0 admits no step at all, and a leading zero is not a new name
    for name in ("ql", "tb0l", "bb0l", "tb01l"):
        with pytest.raises(ValueError):
            lengths(trivial_ctx("S3"), which=(name,))


# The step-context route: every step interval [b_outer, b_inner] is rebuilt
# as a 2-box context of its own (a fresh group, lattice and algebra), and
# Dedekind-ness is read off is_normal_biprojection, which for trivial H also
# checks normality spectrally.  An independent oracle for lengths().


def _oracle_cyclic(ctx: BoxContext) -> bool:
    lat = biprojection_lattice(ctx)
    return is_distributive(lat) and all(
        is_normal_biprojection(element_bK(ctx, k)) for k in lat.payload
    )


def _oracle_bottom_context(ctx: BoxContext) -> BoxContext:
    full = ctx.group.full_subgroup()
    proper = [s for s in interval_subgroups(ctx.sub, ctx.group) if s < full]
    maxes = [s for s in proper if not any(s < t for t in proper)]
    if not maxes:
        return ctx
    inter = ctx.group.subgroup_from_mask(np.logical_and.reduce([k.mask for k in maxes]))
    return compress_upper(ctx, inter).small


def _oracle_step_predicate(name: str):
    if name == "cl":
        return _oracle_cyclic
    if name == "dl":
        return lambda c: is_distributive(biprojection_lattice(c))
    pick = top_context if name[0] == "t" else _oracle_bottom_context
    if name[1] == "c":
        return lambda c: _oracle_cyclic(pick(c))
    cap = int(name[2:-1]) if name[2:-1] else None

    def pred(c: BoxContext) -> bool:
        rank = boolean_rank(biprojection_lattice(pick(c)))
        return rank is not None and (cap is None or rank <= cap)

    return pred


def _oracle_length(ctx: BoxContext, name: str) -> int:
    pred = _oracle_step_predicate(name)
    lat = biprojection_lattice(ctx)
    subs = lat.payload
    dist = {lat.bottom: 0}
    queue = deque([lat.bottom])
    while lat.top not in dist:
        a = queue.popleft()
        for b in range(lat.n):
            if b != a and lat.leq[a, b] and b not in dist:
                if pred(step_context(ctx, subs[a], subs[b])):
                    dist[b] = dist[a] + 1
                    queue.append(b)
    return dist[lat.top]


STEP_NAMES = ("cl", "dl", "tcl", "bcl", "tbl", "bbl", "tb2l", "bb2l")


@pytest.mark.parametrize(
    "ctx_factory",
    [
        *(pytest.param(lambda n=n: trivial_ctx(n), id=f"{n}/1")
          for n in ("S3", "Q8", "D8", "A4", "E8", "Z12", "D6")),
        pytest.param(lambda: s4_over("(1,2)"), id="S4/(1,2)"),
    ],
)
def test_lengths_match_step_context_oracle(ctx_factory):
    ctx = ctx_factory()
    got = lengths(ctx, which=STEP_NAMES)
    assert got == {name: _oracle_length(ctx, name) for name in STEP_NAMES}


@pytest.mark.parametrize("subgroup", ["trivial", "(1,2)"], ids=["S4/1", "S4/(1,2)"])
def test_decisions_run_no_triple_scan(monkeypatch, capsys, subgroup):
    # Distributive and modular are decided by the failure list alone: the
    # triple scans build witnesses only, so no decision path may reach them.
    def scan(lat):
        raise AssertionError("a decision path ran a triple scan")

    monkeypatch.setattr(biprox.lattice, "_failing_distributive_triple", scan)
    monkeypatch.setattr(biprox.lattice, "_failing_modular_triple", scan)
    g = catalog_group("S4")
    sub = g.trivial_subgroup() if subgroup == "trivial" else s4_over(subgroup).sub
    ctx = BoxContext(g, sub)
    report = classify(ctx)
    assert not report.distributive and report.lengths["dl"] >= 1
    assert all(row.holds for row in verify_theorems(ctx))
    assert boolean_rank(biprojection_lattice(ctx)) is None
    assert not ore_verify(Inclusion(g, sub)).distributive
    for command in ("lattice", "analyze"):
        args = [command, "--group", "S4", "--subgroup", subgroup, "--format", "json"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)
    with pytest.raises(AssertionError, match="triple scan"):
        biprox.lattice.forbidden_sublattice(biprojection_lattice(ctx))


def test_lengths_match_interval_route_on_census_classes():
    # One representative of each census equivalence class: every step name
    # read off the distributive-interval table against the step lattices it
    # replaced.
    names = STEP_NAMES + ("tb4l", "bb4l")
    classes = equivalence_classes(enumerate_pairs())
    for cls in classes:
        label, inc = cls[0]
        ctx = BoxContext(inc.group, inc.sub)
        lat = biprojection_lattice(ctx)
        expected = {name: interval_route_length(lat, name) for name in names}
        assert lengths(ctx, which=names) == expected, label
    assert len(classes) == 142


@pytest.mark.parametrize("subgroup", [None, "(1,2)"], ids=["S4/1", "S4/(1,2)"])
def test_lengths_builds_no_step_lattice(monkeypatch, subgroup):
    # Every step, its top and bottom parts included, reads the table of the
    # group's lattice by its endpoints: no lattice is built, and
    # biprojection_lattice is not called.
    ctx = trivial_ctx("S4") if subgroup is None else s4_over(subgroup)
    lat = biprojection_lattice(ctx)
    names = STEP_NAMES + ("tb4l", "bb4l")
    expected = {name: interval_route_length(lat, name) for name in names}
    expected["wcl"] = wcl_generators(ctx)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        _watch_lattice_builds(patch, calls.append)
        assert lengths(ctx, which=tuple(expected)) == expected
    assert calls == []
    assert lat is biprojection_lattice(ctx)


ALL_NAMES = ("cl", "wcl", "dl", "tcl", "bcl", "tbl", "bbl", "tb2l", "bb2l", "tb4l", "bb4l")


@pytest.mark.parametrize(
    "spec",
    ["perm:(1,2,3);(2,3,4,5,6)", "perm:(1,2);(3,4);(5,6);(7,8);(9,10)"],
    ids=["A6/1", "E32/1"],
)
def test_lengths_match_closure_route_near_the_cap(spec):
    # All eleven names from boolean step rows against the per-pair closures
    # they replaced, on A6 (501 nodes, 2,343 distributive steps with an inner
    # not normal in its outer) and E32 (374 nodes, every subgroup normal).
    g = parse_group_spec(spec)
    ctx = BoxContext(g, g.trivial_subgroup())
    expected = {name: closure_route_length(ctx, name) for name in ALL_NAMES}
    assert lengths(ctx, which=ALL_NAMES) == expected


def test_step_dedekind_runs_once_per_part(monkeypatch):
    # bcl meets some bottom parts from more than one step, and cl, tcl and
    # bcl share parts: on A6/{1} each part takes the double-coset test once
    # per context (bcl alone took 189 tests of 133 parts, the three 796 of 474).
    g = parse_group_spec("perm:(1,2,3);(2,3,4,5,6)")
    ctx = BoxContext(g, g.trivial_subgroup())
    calls = []
    real = properties._step_dedekind
    monkeypatch.setattr(
        properties, "_step_dedekind", lambda lat, lo, hi: calls.append((lo, hi)) or real(lat, lo, hi)
    )
    assert lengths(ctx, which=("bcl",)) == {"bcl": 2}
    assert len(calls) == len(set(calls)) == 133
    assert lengths(ctx, which=("cl", "tcl", "bcl")) == {"cl": 3, "tcl": 2, "bcl": 2}
    assert len(calls) == len(set(calls)) == 474


def test_step_rows_match_per_pair_parts_on_census_classes():
    # For every a and every b > a at once: the row-wise parts and atom counts
    # against the per-pair folds, and the normaliser relation against
    # conjugation, on one representative of each census class.
    for cls in equivalence_classes(enumerate_pairs()):
        label, inc = cls[0]
        ctx = BoxContext(inc.group, inc.sub)
        lat, top = _biprojections(ctx)
        for a in np.flatnonzero(lat.leq[:, top]):
            above = np.flatnonzero(lat.leq[a] & lat.leq[:, top])
            lo, hi, k = properties._step_parts(lat, "t", a, above)
            assert lo.tolist() == [top_part(lat, a, b) for b in above], label
            assert hi.tolist() == above.tolist()
            coatoms = [np.count_nonzero(lat.covers()[:, b] & lat.leq[a]) for b in above]
            assert k.tolist() == coatoms, label
            if a != top:  # a popped node is below the top
                lo, hi, k = properties._step_parts(lat, "b", a, above)
                assert lo.tolist() == [a] * len(above), label
                assert hi.tolist() == [bottom_part(lat, a, b) for b in above], label
                atoms = [np.count_nonzero(lat.covers()[a] & lat.leq[:, b]) for b in above]
                assert k.tolist() == atoms, label
            outer = lat.payload[a]
            normal = [
                bool((lat.payload[b].conjugates()[outer.indices] == lat.payload[b].mask).all())
                for b in above
            ]
            assert [outer <= lat.payload[b].normaliser for b in above] == normal, label


def _count_double_cosets(monkeypatch) -> list:
    calls = []
    original = permgroup_module.double_coset_labels

    def counting(a, b):
        calls.append((a.order, b.order))
        return original(a, b)

    monkeypatch.setattr(permgroup_module, "double_coset_labels", counting)
    return calls


def test_cl_puts_no_normal_inner_step_to_double_cosets(monkeypatch):
    # Every subgroup of E32 is normal, so Ore's theorem decides every cyclic
    # step by its distributive-interval entry alone.
    g = parse_group_spec("perm:(1,2);(3,4);(5,6);(7,8);(9,10)")
    ctx = BoxContext(g, g.trivial_subgroup())
    calls = _count_double_cosets(monkeypatch)
    assert lengths(ctx, which=("cl", "tcl", "bcl")) == {"cl": 5, "tcl": 5, "bcl": 5}
    assert calls == []


def test_cl_puts_a_non_normal_inner_step_to_double_cosets(monkeypatch):
    # S3 over <(1,2)>: the one step [S3, <(1,2)>] is a 2-element chain, so
    # distributive, and its inner is not normal in S3: it takes the
    # double-coset test, HgK = KgH for its two members K.
    g = catalog_group("S3")
    ctx = BoxContext(g, subgroup_from_perms(g, [parse_cycles("(1,2)", g.degree)]))
    calls = _count_double_cosets(monkeypatch)
    assert lengths(ctx, which=("cl",)) == {"cl": 1}
    assert sorted(calls) == [(2, 2), (2, 2), (2, 6), (6, 2)]


# -- witnesses and report shape ----------------------------------------------


def test_w_cyclic_witness_is_minimal_projection():
    w = is_w_cyclic(trivial_ctx("S3"))
    assert w is not None
    assert is_projection(w)
    assert is_minimal(w)


def test_step_context_full_interval_matches():
    ctx = s4_over("(1,2)")
    full = step_context(ctx, ctx.group.full_subgroup(), ctx.sub)
    assert full.group.order == ctx.group.order
    assert full.sub.order == ctx.sub.order
    assert is_cyclic(full) == is_cyclic(ctx)


def test_classify_json_shape_and_determinism():
    d1 = json.dumps(classify(trivial_ctx("S3")).to_json_dict())
    d2 = json.dumps(classify(trivial_ctx("S3")).to_json_dict())
    assert d1 == d2
    keys = list(json.loads(d1).keys())
    assert keys == [
        "context", "group_order", "sub_order", "distributive", "dedekind",
        "cyclic", "w_cyclic", "w_plus_cyclic", "Z", "ZZ", "F2",
        "w_cyclic_dual", "sum_bound", "witnesses", "lengths",
    ]
    assert json.loads(d1)["sum_bound"] == "11/6"


def test_dedekind_iff_all_normal():
    assert is_dedekind(trivial_ctx("Q8"))
    assert not is_dedekind(trivial_ctx("S3"))
    assert is_dedekind(trivial_ctx("Z12"))
