"""Tests for the 2-box algebra engine.

Oracle notes:

* Block traces for S3 over {1}: the group algebra splits as
  C + C + M2(C) with block dimensions n_i = 1, 1, 2, and the normalized
  trace of a block identity is n_i^2/|G|, giving {1/6, 1/6, 4/6}.
* Block traces for S4 over <(1,2)>: blocks correspond to irreducible
  representations V with V^H != 0; dim V^H = 1, 2, 1, 1 for the trivial,
  standard, standard-tensor-sign and 2-dimensional representations, and
  the trace of a block identity is n_i.dim(V_i^H).|H|/|G|, giving
  {1/12, 1/2, 1/4, 1/6} (hand computation from the character table).
* trace R(b_K + b_L) for K = <(12)>, L = <(123)> in S3: the ranges are
  the left-invariant subspaces K\\G and L\\G of dimensions 3 and 2 whose
  intersection is the constants, so the rank is 3 + 2 - 1 = 4 and the
  normalized trace is 4/6 = 2/3; cross-checked below against an
  independent SVD of the stacked column spaces.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from biprox import boxalgebra as bx
from biprox import permgroup
from biprox.catalog import catalog_group, catalog_names, parse_subgroup_spec
from biprox.cli import main
from biprox.errors import (
    BasisNotSpanning,
    BiprojectionCheckFailed,
    ContextMismatch,
    NotABiprojection,
    NotNested,
    NotPositive,
    NotTrivialH,
    NumericRankAmbiguous,
)
from biprox.permgroup import ZERO_TOL, FiniteGroup, Subgroup, parse_cycles, subgroup_generated
from biprox.properties import dual_coproduct_center_basis
from biprox import reference_tables as ref
from spectral_oracle import (
    canonical_key,
    center_dimension,
    central_support,
    compress_lower,
    compress_upper,
    generate_biprojection_spectral,
    generate_from_set,
    is_normal_biprojection,
    minimal_central_projections_spectral,
)


def make_sub(group, *cycles):
    gens = np.array([group.index_of(parse_cycles(c, degree=group.degree)) for c in cycles])
    return subgroup_generated(group, gens)


def _biprojections(ctx):
    """(K, b_K) for every node of the biprojection lattice, in node order."""
    return [(k, bx.element_bK(ctx, k)) for k in bx.biprojection_lattice(ctx).payload]


@pytest.fixture(scope="module")
def ctx_s3():
    return ref.s3_context()


@pytest.fixture(scope="module")
def ctx_s4s2():
    return ref.s2_s4_context()


@pytest.fixture(scope="module")
def ctx_z6():
    group = catalog_group("Z6")
    return bx.BoxContext(group, group.trivial_subgroup())


# ---------------------------------------------------------------- contexts


def test_context_parameters(ctx_s3, ctx_s4s2):
    assert ctx_s3.delta == pytest.approx(np.sqrt(6))
    assert ctx_s3.kappa == pytest.approx(np.sqrt(6))
    assert ctx_s3.dim == 6
    assert ctx_s4s2.delta == pytest.approx(np.sqrt(12))
    assert ctx_s4s2.kappa == pytest.approx(np.sqrt(48))
    assert ctx_s4s2.dim == 7


def test_context_rejects_foreign_subgroup():
    s3 = catalog_group("S3")
    s4 = catalog_group("S4")
    with pytest.raises(NotNested):
        bx.BoxContext(s4, s3.trivial_subgroup())


def test_trace_conventions(ctx_s3, ctx_s4s2):
    for ctx in (ctx_s3, ctx_s4s2):
        assert bx.trace(bx.id_element(ctx)) == pytest.approx(1.0)
        assert bx.trace(bx.e1(ctx)) == pytest.approx(1.0 / ctx.delta**2)


def test_element_pi_requires_trivial_subgroup(ctx_s4s2):
    with pytest.raises(NotTrivialH):
        bx.element_pi(ctx_s4s2, 0)


def test_element_bK_requires_nesting(ctx_s4s2):
    s4 = ctx_s4s2.group
    k = make_sub(s4, "(1,2,3)")  # does not contain (1,2)
    with pytest.raises(NotNested):
        bx.element_bK(ctx_s4s2, k)


def test_membership_invariant(ctx_s4s2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = bx.random_element(ctx_s4s2, rng)
        assert bx.in_algebra(x)


def test_context_mismatch_raises(ctx_s3, ctx_z6):
    with pytest.raises(ContextMismatch):
        bx.mul(bx.e1(ctx_s3), bx.e1(ctx_z6))


# ------------------------------------------------------------ ring structure


def test_pi_is_multiplicative(ctx_s3):
    group = ctx_s3.group
    for g in range(6):
        for h in range(6):
            prod = bx.mul(bx.element_pi(ctx_s3, g), bx.element_pi(ctx_s3, h))
            expected = bx.element_pi(ctx_s3, int(group.cayley[g, h]))
            assert prod.isclose(expected)


def test_star_and_contragredient_are_antimultiplicative(ctx_s3, ctx_s4s2):
    rng = np.random.default_rng(1)
    for ctx in (ctx_s3, ctx_s4s2):
        a = bx.random_element(ctx, rng)
        b = bx.random_element(ctx, rng)
        scale = max(a.norm_max(), b.norm_max()) ** 2 * ctx.group.order
        assert bx.star(bx.mul(a, b)).isclose(bx.mul(bx.star(b), bx.star(a)), scale=scale)
        assert bx.contragredient(bx.mul(a, b)).isclose(
            bx.mul(bx.contragredient(b), bx.contragredient(a)), scale=scale
        )
        assert bx.star(bx.coproduct(a, b)).isclose(
            bx.coproduct(bx.star(a), bx.star(b)), scale=scale * ctx.kappa
        )
        assert bx.contragredient(bx.contragredient(a)).isclose(a)
        assert bx.star(bx.star(a)).isclose(a)


def test_inner_product_positivity(ctx_s4s2):
    rng = np.random.default_rng(2)
    x = bx.random_element(ctx_s4s2, rng)
    val = bx.inner(x, x)
    assert val.imag == pytest.approx(0.0, abs=1e-9)
    assert val.real > 0
    y = bx.random_element(ctx_s4s2, rng)
    assert bx.inner(x, y) == pytest.approx(np.conj(bx.inner(y, x)))


# ----------------------------------------------------------------- coproduct


def test_coproduct_scalings(ctx_s3, ctx_s4s2):
    rng = np.random.default_rng(3)
    for ctx in (ctx_s3, ctx_s4s2):
        x = bx.random_element(ctx, rng)
        assert bx.coproduct(x, bx.e1(ctx)).isclose(x * (1 / ctx.delta))
        expected = bx.id_element(ctx) * (ctx.delta * bx.trace(x))
        assert bx.coproduct(x, bx.id_element(ctx)).isclose(expected, scale=abs(bx.trace(x)) * ctx.delta)
        # commutativity
        y = bx.random_element(ctx, rng)
        assert bx.coproduct(x, y).isclose(bx.coproduct(y, x), scale=ctx.kappa)


def test_coproduct_of_pi_elements(ctx_s3):
    for g in range(6):
        for h in range(6):
            out = bx.coproduct(bx.element_pi(ctx_s3, g), bx.element_pi(ctx_s3, h))
            if g == h:
                assert out.isclose(bx.element_pi(ctx_s3, g) * ctx_s3.delta)
            else:
                assert out.norm_max() < 1e-12


def test_trace_of_coproduct_multiplicative(ctx_s3, ctx_s4s2):
    rng = np.random.default_rng(4)
    for ctx in (ctx_s3, ctx_s4s2):
        a = bx.random_element(ctx, rng)
        b = bx.random_element(ctx, rng)
        assert bx.trace(bx.coproduct(a, b)) == pytest.approx(
            ctx.delta * bx.trace(a) * bx.trace(b)
        )


def test_inner_product_lemma(ctx_s3, ctx_s4s2):
    # e1 . (a * conj(b)) = delta <a|b> e1 with conj(b) = star(contragredient(b))
    rng = np.random.default_rng(5)
    for ctx in (ctx_s3, ctx_s4s2):
        a = bx.random_element(ctx, rng)
        b = bx.random_element(ctx, rng)
        bbar_star = bx.star(bx.contragredient(b))
        lhs = bx.mul(bx.e1(ctx), bx.coproduct(a, bbar_star))
        rhs = bx.e1(ctx) * (ctx.delta * bx.inner(a, b))
        assert lhs.isclose(rhs, scale=abs(bx.inner(a, b)) * ctx.delta)


def test_coproduct_preserves_positivity(ctx_s3, ctx_s4s2):
    rng = np.random.default_rng(6)
    for ctx in (ctx_s3, ctx_s4s2):
        for _ in range(3):
            a = bx.random_element(ctx, rng, positive=True)
            b = bx.random_element(ctx, rng, positive=True)
            w = np.linalg.eigvalsh(bx.left_regular_matrix(bx.coproduct(a, b)))
            assert w.min() > -1e-9 * max(1.0, w.max())


def test_biprojection_coproduct_identity(ctx_s3, ctx_s4s2):
    # b_K * b_K = delta tr(b_K) b_K for every biprojection
    for ctx in (ctx_s3, ctx_s4s2):
        for k, bk in _biprojections(ctx):
            expected = bk * (ctx.delta * bx.trace(bk))
            assert bx.coproduct(bk, bk).isclose(expected)


def test_projection_below_biprojection_coproduct(ctx_s3, ctx_s4s2):
    # p <= b implies p * b = delta tr(p) b, over all nested subgroup pairs
    rng = np.random.default_rng(7)
    for ctx in (ctx_s3, ctx_s4s2):
        pairs = _biprojections(ctx)
        for k, bk in pairs:
            for l, bl in pairs:
                if not l <= k:  # b_K <= b_L iff L <= K as subgroups
                    continue
                assert bx.coproduct(bk, bl).isclose(bl * (ctx.delta * bx.trace(bk)))
            # a random projection below b_K
            y = bx.random_element(ctx, rng, positive=True)
            p = bx.range_projection(bx.mul(bx.mul(bk, y), bk))
            assert bx.leq_projection(p, bk)
            assert bx.coproduct(p, bk).isclose(
                bk * (ctx.delta * bx.trace(p)), scale=ctx.delta
            )


def test_exchange_relation(ctx_s3, ctx_s4s2):
    rng = np.random.default_rng(8)
    for ctx in (ctx_s3, ctx_s4s2):
        for _, b in _biprojections(ctx):
            a1 = bx.random_element(ctx, rng)
            a2 = bx.random_element(ctx, rng)
            ba2b = bx.mul(bx.mul(b, a2), b)
            lhs = bx.coproduct(bx.mul(bx.mul(b, a1), b), ba2b)
            rhs = bx.mul(bx.mul(b, bx.coproduct(a1, ba2b)), b)
            scale = ctx.kappa * max(a1.norm_max(), 1) * max(a2.norm_max(), 1)
            assert lhs.isclose(rhs, scale=scale)


# ----------------------------------------------------------- range structure


def test_range_projection_fixes_projections(ctx_s3, ctx_s4s2):
    for ctx in (ctx_s3, ctx_s4s2):
        for _, bk in _biprojections(ctx):
            assert bx.range_projection(bk).isclose(bk)
            assert bx.range_projection(bk * 3.7).isclose(bk)


def test_range_projection_of_biprojection_sum(ctx_s3):
    # trace R(b_K + b_L) = 2/3 for K = <(12)>, L = <(123)>: rank 3 + 2 - 1.
    s3 = ctx_s3.group
    bk = bx.element_bK(ctx_s3, make_sub(s3, "(1,2)"))
    bl = bx.element_bK(ctx_s3, make_sub(s3, "(1,2,3)"))
    r = bx.range_projection(bk + bl)
    assert bx.trace(r).real == pytest.approx(2 / 3)
    # independent oracle: SVD of the stacked column spaces
    cols = np.hstack([bx.left_regular_matrix(bk), bx.left_regular_matrix(bl)])
    u, s, _ = np.linalg.svd(cols)
    rank = int((s > 1e-9 * s.max()).sum())
    assert rank == 4
    p_mat = u[:, :rank] @ u[:, :rank].conj().T
    assert np.abs(p_mat - bx.left_regular_matrix(r)).max() < 1e-9


def test_range_projection_rejects_non_positive(ctx_s3):
    with pytest.raises(NotPositive):
        bx.range_projection(bx.id_element(ctx_s3) * -1.0)
    with pytest.raises(NotPositive):  # not even self-adjoint
        bx.range_projection(bx.element_pi(ctx_s3, 1))


def test_leq_range_on_biprojections_reverses_inclusion(ctx_s3, ctx_s4s2):
    for ctx in (ctx_s3, ctx_s4s2):
        pairs = _biprojections(ctx)
        for k, bk in pairs:
            for l, bl in pairs:
                assert bx.leq_range(bk, bl) == (l <= k)


def test_e1_below_coproduct_squares(ctx_s3):
    projs = bx.minimal_central_projections(ctx_s3)
    one = bx.e1(ctx_s3)
    for p in projs:
        assert bx.leq_range(one, bx.coproduct(p, bx.contragredient(p)))
    # e1 <= p * q-bar iff pq != 0; distinct central projections annihilate
    p, q = projs[0], projs[1]
    assert bx.mul(p, q).norm_max() < 1e-9
    assert not bx.leq_range(one, bx.coproduct(p, bx.contragredient(q)))


# ------------------------------------------------------------- biprojections


def test_is_biprojection_identifies_subgroups(ctx_s3, ctx_s4s2):
    for ctx in (ctx_s3, ctx_s4s2):
        for k, bk in _biprojections(ctx):
            found = bx.is_biprojection(bk)
            assert found is not None and found == k


def test_is_biprojection_rejects(ctx_s3):
    # a projection that is not group-like
    projs = bx.minimal_central_projections(ctx_s3)
    small = [p for p in projs if abs(bx.trace(p).real - 1 / 6) < 1e-9]
    nontrivial = [p for p in small if p.coeffs.real.min() < 0]
    assert len(nontrivial) == 1  # the alternating-character projection
    assert bx.is_biprojection(nontrivial[0]) is None
    with pytest.raises(NotABiprojection):
        bx.is_biprojection(bx.element_pi(ctx_s3, 1))


def test_normal_biprojection_matches_centrality(ctx_s3):
    # for a trivial subgroup: b_K normal iff K normal iff b_K central
    for k, bk in _biprojections(ctx_s3):
        assert is_normal_biprojection(bk) == k.is_normal()
        assert bx.is_central(bk) == k.is_normal()


def test_biprojection_lattice_shape(ctx_s3, ctx_s4s2):
    lat3 = bx.biprojection_lattice(ctx_s3)
    assert lat3.n == 6
    lat3.validate()  # raises on any lattice-axiom failure
    # bottom is e1 = b_G, top is id = b_H
    bottom_sub = lat3.payload[lat3.bottom]
    top_sub = lat3.payload[lat3.top]
    assert bottom_sub.order == 6 and top_sub.order == 1
    lat42 = bx.biprojection_lattice(ctx_s4s2)
    assert lat42.n == 6  # orders 2,4,6,6,8,24 between <(12)> and S4
    assert lat42.payload[lat42.bottom].order == 24


def test_generate_from_biprojections(ctx_s3, ctx_s4s2):
    for ctx in (ctx_s3, ctx_s4s2):
        for k, bk in _biprojections(ctx):
            gen = bx.generate_biprojection(bk)
            assert gen.subgroup == k
            assert gen.element.isclose(bk)


def test_generate_from_sign_projection(ctx_s3):
    # the alternating-character projection has coefficients sgn(g)/6 and
    # its translation stabilizer is A3, so it generates b_A3
    s3 = ctx_s3.group
    sgn = np.array(
        [1.0 if all(len(c) != 2 for c in p.cycles()) else -1.0 for p in s3.elements]
    )
    p = bx.BoxElement(ctx_s3, sgn / 6.0)
    assert bx.is_projection(p) and bx.is_minimal(p)
    gen = bx.generate_biprojection(p)
    assert gen.subgroup == make_sub(s3, "(1,2,3)")


def test_generate_from_set_joins(ctx_s3):
    s3 = ctx_s3.group
    sgn = np.array(
        [1.0 if all(len(c) != 2 for c in p.cycles()) else -1.0 for p in s3.elements]
    )
    p_sgn = bx.BoxElement(ctx_s3, sgn / 6.0)
    b_s2 = bx.element_bK(ctx_s3, make_sub(s3, "(1,2)"))
    gen = generate_from_set([p_sgn, b_s2])
    # the join of b_A3 and b_S2 is b_{A3 meet S2} = b_{e} = id
    assert gen.subgroup.order == 1
    assert gen.element.isclose(bx.id_element(ctx_s3))


def test_generate_rejects_bad_input(ctx_s3):
    with pytest.raises(NotPositive):
        bx.generate_biprojection(bx.BoxElement(ctx_s3, np.zeros(6)))
    with pytest.raises(NotPositive):
        bx.generate_biprojection(bx.e1(ctx_s3) * -1.0)
    # pi(g) for g of order 3 is not self-adjoint: pi(g)* = pi(g^-1)
    g = ctx_s3.group.index_of(parse_cycles("(1,2,3)", degree=ctx_s3.group.degree))
    with pytest.raises(NotPositive, match="self-adjoint"):
        bx.generate_biprojection(bx.element_pi(ctx_s3, g))


@functools.lru_cache(maxsize=None)
def _oracle_context(name: str) -> bx.BoxContext:
    if name == "S4/(1,2)":
        return ref.s2_s4_context()
    group_name, _, sub = name.partition("/")
    group = catalog_group(group_name)
    return bx.BoxContext(group, parse_subgroup_spec(group, sub or "trivial"))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["S3", "Q8", "D8", "A4", "S4/(1,2)"]),
    st.sampled_from(["compressed", "central"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generate_matches_spectral_oracle(name, family, seed):
    """The stabilizer route agrees with the spectral closure it replaced.

    Families: x = b_K.(y*y).b_K for a random K in [H, G] and random y, and
    sums of random nonempty sets of minimal central projections. Draws on
    which the oracle cannot decide a rank are skipped and counted as a
    hypothesis event.

    A positive x is self-adjoint, and for self-adjoint x the left and right
    translation stabilizers coincide, so the stabilizer itself is also
    checked on the non-self-adjoint b_K.y, whose left stabilizer is K.
    """
    ctx = _oracle_context(name)
    rng = np.random.default_rng(seed)
    if family == "compressed":
        subs = bx.biprojection_lattice(ctx).payload
        k = subs[rng.integers(len(subs))]
        bk = bx.element_bK(ctx, k)
        y = bx.random_element(ctx, rng)
        assert np.array_equal(bx.left_stabilizer(bx.mul(bk, y)), k.mask)
        x = bx.mul(bx.mul(bk, bx.mul(bx.star(y), y)), bk)
    else:
        projs = bx.minimal_central_projections(ctx)
        chosen = rng.random(len(projs)) < 0.5
        chosen[rng.integers(len(projs))] = True
        x = sum((p for p, keep in zip(projs, chosen) if keep), projs[0] * 0.0)
    try:
        expected = generate_biprojection_spectral(x)
    except NumericRankAmbiguous:
        event("spectral oracle: NumericRankAmbiguous")
        assume(False)
    got = bx.generate_biprojection(x)
    assert got.subgroup == expected.subgroup
    assert got.element.isclose(expected.element)


# ------------------------------------------------------ center and minimality


def test_block_count_matches_conjugacy_classes():
    # over the trivial subgroup the blocks are the irreducible characters
    for name, classes in (("S3", 3), ("S4", 5), ("Z6", 6), ("Q8", 5)):
        group = catalog_group(name)
        ctx = bx.BoxContext(group, group.trivial_subgroup())
        assert center_dimension(ctx) == classes
        assert len(np.unique(group.class_labels)) == classes


def test_s3_block_traces(ctx_s3):
    # frozen oracle: n_i^2/|G| for block dimensions 1, 1, 2
    projs = bx.minimal_central_projections(ctx_s3)
    traces = sorted(round(bx.trace(p).real, 9) for p in projs)
    assert traces == pytest.approx([1 / 6, 1 / 6, 4 / 6])


def test_s4s2_block_traces(ctx_s4s2):
    # frozen oracle: n_i.dim(V_i^H).|H|/|G| over blocks with V^H != 0
    projs = bx.minimal_central_projections(ctx_s4s2)
    traces = sorted(round(bx.trace(p).real, 9) for p in projs)
    assert traces == pytest.approx([1 / 12, 1 / 6, 1 / 4, 1 / 2])


def test_minimal_central_projections_structure(ctx_s4s2):
    projs = bx.minimal_central_projections(ctx_s4s2)
    total = projs[0]
    for p in projs[1:]:
        total = total + p
    assert total.isclose(bx.id_element(ctx_s4s2))
    for i, p in enumerate(projs):
        assert bx.is_projection(p)
        assert bx.is_central(p)
        for q in projs[i + 1:]:
            assert bx.mul(p, q).norm_max() < 1e-9


def test_minimal_central_projections_deterministic(ctx_s4s2):
    # a rebuilt group computes its character table anew
    group = FiniteGroup(ctx_s4s2.group.elements)
    fresh = bx.BoxContext(group, Subgroup(group, ctx_s4s2.sub.mask))
    a = bx.minimal_central_projections(ctx_s4s2)
    b = bx.minimal_central_projections(fresh)
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.array_equal(p.coeffs, q.coeffs)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["S3", "Q8", "D8", "A4", "S4/(1,2)", "S4/(1,4)(2,3)"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_blocks_match_spectral_oracle(name, seed):
    """The character-table blocks equal the seeded random split they
    replaced, in the same canonical order. Draws on which the oracle cannot
    decide a rank are skipped and counted as a hypothesis event."""
    ctx = _oracle_context(name)
    try:
        expected = minimal_central_projections_spectral(ctx, seed=seed)
    except NumericRankAmbiguous:
        event("spectral oracle: NumericRankAmbiguous")
        assume(False)
    got = bx.minimal_central_projections(ctx)
    assert len(got) == len(expected)
    for p, q in zip(got, expected):
        assert np.abs(p.coeffs - q.coeffs).max() <= 1e-9


def test_character_tables_verify_on_the_catalog():
    # character_table() raises unless its orthogonality and degree checks pass
    for name in catalog_names():
        group = catalog_group(name)
        table = group.character_table()
        assert table.shape == (len(np.unique(group.class_labels)), group.order)
    s4 = catalog_group("S4")
    assert np.allclose(s4.character_table()[:, s4.identity_index], [1, 1, 2, 3, 3])


def test_subgroup_character_tables_match_standalone_groups():
    # A subgroup's table, read off the parent Cayley table, equals the table
    # of the subgroup rebuilt as a group of its own (same element order).
    for name in ("S4", "D8", "Q8", "SL23"):
        group = catalog_group(name)
        for sub in permgroup.all_subgroups(group):
            table = sub.character_table()
            assert not table[:, ~sub.mask].any()
            own = FiniteGroup(sub.perms()).character_table()
            assert np.abs(table[:, sub.indices] - own).max() <= 1e-12, (name, sub.order)


def test_corrupted_class_matrix_raises(monkeypatch):
    group = FiniteGroup(catalog_group("S4").elements)
    honest = permgroup._class_matrix

    def corrupted(*args):
        a = honest(*args)
        a[0, 0] += 1
        return a

    monkeypatch.setattr(permgroup, "_class_matrix", corrupted)
    with pytest.raises(BiprojectionCheckFailed):
        group.character_table()


def _strictly_ascending(keys) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


def test_block_order_matches_the_per_element_key_on_the_census():
    # The witnesses print block indices: the lexsort over rounded columns
    # must order the blocks exactly as the per-element tuple key did.  Keys
    # that strictly ascend leave no tie for a stable sort to break.  The
    # census holds every corpus pair.
    from biprox.cli import enumerate_pairs

    for _name, inc in enumerate_pairs():
        ctx = bx.BoxContext(inc.group, inc.sub)
        blocks = bx.minimal_central_projections(ctx)
        assert _strictly_ascending([canonical_key(p) for p in blocks]), ctx
    for ctx in (_oracle_context("S4/(1,2)"), _oracle_context("S4")):
        for z in bx.minimal_central_projections(ctx):
            mins = bx.minimal_projections_under(z, seed=3)
            assert _strictly_ascending([canonical_key(q) for q in mins])
    # The same rounded keys in reverse: the sort undoes the reversal.
    blocks = bx.minimal_central_projections(_oracle_context("S4"))
    assert bx._canonical_projection_sort(blocks[::-1]) == blocks


def test_is_minimal(ctx_s3, ctx_s4s2):
    assert bx.is_minimal(bx.e1(ctx_s3))
    assert not bx.is_minimal(bx.id_element(ctx_s3))
    assert not bx.is_minimal(bx.e1(ctx_s3) * 0.0)
    # central projections of trace 1/6 in S3 are minimal, the 2/3 one is not
    for p in bx.minimal_central_projections(ctx_s3):
        assert bx.is_minimal(p) == (bx.trace(p).real < 0.5)


def test_minimal_projections_under_blocks(ctx_s3, ctx_s4s2):
    for ctx in (ctx_s3, ctx_s4s2):
        for z in bx.minimal_central_projections(ctx):
            mins = bx.minimal_projections_under(z)
            total = mins[0]
            for q in mins[1:]:
                total = total + q
            assert total.isclose(z)
            for q in mins:
                assert bx.is_minimal(q)
                assert bx.leq_projection(q, z)
                # the contragredient of a minimal projection is minimal
                assert bx.is_minimal(bx.contragredient(q))


def test_generated_biprojection_constant_on_blocks(ctx_s3, ctx_s4s2):
    # some minimal projection below a minimal central projection generates the
    # same biprojection as the central projection itself; randomly drawn ones
    # do so generically (special lines inside a block can generate less, so
    # only <v> <= <z> is guaranteed per draw)
    for ctx in (ctx_s3, ctx_s4s2):
        for z in bx.minimal_central_projections(ctx):
            target = bx.generate_biprojection(z).subgroup
            drawn = [
                bx.generate_biprojection(q).subgroup
                for q in bx.minimal_projections_under(z)
            ]
            for k in drawn:
                # <q> <= <z> as biprojections, i.e. K_q contains K_z
                assert k.mask[target.indices].all()
            assert any(k == target for k in drawn)


def test_central_support(ctx_s4s2):
    projs = bx.minimal_central_projections(ctx_s4s2)
    for z in projs:
        mins = bx.minimal_projections_under(z)
        for q in mins:
            cs = central_support(q)
            assert cs.isclose(z)


def test_central_coproduct_of_centrals_is_central(ctx_s3):
    # with a trivial subgroup the coproduct of central elements is central
    rng = np.random.default_rng(11)
    projs = bx.minimal_central_projections(ctx_s3)
    for p in projs:
        for q in projs:
            assert bx.is_central(bx.coproduct(p, q))


def _is_central_per_basis(x: bx.BoxElement) -> bool:
    """Centrality by one commutator per basis element (the former loop)."""
    ctx = x.context
    scale = max(1.0, x.norm_max())
    for j in range(ctx.dim):
        dj = bx.BoxElement(ctx, ctx.basis_matrix[j])
        if not bx.mul(x, dj).isclose(bx.mul(dj, x), scale=scale):
            return False
    return True


def _is_dual_coproduct_central_per_basis(d: bx.DualElement) -> bool:
    """Dual coproduct-centrality by one dual_coproduct pair per coset."""
    ctx = d.context
    scale = max(1.0, float(np.abs(d.coeffs).max()))
    for c in range(ctx.dim):
        e_c = bx.dual_basis_element(ctx, c)
        left = bx.dual_coproduct(d, e_c)
        right = bx.dual_coproduct(e_c, d)
        if np.abs(left.coeffs - right.coeffs).max() > ZERO_TOL * scale:
            return False
    return True


# A4 has non-real characters: its class functions are not symmetric under
# g -> g^-1, so a batched product that mixed up g and g^-1 shows there.
@pytest.mark.parametrize("name", ["S3", "Q8", "A4", "S4/(1,2)"])
def test_batched_centrality_matches_per_basis_loop(name):
    ctx = _oracle_context(name)
    rng = np.random.default_rng(5)
    primal = bx.center_basis_elements(ctx)
    primal += [bx.random_element(ctx, rng) for _ in range(4)]
    primal += [bk for _k, bk in _biprojections(ctx)]
    if ctx.sub.order == 1:
        dual = [bx.fourier(x) for x in primal]
    else:
        dual = [bx.collapse_dual(ctx, x.coeffs) for x in primal]
    dual += dual_coproduct_center_basis(ctx)
    primal_answers = [bx.is_central(x) for x in primal]
    dual_answers = [bx.is_dual_coproduct_central(d) for d in dual]
    assert primal_answers == [_is_central_per_basis(x) for x in primal]
    assert dual_answers == [_is_dual_coproduct_central_per_basis(d) for d in dual]
    # both outcomes occur, so neither test is vacuous
    assert set(primal_answers) == {True, False}
    assert set(dual_answers) == {True, False}


# ------------------------------------------------------------------ dual side


def test_dual_unit_reproduces_basis(ctx_s4s2):
    du = bx.dual_unit(ctx_s4s2)
    for c in range(ctx_s4s2.dim):
        ec = bx.dual_basis_element(ctx_s4s2, c)
        assert np.allclose(bx.dual_coproduct(du, ec).coeffs, ec.coeffs)
        assert np.allclose(bx.dual_coproduct(ec, du).coeffs, ec.coeffs)


def test_dual_coproduct_trivial_subgroup(ctx_s3):
    group = ctx_s3.group
    for g in range(6):
        for h in range(6):
            out = bx.dual_coproduct(
                bx.dual_basis_element(ctx_s3, g), bx.dual_basis_element(ctx_s3, h)
            )
            expected = np.zeros(6, dtype=complex)
            expected[group.cayley[g, h]] = 1 / np.sqrt(6)
            assert np.allclose(out.coeffs, expected)


def test_dual_star_is_involutive(ctx_s4s2):
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    d = bx.DualElement(ctx_s4s2, coeffs)
    assert np.allclose(bx.star_dual(bx.star_dual(d)).coeffs, d.coeffs)
    # C*-positivity for the pointwise product: d* . d has coefficients >= 0.
    sq = bx.mul_dual(bx.star_dual(d), d)
    assert np.abs(sq.coeffs.imag).max() < 1e-12
    assert sq.coeffs.real.min() >= 0
    # Every single-coset indicator is a self-adjoint idempotent, i.e. a
    # minimal projection of the dual algebra.
    for c in range(7):
        e_c = bx.dual_basis_element(ctx_s4s2, c)
        assert np.allclose(bx.star_dual(e_c).coeffs, e_c.coeffs)
        assert np.allclose(bx.mul_dual(e_c, e_c).coeffs, e_c.coeffs)


def test_dual_contragredient_transports_primal_star(ctx_s4s2):
    rng = np.random.default_rng(21)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    d = bx.DualElement(ctx_s4s2, coeffs)
    transported = bx.contragredient_dual(bx.star_dual(d))
    direct = bx.star(bx.BoxElement(ctx_s4s2, bx.expand_dual(d)))
    assert np.allclose(bx.expand_dual(transported), direct.coeffs)


def test_expand_collapse_roundtrip(ctx_s4s2):
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal(7)
    d = bx.DualElement(ctx_s4s2, coeffs)
    back = bx.collapse_dual(ctx_s4s2, bx.expand_dual(d))
    assert np.allclose(back.coeffs, d.coeffs)
    with pytest.raises(ContextMismatch):
        bx.collapse_dual(ctx_s4s2, np.arange(24, dtype=float))


def test_fourier_roundtrips(ctx_s3, ctx_s4s2):
    rng = np.random.default_rng(14)
    x = bx.random_element(ctx_s3, rng)
    fx = bx.fourier(x)
    assert np.allclose(bx.fourier_inv(fx).coeffs, x.coeffs)
    f2 = bx.fourier_dual(fx)
    assert f2.isclose(bx.contragredient(x))
    f4 = bx.fourier_dual(bx.fourier(f2))
    assert f4.isclose(x)
    with pytest.raises(NotTrivialH):
        bx.fourier(bx.e1(ctx_s4s2))


def test_fourier_exchanges_products(ctx_s3):
    rng = np.random.default_rng(15)
    a = bx.random_element(ctx_s3, rng)
    b = bx.random_element(ctx_s3, rng)
    lhs = bx.fourier(bx.mul(a, b))
    rhs = bx.dual_coproduct(bx.fourier(a), bx.fourier(b))
    assert np.allclose(lhs.coeffs, rhs.coeffs)
    lhs2 = bx.fourier(bx.coproduct(a, b))
    rhs2 = bx.mul_dual(bx.fourier(b), bx.fourier(a))
    assert np.allclose(lhs2.coeffs, rhs2.coeffs)


# ------------------------------------------------------------------- tables


def test_s3_table_matches_reference(ctx_s3):
    table = ref.s3_coproduct_table(ctx_s3)
    assert table.scale == pytest.approx(np.sqrt(6))
    assert np.abs(table.entries - ref.S3_TABLE).max() < 1e-9


def test_s3_basis_identities(ctx_s3):
    basis = ref.s3_matrix_basis(ctx_s3)
    # e1 is the smallest biprojection, e2 the alternating projection
    assert basis[0].isclose(bx.e1(ctx_s3))
    # diagonal matrix units are projections, off-diagonal ones are not
    for b in (basis[0], basis[1], basis[2], basis[5]):
        assert bx.is_projection(b)
    for b in (basis[3], basis[4]):
        assert not bx.is_projection(b)
    # matrix units multiply as expected: e11 . e12 = e12
    assert bx.mul(basis[2], basis[3]).isclose(basis[3])
    assert bx.mul(basis[3], basis[4]).isclose(basis[2])
    # <e11> = id: the third accumulated coproduct power has full rank
    gen = bx.generate_biprojection(basis[2])
    assert gen.subgroup.order == 1


def test_unit_row_reproduces_basis(ctx_s3):
    table = ref.s3_coproduct_table(ctx_s3)
    for j in range(6):
        expected = np.zeros(6)
        expected[j] = 1.0
        assert np.allclose(table.entries[0, j], expected)


def test_dual_table_matches_reference_up_to_relabeling(ctx_s4s2):
    table = bx.coproduct_table(
        ctx_s4s2, ref.dual_coset_basis(ctx_s4s2), ref.S2_S4_DUAL_LABELS
    )
    assert table.scale == pytest.approx(np.sqrt(12))
    sigma = ref.match_table_up_to_relabeling(table.entries, ref.S2_S4_DUAL_TABLE)
    assert sigma is not None
    assert sigma[0] == 0


def test_central_pair_witnesses(ctx_s4s2):
    table = bx.coproduct_table(ctx_s4s2, ref.dual_coset_basis(ctx_s4s2))
    sigma = ref.match_table_up_to_relabeling(table.entries, ref.S2_S4_DUAL_TABLE)
    x, y, xy = ref.central_pair_elements(ctx_s4s2, sigma)
    assert bx.is_dual_coproduct_central(x)
    assert bx.is_dual_coproduct_central(y)
    assert not bx.is_dual_coproduct_central(xy)


def test_table_rejects_non_spanning(ctx_s3):
    basis = ref.s3_matrix_basis(ctx_s3)
    with pytest.raises(BasisNotSpanning):
        bx.coproduct_table(ctx_s3, basis[:5])
    with pytest.raises(BasisNotSpanning):
        bx.coproduct_table(ctx_s3, basis[:5] + [basis[4]])
    with pytest.raises(BasisNotSpanning):
        bx.coproduct_table(ctx_s3, [])


def test_table_text_and_json(ctx_s3, capsys):
    table = ref.s3_coproduct_table(ctx_s3)
    text = table.as_text()
    assert "e11" in text and "|" in text
    lines = text.strip().split("\n")
    assert len(lines) == 8  # header, rule, six rows
    # The JSON of a table is the `table` command's, in the double-coset basis.
    assert main(["table", "--group", "S3", "--subgroup", "trivial", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["labels"] == [f"e{i}" for i in range(1, 7)]
    assert data["scale"] == pytest.approx(np.sqrt(6))
    arr = np.array(data["entries"])  # (6, 6, 6, 2)
    assert arr.shape == (6, 6, 6, 2)
    cosets = bx.coproduct_table(ctx_s3, [bx.BoxElement(ctx_s3, row) for row in ctx_s3.basis_matrix])
    assert np.abs(arr[..., 0] + 1j * arr[..., 1] - cosets.entries).max() < 1e-9


def test_format_combination():
    labels = ("e1", "e2")
    assert bx.format_combination(np.array([0.0, 0.0]), labels) == "0"
    assert bx.format_combination(np.array([1.0, -1.0]), labels) == "e1 - e2"
    assert bx.format_combination(np.array([2.0, 0.0]), labels) == "2e1"
    assert bx.format_combination(np.array([-1.0, 0.5]), labels) == "-e1 + 0.5e2"


# -------------------------------------------------------------- compressions


def test_compress_upper_parameters(ctx_s3):
    k = make_sub(ctx_s3.group, "(1,2)")
    comp = compress_upper(ctx_s3, k)
    assert comp.small.delta == pytest.approx(np.sqrt(3))
    x = bx.e1(comp.small)
    big = comp.into(x)
    assert bx.is_biprojection(big) is not None
    assert comp.back(big).isclose(x)


def test_compress_lower_parameters():
    s4 = catalog_group("S4")
    ctx = bx.BoxContext(s4, s4.trivial_subgroup())
    a4 = make_sub(s4, "(1,2,3)", "(1,2)(3,4)")
    comp = compress_lower(ctx, a4)
    assert comp.small.group.order == 12
    assert comp.small.delta == pytest.approx(np.sqrt(12))


def test_compression_multiplicativity(ctx_s3):
    rng = np.random.default_rng(16)
    a3 = make_sub(ctx_s3.group, "(1,2,3)")
    comp = compress_lower(ctx_s3, a3)
    a = bx.random_element(comp.small, rng)
    b = bx.random_element(comp.small, rng)
    assert comp.into(bx.mul(a, b)).isclose(bx.mul(comp.into(a), comp.into(b)))
    # coproducts agree up to kappa_small / kappa_big
    ratio = comp.small.kappa / ctx_s3.kappa
    lhs = comp.into(bx.coproduct(a, b))
    rhs = bx.coproduct(comp.into(a), comp.into(b)) * ratio
    assert lhs.isclose(rhs, scale=ctx_s3.kappa)


def test_generation_commutes_with_lower_compression(ctx_s3):
    rng = np.random.default_rng(17)
    a3 = make_sub(ctx_s3.group, "(1,2,3)")
    comp = compress_lower(ctx_s3, a3)
    y = bx.random_element(comp.small, rng, positive=True)
    small_gen = bx.generate_biprojection(y)
    big_gen = bx.generate_biprojection(comp.into(y))
    mapped = set(int(i) for i in a3.indices[small_gen.subgroup.indices])
    assert mapped == set(int(i) for i in big_gen.subgroup.indices)


def test_generation_commutes_with_upper_compression():
    s4 = catalog_group("S4")
    ctx = bx.BoxContext(s4, s4.trivial_subgroup())
    a4 = make_sub(s4, "(1,2,3)", "(1,2)(3,4)")
    comp = compress_upper(ctx, a4)
    rng = np.random.default_rng(18)
    y = bx.random_element(comp.small, rng, positive=True)
    small_gen = bx.generate_biprojection(y)
    big_gen = bx.generate_biprojection(comp.into(y))
    assert small_gen.subgroup == big_gen.subgroup


def test_compression_back_rejects(ctx_s3):
    a3 = make_sub(ctx_s3.group, "(1,2,3)")
    lower = compress_lower(ctx_s3, a3)
    with pytest.raises(ContextMismatch):
        lower.back(bx.element_pi(ctx_s3, int(make_sub(ctx_s3.group, "(1,2)").indices[1])))
    upper = compress_upper(ctx_s3, a3)
    rng = np.random.default_rng(19)
    with pytest.raises(ContextMismatch):
        upper.back(bx.random_element(ctx_s3, rng))
