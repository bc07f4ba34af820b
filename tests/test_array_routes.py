"""The array passes of ``classify`` against the per-block and per-node loops
they replaced (tests/loop_oracle.py), on the census and near the order cap;
lazy subgroup-lattice labels and the lattice's mask stack."""

from __future__ import annotations

import random

import numpy as np
import pytest

import biprox.lattice
from biprox import properties
from biprox.boxalgebra import BoxContext, BoxElement, block_characters, minimal_central_projections
from biprox.catalog import catalog_group, catalog_names, parse_group_spec, parse_subgroup_spec
from biprox.cli import enumerate_pairs
from biprox.interval import is_H_cyclic
from biprox.lattice import FiniteLattice, subgroup_node
from biprox.permgroup import FiniteGroup, all_subgroups
from biprox.properties import (
    _biprojections,
    _context_dims,
    _f2_violation,
    _fixed_dims,
    _interval_blocks,
    _w_cyclic_block,
    classify,
    sum_bound,
)
from loop_oracle import (
    blocks_by_element_sums,
    character_table_with_identity_class,
    eager_labels,
    f2_violation_by_subgroup,
    h_cyclic_by_coatom_loop,
    interval_blocks_by_character,
    sum_bound_by_fractions,
    w_cyclic_block_by_subgroup,
)

A6 = "perm:(1,2,3);(2,3,4,5,6)"
NEAR_CAP = [
    (A6, "trivial"),
    (A6, "(1,2)(3,4)"),
    ("perm:(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20);"
     "(21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40)", "trivial"),
    ("perm:(1,2,3);(4,5,6);(7,8,9);(10,11,12);(13,14,15)", "trivial"),
    ("perm:(1,2);(3,4);(5,6);(7,8);(9,10);(11,12)", "trivial"),
]


@pytest.fixture(scope="module")
def contexts():
    """The 565 census contexts, then A6/{1}, A6/<(1,2)(3,4)>, Z20 x Z20/{1},
    Z3^5/{1} and E64/{1}."""
    census = [ctx for _name, ctx in enumerate_pairs()]
    assert len(census) == 565
    groups = {spec: parse_group_spec(spec) for spec, _ in NEAR_CAP}
    near = [
        BoxContext(groups[spec], parse_subgroup_spec(groups[spec], sub)) for spec, sub in NEAR_CAP
    ]
    return census + near


def _refuse(*_args, **_kwargs):
    raise AssertionError("a route that the array pass replaced was taken")


def test_blocks_match_element_sums(contexts, monkeypatch):
    # The blocks, checked and sorted on one array with no BoxElement sum, equal
    # the per-element route coefficient for coefficient, in the same order.
    with monkeypatch.context() as patch:
        patch.setattr(BoxElement, "__add__", _refuse)
        got = [(minimal_central_projections(ctx), block_characters(ctx)) for ctx in contexts]
    for ctx, (blocks, chars) in zip(contexts, got):
        want, want_chars = blocks_by_element_sums(ctx)
        assert chars == want_chars, ctx
        assert len(blocks) == len(want), ctx
        assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(blocks, want)), ctx


def test_interval_blocks_match_the_per_character_scan(contexts):
    # Every [a, b] of every census [H, G]; near the cap, [H, G] itself.
    census, near = contexts[:565], contexts[565:]
    for ctx in census:
        lat, top = _biprojections(ctx)
        for a in np.flatnonzero(lat.leq[:, top]):
            dims = _fixed_dims(lat, a, top)
            for b in np.flatnonzero(lat.leq[a] & lat.leq[:, top]):
                got = _interval_blocks(lat, dims, a, b)
                want = interval_blocks_by_character(lat, dims, a, b)
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), (ctx, a, b)
    for ctx in near:
        lat, top = _biprojections(ctx)
        dims = _context_dims(ctx)
        got = _interval_blocks(lat, dims, lat.bottom, top)
        want = interval_blocks_by_character(lat, dims, lat.bottom, top)
        assert all(np.array_equal(x, y) for x, y in zip(got, want)), ctx


@pytest.mark.parametrize("cells", [None, 1, 1 << 12])
def test_f2_row_blocks_match_the_per_subgroup_loop(contexts, monkeypatch, cells):
    # Whole, one row per block, and a few rows per block.
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    for ctx in contexts:
        assert _f2_violation(ctx) == f2_violation_by_subgroup(ctx), ctx
    # No corpus inclusion violates (F2): random lists of S4's subgroups, with
    # repeats, fed in as the blocks reach the violations in every row block.
    ctx = BoxContext(catalog_group("S4"), catalog_group("S4").trivial_subgroup())
    subs = all_subgroups(ctx.group)
    rng = random.Random(2)
    outcomes = set()
    for _ in range(200):
        ks = rng.choices(subs, k=rng.randint(1, 9))
        monkeypatch.setattr(properties, "_block_subgroups", lambda _ctx: ks)
        expected = f2_violation_by_subgroup(ctx)
        assert _f2_violation(ctx) == expected, [k.order for k in ks]
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_node_index_predicates_match_their_loops(contexts):
    # sum_bound as one fraction, is_H_cyclic as one mask-stack `any`, and the
    # w-cyclic block as a node-index match, against their loops; the full
    # inclusion of each group too, where H is G's own node.
    groups = {id(ctx.group): ctx.group for ctx in contexts}.values()
    full = [BoxContext(g, g.full_subgroup()) for g in groups]
    answers = set()
    for ctx in contexts + full:
        assert sum_bound(ctx) == sum_bound_by_fractions(ctx), ctx
        assert is_H_cyclic(ctx) == h_cyclic_by_coatom_loop(ctx), ctx
        block = _w_cyclic_block(ctx)
        assert block == w_cyclic_block_by_subgroup(ctx), ctx
        answers.add(block is None)
    assert answers == {True, False}


def test_character_tables_skip_the_identity_class_bit_for_bit():
    names = catalog_names()
    assert len(names) == 97
    for name in names:
        g = catalog_group(name)
        want = character_table_with_identity_class(g.full_subgroup())
        assert np.array_equal(g.character_table(), want), name


def _count_generator_strings(monkeypatch) -> list:
    calls = []
    honest = biprox.lattice.generator_strings

    def counted(subs):
        calls.append(len(subs))
        return honest(subs)

    monkeypatch.setattr(biprox.lattice, "generator_strings", counted)
    return calls


def test_subgroup_lattice_labels_are_formatted_on_first_read(monkeypatch):
    calls = _count_generator_strings(monkeypatch)
    s4 = FiniteGroup(catalog_group("S4").images)
    lat, _ = subgroup_node(s4, s4.trivial_subgroup())
    rev = lat.reverse()
    classify(BoxContext(s4, s4.trivial_subgroup()))
    assert calls == []
    assert rev.labels is lat.labels  # the view reads its lattice's, formatted once
    assert calls == [lat.n]
    assert type(lat.labels) is tuple and lat.labels == eager_labels(lat.payload)
    # [H, G] built alone in a group past the shared size formats on read too.
    monkeypatch.setattr(biprox.lattice, "_SHARED_LATTICE_NODES", 0)
    s4 = FiniteGroup(catalog_group("S4").images)
    alone, i = subgroup_node(s4, [k for k in all_subgroups(s4) if k.order == 4][0])
    assert i == alone.bottom and calls == [lat.n]
    assert alone.labels == eager_labels(alone.payload)
    # Labels given are kept, and with neither labels nor payload nodes are numbered.
    given = FiniteLattice.from_order(lat.leq, [f"x{i}" for i in range(lat.n)], lat.payload)
    assert given.labels == given.reverse().labels == tuple(f"x{i}" for i in range(lat.n))
    assert FiniteLattice.from_order(lat.leq).labels == tuple(str(i) for i in range(lat.n))


def test_mask_stack_is_built_once_and_shared_by_the_reverse_view():
    g = catalog_group("A5")
    lat, _ = subgroup_node(g, g.trivial_subgroup())
    masks = lat.masks
    assert masks.dtype == bool and not masks.flags.writeable
    assert np.array_equal(masks, [k.mask for k in lat.payload])
    assert lat.masks is masks and lat.reverse().masks is masks


def test_same_context_is_an_identity_test_first(monkeypatch):
    ctx = BoxContext(catalog_group("S3"), catalog_group("S3").trivial_subgroup())
    x, y = minimal_central_projections(ctx)[:2]
    monkeypatch.setattr(BoxContext, "__eq__", _refuse)
    assert np.array_equal((x + y).coeffs, x.coeffs + y.coeffs)
