"""Permutation group machinery: closure, subgroups, cosets."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biprox.catalog
import biprox.permgroup
from biprox.boxalgebra import BoxContext
from biprox.catalog import catalog_group, catalog_names, parse_group_spec, parse_subgroup_spec
from biprox.cli import enumerate_pairs, subgroup_class_representatives
from biprox.errors import (
    DegreeMismatch,
    GroupSpecError,
    NotNested,
    OrderCapExceeded,
    SubgroupCapExceeded,
)
from biprox.interval import Inclusion
from biprox.permgroup import (
    FiniteGroup,
    Permutation,
    all_subgroups,
    core,
    double_coset_labels,
    generated_by_closure,
    generating_indices,
    generating_sets,
    generator_strings,
    group_closure,
    is_dedekind_interval,
    is_normal_intermediate,
    parse_cycles,
    parse_generators,
    subgroup_generated,
)
from biprox.properties import _context_dims, maximal_biprojections
import lattice_fixtures
from lattice_oracle import interval_subgroups, subgroup_interval
from permgroup_oracle import (
    alternating_group,
    dicyclic_group,
    double_cosets,
    every_seed_subgroups,
    min_key_class_representatives,
    orbit_conjugacy_classes,
    sl23_group,
    symmetric_group,
    unseeded_generating_sets,
)

# Frozen oracle values from an independent one-element-extension BFS
# enumeration (notes/oracles/subgroup_counts.py); S4 = 30, S5 = 156,
# Q8 = 6, E16 = 67 also match the standard literature counts.
SUBGROUP_COUNTS = {
    "S3": 6,
    "Z6": 4,
    "Z12": 6,
    "Z30": 8,
    "A4": 10,
    "S4": 30,
    "D4": 10,
    "D6": 16,
    "Q8": 6,
    "E16": 67,
    "SL23": 15,
    "S5": 156,
}


def test_parse_cycles_is_one_based():
    p = parse_cycles("(1,2,3,4)")
    assert p.images == (1, 2, 3, 0)
    q = parse_cycles("(1,2)(3,4)")
    assert q.images == (1, 0, 3, 2)
    assert parse_cycles("()").is_identity()
    assert parse_cycles("(1,2)", degree=5).degree == 5


def test_cycle_string_round_trip():
    for text in ["(1,2)", "(1,2,3)(4,5)", "()", "(2,4)(1,3,5)"]:
        p = parse_cycles(text, degree=5)
        again = parse_cycles(p.cycle_string(), degree=5)
        assert again == p


def test_parse_generators_infers_common_degree():
    gens = parse_generators("(1,2)(3,4); (1,2,3,4)")
    assert all(g.degree == 4 for g in gens)
    assert len(gens) == 2


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1,2,2)")
    with pytest.raises(ValueError):
        parse_cycles("(0,1)")
    with pytest.raises(ValueError):
        parse_cycles("nonsense")


def test_composition_convention():
    # (p * q)(i) = p(q(i))
    p = parse_cycles("(1,2)", degree=3)
    q = parse_cycles("(2,3)", degree=3)
    assert (p * q).images == tuple(p.images[q.images[i]] for i in range(3))
    assert (p * p).is_identity()
    assert p.inverse() == p


def test_group_closure_s3():
    group = group_closure(parse_generators("(1,2); (1,2,3)"))
    assert group.order == 6
    assert group.elements == tuple(sorted(group.elements, key=lambda e: e.images))
    identity = group.elements[group.identity_index]
    assert identity.is_identity()


def test_group_closure_empty_and_single_cycle():
    assert group_closure([]).order == 1
    assert group_closure([parse_cycles("(1,2,3,4,5,6)")]).order == 6


def test_group_closure_cap():
    with pytest.raises(OrderCapExceeded):
        group_closure(parse_generators("(1,2); (1,2,3,4,5)"), max_order=30)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        group_closure([parse_cycles("(1,2)"), parse_cycles("(1,2,3)")])


def test_cayley_table_is_a_group():
    group = catalog_group("S4")
    n = group.order
    cayley = group.cayley
    e = group.identity_index
    assert np.all(cayley[e, :] == np.arange(n))
    assert np.all(cayley[:, e] == np.arange(n))
    assert np.all(cayley[np.arange(n), group.inverse] == e)
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j, k = rng.integers(0, n, size=3)
        assert cayley[cayley[i, j], k] == cayley[i, cayley[j, k]]


# Generators of A6 (order 360) and of Z20 x Z20 (order 400) near the order cap.
LARGE = {
    "A6": "(1,2,3); (2,3,4,5,6)",
    "Z20xZ20": "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20); "
    "(21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40)",
}


def _array_layer_groups():
    for name in catalog_names():
        yield name, catalog_group(name)
    for name, gens in LARGE.items():
        yield name, group_closure(parse_generators(gens), name=name)


def test_cayley_table_is_the_permutation_product(monkeypatch):
    # Every entry, against Permutation multiplication: the group axioms alone
    # would also pass for the table of another group of the same order.
    rng = np.random.default_rng(1)
    for name, group in _array_layer_groups():
        n, elements = group.order, group.elements
        if n <= 120:
            pairs = [(i, j) for i in range(n) for j in range(n)]
        else:
            pairs = rng.integers(0, n, size=(3000, 2)).tolist()
        for i, j in pairs:
            assert group.cayley[i, j] == group.index_of(elements[i] * elements[j]), name
        assert [list(e.images) for e in elements] == group.images.tolist()
        # Each lookup stays within the entry budget (a row past it goes alone),
        # and in blocks of 3 rows (the last one shorter when 3 does not divide
        # the order) the table is the same.
        lookups = []
        real_find = FiniteGroup._find

        def recording_find(self, rows):
            lookups.append(rows.size)
            return real_find(self, rows)

        monkeypatch.setattr(FiniteGroup, "_find", recording_find)
        FiniteGroup(group.images)
        assert max(lookups) <= max(biprox.permgroup._CLOSE_CELLS, n * group.degree), name
        monkeypatch.setattr(biprox.permgroup, "_CLOSE_CELLS", 3 * n * group.degree)
        assert np.array_equal(FiniteGroup(group.images).cayley, group.cayley), name
        monkeypatch.undo()
    # Rows 0 and 1, the identity and (2,3), map this list to itself; row 2,
    # (1,2), is the first with a product outside it: (1,2)(2,3) = (1,2,3).
    rows = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1]]
    assert FiniteGroup(np.array(rows)[:2]).order == 2
    for block_rows in (1, 2, 4):
        monkeypatch.setattr(biprox.permgroup, "_CLOSE_CELLS", block_rows * len(rows) * 3)
        with pytest.raises(ValueError, match="not closed"):
            FiniteGroup(np.array(rows))
    monkeypatch.undo()
    # The same list on the last 3 of 16 points: keys of 64 bytes, where a row
    # outside the list differs from its nearest key only in its last bytes.
    wide = np.hstack([np.tile(np.arange(13), (len(rows), 1)), np.array(rows) + 13])
    pair = FiniteGroup(wide[:2])
    assert pair.order == 2
    with pytest.raises(KeyError):
        pair.index_of(parse_cycles("(14,15)", degree=16))
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup(wide)


def test_a_given_cayley_table_is_verified():
    s4 = catalog_group("S4")
    assert np.array_equal(FiniteGroup(s4.images, _table=s4.cayley).cayley, s4.cayley)
    for i, j in [(0, 0), (5, 17), (23, 22)]:
        wrong = s4.cayley.copy()
        wrong[i, j] = (wrong[i, j] + 1) % s4.order
        with pytest.raises(ValueError, match="not the Cayley table"):
            FiniteGroup(s4.images, _table=wrong)
    # -1 would wrap to the last row, and past the order there is no row.
    for entry in (-1, s4.order):
        wrong = s4.cayley.copy()
        wrong[3, 4] = entry
        with pytest.raises(ValueError, match="not the Cayley table"):
            FiniteGroup(s4.images, _table=wrong)
    with pytest.raises(ValueError, match="not the Cayley table"):
        FiniteGroup(s4.images, _table=s4.cayley[:, :-1])
    # The table indexes the rows as given, so they must already be in order.
    with pytest.raises(ValueError, match="sorted and distinct"):
        FiniteGroup(s4.images[::-1], _table=s4.cayley)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=6))
def test_sorted_distinct_rows_are_the_unique_rows(rows):
    rows = np.array(rows)
    unique = np.unique(rows, axis=0)
    expected = unique.shape == rows.shape and np.array_equal(unique, rows)
    assert biprox.permgroup._sorted_distinct(rows) == expected


def test_conjugacy_classes_match_the_orbit_loop():
    groups = [catalog_group(name) for name in catalog_names()]
    groups.append(group_closure(parse_generators(LARGE["A6"]), name="A6"))
    for group in groups:
        for sub in all_subgroups(group):
            got = biprox.permgroup._conjugacy_classes(group, sub.indices)
            want = orbit_conjugacy_classes(group, sub.indices)
            assert [c.tolist() for c in got] == [c.tolist() for c in want], (group, sub)


def test_full_subgroup_is_built_once_and_read_only():
    s4 = catalog_group("S4")
    full = s4.full_subgroup()
    assert s4.full_subgroup() is full
    assert full.indices.tolist() == list(range(s4.order))
    with pytest.raises(ValueError):
        full.indices[0] = 1
    with pytest.raises(ValueError):
        full.mask[0] = False


def test_inverse_and_element_orders_match_a_power_loop():
    for name, group in _array_layer_groups():
        orders = group.element_orders()
        assert orders is group.element_orders()  # computed once
        for i, x in enumerate(group.elements):
            power, n = x, 1
            while not power.is_identity():
                power, n = power * x, n + 1
            assert orders[i] == n, name
            assert group.index_of(x.inverse()) == group.inverse[i], name


def test_cyclic_masks_match_a_per_element_power_loop():
    # Orders, <g> masks and the least generator of each cyclic subgroup, all
    # from one pass over the powers of every element at once, against g,
    # g^2, ... taken one element at a time.
    for name, group in _array_layer_groups():
        cayley = group.cayley.tolist()
        least = set()
        for g in range(group.order):
            powers = [g]
            while powers[-1] != group.identity_index:
                powers.append(cayley[powers[-1]][g])
            n = len(powers)
            assert group.element_orders()[g] == n, name
            assert np.flatnonzero(group._cyclic_masks[g]).tolist() == sorted(powers), name
            least.add(min(p for k, p in enumerate(powers, 1) if np.gcd(k, n) == 1))
        assert group._cyclic_generators.tolist() == sorted(least), name


def test_non_closed_element_list_raises():
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup([Permutation.identity(3), parse_cycles("(1,2)", 3), parse_cycles("(2,3)", 3)])
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup(np.array([[0, 1, 2], [1, 2, 0]]))
    with pytest.raises(ValueError, match="not permutations"):
        FiniteGroup(np.array([[0, 1, 2], [0, 0, 0]]))


def test_index_of_rejects_non_members_and_other_degrees():
    a4 = catalog_group("A4")
    with pytest.raises(KeyError):
        a4.index_of(parse_cycles("(1,2)", degree=4))
    with pytest.raises(KeyError):
        a4.index_of(parse_cycles("(1,2,3)", degree=5))
    with pytest.raises(KeyError):
        a4.index_of(parse_cycles("(1,2,3)", degree=3))
    assert a4.index_of(parse_cycles("(1,2,3)", degree=4)) >= 0


def test_conjugates_core_and_normality_match_elementwise_conjugation():
    s4 = catalog_group("S4")
    for sub in all_subgroups(s4):
        rows = sub.conjugates()
        for g, x in enumerate(s4.elements):
            members = {s4.index_of(x * s4.elements[k] * x.inverse()) for k in sub.indices}
            assert set(np.flatnonzero(rows[g])) == members
        conjugates = [
            {s4.index_of(x.inverse() * s4.elements[k] * x) for x in s4.elements}
            for k in sub.indices
        ]
        inside = [k for k, cls in zip(sub.indices, conjugates) if cls <= set(sub.indices)]
        assert core(s4, sub).indices.tolist() == inside
        assert sub.is_normal() == (len(inside) == sub.order)
        assert sub.normaliser.indices.tolist() == [
            g for g in range(s4.order) if np.array_equal(rows[g], sub.mask)
        ]


def test_subgroup_generated_examples():
    s4 = catalog_group("S4")
    a = s4.index_of(parse_cycles("(1,2)", degree=4))
    b = s4.index_of(parse_cycles("(1,2,3,4)", degree=4))
    assert subgroup_generated(s4, {a, b}).order == 24
    assert subgroup_generated(s4, set()).order == 1
    s3 = catalog_group("S3")
    c = s3.index_of(parse_cycles("(1,2,3)", degree=3))
    assert subgroup_generated(s3, {c}).order == 3


@pytest.mark.parametrize("name,count", sorted(SUBGROUP_COUNTS.items()))
def test_all_subgroups_counts(name, count):
    group = catalog_group(name)
    subs = all_subgroups(group)
    assert len(subs) == count
    orders = [s.order for s in subs]
    assert orders == sorted(orders)
    for sub in subs:
        assert group.order % sub.order == 0
        assert sub.is_closed()
        assert sub.mask[group.identity_index]


def _subspace_count(p: int, n: int) -> int:
    """Subspaces of F_p^n: the sum over k of the Gaussian binomials [n, k]_p."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize(
    "spec,p,n",
    [
        ("perm:(1,2);(3,4);(5,6);(7,8);(9,10)", 2, 5),
        ("perm:(1,2,3);(4,5,6);(7,8,9)", 3, 3),
    ],
)
def test_elementary_abelian_subgroup_counts(spec, p, n):
    # The subgroups of (Z/p)^n are the subspaces of F_p^n: E32 has 374, Z3^3 has 28.
    assert len(all_subgroups(parse_group_spec(spec))) == _subspace_count(p, n)


def test_all_subgroups_closes_one_block_per_generation(monkeypatch):
    calls = []
    real = biprox.permgroup._close

    def recording_close(group, masks, gens, *args, **kwargs):
        calls.append((masks.shape, gens.shape[1]))
        return real(group, masks, gens, *args, **kwargs)

    monkeypatch.setattr(biprox.permgroup, "_close", recording_close)
    group = group_closure(parse_generators("(1,2); (1,2,3,4)"))  # nothing cached yet
    keys = [s.key() for s in all_subgroups(group)]
    assert len(keys) == SUBGROUP_COUNTS["S4"]
    # Generation 1, the cyclic subgroups, is read off the cyclic masks with no
    # closure; each later generation k closes its seeds over k generators in
    # one call.
    assert [k for _shape, k in calls] == list(range(2, len(calls) + 2))
    assert all(rows * order <= biprox.permgroup._CLOSE_CELLS for (rows, order), _k in calls)
    # A budget of 8 rows splits the generations into blocks, and the double
    # coset seeds into blocks of at most 8 padded members (a wider row goes
    # alone), with the same result.
    calls.clear()
    monkeypatch.setattr(biprox.permgroup, "_CLOSE_CELLS", 8 * group.order)
    group = group_closure(parse_generators("(1,2); (1,2,3,4)"))
    assert [s.key() for s in all_subgroups(group)] == keys
    assert len(calls) > calls[-1][1] - 1  # more blocks than closed generations
    assert all(rows <= 8 for (rows, _order), _k in calls)


def test_all_subgroups_match_every_seed_enumeration_on_the_catalog():
    for name in catalog_names():
        group = catalog_group(name)
        assert [s.key() for s in all_subgroups(group)] == every_seed_subgroups(group), name


@pytest.mark.parametrize(
    "spec",
    [
        "perm:(1,2,3);(2,3,4,5,6)",  # A6: 501 subgroups
        "perm:(1,2);(3,4);(5,6);(7,8);(9,10)",  # E32: 374
        "perm:(1,2,3);(4,5,6);(7,8,9)",  # Z3^3: 28
    ],
)
def test_all_subgroups_match_every_seed_enumeration(spec):
    group = parse_group_spec(spec)
    assert [s.key() for s in all_subgroups(group)] == every_seed_subgroups(group)


@functools.cache
def _small_catalog_pairs() -> list[tuple[str, str]]:
    small = [name for name in catalog_names() if catalog_group(name).order <= 12]
    return [
        (a, b) for a in small for b in small
        if catalog_group(a).order * catalog_group(b).order <= 96
    ]


@functools.cache
def _direct_product(a: str, b: str) -> FiniteGroup:
    """A x B, closed from the catalog generators of A and of B, with B's
    shifted onto the points after A's."""
    da, db = catalog_group(a).degree, catalog_group(b).degree
    gens = [Permutation(p.images + tuple(range(da, da + db))) for p in biprox.catalog._GENERATORS[a]]
    gens += [
        Permutation(tuple(range(da)) + tuple(da + x for x in p.images))
        for p in biprox.catalog._GENERATORS[b]
    ]
    return group_closure(gens, name=f"{a}x{b}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.lists(st.integers(min_value=0), min_size=0, max_size=2))
def test_direct_products_of_small_catalog_groups(data, draws):
    # G = A x B for catalog groups A and B of order <= 12, |G| <= 96; H is
    # generated by 0-2 drawn elements of G.
    a, b = data.draw(st.sampled_from(_small_catalog_pairs()))
    g = _direct_product(a, b)
    assert g.order == catalog_group(a).order * catalog_group(b).order
    assert [s.key() for s in all_subgroups(g)] == every_seed_subgroups(g)
    assert [s.key() for s in subgroup_class_representatives(g)] == [
        s.key() for s in min_key_class_representatives(g)
    ]
    h = subgroup_generated(g, [d % g.order for d in draws])
    ctx = BoxContext(g, h)
    fixed = _context_dims(ctx)[:, ctx.node[1]]  # <chi|_H, 1> for each chi of G
    assert int((fixed**2).sum()) == len(double_cosets(g, h, h))


def test_all_subgroups_closes_one_seed_per_double_coset(monkeypatch):
    # Generation 1, the 800 nontrivial cyclic subgroups of the catalog, is
    # read off the cyclic masks.  Only one member S of each class is
    # extended, and it closes one join per double coset S c S: 1,690 seeds
    # over the catalog's 1,333 subgroups in 662 classes.  Extending every
    # member gave 6,242, closing generation 1 too 7,042, and every element
    # and every cyclic generator outside S 26,143.
    closed = []
    real = biprox.permgroup._close

    def counting_close(group, masks, gens, *args, **kwargs):
        closed.append(len(masks))
        return real(group, masks, gens, *args, **kwargs)

    monkeypatch.setattr(biprox.permgroup, "_close", counting_close)
    for name in catalog_names():
        all_subgroups(FiniteGroup(catalog_group(name).images))  # nothing cached yet
    assert sum(closed) == 1690
    assert sum(catalog_group(name)._cyclic_generators.size - 1 for name in catalog_names()) == 800


def test_subgroup_class_representatives_match_the_least_key_rule():
    count = 0
    for name in catalog_names():
        group = catalog_group(name)
        reps = subgroup_class_representatives(group)
        assert [s.key() for s in reps] == [
            s.key() for s in min_key_class_representatives(group)
        ], name
        count += len(reps)
    assert count == len(enumerate_pairs()) + len(catalog_names())  # H = G is no pair
    # A6, E32 and S4 x Z3: a simple group near the cap, an abelian group whose
    # subgroups are all normal, and a product with classes of 1 to 8 members.
    for spec in (
        "perm:(1,2,3);(2,3,4,5,6)",
        "perm:(1,2);(3,4);(5,6);(7,8);(9,10)",
        "perm:(1,2,3,4);(1,2);(5,6,7)",
    ):
        group = parse_group_spec(spec)
        assert [s.key() for s in subgroup_class_representatives(group)] == [
            s.key() for s in min_key_class_representatives(group)
        ], spec


def test_all_subgroups_cap(monkeypatch):
    # A fresh S4: the catalog's copy keeps its subgroup list once enumerated.
    monkeypatch.setattr(biprox.permgroup, "DEFAULT_SUBGROUP_CAP", 10)
    with pytest.raises(SubgroupCapExceeded):
        all_subgroups(FiniteGroup(catalog_group("S4").images))


def test_all_subgroups_deterministic_under_element_order():
    # Same group built from different generator sets must give identical keys.
    g1 = group_closure(parse_generators("(1,2); (1,2,3,4)"))
    g2 = group_closure(parse_generators("(1,2,3,4); (3,4); (1,3)(2,4)"))
    subs1 = [s.key() for s in all_subgroups(g1)]
    subs2 = [s.key() for s in all_subgroups(g2)]
    assert subs1 == subs2


def _pairwise_join_closure(group: FiniteGroup) -> list[bytes]:
    """Subgroup keys from the cyclic subgroups closed under joining any two
    subgroups found so far (the former enumeration, kept as an oracle)."""
    found = {s.key(): s for s in (generated_by_closure(group, [i]) for i in range(group.order))}
    worklist = list(found.values())
    while worklist:
        current = worklist.pop()
        for other in list(found.values()):
            joined = generated_by_closure(group, np.concatenate([current.indices, other.indices]))
            if joined.key() not in found:
                found[joined.key()] = joined
                worklist.append(joined)
    return [s.key() for s in sorted(found.values(), key=lambda s: (s.order, s.key()))]


@pytest.mark.parametrize(
    "name", ["S4", "A4", "A5", "D6", "Q8", "E8", "E16", "SL23", "Z30"]
)
def test_all_subgroups_matches_pairwise_join_closure(name):
    # Joining only with cyclic subgroups reaches every subgroup, because each
    # subgroup is the join of its cyclic subgroups.  A5 is not solvable, and
    # E16 needs four generators, so its joins close over four at once.
    group = catalog_group(name)
    assert [s.key() for s in all_subgroups(group)] == _pairwise_join_closure(group)


def test_all_subgroups_closes_in_batches(monkeypatch):
    calls = []
    real = biprox.permgroup.subgroup_generated
    monkeypatch.setattr(
        biprox.permgroup, "subgroup_generated", lambda *a: calls.append(a) or real(*a)
    )
    group = group_closure(parse_generators("(1,2); (1,2,3,4)"))  # nothing cached yet
    assert len(all_subgroups(group)) == SUBGROUP_COUNTS["S4"]
    assert calls == []


def test_core_examples():
    s3 = catalog_group("S3")
    flip = s3.index_of(parse_cycles("(1,2)", degree=3))
    h = subgroup_generated(s3, {flip})
    assert core(s3, h).order == 1
    rot = s3.index_of(parse_cycles("(1,2,3)", degree=3))
    a3 = subgroup_generated(s3, {rot})
    assert core(s3, a3) == a3
    assert core(s3, s3.full_subgroup()) == s3.full_subgroup()


def test_core_is_normal():
    s4 = catalog_group("S4")
    for sub in all_subgroups(s4):
        k = core(s4, sub)
        assert k.is_normal()
        assert k <= sub


def test_is_normal_intermediate_examples():
    s3 = catalog_group("S3")
    triv = s3.trivial_subgroup()
    rot = subgroup_generated(s3, {s3.index_of(parse_cycles("(1,2,3)", degree=3))})
    flip = subgroup_generated(s3, {s3.index_of(parse_cycles("(1,2)", degree=3))})
    assert is_normal_intermediate(triv, rot, s3)
    assert not is_normal_intermediate(triv, flip, s3)
    assert is_normal_intermediate(flip, flip, s3)


def test_is_normal_intermediate_normal_superset():
    # K normal in G forces HgK = KgH for every H <= K.
    s4 = catalog_group("S4")
    subs = all_subgroups(s4)
    normal = [k for k in subs if k.is_normal()]
    for k in normal:
        for h in subs:
            if h <= k:
                assert is_normal_intermediate(h, k, s4)


def test_is_normal_intermediate_requires_nesting():
    s3 = catalog_group("S3")
    flip = subgroup_generated(s3, {s3.index_of(parse_cycles("(1,2)", degree=3))})
    rot = subgroup_generated(s3, {s3.index_of(parse_cycles("(1,2,3)", degree=3))})
    with pytest.raises(NotNested):
        is_normal_intermediate(rot, flip, s3)


def test_is_dedekind_interval_requires_every_member_nested():
    s4 = catalog_group("S4")
    subs = all_subgroups(s4)
    h = subgroup_generated(s4, {s4.index_of(parse_cycles("(1,2)", degree=4))})
    above = [k for k in subs if h <= k]
    d4 = next(k for k in above if k.order == 8)
    outside = next(k for k in above if not k <= d4)  # an S3 over <(1,2)>
    not_over = next(k for k in subs if k.order == 3)
    inside = [k for k in above if k <= d4]
    assert is_dedekind_interval(h, d4, inside) == _dedekind_by_double_cosets(h, d4, inside)
    for members in ([h, outside, d4], [not_over], [catalog_group("S3").full_subgroup()]):
        with pytest.raises(NotNested):
            is_dedekind_interval(h, d4, members)
    with pytest.raises(NotNested):
        is_dedekind_interval(d4, h, [])


def _atoms(group, h):
    inc = Inclusion(group, h)
    lat = subgroup_interval(inc)
    atoms = [lat.payload[a] for a in lattice_fixtures.atoms(lat)]
    assert atoms == maximal_biprojections(BoxContext(group, h))
    return atoms


def _coatoms(group, h):
    lat = subgroup_interval(Inclusion(group, h))
    return [lat.payload[c] for c in lattice_fixtures.coatoms(lat)]


def test_minimal_overgroups_s2_in_s4():
    s4 = catalog_group("S4")
    h = subgroup_generated(s4, {s4.index_of(parse_cycles("(1,2)", degree=4))})
    atoms = _atoms(s4, h)
    assert sorted(a.order for a in atoms) == [4, 6, 6]
    assert _atoms(s4, s4.full_subgroup()) == []
    z6 = catalog_group("Z6")
    assert sorted(a.order for a in _atoms(z6, z6.trivial_subgroup())) == [2, 3]


def test_maximal_subgroups_over():
    s3 = catalog_group("S3")
    coatoms = _coatoms(s3, s3.trivial_subgroup())
    assert sorted(c.order for c in coatoms) == [2, 2, 2, 3]
    assert _coatoms(s3, s3.full_subgroup()) == []


def test_interval_s2_s4_has_six_nodes():
    s4 = catalog_group("S4")
    h = subgroup_generated(s4, {s4.index_of(parse_cycles("(1,2)", degree=4))})
    interval = interval_subgroups(h, s4)
    assert len(interval) == 6
    assert sorted(k.order for k in interval) == [2, 4, 6, 6, 8, 24]


def test_double_cosets_partition():
    s4 = catalog_group("S4")
    h = subgroup_generated(s4, {s4.index_of(parse_cycles("(1,2)", degree=4))})
    cosets = double_cosets(s4, h, h)
    assert sum(len(c) for c in cosets) == 24
    assert len(cosets) == 7
    assert sorted(len(c) for c in cosets) == [2, 2, 4, 4, 4, 4, 4]
    flat = np.sort(np.concatenate(cosets))
    assert np.array_equal(flat, np.arange(24))


def test_double_coset_constant_on_representatives():
    s4 = catalog_group("S4")
    h = subgroup_generated(s4, {s4.index_of(parse_cycles("(1,2)", degree=4))})
    cayley, members = s4.cayley.tolist(), h.indices.tolist()
    for coset in double_cosets(s4, h, h):
        for rep in coset[:2]:
            agb = {cayley[cayley[a][rep]][b] for a in members for b in members}
            assert sorted(agb) == coset.tolist()


def test_double_coset_labels_are_least_elements():
    s4 = catalog_group("S4")
    cayley = s4.cayley.tolist()
    reps = subgroup_class_representatives(s4)
    for a in reps:
        for b in reps:
            xs, ys = a.indices.tolist(), b.indices.tolist()
            least = [min(cayley[cayley[x][g]][y] for x in xs for y in ys) for g in range(s4.order)]
            assert double_coset_labels(a, b).tolist() == least


def _dedekind_by_double_cosets(inner, outer, members) -> bool:
    """One comparison HgK = KgH per double coset HgK inside outer (the former
    is_dedekind_interval, kept as an oracle)."""
    cayley = outer.parent.cayley

    def double_coset(a, g, b):
        return np.unique(cayley[np.ix_(cayley[a.indices, g], b.indices)])

    for k in members:
        seen = np.zeros(outer.parent.order, dtype=bool)
        for g in outer.indices:
            if seen[g]:
                continue
            hgk = double_coset(inner, g, k)
            seen[hgk] = True
            if not np.array_equal(hgk, double_coset(k, g, inner)):
                return False
    return True


def test_is_dedekind_interval_matches_double_coset_loop():
    s4 = catalog_group("S4")
    subs = all_subgroups(s4)
    for h in subs:
        for k in subs:
            if not h <= k:
                continue
            for outer in (l for l in subs if k <= l):
                assert is_dedekind_interval(h, outer, [k]) == _dedekind_by_double_cosets(
                    h, outer, [k]
                )


def test_generating_indices_generate():
    s5 = catalog_group("S5")
    for sub in all_subgroups(s5)[::7]:
        gens = generating_indices(sub)
        assert subgroup_generated(s5, gens) == sub
        assert len(gens) <= 3


def test_generator_string_labels_each_member_set_once(monkeypatch):
    labelled = []
    real = biprox.permgroup.generating_sets
    monkeypatch.setattr(
        biprox.permgroup,
        "generating_sets",
        lambda group, subs: labelled.append([sub.key() for sub in subs]) or real(group, subs),
    )
    group = group_closure(parse_generators("(1,2); (1,2,3,4)"))  # nothing cached yet
    subgroups = all_subgroups(group)
    labels = [sub.generator_string() for sub in subgroups]
    assert [sub.generator_string() for sub in subgroups] == labels
    assert generator_strings(subgroups) == labels
    # A fresh Subgroup on the same member set reads the parent's label.
    copies = [parse_subgroup_spec(group, label) for label in labels]
    assert [copy.generator_string() for copy in copies] == labels
    assert sorted(key for batch in labelled for key in batch) == sorted(
        sub.key() for sub in subgroups
    )
    assert all(labelled)  # a batch with every member set labelled is skipped
    with pytest.raises(ValueError, match="one parent"):
        generator_strings([group.trivial_subgroup(), catalog_group("S3").trivial_subgroup()])


def _sequential_generating_indices(sub) -> list[int]:
    """The greedy generating list, one closure per step (the former
    generating_indices, kept as an oracle)."""
    group = sub.parent
    gens: list[int] = []
    have = group.trivial_subgroup()
    orders = group.element_orders()
    for i in sorted(sub.indices.tolist(), key=lambda i: (-orders[i], i)):
        if have.order == sub.order:
            break
        if not have.mask[i]:
            have = subgroup_generated(group, [*gens, i])
            gens.append(i)
    return gens


@pytest.mark.parametrize("spec", [None, "perm:(1,2);(3,4);(5,6);(7,8);(9,10)"])
def test_generating_sets_match_the_unseeded_greedy_route(spec):
    # Seeding each span with the cyclic subgroup of its pick changes no list:
    # every catalog subgroup, and the 374 subgroups of E32.
    groups = [catalog_group(name) for name in catalog_names()] if spec is None else [
        parse_group_spec(spec)
    ]
    for group in groups:
        subs = all_subgroups(group)
        assert generating_sets(group, subs) == unseeded_generating_sets(group, subs), group


def test_generating_sets_match_the_sequential_greedy_loop():
    count = 0
    for name in catalog_names():
        group = catalog_group(name)
        subs = all_subgroups(group)
        assert generating_sets(group, subs) == [
            _sequential_generating_indices(sub) for sub in subs
        ], name
        count += len(subs)
    assert count == 1333


def test_generator_strings_round_trip_on_the_catalog():
    # The census passes each label back to `lattice`, so the label must name
    # its member set; the oracle composes it from generating_indices directly.
    count = 0
    for name in catalog_names():
        group = catalog_group(name)
        for sub in all_subgroups(group):
            gens = generating_indices(sub)
            oracle = "; ".join(group.elements[i].cycle_string() for i in gens) if gens else "()"
            label = sub.generator_string()
            assert label == oracle, (name, oracle)
            assert parse_subgroup_spec(group, label).key() == sub.key(), (name, label)
            count += 1
    assert count == 1333


def test_subgroup_list_route_matches_the_closure():
    # With the subgroup list cached, <seed> is read off it: every singleton
    # seed and 50 random seeds of up to four elements per group, against the
    # closure, on the catalog, A6 and E32 (374 subgroups).
    rng = np.random.default_rng(0)
    groups = [catalog_group(name) for name in catalog_names()] + [
        group_closure(parse_generators(LARGE["A6"])),
        parse_group_spec("perm:(1,2);(3,4);(5,6);(7,8);(9,10)"),
    ]
    for group in groups:
        listed = {id(k) for k in all_subgroups(group)}
        seeds = [[g] for g in range(group.order)] + [
            rng.integers(0, group.order, size=rng.integers(0, 5)).tolist() for _ in range(50)
        ]
        for seed in seeds:
            sub = subgroup_generated(group, seed)
            assert id(sub) in listed, (group, seed)
            assert sub == generated_by_closure(group, seed), (group, seed)


def test_cycle_strings_match_the_permutations():
    # Labels are written off the image rows: a fresh group builds no
    # Permutation for them, not even for a generator string.
    for name, group in _array_layer_groups():
        fresh = FiniteGroup(group.images)
        strings = [fresh.cycle_string(i) for i in range(fresh.order)]
        fresh.full_subgroup().generator_string()
        assert "elements" not in vars(fresh), name
        assert strings == [x.cycle_string() for x in group.elements], name


def test_element_orders_and_conjugacy_classes():
    s4 = catalog_group("S4")
    orders = s4.element_orders()
    counts = {int(k): int(v) for k, v in zip(*np.unique(orders, return_counts=True))}
    assert counts == {1: 1, 2: 9, 3: 8, 4: 6}
    classes = biprox.permgroup._conjugacy_classes(s4, np.arange(s4.order))
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert [s4.class_sizes[c].tolist() for c in classes] == [[len(c)] * len(c) for c in classes]
    assert [s4.class_labels[c].tolist() for c in classes] == [[c[0]] * len(c) for c in classes]
    assert not s4.class_sizes.flags.writeable
    assert not s4.class_labels.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=23), min_size=0, max_size=3))
def test_random_subgroups_satisfy_lagrange(seed):
    s4 = catalog_group("S4")
    sub = subgroup_generated(s4, seed)
    cayley = s4.cayley.tolist()
    closure, frontier = {s4.identity_index}, {s4.identity_index}
    while frontier:
        frontier = {cayley[x][g] for x in frontier for g in seed} - closure
        closure |= frontier
    assert sub.indices.tolist() == sorted(closure)
    assert 24 % sub.order == 0
    assert sub.is_closed()
    products = s4.cayley[np.ix_(sub.indices, sub.indices)]
    assert set(np.unique(products)) <= set(sub.indices.tolist())


def test_catalog_sanity():
    assert catalog_group("Q8").order == 8
    assert catalog_group("Dic3").order == 12
    assert catalog_group("SL23").order == 24
    assert catalog_group("E16").order == 16
    assert catalog_group("V4").order == 4
    assert catalog_group("D2").order == 4
    assert catalog_group("A5").order == 60
    assert catalog_group("Z30").order == 30
    assert not catalog_group("Q8").is_abelian()
    assert catalog_group("E16").is_abelian()


CATALOG_NAMES = """
    Z1 Z2 Z3 Z4 Z5 Z6 Z7 Z8 Z9 Z10 Z11 Z12 Z13 Z14 Z15 Z16 Z17 Z18 Z19 Z20 Z21 Z22 Z23 Z24
    Z25 Z26 Z27 Z28 Z29 Z30 Z31 Z32 Z33 Z34 Z35 Z36 Z37 Z38 Z39 Z40 Z41 Z42 Z43 Z44 Z45 Z46
    Z47 Z48 D2 D3 D4 D5 D6 D7 D8 D9 D10 D11 D12 D13 D14 D15 D16 D17 D18 D19 D20 D21 D22 D23
    D24 Dic2 Dic3 Dic4 Dic5 Dic6 Dic7 Dic8 Dic9 Dic10 Dic11 Dic12 S1 S2 S3 S4 S5 A3 A4 A5
    Q8 SL23 E2 E4 V4 E8 E16
""".split()


def test_catalog_names_are_pinned():
    assert catalog_names() == CATALOG_NAMES


def test_catalog_groups_match_their_former_constructions():
    oracles = {f"S{n}": symmetric_group(n) for n in range(1, 6)}
    oracles |= {f"A{n}": alternating_group(n) for n in range(3, 6)}
    oracles |= {f"Dic{n}": dicyclic_group(n) for n in range(2, 13)}
    oracles |= {"Q8": dicyclic_group(2), "SL23": sl23_group()}
    for name, oracle in oracles.items():
        group = catalog_group(name)
        assert group.name == name
        assert np.array_equal(group.images, oracle.images), name


@pytest.mark.parametrize("name", ["Z007", "E016", "Dic02", "Z0", "Z49", "D1", "S6", "A2", "E32", "z7"])
def test_only_catalog_names_resolve(name):
    with pytest.raises(GroupSpecError, match="unknown catalog group"):
        catalog_group(name)
    with pytest.raises(GroupSpecError, match="unknown group spec"):
        parse_group_spec(name)
    assert name not in biprox.catalog._cache


def test_file_spec_closes_like_the_perm_spec(tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text("(1,2,3,4)\n\n  (1,2)\n")
    group = parse_group_spec(f"file:{path}")
    assert group.name == "s4.txt"
    assert np.array_equal(group.images, parse_group_spec("perm:(1,2,3,4);(1,2)").images)
    with pytest.raises(OrderCapExceeded):
        parse_group_spec(f"file:{path}", max_order=23)
    path.write_text("(1,2)(0,3)\n")
    with pytest.raises(GroupSpecError, match="1-based"):
        parse_group_spec(f"file:{path}")
    with pytest.raises(GroupSpecError, match="not found"):
        parse_group_spec(f"file:{tmp_path / 'missing.txt'}")


def test_center_subgroup() -> None:
    from biprox.permgroup import center_subgroup

    assert center_subgroup(catalog_group("S3")).order == 1
    assert center_subgroup(catalog_group("S4")).order == 1
    assert center_subgroup(catalog_group("Q8")).order == 2
    assert center_subgroup(catalog_group("D4")).order == 2
    assert center_subgroup(catalog_group("Z6")).order == 6


def test_derived_subgroup() -> None:
    from biprox.permgroup import derived_subgroup

    assert derived_subgroup(catalog_group("S3")).order == 3
    assert derived_subgroup(catalog_group("S4")).order == 12
    assert derived_subgroup(catalog_group("A4")).order == 4
    assert derived_subgroup(catalog_group("Q8")).order == 2
    assert derived_subgroup(catalog_group("Z12")).order == 1
