"""Tests for finite lattices and subgroup interval lattices.

Oracle values in this file were derived independently:
  - subgroup lattices of Z/6, (Z/2)^2, S3, Q8, Z/12 written out by hand
    (their subgroups are standard and few);
  - the interval [S2, S4] was enumerated by hand: above <(12)> sit
    <(12),(34)> (order 4), the two symmetric groups on {1,2,3} and
    {1,2,4} (order 6), the dihedral group <(12),(34),(13)(24)> (order 8);
  - forbidden-sublattice answers are cross-checked in-file against an
    exhaustive 5-subset search (lattice_oracle.find_forbidden_bruteforce).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import biprox.boxalgebra
import biprox.lattice
from biprox.boxalgebra import BoxContext, biprojection_lattice
from biprox.catalog import catalog_group
from biprox.cli import enumerate_pairs, main
from biprox.errors import NotBoolean, SubgroupCapExceeded
from biprox.interval import Inclusion
from biprox.lattice import (
    FiniteLattice,
    boolean_rank,
    forbidden_sublattice,
    is_distributive,
    is_modular,
    to_dot,
    _is_m3,
    _is_n5,
)
from biprox.permgroup import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    generated_by_closure,
    parse_cycles,
    subgroup_generated,
)
from biprox.properties import _biprojections, _step_parts
from lattice_fixtures import (
    atoms,
    boolean_lattice,
    chain,
    coatoms,
    complement,
    concatenate,
    diamond_m3,
    direct_product,
    divisor_lattice,
    induced_sublattice,
    pentagon_n5,
)
from lattice_oracle import (
    bottom_part,
    find_forbidden_bruteforce,
    interval_lattice,
    restricted_figures,
    row_lattice,
    scan_is_distributive,
    scan_is_modular,
    standalone_interval_lattice,
    subgroup_interval,
    top_part,
    valuation_is_distributive,
    valuation_is_modular,
)


def interval(group_name: str, *subgroup_cycles: str) -> FiniteLattice:
    g = catalog_group(group_name)
    if subgroup_cycles:
        idx = [g.index_of(parse_cycles(c, degree=g.degree)) for c in subgroup_cycles]
        h = subgroup_generated(g, idx)
    else:
        h = g.trivial_subgroup()
    return subgroup_interval(Inclusion(g, h))


# ---------------------------------------------------------------- basics


@pytest.mark.parametrize(
    "lat",
    [
        chain(0),
        chain(3),
        boolean_lattice(0),
        boolean_lattice(3),
        diamond_m3(),
        pentagon_n5(),
        divisor_lattice(12),
        divisor_lattice(30),
    ],
    ids=["chain0", "chain3", "b0", "b3", "m3", "n5", "div12", "div30"],
)
def test_validate_factories(lat: FiniteLattice) -> None:
    lat.validate()


def test_chain_shape() -> None:
    lat = chain(4)
    assert lat.n == 5
    assert lat.height() == 4
    assert lat.bottom == 0 and lat.top == 4
    assert atoms(lat) == [1] and coatoms(lat) == [3]
    assert lat.meet[1, 3] == 1 and lat.join[1, 3] == 3


def test_boolean_lattice_shape() -> None:
    lat = boolean_lattice(3)
    assert lat.n == 8
    assert lat.height() == 3
    assert len(atoms(lat)) == 3 and len(coatoms(lat)) == 3
    # meet/join are bitwise and/or on the subset labels
    assert lat.meet[3, 5] == 1 and lat.join[3, 5] == 7


def test_divisor_lattice_is_gcd_lcm() -> None:
    lat = divisor_lattice(12)
    divs = [int(s) for s in lat.labels]
    assert divs == [1, 2, 3, 4, 6, 12]
    for i, a in enumerate(divs):
        for j, b in enumerate(divs):
            assert divs[lat.meet[i, j]] == np.gcd(a, b)
            assert divs[lat.join[i, j]] == np.lcm(a, b)


def test_from_order_names_a_missing_meet() -> None:
    # 0 < a, b < c, d < 1: c and d have two maximal lower bounds (a and b),
    # so there is a bottom and a top but no meet of c and d.
    leq = np.eye(6, dtype=bool)
    leq[0, :] = leq[:, 5] = True
    leq[1:3, 3:5] = True
    with pytest.raises(ValueError, match="elements 3,4 have no meet"):
        FiniteLattice.from_order(leq)


def test_validate_raises_value_error_on_corrupt_meet() -> None:
    # A lower bound that is not the greatest one.
    b3 = boolean_lattice(3)
    meet = b3.meet.copy()
    meet[6, 7] = meet[7, 6] = 0  # claims 110 ∧ 111 = 000, below 110
    with pytest.raises(ValueError, match="meet is not above every common lower bound"):
        dataclasses.replace(b3, meet=meet).validate()
    b3.validate()
    lat = diamond_m3()
    meet = lat.meet.copy()
    meet[1, 2] = meet[2, 1] = 1  # claims a ∧ b = a, but a is not below b
    with pytest.raises(ValueError, match="meet"):
        dataclasses.replace(lat, meet=meet).validate()
    join = lat.join.copy()
    join[1, 2] = join[2, 1] = 0  # claims a ∨ b = 0, which is below neither
    with pytest.raises(ValueError, match="join"):
        dataclasses.replace(lat, join=join).validate()


def test_from_order_rejects_non_lattices() -> None:
    # Two maximal elements: no top, and {a,b} has no join.
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[0, 2] = True
    with pytest.raises(ValueError):
        FiniteLattice.from_order(leq)
    # Non-transitive relation.
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    with pytest.raises(ValueError):
        FiniteLattice.from_order(leq)


def test_reverse_swaps_everything() -> None:
    lat = divisor_lattice(12)
    rev = lat.reverse()
    rev.validate()
    assert rev.bottom == lat.top and rev.top == lat.bottom
    assert np.array_equal(rev.meet, lat.join)
    assert np.array_equal(rev.leq, lat.leq.T)
    back = rev.reverse()
    assert np.array_equal(back.leq, lat.leq)


# ------------------------------------------------- subgroup interval lattices


def test_interval_z6() -> None:
    # Z/6 has subgroups of orders 1, 2, 3, 6 only.
    lat = interval("Z6")
    assert lat.n == 4
    assert [s.order for s in lat.payload] == [1, 2, 3, 6]
    assert lat.height() == 2
    assert is_distributive(lat) and forbidden_sublattice(lat) is None
    assert boolean_rank(lat) == 2


def test_interval_v4_is_diamond() -> None:
    # (Z/2)^2: trivial, three order-2 subgroups, full group — the diamond M3.
    lat = interval("E4")
    assert lat.n == 5
    assert not is_distributive(lat)
    witness = forbidden_sublattice(lat)
    assert witness is not None and _is_m3(lat, witness[0], witness[1:4], witness[4])
    assert is_modular(lat)


def test_interval_s3() -> None:
    # S3: trivial, three <transposition>, A3, S3.
    lat = interval("S3")
    assert lat.n == 6
    assert sorted(s.order for s in lat.payload) == [1, 2, 2, 2, 3, 6]
    assert lat.height() == 2
    witness = forbidden_sublattice(lat)
    assert not is_distributive(lat) and _is_m3(lat, witness[0], witness[1:4], witness[4])
    assert is_modular(lat)  # all chains are short; no pentagon fits
    assert boolean_rank(lat) is None


def test_interval_q8_modular_not_distributive() -> None:
    # Q8 is Hamiltonian: every subgroup normal, lattice modular; its three
    # order-4 subgroups over the centre form a diamond.
    lat = interval("Q8")
    assert lat.n == 6
    assert is_modular(lat)
    witness = forbidden_sublattice(lat)
    assert not is_distributive(lat) and _is_m3(lat, witness[0], witness[1:4], witness[4])


def test_interval_s2_s4_pentagon() -> None:
    # [<(12)>, S4]: six nodes of orders 2,4,6,6,8,24; contains the pentagon
    # <(12)> < <(12),(34)> < dihedral-8 < S4 with side S{1,2,3}.
    lat = interval("S4", "(1,2)")
    assert lat.n == 6
    assert [s.order for s in lat.payload] == [2, 4, 6, 6, 8, 24]
    assert not is_modular(lat) and not is_distributive(lat)
    assert _is_n5(lat, *forbidden_sublattice(lat))


def test_interval_s4_full() -> None:
    lat = interval("S4")
    assert lat.n == 30
    assert lat.height() == 4  # 1 < C2 < V4 < D8 < S4
    assert not is_distributive(lat)
    witness = forbidden_sublattice(lat)
    kind = "M3" if _is_m3(lat, witness[0], witness[1:4], witness[4]) else "N5"
    if kind == "N5":
        assert _is_n5(lat, *witness)
    lat.validate()


def test_payload_and_labels() -> None:
    lat = interval("S3")
    assert lat.payload[lat.bottom].order == 1
    assert lat.payload[lat.top].order == 6
    assert len(lat.labels) == lat.n


# ---------------------------------------------------- witnesses vs brute force


BRUTE_CASES = [
    ("chain3", lambda: chain(3), True),
    ("b2", lambda: boolean_lattice(2), True),
    ("b3", lambda: boolean_lattice(3), True),
    ("m3", diamond_m3, False),
    ("n5", pentagon_n5, False),
    ("div12", lambda: divisor_lattice(12), True),
    ("div30", lambda: divisor_lattice(30), True),
    ("Z6", lambda: interval("Z6"), True),
    ("E4", lambda: interval("E4"), False),
    ("S3", lambda: interval("S3"), False),
    ("Q8", lambda: interval("Q8"), False),
    ("S2S4", lambda: interval("S4", "(1,2)"), False),
    ("A4", lambda: interval("A4"), False),
    ("D4", lambda: interval("D4"), False),
]


@pytest.mark.parametrize(
    "make,expected", [(m, e) for _, m, e in BRUTE_CASES], ids=[i for i, _, _ in BRUTE_CASES]
)
def test_distributive_agrees_with_bruteforce(make, expected: bool) -> None:
    # Independent check: the triple-identity decision must match an
    # exhaustive search for induced M3/N5 five-element sublattices.
    lat = make()
    assert lat.n <= 12, "brute force oracle is limited to small lattices"
    ok, witness = is_distributive(lat), forbidden_sublattice(lat)
    brute = find_forbidden_bruteforce(lat)
    assert ok == (brute is None) == (witness is None) == expected
    if not ok:
        assert witness is not None and len(set(witness)) == 5
        # the witness must itself be a closed (induced) sublattice
        sub = induced_sublattice(lat, sorted(witness))
        assert sub.n == 5


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: chain(4), True),
        (diamond_m3, True),
        (pentagon_n5, False),
        (lambda: interval("S3"), True),
        (lambda: interval("Q8"), True),
        (lambda: interval("S4", "(1,2)"), False),
    ],
    ids=["chain4", "m3", "n5", "S3", "Q8", "S2S4"],
)
def test_modularity_oracles(make, expected: bool) -> None:
    lat = make()
    assert is_modular(lat) == expected
    if not expected:
        assert _is_n5(lat, *forbidden_sublattice(lat))


def test_distributivity_is_reverse_invariant() -> None:
    for _, make, expected in BRUTE_CASES:
        lat = make()
        assert is_distributive(lat.reverse()) == expected
        assert is_modular(lat.reverse()) == is_modular(lat)


# ------------------------------------------------------------- Boolean rank


def test_boolean_rank_values() -> None:
    assert boolean_rank(boolean_lattice(0)) == 0
    assert boolean_rank(boolean_lattice(1)) == 1
    assert boolean_rank(boolean_lattice(3)) == 3
    assert boolean_rank(chain(1)) == 1
    assert boolean_rank(chain(2)) is None      # 3 elements
    assert boolean_rank(chain(3)) is None      # 4 elements but only one atom
    assert boolean_rank(diamond_m3()) is None  # not distributive
    assert boolean_rank(divisor_lattice(30)) == 3
    assert boolean_rank(divisor_lattice(12)) is None


def _boolean_rank_by_subsets(lat: FiniteLattice) -> int | None:
    """Boolean rank by enumeration (the former ``boolean_rank``, kept as the
    oracle): every element must be the join of the atoms below it,
    bijectively over the 2^k atom subsets, and complemented."""
    ups = atoms(lat)
    k = len(ups)
    if lat.n != 2**k or not is_distributive(lat):
        return None
    seen = {}
    for subset in range(2**k):
        x = lat.bottom
        for bit in range(k):
            if subset >> bit & 1:
                x = int(lat.join[x, ups[bit]])
        atom_set = frozenset(a for a in ups if lat.leq[a, x])
        expect = frozenset(ups[bit] for bit in range(k) if subset >> bit & 1)
        if atom_set != expect or x in seen:
            return None
        seen[x] = subset
    if len(seen) != lat.n:
        return None
    for x in range(lat.n):
        comp = seen[x] ^ (2**k - 1)
        y = lat.bottom
        for bit in range(k):
            if comp >> bit & 1:
                y = int(lat.join[y, ups[bit]])
        if lat.meet[x, y] != lat.bottom or lat.join[x, y] != lat.top:
            return None
    return k


def _boolean_rank_cases() -> list[FiniteLattice]:
    """Every catalog interval lattice with its top and bottom parts,
    every interval of those with at most 32 nodes, and the factory
    families under products and stacking."""
    cases = []
    for _name, inc in enumerate_pairs():
        lat = subgroup_interval(inc)
        top, bottom = top_part(lat, lat.bottom, lat.top), bottom_part(lat, lat.bottom, lat.top)
        cases += [lat, interval_lattice(lat, top, lat.top)]
        cases += [interval_lattice(lat, lat.bottom, bottom)]
        if lat.n <= 32:
            cases += [interval_lattice(lat, a, b) for a, b in zip(*np.nonzero(lat.leq))]
    small = [chain(0), chain(1), chain(2), chain(3), diamond_m3(), pentagon_n5()]
    small += [boolean_lattice(k) for k in range(4)]
    cases += [divisor_lattice(n) for n in range(1, 121)]
    cases += [direct_product(a, b) for a, b in itertools.product(small, repeat=2)]
    cases += [concatenate(a, b) for a, b in itertools.product(small, repeat=2)]
    cases += [direct_product(boolean_lattice(3), divisor_lattice(n)) for n in (6, 30, 210)]
    return cases


def test_boolean_rank_matches_subset_enumeration() -> None:
    # Birkhoff's count (distributive, 2^k elements for k atoms) must agree
    # with the explicit atom-subset bijection on every lattice in reach.
    cases = _boolean_rank_cases()
    ranks = [boolean_rank(lat) for lat in cases]
    assert ranks == [_boolean_rank_by_subsets(lat) for lat in cases]
    assert len(cases) > 5000
    assert {r for r in ranks if r is not None} >= {0, 1, 2, 3, 4, 5, 6}


def test_complement() -> None:
    lat = boolean_lattice(3)
    # labels are binary subset strings; complement must be the bitwise flip
    for x in range(lat.n):
        c = complement(lat, x)
        assert int(lat.labels[x], 2) ^ int(lat.labels[c], 2) == 7
    with pytest.raises(NotBoolean):
        complement(chain(2), 1)
    with pytest.raises(NotBoolean):
        complement(diamond_m3(), 1)


# ---------------------------------------------------------------- intervals


def _whole_step_parts(group_name: str):
    """[H, G] for H = {1} and the parts of the biprojection lattice's whole
    step [e1, id], from the step row: the biprojection lattice reverses
    [H, G], so its bottom part is the top part of [H, G] and vice versa."""
    g = catalog_group(group_name)
    ctx = BoxContext(g, g.trivial_subgroup())
    bip, top = _biprojections(ctx)
    step = (bip.bottom, np.array([top]))
    return ctx.node[0], _step_parts(bip, "b", *step), _step_parts(bip, "t", *step)


def test_top_part_z12() -> None:
    # Coatoms of L(Z/12) are the subgroups of order 6 and 4; their meet has
    # order 2, and the top part [C2, Z12] = {2,4,6,12} is a 2-cube.
    lat, (_, (m,), (k,)), _ = _whole_step_parts("Z12")
    assert m == top_part(lat, lat.bottom, lat.top) and k == 2
    top = interval_lattice(lat, m, lat.top)
    assert top.n == 4
    assert boolean_rank(top) == 2
    assert [k.order for k in top.payload] == [2, 4, 6, 12]
    # labels and payload are the members' own, in the parent's node order
    members = [lat.payload.index(k) for k in top.payload]
    assert members == sorted(members)
    assert [lat.labels[m] for m in members] == list(top.labels)


def test_bottom_part_s3() -> None:
    # Atoms of L(S3) generate everything: join of atoms is S3 itself.
    lat, _, ((j,), _, (k,)) = _whole_step_parts("S3")
    assert j == bottom_part(lat, lat.bottom, lat.top) and k == 4
    bot = interval_lattice(lat, lat.bottom, j)
    assert bot.n == lat.n
    assert bot.labels == lat.labels and bot.payload == lat.payload


def test_interval_of_chain() -> None:
    lat = chain(5)
    mid = interval_lattice(lat, 1, 4)
    assert mid.n == 4 and mid.height() == 3
    assert mid.labels == ("1", "2", "3", "4")


def test_induced_sublattice_requires_closure() -> None:
    lat = boolean_lattice(2)
    with pytest.raises(ValueError):
        induced_sublattice(lat, [1, 2])  # missing meet and join
    with pytest.raises(ValueError, match="join"):
        induced_sublattice(lat, [0, 1, 2])  # closed under meet, not under join


# ------------------------------------------------------- product and stacking


def test_direct_product_shapes() -> None:
    prod = direct_product(chain(1), chain(1))
    assert prod.n == 4 and boolean_rank(prod) == 2
    prod3 = direct_product(chain(1), direct_product(chain(1), chain(1)))
    assert boolean_rank(prod3) == 3
    mixed = direct_product(chain(2), chain(3))
    assert mixed.n == 12 and mixed.height() == 5
    assert is_distributive(mixed)
    mixed.validate()


def test_direct_product_preserves_distributivity_exactly() -> None:
    assert is_distributive(direct_product(divisor_lattice(12), chain(2)))
    assert not is_distributive(direct_product(diamond_m3(), chain(1)))
    assert not is_modular(direct_product(pentagon_n5(), boolean_lattice(1)))


def test_concatenate() -> None:
    stacked = concatenate(chain(2), chain(3))
    assert stacked.n == 6 and stacked.height() == 5
    both = concatenate(diamond_m3(), chain(1))
    assert both.n == 6
    assert not is_distributive(both)
    assert is_modular(both)
    tower = concatenate(boolean_lattice(1), boolean_lattice(1))
    assert tower.n == 3 and tower.height() == 2
    assert is_distributive(tower)
    # concatenation with a pentagon stays non-modular
    assert not is_modular(concatenate(chain(1), pentagon_n5()))


def test_concatenate_identifies_endpoints() -> None:
    stacked = concatenate(boolean_lattice(2), chain(2))
    assert stacked.n == 4 + 3 - 1
    assert stacked.bottom == 0
    assert stacked.height() == 4
    stacked.validate()


# ------------------------------------------------------------------- output


def test_to_dot() -> None:
    lat = interval("S3")
    dot = to_dot(lat.labels, np.argwhere(lat.covers()), "L(S3)")
    assert dot.startswith('digraph "L(S3)"')
    assert dot.count("->") == int(lat.covers().sum())  # 8 cover edges
    assert lat.covers().sum() == 8
    for i in range(lat.n):
        assert f"n{i} " in dot


def test_validate_interval_lattices() -> None:
    for name in ["S3", "Z6", "Q8", "A4"]:
        interval(name).validate()


def test_validate_memory_is_quadratic() -> None:
    # n = 384: an (x, i, j) cube for the bound test would be n^3 = 57 MB of
    # booleans per array; validate() must stay far below one.
    lat = direct_product(boolean_lattice(5), divisor_lattice(72))
    assert lat.n == 384
    tracemalloc.start()
    try:
        lat.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def _pairwise_closure_tables(lat: FiniteLattice) -> tuple[np.ndarray, np.ndarray]:
    """Meet and join tables of an interval lattice taken node pair by node
    pair: the meet is the node whose mask is the intersection, the join the
    subgroup generated by both members (the former per-inclusion route,
    kept as the group-theoretic oracle)."""
    nodes = lat.payload
    group = nodes[0].parent
    key_to_idx = {k.key(): i for i, k in enumerate(nodes)}
    meet = np.empty((lat.n, lat.n), dtype=np.int32)
    join = np.empty((lat.n, lat.n), dtype=np.int32)
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            meet[i, j] = key_to_idx[group.subgroup_from_mask(a.mask & b.mask).key()]
            joined = generated_by_closure(group, np.concatenate([a.indices, b.indices]))
            join[i, j] = key_to_idx[joined.key()]
    return meet, join


@pytest.mark.parametrize(
    "name,sub",
    [("S4", ()), ("S4", ("(1,2)",)), ("A5", ()), ("D4", ()), ("D8", ()),
     ("Q8", ()), ("E8", ())],
    ids=["S4", "S4/(1,2)", "A5", "D4", "D8", "Q8", "E8"],
)
def test_interval_tables_match_group_meet_and_join(name: str, sub: tuple) -> None:
    # The tables come from the order alone; in [H, G] they must be the
    # intersection and the generated subgroup, both in the oracle's
    # interval_lattice and, swapped, in biprojection_lattice, whichever way
    # it is built.  (Catalog D4 has order 8, D8 order 16.)
    lat = interval(name, *sub)
    meet, join = _pairwise_closure_tables(lat)
    assert np.array_equal(lat.meet, meet)
    assert np.array_equal(lat.join, join)
    assert lat.bottom == 0 and lat.top == lat.n - 1
    orders = [k.order for k in lat.payload]
    assert orders == sorted(orders)
    h = lat.payload[lat.bottom]
    bip = biprojection_lattice(BoxContext(h.parent, h))
    assert [k.key() for k in bip.payload] == [k.key() for k in lat.payload]
    assert np.array_equal(bip.meet, join) and np.array_equal(bip.join, meet)
    assert (bip.bottom, bip.top) == (lat.top, lat.bottom)


# ------------------------------- level tables, failure lists and valuations


def test_from_order_checks_a_single_candidate() -> None:
    # 0 < a < c, 0 < y, with c and y below both i and j, and i < k: c is the
    # only common lower bound of i and j at the largest level that has one,
    # but y is a common lower bound not below it, so i and j have no meet.
    # (Dually i is the only minimal common upper bound of c and y at its
    # level, yet j is not above it; no level ever holds two candidates.)
    leq = np.eye(8, dtype=bool)  # 0, a, c, y, i, j, k, 1
    leq[0, :] = leq[:, 7] = True
    leq[1, [2, 4, 5, 6]] = True
    leq[[2, 3], 4:7] = True
    leq[4, 6] = True
    with pytest.raises(ValueError, match="meet is not above every common lower bound"):
        FiniteLattice.from_order(leq)
    with pytest.raises(ValueError, match="elements 4,5 have no meet"):
        row_lattice(leq)


def _combine(a: FiniteLattice, b: FiniteLattice, how: str) -> FiniteLattice:
    if a.n * b.n > 80:
        return a
    return direct_product(a, b) if how == "product" else concatenate(a, b)


def _subgroup_interval(name: str, pick: int) -> FiniteLattice:
    g = catalog_group(name)
    subs = all_subgroups(g)
    return subgroup_interval(Inclusion(g, subs[pick % len(subs)]))


def _semimodular_s7() -> FiniteLattice:
    """S7: upper semimodular but not modular, with no cover-preserving
    diamond, so only its failure of lower semimodularity (3 and 5 are
    covered by 6, yet their meet 0 is covered by neither) shows that it is
    not distributive."""
    leq = np.eye(7, dtype=bool)
    leq[0, :] = leq[:, 6] = True
    leq[1, [3, 4]] = leq[2, [4, 5]] = True
    return FiniteLattice.from_order(leq)


_BASE_LATTICES = st.one_of(
    st.integers(0, 4).map(chain),
    st.builds(_semimodular_s7),
    st.integers(0, 3).map(boolean_lattice),
    st.builds(diamond_m3),
    st.builds(pentagon_n5),
    st.integers(1, 60).map(divisor_lattice),
    st.builds(
        _subgroup_interval,
        st.sampled_from(["S3", "Z12", "Q8", "A4", "D4", "S4", "E8", "D6"]),
        st.integers(0, 100),
    ),
)
LATTICES = st.builds(
    lambda lat, flip: lat.reverse() if flip else lat,
    st.recursive(
        _BASE_LATTICES,
        lambda inner: st.builds(_combine, inner, inner, st.sampled_from(["product", "concat"])),
        max_leaves=3,
    ),
    st.booleans(),
)


def _without(lat: FiniteLattice, pick: int) -> np.ndarray:
    """The order of ``lat`` with one node other than bottom and top removed,
    often no lattice."""
    inner = [i for i in range(lat.n) if i not in (lat.bottom, lat.top)]
    if not inner:
        return lat.leq
    keep = np.setdiff1d(np.arange(lat.n), inner[pick % len(inner)])
    return lat.leq[np.ix_(keep, keep)]


def _bounded_poset(k: int, seed: int) -> np.ndarray:
    """A random order on k nodes (a transitive closure of upward edges, each
    drawn with probability 1/2), with a bottom and a top added: a lattice or
    not."""
    rng = np.random.default_rng(seed)
    n = k + 2
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, -1] = True
    leq[1:-1, 1:-1] |= np.triu(rng.random((k, k)) < 0.5)
    for _ in range(k):
        leq |= (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    return leq


ORDERS = st.one_of(
    LATTICES.map(lambda lat: lat.leq),
    st.builds(_without, LATTICES, st.integers(0, 100)),
    st.builds(_bounded_poset, st.integers(5, 9), st.integers(0, 2**32 - 1)),
)


# Array cells per block: the default (one block at these sizes), or one
# row per block.
BLOCK_CELLS = st.sampled_from([biprox.lattice._BLOCK_CELLS, 1])


@settings(max_examples=300, deadline=None)
@given(ORDERS, BLOCK_CELLS)
def test_level_tables_match_row_infima(leq: np.ndarray, block_cells: int) -> None:
    # The level-by-level tables against the row-by-row routine they replaced:
    # equal tables on a lattice, and a ValueError from both on anything else.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biprox.lattice, "_BLOCK_CELLS", block_cells)
        try:
            expected = row_lattice(leq)
        except ValueError:
            event("not a lattice")
            with pytest.raises(ValueError):
                FiniteLattice.from_order(leq)
            return
        event("lattice")
        lat = FiniteLattice.from_order(leq)
    assert np.array_equal(lat.meet, expected.meet)
    assert np.array_equal(lat.join, expected.join)
    assert (lat.bottom, lat.top) == (expected.bottom, expected.top)


@settings(max_examples=300, deadline=None)
@given(LATTICES)
def test_valuations_match_triple_scans(lat: FiniteLattice) -> None:
    # The valuation criteria (the oracle copies) and the failure list against
    # the triple scans; a lattice with two maximal chains of different
    # lengths is not graded.
    modular = valuation_is_modular(lat)
    assert modular == is_modular(lat) == scan_is_modular(lat)[0]
    assert valuation_is_distributive(lat) == is_distributive(lat) == scan_is_distributive(lat)[0]
    event("modular" if modular else "not modular")
    lengths = {int(lat._depths[a]) for a in atoms(lat)}
    event("graded" if len(lengths) <= 1 else "not graded")


@settings(max_examples=300, deadline=None)
@given(LATTICES, BLOCK_CELLS)
def test_forbidden_sublattice_matches_triple_scans(
    lat: FiniteLattice, block_cells: int
) -> None:
    # The same witness as the scan route, whether the witness scan runs in
    # one block or one row per block.
    expected = scan_is_distributive(lat)[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biprox.lattice, "_BLOCK_CELLS", block_cells)
        assert forbidden_sublattice(lat) == expected
    event("distributive" if expected is None else "not distributive")


def test_forbidden_sublattice_raises_when_no_triple_fails(monkeypatch) -> None:
    # A marked failure with no failing triple is an internal error, on the
    # modular (M3) and the non-modular (N5) branch alike.
    monkeypatch.setattr(biprox.lattice, "_failing_distributive_triple", lambda lat: None)
    monkeypatch.setattr(biprox.lattice, "_failing_modular_triple", lambda lat: None)
    for lat in (diamond_m3(), pentagon_n5()):
        with pytest.raises(RuntimeError, match="a failure pair is marked, yet no triple fails"):
            forbidden_sublattice(lat)
    assert forbidden_sublattice(boolean_lattice(2)) is None


@settings(max_examples=300, deadline=None)
@given(LATTICES, BLOCK_CELLS)
def test_distributive_intervals_match_interval_lattices(
    lat: FiniteLattice, block_cells: int
) -> None:
    # The table of local failures against the valuation criterion on each
    # interval lattice, and False off the order, whether the table is built
    # in one block or one row per block.
    expected = np.zeros((lat.n, lat.n), dtype=bool)
    for a, b in zip(*np.nonzero(lat.leq)):
        expected[a, b] = valuation_is_distributive(interval_lattice(lat, a, b))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biprox.lattice, "_BLOCK_CELLS", block_cells)
        assert np.array_equal(lat.distributive_intervals, expected)
    event("distributive" if expected[lat.bottom, lat.top] else "not distributive")


@settings(max_examples=100, deadline=None)
@given(LATTICES, BLOCK_CELLS)
def test_upper_intervals_match_triple_scans(lat: FiniteLattice, block_cells: int) -> None:
    # [a, top] for every node a, read off the failure list, against the
    # triple scans of the interval lattice; the list marked as drawn and
    # again in one row per block, on a copy with no caches and no parent.
    fresh = FiniteLattice._finish(
        lat.n, lat.leq, lat.meet, lat.join, lat.bottom, lat.top, lat.labels, None
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biprox.lattice, "_BLOCK_CELLS", block_cells)
        for a in range(lat.n):
            part = interval_lattice(lat, a, lat.top)
            modular, distributive = scan_is_modular(part)[0], scan_is_distributive(part)[0]
            assert is_modular(lat, a) == is_modular(fresh, a) == modular, a
            assert is_distributive(lat, a) == is_distributive(fresh, a) == distributive, a
    # The reversed view reads the parent's list with z and w swapped, and
    # marks nothing of its own: its list has the parent's very arrays.
    z, w, semimodular = lat._failures
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biprox.lattice, "_BLOCK_CELLS", None)  # a marking would fail
        rz, rw, rsemimodular = lat.reverse()._failures
    assert rz is w and rw is z and rsemimodular is semimodular
    event("distributive" if is_distributive(lat) else "not distributive")


def test_lattice_figures_match_restricted_lattices_on_the_census(capsys) -> None:
    # Every census pair's `lattice` JSON, read off the group's lattice by
    # H's node, against [H, G] restricted from it and decided by valuations.
    pairs = enumerate_pairs()
    counts = {"not distributive": 0, "not modular": 0, "Boolean": 0}
    for name, inc in pairs:
        spec = ["lattice", "--group", name, "--subgroup", inc.sub.generator_string()]
        assert main(spec + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = restricted_figures(inc)
        assert {k: doc[k] for k in expected} == expected, (name, spec)
        counts["not distributive"] += not expected["distributive"]
        counts["not modular"] += not expected["modular"]
        counts["Boolean"] += expected["boolean_rank"] is not None
    assert len(pairs) == 565
    assert all(counts.values()), counts


def test_lattice_command_builds_no_interval_lattice(monkeypatch, capsys) -> None:
    # [<(1,2)>, S4] is read off S4's lattice by its node, in JSON and DOT:
    # once that lattice is cached, no lattice is built at all.
    def refuse(*_args, **_kwargs):
        raise AssertionError("an interval lattice was built")

    s4 = catalog_group("S4")
    Inclusion(s4, s4.trivial_subgroup()).node
    monkeypatch.setattr(FiniteLattice, "from_order", refuse)
    monkeypatch.setattr(FiniteLattice, "_finish", refuse)
    monkeypatch.setattr(biprox.boxalgebra, "biprojection_lattice", refuse)
    for fmt in ("json", "dot"):
        assert main(["lattice", "--group", "S4", "--subgroup", "(1,2)", "--format", fmt]) == 0
        assert "size" in capsys.readouterr().out


def test_valuations_match_triple_scans_on_census_intervals() -> None:
    # Every interval [a, b] with a < b of the 565 census lattices, [H, G]
    # itself included: modularity and distributivity from the failure list
    # of the interval lattice, the witness, and the distributive-interval
    # table of the group's lattice at the same endpoints, against the
    # triple scans.
    counts = {"intervals": 0, "not distributive": 0, "not modular": 0}
    for name, inc in enumerate_pairs():
        group_lat, i = inc.node
        members = np.flatnonzero(group_lat.leq[i])
        lat = interval_lattice(group_lat, i, group_lat.top)
        for a, b in zip(*np.nonzero(lat.leq)):
            if a == b:
                continue
            part = interval_lattice(lat, a, b)
            modular, pentagon = scan_is_modular(part)
            distributive, witness = scan_is_distributive(part)
            assert is_modular(part) == modular, (name, a, b)
            assert is_distributive(part) == distributive, (name, a, b)
            assert forbidden_sublattice(part) == witness, (name, a, b)
            assert lat.distributive_intervals[a, b] == distributive, (name, a, b)
            endpoints = (members[a], members[b])
            assert group_lat.distributive_intervals[endpoints] == distributive, (name, a, b)
            counts["intervals"] += 1
            counts["not distributive"] += not distributive
            counts["not modular"] += not modular
    assert counts == {"intervals": 9112, "not distributive": 1549, "not modular": 358}


def test_height_is_the_longest_chain() -> None:
    # N5: the chains 0 < x < y < 1 and 0 < w < 1 have lengths 3 and 2.
    # Depths count down from the top; the reversed view's are the heights.
    n5 = pentagon_n5()
    assert n5._depths.tolist() == [3, 2, 1, 1, 0]
    assert n5.reverse()._depths.tolist() == [0, 1, 2, 1, 3]
    assert [n5.height(a) for a in range(5)] == [3, 2, 1, 1, 0]
    assert n5.height() == 3 and not is_modular(n5)
    assert concatenate(n5, diamond_m3()).height() == 5


def test_intervals_are_restrictions_of_one_lattice_per_group() -> None:
    # Every catalog inclusion's [H, G], restricted from the group's lattice
    # at H's node by interval_lattice and reversed by biprojection_lattice,
    # against a build of that interval alone (its members scanned, its
    # tables row by row).
    pairs = enumerate_pairs()
    assert len(pairs) == 565
    for name, inc in pairs:
        group_lat, i = inc.node
        lat = interval_lattice(group_lat, i, group_lat.top)
        alone = standalone_interval_lattice(inc.group, inc.sub)
        bip = biprojection_lattice(BoxContext(inc.group, inc.sub))
        assert np.array_equal(lat.leq, alone.leq) and np.array_equal(bip.leq, alone.leq.T), name
        assert np.array_equal(lat.meet, alone.meet) and np.array_equal(bip.join, alone.meet), name
        assert np.array_equal(lat.join, alone.join) and np.array_equal(bip.meet, alone.join), name
        assert (lat.bottom, lat.top) == (alone.bottom, alone.top) == (bip.top, bip.bottom), name
        assert lat.labels == alone.labels == bip.labels, name
        keys = [k.key() for k in alone.payload]
        assert [k.key() for k in lat.payload] == keys == [k.key() for k in bip.payload], name
    for group in {id(inc.group): inc.group for _, inc in pairs}.values():
        whole, bottom = Inclusion(group, group.trivial_subgroup()).node
        assert whole is group._subgroup_lattice and bottom == whole.bottom
        assert list(whole.payload) == all_subgroups(group)


def test_lattice_past_the_table_budget_is_a_cap_error(monkeypatch, capsys) -> None:
    # S4 has 30 subgroups: 30^2 cells need more than a 1 KiB budget.
    monkeypatch.setattr(biprox.lattice, "LATTICE_TABLE_BUDGET", 1024)
    s4 = FiniteGroup(catalog_group("S4").images)
    with pytest.raises(SubgroupCapExceeded, match="30 subgroups"):
        Inclusion(s4, s4.trivial_subgroup()).node
    assert s4._subgroup_lattice is None
    assert main(["lattice", "--group", "perm:(1,2,3,4);(1,2)", "--format", "json"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_large_group_builds_each_interval_alone_within_the_budget(monkeypatch, capsys) -> None:
    # With every group past the shared size and a budget of 100 cells,
    # S4's whole lattice (30 nodes) is over budget, yet [V4, S4] (6 nodes)
    # and [A4, S4] (2 nodes) are built alone, equal to the standalone build.
    monkeypatch.setattr(biprox.lattice, "_SHARED_LATTICE_NODES", 0)
    monkeypatch.setattr(
        biprox.lattice, "LATTICE_TABLE_BUDGET", 100 * biprox.lattice._TABLE_BYTES_PER_CELL
    )
    s4 = FiniteGroup(catalog_group("S4").images)
    subs = all_subgroups(s4)
    v4 = next(k for k in subs if k.order == 4 and k.is_normal())
    a4 = next(k for k in subs if k.order == 12)
    for h, size in ((v4, 6), (a4, 2)):
        (lat, i), alone = Inclusion(s4, h).node, standalone_interval_lattice(s4, h)
        assert lat.n == size and i == lat.bottom
        assert np.array_equal(lat.leq, alone.leq)
        assert np.array_equal(lat.meet, alone.meet) and np.array_equal(lat.join, alone.join)
        assert lat.labels == alone.labels
        assert [k.key() for k in lat.payload] == [k.key() for k in alone.payload]
    assert s4._subgroup_lattice is None
    with pytest.raises(SubgroupCapExceeded, match="30 subgroups"):
        Inclusion(s4, s4.trivial_subgroup()).node
    # A 2-element set that is no subgroup is refused on this route too.
    pair = np.zeros(s4.order, dtype=bool)
    pair[[s4.identity_index, s4.index_of(parse_cycles("(1,2,3)", degree=4))]] = True
    with pytest.raises(ValueError, match="not closed under products"):
        Inclusion(s4, Subgroup(s4, pair)).node
    spec = ["lattice", "--group", "perm:(1,2,3,4);(1,2)", "--format", "json"]
    assert main(spec + ["--subgroup", "(1,2,3);(2,3,4)"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 2
    assert main(spec) == 2
    # Once the whole lattice is cached, a large H reads its interval off it.
    monkeypatch.undo()
    monkeypatch.setattr(biprox.lattice, "_SHARED_LATTICE_NODES", 0)
    whole, _ = Inclusion(s4, s4.trivial_subgroup()).node
    assert Inclusion(s4, v4).node == (whole, subs.index(v4))
