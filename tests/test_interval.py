"""Tests for inclusion analysis: cyclicity, Ore-style reports, equivalence.

Oracle values derived independently:
  - minimal overgroup index sums were computed by hand from the standard
    subgroup lists of Z/6, S3, Q8, (Z/2)^2, (Z/2)^3, S4;
  - "every subgroup normal" facts: abelian groups and Q8 qualify, S3 does
    not (a transposition subgroup is not normal);
  - equivalence cases reduce to core quotients listed in the docstrings.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import biprox
from biprox.boxalgebra import BoxContext
from biprox.catalog import catalog_group
import biprox.interval
from biprox.cli import enumerate_pairs, equivalence_classes
from biprox.errors import NotNested, QuotientOrderCapExceeded, TheoremViolation
from biprox.interval import (
    DualOreReport,
    Inclusion,
    action_quotient,
    core_pair,
    coset_action,
    dual_ore_conditions,
    inclusions_equivalent,
    is_H_cyclic,
    isomorphism_carrying,
    ore_verify,
    pair_invariants,
)
from biprox.permgroup import FiniteGroup, parse_cycles, subgroup_generated
from interval_oracle import (
    core_quotient,
    equivalence_key,
    is_linearly_primitive_group,
    linearly_primitive_block_by_stabilizers,
)
from lattice_oracle import interval_subgroups


def make(group_name: str, *cycles: str) -> Inclusion:
    g = catalog_group(group_name)
    if cycles:
        idx = [g.index_of(parse_cycles(c, degree=g.degree)) for c in cycles]
        sub = subgroup_generated(g, idx)
    else:
        sub = g.trivial_subgroup()
    return Inclusion(g, sub)


def full(group_name: str) -> Inclusion:
    g = catalog_group(group_name)
    return Inclusion(g, g.full_subgroup())


# ------------------------------------------------------------------ basics


def test_inclusion_basics() -> None:
    inc = make("S4", "(1,2)")
    assert inc.index == 12
    lat, i = inc.node
    assert np.count_nonzero(lat.leq[i]) == 6  # [H, G] is the up-set of H's node
    assert inc.node is inc.node  # cached


def test_inclusion_rejects_foreign_subgroup() -> None:
    s3 = catalog_group("S3")
    s4 = catalog_group("S4")
    with pytest.raises(NotNested):
        Inclusion(s4, s3.trivial_subgroup())


def test_an_inclusion_is_its_box_context() -> None:
    # One class: the nesting check, index and node live on BoxContext, and
    # two inclusions of one group compare equal by member set.
    assert Inclusion is BoxContext and biprox.Inclusion is BoxContext
    s3, s4 = catalog_group("S3"), catalog_group("S4")
    with pytest.raises(NotNested):
        BoxContext(s4, s3.trivial_subgroup())
    a, b = make("S4", "(1,2)"), make("S4", "(1,2)")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make("S4", "(1,3)")


def test_no_function_body_imports_a_biprox_module() -> None:
    # Every module of the package imports its siblings at its top.
    found = []
    for path in sorted(Path(biprox.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else ["biprox"]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.split(".")[0] == "biprox" for m in modules):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# ------------------------------------------------------------- H-cyclicity


def test_h_cyclic_s2_s4() -> None:
    inc = make("S4", "(1,2)")
    g = is_H_cyclic(inc)
    assert g is not None
    gen = subgroup_generated(inc.group, np.append(inc.sub.indices, g))
    assert gen.order == 24
    # the 4-cycle (1,2,3,4) in particular generates S4 together with (1,2)
    four_cycle = inc.group.index_of(parse_cycles("(1,2,3,4)", degree=4))
    transposition = inc.group.index_of(parse_cycles("(1,2)", degree=4))
    by_hand = subgroup_generated(inc.group, [transposition, four_cycle])
    assert by_hand.order == 24


def test_h_cyclic_absent_for_noncyclic_group() -> None:
    assert is_H_cyclic(make("S3")) is None
    assert is_H_cyclic(make("E4")) is None


def test_h_cyclic_cyclic_group() -> None:
    inc = make("Z6")
    g = is_H_cyclic(inc)
    assert g is not None
    assert subgroup_generated(inc.group, [g]).order == 6


def test_h_cyclic_maximal_subgroup() -> None:
    # M maximal: any g outside M works; the witness is the first outside.
    s4 = catalog_group("S4")
    a4 = subgroup_generated(
        s4,
        [s4.index_of(parse_cycles(c, degree=4)) for c in ("(1,2,3)", "(2,3,4)")],
    )
    assert a4.order == 12
    inc = Inclusion(s4, a4)
    g = is_H_cyclic(inc)
    outside = np.flatnonzero(~a4.mask)
    assert g == outside.min()


def test_h_cyclic_full_inclusion() -> None:
    inc = full("S3")
    assert is_H_cyclic(inc) == inc.group.identity_index


def _h_cyclic_by_closure(inc: Inclusion):
    """The first g with <H, g> = G, by one closure per double coset HgH at
    its least element (the former is_H_cyclic, kept as an oracle)."""
    group, sub = inc.group, inc.sub
    if sub.order == group.order:
        return group.identity_index
    seen = sub.mask.copy()
    for g in range(group.order):
        if seen[g]:
            continue
        if subgroup_generated(group, np.append(sub.indices, g)).order == group.order:
            return g
        seen[group.cayley[np.ix_(group.cayley[sub.indices, g], sub.indices)]] = True
    return None


def test_h_cyclic_matches_closure_search() -> None:
    pairs = [inc for _, inc in enumerate_pairs(max_order=24)]
    groups = {id(inc.group): inc.group for inc in pairs}.values()
    pairs += [Inclusion(g, g.full_subgroup()) for g in groups]
    for inc in pairs:
        assert is_H_cyclic(inc) == _h_cyclic_by_closure(inc), inc


def _h_cyclic_by_member_scan(inc: Inclusion):
    """The least element in no proper member of [H, G], OR-ing the masks of
    every member (the former is_H_cyclic, kept as an oracle)."""
    covered = np.zeros(inc.group.order, dtype=bool)
    for k in interval_subgroups(inc.sub, inc.group)[:-1]:  # all but G itself
        covered |= k.mask
    outside = np.flatnonzero(~covered)
    return int(outside[0]) if outside.size else None


def test_h_cyclic_coatoms_match_member_scan() -> None:
    pairs = [inc for _, inc in enumerate_pairs()]
    groups = {id(inc.group): inc.group for inc in pairs}.values()
    pairs += [Inclusion(g, g.full_subgroup()) for g in groups]
    for inc in pairs:
        assert is_H_cyclic(inc) == _h_cyclic_by_member_scan(inc), inc


# ------------------------------------------------------------------ reports


def test_ore_verify_examples() -> None:
    r = ore_verify(make("Z6"))
    assert r.distributive and r.h_cyclic

    r = ore_verify(make("S4", "(1,2)"))
    assert not r.distributive and r.h_cyclic

    r = ore_verify(make("E4"))
    assert not r.distributive and not r.h_cyclic and r.witness is None


def test_ore_verify_raises_on_distributive_without_witness(monkeypatch) -> None:
    # Z6/{1} is distributive; a missing single-generator witness there is
    # a broken theorem, reported as a typed error that survives python -O.
    monkeypatch.setattr(biprox.interval, "is_H_cyclic", lambda inc: None)
    with pytest.raises(TheoremViolation):
        ore_verify(make("Z6"))


def test_dual_ore_z6() -> None:
    r = dual_ore_conditions(make("Z6"))
    # minimal subgroups of Z/6 have orders 2 and 3: 1/2 + 1/3
    assert r == DualOreReport(True, True, Fraction(5, 6))


def test_dual_ore_s2_s4() -> None:
    r = dual_ore_conditions(make("S4", "(1,2)"))
    # minimal overgroups of <(12)> have orders 4, 6, 6: 1/2 + 1/3 + 1/3
    assert r.sum_value == Fraction(7, 6)
    assert r.cond_sum


def test_dual_ore_trivial_bottom() -> None:
    # H = {1}: the normality condition says every subgroup is normal.
    assert dual_ore_conditions(make("S3")).cond_normal is False
    assert dual_ore_conditions(make("Q8")).cond_normal is True  # Hamiltonian
    assert dual_ore_conditions(make("Z6")).cond_normal is True
    assert dual_ore_conditions(make("E4")).cond_normal is True


def test_dual_ore_sums() -> None:
    # S3 over {1}: three order-2 and one order-3 minimal subgroup.
    assert dual_ore_conditions(make("S3")).sum_value == Fraction(11, 6)
    # Q8: the centre is the unique minimal subgroup.
    assert dual_ore_conditions(make("Q8")).sum_value == Fraction(1, 2)
    # (Z/2)^3 has seven minimal subgroups: 7/2 > 2 breaks the sum bound.
    r = dual_ore_conditions(make("E8"))
    assert r.sum_value == Fraction(7, 2)
    assert not r.cond_sum
    # (Z/2)^2: 3/2, within the bound.
    assert dual_ore_conditions(make("E4")).sum_value == Fraction(3, 2)


def test_dual_ore_full_inclusion_vacuous() -> None:
    assert dual_ore_conditions(full("S4")) == DualOreReport(True, True, Fraction(0))


# -------------------------------------------------------------- equivalence


def test_core_quotient_shapes() -> None:
    # <(12)> in S3 has trivial core: quotient is S3 itself.
    q, img = core_quotient(make("S3", "(1,2)"))
    assert q.order == 6 and img.order == 2
    # A normal subgroup is its own core: quotient collapses it.
    q, img = core_quotient(make("S4", "(1,2)(3,4)", "(1,3)(2,4)"))
    assert q.order == 6 and img.order == 1 and not q.is_abelian()
    q, img = core_quotient(make("S4", "(1,2,3)", "(1,2)(3,4)"))  # A4
    assert q.order == 2 and img.order == 1
    # A core-free subgroup maps onto the stabilizer of its own coset.
    q, img = core_quotient(make("S4", "(1,2)"))
    assert q.order == 24 and img.order == 2 and q.degree == 12


def test_equivalent_to_itself() -> None:
    for inc in [make("S3"), make("S4", "(1,2)"), make("Z6"), full("Q8")]:
        assert inclusions_equivalent(inc, inc)


def test_equivalence_of_conjugate_subgroups() -> None:
    a = make("S3", "(1,2)")
    b = make("S3", "(2,3)")
    assert inclusions_equivalent(a, b)
    assert inclusions_equivalent(b, a)


def test_inequivalent_s4_pair() -> None:
    four_cycle = make("S4", "(1,2,3,4)")
    double = make("S4", "(1,2)(3,4)")
    assert not inclusions_equivalent(four_cycle, double)
    klein_ish = make("S4", "(1,2)", "(3,4)")
    assert not inclusions_equivalent(four_cycle, klein_ish)


def test_equivalence_across_ambient_groups() -> None:
    # ({1} <= Z/2) vs (first factor <= Z/2 x Z/2): cores collapse both to
    # the pair ({1} <= Z/2).
    a = make("Z2")
    b = make("E4", "(1,2)")
    assert inclusions_equivalent(a, b)
    # ({1} <= Z/3) vs (Z/2 <= Z/6)
    c = make("Z3")
    d_group = catalog_group("Z6")
    order2 = [
        int(i)
        for i in range(d_group.order)
        if d_group.element_orders()[i] == 2
    ]
    d = Inclusion(d_group, subgroup_generated(d_group, order2))
    assert inclusions_equivalent(c, d)


def test_inequivalent_same_order_quotients() -> None:
    assert not inclusions_equivalent(make("Z4"), make("E4"))
    assert not inclusions_equivalent(make("Z6"), make("S3"))


def test_equivalence_is_transitive_spot() -> None:
    a = make("S3", "(1,2)")
    b = make("S3", "(1,3)")
    c = make("S3", "(2,3)")
    assert inclusions_equivalent(a, b)
    assert inclusions_equivalent(b, c)
    assert inclusions_equivalent(a, c)


def test_coset_action_is_g_on_the_cosets_of_h() -> None:
    # Oracle: the cosets as member sets, each named by its least element, and
    # each element's row read off where it sends the sorted cosets.
    for name, inc in enumerate_pairs(max_order=24):
        cayley, members = inc.group.cayley, inc.sub.indices
        names = sorted({int(cayley[g, members].min()) for g in range(inc.group.order)})
        point = {rep: k for k, rep in enumerate(names)}
        every = [[point[int(cayley[cayley[g, rep], members].min())] for rep in names]
                 for g in range(inc.group.order)]
        rows, home, image, first = coset_action(inc)
        assert rows.tolist() == sorted(map(list, set(map(tuple, every)))), name
        assert home == point[int(members.min())], name
        # image[g] is the position of g's row; first[i] is the least g of row i.
        assert rows[image].tolist() == every, name
        assert first.tolist() == [every.index(row) for row in rows.tolist()], name
        assert [list(r) for r in core_quotient(inc)[0].images] == rows.tolist(), name


def test_gathered_quotients_match_the_lookup_on_the_census() -> None:
    # Each distinct coset action of the census, built from G's table and by
    # looking its products up among its rows.
    actions = set()
    for name, inc in enumerate_pairs():
        rows, home, image, first = coset_action(inc)
        if (rows.shape[1], home, rows.tobytes()) in actions:
            continue
        actions.add((rows.shape[1], home, rows.tobytes()))
        gathered, stabilizer = action_quotient(inc.group, rows, home, image, first)
        looked_up = FiniteGroup(rows)
        assert np.array_equal(gathered.images, looked_up.images), name
        assert np.array_equal(gathered.cayley, looked_up.cayley), name
        assert np.array_equal(gathered.inverse, looked_up.inverse), name
        assert gathered.identity_index == looked_up.identity_index, name
        assert np.array_equal(stabilizer.mask, looked_up.images[:, home] == home), name
    assert len(actions) == 178


def test_core_free_pairs_stand_for_their_quotients_on_the_census() -> None:
    # G acts faithfully on the cosets of a core-free H, so (G, H) and its
    # core quotient share every pair invariant and an isomorphism carries
    # one onto the other; core_pair returns (G, H) itself.
    core_free = 0
    for name, inc in enumerate_pairs():
        if len(coset_action(inc)[3]) < inc.group.order:
            assert core_pair(inc)[0].order < inc.group.order, name
            continue
        core_free += 1
        quotient = core_quotient(inc)
        assert pair_invariants(inc.group, inc.sub) == pair_invariants(*quotient), name
        assert isomorphism_carrying(inc.group, inc.sub, *quotient), name
        assert core_pair(inc) == (inc.group, inc.sub), name
    assert core_free > 0


def test_equivalence_key_buckets() -> None:
    assert equivalence_key(make("S3", "(1,2)")) == equivalence_key(
        make("S3", "(2,3)")
    )
    assert equivalence_key(make("Z4")) != equivalence_key(make("E4"))


def test_equivalence_key_separates_classes_of_equal_element_order(monkeypatch) -> None:
    # In S5 a transposition and a double transposition both have order 2, but
    # their classes have 10 and 15 elements: the keys differ, so the two
    # inclusions are told apart with no isomorphism search.
    def refuse(*_args):
        raise AssertionError("an isomorphism search ran")

    transposition, double = make("S5", "(1,2)"), make("S5", "(1,2)(3,4)")
    assert equivalence_key(transposition) != equivalence_key(double)
    monkeypatch.setattr(biprox.interval, "isomorphism_carrying", refuse)
    assert not inclusions_equivalent(transposition, double)


def test_quotient_cap(monkeypatch) -> None:
    monkeypatch.setattr(biprox.interval, "QUOTIENT_CAP", 10)
    with pytest.raises(QuotientOrderCapExceeded):
        inclusions_equivalent(make("S4"), make("S4"))
    with pytest.raises(QuotientOrderCapExceeded):
        equivalence_key(make("S4"))


# ---------------------------------------------------------- linear primitivity


def test_linearly_primitive_groups() -> None:
    # S3 and Q8 have faithful irreducible representations; Z/n always has
    # a faithful character; (Z/2)^2 has only non-faithful characters
    assert is_linearly_primitive_group(catalog_group("S3"))
    assert is_linearly_primitive_group(catalog_group("Q8"))
    assert is_linearly_primitive_group(catalog_group("Z6"))
    assert is_linearly_primitive_group(catalog_group("Z12"))
    assert not is_linearly_primitive_group(catalog_group("E4"))
    assert not is_linearly_primitive_group(catalog_group("E8"))


def test_linearly_primitive_inclusions() -> None:
    from biprox.properties import is_linearly_primitive_inclusion

    # (S3, <(12)>): the standard block's fixed line has stabilizer exactly H
    assert is_linearly_primitive_inclusion(make("S3", "(1,2)")) is not None
    # (E4, Z2): the character with kernel exactly H works
    e4 = catalog_group("E4")
    h = subgroup_generated(e4, [e4.index_of(parse_cycles("(1,2)", degree=e4.degree))])
    assert is_linearly_primitive_inclusion(Inclusion(e4, h)) is not None
    # (E4, {1}) has no faithful block
    assert is_linearly_primitive_inclusion(make("E4")) is None


def test_linear_primitivity_matches_the_stabilizer_route_on_the_census() -> None:
    # The block's subgroup against the left stabilizer of its H-fixed part.
    from biprox.properties import is_linearly_primitive_inclusion

    pairs = enumerate_pairs()
    assert len(pairs) == 565
    for name, inc in pairs:
        got = is_linearly_primitive_inclusion(inc)
        assert got == linearly_primitive_block_by_stabilizers(inc), (name, inc.sub.order)


def test_quotient_cap_checked_before_building_the_quotient(monkeypatch) -> None:
    def refuse(*_args, **_kwargs):
        raise AssertionError("a quotient group was built past the cap")

    monkeypatch.setattr(biprox.interval, "FiniteGroup", refuse)
    monkeypatch.setattr(biprox.interval, "QUOTIENT_CAP", 100)
    with pytest.raises(QuotientOrderCapExceeded):
        equivalence_key(make("S5"))
    with pytest.raises(QuotientOrderCapExceeded):
        inclusions_equivalent(make("S5"), make("S5"))


def test_group_invariants_run_once_per_group_over_the_census(monkeypatch):
    # 565 pairs, 178 invariant keys, on 113 groups (the catalog's and the
    # core quotients): each group's share is computed once.
    for name, inc in enumerate_pairs():
        monkeypatch.setattr(inc.group, "_invariants", None)
    groups = []
    real = biprox.interval._group_invariants
    monkeypatch.setattr(
        biprox.interval, "_group_invariants", lambda g: groups.append(g) or real(g)
    )
    equivalence_classes(enumerate_pairs())
    assert len(groups) == len({id(g) for g in groups}) == 113
