"""Independent permutation-group routes, kept as test oracles.

``every_seed_subgroups`` is the generation-by-generation enumeration that
``all_subgroups`` ran before it seeded one join per double coset S c S and
closed each seed from S by the new generator first: it closes the join of
every generation member with every element (generation 1) or cyclic
generator outside it, each from all its members and generators.
``min_key_class_representatives`` is the former rule of
``cli.subgroup_class_representatives``: a subgroup represents its class when
its key is the least over all of its conjugates.  ``orbit_conjugacy_classes``
is the former ``permgroup._conjugacy_classes``: one conjugation orbit per
Python step.  ``unseeded_generating_sets`` is the former
``permgroup.generating_sets``, whose spans took in each pick alone rather
than its cyclic subgroup before they closed.  ``subgroup_from_perms`` (the
former ``FiniteGroup`` method) and ``double_cosets`` are former public
names of ``biprox.permgroup`` that only tests called.

``symmetric_group``, ``alternating_group``, ``dicyclic_group`` and
``sl23_group`` are the constructions the catalog ran before each of its
groups became a generator list: every permutation of the points, those of
even parity, the regular representation (the former
``permgroup.regular_representation``) of the dicyclic multiplication table,
and the matrices of SL(2,3) acting on the nonzero vectors of F_3^2.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from biprox.permgroup import (
    FiniteGroup,
    Permutation,
    Subgroup,
    _close,
    all_subgroups,
    double_coset_labels,
    generated_by_closure,
    group_closure,
)


def subgroup_from_perms(group: FiniteGroup, perms: Iterable[Permutation]) -> Subgroup:
    """The subgroup of ``group`` generated by the permutations ``perms``."""
    return generated_by_closure(group, {group.index_of(p) for p in perms})


def double_cosets(group: FiniteGroup, a: Subgroup, b: Subgroup) -> list[np.ndarray]:
    """All A\\G/B double cosets, each sorted, ordered by minimal element index."""
    labels = double_coset_labels(a, b)
    members = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[members])) + 1
    return np.split(members, starts)


def _close_every_generator(group: FiniteGroup, masks: np.ndarray, gens: np.ndarray) -> None:
    """Close each row of ``masks`` in place under right multiplication by its
    row of ``gens``, every member by every generator in the first round."""
    rows, frontier = np.nonzero(masks)
    while rows.size:
        reached = np.zeros_like(masks)
        reached[rows[:, None], group.cayley[frontier[:, None], gens[rows]]] = True
        reached &= ~masks
        masks |= reached
        rows, frontier = np.nonzero(reached)


def every_seed_subgroups(group: FiniteGroup) -> list[bytes]:
    """The keys of every subgroup of ``group``, in (order, key) order."""
    masks = np.zeros((1, group.order), dtype=bool)
    masks[0, group.identity_index] = True
    found = {np.packbits(masks[0]).tobytes(): 1}
    gens = np.zeros((1, 0), dtype=np.int64)
    joins = np.arange(group.order)
    while len(masks):
        seed_rows, seed_joins = np.nonzero(~masks[:, joins])
        seeds = masks[seed_rows]
        added = joins[seed_joins]
        seeds[np.arange(seed_rows.size), added] = True
        seed_gens = np.column_stack([gens[seed_rows], added])
        _close_every_generator(group, seeds, seed_gens)
        new = []
        for row, key in enumerate(np.packbits(seeds, axis=1)):
            if key.tobytes() not in found:
                found[key.tobytes()] = int(seeds[row].sum())
                new.append(row)
        masks, gens = seeds[new], seed_gens[new]
        if gens.shape[1] == 1:
            joins = gens[:, 0]  # one generator per cyclic subgroup
    return sorted(found, key=lambda key: (found[key], key))


def min_key_class_representatives(group: FiniteGroup) -> list[Subgroup]:
    """One subgroup per conjugacy class: each subgroup whose key is the least
    key among its conjugates."""
    return [
        sub
        for sub in all_subgroups(group)
        if sub.key() == min(row.tobytes() for row in np.packbits(sub.conjugates(), axis=1))
    ]


def orbit_conjugacy_classes(group: FiniteGroup, members: np.ndarray) -> list[np.ndarray]:
    """The classes of the subgroup on ``members`` under its own conjugation,
    each sorted, in the order of their least elements."""
    seen = np.zeros(group.order, dtype=bool)
    classes = []
    for x in members:
        if seen[x]:
            continue
        orbit = np.unique(group.cayley[group.cayley[members, x], group.inverse[members]])
        seen[orbit] = True
        classes.append(orbit)
    return classes


def unseeded_generating_sets(group: FiniteGroup, subs: list[Subgroup]) -> list[list[int]]:
    """The greedy generating list of each subgroup in ``subs``: step t picks
    the first member outside the span by largest element order, then index,
    and closes the span, closed under the first t generators, over all
    t + 1 of them, from the span alone, not joined with <pick> first."""
    rank = np.lexsort((np.arange(group.order), -group.element_orders()))
    targets = np.array([sub.mask for sub in subs], dtype=bool).reshape(len(subs), -1)
    spans = np.zeros_like(targets)
    spans[:, group.identity_index] = True
    gens = np.zeros((len(subs), 0), dtype=np.int64)
    while not (spans == targets).all():
        todo = ~(spans == targets).all(axis=1)
        pick = rank[(targets[todo] & ~spans[todo])[:, rank].argmax(axis=1)]
        added = np.full(len(subs), -1)
        added[todo] = pick
        gens = np.column_stack([gens, added])
        spans[todo] = _close(group, spans[todo], gens[todo], closed=True)
    return [[int(g) for g in row if g >= 0] for row in gens]


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as every permutation of max(n, 1) points."""
    perms = [Permutation(images) for images in itertools.permutations(range(max(n, 1)))]
    return FiniteGroup(perms, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    """A_n as the permutations of n points with an even number of swaps."""

    def sign(images: tuple[int, ...]) -> int:
        swaps = 0
        seen = [False] * len(images)
        for start in range(len(images)):
            if seen[start]:
                continue
            length, point = 0, start
            while not seen[point]:
                seen[point] = True
                point = images[point]
                length += 1
            swaps += length - 1
        return -1 if swaps % 2 else 1

    perms = [
        Permutation(images)
        for images in itertools.permutations(range(n))
        if sign(images) == 1
    ]
    return FiniteGroup(perms, name=f"A{n}")


def regular_representation(table: np.ndarray, name: str | None = None) -> FiniteGroup:
    """Build a FiniteGroup from an abstract multiplication table.

    ``table[i][j]`` is the index of the product; the regular action
    ``k -> table[i][k]`` of each row is taken as a permutation. Faithful
    for any group, at the price of degree = order.
    """
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    perms = [Permutation(tuple(int(x) for x in table[i])) for i in range(n)]
    return FiniteGroup(perms, name=name)


def dicyclic_group(n: int) -> FiniteGroup:
    """Dic_n, order 4n, in the regular representation of its multiplication
    table on the elements a^i x^e, indexed 2i + e."""
    order = 4 * n
    two_n = 2 * n

    def enc(i: int, eps: int) -> int:
        return (i % two_n) * 2 + eps

    table = np.empty((order, order), dtype=np.int64)
    for i, eps1 in itertools.product(range(two_n), range(2)):
        for j, eps2 in itertools.product(range(two_n), range(2)):
            if eps1 == 0:
                product = enc(i + j, eps2)
            elif eps2 == 0:
                product = enc(i - j, 1)
            else:
                product = enc(i - j + n, 0)
            table[enc(i, eps1), enc(j, eps2)] = product
    return regular_representation(table, name=f"Dic{n}")


def sl23_group() -> FiniteGroup:
    """SL(2,3) generated by two matrices acting on the 8 nonzero vectors of
    F_3^2, listed (0,1), (0,2), (1,0), ..., (2,2)."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    vid = {v: i for i, v in enumerate(vectors)}

    def mat_perm(m: tuple[tuple[int, int], tuple[int, int]]) -> Permutation:
        return Permutation(
            tuple(
                vid[((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)]
                for a, b in vectors
            )
        )

    s = mat_perm(((0, 2), (1, 0)))
    t = mat_perm(((1, 1), (0, 1)))
    return group_closure([s, t], max_order=24, name="SL23")
