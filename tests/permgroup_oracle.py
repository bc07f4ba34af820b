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
than its cyclic subgroup before they closed.
"""

from __future__ import annotations

import numpy as np

from biprox.permgroup import FiniteGroup, Subgroup, _close, all_subgroups


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
