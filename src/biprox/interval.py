"""Group-side analysis of inclusions H <= G.

Covers: cyclic-over-subgroup witnesses, the distributivity/one-generator
report and the normality and index-sum conditions on minimal overgroups,
all read off H's node in ``BoxContext.node``, and equivalence of
inclusions through core quotients (a core-free pair is its own).  An
inclusion is a ``BoxContext``; ``Inclusion`` is a second name for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .boxalgebra import BoxContext as Inclusion
from .errors import QuotientOrderCapExceeded, TheoremViolation
from .lattice import is_distributive
from .permgroup import (
    FiniteGroup,
    Subgroup,
    center_subgroup,
    derived_subgroup,
    generating_indices,
    is_dedekind_interval,
)


@dataclass(frozen=True)
class OreReport:
    distributive: bool
    h_cyclic: bool
    witness: Optional[int]


@dataclass(frozen=True)
class DualOreReport:
    cond_normal: bool
    cond_sum: bool
    sum_value: Fraction


def is_H_cyclic(inc: Inclusion) -> Optional[int]:
    """First element g (in canonical element order) with <H, g> = G: the
    least element in no coatom of [H, G] (G's lower covers over H), since
    every proper member lies under one (the identity if H = G): one
    ``any`` over those coatoms' rows of the lattice's mask stack."""
    lat, i = inc.node
    covered = lat.masks[lat.covers()[:, lat.top] & lat.leq[i]].any(axis=0)
    outside = np.flatnonzero(~covered)
    return int(outside[0]) if outside.size else None


def ore_verify(inc: Inclusion) -> OreReport:
    """Distributivity of [H, G] together with the one-extra-generator
    property; a distributive interval failing the latter is a hard error."""
    distributive = is_distributive(*inc.node)
    witness = is_H_cyclic(inc)
    if distributive and witness is None:
        raise TheoremViolation(
            f"distributive interval without a single-generator witness: {inc!r}"
        )
    return OreReport(distributive, witness is not None, witness)


def dual_ore_conditions(inc: Inclusion) -> DualOreReport:
    """Normality of H-K multiplication for all intermediate K, and the
    index-sum bound over minimal overgroups of H (exact rational)."""
    group, sub, (lat, i) = inc.group, inc.sub, inc.node
    members = [lat.payload[k] for k in np.flatnonzero(lat.leq[i])]
    cond_normal = is_dedekind_interval(sub, group.full_subgroup(), members)
    total = Fraction(0)
    for a in np.flatnonzero(lat.covers()[i]):  # H's upper covers: its minimal overgroups
        total += Fraction(sub.order, lat.payload[a].order)  # 1 / [K : H]
    return DualOreReport(cond_normal, total <= 2, total)


# ------------------------------------------------------- equivalence classing

# Largest core quotient order that equivalence classing compares, core-free or not.
QUOTIENT_CAP = 200


def coset_action(inc: Inclusion) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """G acting on the left cosets of H: the sorted distinct image rows, one
    per element of G/core_G(H); the home point, the coset H itself; the
    position of each g's row among them, its image in the quotient; and the
    first g of each row.  QuotientOrderCapExceeded is raised past
    QUOTIENT_CAP rows."""
    group = inc.group
    least = group.cayley[:, inc.sub.indices].min(axis=1)  # the least element of gH
    is_rep = least == np.arange(group.order)  # g is the least of its coset
    reps, coset_of = np.flatnonzero(is_rep), np.cumsum(is_rep)[least] - 1
    rows = np.ascontiguousarray(coset_of[group.cayley[:, reps]], dtype=">i4")
    # Big-endian bytes sort like the rows, as FiniteGroup._keys.
    keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    _, first, image = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) > QUOTIENT_CAP:
        raise QuotientOrderCapExceeded(
            f"core quotient of order {len(first)} exceeds cap {QUOTIENT_CAP}"
        )
    return rows[first].astype(np.int32), int(coset_of[group.identity_index]), image, first


def action_quotient(
    group: FiniteGroup, rows: np.ndarray, home: int, image: np.ndarray, first: np.ndarray
) -> tuple[FiniteGroup, Subgroup]:
    """The group of the action ``rows`` of ``group`` and the stabilizer of
    ``home``, with ``image`` and ``first`` as ``coset_action`` gives them.
    g -> row(g) is a homomorphism, row(g h) = row(g)[row(h)], so the
    quotient's Cayley table is G's table at the first g of each row, read
    through ``image``: one gather, which FiniteGroup verifies."""
    quotient = FiniteGroup(rows, _table=image[group.cayley[np.ix_(first, first)]])
    return quotient, quotient.subgroup_from_mask(quotient.images[:, home] == home)


def core_pair(inc: Inclusion, action: Optional[tuple] = None) -> tuple[FiniteGroup, Subgroup]:
    """A pair isomorphic to (G/core_G(H), image of H), read off ``action``
    (``coset_action(inc)`` if not given): (G, H) itself when G acts
    faithfully, so core_G(H) = 1; else the action's quotient."""
    action = coset_action(inc) if action is None else action
    if len(action[3]) == inc.group.order:
        return inc.group, inc.sub
    return action_quotient(inc.group, *action)


def _group_invariants(g: FiniteGroup) -> tuple:
    orders = tuple(int(x) for x in np.sort(g.element_orders()))
    class_sizes = tuple(sorted(np.unique(g.class_labels, return_counts=True)[1].tolist()))
    return (
        g.order,
        g.is_abelian(),
        center_subgroup(g).order,
        derived_subgroup(g).order,
        orders,
        class_sizes,
    )


def pair_invariants(g: FiniteGroup, h: Subgroup) -> tuple:
    """Isomorphism invariants of the pair (g, h), the bucket of equivalence:
    g's own (``_group_invariants``, cached on g, so each group pays them
    once however many pairs it carries), then each element of h keyed by
    its order and the size of its conjugacy class in g, both kept by an
    isomorphism carrying h along."""
    if g._invariants is None:
        g._invariants = _group_invariants(g)
    keys = zip(g.element_orders()[h.indices].tolist(), g.class_sizes[h.indices].tolist())
    return g._invariants + (h.order, h.is_normal(), tuple(sorted(keys)))


def isomorphism_carrying(
    q1: FiniteGroup, img1: Subgroup, q2: FiniteGroup, img2: Subgroup
) -> bool:
    """Exact search for an isomorphism q1 -> q2 mapping img1 onto img2.

    Generator images are assigned depth-first; each partial assignment is
    closed under multiplication immediately, so conflicts (including loss
    of injectivity) prune the search early.
    """
    gens = generating_indices(q1.full_subgroup())
    if not gens:  # trivial group
        return q2.order == 1
    orders1, orders2 = q1.element_orders(), q2.element_orders()
    csize1, csize2 = q1.class_sizes, q2.class_sizes

    candidates = []
    for g in gens:
        pool = [
            x
            for x in range(q2.order)
            if orders2[x] == orders1[g]
            and csize2[x] == csize1[g]
            and img2.mask[x] == img1.mask[g]
        ]
        if not pool:
            return False
        candidates.append(pool)

    img1_sorted = np.sort(img1.indices)
    img2_sorted = np.sort(img2.indices)
    images: list[int] = [0] * len(gens)

    def close(phi: np.ndarray, active: range) -> Optional[np.ndarray]:
        """Extend phi to the closure of its domain under the active gens;
        None on any multiplication conflict or loss of injectivity."""
        phi = phi.copy()
        used = np.zeros(q2.order, dtype=bool)
        used[phi[phi >= 0]] = True
        frontier = np.flatnonzero(phi >= 0).tolist()
        while frontier:
            nxt = []
            for x in frontier:
                fx = phi[x]
                for k in active:
                    y = q1.cayley[x, gens[k]]
                    fy = q2.cayley[fx, images[k]]
                    if phi[y] < 0:
                        if used[fy]:
                            return None  # not injective
                        phi[y] = fy
                        used[fy] = True
                        nxt.append(y)
                    elif phi[y] != fy:
                        return None
            frontier = nxt
        return phi

    def search(k: int, phi: np.ndarray) -> bool:
        if k == len(gens):
            return bool(np.all(phi >= 0)) and np.array_equal(
                np.sort(phi[img1_sorted]), img2_sorted
            )
        taken = np.zeros(q2.order, dtype=bool)
        taken[phi[phi >= 0]] = True
        for cand in candidates[k]:
            if taken[cand]:  # gens[k] is outside the closed prefix domain
                continue
            images[k] = cand
            extended = close(phi, range(k + 1))
            if extended is not None and search(k + 1, extended):
                return True
        return False

    phi0 = np.full(q1.order, -1, dtype=np.int64)
    phi0[q1.identity_index] = q2.identity_index
    return search(0, phi0)


def inclusions_equivalent(a: Inclusion, b: Inclusion) -> bool:
    """Whether the core quotients, each as its ``core_pair``, are isomorphic as pairs."""
    q1, img1 = core_pair(a)
    q2, img2 = core_pair(b)
    if pair_invariants(q1, img1) != pair_invariants(q2, img2):
        return False
    return isomorphism_carrying(q1, img1, q2, img2)
