"""Per-block and per-node loops that one array pass replaced, kept as test
oracles.

``blocks_by_element_sums`` builds one ``BoxElement`` per block, checks their
``BoxElement.__add__`` sum against id and sorts them by a trace read through
``trace``, as ``minimal_central_projections`` did before it checked and
sorted the (blocks x |G|) coefficient array.  ``interval_blocks_by_character``
finds each character's block node in its own scan of the members.
``f2_violation_by_subgroup`` takes one triple-order product per distinct
block subgroup.  ``sum_bound_by_fractions`` adds one ``Fraction`` per upper
cover, ``h_cyclic_by_coatom_loop`` ORs the coatoms' masks one at a time, and
``w_cyclic_block_by_subgroup`` compares each block subgroup with H by
``Subgroup.__eq__``.  ``character_table_with_identity_class`` runs Burnside's
splits over every class, the identity's included.  ``eager_labels`` formats
every node's label, as a subgroup lattice did when it was built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from biprox import properties
from biprox.boxalgebra import BoxContext, BoxElement, id_element, trace
from biprox.errors import BiprojectionCheckFailed
from biprox.interval import Inclusion
from biprox.lattice import FiniteLattice
from biprox.permgroup import (
    ZERO_TOL,
    Subgroup,
    _class_matrix,
    _conjugacy_classes,
    _split_space,
    generator_strings,
)
from biprox.properties import maximal_biprojections


def _canonical_order_of_elements(projs: list[BoxElement]) -> np.ndarray:
    coeffs = np.array([p.coeffs for p in projs])
    cols = np.empty((len(projs), 2 * coeffs.shape[1]))
    cols[:, 0::2] = np.round(coeffs.real, 8)
    cols[:, 1::2] = np.round(coeffs.imag, 8)
    traces = np.round([trace(p).real for p in projs], 10)
    return np.lexsort(np.vstack([cols[:, ::-1].T, traces]))  # last key leads


def blocks_by_element_sums(ctx: BoxContext) -> tuple[list[BoxElement], list[int]]:
    """(blocks, block characters) of ctx, one BoxElement per block before
    the sum check and the sort; ctx's caches are left alone."""
    group, sub = ctx.group, ctx.sub
    table = group.character_table()
    fixed = table[:, sub.indices].sum(axis=1) / sub.order
    left, e = group.cayley[group.inverse[sub.indices]], group.identity_index
    rows = np.flatnonzero(np.rint(fixed.real) > 0)
    sel = table[rows]
    blocks = sel[:, left].conj().mean(axis=1) * sel[:, e].real[:, None] / group.order
    projs = [BoxElement(ctx, block) for block in blocks]
    if not sum(projs[1:], projs[0]).isclose(id_element(ctx)):
        raise BiprojectionCheckFailed("the blocks do not sum to id")
    order = _canonical_order_of_elements(projs)
    return [projs[i] for i in order], rows[order].tolist()


def interval_blocks_by_character(
    lat: FiniteLattice, dims: np.ndarray, a: int, b: int
) -> tuple[np.ndarray, np.ndarray]:
    members = np.flatnonzero(lat.leq[a] & lat.leq[:, b])
    rows = np.flatnonzero(dims[:, b] > 0)
    nodes = []
    for psi in rows:
        same = members[dims[psi, members] == dims[psi, b]]
        m = int(same[-1])  # nodes ascend by subgroup order, so the largest is last
        if not lat.leq[m, same].all():  # every such M a subgroup of the largest
            raise BiprojectionCheckFailed("no largest node keeps the fixed dimension")
        nodes.append(m)
    return rows, np.array(nodes, dtype=np.int64)


def f2_violation_by_subgroup(ctx: BoxContext) -> Optional[tuple[int, int]]:
    ks = properties._block_subgroups(ctx)  # looked up on call, so a test can feed blocks in
    distinct: Dict[bytes, int] = {}  # member key -> row of m, by first block
    of_block = np.array([distinct.setdefault(k.key(), len(distinct)) for k in ks])
    m = np.zeros((len(distinct), ctx.group.order))
    m[of_block] = [k.mask for k in ks]  # a repeated subgroup writes its row again
    pair = m @ m.T
    unserved = np.empty(pair.shape, dtype=bool)
    for i in range(len(m)):
        triple = (m * m[i]) @ m.T  # [r, j]: |K_i & K_r & K_j|
        unserved[i] = ~((triple == pair[i][:, None]) & (triple == pair)).any(axis=0)
    bad = unserved[of_block[:, None], of_block]
    rows = np.flatnonzero(bad.any(axis=1))
    return (int(rows[0]), int(np.argmax(bad[rows[0]]))) if rows.size else None


def sum_bound_by_fractions(ctx: BoxContext) -> Fraction:
    total = Fraction(0)
    for k in maximal_biprojections(ctx):
        total += Fraction(ctx.sub.order, k.order)
    return total


def h_cyclic_by_coatom_loop(inc: Inclusion) -> Optional[int]:
    lat, i = inc.node
    covered = np.zeros(inc.group.order, dtype=bool)
    for c in np.flatnonzero(lat.covers()[:, lat.top] & lat.leq[i]):
        covered |= lat.payload[c].mask
    outside = np.flatnonzero(~covered)
    return int(outside[0]) if outside.size else None


def w_cyclic_block_by_subgroup(ctx: BoxContext) -> Optional[int]:
    for i, k in enumerate(properties._block_subgroups(ctx)):
        if k == ctx.sub:
            return i
    return None


def character_table_with_identity_class(sub: Subgroup) -> np.ndarray:
    """``Subgroup.character_table`` with Burnside's loop over every class,
    the identity's first, and nothing cached."""
    group = sub.parent
    classes = _conjugacy_classes(group, sub.indices)
    k = len(classes)
    index = np.zeros(group.order, dtype=np.int64)
    for i, cls in enumerate(classes):
        index[cls] = i
    reps = np.array([cls[0] for cls in classes])
    sizes = np.array([len(cls) for cls in classes], dtype=float)
    root = np.sqrt(sizes)
    spaces = [np.eye(k, dtype=np.complex128)]
    for cls in classes:
        if len(spaces) == k:
            break
        normal = root[:, None] * _class_matrix(group, cls, index, reps) / root[None, :]
        for part in ((normal + normal.T) / 2, (normal - normal.T) / 2j):
            spaces = [s for space in spaces for s in _split_space(space, part, len(cls))]
    if len(spaces) != k:
        raise BiprojectionCheckFailed("the class sums did not separate the characters")
    u = np.hstack(spaces)
    e = index[group.identity_index]
    table = np.sqrt(sub.order) * (np.exp(1j * np.angle(u[e])) * u.conj() / root[:, None]).T
    degrees = np.rint(table[:, e].real)
    if np.abs(table[:, e] - degrees).max() > ZERO_TOL:
        raise BiprojectionCheckFailed(f"character degrees of {sub!r} are not integers")
    out = np.zeros((k, group.order), dtype=np.complex128)
    out[:, sub.indices] = table[np.argsort(degrees, kind="stable")][:, index[sub.indices]]
    return out


def eager_labels(nodes: Sequence[Subgroup]) -> tuple[str, ...]:
    return tuple(
        gens if len(gens) <= 28 else f"order {k.order}"
        for k, gens in zip(nodes, generator_strings(nodes))
    )
