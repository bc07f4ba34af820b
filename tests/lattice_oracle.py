"""Independent lattice routes, kept as test oracles.

``interval_lattice`` is an interval [lo, hi] restricted into a lattice of
its own, with its own tables, covers and failure list, as ``src/`` built
[H, G] and every step before it read them by their endpoints in the group's
lattice; ``subgroup_interval`` is the former ``Inclusion.lattice``, [H, G]
so restricted unless H is the lattice's bottom.
``interval_subgroups`` is the subgroup scan for [H, G] that its lattice
used before every interval became a restriction of one subgroup lattice per
group; ``row_infima`` is the row-by-row meet routine the level tables
replaced; ``standalone_interval_lattice`` is the former per-inclusion build from
those two; ``scan_is_modular`` and ``scan_is_distributive`` decide by the
triple scans alone, as before the valuation criteria;
``valuation_is_modular`` and ``valuation_is_distributive`` decide by the
valuation criteria, as before the cached failure list; ``restricted_figures``
reads the figures of [H, G] off [H, G] restricted from the group's lattice,
as before they were read off the group's lattice by H's node; ``interval_route_length``
is the chain length with every step built as an interval lattice, as before
the steps read ``FiniteLattice.distributive_intervals``;
``closure_route_length`` is the chain length with every step asked of a
per-pair closure, its parts folded pair by pair (``top_part``,
``bottom_part``) and every distributive "c" step put to the double-coset
test, as before the search read boolean step rows;
``find_forbidden_bruteforce`` searches every 5-subset for an induced M3 or N5.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations
from typing import Callable, Iterable, Optional

import numpy as np

from biprox.boxalgebra import BoxContext
from biprox.interval import Inclusion
from biprox.lattice import (
    _BLOCK_CELLS,
    FiniteLattice,
    _check_partial_order,
    _diamond_witness,
    _failing_distributive_triple,
    _failing_modular_triple,
    _is_m3,
    _is_n5,
    _pentagon_witness,
    boolean_rank,
    is_distributive,
)
from biprox.permgroup import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    generator_strings,
    require_nested,
)
from biprox.properties import _biprojections, _block_nodes, _step_dedekind
from lattice_fixtures import atoms, induced_sublattice


def interval_lattice(lat: FiniteLattice, lo: int, hi: int) -> FiniteLattice:
    """The interval [lo, hi] of ``lat`` as a lattice on its members, in node
    order, that computes its own covers, depths and failures."""
    return induced_sublattice(lat, np.flatnonzero(lat.leq[lo] & lat.leq[:, hi]))


def subgroup_interval(inc: Inclusion) -> FiniteLattice:
    """[H, G] as a lattice: the group's lattice itself when H is its bottom,
    else ``interval_lattice`` at H's node."""
    lat, i = inc.node
    return lat if i == lat.bottom else interval_lattice(lat, i, lat.top)


def interval_subgroups(h: Subgroup, group: FiniteGroup) -> list[Subgroup]:
    """All K with H <= K <= G, sorted by (order, bitset key)."""
    require_nested(h, group.full_subgroup())
    return [s for s in all_subgroups(group) if h <= s]


def row_infima(leq: np.ndarray, name: str) -> np.ndarray:
    """Greatest-lower-bound table of ``leq``, one row at a time: of the
    common lower bounds of i and j, the one with the largest down-set, which
    must lie above all of them (else ValueError)."""
    n = leq.shape[0]
    down_sizes = leq.sum(axis=0)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        lower = leq[:, i, None] & leq  # (x, j)
        cand = np.argmax(np.where(lower, down_sizes[:, None], -1), axis=0)
        missing = np.flatnonzero(np.any(lower & ~leq[:, cand], axis=0))
        if missing.size:
            raise ValueError(f"elements {i},{missing[0]} have no {name}")
        table[i] = cand
    return table


def row_lattice(leq: np.ndarray, labels=None, payload=None) -> FiniteLattice:
    """``FiniteLattice.from_order`` with the tables taken by ``row_infima``."""
    leq = np.asarray(leq, dtype=bool)
    n = leq.shape[0]
    _check_partial_order(leq)
    meet = row_infima(leq, "meet")
    join = row_infima(leq.T, "join")
    bottom = int(np.flatnonzero(leq.sum(axis=1) == n)[0])
    top = int(np.flatnonzero(leq.sum(axis=0) == n)[0])
    if labels is None:
        labels = [str(i) for i in range(n)]
    return FiniteLattice._finish(n, leq, meet, join, bottom, top, tuple(labels), payload)


def standalone_interval_lattice(group: FiniteGroup, h: Subgroup) -> FiniteLattice:
    """[H, G] built for this inclusion alone: its members scanned from the
    subgroup list, the order from their masks, the tables row by row."""
    nodes = interval_subgroups(h, group)
    masks = np.array([k.mask for k in nodes], dtype=np.float64)
    orders = np.array([k.order for k in nodes])
    leq = masks @ masks.T == orders[:, None]
    labels = [
        gens if len(gens) <= 28 else f"order {k.order}"
        for k, gens in zip(nodes, generator_strings(nodes))
    ]
    return row_lattice(leq, labels, tuple(nodes))


def scan_is_modular(lat: FiniteLattice) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Modularity by the modular-triple scan alone."""
    triple = _failing_modular_triple(lat)
    if triple is None:
        return True, None
    return False, _pentagon_witness(lat, *triple)


def scan_is_distributive(lat: FiniteLattice) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Distributivity by the distributive-triple scan alone."""
    triple = _failing_distributive_triple(lat)
    if triple is None:
        return True, None
    modular, pentagon = scan_is_modular(lat)
    if not modular:
        return False, pentagon
    return False, _diamond_witness(lat, *triple)


def _is_valuation(lat: FiniteLattice, v: np.ndarray) -> bool:
    """Whether v(x) + v(y) = v(x∨y) + v(x∧y) for all x, y, in row blocks."""
    step = max(1, _BLOCK_CELLS // lat.n)
    for start in range(0, lat.n, step):
        rows = slice(start, start + step)
        if not np.array_equal(
            v[rows, None] + v[None, :], v[lat.join[rows]] + v[lat.meet[rows]]
        ):
            return False
    return True


def _join_irreducible_rank(lat: FiniteLattice) -> np.ndarray:
    """r(x), the number of join-irreducibles below x; a join-irreducible
    is a node with exactly one lower cover."""
    irreducible = lat.covers().sum(axis=0) == 1
    return lat.leq[irreducible].sum(axis=0)


def valuation_is_modular(lat: FiniteLattice) -> bool:
    """Modularity by the height h: a finite lattice is modular exactly when
    h is a valuation (Birkhoff, *Lattice Theory*, ch. II).  h is strictly
    monotone, so a valuation rules out N5, where h(x) + h(w) = h(z) + h(t)
    = h(y) + h(w) would force h(x) = h(y).  The heights are the depths of
    the reversed lattice."""
    return _is_valuation(lat, lat.reverse()._depths)


def valuation_is_distributive(lat: FiniteLattice) -> bool:
    """Distributivity by r(x), the number of join-irreducibles below x: the
    lattice is distributive exactly when r is a valuation (Birkhoff,
    *Lattice Theory*, ch. II).  With J(x) the join-irreducibles below x,
    J(x∧y) = J(x) ∩ J(y) always, so r is a valuation exactly when
    J(x∨y) = J(x) ∪ J(y), which holds exactly in a distributive lattice."""
    return _is_valuation(lat, _join_irreducible_rank(lat))


def restricted_figures(inc: Inclusion) -> dict:
    """The ``lattice`` command's figures, labels and cover edges of [H, G],
    read off [H, G] restricted from the group's lattice into a lattice of
    its own (no parent: it computes its own covers and depths), and decided
    by the valuations."""
    lat, i = inc.node
    part = interval_lattice(lat, i, lat.top)
    assert part.reversed_of is None
    k = len(atoms(part))
    distributive = valuation_is_distributive(part)
    return {
        "size": part.n,
        "height": part.height(),
        "distributive": distributive,
        "modular": valuation_is_modular(part),
        "boolean_rank": k if part.n == 2**k and distributive else None,
        "labels": list(part.labels),
        "cover_edges": np.argwhere(part.covers()).tolist(),
    }


def top_part(lat: FiniteLattice, a: int, b: int) -> int:
    """m with [m, b] the top part of [a, b]: the meet of its coatoms."""
    m = b
    for c in np.flatnonzero(lat.covers()[:, b] & lat.leq[a]):
        m = lat.meet[m, c]
    return int(m)


def bottom_part(lat: FiniteLattice, a: int, b: int) -> int:
    """j with [a, j] the bottom part of [a, b]: the join of its atoms."""
    j = a
    for c in np.flatnonzero(lat.covers()[a] & lat.leq[:, b]):
        j = lat.join[j, c]
    return int(j)


def top_interval(lat: FiniteLattice) -> FiniteLattice:
    """The interval [B, 1] with B the meet of all coatoms."""
    return interval_lattice(lat, top_part(lat, lat.bottom, lat.top), lat.top)


def bottom_interval(lat: FiniteLattice) -> FiniteLattice:
    """The interval [0, b] with b the join of all atoms."""
    return interval_lattice(lat, lat.bottom, bottom_part(lat, lat.bottom, lat.top))


def _interval_cyclic(lat: FiniteLattice) -> bool:
    return is_distributive(lat) and _step_dedekind(lat, lat.bottom, lat.top)


def interval_step_predicate(name: str, lat: FiniteLattice) -> Callable[[int, int], bool]:
    """The step predicate of a chain-length name on the biprojection lattice
    ``lat``, each step [a, b] built as ``interval_lattice(lat, a, b)`` and decided by
    ``is_distributive`` or ``boolean_rank`` on it, or on its top or bottom
    interval for a "t" or "b" name."""
    if name == "cl":
        return lambda a, b: _interval_cyclic(interval_lattice(lat, a, b))
    if name == "dl":
        return lambda a, b: is_distributive(interval_lattice(lat, a, b))
    side, kind, digits = re.fullmatch(r"([tb])(c|b([1-9]\d*)?)l", name).groups()
    part = top_interval if side == "t" else bottom_interval
    if kind == "c":
        return lambda a, b: _interval_cyclic(part(interval_lattice(lat, a, b)))
    cap = int(digits) if digits else None

    def pred(a: int, b: int) -> bool:
        rank = boolean_rank(part(interval_lattice(lat, a, b)))
        return rank is not None and (cap is None or rank <= cap)

    return pred


def interval_route_length(lat: FiniteLattice, name: str) -> int:
    """The chain length ``name`` of the biprojection lattice ``lat`` by the
    same search as ``closure_route_length``, with ``interval_step_predicate``
    steps."""
    pred = interval_step_predicate(name, lat)
    return closure_shortest_chain(
        lat, lat.top, lambda a, fresh: [b for b in fresh.tolist() if pred(a, b)]
    )


def closure_step_predicate(name: str, lat: FiniteLattice) -> Callable[[int, int], bool]:
    """The predicate a step interval [a, b] of the biprojection lattice
    ``lat`` must meet, one pair at a time, read off
    lat.distributive_intervals.  A "t" name looks at the step's top part
    [top_part(lat, a, b), b], a "b" name at its bottom part
    [a, bottom_part(lat, a, b)]; "c" asks for distributive and Dedekind by
    double cosets, "b<k>" for Boolean of rank <= k."""

    def cyclic(a: int, b: int) -> bool:
        return bool(lat.distributive_intervals[a, b]) and _step_dedekind(lat, a, b)

    if name == "cl":
        return cyclic
    if name == "dl":
        return lambda a, b: lat.distributive_intervals[a, b]
    m = re.fullmatch(r"([tb])(c|b([1-9]\d*)?)l", name)
    if m is None:
        raise ValueError(f"unknown chain-length name: {name!r}")
    side, kind, digits = m.groups()

    def part(a: int, b: int) -> tuple[int, int]:
        return (top_part(lat, a, b), b) if side == "t" else (a, bottom_part(lat, a, b))

    if kind == "c":
        return lambda a, b: cyclic(*part(a, b))
    cap = int(digits) if digits else None

    def pred(a: int, b: int) -> bool:
        lo, hi = part(a, b)
        k = np.count_nonzero(lat.covers()[lo] & lat.leq[:, hi])  # atoms of [lo, hi]
        return lat.distributive_intervals[lo, hi] and (cap is None or k <= cap)

    return pred


def closure_shortest_chain(
    lat: FiniteLattice, top: int, step: Callable[[int, np.ndarray], Iterable[int]]
) -> int:
    """Length of a shortest chain bottom = b_0 < ... < b_l = top of lat, by
    breadth-first search.  step(a, fresh) returns the nodes of fresh (the
    unvisited b in [a, top] but a, increasing) that one step from a reaches."""
    dist = np.full(lat.n, -1)
    dist[lat.bottom] = 0
    queue = deque([lat.bottom])
    while dist[top] < 0:
        a = queue.popleft()
        for b in step(a, np.flatnonzero(lat.leq[a] & lat.leq[:, top] & (dist < 0))):
            dist[b] = dist[a] + 1
            queue.append(b)
    return int(dist[top])


def closure_route_length(ctx: BoxContext, name: str) -> int:
    """The chain length ``name`` of ``ctx`` with a per-pair step closure:
    ``closure_step_predicate``, or for "wcl" the join with one block node,
    on the biprojection lattice read by its endpoints as ``lengths`` reads it."""
    lat, top = _biprojections(ctx)
    if name == "wcl":
        nodes = np.unique(_block_nodes(ctx))
        return closure_shortest_chain(
            lat, top, lambda a, fresh: np.intersect1d(fresh, lat.join[a, nodes])
        )
    pred = closure_step_predicate(name, lat)
    return closure_shortest_chain(
        lat, top, lambda a, fresh: [b for b in fresh.tolist() if pred(a, b)]
    )


def find_forbidden_bruteforce(lat: FiniteLattice) -> Optional[tuple[str, tuple[int, ...]]]:
    """Exhaustive 5-subset search for M3/N5 (small lattices only)."""
    for subset in combinations(range(lat.n), 5):
        for z in subset:
            for t in subset:
                if z == t:
                    continue
                mids = [x for x in subset if x not in (z, t)]
                if _is_m3(lat, z, tuple(mids), t):
                    return "M3", (z, *mids, t)
        for perm_z in subset:
            for perm_t in subset:
                if perm_z == perm_t:
                    continue
                rest = [x for x in subset if x not in (perm_z, perm_t)]
                for w in rest:
                    x, y = [q for q in rest if q != w]
                    for xx, yy in ((x, y), (y, x)):
                        if _is_n5(lat, perm_z, xx, yy, w, perm_t):
                            return "N5", (perm_z, xx, yy, w, perm_t)
    return None
