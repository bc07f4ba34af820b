"""Finite lattices: distributivity, modularity, Boolean recognition.

A lattice is stored as an explicit order matrix plus meet/join index
tables, built level by level in float32 products.  Modularity and
distributivity are decided from one cached list of local failures per
lattice (FiniteLattice._failures), which its reverse() view reads off it:
is_modular, is_distributive and boolean_rank decide any up-set [a, top] by
it, and distributive_intervals every interval [a, b] at once.  The triple
scans run only in forbidden_sublattice: it scans for the first failing
triple and builds a forbidden sublattice (diamond M3 or pentagon N5) from
it, verified to be an induced sublattice before it is returned.

A subgroup lattice stacks its nodes' member masks in one array (masks) and
formats its labels on their first read, each once per lattice and read by
its reverse() view.  The subgroup lattice of a group is built once and
cached on the group; every interval [H, G] is the up-set of H's node in it
(subgroup_node), and is read there by its endpoints, except in a group of
more than _SHARED_LATTICE_NODES subgroups, where [H, G] for H > {1} is
built alone unless the whole lattice is cached already.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import SubgroupCapExceeded
from .permgroup import FiniteGroup, Subgroup, all_subgroups, generator_strings, require_nested

# Array cells of one block of the level products, the failure marking, the
# witness scans and the interval table, so transient memory stays a few
# blocks however large a level or a lattice is.
_BLOCK_CELLS = 1 << 20
# Bytes per n^2 cell that building and deciding a subgroup lattice on n
# nodes reaches at its peak, and the most one may take: past it
# subgroup_node raises SubgroupCapExceeded before allocating.  Measured:
# `lattice` on E64 (2,825 nodes) and Z3^5 (2,664) peaks 26.7 and 27.0 bytes
# per cell of resident memory above the interpreter's own (the table checks
# and the covers product); 512 MiB is reached near 4,380 nodes.
_TABLE_BYTES_PER_CELL = 28
LATTICE_TABLE_BUDGET = 1 << 29
# A group with at most this many subgroups has its whole subgroup lattice
# built on first use, and every [H, G] read off it.  A larger one is built
# whole only for H = {1}; any other [H, G] of it is built alone from its
# members, unless the whole lattice is cached already.
_SHARED_LATTICE_NODES = 1024


@dataclass(frozen=True)
class FiniteLattice:
    """A finite lattice on elements 0..n-1.

    ``leq[i, j]`` says i <= j; ``meet``/``join`` are index tables; labels
    are display strings. ``payload`` optionally carries the objects the
    nodes came from (e.g. Subgroup instances for subgroup lattices), and
    then ``masks`` stacks their member masks.  Labels not given are
    formatted on first read (see ``labels``).
    """

    n: int
    leq: np.ndarray
    meet: np.ndarray
    join: np.ndarray
    bottom: int
    top: int
    given_labels: Optional[tuple[str, ...]]
    payload: Optional[tuple] = field(default=None, compare=False)
    # The lattice that a reverse() view reverses: the view's covers are its
    # covers transposed, so the pair computes them once.
    reversed_of: Optional["FiniteLattice"] = field(default=None, compare=False, repr=False)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_order(
        leq: np.ndarray,
        labels: Optional[Sequence[str]] = None,
        payload: Optional[tuple] = None,
    ) -> "FiniteLattice":
        """Build from an order matrix, computing meet/join tables; raises
        ValueError unless the order is a lattice."""
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        _check_partial_order(leq)
        meet = _infima(leq, "meet")
        join = _infima(leq.T, "join")  # joins are the infima of the reversed order
        _check_infima(leq, meet, "meet")
        _check_infima(leq.T, join, "join")
        bottom = int(np.flatnonzero(leq.sum(axis=1) == n)[0])
        top = int(np.flatnonzero(leq.sum(axis=0) == n)[0])
        labels = None if labels is None else tuple(labels)
        return FiniteLattice._finish(n, leq, meet, join, bottom, top, labels, payload)

    @staticmethod
    def _finish(n, leq, meet, join, bottom, top, labels, payload) -> "FiniteLattice":
        leq = np.asarray(leq, dtype=bool).copy()
        leq.setflags(write=False)
        meet = np.asarray(meet, dtype=np.int32).copy()
        meet.setflags(write=False)
        join = np.asarray(join, dtype=np.int32).copy()
        join.setflags(write=False)
        return FiniteLattice(n, leq, meet, join, int(bottom), int(top), labels, payload)

    def validate(self) -> None:
        """Exhaustively check the lattice axioms (meet/join are inf/sup);
        raises ValueError on the first violation."""
        _check_partial_order(self.leq)
        if not (np.all(self.leq[self.bottom, :]) and np.all(self.leq[:, self.top])):
            raise ValueError("bottom or top is not the least or greatest element")
        # Joins are the meets of the reversed lattice.
        for lat, name in ((self, "meet"), (self.reverse(), "join")):
            _check_infima(lat.leq, lat.meet, name)

    # -- structure -------------------------------------------------------

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The display string of each node: the labels given, a reverse()
        view's lattice's, or formatted on first read, each Subgroup of the
        payload by a small generating set (its order past 28 characters)
        and, with no payload, each node by its number."""
        if self.given_labels is not None:
            return self.given_labels
        if self.reversed_of is not None:
            return self.reversed_of.labels
        if self.payload is None:
            return tuple(map(str, range(self.n)))
        gens = generator_strings(self.payload)
        return tuple(g if len(g) <= 28 else f"order {k.order}" for k, g in zip(self.payload, gens))

    @cached_property
    def masks(self) -> np.ndarray:
        """Read-only boolean array, row i the member mask of payload[i]: built
        once per lattice on first read; a reverse() view reads its lattice's."""
        if self.reversed_of is not None:
            return self.reversed_of.masks
        masks = np.array([k.mask for k in self.payload], dtype=bool)
        masks.setflags(write=False)
        return masks

    def covers(self) -> np.ndarray:
        """Boolean matrix: covers()[i, j] iff j covers i.  Computed once per
        lattice and read-only."""
        return self._covers

    @cached_property
    def _covers(self) -> np.ndarray:
        if self.reversed_of is not None:
            return self.reversed_of.covers().T
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        cover = strict & ~_bool_product(strict, strict)
        cover.setflags(write=False)
        return cover

    @cached_property
    def lower_covers(self) -> np.ndarray:
        """Row b: b's lower covers in node order, padded with b itself."""
        lower = [np.flatnonzero(col) for col in self.covers().T]
        width = max(1, *map(len, lower))
        pad = [np.pad(c, (0, width - len(c)), constant_values=b) for b, c in enumerate(lower)]
        return np.array(pad)

    @cached_property
    def node_of(self) -> dict:
        """The node of each payload object, by its key()."""
        return {k.key(): i for i, k in enumerate(self.payload)}

    def height(self, a: Optional[int] = None) -> int:
        """Greatest chain length (number of cover steps) from ``a``, the
        bottom by default, to the top: an entry of the cached depth vector."""
        return int(self._depths[self.bottom if a is None else a])

    @cached_property
    def _depths(self) -> np.ndarray:
        """The longest chain from every node to the top, relaxed over the
        cover edges: round t settles every node of depth t."""
        lower, upper = np.nonzero(self.covers())
        d = np.zeros(self.n, dtype=np.int64)
        while True:
            nxt = np.zeros_like(d)
            np.maximum.at(nxt, lower, d[upper] + 1)
            if np.array_equal(nxt, d):
                d.setflags(write=False)
                return d
            d = nxt

    def reverse(self) -> "FiniteLattice":
        """The order-reversed lattice: one view per lattice, reading its tables,
        covers and failure list, so what the view caches (distributive_intervals)
        is built once.  A view's reverse is its lattice."""
        return self._reversed

    @cached_property
    def _reversed(self) -> "FiniteLattice":
        return self.reversed_of or FiniteLattice(
            self.n, self.leq.T, self.join, self.meet, self.top, self.bottom,
            None, self.payload, self,
        )

    @cached_property
    def _failures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays z, w of the pairs z < w where distributivity fails
        locally, and a flag for the semimodularity failures: x and y cover
        z = x∧y but w = x∨y does not cover both, or the dual.  The rest are
        cover-preserving diamonds, three x with z ⋖ x ⋖ w.  A finite lattice
        is modular exactly when it is upper and lower semimodular (Birkhoff,
        *Lattice Theory*, ch. II), and a modular one distributive exactly
        when it has no such diamond (Grätzer, *Lattice Theory: Foundation*).
        Both kinds are self-dual, so a reverse() view reads its parent's
        pairs swapped."""
        if self.reversed_of is not None:
            z, w, semimodular = self.reversed_of._failures
            return w, z, semimodular
        cover, n, idx = self.covers(), self.n, np.arange(self.n)
        semi, fine = [], []  # z * n + w of each semimodularity failure, of each fine pair
        step = max(1, _BLOCK_CELLS // n)
        for start in range(0, n, step):
            rows = slice(start, start + step)  # rows of x
            meet, join, x = self.meet[rows], self.join[rows], idx[rows, None]
            below = cover[meet, x] & cover[meet, idx]  # x and y cover z = x∧y
            above = cover[x, join] & cover[idx, join]  # w = x∨y covers x and y
            semi.append(meet[below != above] * n + join[below != above])
            fine.append(meet[below & above] * n + join[below & above])
        semi = np.unique(np.concatenate(semi))
        # k covers of z under w make k(k-1) fine pairs (x, y): three make a diamond.
        keys, pairs = np.unique(np.concatenate(fine), return_counts=True)
        z, w = np.divmod(np.concatenate([semi, keys[pairs >= 6]]), n)
        return z, w, np.arange(len(z)) < len(semi)

    @cached_property
    def distributive_intervals(self) -> np.ndarray:
        """Read-only boolean matrix: [a, b] iff a <= b and the interval [a, b]
        is distributive, that is when no failure pair (z, w) of the cached
        list lies in it (see _failures)."""
        z, w, _ = self._failures
        bad = np.zeros((self.n, self.n), dtype=np.float32)
        bad[z, w] = 1
        leq = self.leq.astype(np.float32)
        step = max(1, _BLOCK_CELLS // self.n)
        blocks = [slice(start, start + step) for start in range(0, self.n, step)]
        # A sum of non-negative float32 terms is 0 exactly when every term is.
        dist = np.concatenate([self.leq[rows] & (leq[rows] @ bad @ leq == 0) for rows in blocks])
        dist.setflags(write=False)
        return dist


def to_dot(labels: Sequence[str], edges: np.ndarray, title: str = "lattice") -> str:
    """Hasse diagram in DOT format: node i labelled labels[i], and an edge
    i -> j for every cover pair (i, j) of ``edges``, in their order."""
    lines = [f'digraph "{title}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for i, label in enumerate(labels):
        label = label.replace('"', "'")
        lines.append(f'  n{i} [label="{label}"];')
    lines += [f"  n{i} -> n{j};" for i, j in edges.tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _infima(leq: np.ndarray, name: str) -> np.ndarray:
    """Candidate greatest-lower-bound table of ``leq``, level by level.

    A level is the nodes of one down-set size.  An infimum of i and j is
    the common lower bound with the largest down-set, so it is the only
    common lower bound at the largest level that has one.  Per level, two
    float32 products count each pair's common lower bounds there and sum
    their indices (exact where the count is 1: a single index is below
    2^24), in row blocks; levels run smallest first, so a larger level
    overwrites.  Two at a pair's last level raise ValueError; a single one
    is the candidate, which ``_check_infima`` must still confirm above
    every common lower bound.  ``leq`` has a bottom, so every pair gets a
    candidate."""
    n = leq.shape[0]
    down = leq.sum(axis=0)
    table = np.zeros((n, n), dtype=np.int32)
    clash = np.zeros((n, n), dtype=bool)
    step = max(1, _BLOCK_CELLS // n)
    for size in np.unique(down):
        level = np.flatnonzero(down == size)
        ones = leq[level].astype(np.float32)
        weighted = ones * level[:, None].astype(np.float32)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            count = ones[:, rows].T @ ones
            hit = count > 0
            np.copyto(table[rows], weighted[:, rows].T @ ones, casting="unsafe", where=hit)
            np.copyto(clash[rows], count > 1, where=hit)
    if clash.any():
        i, j = np.argwhere(clash)[0]
        raise ValueError(f"elements {i},{j} have no {name}")
    return table


def _check_infima(leq: np.ndarray, table: np.ndarray, name: str) -> None:
    """Raise ValueError unless table[i, j] is the infimum of i and j in the
    partial order ``leq``."""
    idx = np.arange(leq.shape[0])
    if not np.all(table[idx, idx] == idx):
        raise ValueError(f"{name} of an element with itself is not that element")
    if not (np.all(leq[table, idx[:, None]]) and np.all(leq[table, idx[None, :]])):
        raise ValueError(f"{name} is not a lower bound of its arguments")
    # The common lower bounds of i and j include the down-set of the lower
    # bound table[i, j]; they all lie below it exactly when the counts agree.
    # A float32 product counts them in BLAS and n^2 memory, exactly (n < 2^24).
    below = leq.astype(np.float32)
    if not np.array_equal(below.T @ below, below.sum(axis=0)[table]):
        raise ValueError(f"{name} is not above every common lower bound")


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product: [i, j] is whether a[i, k] and b[k, j]
    for some k.  A float32 product runs in BLAS and is exact, since every
    count is at most n < 2^24."""
    return a.astype(np.float32) @ b.astype(np.float32) > 0


def _check_partial_order(leq: np.ndarray) -> None:
    n = leq.shape[0]
    if leq.shape != (n, n):
        raise ValueError("leq must be square")
    if not np.all(np.diag(leq)):
        raise ValueError("order is not reflexive")
    if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
        raise ValueError("order is not antisymmetric")
    if np.any(_bool_product(leq, leq) & ~leq):
        raise ValueError("order is not transitive")
    if not np.any(leq.sum(axis=1) == n):
        raise ValueError("no bottom element")
    if not np.any(leq.sum(axis=0) == n):
        raise ValueError("no top element")


# -- subgroup lattices of group inclusions ----------------------------------


def subgroup_node(group: FiniteGroup, h: Subgroup) -> tuple[FiniteLattice, int]:
    """(lattice, i) with [H, G] the up-set of node i, H's node: the subgroup
    lattice of G, built once and cached on the group (nodes sorted by
    (order, bitset), K <= L iff |K & L| = |K|); or, if G has more than
    _SHARED_LATTICE_NODES subgroups, H > {1} and that lattice is not cached,
    [H, G] built alone and its bottom.  Whatever is built, past
    LATTICE_TABLE_BUDGET bytes of tables SubgroupCapExceeded is raised."""
    require_nested(h, group.full_subgroup())
    nodes = all_subgroups(group)
    if group._subgroup_lattice is None and h.order > 1 and len(nodes) > _SHARED_LATTICE_NODES:
        members = [k for k in nodes if h <= k]
        if members[0].key() != h.key():
            raise ValueError(f"{h!r} is not closed under products")
        lat = _lattice_of_subgroups(members)
        return lat, lat.bottom
    if group._subgroup_lattice is None:
        group._subgroup_lattice = _lattice_of_subgroups(nodes)
    lat = group._subgroup_lattice
    i = lat.node_of.get(h.key())
    if i is None:
        raise ValueError(f"{h!r} is not closed under products")
    return lat, i


def _lattice_of_subgroups(nodes: list[Subgroup]) -> FiniteLattice:
    """The lattice of the subgroups ``nodes``, sorted by (order, bitset) and
    closed under intersection and generation."""
    need = _TABLE_BYTES_PER_CELL * len(nodes) ** 2
    if need > LATTICE_TABLE_BUDGET:
        raise SubgroupCapExceeded(
            f"the lattice of {len(nodes)} subgroups needs about {need >> 20} MiB"
            f" of tables, past the budget of {LATTICE_TABLE_BUDGET >> 20} MiB"
        )
    # float32 runs in BLAS and is exact: every count is at most |G| < 2^24.
    masks = np.array([k.mask for k in nodes], dtype=np.float32)
    orders = np.array([k.order for k in nodes])
    leq = masks @ masks.T == orders[:, None]
    return FiniteLattice.from_order(leq, None, tuple(nodes))


# -- distributivity and modularity ------------------------------------------


def _failing_distributive_triple(lat: FiniteLattice) -> Optional[tuple[int, int, int]]:
    """First (a,b,c) with a∨(b∧c) != (a∨b)∧(a∨c), scanning a, then (b,c)
    in row blocks of b."""
    step = max(1, _BLOCK_CELLS // lat.n)
    for a in range(lat.n):
        for start in range(0, lat.n, step):
            rows = slice(start, start + step)
            lhs = lat.join[a, lat.meet[rows]]                    # (b, c)
            rhs = lat.meet[np.ix_(lat.join[a, rows], lat.join[a])]  # (b, c)
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                b, c = bad[0]
                return a, start + int(b), int(c)
    return None


def _failing_modular_triple(lat: FiniteLattice) -> Optional[tuple[int, int, int]]:
    """First (a,b,c) with a<=b but a∨(c∧b) != (a∨c)∧b, scanning a, then
    (c, b) in row blocks of c."""
    step = max(1, _BLOCK_CELLS // lat.n)
    for a in range(lat.n):
        for start in range(0, lat.n, step):
            rows = slice(start, start + step)
            lhs = lat.join[a, lat.meet[rows]]            # (c, b)
            rhs = lat.meet[lat.join[a, rows], :]         # (c, b): meet[a∨c, b]
            hits = np.argwhere((lhs != rhs) & lat.leq[a, :][None, :])
            if hits.size:
                c, b = hits[0]
                return a, int(b), start + int(c)
    return None


def _is_m3(lat: FiniteLattice, z: int, xs: tuple[int, int, int], t: int) -> bool:
    members = {z, *xs, t}
    if len(members) != 5:
        return False
    for x in xs:
        if not (lat.leq[z, x] and lat.leq[x, t] and x != z and x != t):
            return False
    for x, y in combinations(xs, 2):
        if lat.meet[x, y] != z or lat.join[x, y] != t:
            return False
    return True


def _is_n5(lat: FiniteLattice, z: int, x: int, y: int, w: int, t: int) -> bool:
    if len({z, x, y, w, t}) != 5:
        return False
    chain_ok = lat.leq[z, x] and lat.leq[x, y] and lat.leq[y, t] and x != y
    side_ok = lat.leq[z, w] and lat.leq[w, t]
    if not (chain_ok and side_ok):
        return False
    return (
        lat.meet[x, w] == z
        and lat.meet[y, w] == z
        and lat.join[x, w] == t
        and lat.join[y, w] == t
    )


def _pentagon_witness(lat: FiniteLattice, a: int, b: int, c: int) -> tuple[int, ...]:
    """N5 from a failing modular triple (a <= b, a∨(c∧b) < (a∨c)∧b)."""
    z = int(lat.meet[c, b])
    x = int(lat.join[a, z])
    y = int(lat.meet[lat.join[a, c], b])
    t = int(lat.join[a, c])
    witness = (z, x, y, c, t)
    if not _is_n5(lat, *witness):
        raise RuntimeError("internal error: pentagon construction failed")
    return witness


def _diamond_witness(lat: FiniteLattice, a: int, b: int, c: int) -> tuple[int, ...]:
    """M3 from a failing distributive triple in a modular lattice."""
    meet, join = lat.meet, lat.join
    m = join[join[meet[a, b], meet[b, c]], meet[c, a]]
    j = meet[meet[join[a, b], join[b, c]], join[c, a]]
    x = join[meet[a, j], m]
    y = join[meet[b, j], m]
    z = join[meet[c, j], m]
    witness = (int(m), (int(x), int(y), int(z)), int(j))
    if not _is_m3(lat, witness[0], witness[1], witness[2]):
        raise RuntimeError("internal error: diamond construction failed")
    return (witness[0], *witness[1], witness[2])


def is_modular(lat: FiniteLattice, a: Optional[int] = None) -> bool:
    """Whether no pentagon N5 embeds in [a, top], the whole lattice by
    default.  Its covers, meets and joins are the lattice's, so it is
    modular exactly when no semimodularity failure of the cached list
    (FiniteLattice._failures) has a <= z."""
    z, _, semimodular = lat._failures
    return not lat.leq[lat.bottom if a is None else a, z[semimodular]].any()


def is_distributive(lat: FiniteLattice, a: Optional[int] = None) -> bool:
    """Whether no diamond M3 and no pentagon N5 embeds in [a, top], the
    whole lattice by default: whether no failure of the cached list
    (FiniteLattice._failures) has a <= z."""
    return not lat.leq[lat.bottom if a is None else a, lat._failures[0]].any()


def forbidden_sublattice(lat: FiniteLattice) -> Optional[tuple[int, ...]]:
    """An induced M3 (m, x, y, z, j) or N5 (z, x, y, w, t) of ``lat``, or
    None when it is distributive.

    A lattice that is not modular gets the N5 built from its first failing
    triple a <= b, a∨(c∧b) != (a∨c)∧b; a modular one the M3 built from its
    first failing triple of a∨(b∧c) = (a∨b)∧(a∨c).
    """
    if is_distributive(lat):
        return None
    modular = is_modular(lat)
    triple = (_failing_distributive_triple if modular else _failing_modular_triple)(lat)
    if triple is None:
        raise RuntimeError("internal error: a failure pair is marked, yet no triple fails")
    return (_diamond_witness if modular else _pentagon_witness)(lat, *triple)


# -- Boolean lattices --------------------------------------------------------


def boolean_rank(lat: FiniteLattice, a: Optional[int] = None) -> Optional[int]:
    """The rank k if [a, top] (the whole lattice by default) is isomorphic
    to the subsets of a k-set, else None.  By Birkhoff's representation
    theorem a finite distributive lattice is the lattice of down-sets of its
    join-irreducibles; with k atoms (a's upper covers) among them it has 2^k
    elements exactly when the atoms are all of them."""
    a = lat.bottom if a is None else a
    k = int(np.count_nonzero(lat.covers()[a]))
    if np.count_nonzero(lat.leq[a]) == 2**k and is_distributive(lat, a):
        return k
    return None
