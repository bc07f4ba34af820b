"""Small lattices built by hand, for the lattice tests.

``chain``, ``boolean_lattice``, ``diamond_m3``, ``pentagon_n5`` and
``divisor_lattice`` build the standard examples; ``direct_product`` and
``concatenate`` combine two lattices; ``induced_sublattice`` restricts one
to a meet- and join-closed subset; ``complement`` is the unique complement
in a Boolean lattice.  ``atoms`` and ``coatoms`` are the former
``FiniteLattice`` methods, which only tests called.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from biprox.errors import NotBoolean
from biprox.lattice import FiniteLattice, boolean_rank


def induced_sublattice(lat: FiniteLattice, members: Sequence[int]) -> FiniteLattice:
    """The sublattice on ``members``, in node order, with their labels and
    payload and tables of its own; raises ValueError if not meet/join
    closed.  (The former ``FiniteLattice._restrict``.)"""
    members = np.asarray(sorted(members), dtype=np.int64)
    tables = []
    for table, name in ((lat.meet, "meet"), (lat.join, "join")):
        sub = table[np.ix_(members, members)]
        pos = np.searchsorted(members, sub)
        if not np.array_equal(members[np.minimum(pos, len(members) - 1)], sub):
            raise ValueError(f"subset is not closed under {name}")
        tables.append(pos)
    leq = lat.leq[np.ix_(members, members)]
    bottom = int(np.flatnonzero(leq.sum(axis=1) == len(members))[0])
    top = int(np.flatnonzero(leq.sum(axis=0) == len(members))[0])
    payload = None
    if lat.payload is not None:
        payload = tuple(lat.payload[int(m)] for m in members)
    return FiniteLattice._finish(
        len(members), leq, tables[0], tables[1], bottom, top,
        tuple(lat.labels[int(m)] for m in members), payload,
    )


def atoms(lat: FiniteLattice) -> list[int]:
    """The upper covers of the bottom, in node order."""
    return np.flatnonzero(lat.covers()[lat.bottom]).tolist()


def coatoms(lat: FiniteLattice) -> list[int]:
    """The lower covers of the top, in node order."""
    return np.flatnonzero(lat.covers()[:, lat.top]).tolist()


def complement(lat: FiniteLattice, b: int) -> int:
    """The unique complement of ``b`` in a Boolean lattice."""
    if boolean_rank(lat) is None:
        raise NotBoolean("complement is only defined on Boolean lattices")
    hits = [
        c
        for c in range(lat.n)
        if lat.meet[b, c] == lat.bottom and lat.join[b, c] == lat.top
    ]
    if len(hits) != 1:
        raise ValueError(f"element {b} has {len(hits)} complements, not one")
    return hits[0]


def chain(k: int) -> FiniteLattice:
    """The (k+1)-element chain 0 < 1 < ... < k."""
    n = k + 1
    leq = np.triu(np.ones((n, n), dtype=bool))
    return FiniteLattice.from_order(leq, [str(i) for i in range(n)])


def boolean_lattice(k: int) -> FiniteLattice:
    """The subsets of a k-set ordered by inclusion."""
    n = 2**k
    subsets = np.arange(n)
    leq = (subsets[:, None] & ~subsets[None, :]) == 0
    labels = [format(s, f"0{max(k, 1)}b") for s in subsets]
    return FiniteLattice.from_order(leq, labels)


def diamond_m3() -> FiniteLattice:
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    return FiniteLattice.from_order(leq, ["0", "a", "b", "c", "1"])


def pentagon_n5() -> FiniteLattice:
    # 0 < x < y < 1 and 0 < w < 1.
    leq = np.eye(5, dtype=bool)
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    for i, j in order:
        leq[i, j] = True
    return FiniteLattice.from_order(leq, ["0", "x", "y", "w", "1"])


def divisor_lattice(n: int) -> FiniteLattice:
    """Divisors of n under divisibility (the subgroup lattice of Z/n)."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    count = len(divs)
    leq = np.zeros((count, count), dtype=bool)
    for i, a in enumerate(divs):
        for j, b in enumerate(divs):
            leq[i, j] = b % a == 0
    return FiniteLattice.from_order(leq, [str(d) for d in divs])


def direct_product(a: FiniteLattice, b: FiniteLattice) -> FiniteLattice:
    """Componentwise order on pairs; index packing i = i_a * n_b + i_b."""
    leq = np.kron(a.leq, b.leq).astype(bool)
    meet = a.meet[:, None, :, None] * b.n + b.meet[None, :, None, :]
    join = a.join[:, None, :, None] * b.n + b.join[None, :, None, :]
    n = a.n * b.n
    labels = tuple(
        f"({la},{lb})" for la in a.labels for lb in b.labels
    )
    return FiniteLattice._finish(
        n, leq, meet.reshape(n, n), join.reshape(n, n),
        a.bottom * b.n + b.bottom, a.top * b.n + b.top, labels, None,
    )


def concatenate(a: FiniteLattice, b: FiniteLattice) -> FiniteLattice:
    """Stack b on top of a, identifying top(a) with bottom(b)."""
    # Reindex: a's elements keep their indices; b's bottom becomes a's top,
    # and b's other elements follow, in b's order.
    rest = np.flatnonzero(np.arange(b.n) != b.bottom)
    upper = np.full(b.n, a.top)
    upper[rest] = a.n + np.arange(len(rest))
    n = a.n + b.n - 1
    leq = np.zeros((n, n), dtype=bool)
    leq[: a.n, : a.n] = a.leq
    leq[np.ix_(upper, upper)] = b.leq
    leq[: a.n, upper] = True  # everything in a is below everything in b
    labels = list(a.labels) + [b.labels[i] for i in rest]
    return FiniteLattice.from_order(leq, labels)
