"""Finite permutation groups: closure, subgroups, cosets, conjugation, characters.

Conventions
-----------
* Permutations act on points ``0..degree-1``; ``(p * q)(i) = p(q(i))``.
* Cycle-notation I/O is 1-based ("(1,2)(3,4)"), internals are 0-based.
* A ``FiniteGroup`` is its array of image rows, ``images``, sorted
  lexicographically, which makes Cayley tables, subgroup bitsets, and
  everything built on top of them reproducible across runs and platforms.
  The Cayley table composes rows one block at a time and looks the products
  up by their byte keys, or, for a quotient read off its parent's table,
  checks the given table against them;
  ``elements``, the rows as ``Permutation`` objects, is built on demand,
  and labels never need it: ``cycle_string(i)`` reads element i's row.
* One power table (g, g^2, ..., doubled per gather up to the largest
  element order) fills the member mask of every cyclic subgroup <g>; the
  element orders and the least generator of each cyclic subgroup are read
  off those masks.
* Closure runs in batches, from the cyclic subgroups it joins: ``_close``
  closes every row of a mask matrix at once, from rows S | <c> with S
  already closed under all but the last generator c when told so.
  ``all_subgroups`` reads generation 1 off the cyclic masks and closes each
  later generation of joins per batch, one join per double coset, in row
  blocks of a fixed cell budget; ``generating_sets`` takes one greedy step
  for many subgroups per batch.  Once the subgroup list is cached,
  ``subgroup_generated`` reads <seed> off it and closes nothing.
* Subgroups are enumerated one conjugacy class at a time.  Conjugation maps
  joins to joins, g <S, c> g^-1 = <g S g^-1, g c g^-1>, so only one member
  of each class is extended.  A new class is expanded by one gather of its
  mask through the conjugation table (entry [g, x] is g^-1 x g), unless it
  is normal, a union of conjugacy classes as ``class_labels`` shows, and
  so its own class.  Each listed subgroup's class is recorded with the list.
  Class labels, conjugates and normalisers read the same table.
* The A\\G/B double cosets are one label array: the least element of AgB
  for every g.
* Per-subgroup results are cached on the parent by member set
  (``Subgroup.key()``): character tables and ``generator_string`` labels, so
  a fresh ``Subgroup`` on the same members reuses them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    BiprojectionCheckFailed,
    DegreeMismatch,
    NotNested,
    NumericRankAmbiguous,
    OrderCapExceeded,
    SubgroupCapExceeded,
)

DEFAULT_ORDER_CAP = 400
DEFAULT_SUBGROUP_CAP = 20_000

# Numeric policy: the absolute zero tolerance on unit-normalized data, the
# band of relative gaps that can be neither trusted nor ignored (a range
# projection keeps the eigenvalues above the band, and a spectral split
# cuts clusters at its upper end) and the number of draws
# minimal_projections_under makes.
ZERO_TOL = 1e-9
AMBIGUOUS_BAND = (1e-10, 1e-6)
SPLIT_RETRIES = 8

# Array cells of one batched step: all_subgroups closes a generation's seeds
# in row blocks of this many mask cells (rows x |G|), and a Cayley table is
# looked up in row blocks of this many product image entries (rows x |G| x
# degree), so memory stays flat however large the group or the generation.
_CLOSE_CELLS = 1 << 16

_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)")


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..degree-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"images {self.images!r} are not a bijection on 0..{n - 1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, image in enumerate(self.images):
            inv[image] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == image for i, image in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 0-based points, each starting at its minimum."""
        return _cycles(self.images)

    def cycle_string(self) -> str:
        """1-based cycle notation; the identity prints as ``()``."""
        return _cycle_string(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """The nontrivial cycles of the permutation with these images, on 0-based
    points, each starting at its minimum."""
    seen = [False] * len(images)
    out: list[tuple[int, ...]] = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        point = images[start]
        while point != start:
            cycle.append(point)
            seen[point] = True
            point = images[point]
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return out


def _cycle_string(images: Sequence[int]) -> str:
    """1-based cycle notation of the permutation with these images; the
    identity prints as ``()``."""
    cycles = _cycles(images)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(p + 1) for p in cycle) + ")" for cycle in cycles)


def parse_cycles(text: str, degree: Optional[int] = None) -> Permutation:
    """Parse one permutation in 1-based cycle notation, e.g. "(1,2)(3,4)".

    The degree is inferred from the largest moved point unless given.
    "()" and the empty string parse to the identity.
    """
    stripped = text.strip()
    body = _CYCLE_RE.findall(stripped)
    leftover = _CYCLE_RE.sub("", stripped).replace("()", "").strip()
    if leftover:
        raise ValueError(f"unparsable cycle notation: {text!r}")
    points_used = [int(p) for group in body for p in group.split(",")]
    if any(p < 1 for p in points_used):
        raise ValueError(f"cycle notation is 1-based; got point {min(points_used)}")
    inferred = max(points_used, default=1)
    if degree is None:
        degree = inferred
    elif inferred > degree:
        raise ValueError(f"point {inferred} exceeds degree {degree}")
    images = list(range(degree))
    for group in body:
        cycle = [int(p) - 1 for p in group.split(",")]
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated point in cycle {group!r}")
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            images[src] = dst
    return Permutation(tuple(images))


def parse_generators(text: str, degree: Optional[int] = None) -> list[Permutation]:
    """Parse semicolon-separated generators in cycle notation at one degree."""
    parts = [part for part in (p.strip() for p in text.split(";")) if part]
    if degree is None:
        degree = 1
        for part in parts:
            points = [int(p) for group in _CYCLE_RE.findall(part) for p in group.split(",")]
            degree = max([degree, *points])
    return [parse_cycles(part, degree) for part in parts]


class FiniteGroup:
    """A finite permutation group: the array of its image rows and its Cayley
    table.

    ``elements`` is a sequence of permutations of one degree or an integer
    array of their image rows. Elements are indexed 0..order-1 in
    lexicographic image order; all subgroup and coset machinery works on
    these indices, and rows that arrive in that order are not sorted again.
    The Cayley table looks each product row up among the rows; the private
    ``_table`` (``interval.action_quotient``) is a table for rows already in
    order, checked entry by entry against the composed rows instead, and a
    wrong entry raises ValueError as a list not closed under products does.
    ``elements`` as ``Permutation`` objects is built on first use.
    Instances are immutable after construction and cache derived data
    (subgroup lists and their classes, element orders, the conjugation
    table, class labels) on first use.
    """

    def __init__(
        self,
        elements: Sequence[Permutation] | np.ndarray,
        name: Optional[str] = None,
        *,
        _table: Optional[np.ndarray] = None,
    ):
        if len(elements) == 0:
            raise ValueError("a group needs at least the identity")
        if not isinstance(elements, np.ndarray):
            if len({e.degree for e in elements}) > 1:
                raise DegreeMismatch("elements of mixed degree")
            elements = [e.images for e in elements]
        images = np.array(elements, dtype=np.int32)
        if not _sorted_distinct(images):
            if _table is not None:
                raise ValueError("a Cayley table needs its rows sorted and distinct")
            images = np.unique(images, axis=0)
        self.order, self.degree = images.shape
        if np.any(np.sort(images, axis=1) != np.arange(self.degree)):
            raise ValueError("image rows are not permutations")
        images.setflags(write=False)
        self.images = images
        self.name = name
        if _table is None:
            # Products are looked up by key, so gather them from big-endian rows.
            rows = self._keys.view(">i4").reshape(images.shape)
            unclosed = "element list is not closed under products"
        else:
            rows = images
            unclosed = "table is not the Cayley table of the rows"
            _table = np.asarray(_table)
            if _table.shape != (self.order, self.order) or not (
                0 <= _table.min() and _table.max() < self.order
            ):
                raise ValueError(unclosed)
        cayley = np.empty((self.order, self.order), dtype=np.int32)
        block = max(1, _CLOSE_CELLS // (self.order * self.degree))
        for start in range(0, self.order, block):
            # Entry (i, j) of a block is the row of p_i * p_j, p_i[p_j]; take
            # gathers it C-contiguous, so _find views it with no copy.
            products = np.take(rows[start : start + block], images, axis=1)
            if _table is None:
                found, closed = self._find(products)
            else:
                found = _table[start : start + block]
                closed = images[found] == products
            if not closed.all():
                raise ValueError(unclosed)
            cayley[start : start + block] = found.reshape(-1, self.order)
        cayley.setflags(write=False)
        self.cayley = cayley
        self.identity_index = 0  # closed, so it holds the least row (0, 1, ..., degree - 1)
        self.inverse = np.argmax(cayley == 0, axis=1).astype(np.int32)
        self.inverse.setflags(write=False)
        self._full_subgroup: Optional[Subgroup] = None
        self._subgroups: Optional[list[Subgroup]] = None
        # By list index of _subgroups: the index of its class's first member.
        self._subgroup_classes: Optional[np.ndarray] = None
        self._subgroup_lattice = None  # the lattice of _subgroups
        self._element_orders: Optional[np.ndarray] = None
        self._character_tables: dict[bytes, np.ndarray] = {}  # by subgroup key
        self._generator_strings: dict[bytes, str] = {}  # by subgroup key
        self._cycle_strings: dict[int, str] = {}  # by element index
        self._invariants: Optional[tuple] = None  # interval._group_invariants

    # -- basics ---------------------------------------------------------

    @cached_property
    def _keys(self) -> np.ndarray:
        """The rows as big-endian bytes, which sort like the rows, so a row's
        index is a searchsorted."""
        return self.images.astype(">i4").view(f"V{4 * self.degree}").ravel()

    def _find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The index of each image row, and whether the row is an element."""
        keys = np.ascontiguousarray(rows, dtype=">i4").view(self._keys.dtype).ravel()
        found = np.minimum(self._keys.searchsorted(keys), self.order - 1)
        return found, self._keys[found] == keys

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self.images.tolist())

    def cycle_string(self, i: int) -> str:
        """Cycle notation of element ``i``, formatted off its image row once
        per index (``Permutation.cycle_string``, with no ``elements``)."""
        if i not in self._cycle_strings:
            self._cycle_strings[i] = _cycle_string(self.images[i].tolist())
        return self._cycle_strings[i]

    def index_of(self, perm: Permutation) -> int:
        if perm.degree == self.degree:
            found, hit = self._find(np.array([perm.images]))
            if hit[0]:
                return int(found[0])
        raise KeyError(f"{perm!r} is not an element of this group")

    @cached_property
    def _cyclic_masks(self) -> np.ndarray:
        """Row g is the member mask of <g>, filled off the power table g,
        g^2, ..., g^j of every g at once, which doubles j per gather,
        g^(j+i) = g^j g^i, until every row holds the identity: log2 of the
        largest element order gathers.  The table itself is not kept."""
        powers = np.arange(self.order)[:, None]  # column k holds g^(k+1)
        while not (powers == self.identity_index).any(axis=1).all():
            powers = np.hstack([powers, self.cayley[powers[:, -1:], powers]])
        masks = np.zeros((self.order, self.order), dtype=bool)
        masks[np.arange(self.order)[:, None], powers] = True
        masks.setflags(write=False)
        return masks

    def element_orders(self) -> np.ndarray:
        """The order of each element, by index: the size of <g>."""
        if self._element_orders is None:
            orders = self._cyclic_masks.sum(axis=1)
            orders.setflags(write=False)
            self._element_orders = orders
        return self._element_orders

    @cached_property
    def _cyclic_generators(self) -> np.ndarray:
        """The least generator of each cyclic subgroup, ascending (the
        identity first): the g that is the least member of <g> of its order."""
        orders = self.element_orders()
        least = (self._cyclic_masks & (orders == orders[:, None])).argmax(axis=1)
        return np.flatnonzero(least == np.arange(self.order))

    @cached_property
    def _subgroup_masks(self) -> np.ndarray:
        """The member masks of ``all_subgroups``, one row each, in its order."""
        return np.array([k.mask for k in all_subgroups(self)])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    def label(self) -> str:
        return self.name or f"group of order {self.order} on {self.degree} points"

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label()}, order={self.order})"

    # -- subgroups ------------------------------------------------------

    def subgroup_from_mask(self, mask: np.ndarray) -> "Subgroup":
        return Subgroup(self, mask)

    def subgroup_from_indices(self, indices: Iterable[int]) -> "Subgroup":
        mask = np.zeros(self.order, dtype=bool)
        mask[list(indices)] = True
        mask[self.identity_index] = True
        return Subgroup(self, mask)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup_from_indices([self.identity_index])

    def full_subgroup(self) -> "Subgroup":
        """G as a subgroup of itself, built once per group."""
        if self._full_subgroup is None:
            self._full_subgroup = Subgroup(self, np.ones(self.order, dtype=bool))
        return self._full_subgroup

    @cached_property
    def _conjugation(self) -> np.ndarray:
        """Entry [g, x] is the index of g^-1 x g, built once per group.  A
        member mask gathered through row g is the mask of g K g^-1, and a
        column's least entry over a subgroup is x's least conjugate in it."""
        table = self.cayley[self.cayley[self.inverse], np.arange(self.order)[:, None]]
        table.setflags(write=False)
        return table

    @cached_property
    def class_labels(self) -> np.ndarray:
        """The least conjugate of each element, by index, which names its class."""
        labels = self._conjugation.min(axis=0)
        labels.setflags(write=False)
        return labels

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """The size of each element's conjugacy class, by index."""
        sizes = np.bincount(self.class_labels)[self.class_labels]
        sizes.setflags(write=False)
        return sizes

    def character_table(self) -> np.ndarray:
        """The irreducible characters of G: ``Subgroup.character_table`` of
        the full subgroup (row chi holds chi(g) per element index)."""
        return self.full_subgroup().character_table()


def _sorted_distinct(rows: np.ndarray) -> bool:
    """Whether the rows strictly ascend in lexicographic order: the first
    entry where each row differs from the previous one is larger."""
    step = np.diff(rows, axis=0)
    lead = (step != 0).argmax(axis=1)
    return bool(np.all(step[np.arange(len(step)), lead] > 0))


def _conjugacy_classes(group: FiniteGroup, members: np.ndarray) -> list[np.ndarray]:
    """The classes of the subgroup on ``members`` (ascending) under its own
    conjugation, each sorted, in the order of their least elements, which
    name them: each member's least conjugate is the least entry of its
    column of the members x members block of the conjugation table."""
    least = group._conjugation[np.ix_(members, members)].min(axis=0)
    order = np.argsort(least, kind="stable")
    return np.split(members[order], np.flatnonzero(np.diff(least[order])) + 1)


def _class_matrix(
    group: FiniteGroup, cls: np.ndarray, index: np.ndarray, reps: np.ndarray
) -> np.ndarray:
    """Left multiplication by the class sum of ``cls`` on the class sums:
    entry [l, i] counts the x in ``cls`` with x^-1 reps[l] in class i."""
    k = len(reps)
    hits = index[group.cayley[group.inverse[cls]][:, reps]]
    return np.bincount((np.arange(k) * k + hits).ravel(), minlength=k * k).reshape(k, k)


def _split_space(space: np.ndarray, part: np.ndarray, scale: float) -> list[np.ndarray]:
    """Split the orthonormal columns of ``space`` along the eigenspaces of the
    Hermitian ``part`` restricted to it, cutting at relative gaps >= the band."""
    if space.shape[1] == 1:
        return [space]
    w, v = np.linalg.eigh(space.conj().T @ part @ space)
    gaps = np.diff(w) / scale
    low, high = AMBIGUOUS_BAND
    if np.any((gaps > low) & (gaps < high)):
        raise NumericRankAmbiguous("class-sum eigenvalue gap inside the ambiguity band")
    cuts = np.flatnonzero(gaps >= high) + 1
    return [space @ block for block in np.split(v, cuts, axis=1)]


class Subgroup:
    """A subgroup of a fixed parent group, stored as a boolean member mask."""

    def __init__(self, parent: FiniteGroup, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool).copy()
        if mask.shape != (parent.order,):
            raise ValueError("mask length must equal the parent group order")
        if not mask[parent.identity_index]:
            raise ValueError("a subgroup must contain the identity")
        mask.setflags(write=False)
        self.parent = parent
        self.mask = mask
        self.indices = np.flatnonzero(mask)
        self.indices.setflags(write=False)
        self.order = int(mask.sum())
        if parent.order % self.order != 0:
            raise ValueError("member count does not divide the group order")

    def key(self) -> bytes:
        """Canonical hashable identity of the member set."""
        return np.packbits(self.mask).tobytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and np.array_equal(other.mask, self.mask)
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.key()))

    def __le__(self, other: "Subgroup") -> bool:
        return bool(np.all(other.mask[self.indices]))

    def __lt__(self, other: "Subgroup") -> bool:
        return self.order < other.order and self <= other

    def is_closed(self) -> bool:
        products = self.parent.cayley[np.ix_(self.indices, self.indices)]
        return bool(np.all(self.mask[products]))

    def conjugates(self) -> np.ndarray:
        """The member masks of the conjugates: row g is g K g^-1, the mask
        gathered through row g of the conjugation table."""
        return self.mask[self.parent._conjugation]

    def is_normal(self) -> bool:
        return bool(np.all(self.conjugates() == self.mask))

    @cached_property
    def normaliser(self) -> "Subgroup":
        """N_G(K), the g with g^-1 K g = K, built on first use."""
        conj = self.mask[self.parent._conjugation[:, self.indices]]
        return Subgroup(self.parent, conj.all(axis=1))

    def perms(self) -> list[Permutation]:
        return [self.parent.elements[i] for i in self.indices]

    def character_table(self) -> np.ndarray:
        """The irreducible characters of this subgroup L as functions on the
        parent (row psi holds psi(g) per parent element index, 0 outside L;
        rows by degree), cached on the parent by member set.  Burnside's
        algorithm with no random draw, on L's own classes read off the parent
        Cayley table: the class sums, normal in the basis K_i/sqrt|C_i|, split
        their common eigenspaces by Hermitian and anti-Hermitian parts.  The
        identity's class comes first and is skipped: its sum is the identity
        matrix, whose parts (the identity and 0) split no space.  A
        failed verification raises BiprojectionCheckFailed; a gap inside the
        ambiguity band raises NumericRankAmbiguous."""
        group = self.parent
        key = self.key()
        if key in group._character_tables:
            return group._character_tables[key]
        classes = _conjugacy_classes(group, self.indices)
        k = len(classes)
        index = np.zeros(group.order, dtype=np.int64)  # member -> its class
        for i, cls in enumerate(classes):
            index[cls] = i
        reps = np.array([cls[0] for cls in classes])
        sizes = np.array([len(cls) for cls in classes], dtype=float)
        root = np.sqrt(sizes)
        spaces = [np.eye(k, dtype=np.complex128)]
        for cls in classes[1:]:  # the identity's, first, sums to the identity: it splits nothing
            if len(spaces) == k:
                break
            normal = root[:, None] * _class_matrix(group, cls, index, reps) / root[None, :]
            for part in ((normal + normal.T) / 2, (normal - normal.T) / 2j):
                spaces = [s for space in spaces for s in _split_space(space, part, len(cls))]
        if len(spaces) != k:
            raise BiprojectionCheckFailed("the class sums did not separate the characters")
        # Column c of u is the unit vector of e_chi in the basis K_l / sqrt|C_l|,
        # proportional to sqrt|C_l| conj(chi(g_l)); chi(1) > 0 fixes the phase.
        u = np.hstack(spaces)
        e = index[group.identity_index]
        table = np.sqrt(self.order) * (np.exp(1j * np.angle(u[e])) * u.conj() / root[:, None]).T
        degrees = np.rint(table[:, e].real)
        tol = ZERO_TOL * self.order
        if not (
            np.abs(table[:, e] - degrees).max() <= ZERO_TOL
            and degrees.min() >= 1
            and not np.any(self.order % degrees)
            and (degrees**2).sum() == self.order
            and np.abs((table * sizes) @ table.conj().T - self.order * np.eye(k)).max() <= tol
            and np.abs(table.conj().T @ table - np.diag(self.order / sizes)).max() <= tol
        ):
            raise BiprojectionCheckFailed(f"character table of {self!r} failed verification")
        out = np.zeros((k, group.order), dtype=np.complex128)
        out[:, self.indices] = table[np.argsort(degrees, kind="stable")][:, index[self.indices]]
        out.setflags(write=False)
        group._character_tables[key] = out
        return out

    def generator_string(self) -> str:
        """Cycle notation for a small generating set (1-based, semicolons),
        cached on the parent by member set."""
        return generator_strings([self])[0]

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label()})"


# -- construction ---------------------------------------------------------


def group_closure(
    generators: Sequence[Permutation],
    max_order: int = DEFAULT_ORDER_CAP,
    name: Optional[str] = None,
) -> FiniteGroup:
    """The group generated by ``generators``, capped at ``max_order`` elements."""
    if generators:
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise DegreeMismatch("generators of mixed degree")
    else:
        degree = 1
    identity = Permutation.identity(degree)
    seen: dict[tuple[int, ...], Permutation] = {identity.images: identity}
    frontier = [identity]
    while frontier:
        nxt: list[Permutation] = []
        for word in frontier:
            for gen in generators:
                product = word * gen
                if product.images not in seen:
                    seen[product.images] = product
                    nxt.append(product)
                    if len(seen) > max_order:
                        raise OrderCapExceeded(
                            f"closure exceeded max_order={max_order}"
                        )
        frontier = nxt
    return FiniteGroup(list(seen.values()), name=name)


def _close(
    group: FiniteGroup, masks: np.ndarray, gens: np.ndarray, closed: bool = False
) -> np.ndarray:
    """Close each row of the boolean ``masks`` (in place, and returned) under
    right multiplication by that row's generators, row r of the index array
    ``gens``; every row holds the identity.  Each round gathers the products
    of the whole frontier of every row at once.

    With ``closed``, each row is a subgroup S, closed under all but its last
    generator c, joined with <c>, and the first round multiplies the row by
    c alone; only the elements it reaches go on to every generator.  That
    still reaches J = <S, c>: a new element x of J is taken on by every
    generator, so its closure is xJ = J; and if the first round finds none,
    then Sc lies in S or in <c>, so S lies in <c> or c in S, and the row is
    J already."""
    rows, frontier = np.nonzero(masks)
    step = gens[:, -1:] if closed else gens
    while rows.size:
        reached = np.zeros_like(masks)
        reached[rows[:, None], group.cayley[frontier[:, None], step[rows]]] = True
        reached &= ~masks
        masks |= reached
        rows, frontier = np.nonzero(reached)
        step = gens
    return masks


def mask_keys(masks: np.ndarray) -> list[bytes]:
    """``Subgroup.key()`` of each row of the boolean ``masks``, packed at once."""
    packed = np.packbits(masks, axis=1)
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def subgroup_generated(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of ``group`` containing the seed element indices.

    When the group's subgroup list is cached (``all_subgroups``), it is the
    first listed subgroup whose mask holds the seed: the list is complete
    and sorted by order, so <seed>, which lies in every subgroup holding the
    seed, is the only one of least order; the listed object is returned.
    Otherwise it is ``generated_by_closure``.
    """
    if group._subgroups is None:
        return generated_by_closure(group, seed)
    gens = np.array(sorted({int(i) for i in seed}), dtype=np.int64)
    return group._subgroups[int(group._subgroup_masks[:, gens].all(axis=1).argmax())]


def generated_by_closure(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """<seed> by closure, with no subgroup list: right-multiplication by the
    seed, from the union of the seed's cyclic subgroups.  Every word in the
    seed elements is reached, and in a finite group the word closure is
    already a subgroup (inverses are positive powers)."""
    gens = np.array(sorted({int(i) for i in seed}), dtype=np.int64)
    mask = group._cyclic_masks[gens].any(axis=0, keepdims=True)
    mask[0, group.identity_index] = True
    return Subgroup(group, _close(group, mask, gens[None, :])[0])


def generating_sets(group: FiniteGroup, subs: Sequence[Subgroup]) -> list[list[int]]:
    """A small greedy generating list of element indices for each subgroup
    of ``group`` in ``subs``, all computed together.

    Each list is built greedily: step t gives every row not yet spanned its
    first member outside its current span, by largest element order (which
    keeps the list short for cyclic-ish groups) and then by index.  The
    span, closed under the first t generators, takes in the cyclic subgroup
    of that pick, and one ``_close`` call then closes every row over its
    t + 1 generators."""
    rank = np.lexsort((np.arange(group.order), -group.element_orders()))
    targets = np.zeros((len(subs), group.order), dtype=bool)
    for row, sub in enumerate(subs):
        targets[row] = sub.mask
    spans = np.zeros_like(targets)
    spans[:, group.identity_index] = True
    rows = np.arange(len(subs))
    gens = np.zeros((len(subs), 0), dtype=np.int64)
    out: list[list[int]] = [[] for _ in subs]
    while True:
        done = (spans == targets).all(axis=1)
        for row, chosen in zip(rows[done].tolist(), gens[done].tolist()):
            out[row] = chosen
        rows, gens, targets, spans = rows[~done], gens[~done], targets[~done], spans[~done]
        if not rows.size:
            return out
        pick = rank[(targets & ~spans)[:, rank].argmax(axis=1)]
        gens = np.column_stack([gens, pick])
        spans |= group._cyclic_masks[pick]
        _close(group, spans, gens, closed=True)


def generating_indices(sub: Subgroup) -> list[int]:
    """A small (greedy) generating list of element indices for ``sub``: the
    one-row case of ``generating_sets``."""
    return generating_sets(sub.parent, [sub])[0]


def generator_strings(subs: Sequence[Subgroup]) -> list[str]:
    """``Subgroup.generator_string()`` of each subgroup in ``subs``, which
    share one parent; the member sets not yet labelled on the parent are
    labelled in one ``generating_sets`` batch, each generator written by
    ``FiniteGroup.cycle_string`` straight off the image rows."""
    if not subs:
        return []
    group = subs[0].parent
    if any(sub.parent is not group for sub in subs):
        raise ValueError("generator_strings needs subgroups of one parent group")
    labels = group._generator_strings
    keys = [sub.key() for sub in subs]
    todo = {key: sub for key, sub in zip(keys, subs) if key not in labels}
    if todo:
        for key, gens in zip(todo, generating_sets(group, list(todo.values()))):
            labels[key] = "; ".join(map(group.cycle_string, gens)) or "()"
    return [labels[key] for key in keys]


def _double_coset_seeds(
    group: FiniteGroup, masks: np.ndarray, joins: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The joins to close for each subgroup S, a row of ``masks``: pairs
    (row, j) for the first joins[j] outside S in each double coset S c S,
    by its least element.  Rows come by subgroup order, and j ascends in
    each row.

    The rows go in blocks of at most ``_CLOSE_CELLS`` gathered cells (a row
    past it goes alone), their members padded with the identity, which lies
    in every S: one gather gives the least element of every gS, and one
    more the least of every S c S."""
    n, sizes = group.order, masks.sum(axis=1)
    left = group.cayley[:, joins]  # row s: c -> s c
    by_order = np.argsort(sizes, kind="stable")
    seed_rows, seed_joins = [], []
    start = 0
    while start < by_order.size:
        # Sizes ascend, so the last row of a block is its widest.
        fits = np.arange(1, by_order.size - start + 1) * sizes[by_order[start:]] * n
        rows = by_order[start : start + max(1, int((fits <= _CLOSE_CELLS).sum()))]
        start += rows.size
        block, counts = masks[rows], sizes[rows]
        r, members = np.nonzero(block)
        padded = np.full((rows.size, counts[-1]), group.identity_index, dtype=np.int64)
        padded[r, np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts)] = members
        least_gs = group.cayley[:, padded].min(axis=2).T
        at = np.arange(rows.size)[:, None]
        labels = least_gs[at[:, :, None], left[padded]].min(axis=1)
        js = np.arange(joins.size, dtype=np.int32)
        first = np.full((rows.size, n), joins.size, dtype=np.int32)  # per label, its first j
        np.minimum.at(first, (at, labels), js)
        r, j = np.nonzero((first[at, labels] == js) & ~block[:, joins])
        seed_rows.append(rows[r])
        seed_joins.append(j)
    return np.concatenate(seed_rows), np.concatenate(seed_joins)


def _closed_joins(
    group: FiniteGroup, masks: np.ndarray, gens: np.ndarray, joins: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the closed joins of each subgroup S, a row of ``masks`` closed
    under its row of ``gens``, one per double coset S c S
    (``_double_coset_seeds``), in row blocks of ``_CLOSE_CELLS`` cells: each
    block's masks and generators.  A join closes from S | <c> over S's
    generators and c, and S is closed under the first ones, so the first
    closure round multiplies it by c alone."""
    seed_rows, seed_joins = _double_coset_seeds(group, masks, joins)
    block = max(1, _CLOSE_CELLS // group.order)
    for start in range(0, seed_rows.size, block):
        rows = seed_rows[start : start + block]
        added = joins[seed_joins[start : start + block]]
        block_gens = np.column_stack([gens[rows], added])
        block_masks = masks[rows] | group._cyclic_masks[added]
        yield _close(group, block_masks, block_gens, closed=True), block_gens


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of ``group``, sorted by (order, bitset key).

    Enumeration by generation, breadth first, after Neubüser's cyclic
    extension method, one conjugacy class at a time: generation k holds the
    classes first reached as a join of k cyclic subgroups, and generation
    k + 1 is read off the joins of one member S of each class of generation
    k with every cyclic subgroup <c> outside it.  Conjugation maps joins to
    joins, g <S, c> g^-1 = <g S g^-1, g c g^-1>, so the joins of S reach
    the classes of the joins of every conjugate of S; and every subgroup is
    the join of its cyclic subgroups, so this is exact for any finite group.
    Generation 1 is read off the group's cyclic masks, with no closure.
    Since <S, c> = <S, s c s'> for all s, s' in S, the joins of S are
    seeded once per double coset S c S and closed in row blocks
    (``_closed_joins``).

    A join not yet found starts a class.  A normal subgroup is its own
    class: it is a union of conjugacy classes, so each member's mask entry
    equals that of its class label (``class_labels``), which one gather of
    the whole block decides, over the elements that are not their own
    label (none in an abelian group).  Any other class is expanded by one
    gather of its mask through the conjugation table, and every member is
    stored, so a later row conjugate to it, in the same block or not, is
    found already.  The class of each listed subgroup is recorded as the
    list index of its first member (``FiniteGroup._subgroup_classes``).
    Computed once per group; past DEFAULT_ORDER_CAP elements or
    DEFAULT_SUBGROUP_CAP subgroups it raises OrderCapExceeded or
    SubgroupCapExceeded, before the subgroup past the cap is stored.
    """
    if group.order > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"|G| = {group.order} exceeds the enumeration cap {DEFAULT_ORDER_CAP}"
        )
    if group._subgroups is not None:
        return list(group._subgroups)
    cyclic, labels = group._cyclic_masks, group.class_labels
    moved = np.flatnonzero(labels != np.arange(group.order))  # none when G is abelian
    joins = group._cyclic_generators[1:]  # the identity's <1> is generation 0
    trivial = Subgroup(group, cyclic[group.identity_index])
    # By key: the subgroup and the key of the first member found of its class.
    found = {trivial.key(): (trivial, trivial.key())}
    generation = [(cyclic[joins], joins[:, None])]
    while True:
        level_masks, level_gens = [], []
        for masks, gens in generation:
            normal = (masks[:, moved] == masks[:, labels[moved]]).all(axis=1).tolist()
            new = []
            for row, key in enumerate(mask_keys(masks)):
                if key in found:
                    continue
                members = [(key, masks[row])]
                if not normal[row]:
                    conj = masks[row][group._conjugation]
                    members = dict(zip(mask_keys(conj), conj)).items()
                if len(found) + len(members) > DEFAULT_SUBGROUP_CAP:
                    raise SubgroupCapExceeded(f"more than {DEFAULT_SUBGROUP_CAP} subgroups")
                for member, mask in members:
                    found[member] = (Subgroup(group, mask), key)
                new.append(row)
            level_masks.append(masks[new])
            level_gens.append(gens[new])
        if not any(map(len, level_masks)):  # the generation's joins were all found already
            break
        masks, gens = np.concatenate(level_masks), np.concatenate(level_gens)
        generation = _closed_joins(group, masks, gens, joins)
    listed = sorted(found.items(), key=lambda item: (item[1][0].order, item[0]))
    first: dict[bytes, int] = {}
    classes = np.array([first.setdefault(cls, i) for i, (_, (_, cls)) in enumerate(listed)])
    classes.setflags(write=False)
    group._subgroups = [sub for _, (sub, _) in listed]
    group._subgroup_classes = classes
    return list(group._subgroups)


# -- cosets and normality --------------------------------------------------


def _least_in_double_cosets(
    cayley: np.ndarray, a: np.ndarray, b: np.ndarray, among: np.ndarray | slice
) -> np.ndarray:
    """For each element index g in ``among``, the least element index of AgB,
    where ``a`` and ``b`` are member index arrays.  Each gather takes at most
    ``_CLOSE_CELLS // |G|`` members at once."""
    step = max(1, _CLOSE_CELLS // len(cayley))
    least_gb = cayley[:, b[:step]].min(axis=1)
    for start in range(step, b.size, step):
        np.minimum(least_gb, cayley[:, b[start : start + step]].min(axis=1), out=least_gb)
    out = least_gb[cayley[a[:step]][:, among]].min(axis=0)
    for start in range(step, a.size, step):
        np.minimum(out, least_gb[cayley[a[start : start + step]][:, among]].min(axis=0), out=out)
    return out


def double_coset_labels(a: Subgroup, b: Subgroup) -> np.ndarray:
    """For every element index g, the least element index of AgB."""
    return _least_in_double_cosets(a.parent.cayley, a.indices, b.indices, slice(None))


def core(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup of ``group`` contained in ``sub``."""
    return Subgroup(group, sub.conjugates().all(axis=0))


def center_subgroup(group: FiniteGroup) -> Subgroup:
    """Elements commuting with everything."""
    mask = np.all(group.cayley == group.cayley.T, axis=1)
    return Subgroup(group, mask)


def derived_subgroup(group: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators g^-1 h^-1 g h = (hg)^-1 (gh)."""
    commutators = group.cayley[group.inverse[group.cayley.T], group.cayley]
    return subgroup_generated(group, np.unique(commutators))


def require_nested(inner: Subgroup, outer: Subgroup) -> None:
    if inner.parent is not outer.parent or not inner <= outer:
        raise NotNested(f"{inner!r} is not contained in {outer!r}")


def is_normal_intermediate(h: Subgroup, k: Subgroup, group: FiniteGroup) -> bool:
    """Whether HgK = KgH for every g in G."""
    return is_dedekind_interval(h, group.full_subgroup(), [k])


def is_dedekind_interval(
    inner: Subgroup, outer: Subgroup, members: Iterable[Subgroup]
) -> bool:
    """Whether inner.g.K = K.g.inner for every K in members and every g in
    outer: the two partitions of outer into double cosets agree, so every g
    has the same least element in both.

    With members the whole interval [inner, outer] this says that every
    biprojection of the 2-box algebra of inner <= outer is normal.
    """
    require_nested(inner, outer)
    members = list(members)
    masks = np.array([k.mask for k in members if k.parent is inner.parent], dtype=bool)
    masks = masks.reshape(-1, outer.parent.order)
    if len(masks) < len(members) or not (
        masks[:, inner.indices].all() and not masks[:, ~outer.mask].any()
    ):
        raise NotNested(f"a member is not between {inner!r} and {outer!r}")
    for k in members:
        left = double_coset_labels(inner, k)[outer.indices]
        if not np.array_equal(left, double_coset_labels(k, inner)[outer.indices]):
            return False
    return True

