"""Classification predicates and chain lengths for 2-box contexts.

Decision procedures for the lattice-flavoured properties of the 2-box
algebra of an inclusion H <= G: distributivity and normality of the
biprojection lattice (cyclic = both at once), w-cyclicity on the primal
and dual sides, linear primitivity (w-cyclicity's block), w+-cyclicity,
the centrality properties (Z), (ZZ), (Z~) and (F2), the exact rational
bound sum(1/[id:b]) over maximal biprojections, shortest-chain lengths
searched over boolean step rows of the biprojection lattice, read off its
distributive_intervals, and a table of verified implications between all
of these.

Every interval is named by its endpoints in the biprojection lattice, the
reverse() view of the group's subgroup lattice up to H's node
(_biprojections).  On [H, G] itself, Dedekind, cyclic, (Z), (Z~) and w+
read the integers <chi|_K, 1> of the verified character table: one table
per context, and for (Z~) one per outer node a, whose columns serve every
interval [a, b] (see _fixed_dims).  (ZZ) counts the members of each
conjugacy class in each double coset HgH (see property_ZZ); the center basis
runs only to name a witness where (ZZ) fails.  Chain steps over a
non-normal inner subgroup keep the double-coset test HgK = KgH, and the
range projection runs only for the w+ pairs left undecided.

Conventions used throughout (see boxalgebra): the biprojection lattice
reverses subgroup inclusion, so b_K <= b_L iff L <= K, the bottom is
e1 = b_G and the top is id = b_H; "minimal projection" means a rank-one
projection in a matrix block, "minimal central projection" a block
identity; <x> denotes the biprojection generated by x under coproduct
powers, and <x> = id is equivalent to the generated subgroup being H.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .boxalgebra import (
    BoxContext,
    BoxElement,
    DualElement,
    block_characters,
    center_basis_elements,
    collapse_dual,
    coproduct,
    element_bK,
    id_element,
    is_central,
    is_dual_coproduct_central,
    left_stabilizer,
    minimal_central_projections,
    minimal_projections_under,
    mul_dual,
    range_projection,
)
from .errors import BiprojectionCheckFailed, TheoremViolation
from .interval import is_H_cyclic
from .lattice import _BLOCK_CELLS, FiniteLattice, boolean_rank, is_distributive
from .permgroup import (
    ZERO_TOL,
    Subgroup,
    is_dedekind_interval,
    require_nested,
)

__all__ = [
    "ClassificationReport",
    "ImplicationResult",
    "classify",
    "dual_coproduct_center_basis",
    "find_zz_violation_dual",
    "is_cyclic",
    "is_dedekind",
    "is_linearly_primitive_inclusion",
    "is_w_cyclic",
    "is_w_cyclic_dual",
    "lengths",
    "lw_rw_cyclic",
    "maximal_biprojections",
    "property_F2",
    "property_Z",
    "property_Z_tilde",
    "property_ZZ",
    "sum_bound",
    "verify_theorems",
    "w_plus_cyclic",
    "wcl_generators",
]


# -- w-cyclicity ------------------------------------------------------------


def _biprojections(ctx: BoxContext) -> Tuple[FiniteLattice, int]:
    """(lat, top): ``ctx.node``'s lattice reversed, from e1 = b_G up to id = b_H."""
    lat, top = ctx.node
    return lat.reverse(), top


def _fixed_dims(lat: FiniteLattice, a: int, top: int) -> np.ndarray:
    """dims[psi, M] = <psi|_M, 1> for the characters psi of K_a, node a's
    subgroup (rows of its character table), against every node M of the
    lattice: checked to be integers on [a, top], given by its endpoints; 0 off it.

    The 2-box algebra of K_b <= K_a is the sum over psi of matrix blocks
    of size dims[psi, b], and b_M is a projection of rank dims[psi, M] in
    the block of psi: the M-fixed vectors inside the K_b-fixed ones.  The
    M-averages of the table are one product with rows of the mask stack."""
    cols = np.flatnonzero(lat.leq[a] & lat.leq[:, top])  # the subgroups of K_a over H
    masks = lat.masks[cols].astype(float)
    fixed = lat.payload[a].character_table() @ masks.T / masks.sum(axis=1)
    dims = np.zeros((len(fixed), lat.n))
    dims[:, cols] = np.rint(fixed.real)
    if np.abs(fixed - dims[:, cols]).max() > ZERO_TOL:
        raise BiprojectionCheckFailed("a fixed-point dimension is not an integer")
    return dims


def _central_nodes(dims: np.ndarray, b: int) -> np.ndarray:
    """Whether each b_M is central in the 2-box algebra of [a, b], read at
    its members off dims = _fixed_dims(lat, a, top): rank 0 or full in each block."""
    return ((dims == 0) | (dims == dims[:, [b]])).all(axis=0)


def _interval_blocks(
    lat: FiniteLattice, dims: np.ndarray, a: int, b: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The blocks of an interval [a, b] of the biprojection lattice: the
    characters psi of K_a with <psi|_{K_b}, 1> > 0 (rows of dims =
    _fixed_dims(lat, a, top)) and the node M of the b_M that each generates.

    b_M.z_psi = z_psi exactly when the M-fixed and the K_b-fixed vectors
    of the psi-isotypic part agree, i.e. when <psi|_M, 1> = <psi|_{K_b}, 1>.
    Those M of [a, b] are closed under joins, so the block generates the
    largest: one boolean (characters x members) matrix of the M that keep
    the dimension, its last true member in each row, since nodes ascend by
    subgroup order, checked to lie above every other in one test."""
    members = np.flatnonzero(lat.leq[a] & lat.leq[:, b])
    rows = np.flatnonzero(dims[:, b] > 0)
    same = dims[rows][:, members] == dims[rows, b, None]
    nodes = members[len(members) - 1 - same[:, ::-1].argmax(axis=1)]
    if not (lat.leq[nodes][:, members] | ~same).all():
        raise BiprojectionCheckFailed("no largest node keeps the fixed dimension")
    return rows, nodes


def _interval_w_cyclic(lat: FiniteLattice, dims: np.ndarray, a: int, b: int) -> bool:
    """w-cyclicity of the biprojection-lattice interval [a, b]: some block
    generates its top b, read off dims = _fixed_dims(lat, a, top)."""
    return bool(np.any(_interval_blocks(lat, dims, a, b)[1] == b))


def _interval_z(lat: FiniteLattice, dims: np.ndarray, a: int, b: int) -> bool:
    """(Z) on the biprojection-lattice interval [a, b]: every block
    generates a central b_M, read off dims = _fixed_dims(lat, a, top)."""
    return bool(_central_nodes(dims, b)[_interval_blocks(lat, dims, a, b)[1]].all())


def _context_dims(ctx: BoxContext) -> np.ndarray:
    """_fixed_dims of the whole biprojection lattice of ctx, built once: the
    block nodes, (Z), Dedekind and w+ all read this one table."""
    if "fixed_dims" not in ctx._cache:
        lat, top = _biprojections(ctx)
        ctx._cache["fixed_dims"] = _fixed_dims(lat, lat.bottom, top)
    return ctx._cache["fixed_dims"]


def _block_nodes(ctx: BoxContext) -> np.ndarray:
    """The node b_{K_i} = <z_i> of the biprojection lattice for each minimal
    central projection z_i, in block order, read off the character table on
    the whole lattice."""
    if "block_nodes" not in ctx._cache:
        lat, top = _biprojections(ctx)
        rows, nodes = _interval_blocks(lat, _context_dims(ctx), lat.bottom, top)
        ctx._cache["block_nodes"] = nodes[np.searchsorted(rows, block_characters(ctx))]
    return ctx._cache["block_nodes"]


def _block_subgroups(ctx: BoxContext) -> List[Subgroup]:
    """K_i with <z_i> = b_{K_i} for each minimal central projection z_i, in
    block order.  For positive x and y, R(x + y) = R(x) v R(y), so a set of
    blocks generates b_K with K the intersection of their K_i: the block
    predicates are mask operations."""
    lat, _ = ctx.node
    return [lat.payload[i] for i in _block_nodes(ctx)]


def _w_cyclic_block(ctx: BoxContext) -> Optional[int]:
    """Index of the first block z with <z> = id, H's node, or None.  Some
    minimal projection under z generates <z>, so this decides w-cyclicity."""
    hits = np.flatnonzero(_block_nodes(ctx) == ctx.node[1])
    return int(hits[0]) if hits.size else None


def is_linearly_primitive_inclusion(ctx: BoxContext) -> Optional[int]:
    """Index of the first central block whose H-fixed vectors have pointwise
    stabilizer exactly H, or None.  Block i generates b_K with K that
    stabilizer, so this is the first block generating id: w-cyclicity's
    block, read off the context's cached block nodes."""
    return _w_cyclic_block(ctx)


def is_w_cyclic(ctx: BoxContext, seed: int = 0) -> Optional[BoxElement]:
    """A minimal (or minimal central) projection u with <u> = id, or None.

    A drawn minimal projection under the first block generating id is
    returned when it verifies (random draws do, away from a null set);
    otherwise the block itself stands in as the witness.
    """
    i = _w_cyclic_block(ctx)
    if i is None:
        return None
    z = minimal_central_projections(ctx)[i]
    for v in minimal_projections_under(z, seed=seed):
        if np.array_equal(left_stabilizer(v), ctx.sub.mask):  # <v> = b_H
            return v
    return z


def is_w_cyclic_dual(ctx: BoxContext) -> Optional[int]:
    """Index of a double coset C whose indicator generates the dual id.

    The dual algebra is abelian, so its minimal projections are exactly
    the single-coset indicators E_C; E_C generates the indicator of the
    cosets inside <H, C>, so dual w-cyclicity is Ore's H-cyclicity, and
    the first such C holds the first g with <H, g> = G.
    """
    g = is_H_cyclic(ctx)
    return None if g is None else int(ctx.coset_of[g])


# -- lattice-level predicates -------------------------------------------------


def maximal_biprojections(ctx: BoxContext) -> List[Subgroup]:
    """The K of the coatoms b_K of the biprojection lattice: the minimal
    overgroups of H, H's upper covers in ``ctx.node``, in node order."""
    lat, i = ctx.node
    return [lat.payload[j] for j in np.flatnonzero(lat.covers()[i])]


def _step_dedekind(lat: FiniteLattice, a: int, b: int) -> bool:
    """Dedekind on the step [a, b] of a biprojection lattice: b is b_inner,
    a is b_outer, and every member b_K must be normal.  Read off the
    members' subgroups: no step lattice is built."""
    subs = lat.payload
    members = np.flatnonzero(lat.leq[a] & lat.leq[:, b])
    return is_dedekind_interval(subs[b], subs[a], [subs[m] for m in members])


def is_dedekind(ctx: BoxContext) -> bool:
    """True when every biprojection is normal (b x b ~ x b x for all x),
    i.e. central, read off the fixed-point table: in the block of chi, b_K
    has rank <chi|_K, 1>, so b_K is central exactly when that rank is 0 or
    <chi|_H, 1> for every chi.  (The same as HgK = KgH for every g.)"""
    return bool(_central_nodes(_context_dims(ctx), ctx.node[1]).all())


def is_cyclic(ctx: BoxContext) -> bool:
    """Dedekind with distributive biprojection lattice."""
    return is_distributive(*ctx.node) and is_dedekind(ctx)


def w_plus_cyclic(ctx: BoxContext) -> bool:
    """True when the range of the sum of the maximal biprojections b_{K_j}
    stays strictly below id, i.e. some nonzero projection is orthogonal to
    every proper biprojection.

    Integers first: in the block of chi, of size m = <chi|_H, 1>, b_{K_j}
    has rank d_j = <chi|_{K_j}, 1>.  If sum_j d_j < m in some block, the
    range misses part of it: w+ holds.  If every block has some d_j = m, the
    range fills every block: w+ fails.  Only the pairs left between take
    the range projection."""
    (lat, i), dims = ctx.node, _context_dims(ctx)
    live = dims[:, i] > 0
    m = dims[live, i]
    d = dims[live][:, lat.covers()[i]]  # the K_j; H = G: none, and w+ holds
    if (d.sum(axis=1) < m).any():
        return True
    if (d == m[:, None]).any(axis=1).all():
        return False
    bs = [element_bK(ctx, k) for k in maximal_biprojections(ctx)]
    return not range_projection(sum(bs[1:], bs[0])).isclose(id_element(ctx))


def sum_bound(ctx: BoxContext) -> Fraction:
    """Exact sum of 1/[id : b] over maximal biprojections b.

    [id : b_K] is the index [K : H], so each term is |H|/|K|: one fraction
    |H|.sum_j [G : K_j] / |G| over H's upper covers K_j, exact since each
    |K_j| divides |G|.
    """
    lat, i = ctx.node
    index = ctx.group.order // lat.masks[lat.covers()[i]].sum(axis=1)
    return Fraction(ctx.sub.order * int(index.sum()), ctx.group.order)


def lw_rw_cyclic(ctx: BoxContext, k: Subgroup) -> Dict[str, bool]:
    """Side-cyclicity of an intermediate subgroup K.

    lw asks for a minimal projection u with <u, b_K> = id and reduces to
    w-cyclicity of the lower interval [H, K] of the biprojection lattice;
    rw asks for a minimal u with <u> = b_K and reduces to w-cyclicity of
    the upper interval [K, G].  Both hold for instance at K = H (u = e1
    settles lw) and at K = G (rw is w-cyclicity of the one-node interval).
    K is looked up among the nodes by member key; a K that is no node of
    [H, G] raises ValueError.
    """
    require_nested(ctx.sub, k)
    lat, top = _biprojections(ctx)
    node = lat.node_of.get(k.key())
    if node is None:
        raise ValueError(f"{k!r} is not a subgroup between H and G")
    return {
        "lw": _interval_w_cyclic(lat, _fixed_dims(lat, node, top), node, top),
        "rw": _interval_w_cyclic(lat, _context_dims(ctx), lat.bottom, node),
    }


# -- centrality properties ----------------------------------------------------


def _z_violation(ctx: BoxContext) -> Optional[int]:
    """Index of the first minimal central projection generating a
    non-central biprojection, or None, read off the fixed-point table (see
    is_dedekind)."""
    central = _central_nodes(_context_dims(ctx), ctx.node[1])
    bad = np.flatnonzero(~central[_block_nodes(ctx)])
    return int(bad[0]) if len(bad) else None


def property_Z(ctx: BoxContext) -> bool:
    """Every minimal central projection generates a central biprojection,
    decided on the fixed-point table (see _z_violation)."""
    return _z_violation(ctx) is None


def property_ZZ(ctx: BoxContext) -> bool:
    """Whether the coproduct of two central elements is central, on integers.

    Z(eAe) = eZ(A)e for an idempotent e, so with e = b_H and A = C[G] the
    center is spanned by the bi-H averages of the class sums, |C & D|/|D|
    on each double coset D.  The coproduct is kappa times the pointwise
    product, and a unital algebra of functions under it is the functions
    constant on the parts of a partition: the center, of dimension k (the
    blocks), is closed exactly when the rows (|C & D|/|D|)_C take k distinct
    values, and never fewer.  One bincount over G of (double coset, class
    label) gives |C & D|; |D| divides |H|^2, so rows times |H|^2 are integers."""
    n = ctx.group.order
    counts = np.bincount(ctx.coset_of * n + ctx.group.class_labels, minlength=ctx.dim * n)
    counts = counts.reshape(ctx.dim, n)
    keys = counts * (ctx.sub.order**2 // counts.sum(axis=1))[:, None]
    rows = len({row.tobytes() for row in keys})
    k = int((_context_dims(ctx)[:, ctx.node[1]] > 0).sum())
    if rows < k:
        raise BiprojectionCheckFailed("fewer distinct class-count rows than blocks")
    return rows == k


def _zz_violation(ctx: BoxContext) -> Optional[Tuple[int, int]]:
    """Pair of center-basis indices whose coproduct is not central, or None.

    Only where property_ZZ says (ZZ) fails is the orthonormal center basis
    computed, for the pair to index; a clean sweep contradicts the rule."""
    if property_ZZ(ctx):
        return None
    basis = center_basis_elements(ctx)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if not is_central(coproduct(a, b)):
                return i, j
    raise BiprojectionCheckFailed("(ZZ) fails by the class counts but holds on the center basis")


def dual_coproduct_center_basis(ctx: BoxContext) -> List[DualElement]:
    """Basis of the coproduct-center of the dual algebra.

    The linear bijection between coefficient and coset coordinates turns
    product into coproduct, so the coproduct-center of the dual algebra
    is exactly the primal matrix center carried to coset coordinates.
    """
    return [collapse_dual(ctx, x.coeffs) for x in center_basis_elements(ctx)]


def find_zz_violation_dual(
    ctx: BoxContext,
) -> Optional[Tuple[DualElement, DualElement, DualElement]]:
    """Two dual operators that are coproduct-central while their product is
    not, returned as (x, y, x.y), or None when no such pair exists.

    The search runs over pairs from a basis of the coproduct-center; the
    product is bilinear, so a clean sweep decides the property, and any
    violating pair of operators collapses to a violating basis pair.
    """
    basis = dual_coproduct_center_basis(ctx)
    for x in basis:
        if not is_dual_coproduct_central(x):
            raise TheoremViolation(
                "a primal center basis element lost coproduct-centrality "
                "in coset coordinates"
            )
    for x in basis:
        for y in basis:
            prod = mul_dual(x, y)
            if not is_dual_coproduct_central(prod):
                return x, y, prod
    return None


def _f2_violation(ctx: BoxContext) -> Optional[Tuple[int, int]]:
    """Ordered pair (i, j) of block indices with no block r such that
    <z_i, z_r> and <z_r, z_j> both dominate <z_i, z_j>, or None.

    Domination of biprojections reverses subgroup inclusion and
    <z_a, z_b> = b_{K_a & K_b}, so r serves (i, j) when K_i & K_r and
    K_r & K_j both lie in K_i & K_j, which is read off intersection orders.
    That depends on the blocks' subgroups alone, so it is decided once per
    pair of distinct subgroups and read back in block order.  The triple
    orders of a block of rows i come from one stacked product, in row
    blocks of at most _BLOCK_CELLS cells.
    """
    masks = np.array([k.mask for k in _block_subgroups(ctx)])
    packed = np.packbits(masks, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()  # each block's Subgroup.key()
    _, first, of_block = np.unique(keys, return_index=True, return_inverse=True)
    m = masks[first].astype(float)
    k, n = m.shape
    pair = m @ m.T  # |K_a & K_b|, exact in floating point
    unserved = np.empty(pair.shape, dtype=bool)
    step = max(1, _BLOCK_CELLS // (k * n))
    for start in range(0, k, step):
        rows = slice(start, start + step)
        triple = ((m[rows, None] * m).reshape(-1, n) @ m.T).reshape(-1, k, k)  # [i, r, j]
        # K_i & K_r (resp. K_r & K_j) lies in K_i & K_j iff its order is triple
        served = (triple == pair[rows, :, None]) & (triple == pair)
        unserved[rows] = ~served.any(axis=1)
    bad = unserved[of_block[:, None], of_block]
    rows = np.flatnonzero(bad.any(axis=1))
    return (int(rows[0]), int(np.argmax(bad[rows[0]]))) if rows.size else None


def property_F2(ctx: BoxContext) -> bool:
    """For all minimal central projections p, q there is a minimal central
    r with <p, r> and <r, q> both dominating <p, q>."""
    return _f2_violation(ctx) is None


def property_Z_tilde(ctx: BoxContext) -> bool:
    """(Z) holds on every interval [a, b] of the biprojection lattice with
    a < b, the full one included: one _fixed_dims(lat, a, top) serves each a."""
    lat, top = _biprojections(ctx)
    for a in np.flatnonzero(lat.leq[:, top])[1:]:  # [e1, id] but id, H's node, its first
        dims = _fixed_dims(lat, a, top)
        upper = np.flatnonzero(lat.leq[a] & lat.leq[:, top])[:-1]  # [a, top] but a, its last node
        if not all(_interval_z(lat, dims, a, b) for b in upper):
            return False
    return True


# -- chain lengths ------------------------------------------------------------

# The chain lengths that ``lengths`` and ``classify`` report by default.
DEFAULT_LENGTHS = ("cl", "wcl", "dl")


def _fold(table: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Each row of nodes, of at least one column, folded under table
    (lat.meet or lat.join), all rows at once and pairwise: log2 rounds."""
    while nodes.shape[1] > 1:
        half = nodes.shape[1] // 2
        nodes = np.hstack([table[nodes[:, :half], nodes[:, half : 2 * half]], nodes[:, 2 * half :]])
    return nodes[:, 0]


def _step_parts(lat: FiniteLattice, side: str, a: int, fresh: np.ndarray):
    """(lo, hi, k) for the steps [a, b], b in fresh: the top part [lo, b]
    (side "t") or, for a below the top, the bottom part [lo = a, hi] ("b")
    of each, and k its atoms, which are the step's atoms (coatoms, for a top
    part).  hi joins a's upper covers under b; lo meets b's lower covers
    over a, in cover lists padded with b itself.  A part is the join of its
    atoms (or dually), so it is Boolean exactly when distributive (Birkhoff:
    the join-irreducibles below a join of atoms are atoms), of rank k."""
    if side == "b":
        covers = np.flatnonzero(lat.covers()[a])
        under = lat.leq[covers][:, fresh].T  # row b: the atoms of [a, b]
        return np.full_like(fresh, a), _fold(lat.join, np.where(under, covers, a)), under.sum(1)
    lower = lat.lower_covers[fresh]
    over = lat.leq[a, lower] & (lower != fresh[:, None])  # row b: the coatoms of [a, b]
    return _fold(lat.meet, np.where(over, lower, fresh[:, None])), fresh, over.sum(axis=1)


def _shortest_chain(ctx: BoxContext, name: str) -> int:
    """Length of a shortest chain e1 = b_0 < ... < b_l = id of the
    biprojection lattice whose steps [a, b] meet the rule of ``name``, by
    breadth-first search: each popped a asks for one boolean step row over
    the unvisited b > a.  "wcl" joins a with one block node; the others ask
    the step, or for "t"/"b" its top/bottom part (see _step_parts), to be
    distributive, of rank at most k for "b<k>", and Dedekind for "c".  With
    inner N = K_b normal in outer L = K_a, [a, b] is the subgroup lattice of
    L/N, distributive exactly when L/N is cyclic (Ore), and then every
    member M is normal in L, so NgM = gM = Mg = MgN: Dedekind.  Every rule
    steps up from any a below the top (a cover is a 2-element interval, and
    the blocks join to id), so the raise marks an internal error."""
    m = re.fullmatch(r"([tb])(c|b([1-9]\d*)?)l", name)
    if m is None and name not in ("cl", "dl", "wcl"):
        raise ValueError(f"unknown chain-length name: {name!r}")
    side, kind, digits = m.groups() if m else ("", name[0], None)
    lat, top = _biprojections(ctx)
    dist = np.where(lat.leq[:, top], -1, lat.n)  # the nodes off [e1, id] count as reached
    dist[lat.bottom] = 0
    queue = deque([lat.bottom])
    while dist[top] < 0:
        if not queue:
            raise BiprojectionCheckFailed("no admissible chain reaches the top")
        a = queue.popleft()
        fresh = np.flatnonzero(lat.leq[a] & (dist < 0))
        if kind == "w":  # true at the joins of a with one block node
            row = np.zeros(lat.n, dtype=bool)
            row[lat.join[a, _block_nodes(ctx)]] = True
            row = row[fresh]
        else:  # a part has fewer than n atoms: no cap is a cap of n
            whole = (np.full_like(fresh, a), fresh, 0)
            lo, hi, k = _step_parts(lat, side, a, fresh) if side else whole
            row = lat.distributive_intervals[lo, hi] & (k <= int(digits or lat.n))
        if kind == "c":  # only an inner not normal in its outer takes double cosets
            known = ctx._cache.setdefault("step_dedekind", {})  # by part (lo, hi), for every name
            for i in np.flatnonzero(row):  # N_G(K) is built once per subgroup, when asked for
                if not lat.payload[lo[i]] <= lat.payload[hi[i]].normaliser:
                    part = (int(lo[i]), int(hi[i]))
                    if part not in known:
                        known[part] = _step_dedekind(lat, *part)
                    row[i] = known[part]
        reached = fresh[row]
        dist[reached] = dist[a] + 1
        queue.extend(reached.tolist())
    return int(dist[top])


def wcl_generators(ctx: BoxContext) -> int:
    """Minimal number of minimal central projections generating id, exactly.

    A set of blocks generates the join of their biprojections b_{K_i}, and
    a join of biprojections is an intersection of subgroups.  So the answer
    is the distance from e1 to id when one step joins the current node with
    one block node; the empty set generates e1, so H = G gives 0."""
    return _shortest_chain(ctx, "wcl")


def lengths(ctx: BoxContext, which: Tuple[str, ...] = DEFAULT_LENGTHS) -> Dict[str, int]:
    """Chain lengths by name, each the exact length of a shortest chain
    e1 < ... < id of the biprojection lattice (see _shortest_chain): "wcl"
    (see wcl_generators), "cl", "dl", "tcl", "bcl", "tbl", "bbl", and
    rank-bounded Boolean forms like "tb4l" / "bb4l"."""
    return {name: _shortest_chain(ctx, name) for name in which}


# -- the report ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """All classification predicates of one context, with witnesses.

    sum_bound and every lengths value are exact."""

    context: str
    group_order: int
    sub_order: int
    distributive: bool
    dedekind: bool
    cyclic: bool
    w_cyclic: bool
    w_plus_cyclic: bool
    Z: bool
    ZZ: bool
    F2: bool
    w_cyclic_dual: bool
    sum_bound: Fraction
    witnesses: Dict[str, object]
    lengths: Dict[str, int]

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "sum_bound": str(self.sum_bound),
            "witnesses": {k: self.witnesses[k] for k in sorted(self.witnesses)},
            "lengths": dict(self.lengths),
        }


def _coset_label(ctx: BoxContext, coset: int) -> str:
    rep = int(ctx.coset_reps[coset])
    return ctx.group.cycle_string(rep)


def classify(
    ctx: BoxContext, lengths_which: Tuple[str, ...] = DEFAULT_LENGTHS
) -> ClassificationReport:
    """Evaluate every classification predicate on one context.

    Raises TheoremViolation when the hard invariant cyclic => w-cyclic
    fails: that combination can only come from an internal error, never
    from a legitimate input.
    """
    distributive = is_distributive(*ctx.node)
    dedekind = is_dedekind(ctx)
    cyclic = distributive and dedekind
    w_block = _w_cyclic_block(ctx)
    if cyclic and w_block is None:
        raise TheoremViolation("a cyclic context came out not w-cyclic")
    dual_witness = is_w_cyclic_dual(ctx)
    z_bad = _z_violation(ctx)
    zz_bad = _zz_violation(ctx)
    f2_bad = _f2_violation(ctx)
    witnesses: Dict[str, object] = {
        "w_cyclic_block": w_block,
        "dual_coset": None if dual_witness is None else _coset_label(ctx, dual_witness),
        "z_violation_block": z_bad,
        "zz_violation_pair": None if zz_bad is None else list(zz_bad),
        "f2_violation_pair": None if f2_bad is None else list(f2_bad),
        "maximal_subgroup_orders": sorted(k.order for k in maximal_biprojections(ctx)),
    }
    return ClassificationReport(
        context=f"{ctx.group.label()} over subgroup of order {ctx.sub.order}",
        group_order=ctx.group.order,
        sub_order=ctx.sub.order,
        distributive=distributive,
        dedekind=dedekind,
        cyclic=cyclic,
        w_cyclic=w_block is not None,
        w_plus_cyclic=w_plus_cyclic(ctx),
        Z=z_bad is None,
        ZZ=zz_bad is None,
        F2=f2_bad is None,
        w_cyclic_dual=dual_witness is not None,
        sum_bound=sum_bound(ctx),
        witnesses=witnesses,
        lengths=lengths(ctx, which=lengths_which),
    )


# -- verified implications ------------------------------------------------------


@dataclass(frozen=True)
class ImplicationResult:
    """One implication instance: conclusion is None when not evaluated
    (hypothesis false and the conclusion is expensive)."""

    name: str
    hypothesis: bool
    conclusion: Optional[bool]

    @property
    def holds(self) -> bool:
        return (not self.hypothesis) or bool(self.conclusion)


def verify_theorems(ctx: BoxContext) -> List[ImplicationResult]:
    """Evaluate the implication battery on one context and return the table.

    Every row is a proved implication, so rows with hypothesis true and
    conclusion false can only arise from an internal error; callers (and
    the test suite) assert `all(r.holds for r in rows)`.
    """
    lat, top = _biprojections(ctx)
    distributive = is_distributive(*ctx.node)
    dedekind = is_dedekind(ctx)
    cyclic = distributive and dedekind
    w = _w_cyclic_block(ctx) is not None
    w_plus = w_plus_cyclic(ctx)
    bound = sum_bound(ctx)
    rank = boolean_rank(*ctx.node)
    n_maximal = len(maximal_biprojections(ctx))
    m = int(_step_parts(lat, "t", lat.bottom, np.array([top]))[0][0])  # top part [m, top]
    top_w = _interval_w_cyclic(lat, _fixed_dims(lat, m, top), m, top)
    rows = [
        ImplicationResult("cyclic-implies-w-cyclic", cyclic, w),
        ImplicationResult(
            "central-biprojections-and-distributive-imply-w-cyclic",
            dedekind and distributive,  # b_K is central iff HgK = KgH for all g
            w,
        ),
        ImplicationResult(
            "distributive-and-sum-at-most-2-imply-w-cyclic",
            distributive and bound <= 2,
            w,
        ),
        ImplicationResult("sum-at-most-1-implies-w-cyclic", bound <= 1, w),
        ImplicationResult("at-most-two-maximal-implies-w-cyclic", n_maximal <= 2, w),
        ImplicationResult(
            "boolean-rank-at-most-4-implies-w-cyclic",
            rank is not None and rank <= 4,
            w,
        ),
        ImplicationResult("top-w-cyclic-implies-w-cyclic", top_w, w),
        ImplicationResult("w-plus-implies-w-cyclic", w_plus, w),
        ImplicationResult(
            "dedekind-makes-w-plus-equal-w-cyclic", dedekind, w_plus == w
        ),
        ImplicationResult(
            "dedekind-implies-z-on-all-intervals",
            dedekind,
            property_Z_tilde(ctx) if dedekind else None,
        ),
    ]
    return rows
