"""Spectral routines that the library replaced by exact ones, kept as test
oracles.

``generate_biprojection_spectral`` is the coproduct/range-projection
closure that computed <x> before the left-translation stabilizer did.
``minimal_central_projections_spectral`` is the seeded split of a random
central element that found the blocks before the character table did.
Both can raise ``NumericRankAmbiguous`` when an eigenvalue falls inside the
ambiguity band; callers treat that as "no answer", never as a
disagreement.

``generate_biprojection_dual`` closes the support of one double-coset
indicator under the dual coproduct, the route dual w-cyclicity took before
it became Ore's H-cyclicity.  ``compress_lower``, ``compress_upper``,
``step_context`` and ``top_context`` rebuild an interval [K, L] of the
biprojection lattice as a 2-box context of its own (a fresh group, lattice
and algebra), the route the interval predicates took before they were read
off the parent lattice and the character tables of its subgroups.

``canonical_key`` is the per-element sort key of projections that one
lexsort over rounded columns replaced; the block order must not change.

``is_normal_biprojection``, ``generate_from_set``, ``central_support`` and
``center_dimension`` are 2-box routines that no library path calls; the
tests use them as oracles for the exact predicates.

``zz_blocks_central`` projects each coproduct z_i * z_j of two blocks onto
their span and compares the float residual with ``ZERO_TOL``, the route
(ZZ) took before the double-coset class counts decided it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from biprox import boxalgebra as bx
from biprox.boxalgebra import (
    BoxContext,
    BoxElement,
    DualElement,
    biprojection_lattice,
    dual_coproduct,
    element_bK,
    mul,
)
from biprox.errors import (
    BiprojectionCheckFailed,
    ContextMismatch,
    NotABiprojection,
    NotPositive,
    NumericRankAmbiguous,
)
from biprox.permgroup import (
    SPLIT_RETRIES,
    ZERO_TOL,
    FiniteGroup,
    Subgroup,
    generated_by_closure,
    is_normal_intermediate,
    require_nested,
)
from lattice_fixtures import coatoms


def canonical_key(p: BoxElement) -> tuple:
    """Trace to 10 decimals, then every coefficient as (real, imag) to 8."""
    tr = bx.trace(p).real
    pattern = tuple((round(float(c.real), 8), round(float(c.imag), 8)) for c in p.coeffs)
    return (round(tr, 10), pattern)


def generate_biprojection_spectral(x: bx.BoxElement) -> bx.Biprojection:
    """<x>: close the range of a positive x under the coproduct by support
    doubling until the rank stabilizes at a verified b_K.

    Each round replaces the accumulated positive element by its range
    projection p and continues from p * p + p + x.  Re-projecting to 0/1
    eigenvalues every round keeps all weights O(1): raw coproduct powers
    x^{*k} carry geometrically small tails (binomial tails for sums) that
    would sink into the rank ambiguity band.

    Correctness of the stop rule: the accumulated range is always <= <x>
    (induction: p <= <x> gives p * p <= <x> up to scale), and at a
    stabilization verified as b_K with R(x) <= b_K, minimality forces
    <x> <= b_K = accumulated range <= <x>.
    """
    ctx = x.context
    w = np.linalg.eigvalsh(bx._self_adjoint_regular_matrix(ctx, x.coeffs))
    scale = float(np.abs(w).max())
    if scale == 0.0:
        raise NotPositive("cannot generate from the zero element")
    if w.min() < -ZERO_TOL * 10 * scale:
        raise NotPositive("element is not positive semidefinite")

    def op_normalized(coeffs: np.ndarray) -> np.ndarray:
        ew = np.linalg.eigvalsh(bx._self_adjoint_regular_matrix(ctx, coeffs))
        mx = float(np.abs(ew).max())
        if mx == 0.0:
            raise BiprojectionCheckFailed("coproduct power collapsed to zero")
        return coeffs / mx

    v = op_normalized(x.coeffs)
    acc = v.copy()
    last_rank = -1
    steps = ctx.group.order + 4
    for _ in range(steps):
        p_vec, rank = bx._range_projection_vec(ctx, acc)
        if rank == last_rank:
            p = bx.BoxElement(ctx, p_vec)
            try:
                k = bx.is_biprojection(p)
            except NotABiprojection:
                k = None
            if k is not None and bx.mul(p, x).isclose(x, scale=max(1.0, x.norm_max())):
                return bx.Biprojection(bx.element_bK(ctx, k), k)
        last_rank = rank
        acc = op_normalized(p_vec * p_vec) + p_vec + v  # scalars dropped
    raise BiprojectionCheckFailed(f"no stable biprojection after {steps} steps in {ctx!r}")


def minimal_central_projections_spectral(
    ctx: bx.BoxContext, seed: int = 0
) -> list[bx.BoxElement]:
    """The block decomposition of the compressed algebra, canonically sorted.

    A random self-adjoint central element (plus a generic multiple of the
    identity b_H, which lifts the blocks off the structural kernel of the
    regular matrix) is split spectrally; retried on eigenvalue collisions.
    """
    center = bx._center_basis(ctx)
    z_dim = center.shape[0]
    id_vec = bx.id_element(ctx).coeffs
    for attempt in range(SPLIT_RETRIES):
        rng = np.random.default_rng([seed, attempt, ctx.group.order, ctx.sub.order])
        combo = rng.standard_normal(z_dim) + 1j * rng.standard_normal(z_dim)
        c = combo @ center
        c = (c + np.conj(c[ctx.group.inverse])) / 2  # self-adjoint
        shift = (1.5 + rng.uniform()) * (np.abs(c).sum() + 1.0)
        c = c + shift * id_vec
        try:
            clusters = bx._spectral_split(ctx, c)
        except NumericRankAmbiguous:
            clusters = None
        if clusters is None or len(clusters) != z_dim:
            continue
        projs = [bx.BoxElement(ctx, vec) for vec in clusters]
        ok = all(bx.is_projection(p) and bx.is_central(p) for p in projs)
        total = projs[0]
        for p in projs[1:]:
            total = total + p
        ok = ok and total.isclose(bx.id_element(ctx))
        if not ok:
            continue
        return bx._canonical_projection_sort(projs)
    raise NumericRankAmbiguous(
        f"could not split the center after {SPLIT_RETRIES} attempts"
    )


def _dual_generated_coset_support(ctx: BoxContext, coset: int) -> np.ndarray:
    """Coset support of the dual biprojection generated by E_coset.

    Starts from {E_coset, unit coset} and closes the 0/1 support under the
    dual coproduct.  All coefficients are nonnegative integer counts over
    kappa, so a threshold at half the minimal count separates the support
    exactly; no cancellation can hide a coset.
    """
    supp = np.zeros(ctx.dim, dtype=bool)
    supp[coset] = True
    supp[int(ctx.coset_of[ctx.group.identity_index])] = True
    cutoff = 0.5 / ctx.kappa
    for _ in range(ctx.dim + 1):
        d = DualElement(ctx, supp.astype(np.complex128))
        sq = dual_coproduct(d, d)
        new = supp | (sq.coeffs.real > cutoff)
        if (new == supp).all():
            return supp
        supp = new
    raise BiprojectionCheckFailed("dual support closure did not stabilize")


def generate_biprojection_dual(
    ctx: BoxContext, coset: int
) -> tuple[DualElement, Subgroup]:
    """<E_coset> in the dual algebra, with its supporting subgroup.

    The dual algebra is abelian with the single-coset indicators as its
    minimal projections; the biprojection generated by one is the 0/1
    indicator of the cosets of an intermediate subgroup.
    """
    if not 0 <= coset < ctx.dim:
        raise ContextMismatch(f"no double coset with index {coset}")
    supp = _dual_generated_coset_support(ctx, coset)
    k = ctx.group.subgroup_from_mask(supp[ctx.coset_of])
    if not k.is_closed():
        raise BiprojectionCheckFailed("dual support closure is not a subgroup")
    return DualElement(ctx, supp.astype(np.complex128)), k


# -- interval contexts ---------------------------------------------------------


@dataclass(frozen=True)
class Compression:
    """A context move along an intermediate subgroup, with the coefficient
    reinterpretation maps in both directions."""

    small: BoxContext
    into: Callable[[BoxElement], BoxElement]
    back: Callable[[BoxElement], BoxElement]


def compress_upper(ctx: BoxContext, k: Subgroup) -> Compression:
    """The 2-box context of [K, G]: same group, K-bi-invariant vectors.

    Coefficient vectors transfer unchanged; products agree exactly and
    coproducts agree up to the positive scalar sqrt(|K|/|H|)."""
    require_nested(ctx.sub, k)
    small = BoxContext(ctx.group, k)

    def into(x: BoxElement) -> BoxElement:
        if x.context != small:
            raise ContextMismatch("element does not live in the upper context")
        return BoxElement(ctx, x.coeffs)

    def back(x: BoxElement) -> BoxElement:
        if x.context != ctx:
            raise ContextMismatch("element does not live in the ambient context")
        bk = element_bK(ctx, k)
        if not mul(mul(bk, x), bk).isclose(x, scale=max(1.0, x.norm_max())):
            raise ContextMismatch("element is not K-bi-invariant")
        return BoxElement(small, x.coeffs)

    return Compression(small, into, back)


def compress_lower(ctx: BoxContext, k: Subgroup) -> Compression:
    """The 2-box context of [H, K]: K as its own group, H inside it.

    Vectors supported on K embed by coordinate injection; products agree
    exactly and coproducts agree up to the positive scalar sqrt(|K|/|G|),
    so biprojection generation commutes with the embedding."""
    require_nested(ctx.sub, k)
    k_group = FiniteGroup(k.perms())
    h_mask = ctx.sub.mask[k.indices]
    small = BoxContext(k_group, Subgroup(k_group, h_mask))

    def into(x: BoxElement) -> BoxElement:
        if x.context != small:
            raise ContextMismatch("element does not live in the lower context")
        big = np.zeros(ctx.group.order, dtype=np.complex128)
        big[k.indices] = x.coeffs
        return BoxElement(ctx, big)

    def back(x: BoxElement) -> BoxElement:
        if x.context != ctx:
            raise ContextMismatch("element does not live in the ambient context")
        off = np.abs(x.coeffs[~k.mask]).max() if (~k.mask).any() else 0.0
        if off > ZERO_TOL * max(1.0, x.norm_max()):
            raise ContextMismatch("element is not supported on K")
        return BoxElement(small, x.coeffs[k.indices])

    return Compression(small, into, back)


def step_context(ctx: BoxContext, outer: Subgroup, inner: Subgroup) -> BoxContext:
    """The 2-box context of the biprojection interval [b_outer, b_inner]:
    the inclusion inner <= outer as a context of its own (outer plays the
    group, inner the distinguished subgroup)."""
    require_nested(inner, outer)
    require_nested(ctx.sub, inner)
    lower = compress_lower(ctx, outer)
    small = lower.small
    inner_small = Subgroup(small.group, inner.mask[outer.indices])
    return compress_upper(small, inner_small).small


def top_context(ctx: BoxContext) -> BoxContext:
    """The top interval [meet of maximal biprojections, id]: the inclusion
    of H in the subgroup generated by the minimal overgroups of H."""
    lat = biprojection_lattice(ctx)
    overs = [lat.payload[c] for c in coatoms(lat)]  # the minimal overgroups
    if not overs:
        return ctx
    mask = np.logical_or.reduce([k.mask for k in overs])
    m = generated_by_closure(ctx.group, np.flatnonzero(mask))
    return compress_lower(ctx, m).small


def is_normal_biprojection(p: BoxElement) -> bool:
    """Normality of b_K, decided group-theoretically (HgK = KgH).

    For trivial H the decision is cross-checked numerically: b_K is normal
    iff it is central and its Fourier image is central for the dual
    coproduct; a mismatch raises instead of returning a guess.
    """
    k = bx.is_biprojection(p)
    if k is None:
        raise NotABiprojection("element is not of the form b_K")
    normal = is_normal_intermediate(p.context.sub, k, p.context.group)
    if p.context.sub.order == 1:
        numeric = bx.is_central(p) and bx.is_dual_coproduct_central(bx.fourier(p))
        if numeric != normal:
            raise BiprojectionCheckFailed(
                "group-side and numeric normality disagree for b_K"
            )
    return normal


def generate_from_set(xs: Sequence[BoxElement]) -> bx.Biprojection:
    """<S> = <sum of S> for a set of positive elements."""
    if not xs:
        raise NotPositive("cannot generate from an empty set")
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return bx.generate_biprojection(total)


def center_dimension(ctx: BoxContext) -> int:
    return bx._center_basis(ctx).shape[0]


def central_support(p: BoxElement) -> BoxElement:
    """Smallest central projection z with z.p = p."""
    ctx = p.context
    total = np.zeros(ctx.group.order, dtype=np.complex128)
    for j in range(ctx.dim):
        dj = BoxElement(ctx, ctx.basis_matrix[j])
        total += mul(mul(dj, p), bx.star(dj)).coeffs
    return bx.range_projection(BoxElement(ctx, total))


def zz_blocks_central(ctx: BoxContext) -> bool:
    """Whether every coproduct z_i * z_j of two blocks is central.

    The blocks are orthogonal, so z_i * z_j is central exactly when it
    equals its projection onto their span; one row i is tested at a time."""
    z = np.array([b.coeffs for b in bx.minimal_central_projections(ctx)])
    norms = (np.abs(z) ** 2).sum(axis=1)

    def row_central(i: int) -> bool:  # z_i * z_j for every j >= i
        w = ctx.kappa * z[i:] * z[i]
        resid = w - (w @ z.conj().T / norms) @ z
        scale = np.maximum(1.0, np.abs(w).max(axis=1))[:, None]
        return bool(np.all(np.abs(resid) <= ZERO_TOL * scale))

    return all(row_central(i) for i in range(len(z)))
