"""Spectral routines that the library replaced by exact ones, kept as test
oracles.

``generate_biprojection_spectral`` is the coproduct/range-projection
closure that computed <x> before the left-translation stabilizer did.
``minimal_central_projections_spectral`` is the seeded split of a random
central element that found the blocks before the character table did.
Both can raise ``NumericRankAmbiguous`` when an eigenvalue falls inside the
ambiguity band; callers treat that as "no answer", never as a
disagreement.
"""

from __future__ import annotations

import numpy as np

from biprox import boxalgebra as bx
from biprox.errors import BiprojectionCheckFailed, NotPositive, NumericRankAmbiguous


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
    if w.min() < -ctx.tol.zero * 10 * scale:
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
            k = bx.is_biprojection(p, strict=False)
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
    for attempt in range(ctx.tol.retries):
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
        f"could not split the center after {ctx.tol.retries} attempts"
    )
