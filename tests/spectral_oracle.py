"""Spectral routines that the library replaced by exact ones, kept as test
oracles.

``generate_biprojection_spectral`` is the coproduct/range-projection
closure that computed <x> before the left-translation stabilizer did. It
can raise ``NumericRankAmbiguous`` when an eigenvalue of an accumulated
element falls inside the ambiguity band; callers treat that as "no
answer", never as a disagreement.
"""

from __future__ import annotations

import numpy as np

from biprox import boxalgebra as bx
from biprox.errors import BiprojectionCheckFailed, NotPositive


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
