"""Seeded random-trial battery for the algebraic identities of the 2-box
calculus: coproduct unit laws, biprojection coproduct rules, trace
multiplicativity, unit compression of coproducts, star/rotation
anti-homomorphisms, Fourier-rotation relations, rotation inverses,
rotation of projections, equal-support generation, the biprojection
exchange relations, and coproduct positivity.

Each identity runs `trials` independent draws per context and reports the
maximum absolute deviation seen.  The Fourier map used here is the
general form kappa . collapse (equal to the library's trivial-subgroup
map when H = 1), built from public primitives so every context in the
battery exercises the same relations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from biprox.boxalgebra import (
    BoxContext,
    BoxElement,
    DualElement,
    biprojection_lattice,
    collapse_dual,
    contragredient,
    contragredient_dual,
    coproduct,
    dual_coproduct,
    e1,
    element_bK,
    expand_dual,
    generate_biprojection,
    id_element,
    leq_range,
    left_regular_matrix,
    minimal_central_projections,
    mul,
    mul_dual,
    random_element,
    range_projection,
    star,
    star_dual,
    trace,
)
from biprox.catalog import catalog_group, parse_subgroup_spec
from biprox.errors import NumericRankAmbiguous

CONTEXT_SPECS: Tuple[Tuple[str, str], ...] = (
    ("S3", "trivial"),
    ("S4", "trivial"),
    ("S4", "(1,2)"),
    ("Z6", "trivial"),
)

TRIALS = 1000
TOLERANCE = 1e-8


def build_context(group_name: str, subgroup_spec: str) -> BoxContext:
    group = catalog_group(group_name)
    return BoxContext(group, parse_subgroup_spec(group, subgroup_spec))


def _dev(x: BoxElement, y: BoxElement) -> float:
    return float(np.abs(x.coeffs - y.coeffs).max())


def _dev_dual(x: DualElement, y: DualElement) -> float:
    return float(np.abs(x.coeffs - y.coeffs).max())


def _draw(ctx: BoxContext, rng: np.random.Generator) -> BoxElement:
    x = random_element(ctx, rng)
    return (1.0 / max(1.0, x.norm_max())) * x


def _draw_pos(ctx: BoxContext, rng: np.random.Generator) -> BoxElement:
    x = random_element(ctx, rng, positive=True)
    return (1.0 / max(1.0, x.norm_max())) * x


def _proj(ctx: BoxContext, rng: np.random.Generator) -> BoxElement:
    return range_projection(_draw_pos(ctx, rng))


def _bip(ctx: BoxContext, rng: np.random.Generator) -> BoxElement:
    payload = biprojection_lattice(ctx).payload
    return element_bK(ctx, payload[int(rng.integers(len(payload)))])


def _sub_projection(ctx: BoxContext, rng: np.random.Generator, b: BoxElement) -> BoxElement:
    # range of b.w.b is contained in the range of b
    return range_projection(mul(mul(b, _draw_pos(ctx, rng)), b))


# general-subgroup Fourier pair: F1 (primal -> dual) and F2 (dual -> primal)
# with F2 . F1 = contragredient; for H = 1 these equal the library maps


def _F1(x: BoxElement) -> DualElement:
    return collapse_dual(x.context, x.context.kappa * x.coeffs)


def _F2(d: DualElement) -> BoxElement:
    return BoxElement(d.context, expand_dual(contragredient_dual(d)) / d.context.kappa)


def _min_eig(x: BoxElement) -> float:
    return float(np.linalg.eigvalsh(left_regular_matrix(x)).min())


# -- one trial per identity ----------------------------------------------------


def _t_coproduct_units(ctx: BoxContext, rng) -> float:
    a = _draw(ctx, rng)
    ident = id_element(ctx)
    d1 = _dev(coproduct(a, e1(ctx)), (1.0 / ctx.delta) * a)
    d2 = _dev(coproduct(a, ident), (ctx.delta * trace(a)) * ident)
    return max(d1, d2)


def _t_biprojection_coproduct(ctx: BoxContext, rng) -> float:
    b = _bip(ctx, rng)
    bp = id_element(ctx) - b
    t = trace(b).real
    d1 = _dev(coproduct(b, b), (ctx.delta * t) * b)
    d2 = max(
        _dev(coproduct(b, bp), (ctx.delta * t) * bp),
        _dev(coproduct(bp, b), (ctx.delta * t) * bp),
    )
    d3 = _dev(
        coproduct(bp, bp),
        (ctx.delta * (1.0 - t)) * b + (ctx.delta * (1.0 - 2.0 * t)) * bp,
    )
    return max(d1, d2, d3)


def _t_sub_projection_coproduct(ctx: BoxContext, rng) -> float:
    b = _bip(ctx, rng)
    p = _sub_projection(ctx, rng, b)
    bp = id_element(ctx) - b
    pp = id_element(ctx) - p
    tp = trace(p).real
    tb = trace(b).real
    d = ctx.delta
    devs = [
        _dev(coproduct(p, b), (d * tp) * b),
        _dev(coproduct(p, bp), (d * tp) * bp),
        _dev(coproduct(pp, b), (d * (tb - tp)) * b + (d * tb) * bp),
        _dev(coproduct(pp, bp), (d * (1.0 - tb)) * b + (d * (1.0 - tp - tb)) * bp),
    ]
    # corollary of the first rule: the dual support of b sits inside that of p
    fb = np.abs(expand_dual(_F1(b)))
    fp = np.abs(expand_dual(_F1(p)))
    hard = fb > 1e-6 * max(fb.max(), 1e-30)
    missing = fp[hard] < 1e-12 * max(fp.max(), 1e-30)
    devs.append(1.0 if bool(missing.any()) else 0.0)
    return max(devs)


def _t_trace_of_coproduct(ctx: BoxContext, rng) -> float:
    a1 = _draw(ctx, rng)
    a2 = _draw(ctx, rng)
    lhs = trace(coproduct(a1, a2))
    rhs = ctx.delta * trace(a1) * trace(a2)
    return float(abs(lhs - rhs))


def _t_unit_compression(ctx: BoxContext, rng) -> float:
    a1 = _draw(ctx, rng)
    a2 = _draw(ctx, rng)
    lhs = mul(e1(ctx), coproduct(a1, star(contragredient(a2))))
    val = trace(mul(star(a2), a1))  # <a1|a2>
    return _dev(lhs, (ctx.delta * val) * e1(ctx))


def _t_antihomomorphisms(ctx: BoxContext, rng) -> float:
    a = _draw(ctx, rng)
    b = _draw(ctx, rng)
    return max(
        _dev(contragredient(mul(a, b)), mul(contragredient(b), contragredient(a))),
        _dev(contragredient(coproduct(a, b)), coproduct(contragredient(b), contragredient(a))),
        _dev(star(mul(a, b)), mul(star(b), star(a))),
        _dev(star(coproduct(a, b)), coproduct(star(a), star(b))),
    )


def _t_rotation_fourier(ctx: BoxContext, rng) -> float:
    a = _draw(ctx, rng)
    devs = [
        _dev(contragredient(contragredient(a)), a),
        # rotation of the transform equals the transform of the rotation
        _dev_dual(contragredient_dual(_F1(a)), _F1(contragredient(a))),
        # ... and both are the inverse transform: applying F2 recovers a
        _dev(_F2(contragredient_dual(_F1(a))), a),
        # star exchanges the two transforms
        _dev_dual(star_dual(_F1(a)), _F1(star(contragredient(a)))),
        # round trip is the rotation
        _dev(_F2(_F1(a)), contragredient(a)),
        # the transform exchanges the two products
        _dev_dual(_F1(mul(a, a)), dual_coproduct(_F1(a), _F1(a))),
        _dev_dual(_F1(coproduct(a, a)), mul_dual(_F1(a), _F1(a))),
    ]
    return max(devs)


def _t_rotation_inverse(ctx: BoxContext, rng) -> float:
    p = _proj(ctx, rng)
    q = _proj(ctx, rng)
    e = e1(ctx)
    # unit component of p * q-bar is delta<p|q>, nonzero iff pq != 0
    lhs = mul(e, coproduct(p, contragredient(q)))
    val = trace(mul(star(q), p))
    d1 = _dev(lhs, (ctx.delta * val) * e)
    # self-pairing: e1 under p * p-bar with strictly positive weight
    self_val = trace(mul(star(p), p)).real
    d2 = 0.0 if self_val > 1e-12 else 1.0
    pq_zero = mul(p, q).norm_max() < 1e-9
    comp_zero = abs(val) < 1e-9
    d3 = 0.0 if pq_zero == comp_zero else 1.0
    return max(d1, d2, d3)


def _t_rotation_projections(ctx: BoxContext, rng) -> float:
    p = _proj(ctx, rng)
    pb = contragredient(p)
    devs = [_dev(mul(pb, pb), pb), _dev(star(pb), pb)]
    # a rotated block projection is again a block projection
    blocks = minimal_central_projections(ctx)
    z = blocks[int(rng.integers(len(blocks)))]
    zb = contragredient(z)
    devs.append(min(_dev(zb, w) for w in blocks))
    return max(devs)


def _t_equal_support_generation(ctx: BoxContext, rng) -> float:
    a = _draw_pos(ctx, rng)
    lam = float(rng.uniform(0.1, 2.0))
    b = mul(a, a) + lam * a  # same support as a, different element
    ga = generate_biprojection(a)
    gb = generate_biprojection(b)
    if ga.subgroup != gb.subgroup:
        return 1.0
    return _dev(ga.element, gb.element)


def _t_biprojection_exchange(ctx: BoxContext, rng) -> float:
    a1 = _draw(ctx, rng)
    a2 = _draw(ctx, rng)
    b = _bip(ctx, rng)
    ba2b = mul(mul(b, a2), b)
    ba1b = mul(mul(b, a1), b)
    left = coproduct(ba1b, ba2b)
    mid = mul(mul(b, coproduct(a1, ba2b)), b)
    right = mul(mul(b, coproduct(ba1b, a2)), b)
    d1 = max(_dev(left, mid), _dev(left, right))
    sa2s = coproduct(coproduct(b, a2), b)
    sa1s = coproduct(coproduct(b, a1), b)
    left2 = mul(sa1s, sa2s)
    mid2 = coproduct(coproduct(b, mul(a1, sa2s)), b)
    right2 = coproduct(coproduct(b, mul(sa1s, a2)), b)
    d2 = max(_dev(left2, mid2), _dev(left2, right2))
    return max(d1, d2)


def _t_coproduct_positivity(ctx: BoxContext, rng) -> float:
    a = _draw_pos(ctx, rng)
    b = _draw_pos(ctx, rng)
    lam = _min_eig(coproduct(a, b))
    d1 = max(0.0, -lam)
    # support monotonicity: ranges of b.w.b products stay under the factors
    c = mul(mul(a, _draw_pos(ctx, rng)), a)
    d = mul(mul(b, _draw_pos(ctx, rng)), b)
    ok = leq_range(coproduct(c, d), coproduct(a, b))
    return max(d1, 0.0 if ok else 1.0)


IDENTITIES: Dict[str, Callable[[BoxContext, np.random.Generator], float]] = {
    "coproduct-units": _t_coproduct_units,
    "biprojection-coproduct": _t_biprojection_coproduct,
    "sub-projection-coproduct": _t_sub_projection_coproduct,
    "trace-of-coproduct": _t_trace_of_coproduct,
    "unit-compression": _t_unit_compression,
    "antihomomorphisms": _t_antihomomorphisms,
    "rotation-fourier": _t_rotation_fourier,
    "rotation-inverse": _t_rotation_inverse,
    "rotation-projections": _t_rotation_projections,
    "equal-support-generation": _t_equal_support_generation,
    "biprojection-exchange": _t_biprojection_exchange,
    "coproduct-positivity": _t_coproduct_positivity,
}


def run_identity(
    name: str, ctx: BoxContext, trials: int = TRIALS, seed: int = 0
) -> float:
    """Max deviation over `trials` seeded draws of one identity.

    A draw whose spectrum falls in the rank ambiguity band is discarded and
    redrawn (the generator state advances, so the rerun differs); the number
    of discards is capped so a systematic failure still surfaces.
    """
    fn = IDENTITIES[name]
    idx = list(IDENTITIES).index(name)
    rng = np.random.default_rng([seed, idx, ctx.group.order, ctx.sub.order])
    worst = 0.0
    done = 0
    discards = 0
    while done < trials:
        try:
            worst = max(worst, fn(ctx, rng))
        except NumericRankAmbiguous:
            discards += 1
            if discards > trials // 10 + 10:
                raise
            continue
        done += 1
    return worst


def run_battery(
    trials: int = TRIALS,
    specs: Tuple[Tuple[str, str], ...] = CONTEXT_SPECS,
    seed: int = 0,
) -> Dict[Tuple[str, str], float]:
    """Max deviation for every (identity, context label) pair."""
    out: Dict[Tuple[str, str], float] = {}
    for group_name, sub_spec in specs:
        ctx = build_context(group_name, sub_spec)
        label = f"{group_name}/{sub_spec}"
        for name in IDENTITIES:
            out[(name, label)] = run_identity(name, ctx, trials=trials, seed=seed)
    return out
