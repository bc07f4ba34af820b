"""The numerical 2-box algebra of an inclusion H <= G.

Primal side: the compressed group algebra b_H.C[G].b_H with convolution
as product, the pointwise coproduct (x * y)_g = kappa.x_g.y_g, the
normalized trace tr(x) = |H|.x_e, star, contragredient, and range
projections taken in the left-regular matrix realization.

Dual side: functions on (H,H)-double cosets with pointwise product and a
convolution-style coproduct; for trivial H the Fourier transform
identifies the two sides.

Biprojections correspond to intermediate subgroups H <= K <= G via
b_K = (1/|K|) . indicator(K); the generated-biprojection iteration
accumulates coproduct powers and takes range projections until the
result verifies as some b_K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BasisNotSpanning,
    BiprojectionCheckFailed,
    ContextMismatch,
    NotABiprojection,
    NotNested,
    NotPositive,
    NotTrivialH,
    NumericRankAmbiguous,
)
from .lattice import FiniteLattice, from_subgroups
from .permgroup import (
    FiniteGroup,
    Subgroup,
    double_cosets,
    is_normal_intermediate,
    require_nested,
)


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy: absolute zero tolerance on unit-normalized data,
    relative rank cutoff, and the ambiguity band that triggers retries."""

    zero: float = 1e-9
    rank_rel: float = 1e-8
    ambiguous_low: float = 1e-10
    ambiguous_high: float = 1e-6
    gap: float = 1e-6
    retries: int = 8


class BoxContext:
    """Immutable context for the 2-box space of H <= G."""

    def __init__(self, group: FiniteGroup, sub: Subgroup, tol: Optional[Tolerances] = None):
        if sub.parent is not group:
            raise NotNested("subgroup does not live inside the given group")
        self.group = group
        self.sub = sub
        self.tol = tol or Tolerances()
        self.delta = math.sqrt(group.order / sub.order)
        self.kappa = math.sqrt(group.order * sub.order)
        self._cache: dict = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoxContext)
            and self.group is other.group
            and self.sub == other.sub
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.sub.key()))

    def __repr__(self) -> str:
        return f"BoxContext(|G|={self.group.order}, |H|={self.sub.order})"

    # -- cached structure --------------------------------------------------

    @property
    def cosets(self) -> list[np.ndarray]:
        """(H,H)-double cosets, ordered by minimal element."""
        if "cosets" not in self._cache:
            self._cache["cosets"] = double_cosets(self.group, self.sub, self.sub)
        return self._cache["cosets"]

    @property
    def coset_reps(self) -> np.ndarray:
        if "reps" not in self._cache:
            self._cache["reps"] = np.array([int(c[0]) for c in self.cosets])
        return self._cache["reps"]

    @property
    def coset_of(self) -> np.ndarray:
        if "coset_of" not in self._cache:
            out = np.empty(self.group.order, dtype=np.int64)
            for i, c in enumerate(self.cosets):
                out[c] = i
            self._cache["coset_of"] = out
        return self._cache["coset_of"]

    @property
    def inverse_coset(self) -> np.ndarray:
        """Permutation of coset indices induced by g -> g^-1."""
        if "inv_coset" not in self._cache:
            self._cache["inv_coset"] = self.coset_of[
                self.group.inverse[self.coset_reps]
            ]
        return self._cache["inv_coset"]

    @property
    def dim(self) -> int:
        """Linear dimension of the compressed algebra."""
        return len(self.cosets)

    @property
    def basis_matrix(self) -> np.ndarray:
        """Rows: the canonical basis b_H.pi(g).b_H, one per double coset.

        Explicitly (1/|H|^2) . indicator(HgH); rows have disjoint support,
        hence are independent and span the compressed algebra.
        """
        if "basis" not in self._cache:
            d = np.zeros((self.dim, self.group.order), dtype=np.complex128)
            for i, c in enumerate(self.cosets):
                d[i, c] = 1.0 / self.sub.order**2
            d.setflags(write=False)
            self._cache["basis"] = d
        return self._cache["basis"]

    def element(self, coeffs: np.ndarray) -> "BoxElement":
        return BoxElement(self, coeffs)


@dataclass(frozen=True, eq=False)
class BoxElement:
    """An element of b_H.C[G].b_H, stored as a full coefficient vector."""

    context: BoxContext
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.context.group.order,):
            raise ContextMismatch("coefficient vector has the wrong length")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "BoxElement") -> "BoxElement":
        _same_context(self, other)
        return BoxElement(self.context, self.coeffs + other.coeffs)

    def __sub__(self, other: "BoxElement") -> "BoxElement":
        _same_context(self, other)
        return BoxElement(self.context, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "BoxElement":
        return BoxElement(self.context, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "BoxElement":
        return BoxElement(self.context, -self.coeffs)

    def norm_max(self) -> float:
        return float(np.abs(self.coeffs).max())

    def isclose(self, other: "BoxElement", scale: float = 1.0) -> bool:
        _same_context(self, other)
        atol = self.context.tol.zero * max(1.0, scale)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= atol))


@dataclass(frozen=True, eq=False)
class DualElement:
    """An element of the dual 2-box space, one coefficient per double coset."""

    context: BoxContext
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.context.dim,):
            raise ContextMismatch("dual coefficient vector has the wrong length")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "DualElement") -> "DualElement":
        _same_context(self, other)
        return DualElement(self.context, self.coeffs + other.coeffs)

    def __sub__(self, other: "DualElement") -> "DualElement":
        _same_context(self, other)
        return DualElement(self.context, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "DualElement":
        return DualElement(self.context, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Biprojection:
    """A projection identified as b_K, tagged with its subgroup."""

    element: BoxElement
    subgroup: Subgroup


def _same_context(x, y) -> None:
    if x.context != y.context:
        raise ContextMismatch("elements live in different box contexts")


# ------------------------------------------------------------- constructors


def element_pi(ctx: BoxContext, g: int) -> BoxElement:
    """The group element basis vector pi(g); defined only for trivial H."""
    if ctx.sub.order != 1:
        raise NotTrivialH("pi(g) lies in the compressed algebra only for H = {1}")
    coeffs = np.zeros(ctx.group.order, dtype=np.complex128)
    coeffs[g] = 1.0
    return BoxElement(ctx, coeffs)


def element_bK(ctx: BoxContext, k: Subgroup) -> BoxElement:
    """The biprojection b_K = (1/|K|) . indicator(K) for H <= K <= G."""
    require_nested(ctx.sub, k)
    coeffs = np.zeros(ctx.group.order, dtype=np.complex128)
    coeffs[k.indices] = 1.0 / k.order
    return BoxElement(ctx, coeffs)


def e1(ctx: BoxContext) -> BoxElement:
    """The smallest biprojection b_G."""
    return element_bK(ctx, ctx.group.full_subgroup())


def id_element(ctx: BoxContext) -> BoxElement:
    """The multiplicative identity b_H of the compressed algebra."""
    return element_bK(ctx, ctx.sub)


def random_element(
    ctx: BoxContext,
    rng: np.random.Generator,
    self_adjoint: bool = False,
    positive: bool = False,
) -> BoxElement:
    """A random element of the compressed algebra (b_H z b_H)."""
    n = ctx.group.order
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = mul(mul(id_element(ctx), BoxElement(ctx, z)), id_element(ctx))
    if positive:
        return mul(star(x), x)
    if self_adjoint:
        return BoxElement(ctx, (x.coeffs + star(x).coeffs) / 2)
    return x


# ------------------------------------------------------------ primal algebra


def mul(x: BoxElement, y: BoxElement) -> BoxElement:
    """Group-algebra convolution (x.y)_g = sum_{ab=g} x_a y_b."""
    _same_context(x, y)
    group = x.context.group
    translate = y.coeffs[group.cayley[group.inverse]]  # row a: g -> y[a^-1 g]
    return BoxElement(x.context, x.coeffs @ translate)


def star(x: BoxElement) -> BoxElement:
    """Adjoint: star(x)_g = conj(x_{g^-1})."""
    return BoxElement(x.context, np.conj(x.coeffs[x.context.group.inverse]))


def contragredient(x: BoxElement) -> BoxElement:
    """x-bar: coefficients pulled back along g -> g^-1 (no conjugation)."""
    return BoxElement(x.context, x.coeffs[x.context.group.inverse])


def trace(x: BoxElement) -> complex:
    """Normalized trace |H|.x_e, so that trace(id) = 1."""
    return complex(x.context.sub.order * x.coeffs[x.context.group.identity_index])


def inner(x: BoxElement, y: BoxElement) -> complex:
    """<x|y> = trace(star(y).x)."""
    return trace(mul(star(y), x))


def coproduct(x: BoxElement, y: BoxElement) -> BoxElement:
    """(x * y)_g = kappa . x_g . y_g with kappa = sqrt(|G|.|H|)."""
    _same_context(x, y)
    return BoxElement(x.context, x.context.kappa * x.coeffs * y.coeffs)


def in_algebra(x: BoxElement) -> bool:
    """Membership check: b_H.x.b_H = x within tolerance."""
    b = id_element(x.context)
    return mul(mul(b, x), b).isclose(x, scale=max(1.0, x.norm_max()))


def left_regular_matrix(x: BoxElement) -> np.ndarray:
    """The |G| x |G| matrix of left multiplication by x on C[G]."""
    group = x.context.group
    n = group.order
    out = np.zeros((n, n), dtype=np.complex128)
    cols = np.broadcast_to(np.arange(n), (n, n))
    # L[ab, b] = x_a; all n^2 targets are distinct, plain assignment works.
    out[group.cayley, cols] = np.broadcast_to(x.coeffs[:, None], (n, n))
    return out


# ---------------------------------------------------------------- dual side


def dual_basis_element(ctx: BoxContext, index: int) -> DualElement:
    coeffs = np.zeros(ctx.dim, dtype=np.complex128)
    coeffs[index] = 1.0
    return DualElement(ctx, coeffs)


def expand_dual(d: DualElement) -> np.ndarray:
    """The function on G that is constant on each double coset."""
    return d.coeffs[d.context.coset_of]


def collapse_dual(ctx: BoxContext, vec: np.ndarray) -> DualElement:
    """Inverse of expand_dual; the input must be coset-constant."""
    vec = np.asarray(vec, dtype=np.complex128)
    coeffs = vec[ctx.coset_reps]
    back = coeffs[ctx.coset_of]
    if np.abs(back - vec).max() > ctx.tol.zero * max(1.0, np.abs(vec).max()):
        raise ContextMismatch("vector is not constant on double cosets")
    return DualElement(ctx, coeffs)


def mul_dual(d1: DualElement, d2: DualElement) -> DualElement:
    """Pointwise product of coset functions (the dual algebra product)."""
    _same_context(d1, d2)
    return DualElement(d1.context, d1.coeffs * d2.coeffs)


def star_dual(d: DualElement) -> DualElement:
    """Adjoint for the pointwise dual product: plain conjugation.

    d* . d has coefficients |d_C|^2 >= 0, so this star makes the coset
    functions a genuine C*-algebra; the single-coset indicators E_C are
    then its minimal projections.
    """
    return DualElement(d.context, np.conj(d.coeffs))


def contragredient_dual(d: DualElement) -> DualElement:
    """Rotation on coset labels: C -> C^-1.

    Composed with star_dual this gives the primal adjoint transported to
    dual coordinates: expand(contragredient_dual(star_dual(d))) equals
    star(expand(d)) as a function on the group.
    """
    return DualElement(d.context, d.coeffs[d.context.inverse_coset])


def dual_coproduct(d1: DualElement, d2: DualElement) -> DualElement:
    """Convolution of the expanded functions, scaled by 1/kappa.

    On indicator sums E_C = sum_{g in C} e_g this reproduces
    E_{C1} * E_{C2} = kappa^-1 sum_g #{(a,b) in C1 x C2 : ab = g} e_g,
    which specializes to e_g * e_h = |G|^(-1/2) e_{gh} for trivial H.
    """
    _same_context(d1, d2)
    ctx = d1.context
    group = ctx.group
    a = expand_dual(d1)
    b = expand_dual(d2)
    conv = a @ b[group.cayley[group.inverse]]
    return DualElement(ctx, conv[ctx.coset_reps] / ctx.kappa)


def dual_unit(ctx: BoxContext) -> DualElement:
    """The unit of the dual coproduct: delta . E_{HeH}."""
    coeffs = np.zeros(ctx.dim, dtype=np.complex128)
    identity_coset = int(ctx.coset_of[ctx.group.identity_index])
    coeffs[identity_coset] = ctx.delta
    return DualElement(ctx, coeffs)


def is_dual_coproduct_central(d: DualElement) -> bool:
    """Whether d commutes with every basis coset under the dual coproduct."""
    ctx = d.context
    scale = max(1.0, float(np.abs(d.coeffs).max()))
    for c in range(ctx.dim):
        e_c = dual_basis_element(ctx, c)
        left = dual_coproduct(d, e_c)
        right = dual_coproduct(e_c, d)
        if np.abs(left.coeffs - right.coeffs).max() > ctx.tol.zero * scale:
            return False
    return True


def fourier(x: BoxElement) -> DualElement:
    """F(pi(g)) = delta . e_g, linearly; trivial H only."""
    if x.context.sub.order != 1:
        raise NotTrivialH("the Fourier map is implemented for H = {1}")
    return DualElement(x.context, x.context.delta * x.coeffs)


def fourier_inv(d: DualElement) -> BoxElement:
    if d.context.sub.order != 1:
        raise NotTrivialH("the Fourier map is implemented for H = {1}")
    return BoxElement(d.context, d.coeffs / d.context.delta)


def fourier_dual(d: DualElement) -> BoxElement:
    """The Fourier map on the dual side, chosen so that F.F = contragredient."""
    if d.context.sub.order != 1:
        raise NotTrivialH("the Fourier map is implemented for H = {1}")
    return BoxElement(d.context, d.coeffs[d.context.inverse_coset] / d.context.delta)


# ----------------------------------------------------------- range structure


def _hermitian_eigens(ctx: BoxContext, coeffs: np.ndarray):
    lmat = left_regular_matrix(BoxElement(ctx, coeffs))
    herm = np.abs(lmat - lmat.conj().T).max()
    if herm > ctx.tol.zero * max(1.0, np.abs(coeffs).max()):
        raise NotPositive("element is not self-adjoint")
    return np.linalg.eigh(lmat)


def _range_projection_vec(ctx: BoxContext, coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """Range projection coefficients and rank for a PSD coefficient vector."""
    w, v = _hermitian_eigens(ctx, coeffs)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return np.zeros_like(coeffs), 0
    rel = w / scale
    if rel.min() < -ctx.tol.zero * 10:
        raise NotPositive(f"negative eigenvalue {w.min():.3e} (scale {scale:.3e})")
    band = (np.abs(rel) > ctx.tol.ambiguous_low) & (np.abs(rel) < ctx.tol.ambiguous_high)
    if np.any(band):
        raise NumericRankAmbiguous(
            "eigenvalue inside the ambiguity band; rank cannot be trusted"
        )
    keep = rel > ctx.tol.rank_rel
    vp = v[:, keep]
    proj = vp @ vp.conj().T
    return proj[:, ctx.group.identity_index].copy(), int(keep.sum())


def range_projection(x: BoxElement) -> BoxElement:
    """Spectral projection onto the strictly positive eigenspace of L(x)."""
    vec, _ = _range_projection_vec(x.context, x.coeffs)
    return BoxElement(x.context, vec)


def is_projection(x: BoxElement) -> bool:
    scale = max(1.0, x.norm_max())
    return mul(x, x).isclose(x, scale=scale) and star(x).isclose(x, scale=scale)


def leq_projection(p: BoxElement, q: BoxElement) -> bool:
    """p <= q for projections, i.e. q.p = p."""
    return mul(q, p).isclose(p, scale=max(1.0, p.norm_max()))


def leq_range(x: BoxElement, y: BoxElement) -> bool:
    """The range order: R(x) <= R(y)."""
    return leq_projection(range_projection(x), range_projection(y))


# ------------------------------------------------------------- biprojections


def is_biprojection(p: BoxElement, strict: bool = True) -> Optional[Subgroup]:
    """Identify p as b_K by support and coefficient pattern, or None.

    Raises NotABiprojection if p is not even a projection (strict mode).
    """
    ctx = p.context
    if not is_projection(p):
        if strict:
            raise NotABiprojection("input is not a projection")
        return None
    scale = max(p.norm_max(), 1.0 / ctx.group.order)
    support = np.abs(p.coeffs) > ctx.tol.zero * max(1.0, scale) * 10
    if not support.any():
        return None
    k = ctx.group.subgroup_from_mask(support)
    if not k.is_closed() or not (ctx.sub <= k):
        return None
    expected = np.zeros(ctx.group.order, dtype=np.complex128)
    expected[k.indices] = 1.0 / k.order
    if np.abs(p.coeffs - expected).max() > ctx.tol.zero * 10:
        return None
    if not contragredient(p).isclose(p):
        return None
    return k


def is_normal_biprojection(p: BoxElement) -> bool:
    """Normality of b_K, decided group-theoretically (HgK = KgH).

    For trivial H the decision is cross-checked numerically: b_K is normal
    iff it is central and its Fourier image is central for the dual
    coproduct; a mismatch raises instead of returning a guess.
    """
    k = is_biprojection(p)
    if k is None:
        raise NotABiprojection("element is not of the form b_K")
    normal = is_normal_intermediate(p.context.sub, k, p.context.group)
    if p.context.sub.order == 1:
        numeric = is_central(p) and is_dual_coproduct_central(fourier(p))
        if numeric != normal:
            raise BiprojectionCheckFailed(
                "group-side and numeric normality disagree for b_K"
            )
    return normal


def biprojection_lattice(ctx: BoxContext) -> FiniteLattice:
    """Lattice of biprojections: the subgroup interval [H,G], order-reversed
    (b_K <= b_L iff L <= K); payload pairs (Subgroup, BoxElement)."""
    if "biplattice" not in ctx._cache:
        lat = from_subgroups(ctx.group, ctx.sub).reverse()
        payload = tuple((k, element_bK(ctx, k)) for k in lat.payload)
        ctx._cache["biplattice"] = FiniteLattice(
            lat.n, lat.leq, lat.meet, lat.join, lat.bottom, lat.top, lat.labels, payload
        )
    return ctx._cache["biplattice"]


def generate_biprojection(x: BoxElement, max_steps: Optional[int] = None) -> Biprojection:
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
    # positivity check on the original element
    w, _ = _hermitian_eigens(ctx, x.coeffs)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        raise NotPositive("cannot generate from the zero element")
    if w.min() < -ctx.tol.zero * 10 * scale:
        raise NotPositive("element is not positive semidefinite")
    def op_normalized(coeffs: np.ndarray) -> np.ndarray:
        ew, _ = _hermitian_eigens(ctx, coeffs)
        mx = float(np.abs(ew).max())
        if mx == 0.0:
            raise BiprojectionCheckFailed("coproduct power collapsed to zero")
        return coeffs / mx

    v = op_normalized(x.coeffs)
    acc = v.copy()
    last_rank = -1
    steps = max_steps or (ctx.group.order + 4)
    for _ in range(steps):
        p_vec, rank = _range_projection_vec(ctx, acc)
        if rank == last_rank:
            p = BoxElement(ctx, p_vec)
            k = is_biprojection(p, strict=False)
            if k is not None and mul(p, x).isclose(x, scale=max(1.0, x.norm_max())):
                return Biprojection(element_bK(ctx, k), k)
        last_rank = rank
        acc = op_normalized(p_vec * p_vec) + p_vec + v  # scalars dropped
    raise BiprojectionCheckFailed(
        f"no stable biprojection after {steps} steps in {ctx!r}"
    )


def generate_from_set(xs: Sequence[BoxElement]) -> Biprojection:
    """<S> = <sum of S> for a set of positive elements."""
    if not xs:
        raise NotPositive("cannot generate from an empty set")
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return generate_biprojection(total)


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


# ------------------------------------------------------ center and minimality


def _center_basis(ctx: BoxContext) -> np.ndarray:
    """Orthonormal coefficient basis (rows) of the center, via the
    commutant linear system against the spanning double-coset basis."""
    if "center" in ctx._cache:
        return ctx._cache["center"]
    d = ctx.basis_matrix
    m = ctx.dim
    n = ctx.group.order
    group = ctx.group
    # products[i, j] = d_i . d_j as coefficient vectors
    products = np.zeros((m, m, n), dtype=np.complex128)
    for j in range(m):
        translate = d[j][group.cayley[group.inverse]]
        products[:, j, :] = d @ translate
    commutators = products - products.transpose(1, 0, 2)  # [d_i, d_j]
    # x = sum_i c_i d_i is central iff sum_i c_i [d_i, d_j] = 0 for all j
    system = commutators.transpose(1, 2, 0).reshape(m * n, m)
    # reduced SVD: the full left factor would be (m n) x (m n)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    smax = s.max() if s.size else 1.0
    null = s <= ctx.tol.zero * max(1.0, smax) * 10
    center = vh[null] @ d
    ctx._cache["center"] = center
    return center


def center_dimension(ctx: BoxContext) -> int:
    return _center_basis(ctx).shape[0]


def center_basis_elements(ctx: BoxContext) -> list[BoxElement]:
    """The computed orthonormal center basis, as algebra elements."""
    return [BoxElement(ctx, row) for row in _center_basis(ctx)]


def is_central(x: BoxElement) -> bool:
    """Whether x commutes with the whole compressed algebra."""
    ctx = x.context
    scale = max(1.0, x.norm_max())
    for j in range(ctx.dim):
        dj = BoxElement(ctx, ctx.basis_matrix[j])
        if not mul(x, dj).isclose(mul(dj, x), scale=scale):
            return False
    return True


def is_minimal(p: BoxElement) -> bool:
    """Minimality of a projection: dim(p.A.p) = 1."""
    ctx = p.context
    if not is_projection(p) or p.norm_max() <= ctx.tol.zero:
        return False
    rows = []
    for j in range(ctx.dim):
        dj = BoxElement(ctx, ctx.basis_matrix[j])
        rows.append(mul(mul(p, dj), p).coeffs)
    mat = np.array(rows)
    s = np.linalg.svd(mat, compute_uv=False)
    smax = s.max()
    rel = s / smax
    band = (rel > ctx.tol.ambiguous_low) & (rel < ctx.tol.ambiguous_high)
    if np.any(band):
        raise NumericRankAmbiguous("singular value in the ambiguity band")
    return int((rel > ctx.tol.ambiguous_high).sum()) == 1


def central_support(p: BoxElement) -> BoxElement:
    """Smallest central projection z with z.p = p."""
    ctx = p.context
    total = np.zeros(ctx.group.order, dtype=np.complex128)
    for j in range(ctx.dim):
        dj = BoxElement(ctx, ctx.basis_matrix[j])
        total += mul(mul(dj, p), star(dj)).coeffs
    return range_projection(BoxElement(ctx, total))


def _spectral_split(
    ctx: BoxContext, coeffs: np.ndarray, expected: Optional[int]
) -> Optional[list[np.ndarray]]:
    """Split a self-adjoint element into spectral projections by eigenvalue
    clustering; None if the nonzero cluster count mismatches ``expected``."""
    w, v = _hermitian_eigens(ctx, coeffs)
    scale = max(float(np.abs(w).max()), 1.0)
    order = np.argsort(w)
    w_sorted = w[order]
    v_sorted = v[:, order]
    boundaries = [0]
    for i in range(1, len(w_sorted)):
        if w_sorted[i] - w_sorted[i - 1] > ctx.tol.gap * scale:
            boundaries.append(i)
    boundaries.append(len(w_sorted))
    clusters = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        mean = float(np.mean(w_sorted[a:b]))
        if abs(mean) <= ctx.tol.gap * scale:
            continue  # structural kernel
        block = v_sorted[:, a:b]
        proj = block @ block.conj().T
        clusters.append(proj[:, ctx.group.identity_index].copy())
    if expected is not None and len(clusters) != expected:
        return None
    return clusters


def _canonical_projection_sort(projs: list[BoxElement]) -> list[BoxElement]:
    def key(p: BoxElement):
        tr = trace(p).real
        pattern = tuple(
            (round(float(c.real), 8), round(float(c.imag), 8)) for c in p.coeffs
        )
        return (round(tr, 10), pattern)

    return sorted(projs, key=key)


def minimal_central_projections(ctx: BoxContext, seed: int = 0) -> list[BoxElement]:
    """The block decomposition of the compressed algebra, canonically sorted.

    A random self-adjoint central element (plus a generic multiple of the
    identity b_H, which lifts the blocks off the structural kernel of the
    regular matrix) is split spectrally; retried on eigenvalue collisions.
    """
    cache_key = ("mcp", seed)
    if cache_key in ctx._cache:
        return ctx._cache[cache_key]
    center = _center_basis(ctx)
    z_dim = center.shape[0]
    id_vec = id_element(ctx).coeffs
    for attempt in range(ctx.tol.retries):
        rng = np.random.default_rng([seed, attempt, ctx.group.order, ctx.sub.order])
        combo = rng.standard_normal(z_dim) + 1j * rng.standard_normal(z_dim)
        c = combo @ center
        c = (c + np.conj(c[ctx.group.inverse])) / 2  # self-adjoint
        shift = (1.5 + rng.uniform()) * (np.abs(c).sum() + 1.0)
        c = c + shift * id_vec
        try:
            clusters = _spectral_split(ctx, c, expected=z_dim)
        except NumericRankAmbiguous:
            clusters = None
        if clusters is None:
            continue
        projs = [BoxElement(ctx, vec) for vec in clusters]
        ok = all(is_projection(p) and is_central(p) for p in projs)
        total = projs[0]
        for p in projs[1:]:
            total = total + p
        ok = ok and total.isclose(id_element(ctx))
        if not ok:
            continue
        result = _canonical_projection_sort(projs)
        ctx._cache[cache_key] = result
        return result
    raise NumericRankAmbiguous(
        f"could not split the center after {ctx.tol.retries} attempts"
    )


def minimal_projections_under(
    p: BoxElement, seed: int = 0
) -> list[BoxElement]:
    """A maximal family of orthogonal minimal projections below a minimal
    central projection p (spectral split of a random element of p.A.p)."""
    ctx = p.context
    for attempt in range(ctx.tol.retries):
        rng = np.random.default_rng([seed, attempt, 7, ctx.group.order])
        y = random_element(ctx, rng, self_adjoint=True)
        compressed = mul(mul(p, y), p)
        compressed = BoxElement(
            ctx, compressed.coeffs + 2.0 * np.abs(compressed.coeffs).sum() * p.coeffs
        )
        try:
            clusters = _spectral_split(ctx, compressed.coeffs, expected=None)
        except (NumericRankAmbiguous, NotPositive):
            continue
        if clusters is None:
            continue
        projs = [BoxElement(ctx, vec) for vec in clusters]
        try:
            if all(is_projection(q) and is_minimal(q) for q in projs):
                total = projs[0]
                for q in projs[1:]:
                    total = total + q
                if total.isclose(p):
                    return _canonical_projection_sort(projs)
        except NumericRankAmbiguous:
            continue
    raise NumericRankAmbiguous(
        f"could not split {p!r} into minimal projections"
    )


# ------------------------------------------------------------ tables, output


@dataclass(frozen=True)
class CoproductTable:
    """Structure constants of the coproduct in a given basis.

    entries[i, j, :] are the coefficients of basis[i] * basis[j], already
    multiplied by ``scale`` (the display convention: scale = delta)."""

    labels: tuple[str, ...]
    scale: float
    entries: np.ndarray

    def as_text(self) -> str:
        cells = []
        for i in range(len(self.labels)):
            row = []
            for j in range(len(self.labels)):
                row.append(format_combination(self.entries[i, j], self.labels))
            cells.append(row)
        widths = [
            max(len(self.labels[j]), max(len(cells[i][j]) for i in range(len(cells))))
            for j in range(len(self.labels))
        ]
        head_w = max(len(lbl) for lbl in self.labels)
        lines = [
            " " * head_w
            + " | "
            + " | ".join(lbl.rjust(widths[j]) for j, lbl in enumerate(self.labels))
        ]
        lines.append("-" * len(lines[0]))
        for i, lbl in enumerate(self.labels):
            lines.append(
                lbl.rjust(head_w)
                + " | "
                + " | ".join(cells[i][j].rjust(widths[j]) for j in range(len(cells[i])))
            )
        return "\n".join(lines) + "\n"

    def as_json_dict(self) -> dict:
        def serialize(z: complex) -> list[float]:
            return [float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")]

        return {
            "basis": list(self.labels),
            "scale": float(f"{self.scale:.12g}"),
            "entries": [
                [[serialize(z) for z in self.entries[i, j]] for j in range(len(self.labels))]
                for i in range(len(self.labels))
            ],
        }


def format_combination(coeffs: np.ndarray, labels: Sequence[str]) -> str:
    """Human-readable linear combination, e.g. '2e22' or 'e1 - e2'."""
    parts = []
    for c, lbl in zip(coeffs, labels):
        if abs(c) < 1e-9:
            continue
        if abs(c.imag) < 1e-9:
            r = c.real
            if abs(r - round(r)) < 1e-9:
                r = round(r)
                mag = abs(r)
                body = lbl if mag == 1 else f"{mag:g}{lbl}"
            else:
                body = f"{abs(r):.6g}{lbl}"
            sign = "-" if r < 0 else "+"
        else:
            body = f"({c.real:.6g}{c.imag:+.6g}i){lbl}"
            sign = "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def coproduct_table(
    ctx: BoxContext,
    basis: Sequence[Union[BoxElement, DualElement]],
    labels: Optional[Sequence[str]] = None,
) -> CoproductTable:
    """Multiplication table of * in the given (primal or dual) basis,
    displayed with the paper-style scaling by delta."""
    if not basis:
        raise BasisNotSpanning("empty basis")
    dual = isinstance(basis[0], DualElement)
    for b in basis:
        if isinstance(b, DualElement) != dual:
            raise BasisNotSpanning("mixed primal and dual basis")
        _same_context(b, basis[0])
    if basis[0].context != ctx:
        raise ContextMismatch("basis does not belong to the given context")
    vectors = np.array([b.coeffs for b in basis])
    m = len(basis)
    needed = ctx.dim
    if m != needed or np.linalg.matrix_rank(vectors, tol=1e-9) < needed:
        raise BasisNotSpanning(
            f"basis of size {m} does not span the {needed}-dimensional algebra"
        )
    product: Callable = dual_coproduct if dual else coproduct
    if labels is None:
        labels = [f"v{i + 1}" for i in range(m)]
    entries = np.zeros((m, m, m), dtype=np.complex128)
    pinv = np.linalg.pinv(vectors.T)
    for i in range(m):
        for j in range(m):
            w = product(basis[i], basis[j]).coeffs
            sol = pinv @ w
            resid = np.abs(vectors.T @ sol - w).max()
            if resid > ctx.tol.zero * max(1.0, np.abs(w).max()) * 100:
                raise BasisNotSpanning("a product does not lie in the basis span")
            entries[i, j] = sol * ctx.delta
    entries.setflags(write=False)
    return CoproductTable(tuple(labels), ctx.delta, entries)


# --------------------------------------------------------------- compressions


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
    small = BoxContext(ctx.group, k, ctx.tol)

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
    k_group = k.as_group()
    h_mask = ctx.sub.mask[k.indices]
    small = BoxContext(k_group, Subgroup(k_group, h_mask), ctx.tol)

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
        if off > ctx.tol.zero * max(1.0, x.norm_max()):
            raise ContextMismatch("element is not supported on K")
        return BoxElement(small, x.coeffs[k.indices])

    return Compression(small, into, back)
