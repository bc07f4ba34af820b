"""The numerical 2-box algebra of an inclusion H <= G.

Primal side: the compressed group algebra b_H.C[G].b_H with convolution
as product, the pointwise coproduct (x * y)_g = kappa.x_g.y_g, the
normalized trace tr(x) = |H|.x_e, star, contragredient, and range
projections taken in the left-regular matrix realization.

Dual side: functions on (H,H)-double cosets with pointwise product and a
convolution-style coproduct; for trivial H the Fourier transform
identifies the two sides.

Biprojections correspond to intermediate subgroups H <= K <= G via
b_K = (1/|K|) . indicator(K). Left convolution by b_K is the orthogonal
projection onto the left-K-invariant functions, so the biprojection
generated by a positive x is b_K for K its left-translation stabilizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .lattice import FiniteLattice, subgroup_node
from .permgroup import (
    AMBIGUOUS_BAND,
    SPLIT_RETRIES,
    ZERO_TOL,
    FiniteGroup,
    Subgroup,
    double_coset_labels,
    require_nested,
)


class BoxContext:
    """An inclusion H <= G, the one object that every figure and predicate
    reads: the nesting check, ``index``, ``node`` (H's node in the subgroup
    lattice) and the caches of the 2-box algebra built on it."""

    def __init__(self, group: FiniteGroup, sub: Subgroup):
        if sub.parent is not group:
            raise NotNested("subgroup does not live inside the given group")
        self.group = group
        self.sub = sub
        self.delta = math.sqrt(group.order / sub.order)
        self.kappa = math.sqrt(group.order * sub.order)
        self._cache: dict = {}

    @property
    def index(self) -> int:
        return self.group.order // self.sub.order

    @cached_property
    def node(self) -> tuple[FiniteLattice, int]:
        """``subgroup_node``: every figure and predicate of [H, G] reads it."""
        return subgroup_node(self.group, self.sub)

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

    def _double_cosets(self) -> tuple[np.ndarray, np.ndarray]:
        """The least element of each (H,H)-double coset, increasing, and the
        coset index of every element."""
        if "cosets" not in self._cache:
            labels = double_coset_labels(self.sub, self.sub)
            self._cache["cosets"] = np.unique(labels, return_inverse=True)
        return self._cache["cosets"]

    @property
    def coset_reps(self) -> np.ndarray:
        return self._double_cosets()[0]

    @property
    def coset_of(self) -> np.ndarray:
        return self._double_cosets()[1]

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
        return len(self.coset_reps)

    @property
    def basis_matrix(self) -> np.ndarray:
        """Rows: the canonical basis b_H.pi(g).b_H, one per double coset.

        Explicitly (1/|H|^2) . indicator(HgH); rows have disjoint support,
        hence are independent and span the compressed algebra.
        """
        if "basis" not in self._cache:
            d = np.zeros((self.dim, self.group.order), dtype=np.complex128)
            d[self.coset_of, np.arange(self.group.order)] = 1.0 / self.sub.order**2
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
        atol = ZERO_TOL * max(1.0, scale)
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
    if x.context is not y.context and x.context != y.context:
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
    return BoxElement(x.context, x.coeffs @ _left_translates(x.context.group, y.coeffs))


def _left_translates(group: FiniteGroup, f: np.ndarray) -> np.ndarray:
    """Row a: the function g -> f[a^-1 g], so that r.f = r @ (this)."""
    return f[group.cayley[group.inverse]]


def _commutators(group: FiniteGroup, rows: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row i: the convolution commutator rows[i].f - f.rows[i], all at once.

    f.r = r @ R with R[b, g] = f[g b^-1], the right translates of f."""
    right = f[group.cayley[:, group.inverse].T]
    return rows @ (_left_translates(group, f) - right)


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
    if np.abs(back - vec).max() > ZERO_TOL * max(1.0, np.abs(vec).max()):
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
    """Whether d commutes with every basis coset under the dual coproduct,
    a convolution: all commutators with the indicators E_c in one product."""
    ctx = d.context
    scale = max(1.0, float(np.abs(d.coeffs).max()))
    indicators = (ctx.coset_of == np.arange(ctx.dim)[:, None]).astype(np.complex128)
    comm = _commutators(ctx.group, indicators, expand_dual(d))[:, ctx.coset_reps]
    return bool(np.all(np.abs(comm) / ctx.kappa <= ZERO_TOL * scale))


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


def _self_adjoint_regular_matrix(ctx: BoxContext, coeffs: np.ndarray) -> np.ndarray:
    lmat = left_regular_matrix(BoxElement(ctx, coeffs))
    herm = np.abs(lmat - lmat.conj().T).max()
    if herm > ZERO_TOL * max(1.0, np.abs(coeffs).max()):
        raise NotPositive("element is not self-adjoint")
    return lmat


def _range_projection_vec(ctx: BoxContext, coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """Range projection coefficients and rank for a PSD coefficient vector."""
    w, v = np.linalg.eigh(_self_adjoint_regular_matrix(ctx, coeffs))
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return np.zeros_like(coeffs), 0
    rel = w / scale
    if rel.min() < -ZERO_TOL * 10:
        raise NotPositive(f"negative eigenvalue {w.min():.3e} (scale {scale:.3e})")
    band = (np.abs(rel) > AMBIGUOUS_BAND[0]) & (np.abs(rel) < AMBIGUOUS_BAND[1])
    if np.any(band):
        raise NumericRankAmbiguous(
            "eigenvalue inside the ambiguity band; rank cannot be trusted"
        )
    keep = rel > AMBIGUOUS_BAND[0]
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


def is_biprojection(p: BoxElement) -> Optional[Subgroup]:
    """Identify p as b_K by support and coefficient pattern, or None.

    Raises NotABiprojection if p is not even a projection.
    """
    ctx = p.context
    if not is_projection(p):
        raise NotABiprojection("input is not a projection")
    scale = max(p.norm_max(), 1.0 / ctx.group.order)
    support = np.abs(p.coeffs) > ZERO_TOL * max(1.0, scale) * 10
    if not support.any():
        return None
    k = ctx.group.subgroup_from_mask(support)
    if not k.is_closed() or not (ctx.sub <= k):
        return None
    expected = np.zeros(ctx.group.order, dtype=np.complex128)
    expected[k.indices] = 1.0 / k.order
    if np.abs(p.coeffs - expected).max() > ZERO_TOL * 10:
        return None
    if not contragredient(p).isclose(p):
        return None
    return k


def biprojection_lattice(ctx: BoxContext) -> FiniteLattice:
    """[H, G] order-reversed (b_K <= b_L iff L <= K) as a lattice of its own,
    with the members' labels and Subgroup payload; b_K is ``element_bK(ctx,
    K)``.  The reverse() view of ``ctx.node``'s lattice when H is its bottom,
    else built once per context by ``from_order``.  No predicate calls it."""
    lat, i = ctx.node
    if i == lat.bottom:
        return lat.reverse()
    if "biplattice" not in ctx._cache:
        members = np.flatnonzero(lat.leq[i])
        ctx._cache["biplattice"] = FiniteLattice.from_order(
            lat.leq[np.ix_(members, members)].T,
            [lat.labels[m] for m in members],
            tuple(lat.payload[m] for m in members),
        )
    return ctx._cache["biplattice"]


def left_stabilizer(x: BoxElement) -> np.ndarray:
    """Mask of the k with x(k^-1 g) = x(g) for every g, entrywise at the
    ``isclose`` tolerance: one gather of all left translates of x."""
    atol = ZERO_TOL * max(1.0, x.norm_max())
    translated = _left_translates(x.context.group, x.coeffs)
    return np.all(np.abs(translated - x.coeffs) <= atol, axis=1)


def generate_biprojection(x: BoxElement) -> Biprojection:
    """<x>, the smallest biprojection b_K with R(x) <= b_K, for positive x.

    Left convolution by b_K is the orthogonal projection onto the
    left-K-invariant functions on G, so R(x) <= b_K holds exactly when
    b_K.x = x, that is when x(k^-1 g) = x(g) for all k in K and g in G.
    Those K are the subgroups of Stab(x), the left-translation stabilizer,
    and b_K shrinks as K grows; hence <x> = b_{Stab(x)}.

    The only spectral step is the positivity check on x. The stabilizer is
    taken on x scaled to operator norm 1, where every coefficient is at
    most 1, so the comparison runs at the plain ``ZERO_TOL`` scale.
    """
    ctx = x.context
    w = np.linalg.eigvalsh(_self_adjoint_regular_matrix(ctx, x.coeffs))
    scale = float(np.abs(w).max())
    if scale == 0.0:
        raise NotPositive("cannot generate from the zero element")
    if w.min() < -ZERO_TOL * 10 * scale:
        raise NotPositive("element is not positive semidefinite")
    mask = left_stabilizer(x * (1.0 / scale))
    members = np.flatnonzero(mask)
    if not mask[ctx.group.cayley[np.ix_(members, members)]].all():
        raise BiprojectionCheckFailed("translation stabilizer is not a subgroup")
    k = ctx.group.subgroup_from_mask(mask)
    if not ctx.sub <= k:
        raise BiprojectionCheckFailed("translation stabilizer does not contain H")
    bk = element_bK(ctx, k)
    if not mul(bk, x).isclose(x, scale=max(1.0, x.norm_max())):
        raise BiprojectionCheckFailed(f"b_K.x != x for the stabilizer K in {ctx!r}")
    return Biprojection(bk, k)


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
    null = s <= ZERO_TOL * max(1.0, smax) * 10
    center = vh[null] @ d
    ctx._cache["center"] = center
    return center


def center_basis_elements(ctx: BoxContext) -> list[BoxElement]:
    """The computed orthonormal center basis, as algebra elements."""
    return [BoxElement(ctx, row) for row in _center_basis(ctx)]


def is_central(x: BoxElement) -> bool:
    """Whether x commutes with the whole compressed algebra: d_j.x - x.d_j
    for every basis element d_j in one product, at the ``isclose`` tolerance."""
    ctx = x.context
    comm = _commutators(ctx.group, ctx.basis_matrix, x.coeffs)
    return bool(np.all(np.abs(comm) <= ZERO_TOL * max(1.0, x.norm_max())))


def is_minimal(p: BoxElement) -> bool:
    """Minimality of a projection: dim(p.A.p) = 1."""
    ctx = p.context
    if not is_projection(p) or p.norm_max() <= ZERO_TOL:
        return False
    rows = []
    for j in range(ctx.dim):
        dj = BoxElement(ctx, ctx.basis_matrix[j])
        rows.append(mul(mul(p, dj), p).coeffs)
    mat = np.array(rows)
    s = np.linalg.svd(mat, compute_uv=False)
    smax = s.max()
    rel = s / smax
    band = (rel > AMBIGUOUS_BAND[0]) & (rel < AMBIGUOUS_BAND[1])
    if np.any(band):
        raise NumericRankAmbiguous("singular value in the ambiguity band")
    return int((rel > AMBIGUOUS_BAND[1]).sum()) == 1


def _spectral_split(ctx: BoxContext, coeffs: np.ndarray) -> list[np.ndarray]:
    """Split a self-adjoint element into spectral projections by eigenvalue
    clustering, dropping the structural kernel."""
    w, v = np.linalg.eigh(_self_adjoint_regular_matrix(ctx, coeffs))
    scale = max(float(np.abs(w).max()), 1.0)
    order = np.argsort(w)
    w_sorted = w[order]
    v_sorted = v[:, order]
    boundaries = [0]
    for i in range(1, len(w_sorted)):
        if w_sorted[i] - w_sorted[i - 1] > AMBIGUOUS_BAND[1] * scale:
            boundaries.append(i)
    boundaries.append(len(w_sorted))
    clusters = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        mean = float(np.mean(w_sorted[a:b]))
        if abs(mean) <= AMBIGUOUS_BAND[1] * scale:
            continue  # structural kernel
        block = v_sorted[:, a:b]
        proj = block @ block.conj().T
        clusters.append(proj[:, ctx.group.identity_index].copy())
    return clusters


def _canonical_order(ctx: BoxContext, coeffs: np.ndarray) -> np.ndarray:
    """The stable sort of the coefficient rows ``coeffs`` of projections of
    ctx by trace |H|.x_e rounded to 10 decimals, then by the coefficients in
    element order, each real part before its imaginary part, rounded to 8:
    one lexsort over the rounded columns."""
    cols = np.round(np.ascontiguousarray(coeffs).view(np.float64), 8)  # real, imag, real, ...
    traces = np.round(ctx.sub.order * coeffs[:, ctx.group.identity_index].real, 10)
    return np.lexsort(np.vstack([cols[:, ::-1].T, traces]))  # last key leads


def _canonical_projection_sort(projs: list[BoxElement]) -> list[BoxElement]:
    order = _canonical_order(projs[0].context, np.array([p.coeffs for p in projs]))
    return [projs[i] for i in order]


def minimal_central_projections(ctx: BoxContext) -> list[BoxElement]:
    """The block decomposition of the compressed algebra, canonically sorted.

    The blocks are z_chi = b_H.e_chi for the irreducible characters chi of
    G with <chi|_H, 1> > 0, e_chi = (chi(1)/|G|) sum_g conj(chi(g)) g being
    the central idempotent of chi; b_H.e_chi = 0 when <chi|_H, 1> = 0.
    They are checked to sum to id and sorted (_canonical_order) on one
    (blocks x |G|) array, and each becomes a BoxElement once, in that order.
    block_characters(ctx) reads back the character row of each block.
    """
    if "mcp" not in ctx._cache:
        group, sub = ctx.group, ctx.sub
        table = group.character_table()
        fixed = table[:, sub.indices].sum(axis=1) / sub.order  # <chi|_H, 1>
        if np.abs(fixed - np.rint(fixed.real)).max() > ZERO_TOL:
            raise BiprojectionCheckFailed("a fixed-point dimension is not an integer")
        # (b_H.e_chi)(g) = chi(1)/|G| . mean over h in H of conj(chi(h^-1 g))
        left, e = group.cayley[group.inverse[sub.indices]], group.identity_index
        rows = np.flatnonzero(np.rint(fixed.real) > 0)
        sel = table[rows]
        blocks = sel[:, left].conj().mean(axis=1) * sel[:, e].real[:, None] / group.order
        if not (np.abs(blocks.sum(axis=0) - sub.mask / sub.order) <= ZERO_TOL).all():  # id = b_H
            raise BiprojectionCheckFailed("the blocks do not sum to id")
        order = _canonical_order(ctx, blocks)
        ctx._cache["mcp"] = [BoxElement(ctx, block) for block in blocks[order]]
        ctx._cache["block_characters"] = rows[order].tolist()
    return ctx._cache["mcp"]


def block_characters(ctx: BoxContext) -> list[int]:
    """The row of ``group.character_table()`` behind each block, in the
    block order of minimal_central_projections."""
    minimal_central_projections(ctx)
    return ctx._cache["block_characters"]


def minimal_projections_under(
    p: BoxElement, seed: int = 0
) -> list[BoxElement]:
    """A maximal family of orthogonal minimal projections below a minimal
    central projection p (spectral split of a random element of p.A.p)."""
    ctx = p.context
    for attempt in range(SPLIT_RETRIES):
        rng = np.random.default_rng([seed, attempt, 7, ctx.group.order])
        y = random_element(ctx, rng, self_adjoint=True)
        compressed = mul(mul(p, y), p)
        compressed = BoxElement(
            ctx, compressed.coeffs + 2.0 * np.abs(compressed.coeffs).sum() * p.coeffs
        )
        try:
            clusters = _spectral_split(ctx, compressed.coeffs)
        except (NumericRankAmbiguous, NotPositive):
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
            if resid > ZERO_TOL * max(1.0, np.abs(w).max()) * 100:
                raise BasisNotSpanning("a product does not lie in the basis span")
            entries[i, j] = sol * ctx.delta
    entries.setflags(write=False)
    return CoproductTable(tuple(labels), ctx.delta, entries)
