"""Fusion rings: exact axiom verification, Frobenius-Perron data, subring
search, and extraction of the fusion ring of a trivial-subgroup context
from its block structure by two independent routes.

Text format for fusion tensors: r blocks of r rows of r nonnegative
integers, whitespace separated; blank lines and lines starting with '#'
are ignored.  Block i, row j, column k is the multiplicity of basis
element k inside the product i . j.  Basis element 0 is the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .boxalgebra import BoxContext, block_characters, coproduct, minimal_central_projections
from .errors import (
    AxiomViolation,
    BiprojectionCheckFailed,
    NotTrivialH,
    NumericRankAmbiguous,
)
from .permgroup import AMBIGUOUS_BAND, ZERO_TOL

__all__ = [
    "FusionRing",
    "find_subrings",
    "fp_dimensions",
    "fusion_from_context",
    "fusion_report",
    "is_simple",
    "kac210_ring",
    "load_fusion_file",
    "parse_fusion_text",
    "verify_axioms",
]

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class FusionRing:
    """A based ring with nonnegative integer structure tensor.

    tensor[i, j, k] is the multiplicity of k in i . j; index 0 is the unit.
    """

    tensor: np.ndarray

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(np.asarray(self.tensor, dtype=np.int64))
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise AxiomViolation(f"tensor must be r x r x r, got shape {t.shape}")
        if (t < 0).any():
            i, j, k = np.argwhere(t < 0)[0]
            raise AxiomViolation(f"negative multiplicity at ({i},{j},{k})")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @property
    def rank(self) -> int:
        return int(self.tensor.shape[0])

    def matrix(self, i: int) -> np.ndarray:
        """The fusion matrix N_i with (N_i)[j, k] = tensor[i, j, k]."""
        return self.tensor[i]

    def dual(self, i: int) -> int:
        """i* from unit multiplicities: tensor[i, j, 0] = 1 exactly at j = i*."""
        hits = np.flatnonzero(self.tensor[i, :, 0])
        if len(hits) != 1 or self.tensor[i, hits[0], 0] != 1:
            raise AxiomViolation(f"basis element {i} has no unique dual")
        return int(hits[0])

    def duals(self) -> Tuple[int, ...]:
        return tuple(self.dual(i) for i in range(self.rank))


# -- input ----------------------------------------------------------------


def parse_fusion_text(text: str) -> FusionRing:
    """Parse the r-blocks-of-r-rows-of-r-integers format."""
    values: List[int] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for token in body.split():
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(f"not an integer: {token!r}") from None
    r = round(len(values) ** (1 / 3))
    if r**3 != len(values) or r == 0:
        raise ValueError(
            f"expected r^3 integers for some r >= 1, got {len(values)} values"
        )
    return FusionRing(np.array(values, dtype=np.int64).reshape(r, r, r))


def load_fusion_file(path: str | Path) -> FusionRing:
    return parse_fusion_text(Path(path).read_text())


def kac210_ring() -> FusionRing:
    """The built-in rank-7 simple integral ring of total dimension 210."""
    return load_fusion_file(_DATA_DIR / "kac210.txt")


# -- axioms -----------------------------------------------------------------


def verify_axioms(ring: FusionRing) -> Dict[str, bool]:
    """Check unit, dual involution, Frobenius reciprocity, and associativity
    exactly over the integers; raises AxiomViolation naming the first
    failing identity instance."""
    t = ring.tensor
    r = ring.rank
    eye = np.eye(r, dtype=np.int64)
    if not np.array_equal(t[0], eye):
        j, k = np.argwhere(t[0] != eye)[0]
        raise AxiomViolation(f"left unit fails: N[0][{j}][{k}] = {t[0, j, k]}")
    if not np.array_equal(t[:, 0, :], eye):
        i, k = np.argwhere(t[:, 0, :] != eye)[0]
        raise AxiomViolation(f"right unit fails: N[{i}][0][{k}] = {t[i, 0, k]}")
    duals = np.array(ring.duals())  # raises if some dual is missing
    if not np.array_equal(duals[duals], np.arange(r)):
        i = int(np.flatnonzero(duals[duals] != np.arange(r))[0])
        raise AxiomViolation(f"dual map is not an involution at {i}")
    if not np.array_equal(t, t[duals].transpose(0, 2, 1)):
        i, j, k = np.argwhere(t != t[duals].transpose(0, 2, 1))[0]
        raise AxiomViolation(
            f"Frobenius reciprocity fails: N[{i}][{j}][{k}] != N[{duals[i]}][{k}][{j}]"
        )
    left = np.einsum("ijm,mkl->ijkl", t, t)
    right = np.einsum("jkm,iml->ijkl", t, t)
    if not np.array_equal(left, right):
        i, j, k, l = np.argwhere(left != right)[0]
        raise AxiomViolation(
            f"associativity fails at (i,j,k,l)=({i},{j},{k},{l}): "
            f"{left[i, j, k, l]} != {right[i, j, k, l]}"
        )
    return {
        "unit": True,
        "dual_involution": True,
        "frobenius": True,
        "associative": True,
    }


# -- Frobenius-Perron data ---------------------------------------------------


def fp_dimensions(ring: FusionRing) -> np.ndarray:
    """Frobenius-Perron dimension of each basis element: the spectral radius
    of its nonnegative fusion matrix.  By Perron-Frobenius that radius is an
    eigenvalue, and no eigenvalue has a larger real part, so it is the
    largest real part of the spectrum."""
    return np.array([np.linalg.eigvals(ring.matrix(i)).real.max() for i in range(ring.rank)])


# -- subrings ----------------------------------------------------------------


def find_subrings(ring: FusionRing) -> List[Tuple[int, ...]]:
    """All unital based subrings, as sorted index tuples: subsets containing
    0, closed under duals and under fusion supports.  Enumerated by closing
    every reachable closed set extended by one generator."""
    r = ring.rank
    duals = ring.duals()
    support = [[tuple(np.flatnonzero(ring.tensor[i, j])) for j in range(r)] for i in range(r)]

    def closure(seed: Tuple[int, ...]) -> Tuple[int, ...]:
        s = set(seed) | {0}
        frontier = list(s)
        while frontier:
            new: set[int] = set()
            for i in frontier:
                if duals[i] not in s:
                    new.add(duals[i])
            for i in s:
                for j in s:
                    for k in support[i][j]:
                        if k not in s:
                            new.add(int(k))
            s |= new
            frontier = list(new)
        return tuple(sorted(s))

    seen = {closure(())}
    stack = list(seen)
    while stack:
        base = stack.pop()
        for i in range(r):
            if i not in base:
                bigger = closure(base + (i,))
                if bigger not in seen:
                    seen.add(bigger)
                    stack.append(bigger)
    return sorted(seen, key=lambda s: (len(s), s))


def is_simple(ring: FusionRing) -> bool:
    """Only the unit subring and the whole ring are closed."""
    full = tuple(range(ring.rank))
    return all(s in ((0,), full) for s in find_subrings(ring))


def fusion_report(ring: FusionRing) -> dict:
    """JSON-ready summary: axioms, dimensions, total dimension, integrality,
    simplicity."""
    axioms = verify_axioms(ring)
    dims = fp_dimensions(ring)
    rounded = np.round(dims)
    integral = bool(np.abs(dims - rounded).max() < ZERO_TOL)
    total = float((dims**2).sum())
    return {
        "rank": ring.rank,
        "axioms": axioms,
        "dims": [float(d) for d in dims],
        "total_dim": total,
        "integral": integral,
        "simple": is_simple(ring),
    }


# -- extraction from a 2-box context ------------------------------------------


def fusion_from_context(ctx: BoxContext) -> FusionRing:
    """Fusion ring of the blocks of a trivial-subgroup context.

    Two independent routes must agree: (a) the support pattern of the
    coproduct p_i * p_j against the blocks decides which multiplicities
    are nonzero; (b) exact integer multiplicities come from the character
    chi_i of each block (its row of the character table) via
    n_ij^k = (1/|G|) sum_g chi_i(g) chi_j(g) conj(chi_k(g)).
    The unit block, that of the trivial character, is moved to index 0;
    the other blocks keep their deterministic block order.
    """
    if ctx.sub.order != 1:
        raise NotTrivialH("fusion extraction requires a trivial subgroup")
    projs = minimal_central_projections(ctx)
    r = len(projs)
    order = ctx.group.order
    chars = ctx.group.character_table()[block_characters(ctx)]
    unit = int(np.argmax(chars.sum(axis=1).real))  # |G| for the trivial character, else 0
    perm = [unit] + [i for i in range(r) if i != unit]
    chars, elements = chars[perm], [projs[p] for p in perm]

    raw = np.einsum("ig,jg,kg->ijk", chars, chars, np.conj(chars)) / order
    if np.abs(raw.imag).max() > ZERO_TOL:
        raise BiprojectionCheckFailed("complex multiplicity residue")
    tensor = np.round(raw.real)
    if np.abs(raw.real - tensor).max() > ZERO_TOL:
        i, j, k = np.unravel_index(int(np.abs(raw.real - tensor).argmax()), raw.shape)
        raise BiprojectionCheckFailed(
            f"non-integer multiplicity at ({i},{j},{k}): {raw.real[i, j, k]}"
        )
    if tensor.min() < -0.5:
        raise BiprojectionCheckFailed("negative multiplicity from block data")

    # route (a): coproduct support pattern must match the nonzero pattern
    conj_coeff = np.conj(np.stack([e.coeffs for e in elements]))
    low, high = AMBIGUOUS_BAND
    for i in range(r):
        for j in range(r):
            y = coproduct(elements[i], elements[j])
            vals = (conj_coeff @ y.coeffs).real
            scale = max(float(vals.max()), 1e-30)
            in_band = (vals > low * scale) & (vals < high * scale)
            if in_band.any():
                raise NumericRankAmbiguous(
                    f"coproduct support of ({i},{j}) has weights inside the "
                    "ambiguity band"
                )
            pattern = vals >= high * scale
            if not np.array_equal(pattern, tensor[i, j] > 0):
                raise BiprojectionCheckFailed(
                    f"support pattern of p_{i} * p_{j} disagrees with the "
                    "block multiplicities"
                )
    return FusionRing(tensor.astype(np.int64))
