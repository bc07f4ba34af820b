"""Former public names of ``biprox.interval``, kept as test oracles.

``equivalence_key`` is the invariant bucket of an inclusion read off its core
quotient, always built, as before equivalence classing took a core-free pair
(G, H) as its own quotient.  ``is_linearly_primitive_group`` asks whether
some irreducible block of G over {1} is faithful.  ``core_quotient`` is
the pair (G/core_G(H), image of H) always built as a quotient, even when
core_G(H) = 1, as before ``core_pair`` took a core-free pair as its own.
``linearly_primitive_block_by_stabilizers`` is linear primitivity read off
the floating-point left stabilizer of each block's H-fixed part, as before it
read the block's subgroup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from biprox.boxalgebra import BoxContext, id_element, left_stabilizer
from biprox.boxalgebra import minimal_central_projections, mul
from biprox.interval import (
    Inclusion,
    action_quotient,
    coset_action,
    pair_invariants,
)
from biprox.permgroup import FiniteGroup, Subgroup
from biprox.properties import is_linearly_primitive_inclusion


def core_quotient(inc: Inclusion) -> tuple[FiniteGroup, Subgroup]:
    """(G/core_G(H), image of H), the invariant pair behind equivalence: the
    group of ``coset_action(inc)`` (G on the left cosets of H, kernel
    core_G(H)) and the stabilizer of the coset H, built even if core_G(H) = 1.
    QuotientOrderCapExceeded is raised before building one past QUOTIENT_CAP."""
    return action_quotient(inc.group, *coset_action(inc))


def equivalence_key(inc: Inclusion) -> tuple:
    """Hashable invariant of the equivalence class (prefilter/bucketing)."""
    return pair_invariants(*core_quotient(inc))


def is_linearly_primitive_group(group: FiniteGroup) -> bool:
    """Whether some irreducible block is faithful (trivial stabilizer)."""
    inc = Inclusion(group, group.trivial_subgroup())
    return is_linearly_primitive_inclusion(inc) is not None


def linearly_primitive_block_by_stabilizers(inc: Inclusion) -> Optional[int]:
    """Index of the first central block z with b_H z stabilized pointwise by
    exactly H under left translation, or None."""
    ctx = BoxContext(inc.group, inc.sub)
    for i, p in enumerate(minimal_central_projections(ctx)):
        if np.array_equal(left_stabilizer(mul(id_element(ctx), p)), inc.sub.mask):
            return i
    return None
