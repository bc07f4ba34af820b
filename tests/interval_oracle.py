"""Former public names of ``biprox.interval``, kept as test oracles.

``equivalence_key`` is the invariant bucket of an inclusion read off its core
quotient, always built, as before equivalence classing took a core-free pair
(G, H) as its own quotient.  ``is_linearly_primitive_group`` asks whether
some irreducible block of G over {1} is faithful.
"""

from __future__ import annotations

from biprox.interval import (
    Inclusion,
    core_quotient,
    is_linearly_primitive_inclusion,
    pair_invariants,
)
from biprox.permgroup import FiniteGroup


def equivalence_key(inc: Inclusion) -> tuple:
    """Hashable invariant of the equivalence class (prefilter/bucketing)."""
    return pair_invariants(*core_quotient(inc))


def is_linearly_primitive_group(group: FiniteGroup) -> bool:
    """Whether some irreducible block is faithful (trivial stabilizer)."""
    inc = Inclusion(group, group.trivial_subgroup())
    return is_linearly_primitive_inclusion(inc) is not None
