"""Built-in group catalog and group/subgroup specification parsing.

A catalog name names a list of generator permutations, which
``catalog_group`` closes with ``group_closure`` as a ``perm:`` spec is
closed.  ``catalog_names()`` lists the names in this order
(case-sensitive):

* ``Z<n>``      cyclic of order n, 1 <= n <= 48: <(1,2,...,n)>
* ``D<n>``      dihedral of order 2n, 2 <= n <= 24: a rotation and a flip of
                the n-gon; ``D2`` = <(1,2), (3,4)>
* ``Dic<n>``    dicyclic of order 4n, 2 <= n <= 12, <a, x> with a^(2n) = 1,
                x^2 = a^n, x a x^-1 = a^-1, acting on itself by left
                multiplication, a^i x^e on point 2i + e (``Dic2`` = quaternions)
* ``S<n>``      symmetric of degree n, 1 <= n <= 5: the transpositions (i,i+1)
* ``A<n>``      alternating of degree n, 3 <= n <= 5: the 3-cycles (i,i+1,i+2)
* ``Q8``        the quaternion group (the generators of ``Dic2``)
* ``SL23``      SL(2,3), acting on the 8 nonzero vectors of F_3^2
* ``E<2^k>``    elementary abelian (Z/2)^k, 1 <= k <= 4: <(1,2), (3,4), ...>
                (``E4`` aka ``V4``)

Group spec grammar accepted everywhere a group is named:
``<catalog name>`` | ``perm:<cycle generators>`` | ``file:<path>`` where the
file holds one cycle-notation generator list (semicolons or newlines).
Larger named examples such as PSL(2,11) are deliberately not built in; load
them from a generator file.
"""

from __future__ import annotations

from pathlib import Path

from .errors import GroupSpecError, OrderCapExceeded
from .permgroup import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Permutation,
    Subgroup,
    group_closure,
    parse_generators,
    subgroup_generated,
)


def _cycle(degree: int, cycle: tuple[int, ...]) -> Permutation:
    images = list(range(degree))
    for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
        images[src] = dst
    return Permutation(tuple(images))


def _elementary_abelian(k: int) -> list[Permutation]:
    return [_cycle(2 * k, (2 * i, 2 * i + 1)) for i in range(k)]


def _dihedral(n: int) -> list[Permutation]:
    # The flip of the n-gon fixes both points when n = 2, so D2 acts on 4 points.
    if n == 2:
        return _elementary_abelian(2)
    return [_cycle(n, tuple(range(n))), Permutation(tuple((n - i) % n for i in range(n)))]


def _dicyclic(n: int) -> list[Permutation]:
    # Left multiplication by a and by x, with a^i x^e on point 2i + e.
    a: list[int] = []
    x: list[int] = []
    for i in range(2 * n):
        a += [2 * ((i + 1) % (2 * n)), 2 * ((i + 1) % (2 * n)) + 1]
        x += [2 * (-i % (2 * n)) + 1, 2 * ((n - i) % (2 * n))]
    return [Permutation(tuple(a)), Permutation(tuple(x))]


_GENERATORS: dict[str, list[Permutation]] = {
    **{f"Z{n}": [_cycle(n, tuple(range(n)))] for n in range(1, 49)},
    **{f"D{n}": _dihedral(n) for n in range(2, 25)},
    **{f"Dic{n}": _dicyclic(n) for n in range(2, 13)},
    **{f"S{n}": [_cycle(n, (i, i + 1)) for i in range(n - 1)] for n in range(1, 6)},
    **{f"A{n}": [_cycle(n, (i, i + 1, i + 2)) for i in range(n - 2)] for n in range(3, 6)},
    "Q8": _dicyclic(2),
    # [[0, 2], [1, 0]] and [[1, 1], [0, 1]] on (0,1), (0,2), (1,0), ..., (2,2).
    "SL23": parse_generators("(1,6,2,3)(4,7,8,5);(1,4,7)(2,8,5)"),
    "E2": _elementary_abelian(1),
    "E4": _elementary_abelian(2),
    "V4": _elementary_abelian(2),
    "E8": _elementary_abelian(3),
    "E16": _elementary_abelian(4),
}

_cache: dict[str, FiniteGroup] = {}


def catalog_names() -> list[str]:
    """All catalog names in a fixed, documented order."""
    return list(_GENERATORS)


def catalog_group(name: str) -> FiniteGroup:
    """Look up (and cache) a catalog group by its exact name."""
    if name not in _cache:
        if name not in _GENERATORS:
            raise GroupSpecError(f"unknown catalog group {name!r}")
        _cache[name] = group_closure(_GENERATORS[name], name=name)
    return _cache[name]


def parse_group_spec(spec: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Resolve a group spec: catalog name, ``perm:...``, or ``file:path``.
    A group of more than ``max_order`` elements raises OrderCapExceeded."""
    spec = spec.strip()
    if spec.startswith("perm:"):
        text = spec[len("perm:"):]
        name = f"perm:{text.strip()}"
    elif spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        if not path.is_file():
            raise GroupSpecError(f"generator file not found: {path}")
        text = ";".join(path.read_text().splitlines())
        name = path.name
    else:
        try:
            group = catalog_group(spec)
        except GroupSpecError:
            raise GroupSpecError(
                f"unknown group spec {spec!r}; use a catalog name, 'perm:...', or 'file:...'"
            ) from None
        if group.order > max_order:
            raise OrderCapExceeded(f"|{spec}| = {group.order} exceeds max_order={max_order}")
        return group
    try:
        gens = parse_generators(text)
    except ValueError as exc:
        raise GroupSpecError(str(exc)) from exc
    return group_closure(gens, max_order=max_order, name=name)


def parse_subgroup_spec(group: FiniteGroup, spec: str) -> Subgroup:
    """Resolve a subgroup spec inside ``group``.

    Accepts ``trivial``, ``full``, or a cycle-notation generator list
    (optionally prefixed ``perm:``) whose permutations must lie in the group.
    """
    spec = spec.strip()
    if spec in ("trivial", "1", "{1}"):
        return group.trivial_subgroup()
    if spec in ("full", "G"):
        return group.full_subgroup()
    if spec.startswith("perm:"):
        spec = spec[len("perm:"):]
    try:
        gens = parse_generators(spec, degree=group.degree)
    except ValueError as exc:
        raise GroupSpecError(str(exc)) from exc
    try:
        indices = {group.index_of(p) for p in gens}
    except KeyError as exc:
        raise GroupSpecError(f"generator outside the group: {exc}") from exc
    return subgroup_generated(group, indices)
