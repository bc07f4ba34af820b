"""biprox: invariants of group-subgroup subfactor planar algebras.

The package computes, for an inclusion of finite groups H <= G, the
interval lattice [H, G], the 2-box algebra of the associated subfactor
with both of its products, its biprojections and generated biprojections,
and the classification predicates built on them (distributive, Dedekind,
cyclic, w-cyclic and friends), plus fusion-ring verification and a survey
harness over a built-in group catalog.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .permgroup import (
    FiniteGroup,
    Permutation,
    Subgroup,
    all_subgroups,
    core,
    group_closure,
    is_normal_intermediate,
    parse_cycles,
    parse_generators,
    subgroup_generated,
)
from .catalog import catalog_group, catalog_names, parse_group_spec, parse_subgroup_spec
from .boxalgebra import BoxContext, BoxElement, biprojection_lattice
from .interval import Inclusion, dual_ore_conditions, is_H_cyclic, ore_verify
from .lattice import FiniteLattice, boolean_rank, is_distributive, is_modular
from .properties import ClassificationReport, classify, verify_theorems

__all__ = [
    "errors",
    "FiniteGroup",
    "Permutation",
    "Subgroup",
    "all_subgroups",
    "core",
    "group_closure",
    "is_normal_intermediate",
    "parse_cycles",
    "parse_generators",
    "subgroup_generated",
    "catalog_group",
    "catalog_names",
    "parse_group_spec",
    "parse_subgroup_spec",
    "BoxContext",
    "BoxElement",
    "biprojection_lattice",
    "Inclusion",
    "dual_ore_conditions",
    "is_H_cyclic",
    "ore_verify",
    "FiniteLattice",
    "boolean_rank",
    "is_distributive",
    "is_modular",
    "ClassificationReport",
    "classify",
    "verify_theorems",
]
