"""Biprojections of (S4, <(12)>) and the generated biprojection.

Biprojections are the projections that are also (scaled) coproduct
idempotents; they correspond exactly to the intermediate subgroups
H <= K <= G, reversing inclusion order.  The script lists them, draws the
interval lattice, and generates the biprojection <p> from a random
minimal projection.
"""

from __future__ import annotations

import numpy as np

from biprox.boxalgebra import (
    BoxContext,
    biprojection_lattice,
    element_bK,
    generate_biprojection,
    minimal_central_projections,
    minimal_projections_under,
    trace,
)
from biprox.catalog import catalog_group, parse_subgroup_spec
from biprox.lattice import forbidden_sublattice, is_distributive, is_modular

group = catalog_group("S4")
sub = parse_subgroup_spec(group, "(1,2)")
ctx = BoxContext(group, sub)

lat = biprojection_lattice(ctx)
dist = is_distributive(lat)
dist_witness = forbidden_sublattice(lat)
modular = is_modular(lat)
print(f"[H, G] for H = <(12)> in S4 has {lat.n} elements; "
      f"distributive: {dist} (witness sublattice {dist_witness}), modular: {modular}")
print("\nbiprojections b_K (trace = |H| / |K|):")
for k in lat.payload:
    print(f"  |K| = {k.order:2d}  generators {k.generator_string():24s} "
          f"tr(b_K) = {trace(element_bK(ctx, k)).real:.4f}")

# generate from a minimal projection: the smallest biprojection above it
blocks = minimal_central_projections(ctx)
p = minimal_projections_under(blocks[-1])[0]
gen = generate_biprojection(p)
print(f"\na minimal projection under the last block has trace "
      f"{trace(p).real:.4f}; its generated biprojection is b_K with "
      f"|K| = {gen.subgroup.order} (trace {trace(gen.element).real:.4f})")
if gen.subgroup.order == sub.order:
    print("K = H, i.e. <p> is the identity biprojection: this single minimal "
          "projection generates everything, witnessing w-cyclicity.")
