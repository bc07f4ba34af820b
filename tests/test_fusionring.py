"""Fusion rings: the built-in rank-7 ring, exact axioms, Frobenius-Perron
data, subring search, and block-structure extraction from contexts."""

from __future__ import annotations

import numpy as np
import pytest

from biprox.boxalgebra import BoxContext
from biprox.catalog import catalog_group, catalog_names
from biprox.errors import AxiomViolation, NotTrivialH
from biprox.fusionring import (
    FusionRing,
    find_subrings,
    fp_dimensions,
    fusion_from_context,
    fusion_report,
    is_simple,
    kac210_ring,
    parse_fusion_text,
    verify_axioms,
)
from permgroup_oracle import subgroup_from_perms


def trivial_ctx(name: str) -> BoxContext:
    g = catalog_group(name)
    return BoxContext(g, g.trivial_subgroup())


def fp_consistency(ring: FusionRing) -> float:
    # max |sum_k N[i,j,k] d_k - d_i d_j|: the dimension vector is a common
    # Perron eigenvector of every fusion matrix
    d = fp_dimensions(ring)
    return float(np.abs(np.einsum("ijk,k->ij", ring.tensor, d) - np.outer(d, d)).max())


# -- the built-in rank-7 ring -------------------------------------------------


def test_kac210_axioms_exact() -> None:
    report = verify_axioms(kac210_ring())
    assert report == {
        "unit": True,
        "dual_involution": True,
        "frobenius": True,
        "associative": True,
    }


def test_kac210_dimensions() -> None:
    ring = kac210_ring()
    dims = fp_dimensions(ring)
    # degrees read off the unit-component column: d_i = sqrt handled by the
    # Perron eigenvalue; frozen expected type of the rank-7 ring
    assert np.abs(dims - np.array([1, 5, 5, 5, 6, 7, 7])).max() < 1e-9
    assert abs(float((dims**2).sum()) - 210.0) < 1e-7
    assert fp_consistency(ring) < 1e-8


def test_kac210_simple_and_self_dual() -> None:
    ring = kac210_ring()
    assert ring.duals() == tuple(range(7))
    assert find_subrings(ring) == [(0,), tuple(range(7))]
    assert is_simple(ring)
    # commutative: tensor symmetric in the first two slots
    assert np.array_equal(ring.tensor, ring.tensor.transpose(1, 0, 2))


def test_kac210_report_shape() -> None:
    report = fusion_report(kac210_ring())
    assert report["rank"] == 7
    assert report["integral"] is True
    assert report["simple"] is True
    assert abs(report["total_dim"] - 210.0) < 1e-7
    assert all(report["axioms"].values())


# -- parsing ------------------------------------------------------------------


def test_parse_ignores_comments_and_blank_lines() -> None:
    ring = parse_fusion_text("# unit only\n\n1  # trailing words\n")
    assert ring.rank == 1
    assert ring.tensor[0, 0, 0] == 1


def test_parse_rejects_bad_token_and_bad_count() -> None:
    with pytest.raises(ValueError):
        parse_fusion_text("1 x 0")
    with pytest.raises(ValueError):
        parse_fusion_text("1 0 0 1")  # 4 is not a cube


def test_negative_multiplicity_rejected() -> None:
    with pytest.raises(AxiomViolation):
        FusionRing(np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]]]))


# -- axiom violations on tampered tensors -------------------------------------


def test_broken_unit_detected() -> None:
    t = kac210_ring().tensor.copy()
    t[0, 3, 3] = 0
    with pytest.raises(AxiomViolation, match="unit"):
        verify_axioms(FusionRing(t))


def test_broken_associativity_detected() -> None:
    t = kac210_ring().tensor.copy()
    t[4, 5, 6] += 1
    t[5, 4, 6] += 1  # keep Frobenius symmetry so associativity is the failure
    t[4, 6, 5] += 1
    t[6, 4, 5] += 1
    t[5, 6, 4] += 1
    t[6, 5, 4] += 1
    with pytest.raises(AxiomViolation):
        verify_axioms(FusionRing(t))


def test_broken_duality_detected() -> None:
    t = kac210_ring().tensor.copy()
    t[2, 2, 0] = 0  # element 2 loses its dual
    with pytest.raises(AxiomViolation):
        verify_axioms(FusionRing(t))


# -- extraction from contexts --------------------------------------------------


def test_trivial_group_gives_rank_one() -> None:
    ring = fusion_from_context(trivial_ctx("Z1"))
    assert ring.rank == 1
    assert ring.tensor[0, 0, 0] == 1


def test_cyclic_group_ring_is_a_group_law() -> None:
    ring = fusion_from_context(trivial_ctx("Z6"))
    assert ring.rank == 6
    verify_axioms(ring)
    dims = fp_dimensions(ring)
    assert np.abs(dims - 1.0).max() < 1e-9
    for i in range(6):
        m = ring.matrix(i)
        # each block product is a single block: permutation matrices
        assert np.array_equal(np.sort(m.sum(axis=1)), np.ones(6, dtype=np.int64))
        assert np.array_equal(np.sort(m.sum(axis=0)), np.ones(6, dtype=np.int64))


def test_s3_block_ring_matches_character_arithmetic() -> None:
    ring = fusion_from_context(trivial_ctx("S3"))
    verify_axioms(ring)
    dims = fp_dimensions(ring)
    assert sorted(round(d) for d in dims) == [1, 1, 2]
    assert fp_consistency(ring) < 1e-9
    sign = next(i for i in range(3) if i != 0 and round(dims[i]) == 1)
    two = next(i for i in range(3) if round(dims[i]) == 2)
    # frozen from character arithmetic on the symmetric group of degree 3:
    # sign^2 = unit; sign . two = two; two^2 = unit + sign + two
    assert list(ring.tensor[sign, sign]) == [1 if k == 0 else 0 for k in range(3)]
    assert ring.tensor[sign, two, two] == 1 and ring.tensor[sign, two].sum() == 1
    assert sorted(ring.tensor[two, two]) == [1, 1, 1]


def test_s3_subrings_include_the_sign_line() -> None:
    ring = fusion_from_context(trivial_ctx("S3"))
    dims = fp_dimensions(ring)
    sign = next(i for i in range(3) if i != 0 and round(dims[i]) == 1)
    subs = find_subrings(ring)
    assert (0,) in subs and tuple(range(3)) in subs
    assert tuple(sorted((0, sign))) in subs
    assert len(subs) == 3
    assert not is_simple(ring)


def test_quaternion_block_ring() -> None:
    ring = fusion_from_context(trivial_ctx("Q8"))
    verify_axioms(ring)
    dims = fp_dimensions(ring)
    assert sorted(round(d) for d in dims) == [1, 1, 1, 1, 2]
    two = int(np.argmax(dims))
    # frozen from character arithmetic on the quaternion group: the square
    # of the 2-dim block is the sum of the four 1-dim blocks
    row = ring.tensor[two, two]
    assert row[two] == 0
    assert sorted(row) == [0, 1, 1, 1, 1]


def test_extraction_requires_trivial_subgroup() -> None:
    g = catalog_group("S4")
    from biprox.permgroup import parse_cycles

    k = subgroup_from_perms(g, [parse_cycles("(1,2)", g.degree)])
    with pytest.raises(NotTrivialH):
        fusion_from_context(BoxContext(g, k))


def test_extraction_deterministic_under_seed() -> None:
    a = fusion_from_context(trivial_ctx("D4"))
    b = fusion_from_context(trivial_ctx("D4"))
    assert np.array_equal(a.tensor, b.tensor)


def test_extracted_rings_have_integral_reports() -> None:
    for name in ("S3", "Z6", "Q8", "A4"):
        report = fusion_report(fusion_from_context(trivial_ctx(name)))
        assert report["integral"] is True
        g = catalog_group(name)
        assert abs(report["total_dim"] - g.order) < 1e-6


def test_extraction_clears_the_ambiguity_band_on_every_catalog_group() -> None:
    # Over {1} the blocks are the irreducible characters, one per conjugacy
    # class; every coproduct weight lies off the band (1e-10, 1e-6), and the
    # support pattern agrees with the character multiplicities.
    names = catalog_names()
    assert len(names) == 97
    for name in names:
        g = catalog_group(name)
        ring = fusion_from_context(trivial_ctx(name))
        assert ring.rank == len(np.unique(g.class_labels)), name
