"""Goursat decomposition round-trips and structural invariants."""

import random

import pytest

from ksgroup.gf2 import Subspace, enumerate_subspaces, matrix_apply
from ksgroup.goursat import (
    GoursatDecomposition,
    GoursatInvariantError,
    decompose,
    reconstruct,
    tower_decompose,
    tower_report,
)
from ksgroup.invariants import lp_pattern_subspace


def random_subspace(rng, m, max_gens=None):
    k = rng.randint(0, max_gens if max_gens is not None else m)
    return Subspace(m, [rng.getrandbits(m) for _ in range(k)])


def complete_basis(u: Subspace) -> list[int]:
    """Standard vectors extending u's basis to all of F_2^m, lowest index first."""
    return [1 << c for c in range(u.m) if c not in u.pivots]


# ---------------------------------------------------------------------
# Reading off the pieces


def test_factor1_times_zero():
    u = Subspace(4, [0b0001, 0b0010])  # F_2^2 x {0}
    g = decompose(u, 2, 2)
    assert g.left_image == Subspace.full(2)
    assert g.left_kernel == Subspace.full(2)
    assert g.right_image == Subspace(2)
    assert g.right_kernel == Subspace(2)
    assert all(matrix_apply(g.hom, a) == 0 for a in g.left_image.basis)


def test_diagonal():
    u = Subspace(4, [0b0101, 0b1010])  # {(x, x)}
    g = decompose(u, 2, 2)
    assert g.left_image == Subspace.full(2)
    assert g.right_image == Subspace.full(2)
    assert g.left_kernel == Subspace(2)
    assert g.right_kernel == Subspace(2)
    assert [matrix_apply(g.hom, 1 << i) for i in range(2)] == [1, 2]


def test_full_space():
    g = decompose(Subspace.full(4), 2, 2)
    assert g.left_image == g.left_kernel == Subspace.full(2)
    assert g.right_image == g.right_kernel == Subspace.full(2)


def test_zero_components_reconstruct_to_zero():
    g = decompose(Subspace(4), 2, 2)
    assert reconstruct(g) == Subspace(4)


def test_full_image_full_kernel_zero_hom_gives_product():
    g = GoursatDecomposition(
        m1=2, m2=2,
        left_image=Subspace.full(2), left_kernel=Subspace.full(2),
        right_image=Subspace.full(2), right_kernel=Subspace.full(2),
        hom=(0, 0),
    )
    assert reconstruct(g) == Subspace.full(4)


# ---------------------------------------------------------------------
# Round trip


def test_roundtrip_all_67_subspaces_and_bijectivity():
    seen = set()
    count = 0
    for u in enumerate_subspaces(4):
        g = decompose(u, 2, 2)
        assert reconstruct(g) == u
        key = (g.left_image, g.left_kernel, g.right_image, g.right_kernel, g.hom)
        assert key not in seen  # distinct subspaces give distinct data
        seen.add(key)
        count += 1
    assert count == 67


def test_roundtrip_random_m12():
    rng = random.Random(64)
    for _ in range(1000):
        u = random_subspace(rng, 12, max_gens=9)
        assert reconstruct(decompose(u, 6, 6)) == u


def test_roundtrip_uneven_split():
    rng = random.Random(65)
    for _ in range(200):
        u = random_subspace(rng, 10, max_gens=7)
        assert reconstruct(decompose(u, 3, 7)) == u


# ---------------------------------------------------------------------
# Structural invariants of every decomposition


@pytest.mark.parametrize("seed", range(5))
def test_decomposition_invariants(seed):
    rng = random.Random(1000 + seed)
    for _ in range(200):
        u = random_subspace(rng, 8, max_gens=6)
        g = decompose(u, 4, 4)
        g.validate()
        assert g.left_image.dim - g.left_kernel.dim == g.right_image.dim - g.right_kernel.dim
        # kernel rows map into the right kernel
        for b in g.left_kernel.basis:
            assert g.right_kernel.contains(matrix_apply(g.hom, b))
        # hom is zero on the completed basis of the left image
        for e in complete_basis(g.left_image):
            assert matrix_apply(g.hom, e) == 0


def test_invalid_data_raises_named_error():
    bad = GoursatDecomposition(
        m1=2, m2=2,
        left_image=Subspace(2, [0b01]),
        left_kernel=Subspace.full(2),  # kernel not inside image
        right_image=Subspace.full(2),
        right_kernel=Subspace(2),
        hom=(0, 0),
    )
    with pytest.raises(GoursatInvariantError, match="left_kernel"):
        reconstruct(bad)


def test_quotient_mismatch_raises():
    bad = GoursatDecomposition(
        m1=2, m2=2,
        left_image=Subspace.full(2),
        left_kernel=Subspace(2),
        right_image=Subspace(2),
        right_kernel=Subspace(2),
        hom=(0, 0),
    )
    with pytest.raises(GoursatInvariantError, match="quotient"):
        reconstruct(bad)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        decompose(Subspace(5), 2, 2)


# ---------------------------------------------------------------------
# Tower


def test_tower_of_diagonal():
    n = 2
    diag = Subspace(4 * n, [(1 << i) | (1 << (2 * n + i)) for i in range(2 * n)])
    tw = tower_decompose(diag)
    # the right kernel of a diagonal is zero, so its split is all-zero
    assert tw.top.right_kernel == Subspace(2 * n)
    z = tw.right_kernel_split
    assert z.left_image == z.right_image == Subspace(n)
    # the left image is all of V^2, so its split has full left image
    assert tw.left_image_split.left_image == Subspace.full(n)


def test_tower_of_zero():
    tw = tower_decompose(Subspace(8))
    for g in (tw.top, tw.left_image_split, tw.right_kernel_split):
        assert g.left_image.dim == 0 and g.right_image.dim == 0


def test_tower_rejects_bad_ambient():
    with pytest.raises(ValueError):
        tower_decompose(Subspace(6))


def test_tower_report_roundtrips_each_level():
    rng = random.Random(2024)
    for _ in range(20):
        u = random_subspace(rng, 8, max_gens=6)
        rep = tower_report(u)
        assert rep["roundtrip_ok"]
        for level in ("top", "left_image_split", "right_kernel_split"):
            assert rep[level]["roundtrip_ok"]
            assert (
                rep[level]["left_image_dim"] - rep[level]["left_kernel_dim"]
                == rep[level]["right_image_dim"] - rep[level]["right_kernel_dim"]
            )


def test_tower_of_lp_subspace_runs():
    # full-width tower over the 32-dimensional pattern subspace; the
    # dimensions are recorded, not asserted against expected values
    u = lp_pattern_subspace()
    rep = tower_report(u)
    assert rep["roundtrip_ok"]
    assert rep["dim"] == 32
    assert rep["top"]["right_kernel_dim"] <= 32


def test_level_roundtrip_can_fail():
    # each level is compared with the subspace it decomposed, so a report
    # against any other source reads false
    from ksgroup.goursat import _level_report

    u = lp_pattern_subspace()
    g = decompose(u, 64, 64)
    assert _level_report(g, u)["roundtrip_ok"] is True
    assert _level_report(g, Subspace(128, u.basis[1:]))["roundtrip_ok"] is False
