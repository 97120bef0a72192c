"""Goursat decomposition round-trips and structural invariants."""

import dataclasses
import random

import pytest

from ksgroup.gf2 import Subspace, enumerate_subspaces, matrix_apply, vec_to_hex
from ksgroup.goursat import (
    GoursatDecomposition,
    GoursatInvariantError,
    decompose,
    reconstruct,
    tower_report,
)
from ksgroup.invariants import lp_pattern_subspace
from test_gf2 import full_space


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
    assert g.left_image == full_space(2)
    assert g.left_kernel == full_space(2)
    assert g.right_image == Subspace(2)
    assert g.right_kernel == Subspace(2)
    assert all(matrix_apply(g.hom, a) == 0 for a in g.left_image.basis)


def test_diagonal():
    u = Subspace(4, [0b0101, 0b1010])  # {(x, x)}
    g = decompose(u, 2, 2)
    assert g.left_image == full_space(2)
    assert g.right_image == full_space(2)
    assert g.left_kernel == Subspace(2)
    assert g.right_kernel == Subspace(2)
    assert [matrix_apply(g.hom, 1 << i) for i in range(2)] == [1, 2]


def test_full_space():
    g = decompose(full_space(4), 2, 2)
    assert g.left_image == g.left_kernel == full_space(2)
    assert g.right_image == g.right_kernel == full_space(2)


def test_zero_components_reconstruct_to_zero():
    g = decompose(Subspace(4), 2, 2)
    assert reconstruct(g) == Subspace(4)


def test_full_image_full_kernel_zero_hom_gives_product():
    g = GoursatDecomposition(
        m1=2, m2=2,
        left_image=full_space(2), left_kernel=full_space(2),
        right_image=full_space(2), right_kernel=full_space(2),
        hom=(0, 0),
    )
    assert reconstruct(g) == full_space(4)


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
        left_kernel=full_space(2),  # kernel not inside image
        right_image=full_space(2),
        right_kernel=Subspace(2),
        hom=(0, 0),
    )
    with pytest.raises(GoursatInvariantError, match="left_kernel"):
        reconstruct(bad)


def test_quotient_mismatch_raises():
    bad = GoursatDecomposition(
        m1=2, m2=2,
        left_image=full_space(2),
        left_kernel=Subspace(2),
        right_image=Subspace(2),
        right_kernel=Subspace(2),
        hom=(0, 0),
    )
    with pytest.raises(GoursatInvariantError, match="quotient"):
        reconstruct(bad)


# hom = (e0, e2) on F_2^2 -> F_2^3, so both hom rows are read and the
# factors differ in width
UNEVEN = decompose(Subspace(5, [0b00101, 0b10010, 0b11000]), 2, 3)

MALFORMED = {
    "hom-one-row-short": ({"hom": UNEVEN.hom[:-1]}, "hom must have"),
    "hom-one-row-long": ({"hom": UNEVEN.hom + (0,)}, "hom must have"),
    "hom-row-one-bit-wide": ({"hom": (UNEVEN.hom[0] | 1 << 3, *UNEVEN.hom[1:])}, "hom must have"),
    "m1-off-by-one": ({"m1": 3}, "must lie in"),
    "m2-off-by-one": ({"m2": 4}, "must lie in"),
    "left-kernel-too-wide": ({"left_kernel": Subspace(3)}, "must lie in"),
    "right-kernel-too-wide": ({"right_kernel": Subspace(4)}, "must lie in"),
    # every clause but the span holds, yet the data reconstructs to
    # {(a, 0)}, whose right image is 0, not F_2^2
    "hom-image-and-kernel-short-of-right-image": (
        {"m1": 2, "m2": 2, "left_image": full_space(2), "left_kernel": Subspace(2),
         "right_image": full_space(2), "right_kernel": Subspace(2), "hom": (0, 0)}, "span right_image"),
    # UNEVEN's right kernel is span(0b110)
    "right-kernel-outside-right-image": ({"right_image": Subspace(3, [0b001, 0b100])}, "span right_image"),
}


@pytest.mark.parametrize("fields, message", MALFORMED.values(), ids=MALFORMED)
def test_validate_refuses_each_malformed_field(fields, message):
    # the named error, not a DimensionMismatch from the arithmetic, and
    # before reconstruct can build a subspace of the wrong ambient space
    UNEVEN.validate()
    bad = dataclasses.replace(UNEVEN, **fields)
    with pytest.raises(GoursatInvariantError, match=message):
        bad.validate()
    with pytest.raises(GoursatInvariantError, match=message):
        reconstruct(bad)


def test_tower_report_validates_each_level_once(monkeypatch):
    # decompose builds valid data, so only reconstruct validates
    calls = []
    validate = GoursatDecomposition.validate
    monkeypatch.setattr(GoursatDecomposition, "validate", lambda g: calls.append(g) or validate(g))
    u = lp_pattern_subspace()
    g = decompose(u, 64, 64)
    assert calls == []
    assert reconstruct(g) == u
    assert calls == [g]
    tower_report(u)
    assert len(calls) == 1 + 3


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        decompose(Subspace(5), 2, 2)


# ---------------------------------------------------------------------
# Tower


def test_tower_of_diagonal():
    n = 2
    diag = Subspace(4 * n, [(1 << i) | (1 << (2 * n + i)) for i in range(2 * n)])
    rep = tower_report(diag)
    # the right kernel of a diagonal is zero, so its split is all-zero
    assert rep["top"]["right_kernel_dim"] == 0
    z = rep["right_kernel_split"]
    assert z["left_image_dim"] == z["right_image_dim"] == 0
    # the left image is all of V^2, so its split has full left image
    assert rep["left_image_split"]["left_image_dim"] == n


def test_tower_of_zero():
    rep = tower_report(Subspace(8))
    for level in ("top", "left_image_split", "right_kernel_split"):
        assert rep[level]["left_image_dim"] == rep[level]["right_image_dim"] == 0


def test_tower_rejects_bad_ambient():
    with pytest.raises(ValueError, match="not divisible by 4"):
        tower_report(Subspace(6))


@pytest.mark.parametrize("m", [12, 16])
def test_tower_levels_are_direct_decompositions(m):
    # each level equals a decompose of U over V^2 x V^2, of its left image
    # over V x V and of its right kernel over V x V, written out here
    rng = random.Random(m)
    n = m // 4
    for _ in range(40):
        u = random_subspace(rng, m)
        top = decompose(u, 2 * n, 2 * n)
        levels = {
            "top": (top, u),
            "left_image_split": (decompose(top.left_image, n, n), top.left_image),
            "right_kernel_split": (decompose(top.right_kernel, n, n), top.right_kernel),
        }
        rep = tower_report(u, with_hom=True)
        assert (rep["ambient"], rep["word_bits"], rep["dim"]) == (m, n, u.dim)
        for name, (g, source) in levels.items():
            assert rep[name] == {
                "m1": g.m1,
                "m2": g.m2,
                "left_image_dim": g.left_image.dim,
                "left_kernel_dim": g.left_kernel.dim,
                "right_image_dim": g.right_image.dim,
                "right_kernel_dim": g.right_kernel.dim,
                "quotient_dim": g.left_image.dim - g.left_kernel.dim,
                "roundtrip_ok": reconstruct(g) == source,
                "hom_rows": [vec_to_hex(r, g.m2) for r in g.hom],
            }, name
        assert rep["roundtrip_ok"] is rep["top"]["roundtrip_ok"] is True


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
