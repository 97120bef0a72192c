"""Goursat decomposition of subspaces of a direct product F_2^m1 x F_2^m2.

Every subspace U of the product is classified by four subspaces and an
induced homomorphism:

    left_image   = projection of U to factor 1
    left_kernel  = {a : (a, 0) in U}
    right_image  = projection of U to factor 2
    right_kernel = {c : (0, c) in U}
    hom          = a linear map with U = {(a, a*hom + d) : a in left_image,
                                          d in right_kernel}

The quotient left_image/left_kernel is isomorphic to
right_image/right_kernel; only the induced map ``hom`` is materialized,
never the quotients.  ``hom`` is not unique: the representative chosen
here is derived greedily from members of U on the RREF basis of the left
image and is zero on the completed basis, which makes decomposition
deterministic.  Everything here is for elementary abelian 2-groups, i.e.
GF(2) vector spaces; no general group machinery.

A product element (x, y) is packed as ``x | (y << m1)``: factor 1 in the
low bits.  Nesting the decomposition over F_2^(4n) = (V^2) x (V^2) and
then splitting the resulting left image and right kernel over V x V gives
the two-level tower used by the invariant-partition analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import Subspace, matrix_apply, vec_to_hex


class GoursatInvariantError(ValueError):
    """A GoursatDecomposition field violates a structural requirement."""


@dataclass(frozen=True)
class GoursatDecomposition:
    m1: int
    m2: int
    left_image: Subspace
    left_kernel: Subspace
    right_image: Subspace
    right_kernel: Subspace
    hom: tuple[int, ...]

    @property
    def quotient_dim(self) -> int:
        return self.left_image.dim - self.left_kernel.dim

    def validate(self) -> None:
        """Raise ``GoursatInvariantError`` at the first field that does not
        fit a decomposition of a subspace of F_2^m1 x F_2^m2."""
        if not (self.left_image.m == self.left_kernel.m == self.m1
                and self.right_image.m == self.right_kernel.m == self.m2):
            raise GoursatInvariantError("left subspaces must lie in F_2^m1 and right subspaces in F_2^m2")
        if not all(map(self.left_image.contains, self.left_kernel.basis)):
            raise GoursatInvariantError("left_kernel is not contained in left_image")
        if len(self.hom) != self.m1 or any(row >> self.m2 for row in self.hom):
            raise GoursatInvariantError("hom must have one m2-bit row per coordinate of factor 1")
        # with the two clauses below, the induced map of the quotients is
        # onto and between spaces of one dimension: an isomorphism
        images = [matrix_apply(self.hom, a) for a in self.left_image.basis]
        if Subspace(self.m2, images + list(self.right_kernel.basis)) != self.right_image:
            raise GoursatInvariantError("hom(left_image) and right_kernel do not span right_image")
        if not all(self.right_kernel.contains(matrix_apply(self.hom, b)) for b in self.left_kernel.basis):
            raise GoursatInvariantError("hom does not map left_kernel into right_kernel")
        if self.quotient_dim != self.right_image.dim - self.right_kernel.dim:
            raise GoursatInvariantError("quotient dimensions differ")


def decompose(u: Subspace, m1: int, m2: int) -> GoursatDecomposition:
    if u.m != m1 + m2:
        raise ValueError(f"ambient dimension {u.m} is not {m1}+{m2}")
    mask1 = (1 << m1) - 1

    left_image = Subspace(m1, (row & mask1 for row in u.basis))
    right_image = Subspace(m2, (row >> m1 for row in u.basis))

    # rows with pivot in the second factor have zero first component
    right_kernel = Subspace(m2, (row >> m1 for row in u.basis if not (row & mask1)))

    # swap factors so elimination clears the second component first
    swapped = Subspace(m2 + m1, ((row >> m1) | ((row & mask1) << m2) for row in u.basis))
    mask2 = (1 << m2) - 1
    left_kernel = Subspace(m1, (row >> m2 for row in swapped.basis if not (row & mask2)))

    # u.basis is in RREF, so the rows with pivot in factor 1 have first
    # components exactly left_image.basis; each such row is the member
    # (a, a*hom) for its basis vector a
    hom_rows = [0] * m1
    for p, row in zip(u.pivots, u.basis):
        if p < m1:
            hom_rows[p] = row >> m1
    return GoursatDecomposition(
        m1=m1,
        m2=m2,
        left_image=left_image,
        left_kernel=left_kernel,
        right_image=right_image,
        right_kernel=right_kernel,
        hom=tuple(hom_rows),
    )


def reconstruct(g: GoursatDecomposition) -> Subspace:
    """The subspace {(a, a*hom + d)}; inverse of decompose on valid data.
    ``decompose`` builds valid data, so this is the one ``validate`` call."""
    g.validate()
    rows = [a | (matrix_apply(g.hom, a) << g.m1) for a in g.left_image.basis]
    rows += [d << g.m1 for d in g.right_kernel.basis]
    return Subspace(g.m1 + g.m2, rows)


def _level_report(g: GoursatDecomposition, source: Subspace, with_hom: bool = True) -> dict:
    """Dimensions of one tower level; ``roundtrip_ok`` compares the
    reconstruction with ``source``, the subspace that was decomposed."""
    report = {
        "m1": g.m1,
        "m2": g.m2,
        "left_image_dim": g.left_image.dim,
        "left_kernel_dim": g.left_kernel.dim,
        "right_image_dim": g.right_image.dim,
        "right_kernel_dim": g.right_kernel.dim,
        "quotient_dim": g.quotient_dim,
        "roundtrip_ok": reconstruct(g) == source,
    }
    if with_hom:
        report["hom_rows"] = [vec_to_hex(r, g.m2) for r in g.hom]
    return report


def tower_report(u: Subspace, with_hom: bool = False) -> dict:
    """JSON-ready summary of the full tower over a subspace of V^4."""
    if u.m % 4:
        raise ValueError(f"ambient dimension {u.m} is not divisible by 4")
    n = u.m // 4
    g = decompose(u, 2 * n, 2 * n)
    top = _level_report(g, u, with_hom)
    return {
        "ambient": u.m,
        "word_bits": n,
        "dim": u.dim,
        "top": top,
        "left_image_split": _level_report(decompose(g.left_image, n, n), g.left_image, with_hom),
        "right_kernel_split": _level_report(decompose(g.right_kernel, n, n), g.right_kernel, with_hom),
        "roundtrip_ok": top["roundtrip_ok"],
    }
