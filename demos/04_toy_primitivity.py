"""
Toy-scale primitivity: base group vs lifted operator group
===========================================================

At word width n=3 everything is exhaustively checkable: the base group
generated by a word permutation and all translations acts on 8 points,
the lifted operator group on 4096.  Whenever the base group is primitive
and the word map is not affine, the lifted group comes out primitive too;
affine word maps produce imprimitive lifts with a concrete block witness.
"""

from random import Random

from ksgroup.gf2 import vec_to_hex
from ksgroup.invariants import (
    is_affine,
    ks_oracle,
    primitivity_check,
    random_affine_word_permutation,
    random_nonaffine_word_permutation,
)

rng = Random(2024)

print("non-affine word maps:")
for trial in range(5):
    rho = random_nonaffine_word_permutation(3, rng)
    base = primitivity_check([rho], 3, method="unionfind")
    lifted = primitivity_check([ks_oracle(rho, 1)], 12, method="subspace")
    marker = ""
    if base.status == "primitive":
        marker = "  <- reduction predicts the lifted verdict"
        assert lifted.status == "primitive"
    print(f"  trial {trial}: base {base.status:12s} lifted {lifted.status:12s}{marker}")

print("\naffine word maps (lifted blocks shown as basis rows):")
for trial in range(3):
    rho = random_affine_word_permutation(3, rng)
    assert is_affine(rho)
    lifted = primitivity_check([ks_oracle(rho, 1)], 12, method="subspace")
    line = f"  trial {trial}: lifted {lifted.status}"
    if lifted.witness is not None:
        rows = ",".join(vec_to_hex(v, 12) for v in lifted.witness.basis[:4])
        line += f" (dim {lifted.witness.dim}, certified {lifted.witness_certified}, basis {rows},...)"
    print(line)
