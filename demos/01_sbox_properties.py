"""
S-box properties: difference counts and anti-invariance
========================================================

The two properties that drive the primitivity certificate, computed for
the AES SubBytes table and a couple of toy tables for contrast.
"""

from ksgroup.keyschedule import PermutationOracle
from ksgroup.sbox import (
    AES_SBOX,
    anti_invariance_order,
    ddt,
    differential_profile,
    inversion_sbox,
)

# Differential uniformity: the worst-case count of solutions to
# f(x) + f(x+a) = b over nonzero input differences a.
profile = differential_profile(AES_SBOX)
print(f"AES S-box: differential uniformity {profile.delta}, "
      f"smallest derivative image {profile.min_derivative_image}")

# The identity is as bad as it gets (every derivative is constant) ...
print("identity on 3 bits:", differential_profile(PermutationOracle.from_table(range(8))).delta)

# ... while field inversion in an odd dimension is as good as it gets.
inv = inversion_sbox(3, 0b1011)
print("inversion on GF(8):", differential_profile(inv).delta)

# A peek at one DDT row: row a lists how often each output difference
# occurs; rows always sum to 2^s and every entry is even.
row = ddt(AES_SBOX)[1]
print(f"AES DDT row a=1: max {max(row)}, nonzero entries {sum(1 for c in row if c)}")

# Anti-invariance needs a table fixing 0, so the AES table is shifted by
# its image of zero first.  Order k means: no subspace of dimension
# s-k .. s-1 maps onto a subspace.
fixed = AES_SBOX.normalized()
res = anti_invariance_order(fixed, max_delta=2)
print(f"AES (normalized): anti-invariance order {res.order} "
      f"(tested up to {res.max_tested})")

# A linear bijection maps hyperplanes onto hyperplanes, so its order is 0
# and the first hyperplane witnesses it.
lin = PermutationOracle.from_table(range(16))
res = anti_invariance_order(lin, max_delta=1)
print(f"identity on 4 bits: order {res.order}, witness dim "
      f"{res.witness.dim if res.witness else None}")
