"""
The four-word key-schedule operator
===================================

One AES-128 round-key transformation is a chained XOR of the four words
with the rotated-and-substituted last word folded in, followed by a
round-constant translation.  This script walks the operator, its inverse,
and the bit-exact agreement with the word-by-word FIPS-197 recurrence.
"""

from ksgroup import fips197
from ksgroup.gf2 import vec_from_hex, vec_to_hex
from ksgroup.keyschedule import (
    aes128_expand_key,
    aes_core,
    ks_apply,
    ks_inverse,
    ks_oracle,
    unflatten_state,
)

rho = aes_core()

# A state is one packed 128-bit int, word 1 in the low bits, written as
# hex by the same codec as any vector.  The operator and its inverse are
# exact mirror images.
st = vec_from_hex("000102030405060708090a0b0c0d0e0f", 128)
fwd = ks_apply(rho, st)
print("state     :", vec_to_hex(st, 128))
print("one step  :", vec_to_hex(fwd, 128))
print("undone    :", vec_to_hex(ks_inverse(rho, fwd), 128))

# Feeding a state that is zero except in the last word (d << 96) shows the
# structure: the substituted word appears in every output slot.
d = 0xDEADBEEF
print("\n(0,0,0,d) one step :", [vec_to_hex(w, 32) for w in unflatten_state(ks_apply(rho, d << 96))])
back3 = ks_oracle(rho, -3).forward(d << 96)
print("(0,0,0,d) power -3 :", [vec_to_hex(w, 32) for w in unflatten_state(back3)])
# Their XOR collapses back onto the last slot: (0, 0, 0, rho(d)).

# Full expansion matches the FIPS-197 recurrence round by round.
key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
model = aes128_expand_key(vec_from_hex(key.hex(), 128))
reference = fips197.round_keys(key)
agree = all(
    unflatten_state(model[r]) == tuple(int.from_bytes(bytes(w), "little") for w in reference[r])
    for r in range(11)
)
print(f"\noperator model == FIPS-197 on all 11 round keys: {agree}")
for r in (0, 1, 10):
    print(f"  round {r:2d}: {' '.join(vec_to_hex(w, 32) for w in unflatten_state(model[r]))}")
