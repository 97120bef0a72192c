"""
The four-word key-schedule operator
===================================

One AES-128 round-key transformation is a chained XOR of the four words
with the rotated-and-substituted last word folded in, followed by a
round-constant translation.  This script walks the operator, its inverse,
and the bit-exact agreement with the word-by-word FIPS-197 recurrence.
"""

from ksgroup import fips197
from ksgroup.keyschedule import (
    aes128_expand_key,
    aes_core,
    ks_apply,
    ks_inverse,
    ks_power,
    state_from_hex,
    state_to_hex,
    unflatten_state,
    word_from_bytes,
    word_to_hex,
)

rho = aes_core()

# A state is one packed 128-bit int, word 1 in the low bits.  The operator
# and its inverse are exact mirror images.
st = state_from_hex("000102030405060708090a0b0c0d0e0f")
fwd = ks_apply(rho, st)
print("state     :", state_to_hex(st))
print("one step  :", state_to_hex(fwd))
print("undone    :", state_to_hex(ks_inverse(rho, fwd)))

# Feeding a state that is zero except in the last word (d << 96) shows the
# structure: the substituted word appears in every output slot.
d = 0xDEADBEEF
print("\n(0,0,0,d) one step :", [word_to_hex(w) for w in unflatten_state(ks_apply(rho, d << 96))])
print("(0,0,0,d) power -3 :", [word_to_hex(w) for w in unflatten_state(ks_power(rho, d << 96, -3))])
# Their XOR collapses back onto the last slot: (0, 0, 0, rho(d)).

# Full expansion matches the FIPS-197 recurrence round by round.
key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
model = aes128_expand_key(state_from_hex(key.hex()))
reference = fips197.round_keys(key)
agree = all(
    unflatten_state(model[r]) == tuple(word_from_bytes(w) for w in reference[r]) for r in range(11)
)
print(f"\noperator model == FIPS-197 on all 11 round keys: {agree}")
for r in (0, 1, 10):
    print(f"  round {r:2d}: {' '.join(word_to_hex(w) for w in unflatten_state(model[r]))}")
