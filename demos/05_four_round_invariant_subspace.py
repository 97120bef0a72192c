"""
The four-round invariant subspace at full AES-128 width
========================================================

One application of the key-schedule operator admits no invariant linear
partition, but its fourth power does: a 32-dimensional subspace built
from four free bytes survives four constant-free rounds.  The script
verifies the byte pattern by sampling, lets a Monte-Carlo closure search
rediscover the containment, and contrasts the first power, where every
closure blows up to the full 128-dimensional space.
"""

from random import Random

from ksgroup.invariants import closure_search, ks_oracle, lp_pattern_subspace, verify_lp_subspace
from ksgroup.keyschedule import aes_core

# Pattern verification: the slot-to-byte convention is screened first,
# then the surviving convention is sampled in full.
samples = 5000
report = verify_lp_subspace(samples=samples, seed=1)
print(f"convention screen: {report.screening}")
print(f"resolved: {report.resolved_convention} "
      f"({report.failures} failures in {samples} samples)")
print(f"closure seeded inside the subspace: dim {report.closure_dim}, "
      f"contained: {report.closure_contained}")

# Against the first power the same search escapes immediately.
oracle = ks_oracle(aes_core().normalized(), power=1)
rng = Random(7)
dims = []
for _ in range(5):
    res = closure_search(oracle, [rng.getrandbits(128) or 1], seed=rng.getrandbits(20))
    dims.append(res.subspace.dim)
print(f"\npower-1 closures from random seeds reach dims: {dims}")

u = lp_pattern_subspace()
print(f"\npattern subspace: dim {u.dim} of F_2^128, "
      f"{len(u.basis)} basis rows, contains 0: {u.contains(0)}")
