"""Group-theoretic analysis toolkit for AES-like key schedules over GF(2).

Layout:

* ``gf2``          exact subspace linear algebra (int-packed bit vectors); the
                   one incremental elimination kernel and random-member sampler
* ``keyschedule``  ``PermutationOracle`` (the one bijection type, S-boxes
                   and affine maps included, built whole with its array
                   twin, table and transversal), the AES S-box, the
                   key-schedule operator on packed 4n-bit states, its
                   oracle at any power and AES-128 expansion
* ``sbox``         differential uniformity and subspace anti-invariance of
                   S-box tables
* ``fips197``      independent word-level reference expansion
* ``goursat``      decomposition of subspaces of direct products
* ``invariants``   exact linear blocks, subspace minimal blocks and
                   primitivity of one oracle with the translations, the
                   one sampled invariance check, closure search
* ``cli``          the ``ksgroup`` command
"""
