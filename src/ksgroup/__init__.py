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

from .gf2 import Subspace, enumerate_subspaces, gaussian_binomial
from .goursat import GoursatDecomposition, GoursatTower, decompose, reconstruct, tower_decompose
from .invariants import (
    BlockVerdict,
    closure_search,
    is_affine,
    is_linear_block,
    lp_pattern_subspace,
    primitivity_check,
    spn_primitivity_certificate,
    verify_lp_subspace,
)
from .keyschedule import (
    AES_SBOX,
    PermutationOracle,
    aes128_expand_key,
    aes_core,
    ks_apply,
    ks_inverse,
    ks_oracle,
)
from .sbox import (
    anti_invariance_order,
    ddt,
    differential_uniformity,
)

__all__ = [
    "AES_SBOX",
    "BlockVerdict",
    "GoursatDecomposition",
    "GoursatTower",
    "PermutationOracle",
    "Subspace",
    "aes128_expand_key",
    "aes_core",
    "anti_invariance_order",
    "closure_search",
    "ddt",
    "decompose",
    "differential_uniformity",
    "enumerate_subspaces",
    "gaussian_binomial",
    "is_affine",
    "is_linear_block",
    "ks_apply",
    "ks_inverse",
    "ks_oracle",
    "lp_pattern_subspace",
    "primitivity_check",
    "reconstruct",
    "spn_primitivity_certificate",
    "tower_decompose",
    "verify_lp_subspace",
]
