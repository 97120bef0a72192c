"""Group-theoretic analysis toolkit for AES-like key schedules over GF(2).

Layout:

* ``gf2``          exact subspace linear algebra (int-packed bit vectors); the
                   one incremental elimination kernel and random-member sampler
* ``sbox``         differential uniformity and subspace anti-invariance
* ``keyschedule``  ``PermutationOracle`` (the bijection type), the four-word
                   key-schedule operator and AES-128 expansion
* ``fips197``      independent word-level reference expansion
* ``goursat``      decomposition of subspaces of direct products
* ``invariants``   linear blocks, minimal blocks, primitivity, closure search
* ``cli``          the ``ksgroup`` command
"""

from .gf2 import Subspace, enumerate_subspaces, gaussian_binomial
from .goursat import GoursatDecomposition, GoursatTower, decompose, reconstruct, tower_decompose
from .invariants import (
    BlockVerdict,
    closure_search,
    is_affine,
    is_linear_block,
    ks_oracle,
    lp_pattern_subspace,
    min_block,
    primitivity_check,
    spn_primitivity_certificate,
    verify_lp_subspace,
)
from .keyschedule import (
    PermutationOracle,
    aes128_expand_key,
    aes_core,
    ks_apply,
    ks_inverse,
    ks_power,
    translate,
)
from .sbox import (
    AES_SBOX,
    AffineMap,
    SBox,
    anti_invariance_order,
    ddt,
    differential_uniformity,
)

__all__ = [
    "AES_SBOX",
    "AffineMap",
    "BlockVerdict",
    "GoursatDecomposition",
    "GoursatTower",
    "PermutationOracle",
    "SBox",
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
    "ks_power",
    "lp_pattern_subspace",
    "min_block",
    "primitivity_check",
    "reconstruct",
    "spn_primitivity_certificate",
    "tower_decompose",
    "translate",
    "verify_lp_subspace",
]
