"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Criterion 7 is the long one (several minutes); the whole
module must finish green for the artifact to be considered done.
"""

import time
from random import Random

from ksgroup import fips197
from ksgroup.gf2 import Subspace, enumerate_subspaces, vec_from_hex
from ksgroup.goursat import decompose, reconstruct
from ksgroup.invariants import (
    PermutationOracle,
    brick_invariant_sums,
    closure_search,
    is_linear_block,
    ks_oracle,
    lp_pattern_subspace,
    primitivity_check,
    random_affine_word_permutation,
    random_nonaffine_word_permutation,
    spn_primitivity_certificate,
    verify_lp_subspace,
)
from ksgroup.keyschedule import (
    aes128_expand_key,
    aes_core,
    ks_apply,
    ks_inverse,
    unflatten_state,
)
from ksgroup.sbox import AES_SBOX, ddt, anti_invariance_order
from test_gf2 import gaussian_binomial
from test_invariants import linear_rows, rot_bricks_left


def verdict(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------


def test_criterion_1_aes_differential_uniformity():
    t0 = time.perf_counter()
    table = ddt(AES_SBOX)
    delta = max(max(row) for row in table[1:])
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        delta == 4 and elapsed < 1.0,
        f"AES differential uniformity {delta} from the full DDT in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_aes_one_anti_invariant():
    t0 = time.perf_counter()
    f = AES_SBOX.normalized()
    # direct check: every one of the 255 hyperplane images fails closure
    hyperplanes = list(enumerate_subspaces(8, dims=(7,)))
    assert len(hyperplanes) == 255
    failing = 0
    for w in hyperplanes:
        image = {f.forward(x) for x in w.elements()}
        if len(image) < (1 << Subspace(8, image).dim):
            failing += 1
    order = anti_invariance_order(f, 1).order
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        failing == 255 and order == 1 and elapsed < 5.0,
        f"{failing}/255 hyperplane images fail subspace closure, order={order}, "
        f"in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_certificate_clauses():
    rot1 = linear_rows(lambda x: rot_bricks_left(x, 8, 4), 32)
    rot2 = linear_rows(lambda x: rot_bricks_left(rot_bricks_left(x, 8, 4), 8, 4), 32)
    cert = spn_primitivity_certificate(AES_SBOX, rot1, delta=2)
    cert2 = spn_primitivity_certificate(AES_SBOX, rot2, delta=2)
    brick2 = next(c for c in cert2.clauses if c.name == "brick-sums")
    ident_sums = brick_invariant_sums(linear_rows(lambda x: x, 32), 8, 4)
    ok = (
        cert.passed
        and not brick2.passed
        and brick2.witness == (0, 2)
        and len(ident_sums) == 14
    )
    verdict(
        3,
        ok,
        "certificate (delta=2) passes for the byte rotation; double rotation "
        f"fails the brick clause with witness bricks {brick2.witness}; "
        f"the identity (4th power) fixes all {len(ident_sums)} subsets",
    )


def test_criterion_4_fips_agreement():
    # the reference itself is pinned by the appendix vectors in
    # test_keyschedule; here: model vs reference, standard + 1000 random keys
    rng = Random(404)
    keys = [bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")]
    keys += [rng.getrandbits(128).to_bytes(16, "big") for _ in range(1000)]
    checked = 0
    for key in keys:
        ref = fips197.round_keys(key)
        model = aes128_expand_key(vec_from_hex(key.hex(), 128))
        for i in range(1, 11):
            assert unflatten_state(model[i]) == tuple(int.from_bytes(bytes(w), "little") for w in ref[i])
            checked += 1
    verdict(
        4,
        checked == 1001 * 10,
        f"operator model == FIPS-197 recurrence on {checked} round steps "
        "(standard key + 1000 random keys), bit-exact",
    )


def test_criterion_5_operator_identities():
    # exhaustive inverse at n=3
    rng = Random(55)
    table = list(range(8))
    rng.shuffle(table)
    toy = PermutationOracle.from_table(table, "toy")
    for x in range(1 << 12):
        assert ks_inverse(toy, ks_apply(toy, x)) == x
    # 10^5 random states at n=32
    rho = aes_core()
    for _ in range(10**5):
        x = rng.getrandbits(128)
        assert ks_inverse(rho, ks_apply(rho, x)) == x
    # chained identities: forward, third inverse power, and their sum
    def identities_hold(r, back3, d):
        n = r.m
        t = r.forward(d)
        fwd = ks_apply(r, d << 3 * n)
        bwd = back3(d << 3 * n)
        return (
            unflatten_state(fwd, n) == (t, t, t, d ^ t)
            and unflatten_state(bwd, n) == (t, t, t, d)
            and fwd ^ bwd == t << 3 * n
        )

    toy_back3, back3 = ks_oracle(toy, -3).forward, ks_oracle(rho, -3).forward
    assert all(identities_hold(toy, toy_back3, d) for d in range(8))
    assert all(identities_hold(rho, back3, rng.getrandbits(32)) for _ in range(10**4))
    verdict(
        5,
        True,
        "inverse exhaustive at n=3 (4096 states) + 10^5 random at n=32; "
        "last-word identities for all d at n=3 and 10^4 random d at n=32",
    )


def test_criterion_6_goursat_roundtrip():
    t0 = time.perf_counter()
    count = 0
    for u in enumerate_subspaces(4):
        g = decompose(u, 2, 2)
        assert reconstruct(g) == u
        assert g.left_image.dim - g.left_kernel.dim == g.right_image.dim - g.right_kernel.dim
        count += 1
    expected = sum(gaussian_binomial(4, k) for k in range(5))
    assert count == expected == 67
    rng = Random(66)
    for _ in range(10**4):
        u = Subspace(12, [rng.getrandbits(12) for _ in range(rng.randint(0, 9))])
        g = decompose(u, 6, 6)
        assert reconstruct(g) == u
        assert g.left_image.dim - g.left_kernel.dim == g.right_image.dim - g.right_kernel.dim
    elapsed = time.perf_counter() - t0
    verdict(
        6,
        elapsed < 10.0,
        f"round-trip identity on all 67 subspaces of F_2^4 (count matches the "
        f"Gaussian-binomial oracle) and 10^4 random subspaces of F_2^12, "
        f"quotient dims equal throughout, in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_7_toy_primitivity_reduction():
    t0 = time.perf_counter()
    rng = Random(777)
    lifted_primitive = 0
    attempts = 0
    while lifted_primitive < 20 and attempts < 200:
        attempts += 1
        rho = random_nonaffine_word_permutation(3, rng)
        base = primitivity_check(PermutationOracle.from_table(rho.table(), "rho"))
        if base.status != "primitive":
            continue
        lifted = primitivity_check(ks_oracle(rho, 1))
        assert lifted.status == "primitive", "reduction prediction violated"
        assert lifted.pairs_checked == 4095
        lifted_primitive += 1

    affine_imprimitive = 0
    affine_attempts = 0
    while affine_imprimitive < 5 and affine_attempts < 40:
        affine_attempts += 1
        rho = random_affine_word_permutation(3, rng)
        lifted = primitivity_check(ks_oracle(rho, 1))
        if lifted.status == "imprimitive":
            assert lifted.witness_certified  # witness re-passed is_linear_block
            assert not lifted.witness.is_trivial
            affine_imprimitive += 1
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        lifted_primitive >= 20 and affine_imprimitive >= 5 and elapsed < 600,
        f"{lifted_primitive} base-primitive non-affine toy maps lifted Primitive "
        f"(all 4095 seeds decided each); {affine_imprimitive}/{affine_attempts} "
        f"affine maps lifted Imprimitive with certified witnesses; "
        f"total {elapsed:.1f}s (< 600s)",
    )


def test_criterion_8_lp_subspace():
    rep = verify_lp_subspace(samples=10**4, seed=8, run_closure=True)
    assert rep.resolved_convention == "word-major"
    assert rep.failures == 0
    assert rep.closure_dim is not None and rep.closure_dim <= 32
    assert rep.closure_contained

    # power-1 closures from 100 random seeds must all reach the full space
    oracle = ks_oracle(aes_core().normalized(), power=1)
    rng = Random(88)
    full = 0
    for _ in range(100):
        res = closure_search(oracle, [rng.getrandbits(128) or 1], seed=rng.getrandbits(30))
        if res.reached_full:
            full += 1
    verdict(
        8,
        full == 100,
        f"pattern subspace invariant under the 4th power on 10^4 samples "
        f"(0 failures, convention {rep.resolved_convention}); closure inside it "
        f"stays proper (dim {rep.closure_dim}); {full}/100 power-1 closures "
        "reach the full space",
    )


def test_criterion_9_full_scale_substitution():
    # the 2^128-point exhaustive check must refuse rather than extrapolate
    big = primitivity_check(ks_oracle(aes_core(), 1))
    assert big.status == "inconclusive"
    assert "budget" in big.reason

    # self-certifying witnesses: an imprimitive verdict's witness passes the
    # exhaustive linear-block check for the generating oracle
    rng = Random(99)
    rho = random_affine_word_permutation(3, rng)
    oracle = ks_oracle(rho, 1)
    lifted = primitivity_check(oracle)
    assert lifted.status == "imprimitive"
    res = is_linear_block(oracle, lifted.witness, mode="exhaustive")
    assert res.ok is True
    verdict(
        9,
        True,
        "full-scale exhaustive check refuses (Inconclusive, never a false "
        "verdict); imprimitivity witnesses are self-certifying via the "
        "exhaustive linear-block check (criteria 7-8 stand in for the "
        "uncomputable full-scale statement)",
    )
