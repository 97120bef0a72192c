"""Linear-block checks, minimal blocks, closure search, certificates."""

import random
from random import Random

import numpy as np
import pytest

from ksgroup.gf2 import CapacityError, Subspace, enumerate_subspaces
from ksgroup.invariants import (
    LP_CONVENTIONS,
    PermutationOracle,
    brick_invariant_sums,
    closure_search,
    is_affine,
    is_affine_sampled,
    is_linear_block,
    ks_oracle,
    linear_rows,
    lp_pattern_subspace,
    min_block,
    min_block_subspace,
    primitivity_check,
    random_affine_word_permutation,
    random_nonaffine_word_permutation,
    spn_primitivity_certificate,
    translation_oracle,
    verify_lp_subspace,
)
from ksgroup.keyschedule import aes_core, rot_bricks_left
from ksgroup.sbox import AES_SBOX, AffineMap, SBox

# ---------------------------------------------------------------------
# Helpers and oracles


def toy_ks_oracle(n, seed, affine=False, normalized=False):
    rng = Random(seed)
    if affine:
        rho = random_affine_word_permutation(n, rng)
    else:
        rho = random_nonaffine_word_permutation(n, rng)
    if normalized:
        rho = rho.normalized()
    return rho, ks_oracle(rho, 1)


def brute_coset_check(table, u: Subspace):
    """(U+v)f == U+vf for every coset, by raw set comparison."""
    members = list(u.elements())
    for v in range(len(table)):
        image = {table[um ^ v] for um in members}
        target = {um ^ table[v] for um in members}
        if image != target:
            return False
    return True


def deterministic_closure(table, m, v):
    """Smallest f-invariant subspace containing v.

    Grows the span one independent vector at a time; each growth step
    doubles the member set and enqueues the images of the new members, so
    every member's image is ingested exactly once.
    """
    table_np = np.asarray(table, dtype=np.uint32)
    rows = {}

    def insert(vec):
        for p, row in rows.items():
            if (vec >> p) & 1:
                vec ^= row
        if vec:
            p = (vec & -vec).bit_length() - 1
            for q, row in list(rows.items()):
                if (row >> p) & 1:
                    rows[q] = row ^ vec
            rows[p] = vec
        return vec

    members = np.zeros(1, dtype=np.uint32)
    queue = [v, int(table_np[0])]
    while queue and len(rows) < m:
        y = insert(queue.pop())
        if not y:
            continue
        fresh = members ^ np.uint32(y)
        imgs = np.unique(table_np[fresh])
        basis = [rows[p] for p in sorted(rows)]
        for row in basis:
            p = (row & -row).bit_length() - 1
            imgs = imgs ^ ((imgs >> np.uint32(p)) & np.uint32(1)) * np.uint32(row)
        queue.extend(int(t) for t in np.unique(imgs) if t)
        members = np.concatenate([members, fresh])
    return Subspace(m, rows.values())


def random_member(rng, s: Subspace) -> int:
    x = 0
    for row in s.basis:
        if rng.getrandbits(1):
            x ^= row
    return x


# ---------------------------------------------------------------------
# is_linear_block


def test_trivial_subspaces_are_blocks():
    _, oracle = toy_ks_oracle(3, 0)
    assert is_linear_block(oracle, Subspace.zero(12)).ok
    assert is_linear_block(oracle, Subspace.full(12)).ok


def test_translations_preserve_every_partition():
    rng = Random(1)
    for _ in range(10):
        t = rng.getrandbits(10) or 1
        oracle = translation_oracle(10, t)
        u = Subspace(10, [rng.getrandbits(10) for _ in range(3)])
        assert is_linear_block(oracle, u, mode="exhaustive").ok
        assert is_linear_block(oracle, u, mode="sampled", samples=500).ok


def test_exhaustive_matches_brute_coset_oracle():
    rng = Random(7)
    _, oracle = toy_ks_oracle(3, 7)
    table = oracle.table()
    for _ in range(8):
        u = Subspace(12, [rng.getrandbits(12) for _ in range(6)])
        expected = brute_coset_check(table, u)
        res = is_linear_block(oracle, u, mode="exhaustive")
        assert res.ok == expected
        if not expected:
            x, w = res.witness
            assert not u.contains(table[x ^ w] ^ table[x])


def test_exhaustive_true_case_from_affine_witness():
    _, oracle = toy_ks_oracle(3, 3, affine=True)
    verdict = primitivity_check([oracle], 12, method="subspace")
    assert verdict.status == "imprimitive"
    assert brute_coset_check(oracle.table(), verdict.witness)
    assert is_linear_block(oracle, verdict.witness).ok


def test_over_budget_is_inconclusive_not_false():
    oracle = ks_oracle(aes_core(), 1)  # m = 128
    res = is_linear_block(oracle, lp_pattern_subspace(), mode="exhaustive")
    assert res.ok is None
    assert "budget" in res.reason


def test_sampled_finds_violations():
    _, oracle = toy_ks_oracle(3, 11)
    rng = Random(2)
    # a random dim-6 subspace is essentially never a block for a random rho
    u = Subspace(12, [rng.getrandbits(12) for _ in range(6)])
    if not brute_coset_check(oracle.table(), u):
        res = is_linear_block(oracle, u, mode="sampled", samples=4096, seed=5)
        assert res.ok is False


# ---------------------------------------------------------------------
# min_block (union-find)


def test_translations_only_minimal_block_is_span_v():
    for v in (1, 5, 12):
        res = min_block([], 4, v)
        assert res.points == (0, v)
        assert res.subspace == Subspace(4, [v])


def test_min_block_capacity_error():
    with pytest.raises(CapacityError):
        min_block([], 40, 1)


def test_min_block_matches_exhaustive_scan_identity_rho():
    # identity word map at n=2: the lifted operator is linear, so blocks
    # through 0 are exactly its invariant subspaces; scan all of F_2^8
    rho = PermutationOracle.from_table(list(range(4)), "identity")
    oracle = ks_oracle(rho, 1)
    table = oracle.table()
    invariant = [
        w for w in enumerate_subspaces(8)
        if all(w.contains(table[b]) for b in w.basis)
    ]
    rng = Random(9)
    for v in [1, 2, 7, 100, 255, rng.getrandbits(8) or 3]:
        candidates = [w for w in invariant if w.contains(v)]
        smallest = min(candidates, key=lambda w: w.dim)
        res = min_block([oracle], 8, v)
        assert res.subspace is not None  # with translations, blocks are subspaces
        assert res.subspace == smallest
        assert min_block_subspace([np.array(table, dtype=np.uint32)], 8, v) == smallest


def test_min_block_agrees_with_subspace_closure_nonlinear():
    for seed in (4, 5):
        _, oracle = toy_ks_oracle(3, seed)
        table = np.array(oracle.table(), dtype=np.uint32)
        rng = Random(seed)
        for v in [1, rng.getrandbits(12) or 2, rng.getrandbits(12) or 3]:
            uf = min_block([oracle], 12, v)
            fast = min_block_subspace([table], 12, v)
            assert uf.subspace is not None
            assert uf.subspace == fast


def test_min_block_primitive_toy_reaches_full_space():
    rho, oracle = toy_ks_oracle(3, 21)
    base = primitivity_check(
        [PermutationOracle.from_table(rho.table(), "rho")], 3, method="unionfind"
    )
    if base.status == "primitive":
        for v in (1, 77, 4000):
            res = min_block([oracle], 12, v)
            assert len(res.points) == 1 << 12


# ---------------------------------------------------------------------
# primitivity_check


def test_base_verdict_inversion_gf8():
    # record the computed verdict; on Primitive the lift must be Primitive
    from ksgroup.sbox import inversion_sbox

    inv = inversion_sbox(3, 0b1011)
    rho = PermutationOracle.from_table(inv.table, "inversion-gf8")
    oracle = PermutationOracle.from_table(inv.table, "inversion-gf8")
    base = primitivity_check([oracle], 3, method="unionfind")
    assert base.pairs_checked <= 7
    assert base.status in ("primitive", "imprimitive")
    lifted = primitivity_check([ks_oracle(rho, 1)], 12, method="subspace")
    aff = is_affine(oracle)
    assert aff is False
    if base.status == "primitive":
        assert lifted.status == "primitive"
        assert lifted.pairs_checked == 4095


def test_affine_rho_lifts_imprimitive_with_certified_witness():
    rng = Random(31)
    found = 0
    for _ in range(12):
        rho = random_affine_word_permutation(3, rng)
        verdict = primitivity_check([ks_oracle(rho, 1)], 12, method="subspace")
        if verdict.status == "imprimitive":
            found += 1
            assert verdict.witness_certified
            assert not verdict.witness.is_trivial
        if found >= 3:
            break
    assert found >= 3


def test_unionfind_and_subspace_methods_agree():
    # n=2 keeps the union-find run over all 255 pairs cheap
    for seed in (1, 2, 3):
        rng = Random(seed)
        rho = random_affine_word_permutation(2, rng)  # n=2: all perms affine
        oracle = ks_oracle(rho, 1)
        a = primitivity_check([oracle], 8, method="unionfind")
        b = primitivity_check([oracle], 8, method="subspace")
        assert a.status == b.status
        if a.status == "imprimitive":
            assert a.witness == b.witness  # both scan v in the same order


def test_over_budget_inconclusive():
    verdict = primitivity_check([ks_oracle(aes_core(), 1)], 128)
    assert verdict.status == "inconclusive"
    assert "budget" in verdict.reason


def test_witness_cosets_permuted_by_translations():
    # any block system found for <f, T> is in particular one for T alone
    _, oracle = toy_ks_oracle(3, 3, affine=True)
    verdict = primitivity_check([oracle], 12, method="subspace")
    assert verdict.status == "imprimitive"
    u = verdict.witness
    members = set(u.elements())
    rng = Random(4)
    for i in range(12):
        t = 1 << i
        v = rng.getrandbits(12)
        image = {x ^ t for x in {um ^ v for um in members}}
        rep = next(iter(image))
        assert image == {um ^ rep for um in members}


# ---------------------------------------------------------------------
# closure_search


def test_closure_zero_seed_stays_zero():
    _, oracle = toy_ks_oracle(3, 6, normalized=True)
    res = closure_search(oracle, [0], samples_per_round=32, stable_rounds=4)
    assert res.subspace == Subspace.zero(12)
    assert res.fresh_invariance_ok


def test_closure_requires_fixed_zero():
    with pytest.raises(ValueError):
        closure_search(ks_oracle(aes_core(), 1), [1])


def test_closure_stop_reasons():
    oracle = ks_oracle(aes_core().normalized(), 1)
    full = closure_search(oracle, [1], seed=1)
    assert (full.stop_reason, full.reached_full, full.proper) == ("full", True, False)
    for kwargs, reason in (
        ({"budget_ms": 0}, "budget"),
        ({"max_rounds": 0}, "max-rounds"),
        ({"samples_per_round": 0, "stable_rounds": 3}, "stable"),
    ):
        res = closure_search(oracle, [1], **kwargs)
        assert res.stop_reason == reason
        assert not res.proper  # dim 1 is not invariant: nothing certified
    lp = lp_pattern_subspace()
    res = closure_search(ks_oracle(aes_core().normalized(), 4), [lp.basis[0]])
    assert res.stop_reason == "stable" and res.proper


def test_closure_contains_seed_span():
    _, oracle = toy_ks_oracle(3, 8, normalized=True)
    rng = Random(3)
    seeds = [rng.getrandbits(12) for _ in range(2)]
    res = closure_search(oracle, seeds, samples_per_round=64, stable_rounds=8)
    for s in seeds:
        assert res.subspace.contains(s)


def test_closure_full_space_for_random_rho_no_proper_invariant():
    # deterministic sweep oracle: forward closure of every nonzero point;
    # pick a rho certified to have no proper nonzero invariant subspace
    # (a random normalized table occasionally has one, e.g. when the
    # all-ones word is fixed)
    chosen = None
    for seed in range(30):
        _, oracle = toy_ks_oracle(3, seed, normalized=True)
        table = oracle.table()
        if all(
            deterministic_closure(table, 12, v).dim == 12
            for v in range(1, 1 << 12)
        ):
            chosen = oracle
            break
    assert chosen is not None
    rng = Random(14)
    for _ in range(3):
        res = closure_search(chosen, [rng.getrandbits(12) or 1], stable_rounds=8)
        assert res.reached_full


def test_closure_stays_inside_existing_invariant_subspace():
    # seed 13 produces a normalized rho with a proper invariant subspace;
    # a closure seeded inside it must stay proper
    _, oracle = toy_ks_oracle(3, 13, normalized=True)
    table = oracle.table()
    det = deterministic_closure(table, 12, 7)
    if det.dim < 12:
        res = closure_search(oracle, [7], stable_rounds=8)
        assert not res.reached_full
        assert all(det.contains(b) for b in res.subspace.basis)


def test_closure_fresh_invariance_reported():
    _, oracle = toy_ks_oracle(3, 15, normalized=True)
    res = closure_search(oracle, [1], stable_rounds=8)
    assert res.fresh_invariance_ok


def test_closure_matches_deterministic_closure_on_invariant_case():
    # raw operator yields the witness block; its offset-normalized form
    # fixes 0, and the witness is an invariant subspace for that form
    rho, raw_oracle = toy_ks_oracle(3, 3, affine=True)
    verdict = primitivity_check([raw_oracle], 12, method="subspace")
    norm_oracle = ks_oracle(rho.normalized(), 1)
    table = norm_oracle.table()
    seed_vec = verdict.witness.basis[0]
    det = deterministic_closure(table, 12, seed_vec)
    res = closure_search(norm_oracle, [seed_vec], stable_rounds=16)
    assert det.sum(res.subspace).dim <= verdict.witness.dim
    # the Monte-Carlo result is invariant and inside the witness block
    for b in res.subspace.basis:
        assert verdict.witness.contains(b)


# ---------------------------------------------------------------------
# Brick sums


ROT1 = linear_rows(lambda x: rot_bricks_left(x, 8, 4), 32)
ROT2 = linear_rows(lambda x: rot_bricks_left(rot_bricks_left(x, 8, 4), 8, 4), 32)
IDENT = linear_rows(lambda x: x, 32)


def test_rotation_fixes_no_brick_subset():
    assert brick_invariant_sums(ROT1, 8, 4) == []


def test_double_rotation_fixes_alternating_pairs():
    assert brick_invariant_sums(ROT2, 8, 4) == [(0, 2), (1, 3)]


def test_identity_fixes_all_subsets():
    assert len(brick_invariant_sums(IDENT, 8, 4)) == 14


def test_brick_width_mismatch():
    with pytest.raises(ValueError):
        brick_invariant_sums(ROT1, 8, 3)


# ---------------------------------------------------------------------
# Affineness


def test_translation_is_affine():
    assert is_affine(translation_oracle(8, 42))
    assert is_affine_sampled(translation_oracle(16, 9), samples=1000)


def test_aes_core_not_affine_sampled():
    rho = aes_core()
    oracle = PermutationOracle(32, rho.forward, rho.backward, "aes-core")
    assert is_affine_sampled(oracle, samples=10_000, seed=3) is False


def test_inversion_gf8_not_affine():
    from ksgroup.sbox import inversion_sbox

    table = inversion_sbox(3, 0b1011).table
    oracle = PermutationOracle.from_table(table, "inversion")
    assert is_affine(oracle) is False
    # exhaustive triple-check oracle over all 512 triples
    violations = sum(
        1
        for x in range(8)
        for y in range(8)
        for z in range(8)
        if table[x ^ y ^ z] != table[x] ^ table[y] ^ table[z]
    )
    assert violations > 0


def test_exact_affineness_agrees_with_triple_oracle():
    rng = Random(17)
    for _ in range(10):
        perm = list(range(16))
        rng.shuffle(perm)
        oracle = PermutationOracle.from_table(perm, "t")
        brute = all(
            perm[x ^ y ^ z] == perm[x] ^ perm[y] ^ perm[z]
            for x in range(16)
            for y in range(16)
            for z in range(16)
        )
        assert is_affine(oracle) == brute


def test_random_nonaffine_generator_rejects_small_n():
    with pytest.raises(ValueError):
        random_nonaffine_word_permutation(2, Random(0))


# ---------------------------------------------------------------------
# Certificate


def test_certificate_aes_rotword_passes():
    cert = spn_primitivity_certificate(AES_SBOX, ROT1, delta=2)
    assert cert.passed
    assert cert.failing() == []


def test_certificate_linear_sbox_fails_anti_clause():
    rng = Random(23)
    lin = AffineMap.random(8, rng, with_offset=False)
    sb = SBox([lin(x) for x in range(256)])
    cert = spn_primitivity_certificate(sb, ROT1, delta=2)
    assert not cert.passed
    assert "anti-invariance" in cert.failing()


def test_certificate_double_rotation_fails_brick_clause():
    cert = spn_primitivity_certificate(AES_SBOX, ROT2, delta=2)
    assert not cert.passed
    assert "brick-sums" in cert.failing()
    clause = next(c for c in cert.clauses if c.name == "brick-sums")
    assert clause.witness == (0, 2)


# ---------------------------------------------------------------------
# The pattern subspace


def test_lp_subspace_dim_32_and_contains_zero():
    u = lp_pattern_subspace()
    assert u.dim == 32
    assert u.contains(0)


def test_lp_conventions_all_constructible():
    for name in LP_CONVENTIONS:
        assert lp_pattern_subspace(name).dim == 32


def test_lp_invariance_resolved_convention():
    rep = verify_lp_subspace(samples=500, seed=2, run_closure=False)
    assert rep.resolved_convention == "word-major"
    assert rep.failures == 0
    assert rep.screening["word-major"] == 0
    assert all(fails > 0 for name, fails in rep.screening.items() if name != "word-major")


def test_lp_zero_maps_to_zero():
    oracle = ks_oracle(aes_core().normalized(), power=4)
    assert oracle.forward(0) == 0
