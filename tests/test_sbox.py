"""S-box property checks: DDT oracles, uniformity, anti-invariance, equivalence."""

import itertools
import random

import pytest

from ksgroup.gf2 import Subspace, enumerate_subspaces
from ksgroup.invariants import random_affine_word_permutation
from ksgroup.keyschedule import PermutationOracle
from ksgroup.sbox import (
    AES_SBOX,
    SBoxError,
    SBoxFormatError,
    anti_invariance_order,
    audit_sbox,
    ddt,
    differential_profile,
    gf_mul,
    inversion_sbox,
    parse_sbox_text,
)

# ---------------------------------------------------------------------
# Oracles


def apply_affine_equiv(sb, pre, post):
    """The table x -> post(f(pre(x))) for oracles pre and post."""
    t = sb.table()
    return PermutationOracle.from_table([post.forward(t[pre.forward(x)]) for x in range(len(t))])


def brute_ddt(table):
    """Dictionary-of-counts DDT, no shared code with the package path."""
    n = len(table)
    counts = {}
    for a in range(n):
        for x in range(n):
            key = (a, table[x] ^ table[x ^ a])
            counts[key] = counts.get(key, 0) + 1
    return counts


def brute_uniformity(table):
    counts = brute_ddt(table)
    return max(c for (a, _), c in counts.items() if a != 0)


def reference_aes_sbox():
    """Multiplicative inverse in GF(2^8) followed by the standard affine step."""
    out = []
    for x in range(256):
        inv = 0
        if x:
            for y in range(1, 256):
                if gf_mul(x, y, 0x11B, 8) == 1:
                    inv = y
                    break
        b = inv
        res = 0x63
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
            ) & 1
            res ^= bit << i
        out.append(res)
    return out


# ---------------------------------------------------------------------
# Construction


def test_rejects_non_bijective():
    with pytest.raises(ValueError):
        PermutationOracle.from_table([0, 0, 1, 2])


def test_rejects_bad_length():
    with pytest.raises(ValueError):
        PermutationOracle.from_table([0, 1, 2])


def test_aes_table_matches_field_construction():
    assert list(AES_SBOX.table()) == reference_aes_sbox()
    assert AES_SBOX.forward(0) == 0x63
    assert AES_SBOX.forward(0x53) == 0xED


# ---------------------------------------------------------------------
# DDT


def test_ddt_identity_s2():
    table = ddt(PermutationOracle.from_table(range(4)))
    for a in range(4):
        assert table[a][a] == 4
        assert sum(table[a]) == 4


def test_ddt_structural_invariants():
    rng = random.Random(5)
    perm = list(range(16))
    rng.shuffle(perm)
    for sb in (PermutationOracle.from_table(perm), inversion_sbox(4, 0b10011)):
        t = ddt(sb)
        n = len(sb.table())
        assert t[0][0] == n and sum(t[0]) == n
        for row in t:
            assert sum(row) == n
            assert all(c % 2 == 0 for c in row)


def test_ddt_matches_brute_oracle():
    rng = random.Random(17)
    perm = list(range(16))
    rng.shuffle(perm)
    sb = PermutationOracle.from_table(perm)
    counts = brute_ddt(sb.table())
    t = ddt(sb)
    for a in range(16):
        for b in range(16):
            assert t[a][b] == counts.get((a, b), 0)


def test_aes_max_entry_is_4():
    assert max(max(row) for row in ddt(AES_SBOX)[1:]) == 4


def test_inversion_gf8_max_entry_is_2():
    sb = inversion_sbox(3, 0b1011)
    assert brute_uniformity(sb.table()) == 2
    assert max(max(row) for row in ddt(sb)[1:]) == 2


# ---------------------------------------------------------------------
# Differential uniformity


def test_uniformity_identity_s3():
    assert differential_profile(PermutationOracle.from_table(range(8))).delta == 8


def test_uniformity_aes():
    assert differential_profile(AES_SBOX).delta == 4


def test_uniformity_inversion_gf8():
    assert differential_profile(inversion_sbox(3, 0b1011)).delta == 2


def test_profile_image_bound():
    p = differential_profile(AES_SBOX)
    assert p.min_derivative_image * p.delta >= 256


def test_uniformity_invariant_under_inversion():
    rng = random.Random(23)
    for s in (4, 5):
        perm = list(range(1 << s))
        for _ in range(5):
            rng.shuffle(perm)
            sb = PermutationOracle.from_table(perm)
            inverse = PermutationOracle(s, sb.backward, sb.forward)
            assert differential_profile(inverse).delta == differential_profile(sb).delta


# ---------------------------------------------------------------------
# Anti-invariance


def test_anti_invariance_max0_vacuous():
    rng = random.Random(1)
    perm = list(range(16))
    rng.shuffle(perm)
    perm[perm.index(0)], perm[0] = perm[0], 0
    assert anti_invariance_order(PermutationOracle.from_table(perm), 0).order == 0


def test_anti_invariance_linear_map_is_zero():
    rng = random.Random(9)
    sb = random_affine_word_permutation(4, rng).normalized()
    res = anti_invariance_order(sb, 3)
    # hyperplanes map onto subspaces under a linear bijection
    assert res.order == 0
    assert res.witness is not None and res.witness.dim == 3


def test_anti_invariance_requires_fixed_zero():
    with pytest.raises(SBoxError):
        anti_invariance_order(AES_SBOX, 1)


def test_aes_normalized_at_least_1_anti_invariant():
    res = anti_invariance_order(AES_SBOX.normalized(), 1)
    assert res.order == 1
    assert res.witness is None


def test_witness_invariant():
    # order < max_tested => witness has dim s-order-1 and a subspace image
    rng = random.Random(31)
    for _ in range(10):
        perm = list(range(16))
        rng.shuffle(perm)
        perm[perm.index(0)], perm[0] = perm[0], 0
        sb = PermutationOracle.from_table(perm)
        res = anti_invariance_order(sb, 3)
        if res.order < res.max_tested:
            w = res.witness
            assert w is not None and w.dim == 4 - res.order - 1
            image = {sb.forward(x) for x in w.elements()}
            assert len(image) == 1 << Subspace(4, image).dim
        else:
            assert res.witness is None


def test_anti_invariance_invariant_under_linear_equivalence():
    # offset-free pre/post followed by the offset restoring f(0)=0,
    # exhaustively recomputed at s=4
    rng = random.Random(47)
    perm = list(range(16))
    rng.shuffle(perm)
    perm[perm.index(0)], perm[0] = perm[0], 0
    sb = PermutationOracle.from_table(perm)
    base = anti_invariance_order(sb, 3).order
    for _ in range(8):
        pre = random_affine_word_permutation(4, rng).normalized()
        post = random_affine_word_permutation(4, rng).normalized()
        eq = apply_affine_equiv(sb, pre, post).normalized()
        assert anti_invariance_order(eq, 3).order == base


class Counting(tuple):
    """A table that counts how often it is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def whole_span_anti_invariance(table, max_delta):
    """(order, witness) by the whole-span rule: the first W of dimension
    s-k, k = 1, 2, ..., whose 2^(s-k) images span only s-k dimensions."""
    s = (len(table) - 1).bit_length()
    for k in range(1, max_delta + 1):
        for w in enumerate_subspaces(s, dims=(s - k,)):
            if Subspace(s, (table[x] for x in w.elements())).dim == s - k:
                return k - 1, w
    return max_delta, None


def test_anti_invariance_stops_each_image_past_d():
    # spanning every image of every candidate read the AES table 723 520
    # times at max_delta 2; stopping at the first image past d reads it 94 763
    aes = AES_SBOX.normalized()
    table = Counting(aes.table())
    res = anti_invariance_order(PermutationOracle(8, aes.forward, aes.backward, table=table), 2)
    assert (res.order, res.witness) == (2, None)
    assert table.reads == 94_763


def seeded_zero_fixing_tables(s, count, seed):
    rng = random.Random(seed)
    return [(0, *rng.sample(range(1, 1 << s), (1 << s) - 1)) for _ in range(count)]


@pytest.mark.parametrize("cases", [
    [(AES_SBOX.normalized().table(), 2)],
    [((0, *random.Random(0).sample(range(1, 256), 255)), 2)],
    [((0, *perm), 2) for perm in itertools.permutations(range(1, 8))],
    [(table, max_delta) for s in (4, 5) for table in seeded_zero_fixing_tables(s, 6, s)
     for max_delta in range(s)],
], ids=["aes", "shuffled", "every-3-bit", "seeded-4-and-5-bit"])
def test_anti_invariance_matches_the_whole_span_rule(cases):
    for table, max_delta in cases:
        res = anti_invariance_order(PermutationOracle.from_table(table), max_delta)
        assert (res.order, res.witness) == whole_span_anti_invariance(table, max_delta)


def test_aes_anti_invariance_order_3_with_a_witness_at_dim_4():
    res = anti_invariance_order(AES_SBOX.normalized(), 4)
    assert (res.order, res.max_tested) == (3, 4)
    assert res.witness.basis == (0x01, 0x0C, 0x50, 0xE0)
    assert res.witness.pivots == (0, 2, 4, 5)


# ---------------------------------------------------------------------
# Affine equivalence plumbing


def test_identity_equiv_is_identity():
    ident = PermutationOracle.from_table(range(256))
    assert apply_affine_equiv(AES_SBOX, ident, ident).table() == AES_SBOX.table()


def test_uniformity_invariant_under_affine_equiv():
    rng = random.Random(13)
    perm = list(range(16))
    rng.shuffle(perm)
    sb = PermutationOracle.from_table(perm)
    base = differential_profile(sb).delta
    for _ in range(5):
        pre = random_affine_word_permutation(4, rng)
        post = random_affine_word_permutation(4, rng)
        assert differential_profile(apply_affine_equiv(sb, pre, post)).delta == base


# ---------------------------------------------------------------------
# Audit and parsing


def test_audit_aes():
    audit = audit_sbox(AES_SBOX, max_delta=1)
    assert audit.delta == 4
    assert audit.anti.order == 1
    assert audit.normalization_offset == 0x63
    assert audit.fixed_points == ()


def test_parse_sbox_text_formats():
    sb = parse_sbox_text("0 1 3 2")
    assert sb.table() == (0, 1, 3, 2)
    sb = parse_sbox_text("00, 01,\n03, 02")
    assert sb.table() == (0, 1, 3, 2)


def test_parse_sbox_text_errors():
    with pytest.raises(SBoxFormatError):
        parse_sbox_text("zz 01 02 03")
    with pytest.raises(SBoxFormatError):
        parse_sbox_text("00 01 02")
    with pytest.raises(SBoxError):
        parse_sbox_text("00 00 01 02")
