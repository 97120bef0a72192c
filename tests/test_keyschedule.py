"""Operator model vs the FIPS-197 reference, and the operator identities."""

import random

import pytest

from ksgroup import fips197
from ksgroup.keyschedule import (
    PermutationOracle,
    State,
    WidthMismatch,
    aes128_expand_key,
    aes128_round_key_step,
    aes_core,
    flatten_state,
    ks_apply,
    ks_inverse,
    ks_power,
    rot_bricks_left,
    round_constant,
    state_from_hex,
    state_to_hex,
    translate,
    unflatten_state,
    word_from_bytes,
    word_to_bytes,
)
from ksgroup.sbox import AES_SBOX, AffineMap

S = AES_SBOX.table

# FIPS-197 Appendix A expanded key for 2b7e1516 28aed2a6 abf71588 09cf4f3c.
APPENDIX_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
APPENDIX_WORDS = [
    "2b7e1516", "28aed2a6", "abf71588", "09cf4f3c",
    "a0fafe17", "88542cb1", "23a33939", "2a6c7605",
    "f2c295f2", "7a96b943", "5935807a", "7359f67f",
    "3d80477d", "4716fe3e", "1e237e44", "6d7a883b",
    "ef44a541", "a8525b7f", "b671253b", "db0bad00",
    "d4d1c6f8", "7c839d87", "caf2b8bc", "11f915bc",
    "6d88a37a", "110b3efd", "dbf98641", "ca0093fd",
    "4e54f70e", "5f5fc9f3", "84a64fb2", "4ea6dc4f",
    "ead27321", "b58dbad2", "312bf560", "7f8d292f",
    "ac7766f3", "19fadc21", "28d12941", "575c006e",
    "d014f9a8", "c9ee2589", "e13f0cc8", "b6630ca6",
]


# The operator written as a formal 4x4 matrix of word maps; entry (i, j)
# is applied to input word i and folded into output word j.  A second
# evaluation path, so the closed formula of ks_apply can be cross-checked.
OPERATOR_MATRIX = (
    ("1", "1", "1", "1"),
    ("0", "1", "1", "1"),
    ("0", "0", "1", "1"),
    ("rho", "rho", "rho", "1+rho"),
)


def ks_apply_matrix(rho, st: State) -> State:
    out = [0, 0, 0, 0]
    for i, row in enumerate(OPERATOR_MATRIX):
        v = st[i]
        for j, entry in enumerate(row):
            if entry == "1":
                out[j] ^= v
            elif entry == "rho":
                out[j] ^= rho.forward(v)
            elif entry == "1+rho":
                out[j] ^= v ^ rho.forward(v)
    return tuple(out)


def fips_state(round_key) -> State:
    return tuple(word_from_bytes(w) for w in round_key)


def toy_rho(n, seed, require_nonaffine_zero_fix=False):
    rng = random.Random(seed)
    table = list(range(1 << n))
    rng.shuffle(table)
    if require_nonaffine_zero_fix:
        z = table.index(0)
        table[0], table[z] = table[z], table[0]
    return PermutationOracle.from_table(table, f"toy-{n}")


# ---------------------------------------------------------------------
# FIPS-197 reference oracle first


def test_fips_oracle_matches_appendix_vectors():
    words = fips197.expand_key_words(APPENDIX_KEY)
    assert [bytes(w).hex() for w in words] == APPENDIX_WORDS


def test_fips_oracle_rejects_bad_key_length():
    with pytest.raises(ValueError):
        fips197.expand_key_words(b"short")


# ---------------------------------------------------------------------
# The AES word map


def test_core_of_zero_is_sbox_of_zero_everywhere():
    v = aes_core().forward(0)
    assert word_to_bytes(v) == (S[0],) * 4


def test_core_byte_pattern():
    rng = random.Random(2)
    for _ in range(100):
        b0, b1, b2, b3 = (rng.getrandbits(8) for _ in range(4))
        v = word_from_bytes((b0, b1, b2, b3))
        assert word_to_bytes(aes_core().forward(v)) == (S[b1], S[b2], S[b3], S[b0])


def test_core_bijectivity_sampled():
    # no collisions among 10^6 random points, exact roundtrip
    rng = random.Random(3)
    rho = aes_core()
    seen = {}
    for _ in range(10**6):
        x = rng.getrandbits(32)
        y = rho.forward(x)
        if y in seen:
            assert seen[y] == x
        seen[y] = x
        assert rho.backward(y) == x


def test_rot_bricks():
    assert rot_bricks_left(word_from_bytes((1, 2, 3, 4)), 8, 4) == word_from_bytes((2, 3, 4, 1))
    assert rot_bricks_left(0, 8, 4) == 0


# ---------------------------------------------------------------------
# Operator identities


def test_apply_with_fixed_zero_spreads_first_word():
    rho = toy_rho(4, 10, require_nonaffine_zero_fix=True)
    assert rho.forward(0) == 0
    v = 0b1011
    assert ks_apply(rho, (v, 0, 0, 0)) == (v, v, v, v)


def test_apply_on_last_word_only():
    rho = aes_core()
    d = 0x0BADF00D
    t = rho.forward(d)
    assert ks_apply(rho, (0, 0, 0, d)) == (t, t, t, d ^ t)


def test_inverse_formula_on_last_word():
    rho = aes_core()
    d = 0xCAFEBABE
    assert ks_inverse(rho, (0, 0, 0, d)) == (rho.forward(d), 0, 0, d)


def test_inverse_exhaustive_n3():
    rho = toy_rho(3, 4)
    for x in range(1 << 12):
        st = unflatten_state(x, 3)
        assert ks_inverse(rho, ks_apply(rho, st)) == st
        assert ks_apply(rho, ks_inverse(rho, st)) == st


def test_roundtrip_random_n32():
    rng = random.Random(9)
    rho = aes_core()
    for _ in range(2000):
        st = tuple(rng.getrandbits(32) for _ in range(4))
        assert ks_inverse(rho, ks_apply(rho, st)) == st


def test_diagonal_inverts_to_first_word():
    rho = toy_rho(4, 11, require_nonaffine_zero_fix=True)
    v = 0b0110
    assert ks_inverse(rho, (v, v, v, v)) == (v, 0, 0, 0)


def test_power_zero_is_identity():
    rho = aes_core()
    st = (1, 2, 3, 4)
    assert ks_power(rho, st, 0) == st


def test_power_minus_three_identity():
    rho = aes_core()
    rng = random.Random(21)
    for _ in range(200):
        d = rng.getrandbits(32)
        t = rho.forward(d)
        assert ks_power(rho, (0, 0, 0, d), -3) == (t, t, t, d)


def test_power_sum_identity():
    # image under one forward step plus image under three backward steps
    rho = aes_core()
    rng = random.Random(22)
    for _ in range(200):
        d = rng.getrandbits(32)
        fwd = ks_power(rho, (0, 0, 0, d), 1)
        bwd = ks_power(rho, (0, 0, 0, d), -3)
        assert translate(fwd, bwd) == (0, 0, 0, rho.forward(d))


def test_power_additivity():
    rho = toy_rho(3, 14)
    rng = random.Random(15)
    for _ in range(100):
        st = unflatten_state(rng.getrandbits(12), 3)
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        assert ks_power(rho, st, a + b) == ks_power(rho, ks_power(rho, st, a), b)


def test_matrix_form_agrees_with_formula():
    rng = random.Random(33)
    rho = aes_core()
    for _ in range(300):
        st = tuple(rng.getrandbits(32) for _ in range(4))
        assert ks_apply_matrix(rho, st) == ks_apply(rho, st)
    toy = toy_rho(3, 5)
    for x in range(1 << 12):
        st = unflatten_state(x, 3)
        assert ks_apply_matrix(toy, st) == ks_apply(toy, st)


def test_apply_linear_when_rho_linear():
    rng = random.Random(40)
    lin = AffineMap.random(4, rng, with_offset=False)
    rho = PermutationOracle(4, lin, lin.inverse(), "linear")
    for _ in range(200):
        x = unflatten_state(rng.getrandbits(16), 4)
        y = unflatten_state(rng.getrandbits(16), 4)
        fx = flatten_state(ks_apply(rho, x), 4)
        fy = flatten_state(ks_apply(rho, y), 4)
        fxy = flatten_state(ks_apply(rho, translate(x, y)), 4)
        assert fxy == fx ^ fy


def test_width_mismatch_rejected():
    rho = toy_rho(3, 1)
    with pytest.raises(WidthMismatch):
        ks_apply(rho, (0, 0, 0, 1 << 3))


# ---------------------------------------------------------------------
# Translations


def test_translate_identity_and_involution():
    st = (1, 2, 3, 4)
    assert translate(st, (0, 0, 0, 0)) == st
    assert translate(st, st) == (0, 0, 0, 0)


def test_translate_matches_flat_xor():
    rng = random.Random(8)
    for _ in range(100):
        st = tuple(rng.getrandbits(32) for _ in range(4))
        t = tuple(rng.getrandbits(32) for _ in range(4))
        assert flatten_state(translate(st, t)) == flatten_state(st) ^ flatten_state(t)


# ---------------------------------------------------------------------
# AES-128 key expansion vs the reference


def test_round_constants():
    assert [round_constant(i) for i in range(1, 11)] == [
        0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
    ]


def test_step_matches_fips_on_appendix_key():
    ref = fips197.round_keys(APPENDIX_KEY)
    st = fips_state(ref[0])
    for i in range(1, 11):
        st = aes128_round_key_step(st, i)
        assert st == fips_state(ref[i])


def test_step_with_zero_constant_reduces_to_apply():
    st = state_from_hex("000102030405060708090a0b0c0d0e0f")
    stepped = aes128_round_key_step(st, 1)
    rc = (round_constant(1),) * 4
    assert translate(stepped, rc) == ks_apply(aes_core(), st)


def test_step_matches_fips_on_random_keys():
    rng = random.Random(55)
    for _ in range(100):
        key = rng.getrandbits(128).to_bytes(16, "big")
        ref = fips197.round_keys(key)
        st = fips_state(ref[0])
        for i in range(1, 11):
            st = aes128_round_key_step(st, i)
            assert st == fips_state(ref[i])


def test_expand_key_matches_fips_end_to_end():
    keys = aes128_expand_key(state_from_hex(APPENDIX_KEY.hex()))
    ref = fips197.round_keys(APPENDIX_KEY)
    assert keys == [fips_state(r) for r in ref]


def test_expand_zero_key_first_round():
    keys = aes128_expand_key((0, 0, 0, 0))
    t = aes_core().forward(0)
    rc = round_constant(1)
    expected = translate((t, t, t, t), (rc, rc, rc, rc))
    assert keys[1] == expected


def test_expand_is_deterministic():
    master = state_from_hex("00112233445566778899aabbccddeeff")
    assert aes128_expand_key(master) == aes128_expand_key(master)


def test_round_index_out_of_range():
    with pytest.raises(ValueError):
        aes128_round_key_step((0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        aes128_round_key_step((0, 0, 0, 0), 11)


def test_state_hex_roundtrip():
    text = "2b7e151628aed2a6abf7158809cf4f3c"
    assert state_to_hex(state_from_hex(text)) == text
    # first byte of the hex string is the low byte of the first word
    assert state_from_hex(text)[0] & 0xFF == 0x2B
