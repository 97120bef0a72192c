"""Operator model vs the FIPS-197 reference, and the operator identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksgroup import fips197
from ksgroup.keyschedule import (
    PermutationOracle,
    State,
    WidthMismatch,
    aes128_expand_key,
    aes128_round_key_step,
    aes_core,
    ks_apply,
    ks_inverse,
    ks_oracle,
    ks_power,
    rot_bricks_left,
    round_constant,
    state_from_hex,
    state_to_hex,
    unflatten_state,
    word_from_bytes,
    word_to_bytes,
)
from ksgroup.sbox import AES_SBOX, AffineMap

S = AES_SBOX.table()

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
# evaluation path on word tuples, so the shift-and-XOR form of ks_apply on
# packed states can be cross-checked.
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


def ks_power_matrix(rho, st: State, i: int) -> State:
    for _ in range(i):
        st = ks_apply_matrix(rho, st)
    return st


# E(t) = (t, t, t, t) for 32-bit words
E32 = 0x00000001_00000001_00000001_00000001


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
    assert unflatten_state(ks_apply(rho, v), 4) == (v, v, v, v)


def test_apply_on_last_word_only():
    rho = aes_core()
    d = 0x0BADF00D
    t = rho.forward(d)
    assert unflatten_state(ks_apply(rho, d << 96)) == (t, t, t, d ^ t)


def test_inverse_formula_on_last_word():
    rho = aes_core()
    d = 0xCAFEBABE
    assert unflatten_state(ks_inverse(rho, d << 96)) == (rho.forward(d), 0, 0, d)


def test_inverse_exhaustive_n3():
    rho = toy_rho(3, 4)
    for x in range(1 << 12):
        assert ks_inverse(rho, ks_apply(rho, x)) == x
        assert ks_apply(rho, ks_inverse(rho, x)) == x


def test_roundtrip_random_n32():
    rng = random.Random(9)
    rho = aes_core()
    for _ in range(2000):
        x = rng.getrandbits(128)
        assert ks_inverse(rho, ks_apply(rho, x)) == x


@st.composite
def operator_cases(draw):
    """rho (a random table of width n <= 6, or the AES core), a packed
    4n-bit state and a power."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        rho = PermutationOracle.from_table(draw(st.permutations(range(1 << n))), "t")
    else:
        rho = aes_core()
    return rho, draw(st.integers(0, (1 << 4 * rho.m) - 1)), draw(st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(operator_cases())
def test_inverse_undoes_apply_on_random_tables(case):
    rho, x, i = case
    assert ks_inverse(rho, ks_apply(rho, x)) == x
    assert ks_apply(rho, ks_inverse(rho, x)) == x
    assert ks_power(rho, ks_power(rho, x, i), -i) == x


@settings(max_examples=200, deadline=None)
@given(operator_cases())
def test_packed_operator_against_matrix_form(case):
    rho, x, i = case
    n = rho.m
    words = unflatten_state(x, n)
    assert unflatten_state(ks_apply(rho, x), n) == ks_apply_matrix(rho, words)
    assert ks_apply_matrix(rho, unflatten_state(ks_inverse(rho, x), n)) == words
    assert unflatten_state(ks_power(rho, x, i), n) == ks_power_matrix(rho, words, i)
    assert ks_power_matrix(rho, unflatten_state(ks_power(rho, x, -i), n), i) == words


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda power: st.tuples(
    st.lists(st.integers(0, 2**128 - 1), min_size=power, max_size=power),
    st.integers(0, 2**128 - 1),
)))
def test_oracle_with_constants_backward_undoes_forward(case):
    # the oracle's constructor checks only the points 0, 1 and all-ones
    constants, x = case
    oracle = ks_oracle(aes_core(), len(constants), constants=constants)
    assert oracle.backward(oracle.forward(x)) == x


def test_diagonal_inverts_to_first_word():
    rho = toy_rho(4, 11, require_nonaffine_zero_fix=True)
    v = 0b0110
    diagonal = v | v << 4 | v << 8 | v << 12
    assert unflatten_state(ks_inverse(rho, diagonal), 4) == (v, 0, 0, 0)


def test_power_zero_is_identity():
    rho = aes_core()
    x = 1 | 2 << 32 | 3 << 64 | 4 << 96
    assert ks_power(rho, x, 0) == x


def test_power_minus_three_identity():
    rho = aes_core()
    rng = random.Random(21)
    for _ in range(200):
        d = rng.getrandbits(32)
        t = rho.forward(d)
        assert unflatten_state(ks_power(rho, d << 96, -3)) == (t, t, t, d)


def test_power_sum_identity():
    # image under one forward step plus image under three backward steps
    rho = aes_core()
    rng = random.Random(22)
    for _ in range(200):
        d = rng.getrandbits(32)
        fwd = ks_power(rho, d << 96, 1)
        bwd = ks_power(rho, d << 96, -3)
        assert unflatten_state(fwd ^ bwd) == (0, 0, 0, rho.forward(d))


def test_power_additivity():
    rho = toy_rho(3, 14)
    rng = random.Random(15)
    for _ in range(100):
        x = rng.getrandbits(12)
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        assert ks_power(rho, x, a + b) == ks_power(rho, ks_power(rho, x, a), b)


def test_matrix_form_agrees_with_formula():
    rng = random.Random(33)
    rho = aes_core()
    for _ in range(300):
        x = rng.getrandbits(128)
        assert ks_apply_matrix(rho, unflatten_state(x)) == unflatten_state(ks_apply(rho, x))
    toy = toy_rho(3, 5)
    for x in range(1 << 12):
        assert ks_apply_matrix(toy, unflatten_state(x, 3)) == unflatten_state(ks_apply(toy, x), 3)


def test_apply_linear_when_rho_linear():
    rng = random.Random(40)
    lin = AffineMap.random(4, rng, with_offset=False)
    rho = PermutationOracle(4, lin, lin.inverse(), "linear")
    for _ in range(200):
        x = rng.getrandbits(16)
        y = rng.getrandbits(16)
        assert ks_apply(rho, x ^ y) == ks_apply(rho, x) ^ ks_apply(rho, y)


def test_width_mismatch_rejected():
    rho = toy_rho(3, 1)
    with pytest.raises(WidthMismatch):
        ks_apply(rho, 1 << 12)
    with pytest.raises(WidthMismatch):
        ks_inverse(rho, -1)
    with pytest.raises(WidthMismatch):
        ks_oracle(rho, 1, constants=[1 << 12])


# ---------------------------------------------------------------------
# AES-128 key expansion vs the reference


def test_round_constants():
    assert [round_constant(i) for i in range(1, 11)] == [
        0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
    ]


def test_step_matches_fips_on_appendix_key():
    ref = fips197.round_keys(APPENDIX_KEY)
    x = state_from_hex(APPENDIX_KEY.hex())
    for i in range(1, 11):
        x = aes128_round_key_step(x, i)
        assert unflatten_state(x) == fips_state(ref[i])


def test_step_with_zero_constant_reduces_to_apply():
    st = state_from_hex("000102030405060708090a0b0c0d0e0f")
    stepped = aes128_round_key_step(st, 1)
    assert stepped ^ round_constant(1) * E32 == ks_apply(aes_core(), st)


def test_step_matches_fips_on_random_keys():
    rng = random.Random(55)
    for _ in range(100):
        key = rng.getrandbits(128).to_bytes(16, "big")
        ref = fips197.round_keys(key)
        x = state_from_hex(key.hex())
        for i in range(1, 11):
            x = aes128_round_key_step(x, i)
            assert unflatten_state(x) == fips_state(ref[i])


def test_expand_key_matches_fips_end_to_end():
    keys = aes128_expand_key(state_from_hex(APPENDIX_KEY.hex()))
    ref = fips197.round_keys(APPENDIX_KEY)
    assert [unflatten_state(k) for k in keys] == [fips_state(r) for r in ref]


def test_expand_zero_key_first_round():
    keys = aes128_expand_key(0)
    t = aes_core().forward(0)
    rc = round_constant(1)
    assert unflatten_state(keys[1]) == (t ^ rc,) * 4


def test_expand_is_deterministic():
    master = state_from_hex("00112233445566778899aabbccddeeff")
    assert aes128_expand_key(master) == aes128_expand_key(master)


def test_round_index_out_of_range():
    with pytest.raises(ValueError):
        aes128_round_key_step(0, 0)
    with pytest.raises(ValueError):
        aes128_round_key_step(0, 11)


def test_state_hex_roundtrip():
    text = "2b7e151628aed2a6abf7158809cf4f3c"
    assert state_to_hex(state_from_hex(text)) == text
    # first byte of the hex string is the low byte of the first word
    assert unflatten_state(state_from_hex(text))[0] & 0xFF == 0x2B
