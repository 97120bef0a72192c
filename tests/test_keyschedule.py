"""Operator model vs the FIPS-197 reference, and the operator identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksgroup import fips197
from ksgroup.gf2 import DimensionMismatch, vec_from_hex, vec_to_hex, vec_to_words
from ksgroup.keyschedule import (
    PermutationOracle,
    aes128_expand_key,
    aes_core,
    aes_round_constant_states,
    ks_apply,
    ks_inverse,
    ks_oracle,
    unflatten_state,
)
from ksgroup.invariants import random_affine_word_permutation, random_nonaffine_word_permutation
from ksgroup.sbox import AES_SBOX
from test_gf2 import vec_from_words

S = AES_SBOX.table()

Words = tuple[int, int, int, int]

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


def ks_apply_matrix(rho, st: Words) -> Words:
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


def ks_power_matrix(rho, st: Words, i: int) -> Words:
    for _ in range(i):
        st = ks_apply_matrix(rho, st)
    return st


# E(t) = (t, t, t, t) for 32-bit words
E32 = 0x00000001_00000001_00000001_00000001


def word_to_bytes(v: int) -> tuple[int, ...]:
    return tuple((v >> (8 * j)) & 0xFF for j in range(4))


def fips_state(round_key) -> Words:
    return tuple(int.from_bytes(bytes(w), "little") for w in round_key)


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
        v = int.from_bytes(bytes((b0, b1, b2, b3)), "little")
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


# ---------------------------------------------------------------------
# PermutationOracle


def test_normalized_table_keeps_the_table():
    rng = random.Random(21)
    t = list(range(1 << 12))
    rng.shuffle(t)
    assert t[0] != 0
    oracle = PermutationOracle.from_table(t, "shuffled")
    calls = 0
    table_forward = oracle.forward

    def counting_forward(x):
        nonlocal calls
        calls += 1
        return table_forward(x)

    oracle.forward = counting_forward
    norm = oracle.normalized()
    assert norm.table() == tuple(y ^ t[0] for y in t)
    # f(0) alone: the normalized table is built from the cached one
    assert calls == 1
    assert norm.descriptor == "shuffled+fix0"
    assert all(norm.backward(y) == x for x, y in enumerate(norm.table()))


def test_from_table_of_the_one_point_space():
    # F_2^0 has the one point 0: the inverse self-check must not probe 1
    oracle = PermutationOracle.from_table([0])
    assert (oracle.m, oracle.table(), oracle.forward(0), oracle.backward(0)) == (0, (0,), 0, 0)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", ["affine", "nonaffine", "normalized"])
def test_power_one_lift_table_is_the_per_point_table(n, kind):
    # built in numpy at construction, with and without a round constant
    rng = random.Random(10 * n + len(kind))
    # every map of F_2^n is affine for n <= 2
    rho = random_affine_word_permutation(n, rng) if kind == "affine" else \
        random_nonaffine_word_permutation(n, rng) if n >= 3 else toy_rho(n, n)
    if kind == "normalized":
        rho = rho.normalized()
    per_point = tuple(ks_apply(rho, x) for x in range(1 << 4 * n))
    assert ks_oracle(rho, 1)._table == per_point
    c = rng.getrandbits(4 * n) | 1
    assert ks_oracle(rho, 1, [c])._table == tuple(y ^ c for y in per_point)


@pytest.mark.parametrize("power", [2, 3, 0, -1, -2])
def test_other_powers_tabulate_per_point(power):
    rho = toy_rho(3, 4)
    oracle = ks_oracle(rho, power)
    assert oracle._table is None
    step = ks_apply if power > 0 else ks_inverse
    expected = []
    for x in range(1 << 12):
        for _ in range(abs(power)):
            x = step(rho, x)
        expected.append(x)
    assert oracle.table() == tuple(expected)


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
    assert ks_oracle(rho, -i).forward(ks_oracle(rho, i).forward(x)) == x


@settings(max_examples=200, deadline=None)
@given(operator_cases())
def test_packed_operator_against_matrix_form(case):
    rho, x, i = case
    n = rho.m
    words = unflatten_state(x, n)
    assert unflatten_state(ks_apply(rho, x), n) == ks_apply_matrix(rho, words)
    assert ks_apply_matrix(rho, unflatten_state(ks_inverse(rho, x), n)) == words
    assert unflatten_state(ks_oracle(rho, i).forward(x), n) == ks_power_matrix(rho, words, i)
    assert ks_power_matrix(rho, unflatten_state(ks_oracle(rho, -i).forward(x), n), i) == words


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
    assert ks_oracle(rho, 0).forward(x) == x


def test_power_minus_three_identity():
    rho = aes_core()
    rng = random.Random(21)
    for _ in range(200):
        d = rng.getrandbits(32)
        t = rho.forward(d)
        assert unflatten_state(ks_oracle(rho, -3).forward(d << 96)) == (t, t, t, d)


def test_power_sum_identity():
    # image under one forward step plus image under three backward steps
    rho = aes_core()
    rng = random.Random(22)
    for _ in range(200):
        d = rng.getrandbits(32)
        fwd = ks_oracle(rho, 1).forward(d << 96)
        bwd = ks_oracle(rho, -3).forward(d << 96)
        assert unflatten_state(fwd ^ bwd) == (0, 0, 0, rho.forward(d))


def test_power_additivity():
    rho = toy_rho(3, 14)
    rng = random.Random(15)
    for _ in range(100):
        x = rng.getrandbits(12)
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        step_a, step_b = ks_oracle(rho, a).forward, ks_oracle(rho, b).forward
        assert ks_oracle(rho, a + b).forward(x) == step_b(step_a(x))


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
    rho = random_affine_word_permutation(4, rng).normalized()
    for _ in range(200):
        x = rng.getrandbits(16)
        y = rng.getrandbits(16)
        assert ks_apply(rho, x ^ y) == ks_apply(rho, x) ^ ks_apply(rho, y)


def test_width_mismatch_rejected():
    rho = toy_rho(3, 1)
    with pytest.raises(DimensionMismatch):
        ks_apply(rho, 1 << 12)
    with pytest.raises(DimensionMismatch):
        ks_inverse(rho, -1)
    with pytest.raises(DimensionMismatch):
        ks_oracle(rho, 1, constants=[1 << 12])


# ---------------------------------------------------------------------
# AES-128 key expansion vs the reference


def test_round_constants():
    assert aes_round_constant_states(10) == [rc * E32 for rc in (
        0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
    )]


def test_step_matches_fips_on_appendix_key():
    ref = fips197.round_keys(APPENDIX_KEY)
    x = vec_from_hex(APPENDIX_KEY.hex(), 128)
    for i, c in enumerate(aes_round_constant_states(10), 1):
        x = ks_apply(aes_core(), x) ^ c
        assert unflatten_state(x) == fips_state(ref[i])


def test_step_with_zero_constant_reduces_to_apply():
    st = vec_from_hex("000102030405060708090a0b0c0d0e0f", 128)
    stepped = aes128_expand_key(st)[1]
    assert stepped ^ aes_round_constant_states(1)[0] == ks_apply(aes_core(), st)


def test_step_matches_fips_on_random_keys():
    rng = random.Random(55)
    for _ in range(100):
        key = rng.getrandbits(128).to_bytes(16, "big")
        keys = aes128_expand_key(vec_from_hex(key.hex(), 128))
        assert [unflatten_state(k) for k in keys] == [fips_state(r) for r in fips197.round_keys(key)]


def test_expand_key_matches_fips_end_to_end():
    keys = aes128_expand_key(vec_from_hex(APPENDIX_KEY.hex(), 128))
    ref = fips197.round_keys(APPENDIX_KEY)
    assert [unflatten_state(k) for k in keys] == [fips_state(r) for r in ref]


def test_expand_zero_key_first_round():
    keys = aes128_expand_key(0)
    t = aes_core().forward(0)
    assert unflatten_state(keys[1]) == (t ^ 0x01,) * 4


def test_expand_is_deterministic():
    master = vec_from_hex("00112233445566778899aabbccddeeff", 128)
    assert aes128_expand_key(master) == aes128_expand_key(master)


@pytest.mark.parametrize("power", range(1, 11))
def test_oracle_with_constants_is_the_standard_expansion(power):
    # the composite that search --with-constants runs sends a key to its
    # round key number ``power`` of the word-level reference, per point and
    # through the array twin
    rng = random.Random(power)
    keys = [APPENDIX_KEY] + [rng.getrandbits(128).to_bytes(16, "big") for _ in range(3)]
    xs = [vec_from_hex(key.hex(), 128) for key in keys]
    want = [
        int.from_bytes(bytes(b for w in fips197.round_keys(key)[power] for b in w), "little")
        for key in keys
    ]
    oracle = ks_oracle(aes_core(), power, aes_round_constant_states(power))
    assert [oracle.forward(x) for x in xs] == want
    assert [vec_from_words(w) for w in oracle.many[0](vec_to_words(xs, 128))] == want


def test_round_constant_states_stop_at_ten():
    assert len(aes_round_constant_states(10)) == 10
    with pytest.raises(ValueError, match="ten round constants"):
        aes_round_constant_states(11)


def test_state_hex_roundtrip():
    text = "2b7e151628aed2a6abf7158809cf4f3c"
    assert vec_to_hex(vec_from_hex(text, 128), 128) == text
    # first byte of the hex string is the low byte of the first word
    assert unflatten_state(vec_from_hex(text, 128))[0] & 0xFF == 0x2B
