"""The AES-128 key schedule as a word-level operator.

A 32-bit word packs its four bytes little-endian: byte j of the FIPS word
sits in bits 8j..8j+7, so the first byte is the low-order byte.  A state
of four n-bit words is one packed 4n-bit int, word i in bits
(i-1)n..in-1, so word 1 is the low word; ``unflatten_state`` splits it
into the tuple ``(v1, v2, v3, v4)`` for printing and for comparison with
FIPS-197 words.  External hex I/O uses the standard byte-ordered notation
("2b7e1516..." has 0x2b as the first byte), i.e. the 16 bytes of the
128-bit state, little-endian.

``ks_apply`` is the chained-XOR step shared by every round,
f(x) = A*x + E(rho(x4)): A replaces each word by the XOR of it and the
words before it, and E(t) = (t, t, t, t) folds the image of the last
word under a word permutation ``rho`` into every word:

    (v1, v2, v3, v4) -> (v1+t, v1+v2+t, v1+v2+v3+t, v1+v2+v3+v4+t),  t = rho(v4)

On packed states A is two shifted XORs and E(t) is t times
1 + 2^n + 2^2n + 2^3n.  With ``rho`` = rotate-bytes-then-SubBytes and a
round-constant translation this is exactly one AES-128 round-key
transformation, which is checked bit-for-bit against a word-oriented
FIPS-197 reference in the tests.  SubBytes is ``AES_SBOX``, a
``PermutationOracle`` table like every S-box.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .gf2 import CapacityError

State = tuple[int, int, int, int]

WORD_BITS = 32

# E(t) = t * _E32 = (t, t, t, t) for a 32-bit word t
_E32 = ((1 << 128) - 1) // ((1 << 32) - 1)

MAX_EXHAUSTIVE_POINTS = 1 << 20


class WidthMismatch(ValueError):
    """A state does not fit four words of the operator's width."""


# ---------------------------------------------------------------------
# Words


def rot_bricks_left(x: int, s: int, b: int) -> int:
    """Shift the sequence of b s-bit bricks left by one position.

    Brick 0 is the low s bits; "left" means brick j takes the old brick
    j+1, matching the byte rotation of the AES key schedule.
    """
    return (x >> s) | ((x & ((1 << s) - 1)) << (s * (b - 1)))


def rot_bricks_right(x: int, s: int, b: int) -> int:
    return ((x << s) & ((1 << (s * b)) - 1)) | (x >> (s * (b - 1)))


def word_from_bytes(bs: Sequence[int]) -> int:
    v = 0
    for j, byte in enumerate(bs):
        v |= byte << (8 * j)
    return v


def word_to_bytes(v: int, nbytes: int = 4) -> tuple[int, ...]:
    return tuple((v >> (8 * j)) & 0xFF for j in range(nbytes))


def word_to_hex(v: int) -> str:
    return v.to_bytes(4, "little").hex()


def state_from_hex(text: str) -> int:
    raw = bytes.fromhex(text)
    if len(raw) != 16:
        raise ValueError(f"expected 32 hex chars, got {len(text)}")
    return int.from_bytes(raw, "little")


def state_to_hex(x: int) -> str:
    return x.to_bytes(16, "little").hex()


def unflatten_state(x: int, n: int = WORD_BITS) -> State:
    mask = (1 << n) - 1
    return (x & mask, (x >> n) & mask, (x >> (2 * n)) & mask, (x >> (3 * n)) & mask)


# ---------------------------------------------------------------------
# Word permutations


class PermutationOracle:
    """A bijection of F_2^m with forward and backward evaluation."""

    __slots__ = ("m", "forward", "backward", "descriptor", "_table")

    def __init__(
        self,
        m: int,
        forward: Callable[[int], int],
        backward: Callable[[int], int],
        descriptor: str = "custom",
    ) -> None:
        self.m = m
        self.forward = forward
        self.backward = backward
        self.descriptor = descriptor
        self._table: tuple[int, ...] | None = None
        for x in (0, 1, (1 << m) - 1):
            if backward(forward(x)) != x:
                raise ValueError(f"backward is not the inverse of forward at {x:#x}")

    def __repr__(self) -> str:
        return f"PermutationOracle(m={self.m}, {self.descriptor})"

    @classmethod
    def from_table(cls, table: Sequence[int], descriptor: str = "table") -> "PermutationOracle":
        m = (len(table) - 1).bit_length()
        if (1 << m) != len(table) or sorted(table) != list(range(len(table))):
            raise ValueError("table is not a permutation of 0..2^m-1")
        fwd = tuple(table)
        bwd = [0] * len(table)
        for x, y in enumerate(fwd):
            bwd[y] = x
        oracle = cls(m, fwd.__getitem__, tuple(bwd).__getitem__, descriptor)
        oracle._table = fwd
        return oracle

    def normalized(self) -> "PermutationOracle":
        """Compose with the translation by the image of 0 so that 0 maps to 0."""
        c = self.forward(0)
        if c == 0:
            return self
        fwd, bwd = self.forward, self.backward
        return PermutationOracle(
            self.m,
            lambda x: fwd(x) ^ c,
            lambda y: bwd(y ^ c),
            self.descriptor + "+fix0",
        )

    def table(self) -> tuple[int, ...]:
        """The forward map on 0..2^m-1, computed once."""
        if self._table is None:
            if (1 << self.m) > MAX_EXHAUSTIVE_POINTS:
                raise CapacityError(f"refusing to tabulate 2^{self.m} points")
            self._table = tuple(self.forward(x) for x in range(1 << self.m))
        return self._table

    # the benchmark harness in perfbench/ still calls the old name
    to_table = table

    def inverse(self) -> "PermutationOracle":
        """The same bijection with forward and backward swapped."""
        return PermutationOracle(self.m, self.backward, self.forward, self.descriptor + "^-1")


# FIPS-197 SubBytes table.
AES_SBOX = PermutationOracle.from_table((
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
), "aes-sbox")


def rotate_substitute(sbox: PermutationOracle, bricks: int, descriptor: str | None = None) -> PermutationOracle:
    """Rotate bricks left by one, then apply the S-box to every brick."""
    s = sbox.m
    n = s * bricks
    table = sbox.table()
    inv_table = sbox.inverse().table()
    mask = (1 << s) - 1

    def fwd(x: int) -> int:
        x = rot_bricks_left(x, s, bricks)
        y = 0
        for j in range(bricks):
            y |= table[(x >> (s * j)) & mask] << (s * j)
        return y

    def bwd(y: int) -> int:
        x = 0
        for j in range(bricks):
            x |= inv_table[(y >> (s * j)) & mask] << (s * j)
        return rot_bricks_right(x, s, bricks)

    return PermutationOracle(n, fwd, bwd, descriptor or f"rot+sbox(s={s},b={bricks})")


_AES_CORE: PermutationOracle | None = None


def aes_core() -> PermutationOracle:
    """RotWord followed by SubBytes on each byte of a 32-bit word."""
    global _AES_CORE
    if _AES_CORE is None:
        _AES_CORE = rotate_substitute(AES_SBOX, 4, "aes-core")
    return _AES_CORE


# ---------------------------------------------------------------------
# The operator on packed states


def ks_apply(rho: PermutationOracle, x: int) -> int:
    """f(x) = A*x + E(rho(x4)) on a packed 4n-bit state."""
    n = rho.m
    mask = (1 << 4 * n) - 1
    if not 0 <= x <= mask:
        raise WidthMismatch(f"state {x:#x} does not fit four {n}-bit words")
    t = rho.forward(x >> 3 * n)
    x ^= (x << n) & mask
    x ^= (x << 2 * n) & mask
    return x ^ t * (mask // ((1 << n) - 1))


def ks_inverse(rho: PermutationOracle, x: int) -> int:
    """f^-1(y): since E(t) = A*(t, 0, 0, 0), f(x) = A*(x + (rho(x4), 0, 0, 0)).
    A^-1 is one shifted XOR, and word 4 of A^-1*y is x4, so rho(x4) is known."""
    n = rho.m
    mask = (1 << 4 * n) - 1
    if not 0 <= x <= mask:
        raise WidthMismatch(f"state {x:#x} does not fit four {n}-bit words")
    x ^= (x << n) & mask
    return x ^ rho.forward(x >> 3 * n)


def ks_power(rho: PermutationOracle, x: int, i: int) -> int:
    step = ks_apply if i >= 0 else ks_inverse
    for _ in range(abs(i)):
        x = step(rho, x)
    return x


def ks_oracle(
    rho: PermutationOracle,
    power: int = 1,
    constants: Sequence[int] | None = None,
) -> PermutationOracle:
    """The operator induced by ``rho``, composed ``power`` times, on packed
    4n-bit states.

    ``constants`` optionally re-enables a translation after each forward
    application (e.g. per-round constants): packed 4n-bit vectors, one per
    application.
    """
    m = 4 * rho.m
    if constants is None:
        return PermutationOracle(
            m,
            lambda x: ks_power(rho, x, power),
            lambda x: ks_power(rho, x, -power),
            f"ks({rho.descriptor})^{power}",
        )
    if power < 1:
        raise ValueError("constants require a positive power")
    if len(constants) != power:
        raise ValueError("need one constant state per application")
    if any(not 0 <= c < 1 << m for c in constants):
        raise WidthMismatch(f"constants must be {m}-bit states")

    def fwd(x: int) -> int:
        for c in constants:
            x = ks_apply(rho, x) ^ c
        return x

    def bwd(x: int) -> int:
        for c in reversed(constants):
            x = ks_inverse(rho, x ^ c)
        return x

    return PermutationOracle(m, fwd, bwd, f"ks({rho.descriptor})^{power}+constants")


# ---------------------------------------------------------------------
# AES-128 instance


def round_constant(i: int) -> int:
    """rc_i = x^(i-1) in the Rijndael field, by repeated doubling."""
    if i < 1:
        raise ValueError("round index starts at 1")
    rc = 1
    for _ in range(i - 1):
        rc <<= 1
        if rc >> 8:
            rc ^= 0x11B
    return rc


def aes128_round_key_step(x: int, i: int) -> int:
    if not 1 <= i <= 10:
        raise ValueError(f"round index must be 1..10, got {i}")
    return ks_apply(aes_core(), x) ^ round_constant(i) * _E32


def aes128_expand_key(master: int) -> list[int]:
    """Round keys 0..10; round key 0 is the master key."""
    keys = [master]
    for i in range(1, 11):
        keys.append(aes128_round_key_step(keys[-1], i))
    return keys


def aes_round_constant_states(rounds: int, first: int = 1) -> list[int]:
    """Per-round translations E(rc) = (rc, rc, rc, rc) for composed steps."""
    return [round_constant(first + r) * _E32 for r in range(rounds)]
