"""The AES-128 key schedule as a word-level operator.

A 32-bit word packs its four bytes little-endian: byte j of the FIPS word
sits in bits 8j..8j+7, so the first byte is the low-order byte.  A state is
a 4-tuple of words ``(v1, v2, v3, v4)``; the flattened 128-bit form is
word-major (word 1 in bits 0..31).  External hex I/O uses the standard
byte-ordered notation ("2b7e1516..." has 0x2b as the first byte), so the
conversion helpers below reverse bytes.

``ks_apply`` is the chained-XOR step shared by every round: the last word
is passed through a word permutation ``rho`` and the result is folded into
the running XOR of the other words:

    (v1, v2, v3, v4) -> (v1+t, v1+v2+t, v1+v2+v3+t, v1+v2+v3+v4+t),  t = rho(v4)

With ``rho`` = rotate-bytes-then-SubBytes and a round-constant translation
this is exactly one AES-128 round-key transformation, which is checked
bit-for-bit against a word-oriented FIPS-197 reference in the tests.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .gf2 import CapacityError
from .sbox import AES_SBOX, SBox

State = tuple[int, int, int, int]

WORD_BITS = 32

MAX_EXHAUSTIVE_POINTS = 1 << 20


class WidthMismatch(ValueError):
    """State words do not fit the operator's word width."""


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


def word_from_hex(text: str) -> int:
    raw = bytes.fromhex(text)
    if len(raw) != 4:
        raise ValueError(f"expected 8 hex chars, got {len(text)}")
    return int.from_bytes(raw, "little")


def word_to_hex(v: int) -> str:
    return v.to_bytes(4, "little").hex()


def state_from_hex(text: str) -> State:
    raw = bytes.fromhex(text)
    if len(raw) != 16:
        raise ValueError(f"expected 32 hex chars, got {len(text)}")
    return tuple(int.from_bytes(raw[4 * i : 4 * i + 4], "little") for i in range(4))


def state_to_hex(st: State) -> str:
    return b"".join(w.to_bytes(4, "little") for w in st).hex()


def flatten_state(st: State, n: int = WORD_BITS) -> int:
    return st[0] | (st[1] << n) | (st[2] << (2 * n)) | (st[3] << (3 * n))


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


def rotate_substitute(sbox: SBox, bricks: int, descriptor: str | None = None) -> PermutationOracle:
    """Rotate bricks left by one, then apply the S-box to every brick."""
    s = sbox.s
    n = s * bricks
    table = sbox.table
    inv_table = sbox.inverse().table
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
# The operator on four words


def _check_state(rho: PermutationOracle, st: State) -> None:
    limit = 1 << rho.m
    if len(st) != 4 or any(not 0 <= w < limit for w in st):
        raise WidthMismatch(f"state {st!r} does not fit four {rho.m}-bit words")


def ks_apply(rho: PermutationOracle, st: State) -> State:
    _check_state(rho, st)
    t = rho.forward(st[3])
    a = st[0] ^ t
    b = a ^ st[1]
    c = b ^ st[2]
    return (a, b, c, c ^ st[3])


def ks_inverse(rho: PermutationOracle, st: State) -> State:
    _check_state(rho, st)
    v1, v2, v3, v4 = st
    return (v1 ^ rho.forward(v3 ^ v4), v1 ^ v2, v2 ^ v3, v3 ^ v4)


def ks_power(rho: PermutationOracle, st: State, i: int) -> State:
    step = ks_apply if i >= 0 else ks_inverse
    for _ in range(abs(i)):
        st = step(rho, st)
    return st


def translate(st: State, t: State) -> State:
    if len(st) != 4 or len(t) != 4:
        raise WidthMismatch("states must have four words")
    return (st[0] ^ t[0], st[1] ^ t[1], st[2] ^ t[2], st[3] ^ t[3])


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


def aes128_round_key_step(st: State, i: int) -> State:
    if not 1 <= i <= 10:
        raise ValueError(f"round index must be 1..10, got {i}")
    rc = round_constant(i)
    return translate(ks_apply(aes_core(), st), (rc, rc, rc, rc))


def aes128_expand_key(master: State) -> list[State]:
    """Round keys 0..10; round key 0 is the master key."""
    keys = [master]
    for i in range(1, 11):
        keys.append(aes128_round_key_step(keys[-1], i))
    return keys


def aes_round_constant_states(rounds: int, first: int = 1) -> list[State]:
    """Per-round translation states (rc, rc, rc, rc) for composed steps."""
    out = []
    for r in range(rounds):
        rc = round_constant(first + r)
        out.append((rc, rc, rc, rc))
    return out
