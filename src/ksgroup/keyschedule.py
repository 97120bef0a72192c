"""The AES-128 key schedule as a word-level operator.

A 32-bit word packs its four bytes little-endian: byte j of the FIPS word
sits in bits 8j..8j+7, so the first byte is the low-order byte.  A state
of four n-bit words is one packed 4n-bit int, word i in bits
(i-1)n..in-1, so word 1 is the low word; ``unflatten_state`` splits it
into the tuple ``(v1, v2, v3, v4)`` for printing.  States and words are
written as hex by ``gf2.vec_to_hex``/``vec_from_hex``, the one vector
codec: little-endian bytes, so "2b7e1516..." has 0x2b as the first byte,
the standard byte-ordered notation of a key.

``ks_apply`` is the step f(x) = A*x + E(rho(x4)) shared by every round
(its docstring has the formula).  The AES word map ``aes_core`` is RotWord then
SubWord (FIPS-197, section 5.2) on the word's four little-endian bytes:
rotate them one place, so byte j takes byte j+1 mod 4, then send each
byte through the S-box with ``bytes.translate``.  With it and a round-constant
translation the step is exactly one AES-128 round-key transformation,
which is checked bit-for-bit against a word-oriented FIPS-197 reference
in the tests.  SubBytes is ``AES_SBOX``, a ``PermutationOracle`` table
like every S-box.

``aes_core``, ``normalized`` (of an oracle with one) and ``ks_oracle``
over a 32-bit word map with one pass an array twin,
``PermutationOracle.many``: forward and backward on (N, 4) uint32 word
columns, word 1 in column 0, which is the ``gf2.vec_to_words`` layout.  A
forward step XORs rho(word 4) into word 1 and then runs the XOR across
the words, three column XORs into one output array; the inverse step
XORs each word with its neighbour, then rho(word 4) into word 1.  The AES
word map's twin gathers the S-box on the bytes as they lie and then
rotates each word with two shifts.  Other oracles have no twin and are
evaluated per point.

Powers, round constants and ``normalized`` all go through ``_chain``,
on scalars and twins alike: a step, then an XOR by each constant, where
None means no XOR.  The twin passes a zero constant, such as every one
of a power without ``constants``, as None, not as a row of zeros.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import numpy as np

from .gf2 import WORD, CapacityError, DimensionMismatch, vec_to_words

WORD_BITS = 32

MAX_EXHAUSTIVE_POINTS = 1 << 20


# ---------------------------------------------------------------------
# Words


def unflatten_state(x: int, n: int = WORD_BITS) -> tuple[int, int, int, int]:
    mask = (1 << n) - 1
    return (x & mask, (x >> n) & mask, (x >> (2 * n)) & mask, (x >> (3 * n)) & mask)


# ---------------------------------------------------------------------
# Word permutations


# A batch form of a map: (forward, backward) on (N, m/32) uint32 arrays
# of ``gf2.vec_to_words`` rows, word 1 in column 0.
Many = tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


class PermutationOracle:
    """A bijection of F_2^m with forward and backward evaluation.

    ``many`` is an optional array twin of the two directions (``Many``);
    an oracle without one is evaluated per point.  ``table`` is the
    forward map on 0..2^m-1 if known (``from_table``, ``normalized`` of a
    tabulated oracle, and ``ks_oracle`` at power 1, which builds it in
    numpy), else ``table()`` computes it once, one ``forward`` call per
    point.

    ``transversal`` is a set of points at which every derivative
    f(x+w)+f(x) takes all of its values, whatever w is.  It is every point
    unless ``ks_oracle`` at power 1 narrows it (see there for the proof).
    """

    __slots__ = ("m", "forward", "backward", "descriptor", "_table", "many", "transversal")

    def __init__(
        self,
        m: int,
        forward: Callable[[int], int],
        backward: Callable[[int], int],
        descriptor: str = "custom",
        *,
        many: Many | None = None,
        table: tuple[int, ...] | None = None,
        transversal: range | None = None,
    ) -> None:
        self.m = m
        self.forward = forward
        self.backward = backward
        self.descriptor = descriptor
        self._table = table
        self.many = many
        self.transversal = range(1 << m) if transversal is None else transversal
        for x in (0, 1, (1 << m) - 1):
            if x >> m == 0 and backward(forward(x)) != x:
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
        return cls(m, fwd.__getitem__, tuple(bwd).__getitem__, descriptor, table=fwd)

    def normalized(self) -> "PermutationOracle":
        """``_chain`` with the one constant c = f(0), so that 0 maps to 0; a
        table is translated too, and then serves as the forward map.  The
        translation cancels in every derivative, so the transversal stays."""
        c = self.forward(0)
        if c == 0:
            return self
        fwd, bwd = _chain(self.forward, self.backward, [c])
        many = None if self.many is None else _chain(*self.many, vec_to_words([c], self.m))
        table = None if self._table is None else tuple(y ^ c for y in self._table)
        return PermutationOracle(
            self.m, fwd if table is None else table.__getitem__, bwd,
            self.descriptor + "+fix0", many=many, table=table, transversal=self.transversal,
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


@functools.cache
def aes_core() -> PermutationOracle:
    """RotWord then SubWord on the word's four little-endian bytes: byte j
    of the image is S(byte j+1 mod 4)."""
    sbox = bytes(AES_SBOX.table())
    inv_sbox = bytes(map(AES_SBOX.backward, range(256)))
    sbox_arr = np.frombuffer(sbox, dtype=np.uint8)
    inv_sbox_arr = np.frombuffer(inv_sbox, dtype=np.uint8)

    def fwd(x: int) -> int:
        b = x.to_bytes(4, "little")
        return int.from_bytes((b[1:] + b[:1]).translate(sbox), "little")

    def bwd(y: int) -> int:
        b = y.to_bytes(4, "little").translate(inv_sbox)
        return int.from_bytes(b[3:] + b[:3], "little")

    # the S-box acts bytewise, so it is gathered on the bytes in place and
    # the word rotated after: byte j takes byte j+1 when shifted right by 8
    def fwd_many(xs: np.ndarray) -> np.ndarray:
        w = sbox_arr.take(np.ascontiguousarray(xs, dtype=WORD).view(np.uint8)).view(WORD)
        return (w >> 8) | (w << 24)

    def bwd_many(ys: np.ndarray) -> np.ndarray:
        w = inv_sbox_arr.take(np.ascontiguousarray(ys, dtype=WORD).view(np.uint8)).view(WORD)
        return (w << 8) | (w >> 24)

    return PermutationOracle(WORD_BITS, fwd, bwd, "aes-core", many=(fwd_many, bwd_many))


# ---------------------------------------------------------------------
# The operator on packed states


def _ks_step(x, t, n: int):
    """A*x + E(t) of ``ks_apply``, on a packed int or in place on a uint32 array."""
    mask = (1 << 4 * n) - 1
    x ^= (x << n) & mask
    x ^= (x << 2 * n) & mask
    return x ^ t * (mask // ((1 << n) - 1))


def ks_apply(rho: PermutationOracle, x: int) -> int:
    """f(x) = A*x + E(rho(x4)) on a packed 4n-bit state: A replaces each
    word by the XOR of it and the words before it, and E(t) = (t, t, t, t):

        (v1, v2, v3, v4) -> (v1+t, v1+v2+t, v1+v2+v3+t, v1+v2+v3+v4+t),  t = rho(v4)

    On packed states A is two shifted XORs and E(t) is t times
    1 + 2^n + 2^2n + 2^3n (``_ks_step``)."""
    n = rho.m
    if not 0 <= x < 1 << 4 * n:
        raise DimensionMismatch(f"state {x:#x} does not fit four {n}-bit words")
    return _ks_step(x, rho.forward(x >> 3 * n), n)


def ks_inverse(rho: PermutationOracle, x: int) -> int:
    """f^-1(y): since E(t) = A*(t, 0, 0, 0), f(x) = A*(x + (rho(x4), 0, 0, 0)).
    A^-1 is one shifted XOR, and word 4 of A^-1*y is x4, so rho(x4) is known."""
    n = rho.m
    mask = (1 << 4 * n) - 1
    if not 0 <= x <= mask:
        raise DimensionMismatch(f"state {x:#x} does not fit four {n}-bit words")
    x ^= (x << n) & mask
    return x ^ rho.forward(x >> 3 * n)


def _ks_apply_many(rho_fwd: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """``ks_apply`` on an (N, 4) batch of 32-bit word columns: word 1 plus
    rho(word 4), then each word is the one before it plus its own input
    word, three column XORs into one output array."""
    ys = np.empty_like(xs)
    np.bitwise_xor(xs[:, :1], rho_fwd(xs[:, 3:]), out=ys[:, :1])
    np.bitwise_xor(ys[:, 0], xs[:, 1], out=ys[:, 1])
    np.bitwise_xor(ys[:, 1], xs[:, 2], out=ys[:, 2])
    np.bitwise_xor(ys[:, 2], xs[:, 3], out=ys[:, 3])
    return ys


def _ks_inverse_many(rho_fwd: Callable[[np.ndarray], np.ndarray], ys: np.ndarray) -> np.ndarray:
    """``ks_inverse`` on a batch: A^-1 XORs each word with the word before
    it, three column XORs into one output array, then rho(word 4) goes
    into word 1."""
    xs = np.empty_like(ys)
    np.bitwise_xor(ys[:, 3], ys[:, 2], out=xs[:, 3])
    np.bitwise_xor(ys[:, 2], ys[:, 1], out=xs[:, 2])
    np.bitwise_xor(ys[:, 1], ys[:, 0], out=xs[:, 1])
    np.bitwise_xor(ys[:, :1], rho_fwd(xs[:, 3:]), out=xs[:, :1])
    return xs


def _ks_table(rho: PermutationOracle, constant: int) -> tuple[int, ...]:
    """The table of x -> ``ks_apply(rho, x)`` + constant over every 4n-bit
    state: ``_ks_step`` on a numpy range."""
    n = rho.m
    xs = np.arange(1 << 4 * n, dtype=np.uint32)
    t = np.array(rho.table(), dtype=np.uint32)[xs >> 3 * n]
    return tuple((_ks_step(xs, t, n) ^ constant).tolist())


def _chain(step: Callable, undo: Callable, constants: Sequence) -> tuple[Callable, Callable]:
    """x -> step(x) + c for each c in turn, and its inverse (powers, round
    constants, ``normalized``); a constant of None is no XOR at all."""

    def fwd(x):
        for c in constants:
            x = step(x) if c is None else step(x) ^ c
        return x

    def bwd(y):
        for c in reversed(constants):
            y = undo(y if c is None else y ^ c)
        return y

    return fwd, bwd


def ks_oracle(
    rho: PermutationOracle,
    power: int = 1,
    constants: Sequence[int] | None = None,
) -> PermutationOracle:
    """The operator induced by ``rho``, composed ``power`` times, on packed
    4n-bit states.

    ``constants`` optionally re-enables a translation after each forward
    application (e.g. per-round constants): packed 4n-bit vectors, one per
    application.  Over a 32-bit word map with an array twin the operator
    gets one too.

    At power 1 the oracle records the transversal range(0, 2^4n, 2^3n),
    the 2^n states (0, 0, 0, z): f(x+w)+f(x) = A*w + E(rho(x4+w4)+rho(x4))
    depends on x only through x4 (a constant cancels in the sum), so each
    of its values occurs at the state with z = x4.  Other powers keep all
    points: at power 2 most derivatives take values that no state (0, 0, 0, z)
    reaches.  At power 1 within ``MAX_EXHAUSTIVE_POINTS`` the operator's
    table is built at once in numpy from rho's; any other operator is
    tabulated one ``forward`` call per point.
    """
    m = 4 * rho.m
    descriptor = f"ks({rho.descriptor})^{power}"
    if constants is None:
        constants = [0] * abs(power)
    else:
        if power < 1:
            raise ValueError("constants require a positive power")
        if len(constants) != power:
            raise ValueError("need one constant state per application")
        if any(not 0 <= c < 1 << m for c in constants):
            raise DimensionMismatch(f"constants must be {m}-bit states")
        descriptor += "+constants"
    # a negative power runs the chain backwards; its constants are all zero
    order = -1 if power < 0 else 1
    scalar = _chain(functools.partial(ks_apply, rho), functools.partial(ks_inverse, rho), constants)
    many = None
    if rho.many is not None and rho.m == WORD_BITS:
        rows = [row if c else None for c, row in zip(constants, vec_to_words(constants, m))]
        many = _chain(
            functools.partial(_ks_apply_many, rho.many[0]),
            functools.partial(_ks_inverse_many, rho.many[0]),
            rows,
        )[::order]
    transversal = table = None
    if power == 1:
        transversal = range(0, 1 << m, 1 << 3 * rho.m)
        if 1 << m <= MAX_EXHAUSTIVE_POINTS:
            table = _ks_table(rho, constants[0])
    return PermutationOracle(m, *scalar[::order], descriptor, many=many, table=table,
                             transversal=transversal)


# ---------------------------------------------------------------------
# AES-128 instance


def aes128_expand_key(master: int) -> list[int]:
    """Round keys 0..10; round key 0 is the master key."""
    keys = [master]
    for c in aes_round_constant_states(10):
        keys.append(ks_apply(aes_core(), keys[-1]) ^ c)
    return keys


def aes_round_constant_states(rounds: int) -> list[int]:
    """Per-round translations E(rc_i) = (rc_i, rc_i, rc_i, rc_i), i = 1..rounds,
    for at most the ten rounds of AES-128: the step at state 0 with t = rc_i,
    x^(i-1) in the Rijndael field by repeated doubling."""
    if rounds > 10:
        raise ValueError(f"AES-128 has ten round constants, {rounds} requested")
    states, rc = [], 1
    for _ in range(rounds):
        states.append(_ks_step(0, rc, WORD_BITS))
        rc <<= 1
        if rc >> 8:
            rc ^= 0x11B
    return states
