"""S-box property analysis: derivative counts, differential uniformity,
subspace anti-invariance, and affine-equivalence tooling.

Only the two properties needed for the primitivity certificate are
computed here; no Walsh spectrum, no algebraic degree.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from random import Random

from .gf2 import Subspace, enumerate_subspaces

MAX_SBOX_WIDTH = 16


class SBoxError(ValueError):
    """Table fails a structural requirement (not bijective, 0 not fixed, ...)."""


class SBoxFormatError(ValueError):
    """Input text does not parse into an S-box table."""


class SBox:
    """A bijective lookup table on F_2^s."""

    __slots__ = ("s", "table")

    def __init__(self, table: Sequence[int]):
        n = len(table)
        s = (n - 1).bit_length()
        if n < 2 or (1 << s) != n:
            raise SBoxFormatError(f"table length {n} is not a power of two")
        if s > MAX_SBOX_WIDTH:
            raise SBoxError(f"width {s} exceeds tabulated limit {MAX_SBOX_WIDTH}")
        if sorted(table) != list(range(n)):
            raise SBoxError("table is not a permutation of 0..2^s-1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "table", tuple(table))

    def __setattr__(self, name, value):
        raise AttributeError("SBox is immutable")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other):
        return isinstance(other, SBox) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"SBox(s={self.s}, table[0..3]={self.table[:4]}...)"

    def inverse(self) -> "SBox":
        inv = [0] * len(self.table)
        for x, y in enumerate(self.table):
            inv[y] = x
        return SBox(inv)

    def normalized(self) -> "SBox":
        """The table x -> f(x) + f(0), which fixes 0."""
        c = self.table[0]
        if c == 0:
            return self
        return SBox([v ^ c for v in self.table])

    @classmethod
    def identity(cls, s: int) -> "SBox":
        return cls(range(1 << s))


def gf_mul(a: int, b: int, modulus: int, s: int) -> int:
    """Carry-less multiply in GF(2^s) defined by the given modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> s:
            a ^= modulus
    return r


def inversion_sbox(s: int, modulus: int) -> SBox:
    """0 -> 0 and x -> x^(-1) in GF(2^s); the inverse is found by scanning."""
    n = 1 << s
    table = [0] * n
    for a in range(1, n):
        for b in range(1, n):
            if gf_mul(a, b, modulus, s) == 1:
                table[a] = b
                break
    return SBox(table)


# FIPS-197 SubBytes table.
AES_SBOX = SBox((
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
))


# ---------------------------------------------------------------------
# Difference distribution


def ddt_row(sb: SBox, a: int) -> list[int]:
    """Row a of the difference distribution table: counts of f(x)+f(x+a)."""
    n = len(sb.table)
    row = [0] * n
    t = sb.table
    for x in range(n):
        row[t[x] ^ t[x ^ a]] += 1
    return row


def ddt(sb: SBox) -> list[list[int]]:
    """Full 2^s x 2^s table; row sums are 2^s and every entry is even."""
    return [ddt_row(sb, a) for a in range(len(sb.table))]


@dataclass(frozen=True)
class DifferentialProfile:
    delta: int
    min_derivative_image: int


def differential_profile(sb: SBox) -> DifferentialProfile:
    """Max difference count over a != 0, plus the smallest derivative image."""
    n = len(sb.table)
    delta = 0
    min_image = n
    for a in range(1, n):
        row = ddt_row(sb, a)
        delta = max(delta, max(row))
        min_image = min(min_image, sum(1 for c in row if c))
    # |Im(d_a f)| >= 2^s / delta must hold for every row
    if min_image * delta < n:
        raise AssertionError("derivative image bound violated; table corrupt?")
    return DifferentialProfile(delta, min_image)


def differential_uniformity(sb: SBox) -> int:
    return differential_profile(sb).delta


# ---------------------------------------------------------------------
# Anti-invariance


def _image_subspace_dim(sb: SBox, w: Subspace) -> int:
    return Subspace(sb.s, (sb.table[x] for x in w.elements())).dim


@dataclass(frozen=True)
class AntiInvariance:
    """Largest k such that no subspace of dimension s-k..s-1 maps onto a subspace.

    When ``order < max_tested`` the blocking witness is the first subspace
    (in enumeration order) of dimension s-order-1 whose image is closed
    under addition.
    """

    order: int
    max_tested: int
    witness: Subspace | None


def anti_invariance_order(sb: SBox, max_delta: int) -> AntiInvariance:
    if sb.table[0] != 0:
        raise SBoxError("anti-invariance requires a table fixing 0; use normalized()")
    if not 0 <= max_delta <= sb.s - 1:
        raise ValueError(f"max_delta must be in 0..{sb.s - 1}")
    for k in range(1, max_delta + 1):
        d = sb.s - k
        for w in enumerate_subspaces(sb.s, dims=(d,)):
            # the image of an injective map has 2^d points; it is a subspace
            # exactly when its span is no bigger
            if _image_subspace_dim(sb, w) == d:
                return AntiInvariance(order=k - 1, max_tested=max_delta, witness=w)
    return AntiInvariance(order=max_delta, max_tested=max_delta, witness=None)


# ---------------------------------------------------------------------
# Affine equivalence


def _matrix_apply(rows: Sequence[int], x: int) -> int:
    y = 0
    while x:
        low = x & -x
        y ^= rows[low.bit_length() - 1]
        x ^= low
    return y


def _matrix_inverse(rows: Sequence[int], s: int) -> tuple[int, ...]:
    """RREF of the rows (M_i | e_i) in F_2^{2s} is (e_i | row i of M^-1)
    exactly when M is invertible."""
    aug = Subspace(2 * s, (rows[i] | (1 << (s + i)) for i in range(s)))
    if [row & ((1 << s) - 1) for row in aug.basis] != [1 << i for i in range(s)]:
        raise SBoxError("matrix is singular")
    return tuple(row >> s for row in aug.basis)


@dataclass(frozen=True)
class AffineMap:
    """x -> x*M + c with an invertible matrix M (rows[i] = image of e_i)."""

    s: int
    rows: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        if len(self.rows) != self.s:
            raise SBoxError(f"expected {self.s} matrix rows")
        if Subspace(self.s, self.rows).dim != self.s:
            raise SBoxError("matrix is singular")

    def __call__(self, x: int) -> int:
        return _matrix_apply(self.rows, x) ^ self.offset

    def inverse(self) -> "AffineMap":
        inv_rows = _matrix_inverse(self.rows, self.s)
        return AffineMap(self.s, inv_rows, _matrix_apply(inv_rows, self.offset))

    @classmethod
    def identity(cls, s: int) -> "AffineMap":
        return cls(s, tuple(1 << i for i in range(s)))

    @classmethod
    def random(cls, s: int, rng: Random, with_offset: bool = True) -> "AffineMap":
        while True:
            rows = tuple(rng.getrandbits(s) for _ in range(s))
            if Subspace(s, rows).dim == s:
                break
        return cls(s, rows, rng.getrandbits(s) if with_offset else 0)


def apply_affine_equiv(sb: SBox, pre: AffineMap, post: AffineMap) -> SBox:
    """The table x -> post(f(pre(x)))."""
    if pre.s != sb.s or post.s != sb.s:
        raise SBoxError("affine map width does not match the S-box")
    return SBox([post(sb.table[pre(x)]) for x in range(len(sb.table))])


# ---------------------------------------------------------------------
# Audit bundle (CLI-facing)


@dataclass(frozen=True)
class SBoxAudit:
    s: int
    delta: int
    min_derivative_image: int
    anti: AntiInvariance
    normalization_offset: int  # f(0) of the input table, xored away before anti-invariance
    fixed_points: tuple[int, ...]


def audit_sbox(sb: SBox, max_delta: int | None = None) -> SBoxAudit:
    """Differential profile plus anti-invariance of the 0-fixed representative."""
    if max_delta is None:
        max_delta = min(2, sb.s - 1)
    profile = differential_profile(sb)
    anti = anti_invariance_order(sb.normalized(), max_delta)
    return SBoxAudit(
        s=sb.s,
        delta=profile.delta,
        min_derivative_image=profile.min_derivative_image,
        anti=anti,
        normalization_offset=sb.table[0],
        fixed_points=tuple(x for x, v in enumerate(sb.table) if x == v),
    )


def parse_sbox_text(text: str) -> SBox:
    """Hex byte values, whitespace or comma separated; width inferred from count."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise SBoxFormatError("empty S-box file")
    try:
        values = [int(t, 16) for t in tokens]
    except ValueError as exc:
        raise SBoxFormatError(f"bad hex token: {exc}") from None
    n = len(values)
    if (1 << (n - 1).bit_length()) != n or n < 2:
        raise SBoxFormatError(f"entry count {n} is not a power of two")
    if any(v < 0 or v >= n for v in values):
        raise SBoxError(f"values out of range 0..{n - 1}")
    return SBox(values)
