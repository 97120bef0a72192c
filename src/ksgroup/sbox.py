"""S-box property analysis: derivative counts, differential uniformity and
subspace anti-invariance.

An S-box is a ``PermutationOracle`` table of width s = ``m``, like every
other bijection in the package, affine maps included; ``AES_SBOX`` is
defined in ``keyschedule`` and re-exported here.  Only the two properties
needed for the primitivity certificate are computed; no Walsh spectrum,
no algebraic degree.

The anti-invariance scan takes each candidate subspace W of dimension d
as a tuple of RREF rows from ``gf2.rref_bases``, walks its members in
Gray-code order, inserts their images one at a time and moves on to the
next W at the first image that takes their span past d; a ``Subspace``
is built only for the witness it returns.  This is exact: the map is
injective, so the image has 2^d points; once its span exceeds d it is no
subspace, and if every image goes in with the span still at d, the 2^d
points fill it.  Only the span's rank is needed, so it is counted in an
echelon list of s slots, slot p holding the one row with top bit p: an
image is reduced by the row in its top-bit slot until it is 0 (in the
span) or lands in an empty slot (the rank grows by one).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .gf2 import Subspace, derivative, rref_bases
from .keyschedule import AES_SBOX, PermutationOracle  # noqa: F401  (AES_SBOX is re-exported)


class SBoxError(ValueError):
    """Table fails a structural requirement (not bijective, 0 not fixed, ...)."""


class SBoxFormatError(ValueError):
    """Input text does not parse into an S-box table."""


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


def inversion_sbox(s: int, modulus: int) -> PermutationOracle:
    """0 -> 0 and x -> x^(-1) in GF(2^s); the inverse is found by scanning."""
    n = 1 << s
    table = [0] * n
    for a in range(1, n):
        for b in range(1, n):
            if gf_mul(a, b, modulus, s) == 1:
                table[a] = b
                break
    return PermutationOracle.from_table(table, f"inversion(s={s})")


# ---------------------------------------------------------------------
# Difference distribution


def _ddt_rows(sb: PermutationOracle) -> Iterator[np.ndarray]:
    """Rows a = 0, 1, ... of the difference distribution table: counts of
    f(x)+f(x+a), from one numpy copy of the table."""
    t = np.array(sb.table(), dtype=np.uint32)
    for a in range(len(t)):
        yield np.bincount(derivative(t, a), minlength=len(t))


def ddt(sb: PermutationOracle) -> list[list[int]]:
    """Full 2^s x 2^s table; row sums are 2^s and every entry is even."""
    return [row.tolist() for row in _ddt_rows(sb)]


@dataclass(frozen=True)
class DifferentialProfile:
    delta: int
    min_derivative_image: int


def differential_profile(sb: PermutationOracle) -> DifferentialProfile:
    """Max difference count over a != 0, plus the smallest derivative image."""
    n = 1 << sb.m
    delta = 0
    min_image = n
    rows = _ddt_rows(sb)
    next(rows)  # a = 0: every x has difference 0
    for row in rows:
        delta = max(delta, int(row.max()))
        min_image = min(min_image, int(np.count_nonzero(row)))
    return DifferentialProfile(delta, min_image)


# ---------------------------------------------------------------------
# Anti-invariance


@dataclass(frozen=True)
class AntiInvariance:
    """Largest k such that no subspace of dimension s-k..s-1 maps onto a subspace.

    When ``order < max_tested`` the blocking witness is the first subspace
    (in enumeration order) of dimension s-order-1 whose image is closed
    under addition.  A candidate W of dimension d is a row tuple walked in
    Gray-code order, dropped at the first image that takes the span of its
    images past d; one whose 2^d images all go in with the span at d maps
    onto that span, and only it is built as a ``Subspace``.  The span's
    rank is counted in a top-bit echelon list, with no basis kept.
    """

    order: int
    max_tested: int
    witness: Subspace | None


def anti_invariance_order(sb: PermutationOracle, max_delta: int) -> AntiInvariance:
    if sb.forward(0) != 0:
        raise SBoxError("anti-invariance requires a table fixing 0; use normalized()")
    s = sb.m
    if not 0 <= max_delta <= s - 1:
        raise ValueError(f"max_delta must be in 0..{s - 1}")
    t = sb.table()
    for k in range(1, max_delta + 1):
        d = s - k
        for basis in rref_bases(s, d):
            # the image of an injective map has 2^d points; it is a subspace
            # exactly when its span is no bigger.  slots[p] is the span's row
            # with top bit p, or 0; acc walks W in Gray-code order from 0
            slots = [0] * s
            rank = 0
            acc = 0
            for i in range(1 << d):
                if i:
                    acc ^= basis[(i & -i).bit_length() - 1]
                y = t[acc]
                while y:
                    top = y.bit_length() - 1
                    row = slots[top]
                    if not row:
                        slots[top] = y
                        rank += 1
                        break
                    y ^= row
                if rank > d:
                    break
            else:
                return AntiInvariance(order=k - 1, max_tested=max_delta, witness=Subspace(s, basis))
    return AntiInvariance(order=max_delta, max_tested=max_delta, witness=None)


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


def audit_sbox(sb: PermutationOracle, max_delta: int | None = None) -> SBoxAudit:
    """Differential profile plus anti-invariance of the 0-fixed representative.

    Anti-invariance runs first, so that a table too wide to enumerate its
    subspaces raises ``CapacityError`` before the 2^s x 2^s difference
    table is built.
    """
    if max_delta is None:
        max_delta = min(2, sb.m - 1)
    anti = anti_invariance_order(sb.normalized(), max_delta)
    profile = differential_profile(sb)
    return SBoxAudit(
        s=sb.m,
        delta=profile.delta,
        min_derivative_image=profile.min_derivative_image,
        anti=anti,
        normalization_offset=sb.forward(0),
        fixed_points=tuple(x for x, v in enumerate(sb.table()) if x == v),
    )


def parse_sbox_text(text: str) -> PermutationOracle:
    """Hex byte values, whitespace or comma separated; width inferred from
    count.  A table that does not parse raises ``SBoxFormatError``; one that
    is out of range, not bijective or wider than 16 bits raises ``SBoxError``."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise SBoxFormatError("empty S-box file")
    try:
        values = [int(t, 16) for t in tokens]
    except ValueError as exc:
        raise SBoxFormatError(f"bad hex token: {exc}") from None
    n = len(values)
    if n < 2:
        raise SBoxFormatError(f"a table needs at least 2 entries, got {n}")
    if (1 << (n - 1).bit_length()) != n:
        raise SBoxFormatError(f"entry count {n} is not a power of two")
    if n > 1 << 16:
        raise SBoxError(f"width {(n - 1).bit_length()} exceeds the 16-bit table limit")
    try:
        return PermutationOracle.from_table(values)
    except ValueError:
        raise SBoxError(f"table is not a permutation of 0..{n - 1}") from None
