"""Exact linear algebra over GF(2) using int-packed bit vectors.

A vector of F_2^m is a plain Python int below 2**m: coordinate i lives in
bit i, so the *first* coordinate of a tuple is the low-order bit.  Packed
this way, vector addition is ``^`` and the vector routines stay allocation
free.  Subspaces are kept in reduced row-echelon form with strictly
increasing pivots, which makes the representation unique: structural
equality of two ``Subspace`` objects is subspace equality.  All
incremental elimination goes through ``rref_insert`` and all random
members are drawn by ``random_member``; every difference table of a map
given as a numpy table is scanned by ``derivative``.

Text I/O writes one basis vector per line as hex of the underlying byte
sequence (byte 0 = coordinates 0..7 printed first).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator, Sequence
from random import Random

import numpy as np

MAX_ENUM_DIM = 8


class DimensionMismatch(ValueError):
    """Operands do not live in the same ambient dimension."""


class CapacityError(ValueError):
    """Requested exhaustive computation exceeds the supported range."""


def check_vector(m: int, v: int) -> None:
    if not isinstance(v, int) or not 0 <= v < (1 << m):
        raise DimensionMismatch(f"vector {v!r} does not fit in {m} bits")


def _pivot(v: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (v & -v).bit_length() - 1


def rref_insert(rows: dict[int, int], vectors: Iterable[int]) -> list[int]:
    """Insert vectors into ``rows`` ({pivot: row}, kept in reduced
    row-echelon form) and return the nonzero residuals in insertion order.

    A residual is the unique v + s with s in the span so far that is zero
    on every pivot, so it does not depend on how the rows are stored.
    """
    new = []
    for v in vectors:
        # one pass suffices: a canonical row holds no other row's pivot
        for p, row in rows.items():
            if (v >> p) & 1:
                v ^= row
        if v:
            p = _pivot(v)
            for q, row in rows.items():
                if (row >> p) & 1:
                    rows[q] = row ^ v
            rows[p] = v
            new.append(v)
    return new


def random_member(rows: Sequence[int], rng: Random) -> int:
    """Sum of a random subset of ``rows``: one ``getrandbits(len(rows))``
    draw, bit j selecting row j, so replays with the same seed agree."""
    mask = rng.getrandbits(len(rows))
    x = 0
    for j, row in enumerate(rows):
        if (mask >> j) & 1:
            x ^= row
    return x


def matrix_apply(rows: Sequence[int], x: int) -> int:
    """x times the matrix whose row i is the image of e_i."""
    y = 0
    while x:
        low = x & -x
        y ^= rows[low.bit_length() - 1]
        x ^= low
    return y


@functools.cache
def _points(n: int) -> np.ndarray:
    """0..n-1 as a read-only index array, built once per table size."""
    xs = np.arange(n, dtype=np.uint32)
    xs.flags.writeable = False
    return xs


def derivative(table: np.ndarray, a: int) -> np.ndarray:
    """f(x + a) + f(x) for every point x, from a uint32 table of f."""
    return table[_points(len(table)) ^ np.uint32(a)] ^ table


def vec_to_hex(v: int, m: int) -> str:
    check_vector(m, v)
    return v.to_bytes((m + 7) // 8, "little").hex()


def vec_from_hex(text: str, m: int) -> int:
    raw = bytes.fromhex(text.strip())
    nbytes = (m + 7) // 8
    if len(raw) != nbytes:
        raise DimensionMismatch(f"expected {nbytes} bytes for m={m}, got {len(raw)}")
    v = int.from_bytes(raw, "little")
    check_vector(m, v)
    return v


class Subspace:
    """A subspace of F_2^m in canonical reduced row-echelon form.

    The constructor accepts any spanning family and canonicalizes it, so
    ``Subspace(m, vectors)`` is the span of ``vectors``.  The basis tuple
    is unique for the subspace: pivots (lowest set bits) are strictly
    increasing and each pivot bit appears in exactly one row.  Instances
    are immutable and hashable.
    """

    __slots__ = ("m", "basis", "pivots")

    def __init__(self, m: int, vectors: Iterable[int] = ()) -> None:
        if m < 0:
            raise ValueError("ambient dimension must be non-negative")
        vectors = list(vectors)
        for v in vectors:
            check_vector(m, v)
        rows: dict[int, int] = {}
        rref_insert(rows, vectors)
        pivots = tuple(sorted(rows))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "basis", tuple(rows[p] for p in pivots))
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_rref(cls, m: int, basis: Sequence[int], pivots: Sequence[int]) -> "Subspace":
        """Trusted constructor for rows already in canonical RREF, with their pivots."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "basis", tuple(basis))
        object.__setattr__(obj, "pivots", tuple(pivots))
        return obj

    @classmethod
    def zero(cls, m: int) -> "Subspace":
        return cls(m)

    @classmethod
    def full(cls, m: int) -> "Subspace":
        return cls._from_rref(m, [1 << i for i in range(m)], range(m))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_trivial(self) -> bool:
        """True for the zero subspace and the full space."""
        return self.dim == 0 or self.dim == self.m

    def reduce(self, v: int) -> int:
        """Remainder of v after elimination against the basis."""
        check_vector(self.m, v)
        for p, row in zip(self.pivots, self.basis):
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    __contains__ = contains

    def _check_same(self, other: "Subspace") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"ambient dimensions differ: {self.m} != {other.m}")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_same(other)
        return Subspace(self.m, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: eliminate (u, u) and (w, 0) rows; zero-left rows give the meet."""
        self._check_same(other)
        m = self.m
        mask = (1 << m) - 1
        rows = [u | (u << m) for u in self.basis] + list(other.basis)
        ech = Subspace(2 * m, rows)
        return Subspace(m, [r >> m for r in ech.basis if not (r & mask)])

    __add__ = sum
    __and__ = intersect

    def complete_basis(self) -> list[int]:
        """Standard vectors extending the basis to all of F_2^m, lowest index first."""
        piv = set(self.pivots)
        return [1 << c for c in range(self.m) if c not in piv]

    def elements(self) -> Iterator[int]:
        """All 2^dim members, Gray-code order (constant work per element)."""
        acc = 0
        yield acc
        for i in range(1, 1 << self.dim):
            acc ^= self.basis[_pivot(i)]
            yield acc

    def to_text(self) -> str:
        lines = [f"m={self.m}"]
        lines += [vec_to_hex(v, self.m) for v in self.basis]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Subspace":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("m="):
            raise ValueError("subspace text must start with 'm=<int>'")
        m = int(lines[0][2:])
        vectors = [vec_from_hex(ln, m) for ln in lines[1:]]
        return cls(m, vectors)  # re-canonicalize on load

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.m == other.m and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.m, self.basis))

    def __repr__(self) -> str:
        rows = ",".join(format(v, "x") for v in self.basis)
        return f"Subspace(m={self.m}, dim={self.dim}, basis=[{rows}])"


def gaussian_binomial(m: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^m."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << m) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def enumerate_subspaces(m: int, dims: Iterable[int] | None = None) -> Iterator[Subspace]:
    """Yield every subspace of F_2^m exactly once.

    Order is deterministic: by dimension, then by the RREF basis tuple.
    Generation builds RREF matrices directly (choose pivots, then free
    entries), so each subspace appears once without deduplication.
    """
    if m > MAX_ENUM_DIM:
        raise CapacityError(f"enumeration supported for m <= {MAX_ENUM_DIM}, got {m}")
    wanted = range(m + 1) if dims is None else sorted(set(dims))
    for k in wanted:
        if not 0 <= k <= m:
            raise ValueError(f"dimension {k} out of range for m={m}")
        found: list[tuple[int, ...]] = []
        for pivots in itertools.combinations(range(m), k):
            pivset = set(pivots)
            # free slots: (row, column) with column > pivot and not a pivot
            slots = [
                (i, c)
                for i, p in enumerate(pivots)
                for c in range(p + 1, m)
                if c not in pivset
            ]
            base = [1 << p for p in pivots]
            for bits in range(1 << len(slots)):
                rows = base.copy()
                t = bits
                while t:
                    j = _pivot(t)
                    t &= t - 1
                    i, c = slots[j]
                    rows[i] |= 1 << c
                found.append((tuple(rows), pivots))
        found.sort()
        for basis, pivots in found:
            yield Subspace._from_rref(m, basis, pivots)
