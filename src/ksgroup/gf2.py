"""Exact linear algebra over GF(2) using int-packed bit vectors.

A vector of F_2^m is a plain Python int below 2**m: coordinate i lives in
bit i, so the *first* coordinate of a tuple is the low-order bit.  Packed
this way, vector addition is ``^`` and the vector routines stay allocation
free.  Subspaces are kept in reduced row-echelon form with strictly
increasing pivots, which makes the representation unique: structural
equality of two ``Subspace`` objects is subspace equality.  All
incremental elimination that keeps a basis goes through ``rref_insert``;
the one elimination that keeps none is the rank count of
``sbox.anti_invariance_order``, which reduces each image against an
echelon list indexed by top bit and counts the rows.  All random
members are drawn by ``random_member`` (``matrix_apply`` of one
``getrandbits(len(rows))``, bit j selecting row j) or, for a batch, by
``RowTables.random_members``, which takes the same Mersenne Twister words
in one ``getrandbits`` call and so makes the identical draws.  The one
exception is the seeds of ``search --seed-in-lp``: the CLI draws one
``getrandbits(1)`` per basis row so that its seeded reports replay, and
applies that mask with ``matrix_apply`` too.  ``matrix_apply`` selects
its rows with ``itertools.compress`` over the bits of the mask, low bit
first, and refuses a mask with a bit past its last row or a negative one
(``DimensionMismatch``).  ``Subspace.reduce`` of the full space is its
range check alone: its RREF basis is the identity, so every remainder is 0.
Every difference table of a map given as a numpy table is scanned by
``derivative``.

``RowTables`` is the one batch kernel: a linear map given by rows, applied
to a batch of ``vec_to_words`` arrays through one 256-entry table per
input byte that carries a nonzero row, each gathered with ``np.take``
along axis 0.  Over a row list it draws random
members; built by ``pivot_map`` it takes the RREF residual x + P(x) of a
whole batch in one pass.

``vec_to_hex``/``vec_from_hex`` are the one hex codec for vectors:
little-endian bytes, so byte 0 (coordinates 0..7) is printed first.
Subspace files, witnesses, AES keys, states and round-key words all use
it.  ``enumerate_subspaces`` is lazy: it builds each RREF basis in the
order it yields them, so a scan that stops early pays only for what it saw.
Its bases come from ``rref_bases``, as row tuples for a scan that needs
no ``Subspace`` per candidate; both refuse m above ``MAX_ENUM_DIM``.
``rref_bases`` walks the bases depth first on one explicit stack.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from random import Random

import numpy as np

MAX_ENUM_DIM = 8

# batches of vectors are arrays of little-endian 32-bit words
WORD = np.dtype("<u4")


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
    return matrix_apply(rows, rng.getrandbits(len(rows)))


def vec_to_words(vectors: Sequence[int], m: int) -> np.ndarray:
    """Vectors of F_2^m as the rows of an (N, ceil(m/32)) array of 32-bit
    words, word 0 holding coordinates 0..31: the byte order of ``vec_to_hex``."""
    words = (m + 31) // 32
    raw = b"".join(v.to_bytes(4 * words, "little") for v in vectors)
    return np.frombuffer(raw, dtype=WORD).reshape(len(vectors), words)


class RowTables:
    """The linear map x -> sum of ``rows[i]`` over the set bits i of x,
    applied to a batch: one 256-entry table per input byte that carries a
    nonzero row, so a batch costs one gather per such byte, an ``np.take``
    of whole table rows along axis 0.

    Built over the rows of a sampler it draws random members, and built by
    ``pivot_map`` it gives the RREF residual of every vector of a batch.
    """

    __slots__ = ("k", "words", "tables")

    def __init__(self, rows: Sequence[int], m: int) -> None:
        self.k = len(rows)
        self.words = (m + 31) // 32
        nbytes = (self.k + 7) // 8
        images = np.zeros((8 * nbytes, self.words), WORD)
        images[: self.k] = vec_to_words(rows, m)
        images = images.reshape(nbytes, 8, self.words)
        used = np.flatnonzero(images.any(axis=(1, 2)))
        images = images[used]
        # entry v of a byte's table is the XOR of the rows at the set bits
        # of v, built for every used byte at once by doubling
        tables = np.zeros((len(used), 256, self.words), WORD)
        for i in range(8):
            tables[:, 1 << i : 2 << i] = tables[:, : 1 << i] ^ images[:, i, None]
        self.tables = list(zip(used.tolist(), tables))

    @classmethod
    def pivot_map(cls, u: "Subspace") -> "RowTables":
        """P sends pivot bit p to the row with pivot p and every other bit
        to 0.  The rows are canonical, so x + P(x) is the residual of x
        after one pass: it is computed from the pivot bits of x itself."""
        rows = [0] * u.m
        for p, row in zip(u.pivots, u.basis):
            rows[p] = row
        return cls(rows, u.m)

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Images of the inputs given as an (N, B) uint8 array of
        little-endian bytes, B >= ceil(k/8); bytes past ceil(k/8) are not
        read.  Each byte's table rows are gathered by ``np.take`` along
        axis 0: the rows of ``table[data[:, j]]``, several times faster."""
        out = np.zeros((len(data), self.words), WORD)
        for j, table in self.tables:
            out ^= np.take(table, data[:, j], axis=0)
        return out

    def random_members(self, count: int, rng: Random) -> np.ndarray:
        """``count`` members drawn exactly as ``count`` calls of
        ``random_member(rows, rng)``, bit j of a draw selecting row j, so
        the rng ends in the same state.

        ``getrandbits(k)`` takes ceil(k/32) 32-bit Mersenne Twister
        outputs, low word first, and shifts only the last one right by
        32 - k mod 32; so one ``getrandbits`` of 32 * ceil(k/32) * count
        bits, read as (count, ceil(k/32)) little-endian words with that
        shift on the last word of each row, is the same ``count`` masks.
        """
        words = (self.k + 31) // 32
        raw = rng.getrandbits(32 * words * count).to_bytes(4 * words * count, "little")
        masks = np.frombuffer(raw, dtype=WORD).reshape(count, words).copy()
        if self.k % 32:
            masks[:, -1] >>= 32 - self.k % 32
        return self.apply(masks.view(np.uint8))

    def residuals(self, xs: np.ndarray) -> np.ndarray:
        """x + P(x) for each row of ``vec_to_words`` words; for a
        ``pivot_map`` a row is nonzero exactly when x is outside the span."""
        xs = np.ascontiguousarray(xs, dtype=WORD)
        return xs ^ self.apply(xs.view(np.uint8))


def matrix_apply(rows: Sequence[int], x: int) -> int:
    """x times the matrix whose row i is the image of e_i: the XOR of the
    rows that ``itertools.compress`` selects by the bits of x, read low
    bit first as a string of 0/1 bytes, so the selection runs in C.  A
    mask outside 0..2^len(rows)-1 raises ``DimensionMismatch``."""
    check_vector(len(rows), x)
    bits = format(x, "b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return functools.reduce(operator.xor, itertools.compress(rows, bits), 0)


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

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_trivial(self) -> bool:
        """True for the zero subspace and the full space."""
        return self.dim == 0 or self.dim == self.m

    def reduce(self, v: int) -> int:
        """Remainder of v after elimination against the basis.  The RREF
        basis of the full space is the identity, so there the remainder is
        0 once ``check_vector`` has passed, and the pivot loop is skipped."""
        check_vector(self.m, v)
        if len(self.basis) == self.m:
            return 0
        for p, row in zip(self.pivots, self.basis):
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    __contains__ = contains

    def sum(self, other: "Subspace") -> "Subspace":
        if self.m != other.m:
            raise DimensionMismatch(f"ambient dimensions differ: {self.m} != {other.m}")
        return Subspace(self.m, self.basis + other.basis)

    def elements(self) -> Iterator[int]:
        """All 2^dim members, Gray-code order (constant work per element)."""
        acc = 0
        yield acc
        for i in range(1, 1 << self.dim):
            acc ^= self.basis[_pivot(i)]
            yield acc

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


def rref_bases(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """The RREF basis of every k-dimensional subspace of F_2^m, rows by
    increasing pivot, built lazily in increasing tuple order by one
    depth-first walk.  A stack entry holds the rows chosen so far, their
    bits and an iterator over the next row's candidates (``steps[low]``:
    every row with pivot at least ``low``, paired with its pivot bit).  A
    candidate whose pivot is a bit of an earlier row is skipped, a last
    row completes a basis, and any other is pushed when enough free pivot
    columns lie above its own for the rows still to choose."""
    if m > MAX_ENUM_DIM:
        raise CapacityError(f"enumeration supported for m <= {MAX_ENUM_DIM}, got {m}")
    if not 0 <= k <= m:
        raise ValueError(f"dimension {k} out of range for m={m}")
    if k == 0:
        yield ()
        return
    steps = [[(v, v & -v) for v in range(1 << low, 1 << m, 1 << low)] for low in range(m + 1)]
    stack = [(iter(steps[0]), (), 0)]
    while stack:
        candidates, prefix, used = stack[-1]
        left = k - 1 - len(prefix)
        for v, bit in candidates:
            if used & bit:
                continue
            if not left:
                yield (*prefix, v)
                continue
            p = bit.bit_length() - 1
            if m - p - 1 - ((used | v) >> (p + 1)).bit_count() >= left:
                stack.append((iter(steps[p + 1]), (*prefix, v), used | v))
                break
        else:
            stack.pop()


def enumerate_subspaces(m: int, dims: Iterable[int] | None = None) -> Iterator[Subspace]:
    """Yield every subspace of F_2^m exactly once.

    Order is deterministic: by dimension, then by the RREF basis tuple.
    The bases come from ``rref_bases``, lazily and directly in that order,
    so each subspace appears once without deduplication or sorting, and
    the first is yielded before the rest are built.
    """
    wanted = range(m + 1) if dims is None else sorted(set(dims))
    for k in wanted:
        for basis in rref_bases(m, k):
            yield Subspace._from_rref(m, basis, [_pivot(v) for v in basis])
