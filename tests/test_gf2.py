"""GF(2) substrate checks against naive independent oracles."""

import random
import tracemalloc

import numpy as np
import pytest

from ksgroup.gf2 import (
    WORD,
    CapacityError,
    DimensionMismatch,
    Subspace,
    enumerate_subspaces,
    matrix_apply,
    rref_bases,
    vec_from_hex,
    vec_to_hex,
)

# ---------------------------------------------------------------------
# Oracles: deliberately naive, no shared code with the package.


def naive_rank(vectors, m):
    """Row-echelon rank by textbook forward elimination."""
    work = list(vectors)
    rank = 0
    row = 0
    for col in range(m):
        piv = None
        for r in range(row, len(work)):
            if (work[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        for r in range(len(work)):
            if r != row and (work[r] >> col) & 1:
                work[r] ^= work[row]
        rank += 1
        row += 1
    return rank


def naive_span_set(vectors):
    """All XOR combinations, grown point by point."""
    pts = {0}
    for v in vectors:
        pts |= {p ^ v for p in pts}
    return pts


def all_subspace_sets(m):
    """Every subspace of F_2^m as a frozenset, by brute-force span closure."""
    out = set()
    universe = list(range(1 << m))
    # spans of all subsets of up to m vectors are enough to hit everything
    def grow(current, start):
        out.add(frozenset(current))
        for v in universe[start:]:
            if v not in current:
                grow(naive_span_set(list(current) + [v]), universe.index(v) + 1)

    grow({0}, 0)
    return out


def lowest_bit(v):
    return (v & -v).bit_length() - 1


def intersect(a, b):
    """Zassenhaus: eliminate (u, u) and (w, 0) rows; zero-left rows give the meet."""
    m = a.m
    assert b.m == m
    mask = (1 << m) - 1
    ech = Subspace(2 * m, [u | (u << m) for u in a.basis] + list(b.basis))
    return Subspace(m, [r >> m for r in ech.basis if not (r & mask)])


def gaussian_binomial(m: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^m."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << m) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def full_space(m: int) -> Subspace:
    return Subspace(m, [1 << i for i in range(m)])


def subspace_text(s: Subspace) -> str:
    """The text form that ``Subspace.from_text`` reads: ``m=<int>``, then
    one hex row per basis vector."""
    lines = [f"m={s.m}", *(vec_to_hex(v, s.m) for v in s.basis)]
    return "\n".join(lines) + "\n"


def vec_from_words(words: np.ndarray) -> int:
    """The vector held by one row of ``gf2.vec_to_words``."""
    return int.from_bytes(words.astype(WORD).tobytes(), "little")


def naive_rref_basis(elements):
    """Canonical basis of a subspace given as its element set: the pivots
    are the lowest set bits of the members, and the row of pivot p is the
    one member whose only pivot bit is p.  Rows in increasing pivot order."""
    pivots = {lowest_bit(v) for v in elements if v}
    rows = [v for v in elements if v and all(not (v >> q) & 1 for q in pivots - {lowest_bit(v)})]
    return tuple(sorted(rows, key=lowest_bit))


# ---------------------------------------------------------------------
# Canonicalization


def test_empty_span_is_zero_subspace():
    s = Subspace(4)
    assert s.dim == 0 and s.basis == ()


def test_dependent_vector_dropped():
    # 0001 -> coord 3, 0010 -> coord 2, 0011 -> coords 2+3
    s = Subspace(4, [0b1000, 0b0100, 0b1100])
    assert s.basis == (0b0100, 0b1000)
    assert s.dim == 2


def test_rank_matches_elimination_oracle():
    rng = random.Random(101)
    for _ in range(200):
        vecs = [rng.getrandbits(8) for _ in range(8)]
        assert Subspace(8, vecs).dim == naive_rank(vecs, 8)


def test_rref_unique_under_recombination():
    rng = random.Random(7)
    for _ in range(100):
        vecs = [rng.getrandbits(6) for _ in range(4)]
        s = Subspace(6, vecs)
        # random invertible recombination of the basis
        mixed = list(s.basis)
        for _ in range(20):
            if len(mixed) >= 2:
                i, j = rng.sample(range(len(mixed)), 2)
                mixed[i] ^= mixed[j]
        rng.shuffle(mixed)
        assert Subspace(6, mixed) == s


def test_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        Subspace(4, [0b10000])
    with pytest.raises(DimensionMismatch):
        Subspace(4, [1]).contains(1 << 7)


# ---------------------------------------------------------------------
# Membership


def test_contains_zero_always():
    assert Subspace(5).contains(0)
    assert Subspace(5, [3, 17]).contains(0)


def test_contains_sum_of_basis():
    s = Subspace(4, [0b0100, 0b1000])
    assert s.contains(0b1100)
    assert not s.contains(0b0010)


@pytest.mark.parametrize("m", [1, 7, 32, 128])
@pytest.mark.parametrize("bad", ["too wide", "negative", "float", "str"])
def test_full_space_refuses_vectors_outside_it(m, bad):
    # the full space answers by its range check alone, which must still refuse
    v = {"too wide": 1 << m, "negative": -1, "float": 1.0, "str": "1"}[bad]
    u = full_space(m)
    for test in (u.reduce, u.contains):
        with pytest.raises(DimensionMismatch):
            test(v)


@pytest.mark.parametrize("k", [0, 1, 3, 128])
def test_matrix_apply_refuses_masks_outside_its_rows(k):
    rows = [random.Random(k).getrandbits(128) for _ in range(k)]
    for mask in (-1, -(1 << k), 1 << k, (1 << (k + 8)) - 1):
        with pytest.raises(DimensionMismatch):
            matrix_apply(rows, mask)


def test_closure_under_addition_sampled():
    rng = random.Random(42)
    for _ in range(50):
        s = Subspace(8, [rng.getrandbits(8) for _ in range(4)])
        members = list(s.elements())
        u, v = rng.choice(members), rng.choice(members)
        assert s.contains(u ^ v)


# ---------------------------------------------------------------------
# Sum / intersection


def test_sum_intersect_idempotent():
    s = Subspace(6, [9, 34, 7])
    assert s.sum(s) == s
    assert intersect(s, s) == s


def test_independent_lines():
    a, b = Subspace(4, [0b0001]), Subspace(4, [0b0010])
    assert a.sum(b).dim == 2
    assert intersect(a, b).dim == 0


def test_dimension_formula_against_element_listing():
    rng = random.Random(77)
    for _ in range(60):
        s1 = Subspace(6, [rng.getrandbits(6) for _ in range(3)])
        s2 = Subspace(6, [rng.getrandbits(6) for _ in range(3)])
        e1, e2 = naive_span_set(s1.basis), naive_span_set(s2.basis)
        union_span = naive_span_set(list(s1.basis) + list(s2.basis))
        meet = e1 & e2
        assert len(union_span) == 1 << s1.sum(s2).dim
        assert len(meet) == 1 << intersect(s1, s2).dim
        assert s1.sum(s2).dim + intersect(s1, s2).dim == s1.dim + s2.dim
        # element-level agreement, not just dimensions
        assert naive_span_set(intersect(s1, s2).basis) == meet


def test_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace(4).sum(Subspace(5))


# ---------------------------------------------------------------------
# Enumeration


def test_enumerate_m1():
    subs = list(enumerate_subspaces(1))
    assert len(subs) == 2


def test_enumerate_m4_count_is_67():
    subs = list(enumerate_subspaces(4))
    # Gaussian binomial sum 1+15+35+15+1
    assert [gaussian_binomial(4, k) for k in range(5)] == [1, 15, 35, 15, 1]
    assert len(subs) == 67
    # brute-force cross-check: spans of all vector subsets
    assert len(all_subspace_sets(4)) == 67
    assert {frozenset(s.elements()) for s in subs} == all_subspace_sets(4)


def test_enumerate_dimension_filter():
    assert sum(1 for _ in enumerate_subspaces(4, dims={3})) == 15


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_distinct_and_counted(m):
    seen = set()
    per_dim = {}
    for s in enumerate_subspaces(m):
        assert s not in seen
        seen.add(s)
        per_dim[s.dim] = per_dim.get(s.dim, 0) + 1
    for k in range(m + 1):
        assert per_dim.get(k, 0) == gaussian_binomial(m, k)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_order_is_dim_then_basis(m):
    expected = sorted((len(b), b) for b in map(naive_rref_basis, all_subspace_sets(m)))
    assert [(s.dim, s.basis) for s in enumerate_subspaces(m)] == expected
    # the bare row tuples are the same bases in the same order
    for k in range(m + 1):
        assert list(rref_bases(m, k)) == [s.basis for s in enumerate_subspaces(m, (k,))]


def test_enumerate_is_lazy():
    # the first of the 200787 four-dimensional subspaces of F_2^8 comes
    # before the rest are built
    tracemalloc.start()
    try:
        next(enumerate_subspaces(8, (4,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_capacity_refused():
    with pytest.raises(CapacityError):
        next(enumerate_subspaces(9))
    with pytest.raises(CapacityError):
        next(rref_bases(9, 1))


# ---------------------------------------------------------------------
# Text format


def test_text_roundtrip():
    rng = random.Random(11)
    for m in (1, 4, 8, 12, 32):
        s = Subspace(m, [rng.getrandbits(m) for _ in range(4)])
        assert Subspace.from_text(subspace_text(s)) == s


def test_text_recanonicalizes():
    text = "m=4\n" + vec_to_hex(0b1100, 4) + "\n" + vec_to_hex(0b1000, 4) + "\n"
    s = Subspace.from_text(text)
    assert s == Subspace(4, [0b1100, 0b1000])
    assert s.basis == (0b0100, 0b1000)


def test_vec_hex_is_byte_ordered():
    # coordinate 0 sits in the first byte of the hex string
    assert vec_to_hex(1, 16) == "0100"
    assert vec_from_hex("0100", 16) == 1
    with pytest.raises(DimensionMismatch):
        vec_from_hex("01", 16)
