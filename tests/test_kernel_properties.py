"""Property tests for the shared GF(2) kernel.

The elimination routine, the random-member sampler, the difference-table
scan and the loops built on them are checked against brute-force element
sets and against the loops they replaced, which are copied here verbatim
as references.
"""

import json
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksgroup.gf2 import (
    Subspace,
    derivative,
    enumerate_subspaces,
    random_member,
    rref_insert,
)
from ksgroup.goursat import decompose, reconstruct
from ksgroup.keyschedule import PermutationOracle
from ksgroup.sbox import (
    anti_invariance_order,
    ddt,
    differential_profile,
)

BOUNDED = settings(max_examples=150, deadline=None)


def span_set(vectors):
    """All XOR combinations, grown point by point."""
    pts = {0}
    for v in vectors:
        pts |= {p ^ v for p in pts}
    return pts


@st.composite
def families(draw, max_m=8, count=2):
    m = draw(st.integers(0, max_m))
    vec = st.integers(0, (1 << m) - 1)
    return (m,) + tuple(draw(st.lists(vec, max_size=10)) for _ in range(count))


# ---------------------------------------------------------------------
# References: the loops the shared kernel replaced


def old_sample(rows, rng):
    """The inline sampler of closure_search and is_linear_block."""
    u = 0
    mask = rng.getrandbits(len(rows)) if rows else 0
    for j in range(len(rows)):
        if (mask >> j) & 1:
            u ^= rows[j]
    return u


def old_closure_residuals(vectors):
    """closure_search's insert: echelon form without back-substitution."""
    rows = {}
    out = []
    for vec in vectors:
        for p, row in rows.items():
            if (vec >> p) & 1:
                vec ^= row
        if vec:
            rows[(vec & -vec).bit_length() - 1] = vec
            out.append(vec)
    return out


def old_hom(u, m1):
    """decompose's carrier loop: look up a member of U over each basis
    vector of the left image."""
    mask1 = (1 << m1) - 1
    left_image = Subspace(m1, (row & mask1 for row in u.basis))
    carriers = [row for row in u.basis if row & mask1]
    hom_rows = [0] * m1
    for a in left_image.basis:
        r, member = a, 0
        for row in carriers:
            p = (row & -row).bit_length() - 1
            if (r >> p) & 1:
                r ^= row & mask1
                member ^= row
        assert not r
        hom_rows[(a & -a).bit_length() - 1] = member >> m1
    return tuple(hom_rows)


# ---------------------------------------------------------------------
# Subspace against brute-force element sets


@BOUNDED
@given(families(count=1))
def test_subspace_is_the_span(case):
    m, vs = case
    u = Subspace(m, vs)
    pts = span_set(vs)
    assert set(u.elements()) == pts
    assert len(pts) == 1 << u.dim
    assert u.pivots == tuple((r & -r).bit_length() - 1 for r in u.basis)
    assert list(u.pivots) == sorted(set(u.pivots))
    assert all(u.contains(x) == (x in pts) for x in range(1 << m))


@BOUNDED
@given(families(count=2))
def test_sum_and_intersection_are_brute_force(case):
    m, a, b = case
    ua, ub = Subspace(m, a), Subspace(m, b)
    assert set((ua + ub).elements()) == span_set(a + b)
    assert set((ua & ub).elements()) == span_set(a) & span_set(b)


@pytest.mark.parametrize("m", range(6))
def test_trusted_constructors_store_true_pivots(m):
    for u in [*enumerate_subspaces(m), Subspace.full(m)]:
        v = Subspace(m, u.basis)
        assert (u.basis, u.pivots) == (v.basis, v.pivots)


# ---------------------------------------------------------------------
# The insert kernel and the sampler against the replaced loops


@BOUNDED
@given(families(count=1))
def test_residuals_match_echelon_without_back_substitution(case):
    m, vs = case
    rows = {}
    one_by_one = [r for v in vs for r in rref_insert(rows, (v,))]
    assert one_by_one == old_closure_residuals(vs)
    assert rref_insert({}, vs) == one_by_one
    assert tuple(rows[p] for p in sorted(rows)) == Subspace(m, vs).basis


@BOUNDED
@given(st.lists(st.integers(0, 255), max_size=10), st.integers(0, 2**32))
def test_sampler_draws_like_the_inline_loop(rows, seed):
    new, old = Random(seed), Random(seed)
    for _ in range(20):
        assert random_member(rows, new) == old_sample(rows, old)
    assert new.random() == old.random()


# ---------------------------------------------------------------------
# Difference tables: the numpy scan against the per-point loop


@BOUNDED
@given(st.integers(1, 7).flatmap(lambda m: st.permutations(range(1 << m))), st.data())
def test_difference_table_against_loop(perm, data):
    n = len(perm)
    a = data.draw(st.integers(0, n - 1))
    assert derivative(np.array(perm, dtype=np.uint32), a).tolist() == [
        perm[x ^ a] ^ perm[x] for x in range(n)
    ]
    rows = [[0] * n for _ in range(n)]
    for b in range(n):
        for x in range(n):
            rows[b][perm[x] ^ perm[x ^ b]] += 1
    sb = PermutationOracle.from_table(perm)
    assert ddt(sb) == rows
    profile = differential_profile(sb)
    assert profile.delta == max(max(row) for row in rows[1:])
    assert profile.min_derivative_image == min(sum(1 for c in row if c) for row in rows[1:])
    json.dumps([ddt(sb), profile.delta, profile.min_derivative_image])  # plain ints only


# ---------------------------------------------------------------------
# Anti-invariance: the early-stopping span against closure of the image set


def anti_invariance_reference(table, max_delta):
    """(order, witness): the first subspace of dimension s-k, k = 1, 2, ...,
    in enumeration order, whose image set is closed under XOR."""
    s = (len(table) - 1).bit_length()
    for k in range(1, max_delta + 1):
        for w in enumerate_subspaces(s, dims=(s - k,)):
            image = {table[x] for x in w.elements()}
            if all(a ^ b in image for a in image for b in image):
                return k - 1, w
    return max_delta, None


@st.composite
def zero_fixing_tables(draw):
    s = draw(st.integers(2, 5))
    rest = draw(st.permutations(range(1, 1 << s)))
    return [0, *rest], draw(st.integers(0, s - 1))


@BOUNDED
@given(zero_fixing_tables())
def test_anti_invariance_against_image_closure(case):
    table, max_delta = case
    anti = anti_invariance_order(PermutationOracle.from_table(table), max_delta)
    assert (anti.order, anti.witness) == anti_invariance_reference(table, max_delta)
    assert anti.max_tested == max_delta


# ---------------------------------------------------------------------
# Loops rebuilt on Subspace


@st.composite
def products(draw):
    m1 = draw(st.integers(1, 4))
    m2 = draw(st.integers(1, 4))
    vs = draw(st.lists(st.integers(0, (1 << (m1 + m2)) - 1), max_size=8))
    return m1, m2, vs


@BOUNDED
@given(products())
def test_decompose_hom_matches_carrier_loop(case):
    m1, m2, vs = case
    u = Subspace(m1 + m2, vs)
    g = decompose(u, m1, m2)
    assert g.hom == old_hom(u, m1)
    assert set(reconstruct(g).elements()) == span_set(vs)
