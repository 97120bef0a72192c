"""Property tests for the shared GF(2) kernel.

The elimination routine, the random-member sampler, the difference-table
scan and the loops built on them are checked against brute-force element
sets and against the loops they replaced, which are copied here verbatim
as references.
"""

import importlib.util
import itertools
import json
import time
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksgroup import invariants
from ksgroup.gf2 import (
    RowTables,
    Subspace,
    derivative,
    enumerate_subspaces,
    matrix_apply,
    random_member,
    rref_bases,
    rref_insert,
    vec_to_words,
)
from ksgroup.goursat import decompose, reconstruct
from ksgroup.invariants import ClosureResult, closure_search, escapes, lp_pattern_subspace
from ksgroup.keyschedule import (
    PermutationOracle,
    aes_core,
    aes_round_constant_states,
    ks_oracle,
)
from ksgroup.sbox import (
    anti_invariance_order,
    ddt,
    differential_profile,
)
from test_gf2 import full_space, gaussian_binomial, intersect, vec_from_words

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


def old_matrix_apply(rows, x):
    """matrix_apply's loop over the set bits of x, lowest first."""
    y = 0
    while x:
        low = x & -x
        y ^= rows[low.bit_length() - 1]
        x ^= low
    return y


def old_reduce(u, v):
    """Subspace.reduce's pivot loop, which the full space no longer runs."""
    for p, row in zip(u.pivots, u.basis):
        if (v >> p) & 1:
            v ^= row
    return v


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


def old_rref_bases(m, k, low=0, used=0):
    """rref_bases's recursion: the first row in increasing order, then
    every completion of it by a recursive call."""
    if k == 0:
        yield ()
        return
    for v in range(1 << low, 1 << m, 1 << low):
        p = (v & -v).bit_length() - 1
        if (used >> p) & 1 or m - p - 1 - ((used | v) >> (p + 1)).bit_count() < k - 1:
            continue
        for rest in old_rref_bases(m, k - 1, p + 1, used | v):
            yield (v, *rest)


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
    assert set(ua.sum(ub).elements()) == span_set(a + b)
    assert set(intersect(ua, ub).elements()) == span_set(a) & span_set(b)


@pytest.mark.parametrize("m", range(6))
def test_trusted_constructors_store_true_pivots(m):
    for u in [*enumerate_subspaces(m), full_space(m)]:
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


@st.composite
def rows_and_mask(draw):
    """0..160 rows of 128 bits and a mask that fits them: 0, all ones, a
    single bit or any."""
    k = draw(st.integers(0, 160))
    rows = draw(st.lists(st.integers(0, 2**128 - 1), min_size=k, max_size=k))
    single = st.integers(0, k - 1).map(lambda i: 1 << i) if k else st.just(0)
    return rows, draw(st.one_of(st.just(0), st.just((1 << k) - 1), single, st.integers(0, (1 << k) - 1)))


@BOUNDED
@given(rows_and_mask())
def test_matrix_apply_against_the_bit_loop(case):
    rows, x = case
    assert matrix_apply(rows, x) == old_matrix_apply(rows, x)


@BOUNDED
@given(st.sampled_from([1, 7, 32, 128]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, 2**m - 1), max_size=m + 2),
                        st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=20))))
def test_reduce_and_contains_against_the_pivot_loop(case):
    m, vs, probes = case
    for u in (Subspace(m, vs), full_space(m)):
        for v in (*probes, *u.basis, 0, (1 << m) - 1):
            assert u.reduce(v) == old_reduce(u, v)
            assert u.contains(v) == (old_reduce(u, v) == 0)


@BOUNDED
@given(st.lists(st.integers(0, 2**128 - 1), max_size=128), st.integers(0, 2**32))
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
# The RREF basis walk against the recursion and against Subspace


@pytest.mark.parametrize("m, k", [(m, k) for m in range(8) for k in range(m + 1)]
                         + [(8, k) for k in (1, 2, 6, 7)])
def test_rref_walk_replays_the_recursion(m, k):
    assert list(rref_bases(m, k)) == list(old_rref_bases(m, k))


@pytest.mark.parametrize("m", [6, 7, 8])
def test_rref_bases_are_every_subspace_once_in_order(m):
    for k in range(m + 1):
        bases = list(rref_bases(m, k))
        assert len(bases) == gaussian_binomial(m, k)
        assert all(a < b for a, b in itertools.pairwise(bases))
        assert all(Subspace(m, t).basis == t for t in bases)


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


# ---------------------------------------------------------------------
# Batched closure rounds and escapes scans against the per-point loops


def per_point_escapes(oracle, u, samples, rng):
    """escapes before batching."""
    return sum(not u.contains(oracle.forward(random_member(u.basis, rng))) for _ in range(samples))


def per_point_closure_search(oracle, seeds, samples_per_round=256, stable_rounds=64, seed=0,
                             max_rounds=1 << 16, budget_ms=None, fresh_samples=1000):
    """closure_search before batching; also returns its rng."""
    if oracle.forward(0) != 0:
        raise ValueError("operator must fix 0; use a normalized word permutation")
    m = oracle.m
    seeds = list(seeds)
    for s in seeds:
        if not 0 <= s < (1 << m):
            raise ValueError(f"seed {s:#x} does not fit in {m} bits")
    rows = {}
    residuals = rref_insert(rows, seeds)

    rng = Random(seed)
    t0 = time.perf_counter()
    rounds = stable = evals = 0
    while len(rows) < m and stable < stable_rounds and rounds < max_rounds:
        if budget_ms is not None and (time.perf_counter() - t0) * 1000 > budget_ms:
            stop_reason = "budget"
            break
        grew = False
        for _ in range(samples_per_round):
            u = random_member(residuals, rng)
            new = rref_insert(rows, (oracle.forward(u), oracle.backward(u)))
            evals += 2
            if new:
                grew = True
                residuals += new
            if len(rows) == m:
                break
        rounds += 1
        stable = 0 if grew else stable + 1
    else:
        stop_reason = "full" if len(rows) == m else "stable" if stable >= stable_rounds else "max-rounds"

    pivots = sorted(rows)
    result = Subspace._from_rref(m, [rows[p] for p in pivots], pivots)
    fresh_ok = per_point_escapes(oracle, result, fresh_samples, rng) == 0 if fresh_samples else None
    return ClosureResult(
        subspace=result, rounds=rounds, evaluations=evals,
        fresh_invariance_ok=fresh_ok, stop_reason=stop_reason,
    ), rng


@st.composite
def aes_oracles(draw):
    """A power of the AES operator with its array twin: constant-free on
    the normalized word map, or with round constants and normalized."""
    power = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return ks_oracle(aes_core(), power, aes_round_constant_states(power)).normalized()
    return ks_oracle(aes_core().normalized(), power)


REPLAY = settings(max_examples=40, deadline=None)
points128 = st.lists(st.integers(0, (1 << 128) - 1), min_size=1, max_size=8)


@REPLAY
@given(st.integers(1, 4), st.booleans(), st.booleans(), points128)
def test_array_twin_matches_the_operator(power, with_constants, normalize, xs):
    rho = aes_core().normalized() if normalize and not with_constants else aes_core()
    oracle = ks_oracle(rho, power, aes_round_constant_states(power) if with_constants else None)
    if normalize and with_constants:
        oracle = oracle.normalized()
    forward_many, backward_many = oracle.many
    words = vec_to_words(xs, 128)
    assert [vec_from_words(w) for w in forward_many(words)] == [oracle.forward(x) for x in xs]
    assert [vec_from_words(w) for w in backward_many(words)] == [oracle.backward(x) for x in xs]
    low = vec_to_words([x & 0xFFFFFFFF for x in xs], 32)
    # the operator's twin reads only the word map's forward twin, so both
    # directions of the plain and the normalized word map are checked here
    for core in (aes_core(), aes_core().normalized()):
        assert [vec_from_words(w) for w in core.many[0](low)] == [core.forward(x & 0xFFFFFFFF) for x in xs]
        assert [vec_from_words(w) for w in core.many[1](low)] == [core.backward(x & 0xFFFFFFFF) for x in xs]


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("power", [2, 3, 4])
def test_twin_skips_exactly_the_zero_constants(power, first):
    # zero states alternate with round constants, so a skip keyed on the
    # wrong step, or on any constant being zero, changes some image
    constants = [c if i % 2 == first else 0 for i, c in enumerate(aes_round_constant_states(power))]
    oracle = ks_oracle(aes_core(), power, constants)
    rng = Random(power)
    xs = [0, *(rng.getrandbits(128) for _ in range(7))]
    forward_many, backward_many = oracle.many
    words = vec_to_words(xs, 128)
    assert [vec_from_words(w) for w in forward_many(words)] == [oracle.forward(x) for x in xs]
    assert [vec_from_words(w) for w in backward_many(words)] == [oracle.backward(x) for x in xs]


@REPLAY
@given(st.integers(1, 4), points128)
def test_negative_power_is_the_inverse_operator(power, xs):
    # `search --power` takes negative powers; both evaluation paths must
    # run the inverse step there
    rho = aes_core().normalized()
    pos, neg = ks_oracle(rho, power), ks_oracle(rho, -power)
    assert [neg.forward(x) for x in xs] == [pos.backward(x) for x in xs]
    assert [neg.backward(x) for x in xs] == [pos.forward(x) for x in xs]
    words = vec_to_words(xs, 128)
    for many, ref in zip(neg.many, (pos.backward, pos.forward)):
        assert [vec_from_words(w) for w in many(words)] == [ref(x) for x in xs]


@BOUNDED
@given(families(max_m=40, count=2), st.integers(0, 2**32))
def test_row_tables_against_matrix_loops(case, seed):
    m, rows, xs = case
    rng, ref = Random(seed), Random(seed)
    members = RowTables(rows, m).random_members(len(xs), rng)
    assert [vec_from_words(w) for w in members] == [random_member(rows, ref) for _ in xs]
    assert rng.getstate() == ref.getstate()
    u = Subspace(m, rows)
    residuals = RowTables.pivot_map(u).residuals(vec_to_words(xs, m))
    assert [vec_from_words(w) for w in residuals] == [u.reduce(x) for x in xs]


@pytest.mark.parametrize("count", [0, 1, 3, 1025])
@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 64, 65, 127, 128, 130])
def test_random_members_multi_word_draws(k, count):
    # a draw of k bits is ceil(k/32) twister words, low word first, the
    # last one shifted: exactly 32 bits, and more than one word, included
    m = 136
    gen = Random(k)
    rows = [gen.getrandbits(m) for _ in range(k)]
    rng, ref = Random(k + count), Random(k + count)
    members = RowTables(rows, m).random_members(count, rng)
    assert members.shape == (count, 5)
    assert [vec_from_words(w) for w in members] == [random_member(rows, ref) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


@st.composite
def closure_cases(draw):
    lp = lp_pattern_subspace()
    fresh = [0, 1, 5, 1500]
    if draw(st.booleans()):
        # seeds in the pattern subspace, which LP4 leaves invariant: rounds
        # of 10 to 20 draws stop growing and can stream from inside a round
        oracle, seeds = LP4, draw(st.lists(st.sampled_from(lp.basis), min_size=1, max_size=2))
        samples_per_round = draw(st.sampled_from(range(10, 21)))
    elif draw(st.booleans()):
        oracle = draw(aes_oracles())
        seeds = draw(st.lists(st.one_of(st.integers(0, (1 << 128) - 1), st.sampled_from(lp.basis)),
                              min_size=1, max_size=2))
        samples_per_round = draw(st.integers(1, 3))
    else:
        # the span gains e_10, goes quiet and gains e_11, so about two in
        # five of these cases stream, meet the later growth and rewind
        oracle, seeds = two_flip_oracle(), [1 << i for i in range(6)]
        samples_per_round, fresh = draw(st.integers(1, 40)), [0, 1, 5]
    kwargs = dict(
        samples_per_round=samples_per_round,
        stable_rounds=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
        max_rounds=draw(st.integers(1, 60)),
        fresh_samples=draw(st.sampled_from(fresh)),
    )
    return oracle, seeds, kwargs


# the pattern subspace is invariant under the fourth power, so a closure
# seeded in it has stable rounds, batched, between growing ones
LP4 = ks_oracle(aes_core().normalized(), 4)
LP_SEED = lp_pattern_subspace().basis[0]


def two_flip_oracle():
    """An involution of F_2^128 with an array twin that flips bit 10 when
    bits 0..3 are set and bit 11 when bits 0..5 are set.  From the seeds
    e_0..e_5 the span gains e_10 after about 16 draws and e_11 after about
    64 more, so a growing round goes quiet for more than ``STREAM_AFTER``
    draws and then grows again."""

    def flip(x):
        return x ^ ((x & 0xF) == 0xF) << 10 ^ ((x & 0x3F) == 0x3F) << 11

    def flip_many(xs):
        low = xs[:, 0]
        ys = xs.copy()
        ys[:, 0] ^= ((low & 0xF) == 0xF).astype(ys.dtype) << 10
        ys[:, 0] ^= ((low & 0x3F) == 0x3F).astype(ys.dtype) << 11
        return ys

    return PermutationOracle(128, flip, flip, "two-flip", many=(flip_many, flip_many))


TWO_FLIP_CASE = (two_flip_oracle(), [1 << i for i in range(6)],
                 dict(samples_per_round=256, stable_rounds=2, seed=0, max_rounds=60, fresh_samples=5))


class DrawLog:
    """Patches the closure's draws and rewinds to log them in order:
    "point" per ``random_member`` call, ("batch", count) per
    ``RowTables.random_members`` call and "rewind" per ``setstate``; the
    rngs the closure made are kept in ``rngs``."""

    def __init__(self):
        self.events, self.rngs = [], []
        log, rngs = self.events, self.rngs
        batch, point = RowTables.random_members, invariants.random_member

        class Rewinds(Random):
            def __init__(self, seed=None):
                super().__init__(seed)
                rngs.append(self)

            def setstate(self, state):
                log.append("rewind")
                super().setstate(state)

        def members(tables, count, rng):
            log.append(("batch", count))
            return batch(tables, count, rng)

        def member(rows, rng):
            log.append("point")
            return point(rows, rng)

        self.patches = [mock.patch.object(invariants, "Random", Rewinds),
                        mock.patch.object(RowTables, "random_members", members),
                        mock.patch.object(invariants, "random_member", member)]

    def __enter__(self):
        for p in self.patches:
            p.start()
        return self.events

    def __exit__(self, *exc):
        for p in reversed(self.patches):
            p.stop()


class RecordedRandom(Random):
    """Random that remembers its instances, to read an rng kept inside."""

    made = []

    def __init__(self, seed=None):
        super().__init__(seed)
        RecordedRandom.made.append(self)


# twice REPLAY's examples: half of them are the LP4 rounds of 10 to 20 draws
@settings(max_examples=2 * REPLAY.max_examples, deadline=None)
@given(closure_cases())
@example((LP4, [LP_SEED], dict(samples_per_round=1, stable_rounds=6, seed=3, max_rounds=60,
                               fresh_samples=1500)))
@example((LP4, [LP_SEED], dict(samples_per_round=3, stable_rounds=5, seed=0, max_rounds=60,
                               fresh_samples=5)))
# several rounds per chunk; one round across two chunks; rounds of no
# draws; and a max-rounds stop inside the second chunk of a stream
@example((LP4, [LP_SEED], dict(samples_per_round=256, stable_rounds=6, seed=1, max_rounds=60,
                               fresh_samples=0)))
@example((LP4, [LP_SEED], dict(samples_per_round=1500, stable_rounds=3, seed=2, max_rounds=60,
                               fresh_samples=1)))
@example((LP4, [LP_SEED], dict(samples_per_round=0, stable_rounds=3, seed=0, max_rounds=60,
                               fresh_samples=5)))
@example((LP4, [LP_SEED], dict(samples_per_round=300, stable_rounds=64, seed=4, max_rounds=5,
                               fresh_samples=0)))
# a mid-round stream that meets a later growth and is rewound, and
# mid-round streams that stop on max_rounds, inside and after their round
@example(TWO_FLIP_CASE)
@example((LP4, [LP_SEED], dict(samples_per_round=256, stable_rounds=64, seed=0, max_rounds=1,
                               fresh_samples=0)))
@example((LP4, [LP_SEED], dict(samples_per_round=256, stable_rounds=64, seed=1, max_rounds=3,
                               fresh_samples=5)))
def test_batched_closure_replays_the_per_point_loop(case):
    oracle, seeds, kwargs = case
    expected, ref_rng = per_point_closure_search(oracle, seeds, **kwargs)
    RecordedRandom.made.clear()
    with mock.patch.object(invariants, "Random", RecordedRandom):
        got = closure_search(oracle, seeds, **kwargs)
    assert got == expected
    assert RecordedRandom.made[-1].getstate() == ref_rng.getstate()


def test_batched_closure_budget_stop_ends_on_a_round():
    # the budget is read between the chunks of a stream: a stop there
    # rewinds the rng to the stream's start and counts none of its rounds
    ticks = itertools.count(step=0.001)  # each clock reading is 1 ms later
    kwargs = dict(samples_per_round=300, seed=5, fresh_samples=5)
    RecordedRandom.made.clear()
    with mock.patch.object(invariants, "Random", RecordedRandom), \
            mock.patch.object(invariants.time, "perf_counter", lambda: next(ticks)):
        got = closure_search(LP4, [LP_SEED], budget_ms=3.5, **kwargs)
    # readings: t0, the loop's check before round 1, then one after each
    # ESCAPE_CHUNK-draw chunk of the stream that starts inside round 1 after
    # its 25th per-point draw; the third (4 ms) is the stop, so the stream is
    # rewound, the round's other 275 draws run point by point, and the
    # loop's next check ends the search
    assert (got.stop_reason, got.rounds) == ("budget", 1)
    expected, ref_rng = per_point_closure_search(LP4, [LP_SEED], max_rounds=got.rounds, **kwargs)
    assert (got.subspace, got.evaluations) == (expected.subspace, expected.evaluations)
    assert RecordedRandom.made[-1].getstate() == ref_rng.getstate()


def test_rewound_stream_reruns_point_by_point():
    # a stream that meets an escape is counted for none of its rounds: the
    # first draw after the rewind is a per-point one, also when clean
    # rounds came before the escape.  Rounds of one draw: the span gains
    # e_10, goes quiet and streams across rounds until the draw that
    # brings in e_11
    oracle, seeds, _ = TWO_FLIP_CASE
    kwargs = dict(samples_per_round=1, stable_rounds=64, seed=0, fresh_samples=0)
    log = DrawLog()
    with log as draws:
        got = closure_search(oracle, seeds, **kwargs)
    rewinds = [i for i, d in enumerate(draws) if d == "rewind"]
    assert rewinds and all(draws[i + 1] == "point" for i in rewinds)
    # some rewound stream held a clean round: more than one per-point
    # round ran before the next stream
    reruns = [list(itertools.takewhile(lambda d: d == "point", draws[i + 1:])) for i in rewinds]
    assert max(map(len, reruns)) > 1
    expected, ref_rng = per_point_closure_search(oracle, seeds, **kwargs)
    assert got == expected and log.rngs[-1].getstate() == ref_rng.getstate()


def test_growing_round_streams_its_clean_tail():
    # the span reaches dim 32 early in the first round; the rest of that
    # round is scanned in the stream, not point by point
    with DrawLog() as events:
        res = closure_search(LP4, [LP_SEED], samples_per_round=256, fresh_samples=0)
    assert res.subspace == lp_pattern_subspace() and res.stop_reason == "stable"
    assert "rewind" not in events
    assert events.count("point") < 256
    assert sum(e[1] for e in events if e != "point") == 256 * 65 - events.count("point")


def test_a_late_growth_rewinds_a_mid_round_stream():
    # the replay example TWO_FLIP_CASE: once e_10 is in, the first round
    # goes quiet and streams, the stream meets the draw that brings in
    # e_11 and is rewound, and the rerun is point by point up to that
    # growth and the next quiet stretch, all inside the first round
    oracle, seeds, kwargs = TWO_FLIP_CASE
    log = DrawLog()
    with log as events:
        res = closure_search(oracle, seeds, **kwargs)
    assert (res.subspace, res.rounds) == (Subspace(128, seeds + [1 << 10, 1 << 11]), 3)
    rewind = events.index("rewind")
    assert events[rewind - 1][0] == "batch" and events[rewind + 1] == "point"
    before = events[:rewind - 1]
    rerun = list(itertools.takewhile(lambda e: e == "point", events[rewind + 1:]))
    assert set(before) == {"point"}
    assert len(before) + len(rerun) < kwargs["samples_per_round"]
    # one stream per growth: after each rewind the rerun reaches the growing
    # draw and then STREAM_AFTER quiet draws before the next batch
    reruns = [len(list(itertools.takewhile(lambda e: e == "point", events[i + 1:])))
              for i, e in enumerate(events) if e == "rewind"]
    assert min(reruns) > invariants.STREAM_AFTER


def cycle_oracle(a, b, c, name):
    """The 3-cycle a -> b -> c -> a of F_2^128, points below 2^32, with an
    array twin."""
    forward, backward = {a: b, b: c, c: a}, {b: a, c: b, a: c}

    def twin(table):
        def apply(xs):
            ys = xs.copy()
            low = ~xs[:, 1:].any(axis=1)
            for x, y in table.items():
                ys[low & (xs[:, 0] == x), 0] = y
            return ys
        return apply

    return PermutationOracle(128, lambda x: forward.get(x, x), lambda x: backward.get(x, x), name,
                             many=(twin(forward), twin(backward)))


def three_cycle_oracle():
    """The 3-cycle a -> b -> c -> a, where a = 0x3F and c = 0x3E lie in
    span(e_0..e_5) and b = a + e_10 does not: at a only the forward image
    leaves that span, at c only the backward one."""
    return cycle_oracle(0x3F, 0x3F | 1 << 10, 0x3E, "three-cycle")


def rare_cycle_oracle():
    """The 3-cycle a -> b -> c -> a, where a = 0x2ABC and c = 0x1357 lie in
    span(e_0..e_13) and b = a + e_20 does not: a member of that span
    escapes with probability 2/2^14."""
    return cycle_oracle(0x2ABC, 0x2ABC | 1 << 20, 0x1357, "rare-cycle")


def test_a_stream_checks_backward_images():
    # the first stream meets c and not a, so only a backward image leaves
    # the span: the stream is rewound, and the rerun grows the span by e_10
    seeds = [1 << i for i in range(6)]
    kwargs = dict(samples_per_round=8, stable_rounds=4, seed=23, fresh_samples=0)
    log = DrawLog()
    with log as events:
        got = closure_search(three_cycle_oracle(), seeds, **kwargs)
    assert events[:10] == ["point"] * 8 + [("batch", 24), "rewind"]
    assert got.subspace == Subspace(128, seeds + [1 << 10])
    expected, ref_rng = per_point_closure_search(three_cycle_oracle(), seeds, **kwargs)
    assert got == expected and log.rngs[-1].getstate() == ref_rng.getstate()


def test_a_stream_escape_past_its_first_chunk_rewinds():
    # the span is stable from the start, so the first stream begins after
    # STREAM_AFTER draws and runs about 17 rounds of draws; its first escape
    # lies past its first chunk, and the stream is rewound all the same
    seeds = [1 << i for i in range(14)]
    kwargs = dict(samples_per_round=1024, stable_rounds=16, seed=0, fresh_samples=0)
    log = DrawLog()
    with log as events:
        got = closure_search(rare_cycle_oracle(), seeds, **kwargs)
    before = events[:events.index("rewind")]
    assert sum(e != "point" for e in before) >= 2
    assert got.subspace == Subspace(128, seeds + [1 << 20])
    expected, ref_rng = per_point_closure_search(rare_cycle_oracle(), seeds, **kwargs)
    assert got == expected and log.rngs[-1].getstate() == ref_rng.getstate()


def test_budget_stop_in_a_mid_round_stream():
    # the stream that starts inside the growing first round is stopped by
    # the budget between its chunks: it is rewound, the rest of the round
    # runs point by point and the search stops before the second round
    ticks = itertools.count(step=0.001)  # each clock reading is 1 ms later
    kwargs = dict(samples_per_round=300, seed=5, fresh_samples=5)
    log = DrawLog()
    with log as events, mock.patch.object(invariants.time, "perf_counter", lambda: next(ticks)):
        got = closure_search(LP4, [LP_SEED], budget_ms=2.5, **kwargs)
    # readings: t0, round 1, two ESCAPE_CHUNK-draw chunks of the stream
    # (the stop), the loop
    assert (got.stop_reason, got.rounds) == ("budget", 1)
    first = next(i for i, e in enumerate(events) if e != "point")
    assert first < 300
    assert events[first:first + 3] == [("batch", invariants.ESCAPE_CHUNK)] * 2 + ["rewind"]
    assert events.count("point") == 300
    expected, ref_rng = per_point_closure_search(LP4, [LP_SEED], max_rounds=1, **kwargs)
    assert (got.subspace, got.evaluations) == (expected.subspace, expected.evaluations)
    assert log.rngs[-1].getstate() == ref_rng.getstate()


def test_batched_closure_draws_at_most_a_chunk_at_once():
    # the seeds span the pattern subspace, so the stream starts after the
    # first STREAM_AFTER draws and is scanned in chunks: the memory of a
    # batch does not grow with samples_per_round
    sizes = []
    draw = RowTables.random_members

    def spy(self, count, rng):
        sizes.append(count)
        return draw(self, count, rng)

    lp = lp_pattern_subspace()
    with mock.patch.object(RowTables, "random_members", spy):
        res = closure_search(LP4, lp.basis, samples_per_round=3000, stable_rounds=3, fresh_samples=0)
    assert res.subspace == lp and res.rounds == 3
    assert sum(sizes) == 3 * 3000 - invariants.STREAM_AFTER and max(sizes) <= invariants.ESCAPE_CHUNK


@st.composite
def escape_cases(draw):
    oracle = draw(aes_oracles())
    lp = lp_pattern_subspace()
    extra = draw(st.lists(st.integers(0, (1 << 128) - 1), max_size=3))
    rows = list(lp.basis) if draw(st.booleans()) else []
    u = Subspace(128, rows + extra)
    chunk = invariants.ESCAPE_CHUNK
    samples = draw(st.sampled_from([0, 1, 7, chunk, chunk + 1, 2 * chunk + 452]))
    return oracle, u, samples, draw(st.integers(0, 2**32))


@REPLAY
@given(escape_cases())
@example((LP4, lp_pattern_subspace(), 2 * invariants.ESCAPE_CHUNK + 452, 0))
@example((LP4, Subspace(128, [*lp_pattern_subspace().basis, 1 << 127]),
          2 * invariants.ESCAPE_CHUNK + 452, 1))
def test_batched_escapes_replays_the_per_point_loop(case):
    oracle, u, samples, seed = case
    rng, ref = Random(seed), Random(seed)
    assert escapes(oracle, u, samples, rng) == per_point_escapes(oracle, u, samples, ref)
    assert rng.getstate() == ref.getstate()


TABLE3 = PermutationOracle.from_table((5, 3, 0, 6, 1, 7, 2, 4), "table3")
FULL_SPACE_ORACLES = {
    "table-m3": TABLE3,  # no array twin
    "lift-m12": ks_oracle(TABLE3, 1),
    **{f"aes-p{p}": ks_oracle(aes_core().normalized(), p) for p in (1, 4)},
    **{f"aes-p{p}-constants": ks_oracle(aes_core(), p, aes_round_constant_states(p)).normalized()
       for p in (1, 4)},
}


@pytest.mark.parametrize("samples", [0, 1, 7, 1000])
@pytest.mark.parametrize("name", FULL_SPACE_ORACLES)
def test_escapes_at_full_dimension_takes_every_draw(name, samples):
    # nothing escapes the full space, yet its draws are taken and evaluated
    # as the per-point loop takes them; escape_cases never reach it.  A draw
    # of m - 1 bits takes as many twister words as one of m bits at these
    # widths, so the points passed to forward are compared too
    oracle = FULL_SPACE_ORACLES[name]
    points = []

    def forward(x):
        points.append(x)
        return oracle.forward(x)

    logged = PermutationOracle(oracle.m, forward, oracle.backward, many=oracle.many)
    full = full_space(oracle.m)
    rng, ref = Random(samples), Random(samples)
    points.clear()  # the constructor's inverse check calls forward
    assert escapes(logged, full, samples, rng) == 0
    drawn = points[:]
    points.clear()
    assert per_point_escapes(logged, full, samples, ref) == 0
    assert drawn == points and len(points) == samples
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["aes-p1", "aes-p4-constants"])
def test_closure_reaching_dimension_128_replays_the_per_point_loop(name):
    # the search fills F_2^128 and then runs its 1000-draw fresh check there
    oracle = FULL_SPACE_ORACLES[name]
    seeds = [Random(name).getrandbits(128)]
    expected, ref_rng = per_point_closure_search(oracle, seeds)
    RecordedRandom.made.clear()
    with mock.patch.object(invariants, "Random", RecordedRandom):
        got = closure_search(oracle, seeds)
    assert got == expected and got.reached_full and got.fresh_invariance_ok
    assert RecordedRandom.made[-1].getstate() == ref_rng.getstate()


def load_bench_script(name):
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_closure_bench_script_runs(capsys, monkeypatch):
    script = load_bench_script("closure")
    monkeypatch.setattr(script, "REPEATS", 1)
    script.main()
    figures = json.loads(capsys.readouterr().out)
    assert set(figures) == {"closure.first_round.ms", "closure.stable_round.ms", "closure.rewound.seed16.ms",
                            "escapes.d32.10k.ms", "members.d32.1k.ms", "twin.p4.1k.us",
                            "residuals.d32.1k.us", "reduce.d128.full.ns", "member.d128.ns",
                            "fresh.full.p4.1k.ms", "lp_verify.seed0.ms",
                            *(f"chunk.{c}.lp_verify.seed0.ms" for c in (1024, 2048, 4096, 8192))}


def test_blocks_bench_script_runs(capsys, monkeypatch):
    script = load_bench_script("blocks")
    monkeypatch.setattr(script, "REPEATS", 1)
    monkeypatch.setattr(script, "WIDTHS", (3,))
    script.main()
    figures = json.loads(capsys.readouterr().out)
    assert set(figures) == {"block.m12.all.ms", "block.m12.transversal.ms", "primitivity.n3.ms",
                            "table.n5.ms", "primitivity.affine.n5.ms"}


def test_sbox_bench_script_runs(capsys, monkeypatch):
    script = load_bench_script("sbox")
    monkeypatch.setattr(script, "REPEATS", 1)
    script.main()
    figures = json.loads(capsys.readouterr().out)
    assert set(figures) == {"anti.aes.d1.ms", "anti.aes.d2.ms", "anti.aes.d4.ms", "anti.shuffled.d2.ms",
                            "enum.rref_bases.m8.d6.ms", "enum.rref_bases.m8.d5.ms",
                            "cli.sbox_audit_aes.ms", "cli.certificate_rot1.ms", "cli.certificate_delta4.ms"}


def test_mutant_list_matches_the_source():
    # each mutant's old text occurs once in its file and its tests exist,
    # so an edit of src/ cannot leave a listed mutant applying nowhere
    script = load_bench_script("mutants")
    root = Path(__file__).parents[1]
    assert len(script.MUTANTS) >= 12
    assert len({m.name for m in script.MUTANTS}) == len(script.MUTANTS)
    for m in script.MUTANTS:
        assert (root / "src" / "ksgroup" / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (root / path).read_text(), test
