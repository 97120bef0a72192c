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
    random_member,
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
from test_gf2 import full_space, intersect, vec_from_words

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
    core = aes_core()
    low = vec_to_words([x & 0xFFFFFFFF for x in xs], 32)
    assert [vec_from_words(w) for w in core.many[0](low)] == [core.forward(x & 0xFFFFFFFF) for x in xs]
    assert [vec_from_words(w) for w in core.many[1](low)] == [core.backward(x & 0xFFFFFFFF) for x in xs]


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
    oracle = draw(aes_oracles())
    lp = lp_pattern_subspace()
    seeds = draw(st.lists(st.one_of(st.integers(0, (1 << 128) - 1), st.sampled_from(lp.basis)),
                          min_size=1, max_size=2))
    kwargs = dict(
        samples_per_round=draw(st.integers(1, 3)),
        stable_rounds=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
        max_rounds=draw(st.integers(1, 60)),
        fresh_samples=draw(st.sampled_from([0, 1, 5, 1500])),
    )
    return oracle, seeds, kwargs


# the pattern subspace is invariant under the fourth power, so a closure
# seeded in it has stable rounds, batched, between growing ones
LP4 = ks_oracle(aes_core().normalized(), 4)
LP_SEED = lp_pattern_subspace().basis[0]


class RecordedRandom(Random):
    """Random that remembers its instances, to read an rng kept inside."""

    made = []

    def __init__(self, seed=None):
        super().__init__(seed)
        RecordedRandom.made.append(self)


@REPLAY
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
    # counts the whole rounds scanned and leaves the rng after them
    ticks = itertools.count(step=0.001)  # each clock reading is 1 ms later
    kwargs = dict(samples_per_round=300, seed=5, fresh_samples=5)
    RecordedRandom.made.clear()
    with mock.patch.object(invariants, "Random", RecordedRandom), \
            mock.patch.object(invariants.time, "perf_counter", lambda: next(ticks)):
        got = closure_search(LP4, [LP_SEED], budget_ms=3.5, **kwargs)
    # readings: t0, round 1 (per point), round 2, then two chunks of the
    # stream (2048 draws, 6 whole rounds) before the stop
    assert (got.stop_reason, got.rounds) == ("budget", 7)
    expected, ref_rng = per_point_closure_search(LP4, [LP_SEED], max_rounds=7, **kwargs)
    assert (got.subspace, got.evaluations) == (expected.subspace, expected.evaluations)
    assert RecordedRandom.made[-1].getstate() == ref_rng.getstate()


def test_batched_closure_draws_at_most_a_chunk_at_once():
    # a stable round of many draws is scanned in chunks, so the memory of a
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
    assert sum(sizes) == 2 * 3000 and max(sizes) <= invariants.ESCAPE_CHUNK


@st.composite
def escape_cases(draw):
    oracle = draw(aes_oracles())
    lp = lp_pattern_subspace()
    extra = draw(st.lists(st.integers(0, (1 << 128) - 1), max_size=3))
    rows = list(lp.basis) if draw(st.booleans()) else []
    u = Subspace(128, rows + extra)
    samples = draw(st.sampled_from([0, 1, 7, 1024, 1025, 2500]))
    return oracle, u, samples, draw(st.integers(0, 2**32))


@REPLAY
@given(escape_cases())
@example((LP4, lp_pattern_subspace(), 2500, 0))
@example((LP4, Subspace(128, [*lp_pattern_subspace().basis, 1 << 127]), 2500, 1))
def test_batched_escapes_replays_the_per_point_loop(case):
    oracle, u, samples, seed = case
    rng, ref = Random(seed), Random(seed)
    assert escapes(oracle, u, samples, rng) == per_point_escapes(oracle, u, samples, ref)
    assert rng.getstate() == ref.getstate()


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
    assert set(figures) == {"closure.stable_round.ms", "escapes.d32.10k.ms", "members.d32.1k.ms",
                            "lp_verify.seed0.ms"}


def test_blocks_bench_script_runs(capsys, monkeypatch):
    script = load_bench_script("blocks")
    monkeypatch.setattr(script, "REPEATS", 1)
    monkeypatch.setattr(script, "WIDTHS", (3,))
    script.main()
    figures = json.loads(capsys.readouterr().out)
    assert set(figures) == {"block.m12.all.ms", "block.m12.transversal.ms", "primitivity.n3.ms"}


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
