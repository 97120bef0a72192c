"""Linear-block checks, minimal blocks, closure search, certificates."""

import functools
import random
import tracemalloc
from dataclasses import dataclass
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksgroup import invariants, keyschedule, sbox
from ksgroup.gf2 import (DimensionMismatch, Subspace, derivative, enumerate_subspaces, matrix_apply,
                         random_member, rref_insert)
from ksgroup.invariants import (
    LP_CONVENTIONS,
    PermutationOracle,
    brick_invariant_sums,
    closure_search,
    escapes,
    is_affine,
    is_linear_block,
    ks_oracle,
    lp_pattern_subspace,
    min_block_subspace,
    primitivity_check,
    random_affine_word_permutation,
    random_nonaffine_word_permutation,
    spn_primitivity_certificate,
    verify_lp_subspace,
)
from ksgroup.keyschedule import aes_core, ks_apply
from ksgroup.sbox import AES_SBOX, anti_invariance_order, differential_profile, inversion_sbox
from test_gf2 import full_space

# ---------------------------------------------------------------------
# Helpers and oracles


def linear_rows(fn, n):
    """Basis images of a linear map (the caller guarantees linearity)."""
    return tuple(fn(1 << i) for i in range(n))


def rot_bricks_left(x, s, b):
    """Shift the b s-bit bricks of x one position down: brick j takes the
    old brick j+1, as RotWord does to the bytes of a word."""
    return (x >> s) | ((x & ((1 << s) - 1)) << (s * (b - 1)))


def toy_ks_oracle(n, seed, affine=False, normalized=False):
    rng = Random(seed)
    if affine:
        rho = random_affine_word_permutation(n, rng)
    else:
        rho = random_nonaffine_word_permutation(n, rng)
    if normalized:
        rho = rho.normalized()
    return rho, ks_oracle(rho, 1)


def translation_oracle(m, t):
    return PermutationOracle(m, lambda x: x ^ t, lambda x: x ^ t, f"translate({t:#x})")


def is_affine_sampled(oracle, samples, seed):
    """Random triples: True only means no f(x+y+z) != f(x)+f(y)+f(z) was drawn."""
    rng = Random(seed)
    f = oracle.forward
    for _ in range(samples):
        x, y, z = (rng.getrandbits(oracle.m) for _ in range(3))
        if f(x ^ y ^ z) != f(x) ^ f(y) ^ f(z):
            return False
    return True


def brute_coset_check(table, u: Subspace):
    """(U+v)f == U+vf for every coset, by raw set comparison."""
    members = list(u.elements())
    for v in range(len(table)):
        image = {table[um ^ v] for um in members}
        target = {um ^ table[v] for um in members}
        if image != target:
            return False
    return True


def deterministic_closure(table, m, v):
    """Smallest f-invariant subspace containing v.

    Grows the span one independent vector at a time; each growth step
    doubles the member set and enqueues the images of the new members, so
    every member's image is ingested exactly once.
    """
    table_np = np.asarray(table, dtype=np.uint32)
    rows = {}

    def insert(vec):
        for p, row in rows.items():
            if (vec >> p) & 1:
                vec ^= row
        if vec:
            p = (vec & -vec).bit_length() - 1
            for q, row in list(rows.items()):
                if (row >> p) & 1:
                    rows[q] = row ^ vec
            rows[p] = vec
        return vec

    members = np.zeros(1, dtype=np.uint32)
    queue = [v, int(table_np[0])]
    while queue and len(rows) < m:
        y = insert(queue.pop())
        if not y:
            continue
        fresh = members ^ np.uint32(y)
        imgs = np.unique(table_np[fresh])
        basis = [rows[p] for p in sorted(rows)]
        for row in basis:
            p = (row & -row).bit_length() - 1
            imgs = imgs ^ ((imgs >> np.uint32(p)) & np.uint32(1)) * np.uint32(row)
        queue.extend(int(t) for t in np.unique(imgs) if t)
        members = np.concatenate([members, fresh])
    return Subspace(m, rows.values())


@dataclass(frozen=True)
class MinBlockResult:
    points: tuple[int, ...]  # the block containing 0, sorted
    subspace: Subspace | None  # set when the block is closed under addition


def min_block(oracle, v):
    """Brute-force reference (Atkinson 1975): the finest block system of
    <oracle, translations> merging 0 with v, grown pairwise over all 2^m
    points by union-find.  Assumes no linearity: whether the block through
    0 is a subspace is read off the result."""
    m = oracle.m
    n_points = 1 << m
    parent = list(range(n_points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gens = [oracle.forward] + [(lambda x, t=1 << i: x ^ t) for i in range(m)]
    stack = [(0, v)]
    parent[find(v)] = find(0)
    while stack:
        x, y = stack.pop()
        for g in gens:
            a, b = g(x), g(y)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                stack.append((a, b))

    root = find(0)
    block = tuple(x for x in range(n_points) if find(x) == root)
    sp = Subspace(m, block)
    return MinBlockResult(points=block, subspace=sp if (1 << sp.dim) == len(block) else None)


def all_points_block(table, v):
    """The block through {0, v} of a uint32 table, grown over every point,
    one numpy pass per derivative: each f(x+w)+f(x) is reduced against the
    span's rows and the distinct residuals are inserted."""
    m = table.size.bit_length() - 1
    rows = {}
    queue = rref_insert(rows, [v])
    while queue and len(rows) < m:
        w = queue.pop()
        values = derivative(table, w)
        for p, row in rows.items():
            values ^= ((values >> np.uint32(p)) & np.uint32(1)) * np.uint32(row)
        present = np.zeros(1 << m, dtype=bool)
        present[values] = True
        queue += rref_insert(rows, np.flatnonzero(present).tolist())
    return Subspace(m, rows.values())


def all_points_primitivity(oracle):
    """(status, witness, pairs_checked) of the seed-by-seed block scan with
    ``all_points_block``.  It ignores the transversal, so primitivity_check
    must reproduce it."""
    m = oracle.m
    table = np.array(oracle.table(), dtype=np.uint32)
    for v in range(1, 1 << m):
        block = all_points_block(table, v)
        if not block.is_trivial:
            return "imprimitive", block, v
    return "primitive", None, (1 << m) - 1


def full_growth_primitivity(oracle):
    """(status, witness, pairs_checked, witness_certified) of the ordered
    seed scan with every block grown to closure, the witness re-checked
    exhaustively.

    Every seed grows at once in numpy, with no containment rule and no
    ``full_below``: each keeps its own echelon rows, indexed by top bit,
    and its basis vectors in the order they were found.  Step k scans the
    k-th basis vector of every seed that has one over the transversal and
    eliminates the values into the rows, so each block ends closed under
    the derivatives.
    """
    m = oracle.m
    table = np.array(oracle.table(), dtype=np.uint32)
    points = np.array(oracle.transversal, dtype=np.uint32)
    seeds = np.arange(1, 1 << m, dtype=np.uint32)
    echelon = np.zeros((len(seeds), m), np.uint32)  # column b: the row with top bit b, or 0
    found = np.zeros((len(seeds), m), np.uint32)  # column k: the k-th basis vector found
    dims = np.zeros(len(seeds), np.intp)

    def insert(values, who):
        # Gaussian elimination of each seed's values, top bit first, so a
        # value has bit b when it is at least 2^b; where a seed has no row
        # at bit b yet, its first value with bit b becomes one
        for b in range(m - 1, -1, -1):
            hit = values >= 1 << b
            row = echelon[who, b]
            first = np.take_along_axis(values, hit.argmax(axis=1)[:, None], axis=1)[:, 0]
            new = np.flatnonzero((row == 0) & (first >= 1 << b))
            row[new] = first[new]
            echelon[who[new], b] = found[who[new], dims[who[new]]] = first[new]
            dims[who[new]] += 1
            values ^= np.where(hit, row[:, None], 0)

    insert(seeds[:, None].copy(), np.arange(len(seeds)))
    for k in range(m):
        who = np.flatnonzero((dims > k) & (dims < m))
        insert(table[found[who, k][:, None] ^ points] ^ table[points], who)
    proper = np.flatnonzero(dims < m)
    if not proper.size:
        return "primitive", None, (1 << m) - 1, None
    block = Subspace(m, echelon[proper[0]].tolist())
    return "imprimitive", block, int(seeds[proper[0]]), is_linear_block(oracle, block).ok


def unionfind_primitivity(oracle):
    """(status, witness, pairs_checked) of the seed-by-seed union-find scan
    that primitivity_check must reproduce."""
    m = oracle.m
    for v in range(1, 1 << m):
        res = min_block(oracle, v)
        if len(res.points) < 1 << m:
            assert res.subspace is not None  # with translations, blocks are subspaces
            return "imprimitive", res.subspace, v
    return "primitive", None, (1 << m) - 1


# ---------------------------------------------------------------------
# is_linear_block


def test_trivial_subspaces_are_blocks():
    _, oracle = toy_ks_oracle(3, 0)
    assert is_linear_block(oracle, Subspace(12)).ok
    assert is_linear_block(oracle, full_space(12)).ok


def test_translations_preserve_every_partition():
    rng = Random(1)
    for _ in range(10):
        t = rng.getrandbits(10) or 1
        oracle = translation_oracle(10, t)
        u = Subspace(10, [rng.getrandbits(10) for _ in range(3)])
        assert is_linear_block(oracle, u, mode="exhaustive").ok


def test_exhaustive_matches_brute_coset_oracle():
    rng = Random(7)
    _, oracle = toy_ks_oracle(3, 7)
    table = oracle.table()
    for _ in range(8):
        u = Subspace(12, [rng.getrandbits(12) for _ in range(6)])
        expected = brute_coset_check(table, u)
        res = is_linear_block(oracle, u, mode="exhaustive")
        assert res.ok == expected
        if not expected:
            x, w = res.witness
            assert not u.contains(table[x ^ w] ^ table[x])


def test_exhaustive_true_case_from_affine_witness():
    _, oracle = toy_ks_oracle(3, 3, affine=True)
    verdict = primitivity_check(oracle)
    assert verdict.status == "imprimitive"
    assert brute_coset_check(oracle.table(), verdict.witness)
    assert is_linear_block(oracle, verdict.witness).ok


def test_over_budget_is_inconclusive_not_false():
    oracle = ks_oracle(aes_core(), 1)  # m = 128
    res = is_linear_block(oracle, lp_pattern_subspace(), mode="exhaustive")
    assert res.ok is None
    assert "budget" in res.reason


def test_only_the_exhaustive_mode_exists():
    _, oracle = toy_ks_oracle(3, 0)
    with pytest.raises(ValueError, match="sampled"):
        is_linear_block(oracle, Subspace(12), mode="sampled")


def test_linear_block_rejects_a_width_mismatch():
    _, oracle = toy_ks_oracle(3, 0)
    with pytest.raises(DimensionMismatch, match="dimensions differ"):
        is_linear_block(oracle, Subspace(16, [1]))


# ---------------------------------------------------------------------
# escapes: the sampled membership check


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.permutations(range(1 << m)),
            st.lists(st.integers(0, (1 << m) - 1), max_size=m + 1),
        )
    ),
    st.integers(0, 64),
    st.integers(0, 2**32),
)
def test_escapes_against_brute_force_scan(case, samples, seed):
    m, table, gens = case
    oracle = PermutationOracle.from_table(table, "t")
    u = Subspace(m, gens)
    outside = {x for x in u.elements() if not u.contains(table[x])}
    rng, replay = Random(seed), Random(seed)
    got = escapes(oracle, u, samples, rng)
    # every draw of the same sampler that lands outside
    draws = [random_member(u.basis, replay) for _ in range(samples)]
    assert got == sum(x in outside for x in draws)
    assert rng.getstate() == replay.getstate()


@pytest.mark.parametrize("oracle, u", [
    # a 12-bit operator on a 16-bit subspace
    (ks_oracle(random_nonaffine_word_permutation(3, Random(1)), 1), Subspace(16, [1, 2, 4])),
    # the 128-bit AES operator, with its array twin, on a 160-bit subspace
    (ks_oracle(aes_core().normalized(), 1), Subspace(160, [1, 1 << 150])),
], ids=["toy", "aes"])
def test_escapes_rejects_a_width_mismatch(oracle, u):
    with pytest.raises(DimensionMismatch, match="dimensions differ"):
        escapes(oracle, u, 100, Random(0))


@pytest.mark.parametrize("oracle", [
    PermutationOracle.from_table(range(16), "identity"),
    ks_oracle(aes_core().normalized(), 1),
], ids=["per-point", "twin"])
def test_escapes_rejects_negative_samples(oracle):
    with pytest.raises(ValueError, match="samples must be at least 0"):
        escapes(oracle, Subspace(oracle.m, [1]), -3, Random(0))


# ---------------------------------------------------------------------
# minimal blocks against the union-find reference


def test_translations_only_minimal_block_is_span_v():
    for v in (1, 5, 12):
        res = min_block(PermutationOracle.from_table(range(16)), v)
        assert res.points == (0, v)
        assert res.subspace == Subspace(4, [v])


def test_min_block_matches_exhaustive_scan_identity_rho():
    # identity word map at n=2: the lifted operator is linear, so blocks
    # through 0 are exactly its invariant subspaces; scan all of F_2^8
    rho = PermutationOracle.from_table(list(range(4)), "identity")
    oracle = ks_oracle(rho, 1)
    table = oracle.table()
    invariant = [
        w for w in enumerate_subspaces(8)
        if all(w.contains(table[b]) for b in w.basis)
    ]
    rng = Random(9)
    for v in [1, 2, 7, 100, 255, rng.getrandbits(8) or 3]:
        candidates = [w for w in invariant if w.contains(v)]
        smallest = min(candidates, key=lambda w: w.dim)
        res = min_block(oracle, v)
        assert res.subspace is not None  # with translations, blocks are subspaces
        assert res.subspace == smallest
        # over the transversal, and over every point of the bare table
        for o in (oracle, PermutationOracle.from_table(table)):
            assert min_block_subspace(o, v) == smallest


def test_min_block_agrees_with_subspace_closure_nonlinear():
    for seed in (4, 5):
        _, oracle = toy_ks_oracle(3, seed)
        table_only = PermutationOracle.from_table(oracle.table())
        rng = Random(seed)
        for v in [1, rng.getrandbits(12) or 2, rng.getrandbits(12) or 3]:
            uf = min_block(oracle, v)
            fast = min_block_subspace(oracle, v)
            assert uf.subspace is not None
            assert uf.subspace == fast
            assert min_block_subspace(table_only, v) == fast


def test_min_block_subspace_rejects_a_width_or_seed_outside_the_tables():
    _, oracle = toy_ks_oracle(3, 0)
    for v in (0, 1 << 12):
        with pytest.raises(ValueError):
            min_block_subspace(oracle, v)


def test_min_block_primitive_toy_reaches_full_space():
    rho, oracle = toy_ks_oracle(3, 21)
    base = primitivity_check(PermutationOracle.from_table(rho.table(), "rho"))
    if base.status == "primitive":
        for v in (1, 77, 4000):
            res = min_block(oracle, v)
            assert len(res.points) == 1 << 12


# ---------------------------------------------------------------------
# primitivity_check


def test_base_verdict_inversion_gf8():
    # record the computed verdict; on Primitive the lift must be Primitive
    from ksgroup.sbox import inversion_sbox

    inv = inversion_sbox(3, 0b1011)
    rho = PermutationOracle.from_table(inv.table(), "inversion-gf8")
    oracle = PermutationOracle.from_table(inv.table(), "inversion-gf8")
    base = primitivity_check(oracle)
    assert base.pairs_checked <= 7
    assert base.status in ("primitive", "imprimitive")
    lifted = primitivity_check(ks_oracle(rho, 1))
    aff = is_affine(oracle)
    assert aff is False
    if base.status == "primitive":
        assert lifted.status == "primitive"
        assert lifted.pairs_checked == 4095


def test_affine_rho_lifts_imprimitive_with_certified_witness():
    rng = Random(31)
    found = 0
    for _ in range(12):
        rho = random_affine_word_permutation(3, rng)
        verdict = primitivity_check(ks_oracle(rho, 1))
        if verdict.status == "imprimitive":
            found += 1
            assert verdict.witness_certified
            assert not verdict.witness.is_trivial
        if found >= 3:
            break
    assert found >= 3


@st.composite
def bijection_tables(draw, max_m=6):
    """A bijection of F_2^m as a table.  About half of them permute the
    cosets of the span of the low k bits (a map on the high part and a
    per-coset map on the low part), so that imprimitive groups are common."""
    m = draw(st.integers(1, max_m))
    rng = Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        table = list(range(1 << m))
        rng.shuffle(table)
        return table
    k = draw(st.integers(0, m))
    high = list(range(1 << (m - k)))
    rng.shuffle(high)
    low = []
    for _ in high:
        perm = list(range(1 << k))
        rng.shuffle(perm)
        low.append(perm)
    return [(high[x >> k] << k) | low[x >> k][x & ((1 << k) - 1)] for x in range(1 << m)]


# n=2: every word map is affine; its lift to 2^8 points is the case where
# the primitivity verdict used to switch between two methods
LIFTED_AFFINE_N2 = [
    list(ks_oracle(random_affine_word_permutation(2, Random(seed)), 1).table())
    for seed in (1, 2, 3)
]


@settings(max_examples=120, deadline=None)
@given(bijection_tables())
@example(LIFTED_AFFINE_N2[0])
@example(LIFTED_AFFINE_N2[1])
@example(LIFTED_AFFINE_N2[2])
def test_subspace_blocks_match_unionfind_reference(table):
    oracle = PermutationOracle.from_table(table, "t")
    for v in range(1, 1 << oracle.m):
        assert min_block_subspace(oracle, v) == min_block(oracle, v).subspace
    status, witness, pairs = unionfind_primitivity(oracle)
    verdict = primitivity_check(oracle)
    assert (verdict.status, verdict.witness, verdict.pairs_checked) == (status, witness, pairs)
    assert verdict.witness_certified is (True if witness is not None else None)


def test_over_budget_inconclusive():
    verdict = primitivity_check(ks_oracle(aes_core(), 1))
    assert verdict.status == "inconclusive"
    assert "budget" in verdict.reason


def test_primitivity_width_comes_from_the_oracles():
    _, oracle = toy_ks_oracle(3, 0)
    verdict = primitivity_check(oracle)
    assert (verdict.status, verdict.pairs_checked) == ("primitive", (1 << 12) - 1)


def test_call_shapes_the_benchmark_reads():
    # perfbench's toy-lift gate re-certifies the witness of the Imprimitive
    # lift of toy map 5 with this call, and its kernels read sbox.AES_SBOX
    # outside their error guard
    rho = random_nonaffine_word_permutation(3, Random(5))
    verdict = primitivity_check(ks_oracle(rho, 1))
    assert verdict.status == "imprimitive"
    assert is_linear_block(ks_oracle(rho, 1), verdict.witness, mode="exhaustive").ok
    assert sbox.AES_SBOX is keyschedule.AES_SBOX


def test_witness_recheck_refuses_a_non_block(monkeypatch):
    # the lift of a non-affine map here is primitive, so span{e_0} is a
    # proper subspace that is no block; a minimal-block step that returned
    # it must be caught by the exhaustive re-check, not reported
    _, oracle = toy_ks_oracle(3, 0)
    fake = Subspace(12, [1])
    assert is_linear_block(oracle, fake).ok is False
    monkeypatch.setattr(invariants, "min_block_subspace", lambda oracle, v, *, full_below=1: fake)
    with pytest.raises(AssertionError, match="failed the linear-block re-check"):
        primitivity_check(oracle)


def test_witness_cosets_permuted_by_translations():
    # any block system found for <f, T> is in particular one for T alone
    _, oracle = toy_ks_oracle(3, 3, affine=True)
    verdict = primitivity_check(oracle)
    assert verdict.status == "imprimitive"
    u = verdict.witness
    members = set(u.elements())
    rng = Random(4)
    for i in range(12):
        t = 1 << i
        v = rng.getrandbits(12)
        image = {x ^ t for x in {um ^ v for um in members}}
        rep = next(iter(image))
        assert image == {um ^ rep for um in members}


# ---------------------------------------------------------------------
# the transversal of the power-1 operator


def derivative_values(table, points, w):
    """The values of f(x+w)+f(x) over ``points``, as a mask over F_2^m."""
    seen = np.zeros(len(table), dtype=bool)
    seen[table[points ^ np.uint32(w)] ^ table[points]] = True
    return seen


def transversal_word_map(n, kind, rng):
    # every map of F_2^n is affine for n <= 2
    draw = random_affine_word_permutation if kind == "affine" or n < 3 else random_nonaffine_word_permutation
    rho = draw(n, rng)
    return rho.normalized() if kind == "normalized" else rho


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["random", "affine", "normalized", "constant"])
def test_transversal_carries_every_derivative_value(n, kind):
    rng = Random(10 * n + len(kind))
    rho = transversal_word_map(n, kind, rng)
    m = 4 * n
    constants = [rng.getrandbits(m) | 1] if kind == "constant" else None
    oracle = ks_oracle(rho, 1, constants)
    assert oracle.transversal == range(0, 1 << m, 1 << 3 * n)
    table = np.array(oracle.table(), dtype=np.uint32)
    points = np.array(oracle.transversal, dtype=np.uint32)
    everywhere = np.arange(1 << m, dtype=np.uint32)
    for w in range(1 << m):
        assert np.array_equal(derivative_values(table, points, w), derivative_values(table, everywhere, w)), w


def test_transversal_carries_every_derivative_value_n4():
    rng = Random(4)
    oracle = ks_oracle(random_nonaffine_word_permutation(4, rng), 1)
    table = np.array(oracle.table(), dtype=np.uint32)
    points = np.array(oracle.transversal, dtype=np.uint32)
    everywhere = np.arange(1 << 16, dtype=np.uint32)
    for w in [rng.getrandbits(16) for _ in range(512)]:
        assert np.array_equal(derivative_values(table, points, w), derivative_values(table, everywhere, w)), w


def test_no_transversal_at_other_powers():
    rho = random_nonaffine_word_permutation(3, Random(5))
    for power in (2, 3, -1):
        assert ks_oracle(rho, power).transversal == range(1 << 12)
    assert ks_oracle(rho, 2, [1, 2]).transversal == range(1 << 12)
    assert rho.transversal == range(8)
    # and at power 2 the states (0, 0, 0, z) really miss values: for most w
    # f^2(x+w)+f^2(x) takes a value that none of them reaches
    table = np.array(ks_oracle(rho, 2).table(), dtype=np.uint32)
    points = np.arange(0, 1 << 12, 1 << 9, dtype=np.uint32)
    everywhere = np.arange(1 << 12, dtype=np.uint32)
    misses = sum(
        not np.array_equal(derivative_values(table, points, w), derivative_values(table, everywhere, w))
        for w in range(1 << 12)
    )
    assert misses == 3776


@pytest.mark.parametrize("kind", ["random", "affine"])
def test_normalized_operator_keeps_the_transversal(kind):
    # an output translation cancels in every derivative, whether the
    # normalized oracle wraps the operator or its cached table
    rng = Random(7)
    draw = random_affine_word_permutation if kind == "affine" else random_nonaffine_word_permutation
    raw = ks_oracle(draw(3, rng), 1, [rng.getrandbits(12) | 1])
    lazy = raw.normalized()
    raw.table()
    for oracle in (lazy, raw.normalized()):
        assert oracle.forward(0) == 0
        assert oracle.transversal == range(0, 1 << 12, 1 << 9)
        every_point = PermutationOracle.from_table(oracle.table())
        for v in [1, *(rng.getrandbits(12) or 2 for _ in range(15))]:
            assert min_block_subspace(oracle, v) == min_block_subspace(every_point, v)


# n=3 maps whose lifts the transversal scan and the numpy all-points
# reference must judge alike: one primitive lift, two base-imprimitive non-affine maps and
# five affine maps, whose lifts stop at seeds 1, 2 and 3
VERDICT_MAPS_N3 = [
    *(("random", seed) for seed in (0, 5, 11)),
    *(("affine", seed) for seed in range(5)),
]


@pytest.mark.parametrize("kind, seed", VERDICT_MAPS_N3)
def test_transversal_verdict_equals_all_points_verdict(kind, seed):
    draw = random_affine_word_permutation if kind == "affine" else random_nonaffine_word_permutation
    oracle = ks_oracle(draw(3, Random(seed)), 1)
    assert oracle.transversal is not None
    verdict = primitivity_check(oracle)
    assert (verdict.status, verdict.witness, verdict.pairs_checked) == all_points_primitivity(oracle)
    assert verdict.witness_certified is (True if verdict.witness is not None else None)


# per (kind, lifted): how many of the maps from seeds 0..149 are imprimitive
IMPRIMITIVE_OF_150 = {("random", False): 25, ("random", True): 25,
                      ("affine", False): 111, ("affine", True): 132}


@pytest.mark.parametrize("kind, lifted", IMPRIMITIVE_OF_150)
def test_early_stop_verdict_equals_full_growth(kind, lifted):
    # every block a seed reaches below it is full, so stopping there keeps
    # the status, the first proper block and pairs_checked
    draw = random_affine_word_permutation if kind == "affine" else random_nonaffine_word_permutation
    imprimitive = 0
    for seed in range(150):
        rho = draw(3, Random(seed))
        oracle = ks_oracle(rho, 1) if lifted else PermutationOracle.from_table(rho.table())
        verdict = primitivity_check(oracle)
        assert (verdict.status, verdict.witness, verdict.pairs_checked,
                verdict.witness_certified) == full_growth_primitivity(oracle)
        imprimitive += verdict.status == "imprimitive"
    assert imprimitive == IMPRIMITIVE_OF_150[kind, lifted]


def test_precheck_grows_only_the_undecided_seeds(monkeypatch):
    # the lift of toy map 0 is primitive: a seed goes to min_block_subspace
    # exactly when its first derivative scan, here made point by point,
    # reaches no nonzero point below it
    _, oracle = toy_ks_oracle(3, 0)
    table = oracle.table()
    undecided = [v for v in range(1, 1 << 12)
                 if min(table[x ^ v] ^ table[x] for x in oracle.transversal) >= v]
    grown = []

    def counting(oracle, v, **kwargs):
        grown.append(v)
        return min_block_subspace(oracle, v, **kwargs)

    monkeypatch.setattr(invariants, "min_block_subspace", counting)
    assert primitivity_check(oracle).status == "primitive"
    assert grown == undecided
    assert len(grown) < (1 << 12) - 1


# a bare table of the lift has all 4096 points as its transversal, so its
# precheck runs in chunks of 16 seeds; a Primitive one takes about a second
TABLE_VERDICT_MAPS_N3 = [
    *(("random", seed) for seed in range(6)),
    *(("affine", seed) for seed in range(20)),
]


@pytest.mark.parametrize("kind, seed", TABLE_VERDICT_MAPS_N3)
def test_lift_verdict_equals_its_bare_table_verdict(kind, seed):
    draw = random_affine_word_permutation if kind == "affine" else random_nonaffine_word_permutation
    oracle = ks_oracle(draw(3, Random(seed)), 1)
    assert primitivity_check(PermutationOracle.from_table(oracle.table())) == primitivity_check(oracle)


def test_precheck_is_built_chunk_by_chunk():
    # this affine lift stops at seed 1; a precheck of all 2^20 seeds at
    # once would gather 2^20 x 32 entries first (264 MB traced at peak)
    oracle = ks_oracle(random_affine_word_permutation(5, Random(0)), 1)
    oracle.table()
    tracemalloc.start()
    try:
        verdict = primitivity_check(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.pairs_checked) == ("imprimitive", 1)
    assert peak < 30 << 20  # 20.1 MB measured, most of it the witness re-check


def test_full_below_one_grows_every_block_of_a_lift():
    # the lift of this affine map has blocks of every even dimension, the
    # one of seed 1 among the proper ones; no promise means full growth
    oracle = ks_oracle(random_affine_word_permutation(3, Random(1)), 1)
    table = np.array(oracle.table(), dtype=np.uint32)
    dims = set()
    for v in range(1, 1 << 12):
        block = all_points_block(table, v)
        assert min_block_subspace(oracle, v, full_below=1) == block
        assert min_block_subspace(oracle, v) == block
        dims.add(block.dim)
    assert dims == {2, 4, 6, 8, 10, 12}
    assert min_block_subspace(oracle, 1).dim < 12


def test_a_block_cut_short_is_the_full_space():
    # the lift of toy map 0 is primitive, so the block of every seed is
    # full, also where the promise about the seeds below stops its growth
    _, oracle = toy_ks_oracle(3, 0)
    for v in range(1, 1 << 12, 97):
        assert min_block_subspace(oracle, v, full_below=v) == full_space(12)


@pytest.mark.parametrize("seed", range(6))
def test_transversal_verdict_matches_unionfind_n2(seed):
    oracle = ks_oracle(random_affine_word_permutation(2, Random(seed)), 1)
    assert oracle.transversal is not None
    verdict = primitivity_check(oracle)
    assert (verdict.status, verdict.witness, verdict.pairs_checked) == unionfind_primitivity(oracle)


def structured_source(rho):
    """The ``images`` of ``invariants._grow`` for the power-1 lift of rho,
    read from rho's 2^n-entry table alone, with no table of the lift.
    f(x+w)+f(x) = A*w + E(rho(z+a)+rho(z)) with z = x4 and a = w4, so its
    values span A*w + E(rho(a)+rho(0)) and E(V(a)), where V(a) is the span
    of rho(z+a)+rho(z)+rho(a)+rho(0) over every z.  At a = 0 that is A*w
    alone."""
    n, t = rho.m, rho.table()

    @functools.cache
    def spread_basis(a):
        rows = {}
        rref_insert(rows, [t[z ^ a] ^ t[z] ^ t[a] ^ t[0] for z in range(1 << n)])
        return [keyschedule._ks_step(0, b, n) for b in rows.values()]

    def images(w):
        a = w >> 3 * n
        return [keyschedule._ks_step(w, t[a] ^ t[0], n), *spread_basis(a)]

    return images


def structured_primitivity(rho):
    """(status, witness, pairs_checked) of the ordered seed scan of
    ``_grow`` over ``structured_source``, each seed v with the promise
    ``full_below=v`` and no precheck."""
    m, images = 4 * rho.m, structured_source(rho)
    for v in range(1, 1 << m):
        block = invariants._grow(m, v, images, full_below=v)
        if not block.is_trivial:
            return "imprimitive", block, v
    return "primitive", None, (1 << m) - 1


STRUCTURED_MAPS = [
    *(("random", 3, seed) for seed in range(40)),
    *(("affine", 3, seed) for seed in range(20)),
    *(("random", 4, seed) for seed in range(2)),
]


@pytest.mark.parametrize("kind, n, seed", STRUCTURED_MAPS)
def test_structured_source_verdict_equals_primitivity_check(kind, n, seed):
    # a second source of derivative values must give the table scan's
    # status, witness and pairs_checked
    draw = random_affine_word_permutation if kind == "affine" else random_nonaffine_word_permutation
    rho = draw(n, Random(seed))
    verdict = primitivity_check(ks_oracle(rho, 1))
    assert (verdict.status, verdict.witness, verdict.pairs_checked) == structured_primitivity(rho)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_structured_source_spans_the_derivative_at_wide_words(n):
    # 2^4n points are past any table: the derivative is evaluated point by
    # point, over the states (0, 0, 0, z) and at random states
    rng = Random(n)
    rho = random_nonaffine_word_permutation(n, rng)
    images = structured_source(rho)
    states = [z << 3 * n for z in range(1 << n)]
    for _ in range(50):
        w = rng.getrandbits(4 * n) or 1
        span = Subspace(4 * n, images(w))
        assert span == Subspace(4 * n, [ks_apply(rho, x ^ w) ^ ks_apply(rho, x) for x in states])
        for x in (rng.getrandbits(4 * n) for _ in range(2)):
            assert ks_apply(rho, x ^ w) ^ ks_apply(rho, x) in span


# ---------------------------------------------------------------------
# closure_search


def test_closure_zero_seed_stays_zero():
    _, oracle = toy_ks_oracle(3, 6, normalized=True)
    res = closure_search(oracle, [0], samples_per_round=32, stable_rounds=4)
    assert res.subspace == Subspace(12)
    assert res.fresh_invariance_ok
    assert not res.proper


def test_closure_requires_fixed_zero():
    with pytest.raises(ValueError):
        closure_search(ks_oracle(aes_core(), 1), [1])


def test_closure_rejects_negative_samples():
    # a batched stream of rounds would count negative evaluations
    with pytest.raises(ValueError, match="non-negative"):
        closure_search(ks_oracle(aes_core().normalized(), 1), [1], samples_per_round=-1)


def test_closure_without_fresh_draws_certifies_nothing():
    # a stable stop with no fresh draws would claim span{e_0} invariant under
    # the power-1 operator, which has no proper invariant subspace
    oracle = ks_oracle(aes_core().normalized(), 1)
    res = closure_search(oracle, [1], stable_rounds=0, fresh_samples=0)
    assert (res.stop_reason, res.subspace.dim) == ("stable", 1)
    assert res.fresh_invariance_ok is None
    assert not res.proper
    with pytest.raises(ValueError, match="non-negative"):
        closure_search(oracle, [1], fresh_samples=-1)


def test_closure_stop_reasons():
    oracle = ks_oracle(aes_core().normalized(), 1)
    full = closure_search(oracle, [1], seed=1)
    assert (full.stop_reason, full.reached_full, full.proper) == ("full", True, False)
    for kwargs, reason in (
        ({"budget_ms": 0}, "budget"),
        ({"max_rounds": 0}, "max-rounds"),
        ({"samples_per_round": 0, "stable_rounds": 3}, "stable"),
    ):
        res = closure_search(oracle, [1], **kwargs)
        assert res.stop_reason == reason
        assert not res.proper  # dim 1 is not invariant: nothing certified
    lp = lp_pattern_subspace()
    res = closure_search(ks_oracle(aes_core().normalized(), 4), [lp.basis[0]])
    assert res.stop_reason == "stable" and res.proper


def test_closure_contains_seed_span():
    _, oracle = toy_ks_oracle(3, 8, normalized=True)
    rng = Random(3)
    seeds = [rng.getrandbits(12) for _ in range(2)]
    res = closure_search(oracle, seeds, samples_per_round=64, stable_rounds=8)
    for s in seeds:
        assert res.subspace.contains(s)


def test_closure_full_space_for_random_rho_no_proper_invariant():
    # deterministic sweep oracle: forward closure of every nonzero point;
    # pick a rho certified to have no proper nonzero invariant subspace
    # (a random normalized table occasionally has one, e.g. when the
    # all-ones word is fixed)
    chosen = None
    for seed in range(30):
        _, oracle = toy_ks_oracle(3, seed, normalized=True)
        table = oracle.table()
        if all(
            deterministic_closure(table, 12, v).dim == 12
            for v in range(1, 1 << 12)
        ):
            chosen = oracle
            break
    assert chosen is not None
    rng = Random(14)
    for _ in range(3):
        res = closure_search(chosen, [rng.getrandbits(12) or 1], stable_rounds=8)
        assert res.reached_full


def test_closure_stays_inside_existing_invariant_subspace():
    # seed 13 produces a normalized rho with a proper invariant subspace;
    # a closure seeded inside it must stay proper
    _, oracle = toy_ks_oracle(3, 13, normalized=True)
    table = oracle.table()
    det = deterministic_closure(table, 12, 7)
    if det.dim < 12:
        res = closure_search(oracle, [7], stable_rounds=8)
        assert not res.reached_full
        assert all(det.contains(b) for b in res.subspace.basis)


def test_closure_fresh_invariance_reported():
    _, oracle = toy_ks_oracle(3, 15, normalized=True)
    res = closure_search(oracle, [1], stable_rounds=8)
    assert res.fresh_invariance_ok


def test_closure_matches_deterministic_closure_on_invariant_case():
    # raw operator yields the witness block; its offset-normalized form
    # fixes 0, and the witness is an invariant subspace for that form
    rho, raw_oracle = toy_ks_oracle(3, 3, affine=True)
    verdict = primitivity_check(raw_oracle)
    norm_oracle = ks_oracle(rho.normalized(), 1)
    table = norm_oracle.table()
    seed_vec = verdict.witness.basis[0]
    det = deterministic_closure(table, 12, seed_vec)
    res = closure_search(norm_oracle, [seed_vec], stable_rounds=16)
    assert det.sum(res.subspace).dim <= verdict.witness.dim
    # the Monte-Carlo result is invariant and inside the witness block
    for b in res.subspace.basis:
        assert verdict.witness.contains(b)


# ---------------------------------------------------------------------
# Brick sums


ROT1 = linear_rows(lambda x: rot_bricks_left(x, 8, 4), 32)
ROT2 = linear_rows(lambda x: rot_bricks_left(rot_bricks_left(x, 8, 4), 8, 4), 32)
IDENT = linear_rows(lambda x: x, 32)


def test_rotation_fixes_no_brick_subset():
    assert brick_invariant_sums(ROT1, 8, 4) == []


def test_double_rotation_fixes_alternating_pairs():
    assert brick_invariant_sums(ROT2, 8, 4) == [(0, 2), (1, 3)]


def test_identity_fixes_all_subsets():
    assert len(brick_invariant_sums(IDENT, 8, 4)) == 14


def test_brick_width_mismatch():
    with pytest.raises(ValueError):
        brick_invariant_sums(ROT1, 8, 3)


def invertible_rows(s, rng):
    while True:
        rows = [rng.getrandbits(s) for _ in range(s)]
        if Subspace(s, rows).dim == s:
            return rows


@st.composite
def brick_maps(draw):
    """An invertible map of b s-bit bricks: invertible blocks moved by a
    brick permutation, then unipotent transvections that add a linear image
    of one brick into another, so that some brick sums stay fixed."""
    s = draw(st.integers(1, 4))
    b = draw(st.integers(1, 5))
    rng = Random(draw(st.integers(0, 2**32)))
    perm = list(range(b))
    rng.shuffle(perm)
    rows = [0] * (s * b)
    for i in range(b):
        for t, r in enumerate(invertible_rows(s, rng)):
            rows[s * i + t] = r << (s * perm[i])
    for _ in range(draw(st.integers(0, 3)) if b > 1 else 0):
        j, k = rng.sample(range(b), 2)
        shear = [e << (s * k) for e in (rng.getrandbits(s) for _ in range(s))]
        transvection = [(1 << e) ^ (shear[e - s * j] if e // s == j else 0) for e in range(s * b)]
        rows = [matrix_apply(transvection, r) for r in rows]
    return s, b, tuple(rows)


@settings(max_examples=300, deadline=None)
@given(brick_maps())
@example((8, 4, ROT2))
def test_brick_sums_against_subspace_definition(case):
    # brick subset S is reported exactly when W_S, the direct sum of its
    # bricks, contains the image of every basis vector of W_S
    s, b, rows = case
    expected = []
    for subset in range(1, (1 << b) - 1):
        bricks = tuple(i for i in range(b) if (subset >> i) & 1)
        basis = [1 << (s * i + t) for i in bricks for t in range(s)]
        w = Subspace(s * b, basis)
        if all(w.contains(matrix_apply(rows, v)) for v in basis):
            expected.append(bricks)
    assert brick_invariant_sums(rows, s, b) == expected


# ---------------------------------------------------------------------
# Affineness


def test_translation_is_affine():
    assert is_affine(translation_oracle(8, 42))


def test_aes_core_not_affine_sampled():
    rho = aes_core()
    oracle = PermutationOracle(32, rho.forward, rho.backward, "aes-core")
    assert is_affine_sampled(oracle, samples=10_000, seed=3) is False


def test_inversion_gf8_not_affine():
    from ksgroup.sbox import inversion_sbox

    table = inversion_sbox(3, 0b1011).table()
    oracle = PermutationOracle.from_table(table, "inversion")
    assert is_affine(oracle) is False
    # exhaustive triple-check oracle over all 512 triples
    violations = sum(
        1
        for x in range(8)
        for y in range(8)
        for z in range(8)
        if table[x ^ y ^ z] != table[x] ^ table[y] ^ table[z]
    )
    assert violations > 0


def test_exact_affineness_agrees_with_triple_oracle():
    rng = Random(17)
    for _ in range(10):
        perm = list(range(16))
        rng.shuffle(perm)
        oracle = PermutationOracle.from_table(perm, "t")
        brute = all(
            perm[x ^ y ^ z] == perm[x] ^ perm[y] ^ perm[z]
            for x in range(16)
            for y in range(16)
            for z in range(16)
        )
        assert is_affine(oracle) == brute


def triple_affine(table):
    """f(x+y+z) = f(x)+f(y)+f(z) for every triple."""
    n = len(table)
    return all(
        table[x ^ y ^ z] == table[x] ^ table[y] ^ table[z]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 2**32),
    st.sampled_from(("affine", "swapped", "shuffled")),
    st.integers(0, 31),
    st.integers(1, 31),
)
# two entries swapped along e_0: every e_0 derivative stays constant
@example(3, 0, "swapped", 0, 1)
def test_exact_affineness_on_affine_swapped_and_shuffled_tables(s, seed, kind, i, d):
    rng = Random(seed)
    if kind == "shuffled":
        table = list(range(1 << s))
        rng.shuffle(table)
    else:
        rho = random_affine_word_permutation(s, rng)
        table = list(rho.table())
        assert sorted(table) == list(range(1 << s))
        assert is_affine(rho) is True
        if kind == "swapped":
            i %= 1 << s
            j = i ^ (1 + (d - 1) % ((1 << s) - 1))
            table[i], table[j] = table[j], table[i]
    assert is_affine(PermutationOracle.from_table(table, "t")) is triple_affine(table)


def test_random_nonaffine_generator_rejects_small_n():
    with pytest.raises(ValueError):
        random_nonaffine_word_permutation(2, Random(0))


# ---------------------------------------------------------------------
# Certificate


def test_certificate_aes_rotword_passes():
    cert = spn_primitivity_certificate(AES_SBOX, ROT1, delta=2)
    assert cert.passed
    assert cert.failing() == []


def test_certificate_linear_sbox_fails_anti_clause():
    rng = Random(23)
    sb = random_affine_word_permutation(8, rng).normalized()
    cert = spn_primitivity_certificate(sb, ROT1, delta=2)
    assert not cert.passed
    assert "anti-invariance" in cert.failing()


def test_certificate_double_rotation_fails_brick_clause():
    cert = spn_primitivity_certificate(AES_SBOX, ROT2, delta=2)
    assert not cert.passed
    assert "brick-sums" in cert.failing()
    clause = next(c for c in cert.clauses if c.name == "brick-sums")
    assert clause.witness == (0, 2)


def direct_sbox_clauses(sb, delta):
    """The certificate's two S-box clauses built directly: the DDT and the
    anti-invariance order of the 0-fixed representative."""
    f = sb.normalized()
    du = differential_profile(f).delta
    anti = anti_invariance_order(f, delta - 1)
    return [
        ("differential-uniformity", du <= 1 << delta,
         f"uniformity {du} vs bound 2^{delta} = {1 << delta}", None),
        ("anti-invariance", anti.order >= delta - 1, f"order {anti.order} vs required {delta - 1}",
         anti.witness),
    ]


def shuffled_sbox(s, seed):
    """A shuffled s-bit table that does not fix 0."""
    table = list(range(1 << s))
    Random(seed).shuffle(table)
    if table[0] == 0:
        table[0], table[1] = table[1], table[0]
    return PermutationOracle.from_table(table, f"shuffled(s={s}, seed={seed})")


# every delta at 4, 5 and 6 bits; at 8 bits deltas 4..7 take about 25 s a
# shuffled table (two scans of 1 to 4 s each), so shuffled 8-bit tables run
# deltas 2 and 3; AES at delta 5 is the first 8-bit case whose
# anti-invariance clause fails with a witness (order 3 < 4)
CERTIFICATE_CASES = [
    *[(shuffled_sbox(s, seed), delta) for s in (4, 5, 6) for seed in range(3) for delta in range(2, s)],
    *[(shuffled_sbox(8, seed), delta) for seed in range(2) for delta in (2, 3)],
    *[(inversion_sbox(4, 0b10011), delta) for delta in (2, 3)],
    *[(AES_SBOX, delta) for delta in (2, 3, 5)],
]


@pytest.mark.parametrize("sb, delta", CERTIFICATE_CASES,
                         ids=[f"{sb.descriptor}-delta{d}" for sb, d in CERTIFICATE_CASES])
def test_certificate_sbox_clauses_match_a_direct_construction(sb, delta):
    s = sb.m
    rows = [1 << ((i + s) % (2 * s)) for i in range(2 * s)]  # swap two bricks
    cert = spn_primitivity_certificate(sb, rows, delta)
    got = [(c.name, c.passed, c.detail, c.witness) for c in cert.clauses[:2]]
    assert got == direct_sbox_clauses(sb, delta)


# ---------------------------------------------------------------------
# The pattern subspace


def test_lp_subspace_dim_32_and_contains_zero():
    u = lp_pattern_subspace()
    assert u.dim == 32
    assert u.contains(0)


def test_lp_conventions_all_constructible():
    for name in LP_CONVENTIONS:
        assert lp_pattern_subspace(name).dim == 32


def test_lp_invariance_resolved_convention():
    rep = verify_lp_subspace(samples=500, seed=2, run_closure=False)
    assert rep.resolved_convention == "word-major"
    assert rep.failures == 0
    assert rep.screening["word-major"] == 0
    assert all(fails > 0 for name, fails in rep.screening.items() if name != "word-major")


@pytest.mark.parametrize("samples", [0, -7])
def test_lp_pass_of_no_draws_is_refused(samples):
    # a pass of no draws cannot fail, so it would report the convention
    # resolved with zero failures having verified nothing
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_lp_subspace(samples=samples, run_closure=False)


def test_lp_zero_maps_to_zero():
    oracle = ks_oracle(aes_core().normalized(), power=4)
    assert oracle.forward(0) == 0
