"""Invariant-structure machinery for groups generated by a permutation and
all translations of F_2^m.

Contents:

* ``is_linear_block`` -- does a subspace's coset partition survive a map,
  checked exhaustively, each derivative reduced in one ``gf2.RowTables``
  pass.  Over budget the check refuses rather than guessing.
* ``escapes`` -- the one sampled membership check: how many random
  members of a subspace have an image outside it.
* ``_grow`` -- the one loop that grows a minimal block, from any spanning
  set of derivative values, and the containment rule that cuts it short.
  ``min_block_subspace`` grows it from the oracle's table over its
  transversal.  The tests check it against a union-find over all 2^m
  points (Atkinson 1975), which assumes no linearity, and against a second
  source, the structured derivative of a power-1 lift.
* ``primitivity_check`` -- minimal blocks for every v != 0, in increasing
  order; Imprimitive verdicts carry a witness that is re-certified by
  ``is_linear_block``'s exhaustive scan.
* ``closure_search`` -- Monte-Carlo search for an invariant subspace
  containing a seed, for widths where tables are impossible.
* brick sums, affineness tests, the SPN primitivity certificate, and the
  32-dimensional four-round pattern subspace with its verification.

For an oracle with an array twin (``PermutationOracle.many``),
``closure_search`` and ``escapes`` evaluate their draws with
``gf2.RowTables`` in chunks of ``ESCAPE_CHUNK``.  A chunk costs about 140
small numpy calls whatever its size, so chunks are large.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .gf2 import (WORD, DimensionMismatch, RowTables, Subspace, check_vector, derivative,
                  matrix_apply, random_member, rref_insert)
from .keyschedule import MAX_EXHAUSTIVE_POINTS, PermutationOracle, aes_core, ks_oracle
from .sbox import audit_sbox


# ---------------------------------------------------------------------
# Linear-block check


@dataclass(frozen=True)
class LinearBlockCheck:
    ok: bool | None  # None = inconclusive (over budget), never a guess
    witness: tuple[int, int] | None = None  # (x, u) with f(x+u)+f(x) outside U
    reason: str = ""


def is_linear_block(oracle: PermutationOracle, u: Subspace, mode: str = "exhaustive") -> LinearBlockCheck:
    """Does f map every coset U+v onto the coset U+f(v)?

    Checks f(x+u)+f(x) in U for every point x and every basis direction u,
    which by telescoping covers all of U.  ``exhaustive`` is the only mode.
    """
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    if oracle.m != u.m:
        raise DimensionMismatch(f"oracle and subspace dimensions differ: {oracle.m} != {u.m}")
    if u.is_trivial:
        return LinearBlockCheck(ok=True, reason="trivial partition")
    if 1 << oracle.m > MAX_EXHAUSTIVE_POINTS:
        return LinearBlockCheck(ok=None, reason=f"2^{oracle.m} points exceed the exhaustive budget")
    return _linear_block(np.array(oracle.table(), dtype=np.uint32), u)


def _linear_block(table: np.ndarray, u: Subspace) -> LinearBlockCheck:
    """The scan of ``is_linear_block`` over a uint32 table of f, for a
    caller that already holds that array."""
    reducer = RowTables.pivot_map(u)
    for w in u.basis:
        # one word per point: the exhaustive budget keeps m below 32
        bad = np.flatnonzero(reducer.residuals(derivative(table, w)[:, None]))
        if bad.size:
            return LinearBlockCheck(ok=False, witness=(int(bad[0]), w))
    return LinearBlockCheck(ok=True)


# draws per batch of a batched scan, 64 KB of states.  A chunk's fixed cost
# outweighs its draws at 1024; 4096 gives as fast an lp-verify as 8192 with
# half the memory (bench/closure.py, BENCH_closure.json "chunk_4096")
ESCAPE_CHUNK = 4096
STREAM_AFTER = 8  # draws in a row without growth after which a closure streams to its stop


def _outside(maps: Sequence, rows: Sequence[int], span: Subspace, samples: int,
             rng: Random) -> Iterator[np.ndarray]:
    """Scan ``samples`` random members of span(``rows``) in chunks of
    ``ESCAPE_CHUNK``, in the per-point order, and yield per chunk which
    draws have an image under one of the array ``maps`` outside ``span``.
    The tables are built when the scan starts."""
    members, reducer = RowTables(rows, span.m), RowTables.pivot_map(span)
    for start in range(0, samples, ESCAPE_CHUNK):
        xs = members.random_members(min(ESCAPE_CHUNK, samples - start), rng)
        # a draw is outside when any word of any residual is nonzero
        words = np.zeros(len(xs), WORD)
        for f in maps:
            for column in reducer.residuals(f(xs)).T:
                words |= column
        yield words != 0


def escapes(oracle: PermutationOracle, u: Subspace, samples: int, rng: Random) -> int:
    """How many of ``samples`` random members x of U have an image f(x)
    outside U.

    With an array twin and a proper U the draws are evaluated in chunks of
    ``ESCAPE_CHUNK``, in the per-point loop's order, so the count and the
    rng state at return equal that loop's.  At full dimension, for every
    oracle, each draw is still taken and evaluated point by point, but its
    member is its mask (the identity rule at ``Subspace.reduce``).
    """
    if oracle.m != u.m:
        raise DimensionMismatch(f"oracle and subspace dimensions differ: {oracle.m} != {u.m}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if u.dim == u.m:
        return sum(not u.contains(oracle.forward(rng.getrandbits(u.m))) for _ in range(samples))
    if oracle.many is None:
        return sum(not u.contains(oracle.forward(random_member(u.basis, rng))) for _ in range(samples))
    return sum(int(out.sum()) for out in _outside(oracle.many[:1], u.basis, u, samples, rng))


# ---------------------------------------------------------------------
# Minimal blocks: translations are generators, so blocks are subspaces


def _grow(m: int, v: int, images: Callable[[int], Collection[int]], full_below: int) -> Subspace:
    """The minimal block through {0, v} of <f, T_m>: the smallest subspace W
    of F_2^m holding v with f(x+w)+f(x) in W for all x, w in W.  With all
    translations in the group, the blocks through 0 are exactly such
    subspaces, so W can be grown from any source: ``images(w)`` is a
    collection of nonzero vectors that spans the values of f(x+w)+f(x)
    over all x.  It is called once per new basis vector w, and the values
    outside the span are inserted and queued at once, so no w is read twice.

    Containment rule (Dixon and Mortimer, *Permutation Groups*, 1.5): a
    block holding a nonzero u holds the block of u, the smallest subspace
    through u closed under the derivatives.  ``full_below`` is the caller's
    promise that every nonzero point below it has the full space as its
    block, so the full space is returned as soon as a value or a basis row
    is below it.  The promise of 1 is empty.
    """
    rows: dict[int, int] = {}
    queue = rref_insert(rows, [v])
    while queue and len(rows) < m:
        values = images(queue.pop())
        if min(*values, *rows.values()) < full_below:
            return Subspace._from_rref(m, [1 << i for i in range(m)], range(m))
        queue += rref_insert(rows, values)
    pivots = sorted(rows)
    return Subspace._from_rref(m, [rows[p] for p in pivots], pivots)


def min_block_subspace(oracle: PermutationOracle, v: int, *, full_below: int = 1) -> Subspace:
    """``_grow`` from v, a nonzero point of F_2^m, with the values of
    f(x+w)+f(x) at the oracle's transversal, two table lookups per point:
    f is a bijection, so none is 0."""
    if not 0 < v < 1 << oracle.m:
        raise ValueError(f"seed {v:#x} is not a nonzero point of F_2^{oracle.m}")
    table, points = oracle.table(), oracle.transversal
    return _grow(oracle.m, v, lambda w: {table[x ^ w] ^ table[x] for x in points}, full_below)


# ---------------------------------------------------------------------
# Primitivity


@dataclass(frozen=True)
class BlockVerdict:
    status: str  # "primitive" | "imprimitive" | "inconclusive"
    witness: Subspace | None
    pairs_checked: int
    reason: str = ""
    witness_certified: bool | None = None


PRECHECK_ENTRIES = 1 << 16  # seeds times transversal points per precheck chunk


def _undecided_seeds(oracle: PermutationOracle, table: np.ndarray) -> Iterator[int]:
    """The nonzero seeds v, in increasing order, whose first derivative
    scan reaches no nonzero point below v.  At every other seed,
    ``min_block_subspace(oracle, v, full_below=v)`` returns the full space
    after that scan.  One numpy gather of at most about
    ``PRECHECK_ENTRIES`` entries from ``table``, the oracle's table as
    uint32, decides a chunk of seeds, built only when the scan reaches it.
    """
    points = np.array(oracle.transversal, dtype=np.uint32)
    chunk = max(1, PRECHECK_ENTRIES // len(points))
    for start in range(1, 1 << oracle.m, chunk):
        seeds = np.arange(start, min(start + chunk, 1 << oracle.m), dtype=np.uint32)
        decided = (table[seeds[:, None] ^ points] ^ table[points]).min(axis=1) < seeds
        yield from seeds[~decided].tolist()


def primitivity_check(oracle: PermutationOracle) -> BlockVerdict:
    """Exhaustive minimal-block search for <f, T_m> over every v != 0, in
    increasing order, stopping at the first proper block.  The seeds that
    ``_undecided_seeds`` leaves are grown by ``min_block_subspace(oracle,
    v, full_below=v)``.  The first proper block holds no point below its
    seed, so it is grown to closure: the witness and ``pairs_checked`` are
    those of growing every block in full.  The witness is re-certified by
    the exhaustive scan of ``is_linear_block`` before the verdict is
    returned; the table is converted to uint32 once, for both scans.
    """
    m = oracle.m
    n_points = 1 << m
    if n_points > MAX_EXHAUSTIVE_POINTS:
        return BlockVerdict(
            status="inconclusive", witness=None, pairs_checked=0,
            reason=f"2^{m} points exceed the exhaustive budget",
        )
    table = np.array(oracle.table(), dtype=np.uint32)
    for v in _undecided_seeds(oracle, table):
        witness = min_block_subspace(oracle, v, full_below=v)
        if not witness.is_trivial:
            break
    else:
        return BlockVerdict(
            status="primitive", witness=None, pairs_checked=n_points - 1,
        )
    if not _linear_block(table, witness).ok:
        raise AssertionError("imprimitivity witness failed the linear-block re-check")
    return BlockVerdict(
        status="imprimitive", witness=witness,
        pairs_checked=v, witness_certified=True,
    )


# ---------------------------------------------------------------------
# Monte-Carlo closure search (Leander-style)


@dataclass(frozen=True)
class ClosureResult:
    subspace: Subspace
    rounds: int
    evaluations: int
    fresh_invariance_ok: bool | None  # None = no fresh draws, nothing checked
    stop_reason: str  # "full" | "stable" | "budget" | "max-rounds"

    @property
    def reached_full(self) -> bool:
        return self.subspace.dim == self.subspace.m

    @property
    def proper(self) -> bool:
        """A proper invariant subspace is claimed only when the search
        stopped because the span was stable and a fresh sample agreed; the
        zero span certifies nothing."""
        return self.stop_reason == "stable" and self.fresh_invariance_ok is True and self.subspace.dim > 0


def closure_search(
    oracle: PermutationOracle,
    seeds: Iterable[int],
    samples_per_round: int = 256,
    stable_rounds: int = 64,
    seed: int = 0,
    max_rounds: int = 1 << 16,
    budget_ms: float | None = None,
    fresh_samples: int = 1000,
) -> ClosureResult:
    """Grow span(seeds) by inserting images of random members until the
    dimension is stable for ``stable_rounds`` consecutive rounds or the
    space is full; ``stop_reason`` also records a stop by ``budget_ms`` or
    ``max_rounds``.

    Requires f(0) = 0 (normalize the operator first) so that the closure
    is a subspace story rather than a coset story.
    """
    if oracle.forward(0) != 0:
        raise ValueError("operator must fix 0; use a normalized word permutation")
    if samples_per_round < 0 or fresh_samples < 0:
        raise ValueError("samples_per_round and fresh_samples must be non-negative")
    m = oracle.m
    seeds = list(seeds)
    for s in seeds:
        check_vector(m, s)
    rows: dict[int, int] = {}
    # members are sampled over the residuals in insertion order, not over
    # the RREF rows, so that a seeded search replays the same draws
    residuals = rref_insert(rows, seeds)

    rng = Random(seed)
    t0 = time.perf_counter()

    def over_budget() -> bool:
        return budget_ms is not None and (time.perf_counter() - t0) * 1000 > budget_ms

    # grew: the rounds up to and including the last that grew the span; quiet: draws since then
    rounds = grew = quiet = evals = 0
    while len(rows) < m and rounds < min(grew + stable_rounds, max_rounds):
        if over_budget():
            stop_reason = "budget"
            break
        for done in range(1, samples_per_round + 1):
            u = random_member(residuals, rng)
            new = rref_insert(rows, (oracle.forward(u), oracle.backward(u)))
            evals += 2
            quiet += 1
            if new:
                grew, quiet = rounds + 1, 0
                residuals += new
                if len(rows) == m:
                    break
            if oracle.many is not None and quiet == STREAM_AFTER:
                # STREAM_AFTER quiet draws, reached once per growth: scan the
                # draws left up to the next stable or max-rounds stop as one
                # stream, in chunks, and count it only if every image stays in
                # the span.  At an escape, or a budget stop between chunks,
                # rewind the rng to the stream's start and go on point by point
                # until the next growth.  The chunks draw in the per-point
                # order, so every result and rng state equals that loop's
                order = sorted(rows)
                span = Subspace._from_rref(m, [rows[p] for p in order], order)
                end = min(grew + stable_rounds, max_rounds)
                draws = (end - rounds) * samples_per_round - done
                state = rng.getstate()
                outside = _outside(oracle.many, residuals, span, draws, rng)
                if any(out.any() or over_budget() for out in outside):
                    rng.setstate(state)
                else:
                    evals += 2 * draws
                    rounds = end - 1
                    break
        rounds += 1
    else:
        stop_reason = "full" if len(rows) == m else "stable" if rounds >= grew + stable_rounds else "max-rounds"

    pivots = sorted(rows)
    result = Subspace._from_rref(m, [rows[p] for p in pivots], pivots)
    # a check of no draws cannot fail, so it certifies nothing
    fresh_ok = escapes(oracle, result, fresh_samples, rng) == 0 if fresh_samples else None
    return ClosureResult(
        subspace=result, rounds=rounds, evaluations=evals,
        fresh_invariance_ok=fresh_ok, stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------
# Brick sums under a linear layer


def brick_invariant_sums(rows: Sequence[int], s: int, b: int) -> list[tuple[int, ...]]:
    """Proper nonempty brick subsets whose direct sum is fixed by the map.

    Brick i is the block of coordinates [s*i, s*i + s).  The map, given by
    basis-image rows, must be invertible, so W*L = W reduces to W*L <= W:
    a subset is fixed exactly when it holds every brick that the rows of
    each of its bricks reach.
    """
    n = s * b
    if len(rows) != n:
        raise ValueError(f"expected {n} rows for {b} bricks of width {s}")
    if Subspace(n, rows).dim != n:
        raise ValueError("linear map is singular")
    mask = (1 << s) - 1
    reach = []
    for i in range(b):
        image = 0
        for row in rows[s * i : s * i + s]:
            image |= row
        reach.append(sum(1 << j for j in range(b) if (image >> (s * j)) & mask))
    return [
        tuple(i for i in range(b) if (subset >> i) & 1)
        for subset in range(1, (1 << b) - 1)
        if all(reach[i] & ~subset == 0 for i in range(b) if (subset >> i) & 1)
    ]


# ---------------------------------------------------------------------
# Affineness


def is_affine(oracle: PermutationOracle) -> bool:
    """Exact test: f is affine exactly when every derivative along a basis
    vector e_i is constant, for then f(x) = f(0) + sum of f(e_i)+f(0) over
    the bits of x.  Equivalent to f(x+y+z) = f(x)+f(y)+f(z) for all
    triples.  Above 2^20 points ``table()`` raises CapacityError."""
    t = np.array(oracle.table(), dtype=np.uint32)
    return all((derivative(t, 1 << i) == t[1 << i] ^ t[0]).all() for i in range(oracle.m))


def random_nonaffine_word_permutation(n: int, rng: Random) -> PermutationOracle:
    """Rejection-sample shuffled tables until one is not affine.

    Impossible at n <= 2: every permutation of F_2^2 is affine, so toy
    experiments start at n = 3, where 1344 of the 40320 tables are affine.
    """
    if n < 3:
        raise ValueError("every permutation of F_2^n is affine for n <= 2")
    while True:
        table = list(range(1 << n))
        rng.shuffle(table)
        rho = PermutationOracle.from_table(table, f"random-table(n={n})")
        if not is_affine(rho):
            return rho


def random_affine_word_permutation(n: int, rng: Random) -> PermutationOracle:
    """x -> x*M + c for a random invertible matrix M (rows redrawn until
    independent; row i is the image of e_i) and a random offset c."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if Subspace(n, rows).dim == n:
            break
    c = rng.getrandbits(n)
    table = [matrix_apply(rows, x) ^ c for x in range(1 << n)]
    return PermutationOracle.from_table(table, f"affine(n={n})")


# ---------------------------------------------------------------------
# SPN primitivity certificate


@dataclass(frozen=True)
class CertificateClause:
    name: str
    passed: bool
    detail: str
    witness: object = None


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Machine-checkable bundle: an s-bit S-box applied per brick composed
    with a brick-permuting linear layer generates, together with the
    translations, a primitive group whenever all three clauses hold."""

    clauses: tuple[CertificateClause, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failing(self) -> list[str]:
        return [c.name for c in self.clauses if not c.passed]


def spn_primitivity_certificate(
    sbox: PermutationOracle,
    rows: Sequence[int],
    delta: int,
) -> PrimitivityCertificate:
    s = sbox.m
    n = len(rows)
    if n % s:
        raise ValueError(f"linear layer width {n} is not a multiple of s={s}")
    b = n // s
    if not 2 <= delta <= s - 1:
        raise ValueError(f"delta must be in 2..{s - 1}")
    # the DDT does not see the output translation that normalized() removes
    audit = audit_sbox(sbox, delta - 1)
    clause_du = CertificateClause(
        name="differential-uniformity",
        passed=audit.delta <= (1 << delta),
        detail=f"uniformity {audit.delta} vs bound 2^{delta} = {1 << delta}",
    )
    clause_anti = CertificateClause(
        name="anti-invariance",
        passed=audit.anti.order >= delta - 1,
        detail=f"order {audit.anti.order} vs required {delta - 1}",
        witness=audit.anti.witness,
    )
    sums = brick_invariant_sums(rows, s, b)
    clause_bricks = CertificateClause(
        name="brick-sums",
        passed=not sums,
        detail=f"{len(sums)} invariant brick sums" + (f", first {sums[0]}" if sums else ""),
        witness=sums[0] if sums else None,
    )
    return PrimitivityCertificate(clauses=(clause_du, clause_anti, clause_bricks))


# ---------------------------------------------------------------------
# The four-round pattern subspace


# byte pattern of the known 32-dimensional subspace invariant under four
# constant-free rounds: per (word, byte) slot, which free symbol sits there
LP_PATTERN: dict[str, tuple[tuple[int, int], ...]] = {
    "a": ((0, 0), (2, 0)),
    "b": ((0, 1), (1, 1)),
    "c": ((0, 2),),
    "d": ((0, 3), (1, 3), (2, 3), (3, 3)),
}

LP_CONVENTIONS = ("word-major", "word-major-bytes-reversed", "byte-sliced", "byte-sliced-bytes-reversed")


@functools.cache
def lp_pattern_subspace(convention: str = "word-major") -> Subspace:
    """The 32-dimensional pattern subspace of F_2^128 (one free byte per
    symbol a, b, c, d) under the given slot-to-position convention, built
    once per convention (a ``Subspace`` is immutable)."""
    if convention not in LP_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    transpose = convention.startswith("byte-sliced")
    reverse = convention.endswith("bytes-reversed")
    vecs = []
    for slots in LP_PATTERN.values():
        for t in range(8):
            v = 0
            for word, byte in slots:
                if transpose:
                    word, byte = byte, word
                if reverse:
                    byte = 3 - byte
                v |= 1 << (32 * word + 8 * byte + t)
            vecs.append(v)
    return Subspace(128, vecs)


@dataclass(frozen=True)
class LPReport:
    resolved_convention: str | None
    failures: int
    screening: dict[str, int] = field(default_factory=dict)  # convention -> failures in quick pass
    subspace_dim: int = 32
    closure_dim: int | None = None
    closure_contained: bool | None = None


LP_SCREEN_SAMPLES = 64  # per convention, in the quick pass


def verify_lp_subspace(
    samples: int = 10_000,
    seed: int = 0,
    run_closure: bool = True,
) -> LPReport:
    """Check u * f in U for random u in U, f = four applications of the
    offset-normalized AES word operator (no round constants).

    All byte-order conventions are screened first and the first all-pass
    one is verified in full; a closure search seeded inside U confirms the
    convention independently.  ``samples`` must be at least 1: a pass of no
    draws cannot fail, so it would verify nothing.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    oracle = ks_oracle(aes_core().normalized(), power=4)
    rng = Random(seed)

    screening = {name: escapes(oracle, lp_pattern_subspace(name), LP_SCREEN_SAMPLES, rng)
                 for name in LP_CONVENTIONS}
    resolved = next((name for name, fails in screening.items() if fails == 0), None)

    failures = 0
    closure_dim = closure_contained = None
    if resolved is not None:
        u = lp_pattern_subspace(resolved)
        failures = escapes(oracle, u, samples, rng)
        if run_closure:
            seed_vec = u.basis[0]
            res = closure_search(oracle, [seed_vec], seed=seed)
            closure_dim = res.subspace.dim
            closure_contained = all(u.contains(r) for r in res.subspace.basis)
    return LPReport(
        resolved_convention=resolved,
        failures=failures,
        screening=screening,
        subspace_dim=lp_pattern_subspace().dim,
        closure_dim=closure_dim,
        closure_contained=closure_contained,
    )
