"""Invariant-structure machinery for groups generated by a permutation and
all translations of F_2^m.

Contents:

* ``is_linear_block`` -- does a subspace's coset partition survive a map,
  checked exhaustively: every point against every basis direction.  The
  answer is exact; over budget the check refuses rather than guessing.
* ``escapes`` -- the one sampled membership check: random members of a
  subspace whose image leaves it.  The closure's fresh check and the
  pattern-subspace passes go through it.
* ``min_block_subspace`` -- the minimal block through {0, v}.  Every
  translation is in the group, so that block is a subspace W with
  f(x+w)+f(x) in W for all x, and it is grown by vectorized scans over
  difference tables.  The tests check it against a union-find over all
  2^m points (Atkinson 1975), which assumes no linearity.
* ``primitivity_check`` -- minimal blocks for every v != 0; Primitive only
  when all of them are the full space, Imprimitive verdicts carry a
  witness that is re-certified with ``is_linear_block``.
* ``closure_search`` -- Monte-Carlo search for an invariant subspace
  containing a seed, for widths where tables are impossible.
* brick sums, affineness tests, the SPN primitivity certificate, and the
  32-dimensional four-round pattern subspace with its verification.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .gf2 import Subspace, derivative, random_member, rref_insert
from .keyschedule import MAX_EXHAUSTIVE_POINTS, PermutationOracle, aes_core, ks_oracle
from .sbox import AffineMap


# ---------------------------------------------------------------------
# Linear-block check


@dataclass(frozen=True)
class LinearBlockCheck:
    ok: bool | None  # None = inconclusive (over budget), never a guess
    checked: int
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
        raise ValueError("oracle and subspace dimensions differ")
    if u.is_trivial:
        return LinearBlockCheck(ok=True, checked=0, reason="trivial partition")
    n_points = 1 << oracle.m
    if n_points > MAX_EXHAUSTIVE_POINTS:
        return LinearBlockCheck(
            ok=None, checked=0, reason=f"2^{oracle.m} points exceed the exhaustive budget",
        )
    table = np.array(oracle.table(), dtype=np.uint32)
    checked = 0
    for w in u.basis:
        reduced = _reduce_array(derivative(table, w), u.basis)
        checked += n_points
        bad = np.nonzero(reduced)[0]
        if bad.size:
            return LinearBlockCheck(ok=False, checked=checked, witness=(int(bad[0]), w))
    return LinearBlockCheck(ok=True, checked=checked)


def escapes(oracle: PermutationOracle, u: Subspace, samples: int, rng: Random) -> Iterator[int]:
    """Draw ``samples`` random members x of U and lazily yield each one
    whose image f(x) lies outside U."""
    for _ in range(samples):
        x = random_member(u.basis, rng)
        if not u.contains(oracle.forward(x)):
            yield x


def _reduce_array(values: np.ndarray, basis: Sequence[int]) -> np.ndarray:
    """Eliminate each basis pivot in turn; ascending pivots absorb the cascade."""
    out = values.copy()
    for row in basis:
        p = (row & -row).bit_length() - 1
        out ^= ((out >> np.uint32(p)) & np.uint32(1)) * np.uint32(row)
    return out


# ---------------------------------------------------------------------
# Minimal blocks: translations are generators, so blocks are subspaces


def min_block_subspace(tables: Sequence[np.ndarray], m: int, v: int) -> Subspace:
    """Smallest subspace W containing v with f(x+w)+f(x) in W for all x, w
    in W, for every table f.  Equals the union-find block through {0, v}
    of <fs, T_m>: with all translations present, blocks through 0 are
    exactly such subspaces.

    Each new basis vector w triggers one vectorized scan of the difference
    table f(x+w)+f(x); differences outside the current span are absorbed
    immediately, so no rescans are needed.
    """
    rows: dict[int, int] = {}
    queue = rref_insert(rows, [v])
    while queue and len(rows) < m:
        w = queue.pop()
        for table in tables:
            reduced = _reduce_array(derivative(table, w), [rows[p] for p in sorted(rows)])
            queue += rref_insert(rows, (int(d) for d in np.unique(reduced) if d))
            if len(rows) == m:
                break
    pivots = sorted(rows)
    return Subspace._from_rref(m, [rows[p] for p in pivots], pivots)


# ---------------------------------------------------------------------
# Primitivity


@dataclass(frozen=True)
class BlockVerdict:
    status: str  # "primitive" | "imprimitive" | "inconclusive"
    witness: Subspace | None
    points: int
    pairs_checked: int
    reason: str = ""
    witness_certified: bool | None = None


def primitivity_check(oracles: Sequence[PermutationOracle], m: int) -> BlockVerdict:
    """Exhaustive minimal-block search for <oracles, T_m> over every v != 0.

    Each seed's block is grown by ``min_block_subspace`` and the search
    stops at the first proper one.  An Imprimitive witness is re-certified
    with the exhaustive ``is_linear_block`` against every oracle before the
    verdict is returned.
    """
    n_points = 1 << m
    if n_points > MAX_EXHAUSTIVE_POINTS:
        return BlockVerdict(
            status="inconclusive", witness=None, points=n_points, pairs_checked=0,
            reason=f"2^{m} points exceed the exhaustive budget",
        )
    tables = [np.array(o.table(), dtype=np.uint32) for o in oracles]
    for v in range(1, n_points):
        witness = min_block_subspace(tables, m, v)
        if not witness.is_trivial:
            break
    else:
        return BlockVerdict(
            status="primitive", witness=None, points=n_points, pairs_checked=n_points - 1,
        )
    if not all(is_linear_block(o, witness).ok for o in oracles):
        raise AssertionError("imprimitivity witness failed the linear-block re-check")
    return BlockVerdict(
        status="imprimitive", witness=witness, points=n_points,
        pairs_checked=v, witness_certified=True,
    )


# ---------------------------------------------------------------------
# Monte-Carlo closure search (Leander-style)


@dataclass(frozen=True)
class ClosureResult:
    subspace: Subspace
    rounds: int
    evaluations: int
    fresh_invariance_ok: bool
    stop_reason: str  # "full" | "stable" | "budget" | "max-rounds"

    @property
    def reached_full(self) -> bool:
        return self.subspace.dim == self.subspace.m

    @property
    def proper(self) -> bool:
        """A proper invariant subspace is claimed only when the search
        stopped because the span was stable and a fresh sample agreed; the
        zero span certifies nothing."""
        return self.stop_reason == "stable" and self.fresh_invariance_ok and self.subspace.dim > 0


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
    m = oracle.m
    seeds = list(seeds)
    for s in seeds:
        if not 0 <= s < (1 << m):
            raise ValueError(f"seed {s:#x} does not fit in {m} bits")
    rows: dict[int, int] = {}
    # members are sampled over the residuals in insertion order, not over
    # the RREF rows, so that a seeded search replays the same draws
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
    fresh_ok = next(escapes(oracle, result, fresh_samples, rng), None) is None
    return ClosureResult(
        subspace=result, rounds=rounds, evaluations=evals,
        fresh_invariance_ok=fresh_ok, stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------
# Brick sums under a linear layer


def linear_rows(fn: Callable[[int], int], n: int) -> tuple[int, ...]:
    """Basis images of a linear map (caller guarantees linearity)."""
    return tuple(fn(1 << i) for i in range(n))


def brick_invariant_sums(rows: Sequence[int], s: int, b: int) -> list[tuple[int, ...]]:
    """Proper nonempty brick subsets whose direct sum is fixed by the map.

    Brick i is the block of coordinates [s*i, s*i + s).  The map, given by
    basis-image rows, must be invertible, so W*L = W reduces to W*L <= W.
    """
    n = s * b
    if len(rows) != n:
        raise ValueError(f"expected {n} rows for {b} bricks of width {s}")
    if Subspace(n, rows).dim != n:
        raise ValueError("linear map is singular")
    out = []
    for subset in range(1, (1 << b) - 1):
        mask = 0
        for i in range(b):
            if (subset >> i) & 1:
                mask |= ((1 << s) - 1) << (s * i)
        ok = True
        for i in range(b):
            if (subset >> i) & 1:
                for t in range(s):
                    if rows[s * i + t] & ~mask:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(tuple(i for i in range(b) if (subset >> i) & 1))
    return out


# ---------------------------------------------------------------------
# Affineness


def is_affine(oracle: PermutationOracle) -> bool:
    """Exact test: subtract f(0) and compare against the linearization
    built from the basis images.  Equivalent to f(x+y+z) = f(x)+f(y)+f(z)
    for all triples.  Above 2^20 points ``table()`` raises CapacityError."""
    m = oracle.m
    t = oracle.table()
    c = t[0]
    expected = [0] * (1 << m)
    for x in range(1, 1 << m):
        low = x & -x
        expected[x] = expected[x ^ low] ^ t[low] ^ c
    return all(t[x] == expected[x] ^ c for x in range(1 << m))


def random_word_permutation(n: int, rng: Random) -> PermutationOracle:
    table = list(range(1 << n))
    rng.shuffle(table)
    return PermutationOracle.from_table(table, f"random-table(n={n})")


def random_nonaffine_word_permutation(n: int, rng: Random, max_tries: int = 1000) -> PermutationOracle:
    """Rejection-sample shuffled tables until one is not affine.

    Impossible at n <= 2: every permutation of F_2^2 is affine, so toy
    experiments start at n = 3.
    """
    if n < 3:
        raise ValueError("every permutation of F_2^n is affine for n <= 2")
    for _ in range(max_tries):
        rho = random_word_permutation(n, rng)
        if not is_affine(rho):
            return rho
    raise RuntimeError("no non-affine table found (should not happen)")


def random_affine_word_permutation(n: int, rng: Random) -> PermutationOracle:
    amap = AffineMap.random(n, rng)
    inv = amap.inverse()
    return PermutationOracle(n, amap, inv, f"affine(n={n})")


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
    from .sbox import anti_invariance_order, differential_uniformity

    s = sbox.m
    n = len(rows)
    if n % s:
        raise ValueError(f"linear layer width {n} is not a multiple of s={s}")
    b = n // s
    if not 2 <= delta <= s - 1:
        raise ValueError(f"delta must be in 2..{s - 1}")
    f = sbox.normalized()

    du = differential_uniformity(f)
    clause_du = CertificateClause(
        name="differential-uniformity",
        passed=du <= (1 << delta),
        detail=f"uniformity {du} vs bound 2^{delta} = {1 << delta}",
    )
    anti = anti_invariance_order(f, delta - 1)
    clause_anti = CertificateClause(
        name="anti-invariance",
        passed=anti.order >= delta - 1,
        detail=f"order {anti.order} vs required {delta - 1}",
        witness=anti.witness,
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


def lp_pattern_subspace(convention: str = "word-major") -> Subspace:
    """The 32-dimensional pattern subspace of F_2^128 (one free byte per
    symbol a, b, c, d) under the given slot-to-position convention."""
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
    convention independently.
    """
    oracle = ks_oracle(aes_core().normalized(), power=4)
    rng = Random(seed)

    screening = {}
    resolved = None
    for name in LP_CONVENTIONS:
        u = lp_pattern_subspace(name)
        fails = sum(1 for _ in escapes(oracle, u, LP_SCREEN_SAMPLES, rng))
        screening[name] = fails
        if fails == 0 and resolved is None:
            resolved = name

    failures = 0
    closure_dim = closure_contained = None
    if resolved is not None:
        u = lp_pattern_subspace(resolved)
        failures = sum(1 for _ in escapes(oracle, u, samples, rng))
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
