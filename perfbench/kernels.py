"""Kernel pass: the ROADMAP's per-layer primitives timed directly.

Inputs are fixed (``KERNEL_SEED``), so every run times the same work.  Each
value is the median over ``REPEATS`` repeats of the time per call, where a
repeat makes enough calls to last a few milliseconds.
"""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter

import numpy as np

from ksgroup import fips197, gf2, goursat, invariants, keyschedule, sbox

KERNEL_SEED = 20210311
REPEATS = 5
UNIT_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _per_call(fn, inner: int = 1, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``fn()`` over ``repeats`` batches of ``inner`` calls."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    return statistics.median(times)


def _kernels():
    """(name, thunk) pairs; each thunk sets up its inputs and returns seconds per call."""
    rng = Random(KERNEL_SEED)
    vecs = [rng.getrandbits(128) for _ in range(256)]
    probes = iter(vecs * 100)
    st3 = tuple(rng.getrandbits(3) for _ in range(4))
    st32 = tuple(rng.getrandbits(32) for _ in range(4))
    closure_seed = rng.getrandbits(128)
    key = bytes(rng.getrandbits(8) for _ in range(16))
    rows12 = [rng.getrandbits(12) for _ in range(6)]
    lines = {m: [rng.getrandbits(m) or 1] for m in (12, 16)}
    seeds = iter(range(1, 1 << 12))

    def rho(n):
        return invariants.random_nonaffine_word_permutation(n, Random(KERNEL_SEED))

    def normalized_core(power):
        return invariants.ks_oracle(keyschedule.aes_core().normalized(), power)

    def reduce(d):
        u = gf2.Subspace(128, vecs[:d] if d < 128 else [1 << i for i in range(128)])
        return _per_call(lambda: u.reduce(next(probes)), 1000)

    def step(op, n):
        word_perm = rho(3) if n == 3 else keyschedule.aes_core()
        st = st3 if n == 3 else st32
        return _per_call(lambda: op(word_perm, st), 2000)

    def table(m):
        word_perm = rho(m // 4)
        return _per_call(lambda: invariants.ks_oracle(word_perm, 1).table(), 1, 3 if m == 16 else REPEATS)

    def tower():
        u = gf2.Subspace(128, vecs[:64])
        return _per_call(lambda: goursat.tower_report(u, with_hom=True), 3)

    def scan(m):
        oracle = invariants.ks_oracle(rho(m // 4), 1)
        oracle.table()
        line = gf2.Subspace(m, lines[m])
        return _per_call(lambda: invariants.is_linear_block(oracle, line, mode="exhaustive"), 5)

    def decompose():
        u = gf2.Subspace(12, rows12)
        return _per_call(lambda: goursat.decompose(u, 6, 6), 50)

    def min_block_subspace():
        tables = [np.array(invariants.ks_oracle(rho(3), 1).table(), dtype=np.uint32)]
        return _per_call(lambda: invariants.min_block_subspace(tables, 12, next(seeds)), 20)

    def min_block(m):
        oracle = invariants.ks_oracle(rho(3), 1) if m == 12 else \
            invariants.PermutationOracle.from_table(rho(3).to_table())
        return _per_call(lambda: invariants.min_block([oracle], m, 1 + next(seeds) % ((1 << m) - 1)),
                         1 if m == 12 else 50, 3 if m == 12 else REPEATS)

    def closure(power, **kwargs):
        oracle = normalized_core(power)
        seed = invariants.lp_pattern_subspace().basis[0] if power == 4 else closure_seed
        return _per_call(lambda: invariants.closure_search(oracle, [seed], **kwargs), 1, 3)

    def oracle_eval(power):
        oracle = normalized_core(power)
        return _per_call(lambda: oracle.forward(next(probes)), 200)

    aes = sbox.AES_SBOX
    return [
        # gf2: reduce at dim 32 and 128 in F_2^128, the insert kernel
        # (building a span) and subspace enumeration
        ("gf2.reduce.d32.ns", lambda: reduce(32)),
        ("gf2.reduce.d128.ns", lambda: reduce(128)),
        ("gf2.span.d32.us", lambda: _per_call(lambda: gf2.Subspace(128, vecs[-32:]), 20)),
        ("gf2.span.d128.us", lambda: _per_call(lambda: gf2.Subspace(128, vecs[-128:]), 20)),
        ("gf2.enumerate.m8.d6.us",
         lambda: _per_call(lambda: sum(1 for _ in gf2.enumerate_subspaces(8, (6,))), 1, 3)),
        # keyschedule: one operator step at word widths 3 and 32, a key expansion
        ("keyschedule.ks_apply.n3.ns", lambda: step(keyschedule.ks_apply, 3)),
        ("keyschedule.ks_apply.n32.ns", lambda: step(keyschedule.ks_apply, 32)),
        ("keyschedule.ks_inverse.n32.ns", lambda: step(keyschedule.ks_inverse, 32)),
        ("keyschedule.expand.us", lambda: _per_call(lambda: keyschedule.aes128_expand_key(st32), 100)),
        # invariants: oracle evaluation, tables, one difference-table scan,
        # minimal blocks, one closure round and whole power-1 closures
        ("invariants.ks_oracle.p1.us", lambda: oracle_eval(1)),
        ("invariants.ks_oracle.p4.us", lambda: oracle_eval(4)),
        ("invariants.table.p12.ms", lambda: table(12)),
        ("invariants.table.p16.ms", lambda: table(16)),
        ("invariants.scan.p12.us", lambda: scan(12)),
        ("invariants.scan.p16.us", lambda: scan(16)),
        ("invariants.min_block_subspace.m12.ms", min_block_subspace),
        ("invariants.min_block.m12.ms", lambda: min_block(12)),
        ("invariants.min_block.m3.us", lambda: min_block(3)),
        ("invariants.closure_round.p4.ms", lambda: closure(4, max_rounds=1, fresh_samples=0)),
        ("invariants.closure.p1.ms", lambda: closure(1, fresh_samples=1000)),
        ("invariants.closure.p1_nofresh.ms", lambda: closure(1, fresh_samples=0)),
        # sbox, goursat, fips197
        ("sbox.ddt.aes.ms", lambda: _per_call(lambda: sbox.ddt(aes), 1, 3)),
        ("sbox.anti_invariance.aes.d1.ms",
         lambda: _per_call(lambda: sbox.anti_invariance_order(aes.normalized(), 1), 1, 3)),
        ("sbox.anti_invariance.aes.d2.ms",
         lambda: _per_call(lambda: sbox.anti_invariance_order(aes.normalized(), 2), 1, 3)),
        ("goursat.tower.m128.ms", tower),
        ("goursat.decompose.m12.us", decompose),
        ("fips197.round_keys.us", lambda: _per_call(lambda: fips197.round_keys(key), 100)),
    ]


def kernel_pass(errors: dict[str, str]) -> dict[str, float]:
    """Per-layer kernel times.  A kernel whose interface the program no
    longer has reads 0, with the error in ``errors``."""
    out = {}
    for name, thunk in _kernels():
        try:
            out[name] = thunk() * UNIT_SCALE[name.rsplit(".", 1)[1]]
        except (AttributeError, TypeError, ValueError) as exc:
            out[name] = 0.0
            errors[name] = repr(exc)
    return out
