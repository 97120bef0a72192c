"""Timings behind BENCH_closure.json and BENCH_stable_runs.json: the
growing and the batched closure round, a rewound closure, escapes scan,
member draws, the operator's array twin and the full-space fresh check.

    PYTHONPATH=src python3 bench/closure.py

Run from the root of a checkout; it measures the ``ksgroup`` package found
on ``PYTHONPATH`` and prints one JSON object.  Every input is fixed:

* ``closure.first_round.ms`` -- the first, growing closure round of 256
  draws (``max_rounds=1``, ``fresh_samples=0``): power-4 constant-free AES
  operator, seeded with the first basis row of the pattern subspace,
  ``seed=0``.  The span grows from dim 1 to dim 32 early in the round;
* ``closure.stable_round.ms`` -- one stable dim-32 closure round of 256
  draws from the same start.  Every round after the first is stable, so
  a round is the time of 17 rounds minus the time of 1, over 16;
* ``closure.rewound.seed16.ms`` -- a whole closure from the same start
  with ``seed=16`` and the default 256-draw rounds and 64 stable rounds,
  ``fresh_samples=0``: its first stream meets a later growth and is
  rewound.  Before timing, the run is checked to rewind once and to end
  at dim 32 after 65 rounds;
* ``escapes.d32.10k.ms`` -- 10^4 ``escapes`` draws of the same operator on
  the pattern subspace, ``Random(0)``;
* ``members.d32.1k.ms`` -- ``RowTables`` built over the pattern subspace
  basis and 1024 ``random_members`` draws from ``Random(0)``;
* ``twin.p4.1k.us`` -- the array twin of the same operator, forward then
  backward, on 1024 states drawn with ``Random(0)``, as ``vec_to_words``
  rows; the median is of ``REPEATS`` runs of ``CALLS`` such pairs, per
  pair;
* ``residuals.d32.1k.us`` -- ``RowTables.pivot_map`` of the pattern
  subspace, its ``residuals`` of the same 1024 states: the row gather of
  ``escapes`` and of the closure stream on its own, timed as the twin is,
  per call;
* ``reduce.d128.full.ns`` -- ``Subspace.reduce`` on the full space
  F_2^128 of ``CALLS`` more states from the same ``Random(0)``, per call;
* ``member.d128.ns`` -- ``random_member`` over the 128 identity rows
  (the full space's basis), ``CALLS`` draws from ``Random(0)``, per draw.
  ``escapes`` takes such a member as its bare mask instead;
* ``fresh.full.p4.1k.ms`` -- ``escapes`` of the same operator on the full
  space, 1000 draws, ``Random(0)``: the per-point fresh check that a
  closure reaching dim 128 runs, one mask and one ``forward`` a draw;
* ``lp_verify.seed0.ms`` -- one in-process ``lp-verify --seed 0`` with
  stdout captured;
* ``chunk.<c>.lp_verify.seed0.ms`` -- the same with ``ESCAPE_CHUNK`` set
  to c, for each c in ``CHUNKS``: the sweep behind its value.  The
  constant is patched in this process only and restored after each figure.

Each figure is the median of ``REPEATS`` runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from random import Random
from time import perf_counter
from unittest import mock

from ksgroup import cli, invariants
from ksgroup.gf2 import RowTables, Subspace, random_member, vec_to_words
from ksgroup.invariants import ClosureResult, closure_search, escapes, lp_pattern_subspace
from ksgroup.keyschedule import aes_core, ks_oracle

REPEATS = 7
STABLE_ROUNDS = 16
CALLS = 100  # kernel calls per timed run of the twin, residual, reduce and member figures
CHUNKS = (1024, 2048, 4096, 8192)  # ESCAPE_CHUNK values of the sweep


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def main() -> None:
    oracle = ks_oracle(aes_core().normalized(), power=4)
    lp = lp_pattern_subspace()

    def closure(rounds: int) -> None:
        res = closure_search(oracle, [lp.basis[0]], samples_per_round=256,
                             max_rounds=rounds, fresh_samples=0, seed=0)
        assert res.rounds == rounds and res.subspace == lp

    def rewound() -> ClosureResult:
        return closure_search(oracle, [lp.basis[0]], seed=16, fresh_samples=0)

    def lp_verify() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["--output", "json", "lp-verify", "--seed", "0"]) == 0

    def twin() -> None:
        for _ in range(CALLS):
            forward(states)
            backward(states)

    def residuals() -> None:
        for _ in range(CALLS):
            reducer.residuals(states)

    def reduce_full() -> None:
        for x in probes:
            full.reduce(x)

    def members() -> None:
        rng = Random(0)
        for _ in range(CALLS):
            random_member(full.basis, rng)

    rng = Random(0)
    states = vec_to_words([rng.getrandbits(128) for _ in range(1024)], 128)
    probes = [rng.getrandbits(128) for _ in range(CALLS)]
    full = Subspace(128, [1 << i for i in range(128)])
    forward, backward = oracle.many
    reducer = RowTables.pivot_map(lp)
    # a rewind is the closure's one setstate call
    with mock.patch.object(Random, "setstate", autospec=True, side_effect=Random.setstate) as rewinds:
        res = rewound()
    assert (rewinds.call_count, res.subspace.dim, res.rounds) == (1, 32, 65)
    first = median_ms(lambda: closure(1))
    many = median_ms(lambda: closure(1 + STABLE_ROUNDS))
    chunks = {}
    for c in CHUNKS:
        with mock.patch.object(invariants, "ESCAPE_CHUNK", c):
            chunks[f"chunk.{c}.lp_verify.seed0.ms"] = round(median_ms(lp_verify), 3)
    print(json.dumps({
        "closure.first_round.ms": round(first, 3),
        "closure.stable_round.ms": round((many - first) / STABLE_ROUNDS, 3),
        "closure.rewound.seed16.ms": round(median_ms(rewound), 3),
        "escapes.d32.10k.ms": round(median_ms(lambda: escapes(oracle, lp, 10_000, Random(0))), 3),
        "members.d32.1k.ms": round(median_ms(
            lambda: RowTables(lp.basis, 128).random_members(1024, Random(0))), 3),
        "twin.p4.1k.us": round(median_ms(twin) * 1000 / CALLS, 1),
        "residuals.d32.1k.us": round(median_ms(residuals) * 1000 / CALLS, 1),
        "reduce.d128.full.ns": round(median_ms(reduce_full) * 1e6 / CALLS, 1),
        "member.d128.ns": round(median_ms(members) * 1e6 / CALLS, 1),
        "fresh.full.p4.1k.ms": round(median_ms(lambda: escapes(oracle, full, 1000, Random(0))), 3),
        "lp_verify.seed0.ms": round(median_ms(lp_verify), 3),
        **chunks,
    }, indent=2))


if __name__ == "__main__":
    main()
