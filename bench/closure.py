"""Timings behind BENCH_closure.json and BENCH_stable_runs.json: the batched
closure round, escapes scan and member draws.

    PYTHONPATH=src python3 bench/closure.py

Run from the root of a checkout; it measures the ``ksgroup`` package found
on ``PYTHONPATH`` and prints one JSON object.  Every input is fixed:

* ``closure.stable_round.ms`` -- one stable dim-32 closure round of 256
  draws: power-4 constant-free AES operator, seeded with the first basis
  row of the pattern subspace, ``seed=0``.  The first round grows the span
  to dim 32 and every later one is stable, so a round is the time of 17
  rounds minus the time of 1, over 16;
* ``escapes.d32.10k.ms`` -- 10^4 ``escapes`` draws of the same operator on
  the pattern subspace, ``Random(0)``;
* ``members.d32.1k.ms`` -- ``RowTables`` built over the pattern subspace
  basis and 1024 ``random_members`` draws from ``Random(0)``;
* ``lp_verify.seed0.ms`` -- one in-process ``lp-verify --seed 0`` with
  stdout captured.

Each figure is the median of ``REPEATS`` runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from random import Random
from time import perf_counter

from ksgroup import cli
from ksgroup.gf2 import RowTables
from ksgroup.invariants import closure_search, escapes, lp_pattern_subspace
from ksgroup.keyschedule import aes_core, ks_oracle

REPEATS = 7
STABLE_ROUNDS = 16


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

    def lp_verify() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["--output", "json", "lp-verify", "--seed", "0"]) == 0

    first = median_ms(lambda: closure(1))
    many = median_ms(lambda: closure(1 + STABLE_ROUNDS))
    print(json.dumps({
        "closure.stable_round.ms": round((many - first) / STABLE_ROUNDS, 3),
        "escapes.d32.10k.ms": round(median_ms(lambda: escapes(oracle, lp, 10_000, Random(0))), 3),
        "members.d32.1k.ms": round(median_ms(
            lambda: RowTables(lp.basis, 128).random_members(1024, Random(0))), 3),
        "lp_verify.seed0.ms": round(median_ms(lp_verify), 3),
    }, indent=2))


if __name__ == "__main__":
    main()
