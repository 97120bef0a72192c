"""Timings behind BENCH_blocks.json: minimal blocks of the power-1 operator.

    PYTHONPATH=src python3 bench/blocks.py

Run from the root of a checkout; it measures the ``ksgroup`` package found
on ``PYTHONPATH`` and prints one JSON object.  Every input is fixed: the
word map at n = 3 and n = 4 is ``random_nonaffine_word_permutation(n,
Random(0))``, whose lift is primitive, and the operator is
``ks_oracle(rho, 1)`` with its table built before any timing.

* ``block.m12.all.ms``, ``block.m16.all.ms`` -- one block grown by
  ``min_block_subspace`` from the seed v = 1 over all 2^4n points, for
  ``PermutationOracle.from_table(oracle.table())``, whose transversal is
  every point;
* ``block.m12.transversal.ms``, ``block.m16.transversal.ms`` -- the same
  block grown over the operator's transversal, the 2^n states (0, 0, 0, z);
* ``primitivity.n3.ms``, ``primitivity.n4.ms`` -- one lifted
  ``primitivity_check(oracle)``: 4095 and 65535 seeds decided;
* ``table.n5.ms`` -- ``ks_oracle(rho, 1).table()`` for the n = 5 map,
  construction included: the 2^20-entry table of the lift;
* ``primitivity.affine.n5.ms`` -- one ``primitivity_check`` of the lift of
  ``random_affine_word_permutation(5, Random(0))``, table built first,
  which stops at its first proper block, the block of seed 1.

Block figures are the mean of ``CALLS`` calls, and every figure is the
median of ``REPEATS`` runs, except ``primitivity.n4.ms``, which is run
once.  ``WIDTHS`` lists the word widths n of the block and Primitive
figures.
"""

from __future__ import annotations

import json
import statistics
from random import Random
from time import perf_counter

from ksgroup.invariants import (min_block_subspace, primitivity_check, random_affine_word_permutation,
                                random_nonaffine_word_permutation)
from ksgroup.keyschedule import PermutationOracle, ks_oracle

REPEATS = 5
CALLS = 20
WIDTHS = (3, 4)


def median_ms(fn, calls: int = 1, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) * 1000 / calls)
    return statistics.median(times)


def main() -> None:
    figures = {}
    for n in WIDTHS:
        m = 4 * n
        oracle = ks_oracle(random_nonaffine_word_permutation(n, Random(0)), 1)
        table_only = PermutationOracle.from_table(oracle.table())
        full = min_block_subspace(table_only, 1)
        assert full.dim == m
        figures[f"block.m{m}.all.ms"] = median_ms(lambda: min_block_subspace(table_only, 1), CALLS)
        assert min_block_subspace(oracle, 1) == full
        figures[f"block.m{m}.transversal.ms"] = median_ms(lambda: min_block_subspace(oracle, 1), CALLS)

        def check() -> None:
            assert primitivity_check(oracle).status == "primitive"

        figures[f"primitivity.n{n}.ms"] = median_ms(check, repeats=REPEATS if n == 3 else 1)
    rho = random_nonaffine_word_permutation(5, Random(0))
    figures["table.n5.ms"] = median_ms(lambda: ks_oracle(rho, 1).table())
    affine = ks_oracle(random_affine_word_permutation(5, Random(0)), 1)
    affine.table()

    def early_stop() -> None:
        assert primitivity_check(affine).pairs_checked == 1

    figures["primitivity.affine.n5.ms"] = median_ms(early_stop)
    print(json.dumps({k: round(v, 3) for k, v in figures.items()}, indent=2))


if __name__ == "__main__":
    main()
