"""Timings behind BENCH_blocks.json: minimal blocks of the power-1 operator.

    PYTHONPATH=src python3 bench/blocks.py

Run from the root of a checkout; it measures the ``ksgroup`` package found
on ``PYTHONPATH`` and prints one JSON object.  Every input is fixed: the
word map at n = 3 and n = 4 is ``random_nonaffine_word_permutation(n,
Random(0))``, whose lift is primitive, and the operator is
``ks_oracle(rho, 1)`` with its table built before any timing.

* ``block.m12.all.ms``, ``block.m16.all.ms`` -- one block grown by
  ``min_block_subspace`` from the seed v = 1 over all 2^4n points of the
  uint32 table;
* ``block.m12.transversal.ms``, ``block.m16.transversal.ms`` -- the same
  block grown over the operator's transversal, the 2^n states (0, 0, 0, z);
* ``primitivity.n3.ms``, ``primitivity.n4.ms`` -- one lifted
  ``primitivity_check([oracle])``: 4095 and 65535 blocks.

Block figures are the mean of ``CALLS`` calls, and every figure is the
median of ``REPEATS`` runs, except ``primitivity.n4.ms``, which is run
once.  In a checkout whose oracles have no transversal the transversal
figures are null and ``primitivity.n4.ms`` is estimated as
``block.m16.all.ms`` times 65535, since the lifted check there grows every
block over all points.
"""

from __future__ import annotations

import json
import statistics
from random import Random
from time import perf_counter

import numpy as np

from ksgroup.invariants import min_block_subspace, primitivity_check, random_nonaffine_word_permutation
from ksgroup.keyschedule import ks_oracle

REPEATS = 5
CALLS = 20


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
    for n in (3, 4):
        m = 4 * n
        oracle = ks_oracle(random_nonaffine_word_permutation(n, Random(0)), 1)
        table = oracle.table()
        array = np.array(table, dtype=np.uint32)
        full = min_block_subspace([array], m, 1)
        assert full.dim == m
        figures[f"block.m{m}.all.ms"] = median_ms(lambda: min_block_subspace([array], m, 1), CALLS)
        points = getattr(oracle, "transversal", None)
        if points is None:
            figures[f"block.m{m}.transversal.ms"] = None
        else:
            assert min_block_subspace([(table, points)], m, 1) == full
            figures[f"block.m{m}.transversal.ms"] = median_ms(
                lambda: min_block_subspace([(table, points)], m, 1), CALLS)

        def check() -> None:
            assert primitivity_check([oracle]).status == "primitive"

        if n == 4 and points is None:
            figures["primitivity.n4.ms"] = figures["block.m16.all.ms"] * ((1 << m) - 1)
        else:
            figures[f"primitivity.n{n}.ms"] = median_ms(check, repeats=REPEATS if n == 3 else 1)
    print(json.dumps({k: v if v is None else round(v, 3) for k, v in figures.items()}, indent=2))


if __name__ == "__main__":
    main()
