"""Timings behind BENCH_sbox.json: S-box anti-invariance and the exact audits.

    PYTHONPATH=src python3 bench/sbox.py

Run from the root of a checkout; it measures the ``ksgroup`` package found
on ``PYTHONPATH`` and prints one JSON object.  Every input is fixed: the
AES S-box and an 8-bit table that fixes 0 and sends 1..255 to
``Random(0).sample(range(1, 256), 255)``.

* ``anti.aes.d1.ms``, ``anti.aes.d2.ms``, ``anti.aes.d4.ms`` --
  ``anti_invariance_order`` of the 0-fixed AES S-box at max_delta 1, 2
  and 4;
* ``anti.shuffled.d2.ms`` -- the same scan of the shuffled table at
  max_delta 2;
* ``enum.rref_bases.m8.d6.ms`` -- the bare walk of the 10 795 RREF bases
  of dimension 6 in F_2^8, most of the 11 050 candidates of a max_delta 2
  scan, with no table read: the enumeration's own share of a scan;
* ``enum.rref_bases.m8.d5.ms`` -- the same walk of the 97 155 bases of
  dimension 5, which ``certificate --delta 4`` scans past max_delta 2;
* ``cli.sbox_audit_aes.ms``, ``cli.certificate_rot1.ms``,
  ``cli.certificate_delta4.ms`` -- one in-process ``cli.run`` of
  ``sbox-audit --aes``, ``certificate --rot-power 1`` and
  ``certificate --delta 4``, JSON output, stdout discarded.

Every figure is the median of ``REPEATS`` runs of one call, and each
answer is checked before it is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from random import Random
from time import perf_counter

from ksgroup import cli
from ksgroup.gf2 import rref_bases
from ksgroup.keyschedule import PermutationOracle
from ksgroup.sbox import AES_SBOX, anti_invariance_order

REPEATS = 3
SHUFFLED = PermutationOracle.from_table((0, *Random(0).sample(range(1, 256), 255)))


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def quiet_run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["--output", "json", *argv]) == 0


def main() -> None:
    aes = AES_SBOX.normalized()
    cases = {
        "anti.aes.d1.ms": (aes, 1, 1),
        "anti.aes.d2.ms": (aes, 2, 2),
        "anti.aes.d4.ms": (aes, 4, 3),
        "anti.shuffled.d2.ms": (SHUFFLED, 2, 2),
    }
    figures = {}
    for name, (sb, max_delta, order) in cases.items():
        assert anti_invariance_order(sb, max_delta).order == order
        figures[name] = median_ms(lambda: anti_invariance_order(sb, max_delta))
    for d, count in ((6, 10_795), (5, 97_155)):
        assert sum(1 for _ in rref_bases(8, d)) == count
        figures[f"enum.rref_bases.m8.d{d}.ms"] = median_ms(lambda: sum(1 for _ in rref_bases(8, d)))
    for name, argv in {
        "cli.sbox_audit_aes.ms": ["sbox-audit", "--aes"],
        "cli.certificate_rot1.ms": ["certificate", "--rot-power", "1"],
        "cli.certificate_delta4.ms": ["certificate", "--delta", "4"],
    }.items():
        figures[name] = median_ms(lambda: quiet_run(argv))
    print(json.dumps({k: round(v, 3) for k, v in figures.items()}, indent=2))


if __name__ == "__main__":
    main()
