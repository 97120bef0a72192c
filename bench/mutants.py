"""Mutation check: every listed mutant of ``src/ksgroup`` must fail a test.

    python3 bench/mutants.py

Run from the root of a checkout.  Each entry of ``MUTANTS`` names a file
of ``src/ksgroup``, an exact text that occurs once in it, the text that
replaces it, and the tests that must fail on the result.  The listed tests
are first run on a clean copy of ``src/`` and ``tests/``, where they must
pass.  Then each mutant gets its own copy in a temporary directory, with
the one substitution made, and its tests are run there with pytest.  A
mutant is killed when a test fails; one that passes every test survived.
The script prints one line per mutant and a closing JSON summary, and
exits 1 when any mutant survived or a run did not end in a plain pass or
fail.  ``tests/test_kernel_properties.py`` checks that every old text
still occurs exactly once, so the list cannot go stale unseen.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ksgroup
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout root


INV = "tests/test_invariants.py::"
KP = "tests/test_kernel_properties.py::"

MUTANTS = [
    Mutant("witness-recheck-skipped", "invariants.py",
           "    if not is_linear_block(oracle, witness).ok:\n",
           "    if False:\n",
           (INV + "test_witness_recheck_refuses_a_non_block",)),
    Mutant("negative-power-twin-not-reversed", "keyschedule.py",
           "            list(vec_to_words(constants, m)),\n        )[::order]\n",
           "            list(vec_to_words(constants, m)),\n        )\n",
           (KP + "test_negative_power_is_the_inverse_operator",)),
    Mutant("chain-undoes-constants-forwards", "keyschedule.py",
           "        for c in reversed(constants):\n",
           "        for c in constants:\n",
           ("tests/test_keyschedule.py::test_oracle_with_constants_backward_undoes_forward",)),
    Mutant("member-draws-last-word-unshifted", "gf2.py",
           "            masks[:, -1] >>= 32 - self.k % 32\n",
           "            masks[:, -1] >>= 0\n",
           (KP + "test_random_members_multi_word_draws",)),
    Mutant("closure-rng-not-rewound", "invariants.py",
           "                rng.setstate(state)\n",
           "                pass\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_batched_closure_budget_stop_ends_on_a_round")),
    Mutant("closure-clean-rounds-not-redrawn", "invariants.py",
           "                    members.random_members(min(ESCAPE_CHUNK, skip - start), rng)\n",
           "                    pass\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_batched_closure_budget_stop_ends_on_a_round")),
    Mutant("stream-ignores-max-rounds", "invariants.py",
           "            planned = min(stable_rounds - stable, max_rounds - rounds)\n",
           "            planned = stable_rounds - stable\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",)),
    Mutant("stream-forward-images-only", "invariants.py",
           "            for out in _outside(oracle.many, members,",
           "            for out in _outside(oracle.many[:1], members,",
           (KP + "test_batched_closure_replays_the_per_point_loop",)),
    Mutant("escapes-counts-first-chunk-only", "invariants.py",
           "    return sum(int(out.sum()) for out in _outside(oracle.many[:1], members, reducer, samples, rng))\n",
           "    return int(next(_outside(oracle.many[:1], members, reducer, samples, rng)).sum())\n",
           (KP + "test_batched_escapes_replays_the_per_point_loop",)),
    Mutant("escapes-skips-draws-at-full-dimension", "invariants.py",
           "    # a scan of no draws builds no tables\n",
           "    if u.dim == u.m:\n        return 0\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_batched_escapes_replays_the_per_point_loop")),
    Mutant("ks-apply-width-unchecked", "keyschedule.py",
           '    if not 0 <= x <= mask:\n        raise DimensionMismatch(f"state {x:#x} does not fit four '
           '{n}-bit words")\n    t = rho.forward(x >> 3 * n)\n',
           "    t = rho.forward(x >> 3 * n)\n",
           ("tests/test_keyschedule.py::test_width_mismatch_rejected",)),
    Mutant("no-fresh-draws-reads-as-passed", "invariants.py",
           "    fresh_ok = escapes(oracle, result, fresh_samples, rng) == 0 if fresh_samples else None\n",
           "    fresh_ok = escapes(oracle, result, fresh_samples, rng) == 0\n",
           (INV + "test_closure_without_fresh_draws_certifies_nothing",)),
    Mutant("certificate-uniformity-constant", "invariants.py",
           '        passed=audit.delta <= (1 << delta),\n        detail=f"uniformity {audit.delta} vs',
           '        passed=4 <= (1 << delta),\n        detail=f"uniformity {4} vs',
           (INV + "test_certificate_sbox_clauses_match_a_direct_construction",)),
    Mutant("certificate-anti-invariance-always-passes", "invariants.py",
           "        passed=audit.anti.order >= delta - 1,\n",
           "        passed=True,\n",
           (INV + "test_certificate_linear_sbox_fails_anti_clause",
            INV + "test_certificate_sbox_clauses_match_a_direct_construction")),
    Mutant("tower-splits-swapped", "goursat.py",
           '        "left_image_split": _level_report(decompose(g.left_image, n, n), g.left_image, with_hom),\n'
           '        "right_kernel_split": _level_report(decompose(g.right_kernel, n, n), g.right_kernel, '
           'with_hom),\n',
           '        "left_image_split": _level_report(decompose(g.right_kernel, n, n), g.right_kernel, '
           'with_hom),\n'
           '        "right_kernel_split": _level_report(decompose(g.left_image, n, n), g.left_image, with_hom),\n',
           ("tests/test_goursat.py::test_tower_levels_are_direct_decompositions",)),
    Mutant("tower-roundtrip-always-ok", "goursat.py",
           '        "roundtrip_ok": reconstruct(g) == source,\n',
           '        "roundtrip_ok": True,\n',
           ("tests/test_goursat.py::test_level_roundtrip_can_fail",)),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(where: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run(mutant: Mutant) -> str:
    """``killed`` (a test failed), ``survived`` (all passed) or ``error``."""
    with tempfile.TemporaryDirectory(prefix="ksgroup-mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        path = where / "src" / "ksgroup" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        path.write_text(text.replace(mutant.old, mutant.new))
        rc = _pytest(where, mutant.tests)
    return {0: "survived", 1: "killed"}.get(rc, "error")


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ksgroup-clean-") as tmp:
        _copy(Path(tmp))
        clean = _pytest(Path(tmp), tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    if clean != 0:
        print("the listed tests do not pass on the clean copy", file=sys.stderr)
        return 1
    outcomes = {}
    for m in MUTANTS:
        start = time.perf_counter()
        outcomes[m.name] = run(m)
        print(f"{outcomes[m.name]:9} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    survivors = [name for name, outcome in outcomes.items() if outcome != "killed"]
    print(json.dumps({"mutants": len(MUTANTS), "killed": len(MUTANTS) - len(survivors),
                      "not_killed": survivors, "seconds": round(time.perf_counter() - t0, 1)}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
