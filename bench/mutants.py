"""Mutation check: every listed mutant of ``src/ksgroup`` must fail a test.

    python3 bench/mutants.py

Run from the root of a checkout.  Each entry of ``MUTANTS`` names a file
of ``src/ksgroup``, an exact text that occurs once in it, the text that
replaces it, and the tests that must fail on the result.  The listed tests
are first run on a clean copy of ``src/`` and ``tests/``, where they must
pass.  Then each mutant gets its own copy in a temporary directory, with
the one substitution made, and its tests are run there with pytest.  A
mutant is killed when a test fails; one that passes every test survived.
A kill needs a failing example, not a minimal one, so every copy, the
clean one included, gets a ``conftest.py`` that loads a hypothesis profile
without the shrink phase: a property that fails on a mutant stops at its
first failing example.  A run that outlives ``TIMEOUT_S`` is stopped and
counts as an error, so a mutant that loops forever cannot hang the
script.  The script prints one line per mutant and a closing JSON
summary, and exits 1 when any mutant survived or a run did not end in a
plain pass or fail.  ``tests/test_kernel_properties.py`` checks that every
old text still occurs exactly once, so the list cannot go stale unseen.
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
TIMEOUT_S = 300  # per pytest run; each listed mutant's tests take seconds


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
           "    if not _linear_block(table, witness).ok:\n",
           "    if False:\n",
           (INV + "test_witness_recheck_refuses_a_non_block",)),
    Mutant("block-stops-at-its-own-seed", "invariants.py",
           "        if min(*values, *rows.values()) < full_below:\n",
           "        if min(*values, *rows.values()) <= full_below:\n",
           (INV + "test_full_below_one_grows_every_block_of_a_lift",
            INV + "test_early_stop_verdict_equals_full_growth")),
    Mutant("grow-requeues-one-residual", "invariants.py",
           "        queue += rref_insert(rows, values)\n",
           "        queue += rref_insert(rows, values)[:1]\n",
           (INV + "test_structured_source_verdict_equals_primitivity_check",)),
    Mutant("precheck-decides-its-own-seed", "invariants.py",
           "        decided = (table[seeds[:, None] ^ points] ^ table[points]).min(axis=1) < seeds\n",
           "        decided = (table[seeds[:, None] ^ points] ^ table[points]).min(axis=1) <= seeds\n",
           (INV + "test_precheck_grows_only_the_undecided_seeds",
            INV + "test_early_stop_verdict_equals_full_growth")),
    Mutant("lift-table-drops-the-second-shift", "keyschedule.py",
           "    x ^= (x << 2 * n) & mask\n",
           "",
           ("tests/test_keyschedule.py::test_power_one_lift_table_is_the_per_point_table",
            "tests/test_keyschedule.py::test_packed_operator_against_matrix_form")),
    Mutant("negative-power-twin-not-reversed", "keyschedule.py",
           "            rows,\n        )[::order]\n",
           "            rows,\n        )\n",
           (KP + "test_negative_power_is_the_inverse_operator",)),
    Mutant("chain-undoes-constants-forwards", "keyschedule.py",
           "        for c in reversed(constants):\n",
           "        for c in constants:\n",
           ("tests/test_keyschedule.py::test_oracle_with_constants_backward_undoes_forward",)),
    Mutant("chain-translates-after-undo", "keyschedule.py",
           "            y = undo(y if c is None else y ^ c)\n",
           "            y = undo(y) if c is None else undo(y) ^ c\n",
           ("tests/test_keyschedule.py::test_oracle_with_constants_backward_undoes_forward",
            "tests/test_keyschedule.py::test_normalized_table_keeps_the_table")),
    Mutant("twin-drops-nonzero-constants", "keyschedule.py",
           "        rows = [row if c else None for c, row in zip(constants, vec_to_words(constants, m))]\n",
           "        rows = [None for c in constants]\n",
           (KP + "test_array_twin_matches_the_operator",)),
    Mutant("row-gather-without-axis", "gf2.py",
           "            out ^= np.take(table, data[:, j], axis=0)\n",
           "            out ^= np.take(table, data[:, j])\n",
           (KP + "test_row_tables_against_matrix_loops",)),
    Mutant("member-draws-last-word-unshifted", "gf2.py",
           "            masks[:, -1] >>= 32 - self.k % 32\n",
           "            masks[:, -1] >>= 0\n",
           (KP + "test_random_members_multi_word_draws",)),
    Mutant("closure-rng-not-rewound", "invariants.py",
           "                    rng.setstate(state)\n",
           "                    pass\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_batched_closure_budget_stop_ends_on_a_round")),
    Mutant("stream-counted-after-an-escape", "invariants.py",
           "                else:\n                    evals += 2 * draws\n",
           "                if True:\n                    evals += 2 * draws\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_batched_closure_budget_stop_ends_on_a_round")),
    Mutant("stream-ignores-max-rounds", "invariants.py",
           "                end = min(grew + stable_rounds, max_rounds)\n",
           "                end = grew + stable_rounds\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",)),
    Mutant("stream-checks-first-chunk-only", "invariants.py",
           "                if any(out.any() or over_budget() for out in outside):\n",
           "                if any(out.any() or over_budget() for out in list(outside)[:1]):\n",
           (KP + "test_a_stream_escape_past_its_first_chunk_rewinds",)),
    Mutant("stream-forward-images-only", "invariants.py",
           "                outside = _outside(oracle.many, residuals,",
           "                outside = _outside(oracle.many[:1], residuals,",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_a_stream_checks_backward_images")),
    Mutant("mid-round-stream-skips-the-rest-of-its-round", "invariants.py",
           "                draws = (end - rounds) * samples_per_round - done\n",
           "                draws = (end - rounds - 1) * samples_per_round\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_growing_round_streams_its_clean_tail")),
    Mutant("mid-round-stream-one-draw-short", "invariants.py",
           "                draws = (end - rounds) * samples_per_round - done\n",
           "                draws = max((end - rounds) * samples_per_round - done - 1, 0)\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",)),
    Mutant("stop-round-one-early", "invariants.py",
           "                grew, quiet = rounds + 1, 0\n",
           "                grew, quiet = rounds, 0\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",)),
    Mutant("stream-starts-one-draw-late", "invariants.py",
           "            if oracle.many is not None and quiet == STREAM_AFTER:\n",
           "            if oracle.many is not None and quiet == STREAM_AFTER + 1:\n",
           (KP + "test_batched_closure_draws_at_most_a_chunk_at_once",)),
    Mutant("stream-retried-after-a-rewind", "invariants.py",
           "            if oracle.many is not None and quiet == STREAM_AFTER:\n",
           "            if oracle.many is not None and quiet >= STREAM_AFTER:\n",
           (KP + "test_a_late_growth_rewinds_a_mid_round_stream",)),
    Mutant("row-test-reads-word-0-only", "invariants.py",
           "            for column in reducer.residuals(f(xs)).T:\n",
           "            for column in reducer.residuals(f(xs)).T[:1]:\n",
           (KP + "test_batched_closure_replays_the_per_point_loop",
            KP + "test_batched_escapes_replays_the_per_point_loop")),
    Mutant("inverse-twin-drops-a-neighbour-xor", "keyschedule.py",
           "    np.bitwise_xor(ys[:, 2], ys[:, 1], out=xs[:, 2])\n",
           "    xs[:, 2] = ys[:, 2]\n",
           (KP + "test_array_twin_matches_the_operator",)),
    Mutant("escapes-counts-first-chunk-only", "invariants.py",
           "    return sum(int(out.sum()) for out in _outside(oracle.many[:1], u.basis, u, samples, rng))\n",
           "    return sum([int(out.sum()) for out in _outside(oracle.many[:1], u.basis, u, samples, rng)][:1])\n",
           (KP + "test_batched_escapes_replays_the_per_point_loop",)),
    Mutant("escapes-skips-draws-at-full-dimension", "invariants.py",
           "        return sum(not u.contains(oracle.forward(rng.getrandbits(u.m))) for _ in range(samples))\n",
           "        return 0\n",
           (KP + "test_escapes_at_full_dimension_takes_every_draw",
            KP + "test_closure_reaching_dimension_128_replays_the_per_point_loop")),
    # no mutant skips ``forward`` in the full-space branch: every image lies
    # in the full space, so the count and the rng state stay as they are
    Mutant("full-space-draw-narrowed", "invariants.py",
           "oracle.forward(rng.getrandbits(u.m))",
           "oracle.forward(rng.getrandbits(u.m - 1))",
           (KP + "test_escapes_at_full_dimension_takes_every_draw",)),
    Mutant("ks-apply-width-unchecked", "keyschedule.py",
           '    if not 0 <= x < 1 << 4 * n:\n        raise DimensionMismatch(f"state {x:#x} does not fit four '
           '{n}-bit words")\n',
           "",
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
    Mutant("anti-invariance-stops-at-d", "sbox.py",
           "                if rank > d:\n",
           "                if rank >= d:\n",
           ("tests/test_sbox.py::test_anti_invariance_linear_map_is_zero",
            "tests/test_sbox.py::test_aes_anti_invariance_order_3_with_a_witness_at_dim_4",
            KP + "test_anti_invariance_against_image_closure")),
    Mutant("anti-invariance-stores-images-unreduced", "sbox.py",
           "                    row = slots[top]\n",
           "                    row = 0\n",
           ("tests/test_sbox.py::test_anti_invariance_matches_the_whole_span_rule",
            "tests/test_sbox.py::test_anti_invariance_stops_each_image_past_d")),
    Mutant("anti-invariance-gray-code-assigns", "sbox.py",
           "                    acc ^= basis[(i & -i).bit_length() - 1]\n",
           "                    acc = basis[(i & -i).bit_length() - 1]\n",
           ("tests/test_sbox.py::test_anti_invariance_matches_the_whole_span_rule",
            "tests/test_sbox.py::test_anti_invariance_stops_each_image_past_d")),
    Mutant("anti-invariance-witness-drops-a-row", "sbox.py",
           "Subspace(s, basis)",
           "Subspace(s, basis[1:])",
           ("tests/test_sbox.py::test_aes_anti_invariance_order_3_with_a_witness_at_dim_4",)),
    Mutant("full-space-answers-before-its-range-check", "gf2.py",
           "        check_vector(self.m, v)\n        if len(self.basis) == self.m:\n            return 0\n",
           "        if len(self.basis) == self.m:\n            return 0\n        check_vector(self.m, v)\n",
           ("tests/test_gf2.py::test_full_space_refuses_vectors_outside_it",)),
    Mutant("matrix-apply-reads-high-bit-first", "gf2.py",
           'bits = format(x, "b")[::-1].encode()',
           'bits = format(x, "b").encode()',
           (KP + "test_matrix_apply_against_the_bit_loop",)),
    Mutant("matrix-apply-width-unchecked", "gf2.py",
           "    check_vector(len(rows), x)\n",
           "",
           ("tests/test_gf2.py::test_matrix_apply_refuses_masks_outside_its_rows",)),
    # a pushed level that starts at steps[p] is no mutant: its candidates
    # of pivot p all hit the used-pivot skip, so the walk yields the same
    Mutant("rref-walk-reuses-a-used-pivot", "gf2.py",
           "            if used & bit:\n                continue\n",
           "",
           (KP + "test_rref_walk_replays_the_recursion",
            KP + "test_rref_bases_are_every_subspace_once_in_order")),
    Mutant("rref-walk-skips-the-next-pivot", "gf2.py",
           "stack.append((iter(steps[p + 1])",
           "stack.append((iter(steps[p + 2])",
           (KP + "test_rref_walk_replays_the_recursion",
            KP + "test_rref_bases_are_every_subspace_once_in_order")),
    Mutant("rref-walk-room-check-one-short", "gf2.py",
           "            if m - p - 1 - ((used | v) >> (p + 1)).bit_count() >= left:\n",
           "            if m - p - 1 - ((used | v) >> (p + 1)).bit_count() > left:\n",
           (KP + "test_rref_walk_replays_the_recursion",
            KP + "test_rref_bases_are_every_subspace_once_in_order")),
    Mutant("anti-invariance-no-capacity-refusal", "gf2.py",
           '    if m > MAX_ENUM_DIM:\n        raise CapacityError(f"enumeration supported for m <= {MAX_ENUM_DIM}, '
           'got {m}")\n',
           "",
           ("tests/test_cli.py::test_sbox_audit_too_wide_to_enumerate_exit_2",
            "tests/test_gf2.py::test_enumerate_capacity_refused")),
    Mutant("goursat-factor-widths-unchecked", "goursat.py",
           "        if not (self.left_image.m == self.left_kernel.m == self.m1\n"
           "                and self.right_image.m == self.right_kernel.m == self.m2):\n"
           '            raise GoursatInvariantError("left subspaces must lie in F_2^m1 and right subspaces in '
           'F_2^m2")\n',
           "",
           ("tests/test_goursat.py::test_validate_refuses_each_malformed_field",)),
    Mutant("goursat-span-clause-dropped", "goursat.py",
           "        if Subspace(self.m2, images + list(self.right_kernel.basis)) != self.right_image:\n"
           '            raise GoursatInvariantError("hom(left_image) and right_kernel do not span right_image")\n',
           "",
           ("tests/test_goursat.py::test_validate_refuses_each_malformed_field",)),
    Mutant("goursat-hom-length-read-as-m2", "goursat.py",
           "        if len(self.hom) != self.m1 or",
           "        if len(self.hom) != self.m2 or",
           ("tests/test_goursat.py::test_validate_refuses_each_malformed_field",)),
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


# loaded before the tests are imported, so every @settings that leaves
# phases unset inherits it
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("no-shrink")
"""


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)
    (dest / "conftest.py").write_text(NO_SHRINK)


def _pytest(where: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code, or None for a run stopped at ``TIMEOUT_S``."""
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


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
