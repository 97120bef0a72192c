"""CLI contract: subcommands, exit codes, JSON schema, replay determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ksgroup.cli import InputError, build_parser, run
from ksgroup.invariants import lp_pattern_subspace


def run_json(capsys, argv):
    rc = run(["--output", "json"] + argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def strip_runtime(report):
    return {k: v for k, v in report.items() if k != "runtime_ms"}


# ---------------------------------------------------------------------
# sbox-audit


def test_sbox_audit_aes(capsys):
    rc, rep = run_json(capsys, ["sbox-audit", "--aes", "--max-delta", "1"])
    assert rc == 0
    assert rep["schema"] == 1
    assert rep["delta"] == 4
    assert rep["anti_invariance_order"] >= 1
    assert rep["normalization_offset"] == 0x63


def test_sbox_audit_identity_file(tmp_path, capsys):
    path = tmp_path / "identity4.hex"
    path.write_text(" ".join(f"{x:02x}" for x in range(16)))
    rc, rep = run_json(capsys, ["sbox-audit", str(path)])
    assert rc == 0
    assert rep["delta"] == 16
    assert rep["anti_invariance_order"] == 0


def test_sbox_audit_inversion_file(tmp_path, capsys):
    from ksgroup.sbox import inversion_sbox

    path = tmp_path / "inv8.hex"
    path.write_text(",".join(f"{x:x}" for x in inversion_sbox(3, 0b1011).table()))
    rc, rep = run_json(capsys, ["sbox-audit", str(path)])
    assert rc == 0
    assert rep["delta"] == 2


@pytest.mark.parametrize("table", ["1 0", "3 1 0 2"])
def test_sbox_audit_small_width_default_max_delta(tmp_path, capsys, table):
    # the default tests anti-invariance up to min(2, s-1), so a 1- or 2-bit
    # table is audited rather than refused
    path = tmp_path / "small.hex"
    path.write_text(table)
    rc, rep = run_json(capsys, ["sbox-audit", str(path)])
    assert rc == 0
    assert rep["anti_invariance_max_tested"] == rep["s"] - 1


@pytest.mark.parametrize("extra", [[], ["--max-delta", "1"]], ids=["default", "max-delta-1"])
def test_sbox_audit_too_wide_to_enumerate_exit_2(tmp_path, capsys, extra):
    # subspaces are enumerated up to 8 bits; a 9-bit table needs them for
    # any anti-invariance order above 0
    path = tmp_path / "wide9.hex"
    path.write_text(" ".join(f"{x:x}" for x in range(512)))
    assert run(["sbox-audit", str(path)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.out == ""


def test_sbox_audit_wide_table_max_delta_0(tmp_path, capsys):
    path = tmp_path / "wide9.hex"
    path.write_text(" ".join(f"{x:x}" for x in range(512)))
    rc, rep = run_json(capsys, ["sbox-audit", str(path), "--max-delta", "0"])
    assert rc == 0
    assert rep["s"] == 9
    assert rep["delta"] == 512
    assert rep["anti_invariance_max_tested"] == 0


def test_sbox_audit_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.hex"
    path.write_text("zz 00 01 02")
    assert run(["sbox-audit", str(path)]) == 2


@pytest.mark.parametrize("text, message", [
    ("", "empty S-box file"),
    ("0", "a table needs at least 2 entries, got 1"),
    ("00 01 02", "entry count 3 is not a power of two"),
], ids=["empty", "one-entry", "three-entries"])
def test_sbox_audit_format_messages(tmp_path, capsys, text, message):
    path = tmp_path / "table.hex"
    path.write_text(text)
    assert run(["sbox-audit", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: parse error: {message}\n"


def test_sbox_audit_binary_file_exit_2(tmp_path, capsys):
    path = tmp_path / "binary.hex"
    path.write_bytes(b"\xff\xfe\x80")
    assert run(["sbox-audit", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_sbox_audit_non_bijective_exit_3(tmp_path, capsys):
    path = tmp_path / "dup.hex"
    path.write_text("00 00 01 02")
    assert run(["sbox-audit", str(path)]) == 3


def test_sbox_audit_missing_input_exit_2(capsys):
    assert run(["sbox-audit"]) == 2


# ---------------------------------------------------------------------
# expand


FIPS_KEY = "2b7e151628aed2a6abf7158809cf4f3c"


def test_expand_fips_key(capsys):
    rc, rep = run_json(capsys, ["expand", FIPS_KEY, "--check-model"])
    assert rc == 0
    assert rep["model_checked"] is True
    assert rep["round_keys"][0] == ["2b7e1516", "28aed2a6", "abf71588", "09cf4f3c"]
    assert rep["round_keys"][1][0] == "a0fafe17"
    assert rep["round_keys"][10][3] == "b6630ca6"


def test_expand_zero_key_deterministic(capsys):
    rc1, rep1 = run_json(capsys, ["expand", "0" * 32])
    rc2, rep2 = run_json(capsys, ["expand", "0" * 32])
    assert rc1 == rc2 == 0
    assert rep1 == rep2


def test_expand_bad_hex_exit_2(capsys):
    assert run(["expand", "xyz"]) == 2
    assert run(["expand", "ab"]) == 2


# ---------------------------------------------------------------------
# search


def test_search_power4_seeded_in_lp(capsys):
    rc, rep = run_json(capsys, [
        "search", "--power", "4", "--seed-in-lp", "--seed", "11",
        "--stable-rounds", "16",
    ])
    assert rc == 0
    assert rep["status"] == "proper-subspace"
    assert rep["dim"] <= 32
    assert rep["fresh_invariance_ok"] is True
    assert rep["witness_basis"] is not None


def test_search_power1_reaches_full(capsys):
    rc, rep = run_json(capsys, ["search", "--power", "1", "--seed", "4"])
    assert rc == 0
    assert rep["status"] == "full-space"
    assert rep["dim"] == 128


def test_search_replay_determinism(capsys):
    argv = ["search", "--power", "4", "--seed-in-lp", "--seed", "9", "--stable-rounds", "8"]
    rc1, rep1 = run_json(capsys, argv)
    rc2, rep2 = run_json(capsys, argv)
    assert strip_runtime(rep1) == strip_runtime(rep2)


def test_search_bad_seed_hex_exit_2(capsys):
    assert run(["search", "--seeds", "nothex"]) == 2


def test_search_with_constants_normalizes(capsys):
    rc, rep = run_json(capsys, [
        "search", "--power", "4", "--with-constants", "--seed", "5",
        "--stable-rounds", "4",
    ])
    assert rc == 0
    assert rep["normalized_composite"] is True
    assert rep["dim"] <= 128


def test_search_with_constants_needs_positive_power(capsys):
    # AES-128 has the ten round constants rc_1..rc_10
    for power in ("-2", "11"):
        assert run(["search", "--power", power, "--with-constants"]) == 2
        assert "ten round constants" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--budget-ms", "0"], ["--samples", "0"]])
def test_search_uncertified_stop_is_inconclusive(capsys, extra):
    # power 1 has no proper invariant subspace; a search cut short by the
    # budget, or one that never samples, has certified nothing
    rc, rep = run_json(capsys, ["search", "--power", "1", "--seed", "2"] + extra)
    assert rc == 0
    assert rep["status"] == "inconclusive"
    assert rep["witness_basis"] is None


# ---------------------------------------------------------------------
# primitivity


def test_primitivity_toy_consistent(capsys):
    rc, rep = run_json(capsys, ["primitivity", "--n", "3", "--rho", "random", "--seed", "1"])
    assert rc == 0
    assert rep["base"]["status"] in ("primitive", "imprimitive")
    assert rep["lifted"]["status"] in ("primitive", "imprimitive")
    assert rep["reduction_consistent"] is True
    assert rep["seed"] == 1


def test_primitivity_affine_has_witness(capsys):
    for seed in range(5):
        rc, rep = run_json(capsys, [
            "primitivity", "--n", "3", "--rho", "affine", "--seed", str(seed),
        ])
        assert rc == 0
        if rep["lifted"]["status"] == "imprimitive":
            assert rep["lifted"]["witness_certified"] is True
            assert rep["lifted"]["witness_basis"]
            return
    pytest.fail("no affine seed produced an imprimitive lift")


def test_primitivity_aes_inconclusive(capsys):
    rc, rep = run_json(capsys, ["primitivity", "--rho", "aes"])
    assert rc == 0  # finding nothing exhaustively is a completed run
    assert rep["lifted"]["status"] == "inconclusive"


def test_primitivity_aes_sampled_probes(capsys):
    rc, rep = run_json(capsys, [
        "primitivity", "--rho", "aes", "--mode", "sampled",
        "--samples", "512", "--seed", "3",
    ])
    assert rc == 0
    assert rep["lifted"]["status"] == "inconclusive"  # probes never upgrade the verdict
    assert rep["closure_probes"]["seeds"] >= 1
    assert rep["closure_probes"]["proper_found"] == 0


def test_primitivity_replay_determinism(capsys):
    argv = ["primitivity", "--n", "3", "--rho", "random", "--seed", "6"]
    _, rep1 = run_json(capsys, argv)
    _, rep2 = run_json(capsys, argv)
    assert strip_runtime(rep1) == strip_runtime(rep2)


def test_primitivity_loads_no_masked_arrays():
    # np.unique imports numpy.ma on its first call; the block scans need
    # neither, and the import alone costs about a megabyte of memory
    code = "\n".join([
        "import contextlib, io, sys",
        "from ksgroup.cli import run",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = run(['--output', 'json', 'primitivity', '--n', '3', '--rho', 'random', '--seed', '1'])",
        "print(rc, 'numpy.ma' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout == "0 False\n", proc.stderr


def test_primitivity_probes_count_only_certified_subspaces(capsys):
    rc, rep = run_json(capsys, [
        "primitivity", "--rho", "aes", "--mode", "sampled", "--samples", "512",
        "--budget-ms", "0",
    ])
    assert rc == 0
    assert rep["closure_probes"] == {"seeds": 2, "proper_found": 0}


# ---------------------------------------------------------------------
# goursat


def test_goursat_lp_subspace(tmp_path, capsys):
    path = tmp_path / "lp.sub"
    path.write_text(lp_pattern_subspace().to_text())
    rc, rep = run_json(capsys, ["goursat", str(path)])
    assert rc == 0
    assert rep["roundtrip_ok"] is True
    assert rep["dim"] == 32
    assert rep["top"]["roundtrip_ok"] is True


def test_goursat_bad_ambient_exit_3(tmp_path, capsys):
    path = tmp_path / "odd.sub"
    path.write_text("m=6\n01\n")
    assert run(["goursat", str(path)]) == 3


def test_goursat_missing_file_exit_2(capsys):
    assert run(["goursat", "/nonexistent/file.sub"]) == 2


def test_goursat_bad_format_exit_2(tmp_path, capsys):
    path = tmp_path / "noheader.sub"
    path.write_text("0100\n")
    assert run(["goursat", str(path)]) == 2


# ---------------------------------------------------------------------
# lp-verify


def test_lp_verify(capsys):
    rc, rep = run_json(capsys, ["lp-verify", "--samples", "300", "--no-closure"])
    assert rc == 0
    assert rep["resolved_convention"] == "word-major"
    assert rep["failures"] == 0
    assert rep["subspace_dim"] == 32
    assert rep["seed"] == 0


# ---------------------------------------------------------------------
# certificate


def test_certificate_rot1_passes(capsys):
    rc, rep = run_json(capsys, ["certificate", "--delta", "2"])
    assert rc == 0
    assert rep["passed"] is True


def test_certificate_rot2_fails_bricks(capsys):
    rc, rep = run_json(capsys, ["certificate", "--rot-power", "2"])
    assert rc == 0
    failing = [c["name"] for c in rep["clauses"] if not c["passed"]]
    assert failing == ["brick-sums"]


@pytest.mark.parametrize("power", [-1, 4, 5, 6])
def test_certificate_rot_power_is_taken_mod_4(capsys, power):
    # four byte rotations are the identity on a 32-bit word
    rc, rep = run_json(capsys, ["certificate", "--rot-power", str(power)])
    assert rc == 0
    _, ref = run_json(capsys, ["certificate", "--rot-power", str(power % 4)])
    assert rep["rot_power"] == power
    assert {**rep, "rot_power": power % 4} == ref


# ---------------------------------------------------------------------
# bad input: exit 2 with a message, never a traceback


@pytest.mark.parametrize("argv", [
    ["sbox-audit", "--aes", "--max-delta", "9"],
    ["certificate", "--delta", "1"],
    ["primitivity", "--n", "0"],
    ["primitivity", "--n", "2"],
    ["primitivity", "--n", "0", "--rho", "affine"],
    # 2^24 points exceed the exhaustive budget
    ["primitivity", "--n", "6"],
    ["primitivity", "--n", "6", "--rho", "affine"],
    ["primitivity", "--n", "99999999999"],
    ["primitivity", "--rho", "aes", "--mode", "sampled", "--samples", "-1"],
    ["lp-verify", "--samples", "-5"],
    # zero draws would report zero failures from a check that cannot fail
    ["lp-verify", "--samples", "0"],
    ["search", "--power", "1", "--samples", "-1"],
    ["search", "--power", "1", "--seeds", "0"],
    ["search", "--power", "1", "--seeds", "0,00"],
    ["search", "--power", "1", "--n-seeds", "0"],
    ["search", "--power", "1", "--n-seeds", "-3"],
    ["search", "--power", "1", "--seed-in-lp", "--n-seeds", "0"],
    ["search", "--power", "1", "--budget-ms", "-1"],
    ["search", "--power", "1", "--budget-ms", "nan"],
    # the operator is composed |power| times per evaluation
    ["search", "--power", "1025"],
    ["search", "--power", "-1025"],
    ["search", "--power", "100000000000000000000"],
    ["search", "--power", "-100000000000000000000"],
    ["primitivity", "--rho", "aes", "--mode", "sampled", "--samples", "100"],
    ["primitivity", "--rho", "aes", "--mode", "sampled", "--samples", "0"],
    # one closure probe per 256 samples: 300 would run one probe
    ["primitivity", "--rho", "aes", "--mode", "sampled", "--samples", "300"],
    ["primitivity", "--rho", "aes", "--mode", "sampled", "--budget-ms", "-1"],
    ["primitivity", "--n", "3", "--budget-ms", "-5"],
    # only sampled AES primitivity spends a budget
    ["primitivity", "--n", "2", "--rho", "affine", "--seed", "1", "--budget-ms", "0"],
    ["primitivity", "--rho", "aes", "--budget-ms", "5"],
    # an input that another flag would override
    ["sbox-audit", "--aes", "/nonexistent.hex"],
    ["search", "--seed-in-lp", "--seeds", "ff"],
    ["primitivity", "--rho", "aes", "--n", "5"],
    ["primitivity", "--rho", "affine", "--mode", "sampled"],
    # an input that another flag or mode leaves unused
    ["search", "--power", "1", "--seeds", "ff", "--n-seeds", "3"],
    ["primitivity", "--rho", "aes", "--samples", "9999"],
    ["primitivity", "--n", "2", "--rho", "affine", "--samples", "7"],
    # an empty value is given, not absent
    ["search", "--power", "1", "--seeds", ""],
    ["search", "--seeds", "", "--seed-in-lp"],
    ["search", "--seeds", "", "--n-seeds", "2"],
    ["sbox-audit", "", "--aes"],
    # argparse's own rejections
    ["primitivity", "--rho", "bogus"],
    ["search", "--samples", "abc"],
    [],
], ids=" ".join)
def test_bad_input_exits_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.out == ""


PARSER_BOUNDS = [
    (["search", "--power"], "1024", "1025"),
    (["search", "--power"], "-1024", "-1025"),
    (["search", "--n-seeds"], "65536", "65537"),
    (["search", "--n-seeds"], "1", "0"),
    (["search", "--samples"], "0", "-1"),
    (["search", "--stable-rounds"], "0", "-1"),
    (["search", "--budget-ms"], "0", "-0.5"),
    (["primitivity", "--samples"], "256", "255"),
    (["primitivity", "--budget-ms"], "0", "-0.5"),
    (["lp-verify", "--samples"], "1", "0"),
    (["certificate", "--delta"], "2", "1"),
    (["certificate", "--delta"], "7", "8"),
    (["sbox-audit", "--aes", "--max-delta"], "0", "-1"),
]


@pytest.mark.parametrize("argv, limit, past", PARSER_BOUNDS,
                         ids=[" ".join(argv + [past]) for argv, _, past in PARSER_BOUNDS])
def test_parser_bounds(argv, limit, past):
    # bounds are argument types: the parse alone accepts the limit and
    # refuses one past it, before any subcommand runs
    dest = argv[-1].lstrip("-").replace("-", "_")
    assert getattr(build_parser().parse_args(argv + [limit]), dest) == float(limit)
    with pytest.raises(InputError, match=f"argument {argv[-1]}: must be"):
        build_parser().parse_args(argv + [past])


@pytest.mark.parametrize("argv", [
    ["sbox-audit"],
    ["sbox-audit", "table.hex", "--aes"],
    ["search", "--seed-in-lp", "--seeds", "ff"],
], ids=" ".join)
def test_parser_exclusive_inputs(argv):
    with pytest.raises(InputError, match="not allowed with|is required"):
        build_parser().parse_args(argv)


PARSER_FORMATS = [
    (["search", "--seeds", "0"], "the seeds span only 0"),
    (["search", "--seeds", "0,00"], "the seeds span only 0"),
    (["search", "--seeds", "zz"], "bad seed hex"),
    (["search", "--seeds", "1" + "0" * 32], "seeds must be 128-bit values"),
    (["primitivity", "--samples", "300"], "must be a multiple of 256"),
]


@pytest.mark.parametrize("argv, message", PARSER_FORMATS, ids=[" ".join(argv) for argv, _ in PARSER_FORMATS])
def test_parser_refuses_bad_values(argv, message):
    # seed hex and the probe multiple are argument types: the parse alone
    # refuses them, before any subcommand runs
    with pytest.raises(InputError, match=f"argument {argv[-2]}: {message}"):
        build_parser().parse_args(argv)


def test_parser_returns_the_seed_list():
    args = build_parser().parse_args(["search", "--seeds", "ff,0"])
    assert args.seeds == [0xFF, 0]


def test_toy_bound_message_names_the_budget(capsys):
    assert run(["primitivity", "--n", "6"]) == 2
    assert capsys.readouterr().err == "input error: toy verdicts need 4n <= 20 bits\n"


@pytest.mark.parametrize("value", ["abc", "-5"])
@pytest.mark.parametrize("argv", [
    ["search", "--power", "1"],
    ["primitivity", "--rho", "aes", "--mode", "sampled"],
], ids=" ".join)
def test_bad_budget_env_exits_2(monkeypatch, capsys, argv, value):
    # KSGROUP_BUDGET_MS is checked like --budget-ms
    monkeypatch.setenv("KSGROUP_BUDGET_MS", value)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.out == ""


def test_budget_env_unread_where_no_budget_is_spent(monkeypatch, capsys):
    monkeypatch.setenv("KSGROUP_BUDGET_MS", "abc")
    argv = ["primitivity", "--n", "2", "--rho", "affine", "--seed", "1"]
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    [case] = [c for c in golden if c["argv"] == argv]
    rc, rep = run_json(capsys, argv)
    assert rc == 0
    assert strip_runtime(rep) == case["report"]


def cap_address_space():
    # runs in the child only: 2 GB of address space
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    # decompose would build lists of 4e9 entries
    ["goursat", "huge.sub"],
    # the list of 1e8 seeds alone would take about 5 GB
    ["search", "--power", "1", "--n-seeds", "100000000"],
], ids=" ".join)
def test_oversized_input_exits_2_without_traceback(tmp_path, argv):
    (tmp_path / "huge.sub").write_text("m=4000000000\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "ksgroup.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")


# ---------------------------------------------------------------------
# python3 -m ksgroup.cli


def test_module_entry_point():
    def cli(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        return subprocess.run([sys.executable, "-m", "ksgroup.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    ok = cli("expand", FIPS_KEY)
    assert ok.returncode == 0
    assert len(ok.stdout.splitlines()) == 11
    bad = cli("search", "--n-seeds", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("input error:")


def test_closed_stdout_exits_1_without_traceback():
    # the pipe's reader is closed before the CLI starts, so every write fails
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ksgroup.cli", "expand", FIPS_KEY],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
