"""Replay gate: seeded CLI reports must stay byte-identical (but for
``runtime_ms``) to the ones recorded in ``golden_cli.json``.

Each entry holds an argv, the exit code, the ``--output json`` report
with ``runtime_ms`` removed and the ``--output text`` stdout; every case
runs in both modes.  A placeholder in ``FILES`` stands for a file of that
name in the working directory, written before the run: the four-round
pattern subspace and three S-box tables (the reports echo the table's
file name as ``source``).  The cases cover every subcommand.  Most
verdicts do not depend on which random members are drawn, so the
``search --samples 1 --stable-rounds 2`` case is there to pin the
sampler's draw order: its round count changes when the order does.
"""

import json
from pathlib import Path
from random import Random

import pytest

from ksgroup.cli import run
from ksgroup.invariants import lp_pattern_subspace
from test_gf2 import subspace_text

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def shuffled_table(s: int, seed: int) -> str:
    table = list(range(1 << s))
    Random(seed).shuffle(table)
    return " ".join(f"{x:x}" for x in table)


FILES = {
    "{lp_subspace}": ("lp.sub", subspace_text(lp_pattern_subspace())),
    # f(0) != 0 and a fixed point; the 4-bit table has a 2-dim witness
    "{sbox3}": ("sbox3.hex", "2 1 4 5 3 7 6 0"),
    "{sbox4}": ("sbox4.hex", "a 0 c 6 3 1 2 d 4 b e 5 9 8 7 f"),
    # wide enough that the difference table is the whole cost of the audit
    "{sbox10}": ("sbox10.hex", shuffled_table(10, 10)),
}


def dump(report):
    return json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_report_matches_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.values():
        (tmp_path / name).write_text(text)
    argv = [FILES[a][0] if a in FILES else a for a in case["argv"]]
    rc = run(["--output", "json"] + argv)
    report = json.loads(capsys.readouterr().out)
    report.pop("runtime_ms", None)
    assert rc == case["exit"]
    assert dump(report) == dump(case["report"])
    assert run(["--output", "text"] + argv) == case["exit"]
    assert capsys.readouterr().out == case["text"]
