"""Replay gate: seeded CLI reports must stay byte-identical (but for
``runtime_ms``) to the ones recorded in ``golden_cli.json``.

Each entry holds an argv, the exit code and the ``--output json`` report
with ``runtime_ms`` removed; ``{lp_subspace}`` stands for a file holding
the four-round pattern subspace.  The cases cover every subcommand.  Most
verdicts do not depend on which random members are drawn, so the
``search --samples 1 --stable-rounds 2`` case is there to pin the
sampler's draw order: its round count changes when the order does.
"""

import json
from pathlib import Path

import pytest

from ksgroup.cli import run
from ksgroup.invariants import lp_pattern_subspace

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def dump(report):
    return json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_report_matches_golden(case, tmp_path, capsys):
    path = tmp_path / "lp.sub"
    path.write_text(lp_pattern_subspace().to_text())
    argv = [str(path) if a == "{lp_subspace}" else a for a in case["argv"]]
    rc = run(["--output", "json"] + argv)
    report = json.loads(capsys.readouterr().out)
    report.pop("runtime_ms", None)
    assert rc == case["exit"]
    assert dump(report) == dump(case["report"])
