"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402


def _cheap(w: workloads.Workload) -> list[workloads.Verdict]:
    """One exact-audit cycle without its second-long S-box audits."""
    return [v for v in w.verdicts[: w.cycle] if "--aes" not in v.argv and "sbox8" not in v.key]


def test_flipped_expectation_fails(monkeypatch):
    v = workloads.Verdict(("certificate", "--rot-power", "2"), "certificate --rot-power 2", "certificate")
    records = [worker.execute(v)]
    assert worker.gate(records) == []
    monkeypatch.setitem(workloads.EXPECT, "cert_passes", {1: True, 2: True, 3: True})
    failures = worker.gate(records)
    assert len(failures) == 1 and "passed=False" in failures[0]["problems"][0]


def test_flipped_golden_answer_fails(monkeypatch, tmp_path):
    w = workloads.build("exact-audit", 3, tmp_path)
    v = next(v for v in w.verdicts if v.kind == "goursat")
    records = [worker.execute(v)]
    assert worker.gate(records) == []
    golden = workloads.load_golden()
    golden[v.key] = {**golden[v.key], "dim": golden[v.key]["dim"] + 1}
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    assert "differs from golden at /dim" in worker.gate(records)[0]["problems"][0]


def test_same_seed_same_inputs_and_verdicts(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 11, tmp_path / "a")
        b = workloads.build(name, 11, tmp_path / "b")
        c = workloads.build(name, 12, tmp_path / "c")
        assert [v.key for v in a.verdicts] == [v.key for v in b.verdicts]
        assert [v.key for v in a.verdicts] != [v.key for v in c.verdicts]
    files_a = sorted((p.name, p.read_text()) for p in (tmp_path / "a").iterdir())
    files_b = sorted((p.name, p.read_text()) for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    a = workloads.build("exact-audit", 11, tmp_path / "a")
    b = workloads.build("exact-audit", 11, tmp_path / "b")
    reports = [[workloads.comparable(worker.execute(v)["report"]) for v in _cheap(w)] for w in (a, b)]
    assert reports[0] == reports[1]


def test_trace_reports_self_time_for_every_module_touched(tmp_path):
    w = workloads.build("exact-audit", 5, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        records = [worker.execute(v, lambda fn, argv: tracer.span("cli.run", "cli", fn, argv)) for v in _cheap(w)]
    finally:
        tracer.uninstall()
    assert worker.gate(records) == []
    assert all(tracer.self_s[m] > 0 for m in MODULES), dict(tracer.self_s)
    from ksgroup import cli, gf2

    assert cli.closure_search.__module__ == "ksgroup.invariants"
    assert gf2.Subspace.contains.__qualname__ == "Subspace.contains"


def test_golden_covers_every_pooled_verdict():
    assert sorted(workloads.golden_keys()) == sorted(workloads.load_golden())


def test_toy_maps_and_base_oracle_match_the_program():
    from random import Random

    from ksgroup.invariants import random_nonaffine_word_permutation

    for k in range(64):
        assert workloads.toy_map_table(k) == random_nonaffine_word_permutation(3, Random(k)).to_table()
    assert [k for k in range(8) if workloads.base_imprimitive(workloads.toy_map_table(k))] == [5]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aes-escape", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_keys_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
