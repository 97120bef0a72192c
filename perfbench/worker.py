"""One workload in one process: set up, then a timed or a traced batch.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
prints ``ready`` once set up (the parent times set-up up to that line)
and, unless ``--setup-only``, one JSON result line when done.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
from pathlib import Path
from time import perf_counter

import ksgroup
import numpy
from ksgroup import cli
from ksgroup.keyschedule import aes_core

import workloads

# The traced run times this share of --seconds untraced, then the same verdicts traced.
TRACE_SHARE = 0.25
# A timed batch interrupts itself this often for one calibration loop of
# about 2 ms, 4% of its time.
PROBE_EVERY_S = 0.05


def spin_s() -> float:
    """One run of the calibration loop: fixed pure-Python work that shares
    no code with ksgroup, so its time follows only the machine's speed."""
    t0 = perf_counter()
    x = 0
    for i in range(30_000):
        x ^= i * i
    return perf_counter() - t0


def calib_spin_ms() -> float:
    """Median of 25 calibration loops, to show machine drift."""
    return statistics.median(spin_s() for _ in range(25)) * 1e3


class Calibration:
    """Calibration loops run from a wall-clock timer, so they sample the
    machine's speed evenly over verdicts of any length.  ``clock`` is
    ``perf_counter`` with the time spent in them taken out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        d = spin_s()
        self.samples.append(d)
        self.spent += d

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def execute(v: workloads.Verdict, call=None, clock=perf_counter) -> dict:
    """One verdict: an in-process CLI call with stdout captured and parsed."""
    out, err = io.StringIO(), io.StringIO()
    rc, report, error = None, None, None
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            argv = ["--output", "json", *v.argv]
            rc = call(cli.run, argv) if call else cli.run(argv)
        report = json.loads(out.getvalue())
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception as exc:  # a crashing verdict is counted as failed, not fatal
        error = repr(exc)
    seconds = clock() - t0
    return {"verdict": v, "rc": rc, "report": report, "seconds": seconds,
            "error": error or err.getvalue().strip() or None}


def run_batch(w: workloads.Workload, seconds: float, call=None, count: int | None = None,
              clock=perf_counter) -> tuple[list[dict], float]:
    """Closed loop, one verdict at a time: run ``count`` verdicts, or whole
    cycles until ``seconds`` have passed on ``clock``."""
    records = []
    t0 = clock()
    i = 0
    while True:
        if count is None and i % w.cycle == 0 and clock() - t0 >= seconds:
            break
        if count is not None and i >= count:
            break
        records.append(execute(w.verdicts[i % len(w.verdicts)], call, clock))
        i += 1
    return records, clock() - t0


def gate(records: list[dict]) -> list[dict]:
    """Failures among ``records``, each with the reasons."""
    golden = workloads.load_golden()
    failures = []
    for r in records:
        problems = workloads.check(r["verdict"], r["rc"], r["report"], golden)
        if problems:
            if r["error"]:
                problems.append(r["error"])
            failures.append({"argv": list(r["verdict"].argv), "problems": problems})
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(w: workloads.Workload, seconds: float) -> dict:
    calib_before = calib_spin_ms()
    with Calibration() as cal:
        records, wall = run_batch(w, seconds, clock=cal.clock)
    rss = peak_rss_mb()
    calib_after = calib_spin_ms()
    times = [r["seconds"] for r in records]
    metrics = {
        "verdicts_per_s": len(records) / wall,
        # mean verdict time in calibration loops sampled over the same batch
        "verdict_spins": statistics.fmean(times) / statistics.median(cal.samples),
        "peak_rss_mb": rss,
    }
    if w.percentiles:
        metrics["verdict_s.p50"] = statistics.median(times)
        if len(times) >= 100:  # at least ten samples beyond the 90th percentile
            metrics["verdict_s.p90"] = statistics.quantiles(times, n=10)[-1]
    return {"records": records, "metrics": metrics, "wall_s": wall, "verdict_s": times,
            "probe_ms": {"count": len(cal.samples), "median": statistics.median(cal.samples) * 1e3},
            "calib_spin_ms": [calib_before, calib_after]}


def traced(w: workloads.Workload, seconds: float) -> dict:
    from kernels import kernel_pass
    from tracer import MODULES, Tracer

    calib_before = calib_spin_ms()
    kernel_errors: dict[str, str] = {}
    layer = kernel_pass(kernel_errors)
    plain, plain_wall = run_batch(w, seconds * TRACE_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        records, traced_wall = run_batch(
            w, 0, call=lambda fn, argv: tracer.span("cli.run", "cli", fn, argv), count=len(plain))
    finally:
        tracer.uninstall()
    calib_after = calib_spin_ms()

    n = len(records)
    total = sum(tracer.self_s.values())
    for m in MODULES:
        layer[f"{m}.self_share"] = tracer.self_s.get(m, 0.0) / total
    layer["invariants.seeds_checked"] = sum(
        r["report"]["lifted"].get("pairs_checked", 0) for r in records
        if r["report"] and r["report"].get("command") == "primitivity") / n
    per_verdict = {
        "invariants.min_block_subspace.calls": tracer.calls["invariants.min_block_subspace"],
        "invariants.min_block_subspace.ms": tracer.total_s["invariants.min_block_subspace"] * 1e3,
        "invariants.is_linear_block.calls": tracer.calls["invariants.is_linear_block"],
        "invariants.closure.evals": tracer.closure["evals"],
        "invariants.closure.rounds": tracer.closure["rounds"],
        "keyschedule.ks_apply.calls": tracer.calls["keyschedule.ks_apply"],
        "keyschedule.ks_inverse.calls": tracer.calls["keyschedule.ks_inverse"],
        "gf2.contains.calls": tracer.calls["gf2.contains"],
    }
    layer.update({k: v / n for k, v in per_verdict.items()})
    evals = tracer.closure["evals"]
    closure_s = tracer.total_s["invariants.closure_search"]
    layer["invariants.closure.grow_ratio"] = tracer.closure["gained"] / evals if evals else 0.0
    layer["invariants.fresh_check.share"] = tracer.fresh_s / closure_s if closure_s else 0.0
    layer["trace.overhead_share"] = traced_wall / plain_wall - 1
    layer["calib.spin.ms"] = calib_before
    return {"records": plain + records, "metrics": layer, "wall_s": plain_wall,
            "calib_spin_ms": [calib_before, calib_after],
            "unmeasured": {"kernels": kernel_errors, "boundaries": tracer.missing}}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=Path, required=True, help="directory for generated input files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    w = workloads.build(args.workload, args.seed, args.inputs)
    aes_core()
    print("ready", flush=True)
    if args.setup_only:
        return
    result = (traced if args.trace else timed)(w, args.seconds)
    records = result.pop("records")
    result.update(attempted=len(records), failures=gate(records),
                  ksgroup_file=ksgroup.__file__, numpy=numpy.__version__)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
