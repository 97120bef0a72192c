"""Verdict benchmark for ksgroup.

    python3 perfbench/run.py --workload toy-lift --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it measures the ``ksgroup`` package under
``src`` there.  Each workload is a closed loop with one client: one
in-process ``ksgroup.cli.run(["--output", "json", ...])`` call at a time
(see ``workloads.py``).  ``--workload all`` runs every workload in turn.

Each workload runs in a process of its own, with ``KSGROUP_BUDGET_MS``
unset and numeric libraries held to one thread.  ``setup_s`` is the
median over ``SETUP_SAMPLES`` processes of the time from starting the
process to its first timed verdict.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the kernel pass and a traced batch and reports
the per-layer metrics.  Every verdict is checked (``workloads.check``);
the result's ``failed`` counts those that raised, exited non-zero or
failed the check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with provenance is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
# Settings every worker runs under; recorded in the results file.
ENV_SET = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ENV_UNSET = ("KSGROUP_BUDGET_MS",)
# Printed but not gated by BENCHMARK.json (see README.md).
EXTRA_UNITS = {"verdicts_per_s": "1/s", "verdict_s.p50": "s", "verdict_s.p90": "s", "failed_share": "ratio"}


class BenchError(Exception):
    pass


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> dict:
    if not (SRC / "ksgroup" / "cli.py").is_file():
        raise BenchError(f"no ksgroup package under {SRC}")
    env = {k: v for k, v in os.environ.items() if k not in ENV_UNSET}
    env.update(ENV_SET, PYTHONPATH=str(SRC))
    return env


def start_worker(args, env: dict, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(OUT / "inputs" / f"{args.workload}-{args.seed}")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {args.workload} did not get ready")
    return proc, setup


def finish(proc: subprocess.Popen, workload: str) -> str:
    """Wait for a worker and return its output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} timed out") from None
    return out


def run_workload(args) -> dict:
    env = worker_env()
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, env, setup_only=True)
        finish(proc, args.workload)
        setups.append(setup)
    proc, setup = start_worker(args, env, setup_only=False)
    setups.append(setup)
    out = finish(proc, args.workload)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {args.workload} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["ksgroup_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported ksgroup from {result['ksgroup_file']}, not from this checkout")
    failed = len(result["failures"])
    result["failed"] = failed
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"]["failed_share"] = failed / result["attempted"]
    result["setup_s_samples"] = setups
    return result


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "src_ksgroup_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("ksgroup/*.py"))),
        "env_set": ENV_SET,
        "env_unset": list(ENV_UNSET),
        "process_per_workload": True,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = benchmark_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        units.update(EXTRA_UNITS)
        prov = provenance(args.seed)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            for metric, value in sorted(results[name]["metrics"].items()):
                print(f"{name:13s} {metric:40s} {value:.6g} {units[metric]}")
            for f in results[name]["failures"][:5]:
                print(f"{name:13s} FAILED {' '.join(f['argv'])}: {'; '.join(f['problems'])}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        prov["numpy"] = result.pop("numpy")
        path.write_text(json.dumps({"workload": name, "seconds": args.seconds, "provenance": prov, **result},
                                   indent=2, sort_keys=True) + "\n")
        if missing := [m for m in wanted if m not in result["metrics"]]:
            print(f"perfbench: {name} did not report {missing}", file=sys.stderr)
            return 2

    shown = {}
    for name, result in results.items():
        prefix = f"{name}/" if len(results) > 1 else ""
        shown.update({prefix + m: {"value": result["metrics"][m], "unit": units[m]} for m in wanted})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
