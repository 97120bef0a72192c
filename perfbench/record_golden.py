"""Record golden.json: the answer of every pooled verdict the paper does not fix.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it from the root of a checkout of the commit whose answers are wanted.
Fields in ``workloads.UNCOMPARED`` are left out.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from ksgroup import cli

import workloads


def main() -> None:
    paths = workloads.write_pool_files(Path(".perfbench/inputs/golden"))
    golden = {}
    for key in workloads.golden_keys():
        argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in key.split()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(["--output", "json", *argv])
        if rc != 0:
            raise SystemExit(f"{key}: exit code {rc}")
        golden[key] = workloads.comparable(json.loads(out.getvalue()))
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(golden.items())]
    workloads.GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(golden)} verdicts")


if __name__ == "__main__":
    main()
