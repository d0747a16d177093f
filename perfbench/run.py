"""Run one benchmark workload against the ``roast`` sources of this checkout.

    python3 perfbench/run.py --workload apply --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it is the detail record: the environment
stamp, per-call medians, the metrics each workload names, and any failed
checks.  Spans of a traced run are written to ``.perfbench/``.

Thread counts are fixed at one (BLAS and ``ROAST_THREADS``) so that runs
stay comparable when other processes share the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "ROAST_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "roast_threads": os.environ["ROAST_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("apply", "build", "verify", "recover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roast" / "__init__.py").is_file():
        sys.stderr.write(f"error: no roast sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import run_workload

    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT)
    detail["env"] = environment(args.seed)
    spans = detail.pop("spans", None)
    if spans is not None:
        out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(spans))
        detail["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
