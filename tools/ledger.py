"""Write one ledger file from the benchmark results of seeds 1-3.

Run every workload of BENCHMARK.json first, from the repository root:

    for w in rank_wide cli_io kernels; do for n in 1 2 3; do
        python3 perfbench/run.py --workload $w --seed $n --seconds 25 --trace 0
    done; done
    python3 tools/ledger.py BENCH_<n>.json

The file holds, per workload, the median, min and max of each end-to-end
metric over the seeds, the commit (``git describe --always --dirty``) and
the environment the numbers depend on.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def simd_found() -> list[str]:
    """The dispatchable SIMD extensions this CPU has, as ``numpy.show_runtime`` lists them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]


def main(out: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads, harness_env = {}, set()
    for workload in (w["name"] for w in benchmark["workloads"]):
        results = []
        for seed in SEEDS:
            path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace0", "result.json")
            with open(path, encoding="utf-8") as handle:
                results.append(json.load(handle))
        env = results[0]["env"]
        harness_env.add(tuple(env[k] for k in ("python", "numpy", "nproc", "blas_threads")))
        workloads[workload] = {"attempted": sum(r["attempted"] for r in results),
                               "failed": sum(r["failed"] for r in results)}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            workloads[workload][name] = {"median": statistics.median(values), "min": min(values),
                                         "max": max(values)}
    if len(harness_env) != 1:
        sys.exit(f"ledger: the runs differ in environment: {sorted(harness_env)}")
    python, numpy_version, nproc, blas_threads = harness_env.pop()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    ledger = {
        "commit": commit,
        "seeds": list(SEEDS),
        "env": {"python": python, "numpy": numpy_version, "nproc": nproc, "blas_threads": blas_threads,
                "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"), "simd_found": simd_found(),
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": workloads,
    }
    with open(os.path.join(ROOT, out), "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
