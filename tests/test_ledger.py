"""Every ledger file (BENCH_*.json at the repository root) is well formed against BENCHMARK.json."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LEDGERS = sorted(ROOT.glob("BENCH_*.json"))
# What the numbers depend on beside the code: interpreter, numpy, cores, BLAS and CPU paths.
ENV_KEYS = ("python", "numpy", "nproc", "blas_threads", "OPENBLAS_CORETYPE", "simd_found",
            "PYTHONDONTWRITEBYTECODE")


def test_the_ledger_has_a_file():
    assert LEDGERS


@pytest.mark.parametrize("path", LEDGERS, ids=lambda path: path.name)
def test_each_file_holds_every_workload_and_end_to_end_metric(path):
    ledger = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(ledger["commit"], str) and ledger["commit"]
    assert set(ENV_KEYS) <= set(ledger["env"])
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK["end_to_end"]:
            spread = ledger["workloads"][workload["name"]][metric["name"]]
            low, median, high = spread["min"], spread["median"], spread["max"]
            assert all(math.isfinite(v) for v in (low, median, high)), (workload["name"], metric["name"])
            assert low <= median <= high, (workload["name"], metric["name"])
