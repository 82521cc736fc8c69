"""Outside-in benchmark of affinitykit: the CLI as subprocesses, the library in a worker.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank_wide --seed 1 --seconds 25 --trace 0

Workloads: rank_wide, cli_io (CLI cycles) and kernels (library loop).
Every input is generated from --seed under .perfbench/ in the checkout.
Each op's output is checked against a numpy oracle and against earlier
repeats of the same argv and input. With --trace 0 the last stdout line
reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 a separate run in one interpreter reports its per-layer
metrics from spans around each module's public functions, and prints a
layer-share table.

Every load is a closed loop with one client: one op at a time. The
program keeps its default BLAS threading.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import numpy as np

from harness import oracle
from harness.inputs import file_record
from harness.ops import Judge, Op, Record, cycle_ops, output_digest, report_bytes, spawn, stdout_path
from harness.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
IMPORT_SAMPLES = 3  # at least; CLI runs also probe after every cycle
BUDGET_SECONDS = 165.0  # the whole run, set-up included, must end well inside 180 s


class ProgramFailed(Exception):
    pass


def contract(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def blas_threads():
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "absent"
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
            "blas": blas, "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg()}


class Run:
    """One benchmark run: where it writes, its deadline and its verdicts."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.time() + BUDGET_SECONDS
        self.env = program_env()
        self.work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = os.path.join(self.work, "out")
        os.makedirs(self.out)
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.setup: list[float] = []

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.time())

    def python(self, *args, tag: str):
        """Run the interpreter with the program on its path; returns (code, seconds, stdout, stderr)."""
        out, err = os.path.join(self.work, f"{tag}.stdout"), os.path.join(self.work, f"{tag}.stderr")
        code, seconds, rss = spawn([sys.executable, *args], self.env, out, err, self.timeout())
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        with open(out, encoding="utf-8", errors="replace") as o, open(err, encoding="utf-8", errors="replace") as e:
            return code, seconds, o.read(), e.read()

    def probe_import(self):
        """One setup_s sample: a fresh interpreter that imports affinitykit, spawn to exit."""
        self.setup.append(self.python("-c", "import affinitykit", tag="import")[1])

    def judge(self, judge: Judge, op: Op, record: Record) -> bool:
        self.attempted += 1
        reason = judge(op, record)
        if reason is not None:
            self.failures.append(f"{op.key}: {reason}")
        return reason is None


def preflight(run: Run):
    """Check that this checkout's package imports; also compiles its .pyc files."""
    code, _, out, err = run.python("-c", "import affinitykit, sys; sys.stdout.write(affinitykit.__file__)",
                                   tag="preflight")
    if code != 0 or not os.path.abspath(out).startswith(SRC + os.sep):
        last = err.strip().splitlines()[-1:] or [out]
        raise SystemExit(f"perfbench: cannot import affinitykit from {SRC}: {last[0]}")


def run_cli(run: Run, plan) -> tuple[list, list[list]]:
    """Spawn each op of the warm-up cycle, then of at least two timed cycles,
    ending at the cycle boundary nearest to --seconds of op time.

    An import probe follows each cycle, so setup_s samples the same stretch
    of time as the cycles. Returns (warm-up, timed cycles), each cycle a
    list of (record, passed).
    """
    judge = Judge(run.out, plan.checks)
    cycles = []
    while True:
        cycle = []
        for op in cycle_ops(plan.positions, len(cycles)):
            stderr_file = os.path.join(run.out, f"{op.key}.stderr")
            code, seconds, rss = spawn([sys.executable, "-m", "affinitykit", *op.args], run.env,
                                       stdout_path(run.out, op), stderr_file, run.timeout())
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            with open(stderr_file, encoding="utf-8", errors="replace") as handle:
                record = Record(op.key, code, handle.read(), output_digest(run.out, op), seconds)
            cycle.append((record, run.judge(judge, op, record)))
        cycles.append(cycle)
        run.probe_import()
        timed = [sum(r.seconds for r, _ in c) for c in cycles[1:]]
        if len(timed) >= 2 and (sum(timed) + timed[-1] / 2 >= run.args.seconds
                                or time.time() + 1.5 * timed[-1] > run.deadline):
            return cycles[0], cycles[1:]


def run_worker(run: Run, plan, trace: bool) -> tuple[dict, list, list[list]]:
    """Run the in-process worker and judge its records.

    Returns (worker result, warm-up, cycles), each cycle a list of (record, passed).
    """
    result_path = os.path.join(run.work, "worker_result.json")
    job = {"mode": "kernels" if plan.job else "cli", "trace": trace, "seconds": run.args.seconds,
           "deadline": run.deadline - 10.0, "src": SRC, "out_dir": run.out, "result": result_path,
           "positions": [dataclasses.asdict(p) for p in plan.positions], **plan.job}
    job_path = os.path.join(run.work, "worker_job.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    code, _, _, err = run.python(WORKER, job_path, tag="worker")
    if code != 0 or not os.path.exists(result_path):
        lines = err.strip().splitlines() or ["no output"]
        raise ProgramFailed(f"worker exited with code {code}: {lines[-1]}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    judge = Judge(run.out, plan.checks)
    ops = {op.key: op for pos in plan.positions for op in pos.variants}

    def judged(raw_records):
        records = [Record(**raw) for raw in raw_records]
        return [(r, run.judge(judge, ops.get(r.key) or Op(r.key), r)) for r in records]

    return result, judged(result["warmup"]), [judged(c["records"]) for c in result["cycles"]]


def end_to_end(run: Run, plan) -> tuple[dict, dict]:
    if plan.job:
        run.probe_import()
        _, warmup, cycles = run_worker(run, plan, trace=False)
    else:
        warmup, cycles = run_cli(run, plan)
    while len(run.setup) < IMPORT_SAMPLES:
        run.probe_import()
    seconds = [sum(r.seconds for r, _ in c) for c in cycles]
    correct = sum(ok for c in cycles for _, ok in c)
    op_seconds = {}
    for record, _ in (r for c in cycles for r in c):
        op_seconds.setdefault(record.key, []).append(record.seconds)
    metrics = {
        "cycle_s": statistics.median(seconds),
        "ops_per_s": correct / sum(seconds),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = {"cycles": len(cycles), "ops_per_cycle": len(cycles[0]), "cycle_seconds": seconds,
             "warmup_s": sum(r.seconds for r, _ in warmup), "setup_samples": run.setup,
             "op_seconds_median": {k: statistics.median(v) for k, v in op_seconds.items()}}
    return metrics, notes


def import_profile(run: Run) -> dict:
    """Modules added by ``import affinitykit``, and the self time of scipy's modules under -X importtime."""
    code, _, out, err = run.python(
        "-X", "importtime", "-c",
        "import sys; before = len(sys.modules); import affinitykit; print(len(sys.modules) - before)",
        tag="importtime")
    if code != 0:
        raise ProgramFailed("import profile failed")
    scipy_us = 0
    for line in err.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[0].isdigit() and parts[2].split(".")[0] == "scipy":
            scipy_us += int(parts[0])
    return {"import.modules": float(out.strip()), "import.scipy_s": scipy_us / 1e6}


def per_layer(run: Run, plan) -> tuple[dict, dict]:
    metrics = import_profile(run)
    run.probe_import()
    result, _, _ = run_worker(run, plan, trace=True)
    while len(run.setup) < IMPORT_SAMPLES:
        run.probe_import()
    traced = [c for c in result["cycles"] if c["traced"]]
    untraced = [c for c in result["cycles"] if not c["traced"]]
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(c["layers"][name] for c in traced)
    for name in ("attention.vs_numpy", "attention.peak_mb", "affinity.gaussian_peak_mb"):
        metrics[name] = result["extra"].get(name, 0.0)
    metrics["trace.overhead_s"] = (statistics.median(c["seconds"] for c in traced)
                                   - statistics.median(c["seconds"] for c in untraced))
    ops = cycle_ops(plan.positions, 1) if plan.positions else []
    metrics["cli.output_bytes"] = float(sum(len(report_bytes(run.out, op)) for op in ops))
    metrics["verify.failed"] = float(sum(
        oracle.verify_failures(report_bytes(run.out, op).decode("utf-8", "replace"))[1]
        for op in ops if op.args[:1] == ("verify",)))
    # The share tables are those of the median traced cycle, so their rows add up to it.
    typical = sorted(traced, key=lambda c: c["seconds"])[(len(traced) - 1) // 2]
    tables = {"cycle": share_table(typical["shares"], typical["records"], ops, run.setup, plan.job)}
    groups = {op.group: [o for o in ops if o.group == op.group] for op in ops}
    if len(groups) > 1:
        group_of = {op.key: op.group for pos in plan.positions for op in pos.variants}
        for group, members in groups.items():
            records = [r for r in typical["records"] if group_of[r["key"]] == group]
            tables[group] = share_table(typical["group_shares"][group], records, members, run.setup, plan.job)
    checks = [(f"{group}: {text}" if len(groups) > 1 else text, holds)
              for group in groups or [""]
              for text, holds in design_checks(group, tables.get(group, tables["cycle"]), metrics)]
    notes = {"traced_cycles": len(traced), "untraced_cycles": len(untraced),
             "cycle_s": sum(tables["cycle"].values()), "shares_s": tables, "design": checks}
    return metrics, notes


def share_table(layer_shares: dict, records: list, ops: list, setup: list, in_process: bool) -> dict:
    """Self seconds per layer of some ops of a cycle, with their import and what no span covers."""
    # A CLI op pays the import once; the kernels loop pays it once per run, outside its cycles.
    import_s = 0.0 if in_process else statistics.median(setup) * len(ops)
    shares = {"import": import_s, **layer_shares}
    shares["unattributed"] = sum(r["seconds"] for r in records) + import_s - sum(shares.values())
    return shares


def design_checks(group: str, shares: dict, metrics: dict) -> list[tuple[str, bool]]:
    """The layer-share predictions each group of ops was chosen for."""
    cycle = sum(shares.values())
    non_import = cycle - shares["import"]
    others = {k: v for k, v in shares.items() if k not in ("import", "cli.ingest", "unattributed")}
    if group == "tall":
        return [("cli.ingest is the largest non-import layer", shares["cli.ingest"] > max(others.values())),
                ("propagate is under 1% of the time", shares["propagate"] < 0.01 * cycle)]
    if group == "wide":
        return [("affinity + normalize + propagate exceed cli.ingest",
                 shares["affinity"] + shares["normalize"] + shares["propagate"] > shares["cli.ingest"])]
    if group == "attend":
        return [("rng + cli.self exceed half of the non-import time",
                 shares["rng"] + shares["cli.self"] > 0.5 * non_import)]
    return [("no cli spans", metrics["cli.calls"] == 0)]


def print_report(run: Run, plan, env: dict, metrics: dict, units: dict, notes: dict):
    args = run.args
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {plan.shapes}")
    for rec in notes["inputs"]:
        print(f"  {rec['path']} {rec['bytes']} bytes sha256={rec['sha256']}")
    if args.trace:
        print(f"traced cycles={notes['traced_cycles']} untraced cycles={notes['untraced_cycles']}")
        for part, shares in notes["shares_s"].items():
            total = sum(shares.values())
            of = "one cycle" if part == "cycle" else f"the {part} ops of one cycle"
            print(f"layer self-time share of {of} ({total:.4f} s; import counted once per CLI op):")
            for row, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"  {row:<14} {seconds:10.4f} s {100 * seconds / total:6.2f} %")
        for text, holds in notes["design"]:
            print(f"design check: {text}: {'holds' if holds else 'DOES NOT HOLD'}")
    else:
        print(f"warmup_s {notes['warmup_s']:.4f} s (one untimed cycle, paid once)")
        print(f"samples: {notes['cycles']} timed cycles of {notes['ops_per_cycle']} ops; "
              f"{len(notes['setup_samples'])} imports for setup_s")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    failed = len(run.failures)
    print(f"fail_ratio {failed / max(run.attempted, 1):.6g} ({failed} of {run.attempted} ops failed)")
    for line in run.failures[:20]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "affinitykit", "__init__.py")):
        print(f"perfbench: no affinitykit package under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the child being waited on is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    units = contract(args.trace)
    run = Run(args)
    env = environment()
    preflight(run)
    plan = WORKLOADS[args.workload](args.seed, run.work)
    try:
        metrics, notes = (per_layer if args.trace else end_to_end)(run, plan)
    except ProgramFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    env["loadavg_after"] = os.getloadavg()
    notes["inputs"] = [file_record(p) for p in plan.inputs]
    print_report(run, plan, env, metrics, units, notes)
    failed = len(run.failures)
    result = {"correct": failed == 0 and run.attempted > 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    # Inputs and outputs are regenerated from the seed; keep only the record of the run.
    shutil.rmtree(run.work)
    os.makedirs(run.work)
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "notes": notes, "failures": run.failures, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
