"""In-process half of the benchmark: one interpreter that imports affinitykit once.

Usage: python perfbench/worker.py JOB.json

The job names the mode ("cli": ``affinitykit.cli.main(argv)`` for each op,
traced by spans; "kernels": the library kernel loop), whether to trace,
how many seconds to run, and where to write the result JSON. The parent
(run.py) generates the inputs, spawns this process, reads its peak RSS
from ``wait4`` and judges the records it returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
import traceback

import numpy as np

from harness import oracle, spans
from harness.ops import Op, Position, Record, cycle_ops, output_digest, stdout_path

ATTENTION_FAMILY = ("attention", "mha", "gat", "nonlocal")
VS_NUMPY_REPEATS = 5


def run_cli_op(cli, op: Op, out_dir: str) -> Record:
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    with open(stdout_path(out_dir, op), "w", encoding="utf-8") as out:
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            code = cli.main(list(op.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a traceback is an op failure, recorded like the CLI would print it
            traceback.print_exc()
            code = 1
        finally:
            seconds = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
    return Record(op.key, code, err.getvalue(), output_digest(out_dir, op), seconds)


class CliCycles:
    def __init__(self, job):
        import affinitykit.cli

        self.cli = affinitykit.cli
        self.out_dir = job["out_dir"]
        self.positions = [Position(p["pool"], tuple(Op(**{**v, "args": tuple(v["args"])}) for v in p["variants"]))
                          for p in job["positions"]]

    def __call__(self, index, recorder):
        records = []
        for op in cycle_ops(self.positions, index):
            if recorder is not None:
                recorder.op_kind, recorder.op_group = op.kind, op.group
            records.append(run_cli_op(self.cli, op, self.out_dir))
        return records


class KernelCycles:
    def __init__(self, job):
        import affinitykit as ak

        def load(directory):
            return {name[:-4]: np.load(os.path.join(directory, name)) for name in sorted(os.listdir(directory))}

        a = self.inputs = load(job["inputs"])
        self.refs = load(job["refs"])
        d_model = a["x"].shape[1]
        cfg = ak.AttentionConfig(d_model=d_model, heads=job["heads"], d_k=d_model // job["heads"])
        proj = ak.ProjectionSet(tuple(a["wq"]), tuple(a["wk"]), tuple(a["wv"]), a["wout"])
        params = ak.GatParams(a["gat_w"], a["gat_wprime"], a["gat_a"], slope=job["slope"])
        mask = ak.NeighborhoodMask(a["mask"])
        nonlocal_proj = ak.NonLocalProjections(a["wtheta"], a["wphi"], a["wg"])
        bandwidth = job["bandwidth"]
        # Looked up on the package at call time, so installed spans see these calls.
        self.calls = {
            "attention": lambda: ak.attention(a["q"], a["k"], a["v"]),
            "mha": lambda: ak.multi_head_attention(a["x"], cfg, proj),
            "gaussian": lambda: ak.build_gaussian_affinity(a["gx"], bandwidth).matrix,
            "gat": lambda: ak.gat_layer(a["x"], params, mask),
            "nonlocal": lambda: ak.non_local_block(a["x"], nonlocal_proj),
        }
        self.ops = job["ops"]
        self.checked = set()
        self.ak = ak

    def __call__(self, index, recorder):
        records = []
        for key in self.ops:
            start = time.perf_counter()
            try:
                out, code, err = self.calls[key](), 0, ""
            except Exception as exc:  # a failing kernel is an op failure, not a crash
                out, code, err = None, 1, f"{type(exc).__name__}: {exc}\n"
            seconds = time.perf_counter() - start
            digest, reason = "", None
            if out is not None:
                digest = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
                if key not in self.checked:
                    self.checked.add(key)
                    reason = oracle.check_close(key, out, self.refs[key])
            records.append(Record(key, code, err, digest, seconds, reason))
        return records

    def vs_numpy(self):
        """Time of attention() over the numpy reference on the same inputs, interleaved."""
        q, k, v = (self.inputs[name] for name in "qkv")
        ours, plain = [], []
        for _ in range(VS_NUMPY_REPEATS):
            start = time.perf_counter()
            self.ak.attention(q, k, v)
            ours.append(time.perf_counter() - start)
            start = time.perf_counter()
            oracle.attention(q, k, v)
            plain.append(time.perf_counter() - start)
        return statistics.median(ours) / statistics.median(plain)

    def peaks_mb(self):
        """tracemalloc peak of each kernel call above the memory held before it."""
        peaks = {}
        tracemalloc.start()
        try:
            for key in self.ops:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = self.calls[key]()
                peaks[key] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                del out
        finally:
            tracemalloc.stop()
        return peaks


def drive(run_cycle, seconds, trace, deadline):
    """One untimed warm-up cycle, then at least two cycles, ending at the cycle
    boundary nearest to ``seconds`` of op time.

    Traced runs alternate untraced and traced cycles, so their difference
    is the tracing overhead; the pairs run in ABBA order, so neither side
    is always the one just after another.
    """
    warmup = run_cycle(0, None)
    cycles, total, index = [], 0.0, 1
    while True:
        pair = (False, True) if len(cycles) % 4 == 0 else (True, False)
        for traced in (pair if trace else (False,)):
            recorder = spans.Recorder() if traced else None
            if traced:
                with spans.installed(recorder):
                    records = run_cycle(index, recorder)
            else:
                records = run_cycle(index, None)
            cycle = {"traced": traced, "seconds": sum(r.seconds for r in records),
                     "records": [dataclasses.asdict(r) for r in records]}
            if traced:
                cycle["layers"] = spans.cycle_metrics(recorder.spans, recorder.counts)
                cycle["shares"] = spans.share_rows(recorder.spans)
                cycle["group_shares"] = {group: spans.share_rows(recorder.spans, group)
                                         for group in sorted({s[5] for s in recorder.spans})}
            cycles.append(cycle)
            total += cycle["seconds"]
            index += 1
        if len(cycles) >= 2 and (total + cycles[-1]["seconds"] / 2 >= seconds
                                 or time.time() + cycles[-1]["seconds"] * 2 > deadline):
            break
    return {"warmup": [dataclasses.asdict(r) for r in warmup], "cycles": cycles}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    run_cycle = CliCycles(job) if job["mode"] == "cli" else KernelCycles(job)
    result = drive(run_cycle, job["seconds"], job["trace"], job["deadline"])
    result["extra"] = {}
    if job["trace"] and job["mode"] == "kernels":
        peaks = run_cycle.peaks_mb()
        result["extra"] = {"attention.vs_numpy": run_cycle.vs_numpy(),
                           "affinity.gaussian_peak_mb": peaks["gaussian"],
                           "attention.peak_mb": max(peaks[key] for key in ATTENTION_FAMILY)}
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
