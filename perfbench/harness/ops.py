"""Benchmark operations, the processes that run them, and the pass/fail rule.

An op is one CLI invocation (or one library kernel call) identified by a
key: the same key always means the same argv on the same input, so every
repeat of a key must produce the same bytes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    key: str
    args: tuple[str, ...] = ()
    output: str | None = None  # --output path when the report goes to a file
    kind: str = "ok"  # "reject": the input is bad and the op must fail cleanly
    expect_code: int = 0
    stderr_has: str | None = None  # text the single stderr line must contain
    group: str = ""  # the part of the workload design the op serves; layer shares are also kept per group


@dataclass
class Record:
    key: str
    code: int
    stderr: str
    digest: str
    seconds: float
    reason: str | None = None  # a check already made where the output lives


@dataclass(frozen=True)
class Position:
    """One slot of a cycle: the op variants, one per input of ``pool``."""

    pool: str
    variants: tuple[Op, ...]


def cycle_ops(positions, cycle: int) -> list[Op]:
    """Ops of one cycle. Each pool hands out its inputs round-robin, so
    consecutive ops of a pool never reuse an input and every key recurs
    within a pool's length of cycles."""
    per_cycle: dict[str, int] = {}
    for pos in positions:
        per_cycle[pos.pool] = per_cycle.get(pos.pool, 0) + 1
    counters = {pool: cycle * n for pool, n in per_cycle.items()}
    ops = []
    for pos in positions:
        ops.append(pos.variants[counters[pos.pool] % len(pos.variants)])
        counters[pos.pool] += 1
    return ops


def stdout_path(out_dir: str, op: Op) -> str:
    return os.path.join(out_dir, f"{op.key}.stdout")


def report_bytes(out_dir: str, op: Op) -> bytes:
    with open(op.output or stdout_path(out_dir, op), "rb") as handle:
        return handle.read()


def output_digest(out_dir: str, op: Op) -> str:
    """SHA-256 over stdout and, when the op writes one, the --output file."""
    digest = hashlib.sha256()
    paths = [stdout_path(out_dir, op)] + ([op.output] if op.output else [])
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def spawn(argv, env, stdout_file: str, stderr_file: str, timeout: float) -> tuple[int, float, float]:
    """Run one process from spawn to exit; returns (exit code, seconds, peak RSS in MB).

    The peak RSS comes from the ``wait4`` resource usage of that child alone.
    A process still running after ``timeout`` seconds is killed.
    """
    with open(stdout_file, "wb") as out, open(stderr_file, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


@dataclass
class Judge:
    """Pass/fail for each record.

    An op fails if it exits with the wrong code, writes unexpected stderr
    (anything on success, other than exactly one line on an expected
    error), differs byte for byte from an earlier repeat of its key, or
    fails its oracle check. The oracle runs once per key: later repeats
    are byte-identical to the checked one or fail on that account.
    """

    out_dir: str
    checks: dict = field(default_factory=dict)  # key -> callable(report bytes) -> reason
    first_digest: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def __call__(self, op: Op, record: Record) -> str | None:
        lines = record.stderr.splitlines()
        if record.code != op.expect_code:
            detail = f": {lines[-1]}" if lines else ""
            return f"exit code {record.code}, expected {op.expect_code}{detail}"
        if op.expect_code == 0 and record.stderr:
            return f"unexpected stderr: {lines[0] if lines else record.stderr!r}"
        if op.expect_code != 0:
            if len(lines) != 1 or not record.stderr.endswith("\n"):
                return f"{len(lines)} stderr lines, expected exactly one"
            if op.stderr_has and op.stderr_has not in lines[0]:
                return f"stderr {lines[0]!r} does not name {op.stderr_has!r}"
        first = self.first_digest.setdefault(op.key, record.digest)
        if record.digest != first:
            return "output bytes differ from an earlier run of the same argv and input"
        if op.key not in self.verdicts:
            self.verdicts[op.key] = record.reason if op.key not in self.checks else self._oracle(op)
        return self.verdicts[op.key]

    def _oracle(self, op: Op) -> str | None:
        try:
            return self.checks[op.key](report_bytes(self.out_dir, op))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"
