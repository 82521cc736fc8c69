"""Numpy-only reference results and output checks.

Nothing here imports affinitykit or scipy: every reference is computed
from the definitions. Each ``check_*`` function returns ``None`` when the
output is right and a one-line reason when it is not.

Tolerance: an output value may differ from its reference by at most
``TOL`` times the largest reference magnitude. ``TOL`` equals the
acceptance suite's closed-form-vs-series bound (1e-8); the program's
iterative stopping rules (1e-10) and the differing summation orders of
the references sit well below it. Rank order is compared only where
adjacent reference scores differ by more than that tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

TOL = 1e-8

MMIX_MULTIPLIER = 6364136223846793005
MMIX_INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1


# --- feature ranking -------------------------------------------------------

def average_ranks(data: np.ndarray) -> np.ndarray:
    """Column-wise ranks 1..n, tied values sharing the mean of their positions."""
    n = data.shape[0]
    order = np.argsort(data, axis=0, kind="stable")
    ordered = np.take_along_axis(data, order, axis=0)
    ranks = np.empty(data.shape)
    for j in range(data.shape[1]):
        values = ordered[:, j]
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        ends = np.r_[starts[1:], n]
        ranks[order[:, j], j] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(data: np.ndarray) -> np.ndarray:
    centered = average_ranks(data) - (data.shape[0] + 1) / 2.0
    gram = centered.T @ centered
    norms = np.sqrt(np.diagonal(gram))
    den = np.outer(norms, norms)
    return np.divide(gram, den, out=np.zeros_like(gram), where=den > 0)


def corr_affinity(data: np.ndarray, beta: float) -> np.ndarray:
    """A_ij = beta * max(s_i, s_j) + (1 - beta) * (1 - |rho_ij|), zero diagonal."""
    sigma = data.std(axis=0)
    sigma_hat = sigma / sigma.max() if sigma.max() > 0 else np.zeros_like(sigma)
    a = beta * np.maximum.outer(sigma_hat, sigma_hat) + (1.0 - beta) * (1.0 - np.abs(spearman(data)))
    np.fill_diagonal(a, 0.0)
    return a


def perron_root(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[-1])


def closed_form_scores(a: np.ndarray, alpha: float) -> np.ndarray:
    """Row sums of (I - alpha A)^-1 - I, by one solve with the right-hand side alpha A 1."""
    return np.linalg.solve(np.eye(a.shape[0]) - alpha * a, alpha * a.sum(axis=1))


def truncated_scores(a: np.ndarray, alpha: float, length: int) -> np.ndarray:
    """Row sums of sum_{k=1..L} (alpha A)^k, by the recurrence t <- alpha A (1 + t)."""
    t = np.zeros(a.shape[0])
    for _ in range(length):
        t = alpha * (a @ (1.0 + t))
    return t


def eigenvector_scores(a: np.ndarray) -> tuple[np.ndarray, float]:
    values, vectors = np.linalg.eigh(a)
    x = vectors[:, -1]
    x = x * np.sign(x.sum())
    return x / np.linalg.norm(x), float(values[-1])


def pagerank_scores(a: np.ndarray, damping: float) -> np.ndarray:
    """Stationary vector of the damped walk, by one linear solve."""
    n = a.shape[0]
    sums = a.sum(axis=1, keepdims=True)
    p = np.where(sums > 0, a / np.where(sums > 0, sums, 1.0), 1.0 / n)
    pi = np.linalg.solve(np.eye(n) - damping * p.T, np.full(n, (1.0 - damping) / n))
    return pi / pi.sum()


def parse_scores(text: str, fmt: str) -> tuple[dict, list[tuple[str, float, int]]]:
    """The report's metadata and its (name, score, rank) entries in emitted order."""
    if fmt == "json":
        report = json.loads(text)
        entries = [(e["name"], float(e["score"]), int(e["rank"])) for e in report["scores"]]
        return report, entries
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["name", "score", "rank"]:
        raise ValueError("csv report lacks the name,score,rank header")
    return {}, [(name, float(score), int(rank)) for name, score, rank in rows[1:]]


def check_scores(entries, names, ref: np.ndarray, k: int | None = None) -> str | None:
    """Scores within tolerance, ranks 1..len, order and top-k set as the reference allows."""
    tol = TOL * float(np.abs(ref).max())
    index = {name: i for i, name in enumerate(names)}
    expected = len(names) if k is None else k
    if len(entries) != expected:
        return f"{len(entries)} entries, expected {expected}"
    seen = set()
    previous = math.inf
    for position, (name, score, rank) in enumerate(entries, 1):
        if rank != position:
            return f"entry {position} has rank {rank}"
        if name not in index or name in seen:
            return f"entry {position} names unknown or repeated feature {name!r}"
        seen.add(name)
        reference = float(ref[index[name]])
        if not abs(score - reference) <= tol:
            return f"{name}: score {score!r} differs from oracle {reference!r} by more than {tol:.2e}"
        if reference > previous + tol:
            return f"{name} at rank {position} outranks its predecessor in the oracle order"
        previous = reference
    if k is not None:
        chosen = np.array([index[name] for name, _, _ in entries])
        rest = np.delete(ref, chosen)
        if rest.size and rest.max() > ref[chosen].min() + tol:
            return "top-k set differs from the oracle's"
    return None


def check_close(name: str, value, ref: np.ndarray) -> str | None:
    out = np.asarray(value, dtype=float)
    if out.shape != ref.shape:
        return f"{name}: shape {out.shape}, expected {ref.shape}"
    tol = TOL * max(float(np.abs(ref).max()), np.finfo(float).tiny)
    error = float(np.abs(out - ref).max())
    if not error <= tol:
        return f"{name}: max error {error:.3e} exceeds {tol:.3e}"
    return None


# --- MMIX draws and attention ---------------------------------------------

def mmix_uniform(seed: int, count: int, low: float, high: float, block: int = 4096) -> np.ndarray:
    """``count`` successive MMIX draws on [low, high), vectorized by jumping ``block`` steps.

    state_{i+B} = a^B state_i + c (a^{B-1} + ... + 1)  (mod 2^64), applied to a
    whole block of states at once in wrapping uint64 arithmetic.
    """
    block = max(1, min(block, count))
    first = np.empty(block, dtype=np.uint64)
    state, jump_mul, jump_add = seed & _MASK, 1, 0
    for i in range(block):
        state = (MMIX_MULTIPLIER * state + MMIX_INCREMENT) & _MASK
        first[i] = state
        jump_mul = (MMIX_MULTIPLIER * jump_mul) & _MASK
        jump_add = (MMIX_MULTIPLIER * jump_add + MMIX_INCREMENT) & _MASK
    states = np.empty(count, dtype=np.uint64)
    current = first
    for start in range(0, count, block):
        if start:
            current = current * np.uint64(jump_mul) + np.uint64(jump_add)
        stop = min(start + block, count)
        states[start:stop] = current[: stop - start]
    unit = (states >> np.uint64(11)).astype(float) * 2.0**-53
    return low + (high - low) * unit


def softmax_rows(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def attention(q, k, v, scale: bool = True) -> np.ndarray:
    s = q @ k.T
    if scale:
        s = s / math.sqrt(q.shape[1])
    return softmax_rows(s) @ v


def multi_head(x, wq, wk, wv, wout, scale: bool = True) -> np.ndarray:
    heads = [attention(x @ q, x @ k, x @ v, scale) for q, k, v in zip(wq, wk, wv)]
    return np.hstack(heads) @ wout


def attend_reference(x: np.ndarray, heads: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(head-1 weights, output) of the CLI's seeded attention demo.

    Projections are uniform on [-0.1, 0.1), drawn row-major per head as
    wq, wk, wv, then wout: the draw order the CLI documents.
    """
    d_model = x.shape[1]
    d_k = d_model // heads
    shapes = [(d_model, d_k)] * (3 * heads) + [(heads * d_k, d_model)]
    draws = mmix_uniform(seed, sum(r * c for r, c in shapes), -0.1, 0.1)
    mats, position = [], 0
    for rows, cols in shapes:
        mats.append(draws[position:position + rows * cols].reshape(rows, cols))
        position += rows * cols
    wq, wk, wv = mats[0:-1:3], mats[1:-1:3], mats[2:-1:3]
    weights = softmax_rows((x @ wq[0]) @ (x @ wk[0]).T / math.sqrt(d_k))
    return weights, multi_head(x, wq, wk, wv, mats[-1])


def check_attend(text: str, heads: int, seed: int, reference) -> str | None:
    report = json.loads(text)
    weights, output = reference
    if (report.get("heads"), report.get("d_model"), report.get("seed")) != (heads, output.shape[1], seed):
        return "attend report header does not match heads, d_model and seed"
    return (check_close("weights_head1", report["weights_head1"], weights)
            or check_close("output", report["output"], output))


_VERIFY_LINE = re.compile(r"^(\w+): max_error=(\S+) tolerance=(\S+) (PASS|FAIL)$")


def verify_failures(text: str) -> tuple[str | None, int]:
    """(reason the report is wrong or None, number of properties reported FAIL).

    Property names are not pinned, so later properties need no benchmark change.
    """
    lines = text.splitlines()
    if not lines:
        return "verify printed no properties", 0
    names, failed = set(), 0
    for line in lines:
        match = _VERIFY_LINE.match(line)
        if not match:
            return f"unexpected verify line {line!r}", failed
        name, error, tolerance, verdict = match.groups()
        if name in names:
            return f"property {name} reported twice", failed
        names.add(name)
        if verdict != "PASS" or not float(error) <= float(tolerance):
            failed += 1
    return (f"{failed} properties failed" if failed else None), failed


# --- library kernels -------------------------------------------------------

def gaussian_affinity(x: np.ndarray, h: float, rows: int = 32) -> np.ndarray:
    """exp(-||x_i - x_j||^2 / h^2), built a few rows at a time."""
    n = x.shape[0]
    out = np.empty((n, n))
    for i in range(0, n, rows):
        diff = x[i:i + rows, None, :] - x[None, :, :]
        out[i:i + rows] = np.exp(-(diff * diff).sum(axis=-1) / (h * h))
    return out


def gat(h, w, wprime, a, slope, mask) -> np.ndarray:
    projected = h @ w
    f_out = w.shape[1]
    e = (projected @ a[:f_out])[:, None] + (projected @ a[f_out:])[None, :]
    e = np.where(e >= 0, e, slope * e)
    return softmax_rows(np.where(mask, e, -np.inf)) @ (h @ wprime)


def non_local(x, wtheta, wphi, wg) -> np.ndarray:
    return x + attention(x @ wtheta, x @ wphi, x @ wg, scale=False)
