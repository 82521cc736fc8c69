"""The three workloads: their seeded inputs, op cycles and oracle checks.

``cli_io`` runs two groups of ops in one cycle, the tall-table ops and
the attend ops; the traced run keeps a share table per group. Shapes keep
one run (set-up, a warm-up cycle and at least two timed cycles) near 40 s
on two cores, while each group's share table still shows the layer it was
chosen for (see ``design_checks`` in run.py).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from . import inputs, oracle
from .ops import Op, Position

POOL = 2  # inputs per pool: consecutive ops differ in input, and every key recurs each cycle or two
FRACTION = 0.5  # the CLI's default --alpha-fraction
DAMPING = 0.85  # the CLI's default --damping

WIDE = (120, 1000)  # samples x features
WIDE_TRUNCATION = 40
WIDE_K = 50
TALL = (2000, 200)
TALL_K = 20
TALL_BETA = 0.8
BAD_TOKEN = "1.2.3"
TOKENS = (512, 512)  # tokens x d_model
HEADS = 8

KERNEL_ATTENTION = (2048, 64)
KERNEL_X = (1024, 256)
KERNEL_HEADS = 4
KERNEL_GAUSSIAN = (512, 256)
KERNEL_BANDWIDTH = 32.0  # ~sqrt(2 d): pair distances sit near the bandwidth, weights near exp(-1/2)
KERNEL_MASK_DENSITY = 0.05
KERNEL_SLOPE = 0.2
KERNEL_OPS = ("attention", "mha", "gaussian", "gat", "nonlocal")


@dataclass
class Plan:
    shapes: str
    inputs: list[str]
    positions: list[Position] = field(default_factory=list)  # empty for the in-process kernels loop
    checks: dict = field(default_factory=dict)  # key -> callable(report bytes) -> reason
    job: dict = field(default_factory=dict)  # kernels: what the worker process loads


class FeatureTables:
    """Oracle results for a pool of feature tables, computed on first use."""

    def __init__(self, data: list[np.ndarray], names: list[str]):
        self.data = data
        self.names = names
        self._affinity = {}

    def affinity(self, i: int, beta: float):
        if (i, beta) not in self._affinity:
            a = oracle.corr_affinity(self.data[i], beta)
            self._affinity[i, beta] = (a, oracle.perron_root(a))
        return self._affinity[i, beta]

    def closed_json(self, i, beta, blob):
        a, rho = self.affinity(i, beta)
        report, entries = oracle.parse_scores(blob.decode("utf-8"), "json")
        if report.get("method") != "inffs":
            return f"method {report.get('method')!r}, expected inffs"
        if not abs(report["rho"] - rho) <= oracle.TOL * rho:
            return f"rho {report['rho']!r} differs from the oracle's {rho!r}"
        alpha = report["alpha"]
        if not abs(alpha * rho - FRACTION) <= oracle.TOL:
            return f"alpha * rho = {alpha * rho!r}, expected {FRACTION}"
        return oracle.check_scores(entries, self.names, oracle.closed_form_scores(a, alpha))

    def closed_csv(self, i, beta, k, blob):
        a, rho = self.affinity(i, beta)
        _, entries = oracle.parse_scores(blob.decode("utf-8"), "csv")
        return oracle.check_scores(entries, self.names, oracle.closed_form_scores(a, FRACTION / rho), k)

    def truncated_csv(self, i, length, blob):
        a, rho = self.affinity(i, 0.5)
        _, entries = oracle.parse_scores(blob.decode("utf-8"), "csv")
        return oracle.check_scores(entries, self.names, oracle.truncated_scores(a, FRACTION / rho, length))

    def ec_json(self, i, k, blob):
        a, _ = self.affinity(i, 0.5)
        report, entries = oracle.parse_scores(blob.decode("utf-8"), "json")
        vector, value = oracle.eigenvector_scores(a)
        if report.get("method") != "ec":
            return f"method {report.get('method')!r}, expected ec"
        if not abs(report["rho"] - value) <= oracle.TOL * value:
            return f"eigenvalue {report['rho']!r} differs from the oracle's {value!r}"
        return oracle.check_scores(entries, self.names, vector, k)

    def pagerank_json(self, i, blob):
        a, _ = self.affinity(i, 0.5)
        report, entries = oracle.parse_scores(blob.decode("utf-8"), "json")
        if report.get("method") != "pagerank":
            return f"method {report.get('method')!r}, expected pagerank"
        return oracle.check_scores(entries, self.names, oracle.pagerank_scores(a, DAMPING))


def _grouped(plan: Plan, group: str) -> Plan:
    plan.positions = [Position(p.pool, tuple(dataclasses.replace(op, group=group) for op in p.variants))
                      for p in plan.positions]
    return plan


def _empty_stdout(blob):
    return None if not blob else "rejected input still wrote a report"


def _tables(rng, work, stem, shape):
    samples, features = shape
    names = [f"f{j}" for j in range(features)]
    data, texts, paths = [], [], []
    for i in range(POOL):
        x, tied = inputs.feature_table(rng, samples, features)
        text = inputs.csv_text(names, x, tied)
        path = os.path.join(work, f"{stem}{i}.csv")
        inputs.write(path, text)
        data.append(x)
        texts.append(text)
        paths.append(path)
    return FeatureTables(data, names), texts, paths


def rank_wide(seed: int, work: str) -> Plan:
    rng = np.random.default_rng([seed, 0])
    tables, _, paths = _tables(rng, work, "wide", WIDE)
    plan = Plan(f"{POOL} tables of {WIDE[0]} samples x {WIDE[1]} features", paths)
    outputs = [os.path.join(work, "out", f"trunc{i}.csv") for i in range(POOL)]
    variants = {
        "rank_json": [Op(f"rank_json@{i}", ("rank", "--input", p)) for i, p in enumerate(paths)],
        "rank_trunc_csv": [
            Op(f"rank_trunc_csv@{i}", ("rank", "--input", p, "--truncation", str(WIDE_TRUNCATION),
                                       "--format", "csv", "--output", outputs[i]), output=outputs[i])
            for i, p in enumerate(paths)],
        "select_ec": [Op(f"select_ec@{i}", ("select", "--input", p, "--k", str(WIDE_K), "--method", "ec"))
                      for i, p in enumerate(paths)],
        "rank_pagerank": [Op(f"rank_pagerank@{i}", ("rank", "--input", p, "--method", "pagerank"))
                          for i, p in enumerate(paths)],
    }
    for i in range(POOL):
        plan.checks[f"rank_json@{i}"] = lambda b, i=i: tables.closed_json(i, 0.5, b)
        plan.checks[f"rank_trunc_csv@{i}"] = lambda b, i=i: tables.truncated_csv(i, WIDE_TRUNCATION, b)
        plan.checks[f"select_ec@{i}"] = lambda b, i=i: tables.ec_json(i, WIDE_K, b)
        plan.checks[f"rank_pagerank@{i}"] = lambda b, i=i: tables.pagerank_json(i, b)
    plan.positions = [Position("table", tuple(ops)) for ops in variants.values()]
    return _grouped(plan, "wide")


def _tall(seed: int, work: str) -> Plan:
    rng = np.random.default_rng([seed, 1])
    tables, texts, paths = _tables(rng, work, "tall", TALL)
    samples, features = TALL
    plan = Plan(f"{POOL} tables of {samples} samples x {features} features, "
                f"{POOL} copies with one non-numeric cell", list(paths))
    rejects = []
    for i, text in enumerate(texts):
        line = samples + 1 - int(rng.integers(0, 5))  # within the last five data lines
        column = int(rng.integers(1, features + 1))
        bad = os.path.join(work, f"tall_bad{i}.csv")
        inputs.write(bad, inputs.replace_cell(text, line, column, BAD_TOKEN))
        plan.inputs.append(bad)
        rejects.append(Op(f"rank_bad@{i}", ("rank", "--input", bad), kind="reject", expect_code=2,
                          stderr_has=f"line {line}, column {column}:"))
        plan.checks[f"rank_bad@{i}"] = _empty_stdout
        plan.checks[f"rank_json@{i}"] = lambda b, i=i: tables.closed_json(i, 0.5, b)
        plan.checks[f"select_csv@{i}"] = lambda b, i=i: tables.closed_csv(i, TALL_BETA, TALL_K, b)
    plan.positions = [
        Position("table", tuple(Op(f"rank_json@{i}", ("rank", "--input", p)) for i, p in enumerate(paths))),
        Position("table", tuple(
            Op(f"select_csv@{i}", ("select", "--input", p, "--k", str(TALL_K), "--format", "csv",
                                   "--beta", str(TALL_BETA)))
            for i, p in enumerate(paths))),
        Position("bad", tuple(rejects)),
    ]
    return _grouped(plan, "tall")


def _attend(seed: int, work: str) -> Plan:
    rng = np.random.default_rng([seed, 2])
    cli_seed = int(rng.integers(0, 1_000_000))
    tokens, d_model = TOKENS
    header = [f"d{j}" for j in range(d_model)]
    plan = Plan(f"{POOL} token tables of {tokens} tokens x {d_model} d_model, "
                f"{HEADS} heads, seed {cli_seed}", [])
    ops = []
    for i in range(POOL):
        x = rng.standard_normal((tokens, d_model))
        path = os.path.join(work, f"tokens{i}.csv")
        inputs.write(path, inputs.csv_text(header, x))
        plan.inputs.append(path)
        ops.append(Op(f"attend@{i}", ("attend", "--input", path, "--heads", str(HEADS),
                                      "--seed", str(cli_seed))))
        cache = {}

        def check(blob, x=x, cache=cache):
            if "ref" not in cache:
                cache["ref"] = oracle.attend_reference(x, HEADS, cli_seed)
            return oracle.check_attend(blob.decode("utf-8"), HEADS, cli_seed, cache["ref"])
        plan.checks[ops[-1].key] = check
    verify = Op("verify", ("verify", "--seed", str(cli_seed)))
    plan.checks["verify"] = lambda b: oracle.verify_failures(b.decode("utf-8"))[0]
    plan.positions = [Position("tokens", tuple(ops)), Position("seed", (verify,))]
    return _grouped(plan, "attend")


def cli_io(seed: int, work: str) -> Plan:
    """The tall-table ops, then the attend ops: ingest, rng and serialization, with little propagation."""
    tall, att = _tall(seed, work), _attend(seed, work)
    return Plan(f"{tall.shapes}; {att.shapes}", tall.inputs + att.inputs, tall.positions + att.positions,
                {**tall.checks, **att.checks})


def kernels(seed: int, work: str) -> Plan:
    rng = np.random.default_rng([seed, 3])
    n_att, d_att = KERNEL_ATTENTION
    n, d = KERNEL_X
    d_k = d // KERNEL_HEADS
    n_g, d_g = KERNEL_GAUSSIAN

    def uniform(shape, scale):
        return rng.uniform(-scale, scale, size=shape)

    mask = rng.random((n, n)) < KERNEL_MASK_DENSITY
    np.fill_diagonal(mask, True)
    arrays = {
        "q": rng.standard_normal((n_att, d_att)),
        "k": rng.standard_normal((n_att, d_att)),
        "v": rng.standard_normal((n_att, d_att)),
        "x": rng.standard_normal((n, d)),
        "wq": uniform((KERNEL_HEADS, d, d_k), 0.1),
        "wk": uniform((KERNEL_HEADS, d, d_k), 0.1),
        "wv": uniform((KERNEL_HEADS, d, d_k), 0.1),
        "wout": uniform((d, d), 0.1),
        "gx": rng.standard_normal((n_g, d_g)),
        "gat_w": uniform((d, d_k), 0.1),
        "gat_wprime": uniform((d, d_k), 0.1),
        "gat_a": uniform((2 * d_k,), 0.1),
        "mask": mask,
        "wtheta": uniform((d, d), 0.05),
        "wphi": uniform((d, d), 0.05),
        "wg": uniform((d, d), 0.05),
    }
    a = arrays
    refs = {
        "attention": oracle.attention(a["q"], a["k"], a["v"]),
        "mha": oracle.multi_head(a["x"], a["wq"], a["wk"], a["wv"], a["wout"]),
        "gaussian": oracle.gaussian_affinity(a["gx"], KERNEL_BANDWIDTH),
        "gat": oracle.gat(a["x"], a["gat_w"], a["gat_wprime"], a["gat_a"], KERNEL_SLOPE, a["mask"]),
        "nonlocal": oracle.non_local(a["x"], a["wtheta"], a["wphi"], a["wg"]),
    }
    input_dir = os.path.join(work, "kernels_in")
    ref_dir = os.path.join(work, "kernels_ref")
    os.makedirs(input_dir)
    os.makedirs(ref_dir)
    paths = []
    for name, array in arrays.items():
        paths.append(os.path.join(input_dir, f"{name}.npy"))
        np.save(paths[-1], array)
    for name, array in refs.items():
        np.save(os.path.join(ref_dir, f"{name}.npy"), array)
    shapes = (f"attention {n_att}x{d_att}; mha {n}x{d}, {KERNEL_HEADS} heads; gaussian {n_g}x{d_g}; "
              f"gat {n} nodes, {KERNEL_MASK_DENSITY:.0%} mask; non-local {n}x{d}")
    job = {"inputs": input_dir, "refs": ref_dir, "heads": KERNEL_HEADS, "bandwidth": KERNEL_BANDWIDTH,
           "slope": KERNEL_SLOPE, "ops": list(KERNEL_OPS)}
    return Plan(shapes, paths, job=job)


WORKLOADS = {"rank_wide": rank_wide, "cli_io": cli_io, "kernels": kernels}
