"""Command-line front end.

Subcommands:

* ``rank``    score and rank the features of a CSV table
* ``select``  rank, then keep only the top-k features
* ``attend``  run seeded multi-head attention over token embeddings
* ``verify``  run the cross-module equivalence suite

Reports go to stdout (or ``--output``); every error path prints exactly
one diagnostic line to stderr and exits nonzero. Exit codes: 0 success,
1 verification failure, 2 input error, 3 numeric error. JSON numbers use
Python's shortest round-trip float representation, so emitted scores
parse back to the exact double that was computed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import verify as verify_mod
from .affinity import FeatureDataset, build_corr_affinity
from .attention import AttentionConfig, ProjectionSet, multi_head_attention
from .errors import (
    DivisibilityError,
    EmptyFile,
    InputError,
    NonNumericCell,
    NumericError,
    RaggedRows,
)
from .normalize import choose_alpha, scale_scores, softmax_rows
from .propagate import (
    eigenvector_centrality,
    inffs_scores,
    pagerank,
    power_series_closed_form,
    power_series_truncated,
)
from .rng import Lcg
from .selection import RankingResult, rank, select_top_k

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3


@dataclass
class RunConfig:
    """Validated bundle of one invocation's options."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    format: str = "json"
    method: str = "inffs"
    alpha_fraction: float = 0.5
    beta: float = 0.5
    damping: float = 0.85
    truncation: int | None = None
    k: int | None = None
    heads: int = 1
    seed: int = 0
    no_header: bool = False
    tolerance: float | None = None

    def __post_init__(self):
        # argparse enforces choices and required options; these are the ranges.
        if not 0.0 < self.alpha_fraction < 1.0:
            raise InputError(
                f"alpha-fraction must lie strictly inside (0, 1) so that "
                f"alpha * rho stays below 1, got {self.alpha_fraction}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise InputError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 < self.damping < 1.0:
            raise InputError(f"damping must lie in (0, 1), got {self.damping}")
        if self.truncation is not None and self.truncation < 1:
            raise InputError(f"truncation must be at least 1, got {self.truncation}")
        if self.k is not None and self.k < 1:
            raise InputError("select requires a positive --k")
        if self.heads < 1:
            raise InputError(f"attend requires at least one head, got {self.heads}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        if self.tolerance is not None and not self.tolerance > 0:
            raise InputError(f"tolerance must be positive, got {self.tolerance}")


def _parse_cell(token: str, line: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCell(
            f"line {line}, column {column}: {token!r} is not a number"
        ) from None
    if not np.isfinite(value):
        raise NonNumericCell(
            f"line {line}, column {column}: {token!r} is not finite"
        )
    return value


def _read_rows(path: str) -> list[list[str]]:
    # utf-8-sig drops a byte-order mark, which would otherwise prefix the first name.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise InputError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyFile(f"{path} contains no rows")
    return rows


def _parse_numeric_rows(rows: list[list[str]], width: int, first_line: int) -> np.ndarray:
    data = []
    for offset, row in enumerate(rows):
        line = first_line + offset
        if len(row) != width:
            raise RaggedRows(f"line {line} has {len(row)} cells, expected {width}")
        data.append([_parse_cell(tok, line, j + 1) for j, tok in enumerate(row)])
    return np.asarray(data, dtype=float)


def load_csv(path: str, header: bool = True) -> FeatureDataset:
    """Read a feature table: header row of names, then numeric rows.

    With ``header=False`` the names are synthesized as f0, f1, ...
    """
    rows = _read_rows(path)
    if header:
        names = [cell.strip() for cell in rows[0]]
        body, first_line = rows[1:], 2
    else:
        names = [f"f{j}" for j in range(len(rows[0]))]
        body, first_line = rows, 1
    data = _parse_numeric_rows(body, len(names), first_line)
    return FeatureDataset(data, tuple(names))


def load_matrix_csv(path: str, header: bool = True) -> np.ndarray:
    """Read a plain numeric matrix, skipping the header row if present."""
    rows = _read_rows(path)
    body, first_line = (rows[1:], 2) if header else (rows, 1)
    if not body:
        raise EmptyFile(f"{path} has a header but no data rows")
    return _parse_numeric_rows(body, len(rows[0]), first_line)


def _score_features(cfg: RunConfig, ds: FeatureDataset):
    """Run the configured method; returns (scores, alpha, rho)."""
    aff = build_corr_affinity(ds, cfg.beta)
    if cfg.method == "inffs":
        scaling = choose_alpha(aff, cfg.alpha_fraction)
        if cfg.truncation is not None:
            ps = power_series_truncated(aff, scaling.alpha, cfg.truncation)
        else:
            ps = power_series_closed_form(aff, scaling)
        return inffs_scores(ps), scaling.alpha, scaling.rho
    if cfg.method == "ec":
        cv = eigenvector_centrality(aff)
        return cv.values, None, cv.eigenvalue
    cv = pagerank(aff, damping=cfg.damping)
    return cv.values, None, None


def _ranking_payload(cfg: RunConfig, ranking: RankingResult, alpha, rho):
    indices = select_top_k(ranking, cfg.k) if cfg.k is not None else [int(i) for i in ranking.order]
    entries = [
        {
            "name": ranking.feature_names[i],
            "score": float(ranking.scores[i]),
            "rank": position + 1,
        }
        for position, i in enumerate(indices)
    ]
    return {"method": cfg.method, "alpha": alpha, "rho": rho, "scores": entries}


def _serialize_scores(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "score", "rank"])
    for entry in payload["scores"]:
        writer.writerow([entry["name"], repr(entry["score"]), entry["rank"]])
    return buffer.getvalue()


def run_rank(cfg: RunConfig) -> str:
    """Score, rank and serialize the table's features; ``select`` keeps the top ``cfg.k``."""
    ds = load_csv(cfg.input_path, header=not cfg.no_header)
    scores, alpha, rho = _score_features(cfg, ds)
    ranking = rank(scores, ds.feature_names)
    return _serialize_scores(_ranking_payload(cfg, ranking, alpha, rho), cfg.format)


def _seeded_projections(gen: Lcg, d_model: int, heads: int, d_k: int) -> ProjectionSet:
    """Demo projections, uniform on [-0.1, 0.1], drawn in a fixed order.

    Per head: wq then wk then wv, each row-major; wout last. The order
    is part of the CLI contract because it pins golden outputs.
    """
    wq, wk, wv = [], [], []
    for _ in range(heads):
        wq.append(gen.matrix(d_model, d_k, -0.1, 0.1))
        wk.append(gen.matrix(d_model, d_k, -0.1, 0.1))
        wv.append(gen.matrix(d_model, d_k, -0.1, 0.1))
    wout = gen.matrix(heads * d_k, d_model, -0.1, 0.1)
    return ProjectionSet(tuple(wq), tuple(wk), tuple(wv), wout)


def run_attend(cfg: RunConfig) -> str:
    """Seeded multi-head self-attention demo over token embeddings."""
    x = load_matrix_csv(cfg.input_path, header=not cfg.no_header)
    d_model = x.shape[1]
    if d_model % cfg.heads != 0:
        raise DivisibilityError(
            f"d_model {d_model} is not divisible by {cfg.heads} heads"
        )
    d_k = d_model // cfg.heads
    att_cfg = AttentionConfig(d_model=d_model, heads=cfg.heads, d_k=d_k, scale=True)
    proj = _seeded_projections(Lcg(cfg.seed), d_model, cfg.heads, d_k)
    output = multi_head_attention(x, att_cfg, proj)
    head1_scores = scale_scores((x @ proj.wq[0]) @ (x @ proj.wk[0]).T, d_k)
    payload = {
        "heads": cfg.heads,
        "d_model": d_model,
        "seed": cfg.seed,
        "weights_head1": softmax_rows(head1_scores).tolist(),
        "output": output.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def run_verify(cfg: RunConfig) -> tuple[str, bool, str | None]:
    """Equivalence suite report; returns (report, all_passed, first_failure)."""
    checks = verify_mod.run_all(
        seed=cfg.seed, fraction=cfg.alpha_fraction, tolerance=cfg.tolerance
    )
    lines = [
        f"{c.name}: max_error={c.max_error:.6e} tolerance={c.tolerance:.1e} "
        f"{'PASS' if c.passed else 'FAIL'}"
        for c in checks
    ]
    failures = [c.name for c in checks if not c.passed]
    return "\n".join(lines) + "\n", not failures, failures[0] if failures else None


class _Parser(argparse.ArgumentParser):
    # Keep argparse's own failures to one stderr line, matching ours.
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affinitykit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_rank = sub.add_parser("rank", help="score and rank all features")
    p_select = sub.add_parser("select", help="rank and keep the top-k features")
    p_attend = sub.add_parser("attend", help="seeded multi-head attention demo")
    p_verify = sub.add_parser("verify", help="run the equivalence property suite")

    for p in (p_rank, p_select, p_attend):
        p.add_argument("--input", dest="input_path", metavar="PATH", required=True,
                       help="input CSV path")
        p.add_argument("--no-header", action="store_true", help="input has no header row")
    for p in (p_rank, p_select, p_attend, p_verify):
        p.add_argument("--output", dest="output_path", metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=RunConfig.seed,
                       help="RNG seed (default %(default)s)")
    for p in (p_rank, p_select):
        p.add_argument("--format", choices=("json", "csv"), default=RunConfig.format)
        p.add_argument("--method", choices=("inffs", "ec", "pagerank"), default=RunConfig.method)
        p.add_argument("--beta", type=float, default=RunConfig.beta,
                       help="variance vs correlation mix in [0, 1] (default %(default)s)")
        p.add_argument("--damping", type=float, default=RunConfig.damping,
                       help="PageRank damping in (0, 1) (default %(default)s)")
        p.add_argument("--truncation", type=int,
                       help="truncate the path series at this length instead of the closed form")
    for p in (p_rank, p_select, p_verify):
        p.add_argument("--alpha-fraction", type=float, default=RunConfig.alpha_fraction,
                       help="alpha as a fraction of 1/rho (default %(default)s)")
    p_select.add_argument("--k", type=int, required=True, help="number of features to keep")
    p_attend.add_argument("--heads", type=int, default=RunConfig.heads,
                          help="attention heads (default %(default)s)")
    p_verify.add_argument("--tolerance", type=float, help="override every property tolerance")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Options a subcommand lacks are absent from ``args`` and keep the RunConfig default.
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def _emit(report: str, output_path: str | None):
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Overflow surfaces as a stage's own error line, never as a numpy warning on stderr.
    with np.errstate(all="ignore"):
        try:
            cfg = _config_from_args(args)
            if cfg.command == "verify":
                report, passed, first_failure = run_verify(cfg)
                _emit(report, cfg.output_path)
                if not passed:
                    print(f"verification failed: {first_failure}", file=sys.stderr)
                    return EXIT_VERIFY_FAILED
                return EXIT_OK
            _emit(run_attend(cfg) if cfg.command == "attend" else run_rank(cfg), cfg.output_path)
            return EXIT_OK
        except NumericError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC_ERROR
        except (InputError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
