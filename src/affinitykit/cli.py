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
import math
import sys

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
from .propagate import eigenvector_centrality, pagerank, path_scores
from .rng import Lcg
from .selection import rank, select_top_k

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _parse_cell(token: str, line: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCell(
            f"line {line}, column {column}: {token!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise NonNumericCell(
            f"line {line}, column {column}: {token!r} is not finite"
        )
    return value


def _read_table(path: str, header: bool) -> tuple[list[str], np.ndarray]:
    """The first row's cells and the numeric body (every row when ``header`` is false).

    Rows are parsed as they are read, so the first fault in file order is the one reported.
    """
    first, data = None, []
    # utf-8-sig drops a byte-order mark, which would otherwise prefix the first name.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            # Blank lines are skipped; line_num still counts them, so a row keeps its file line.
            for row in filter(None, reader):
                if first is None:
                    first = row
                    if header:
                        continue
                line = reader.line_num
                if len(row) != len(first):
                    raise RaggedRows(f"line {line} has {len(row)} cells, expected {len(first)}")
                try:
                    values = list(map(float, row))
                    parsed = all(map(math.isfinite, values))
                except ValueError:
                    parsed = False
                if not parsed:
                    # Only a failing row is parsed cell by cell, to name its first bad cell.
                    values = [_parse_cell(tok, line, j + 1) for j, tok in enumerate(row)]
                data.append(values)
        except csv.Error as exc:
            raise InputError(f"{path}, line {reader.line_num}: {exc}") from None
    if first is None:
        raise EmptyFile(f"{path} contains no rows")
    if not data:
        raise EmptyFile(f"{path} has a header but no data rows")
    return first, np.asarray(data, dtype=float)


def load_csv(path: str, header: bool = True) -> FeatureDataset:
    """Read a feature table: header row of names, then numeric rows.

    With ``header=False`` the names are synthesized as f0, f1, ...
    """
    first, data = _read_table(path, header)
    names = [cell.strip() for cell in first] if header else [f"f{j}" for j in range(len(first))]
    return FeatureDataset(data, tuple(names))


def load_matrix_csv(path: str, header: bool = True) -> np.ndarray:
    """Read a plain numeric matrix, skipping the header row if present."""
    return _read_table(path, header)[1]


def _score_features(args: argparse.Namespace, ds: FeatureDataset):
    """Run the configured method; returns (scores, alpha, rho)."""
    aff = build_corr_affinity(ds, args.beta)
    if args.method == "inffs":
        scaling = choose_alpha(aff, args.alpha_fraction)
        return path_scores(aff, scaling, args.truncation), scaling.alpha, scaling.rho
    if args.method == "ec":
        cv = eigenvector_centrality(aff)
        return cv.values, None, cv.eigenvalue
    cv = pagerank(aff, damping=args.damping)
    return cv.values, None, None


def _serialize_scores(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "score", "rank"])
    for entry in payload["scores"]:
        writer.writerow([entry["name"], repr(entry["score"]), entry["rank"]])
    return buffer.getvalue()


def run_rank(args: argparse.Namespace) -> str:
    """Score, rank and serialize the table's features; ``select`` keeps the top ``args.k``."""
    ds = load_csv(args.input_path, header=not args.no_header)
    scores, alpha, rho = _score_features(args, ds)
    ranking = rank(scores, ds.feature_names)
    indices = ranking.order if args.k is None else select_top_k(ranking, args.k)
    entries = [
        {"name": ranking.feature_names[i], "score": float(ranking.scores[i]), "rank": position + 1}
        for position, i in enumerate(indices)
    ]
    payload = {"method": args.method, "alpha": alpha, "rho": rho, "scores": entries}
    return _serialize_scores(payload, args.format)


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


def _dumps_indented(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` for a flat object whose values
    are scalars or matrices with at least one row and one column.

    ``json.dumps`` takes its C encoder only without ``indent``, so each
    matrix row is encoded flat and then broken into indented lines; float
    ``repr`` never contains ``", "``. NaN and infinities are spelled as the
    indenting encoder spells them.
    """
    items = []
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            rows = "\n    ],\n    [\n      ".join(
                json.dumps(row)[1:-1].replace(", ", ",\n      ") for row in value.tolist()
            )
            text = f"[\n    [\n      {rows}\n    ]\n  ]"
        else:
            text = json.dumps(value)
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def run_attend(args: argparse.Namespace) -> str:
    """Seeded multi-head self-attention demo over token embeddings."""
    x = load_matrix_csv(args.input_path, header=not args.no_header)
    d_model = x.shape[1]
    if d_model % args.heads != 0:
        raise DivisibilityError(
            f"d_model {d_model} is not divisible by {args.heads} heads"
        )
    d_k = d_model // args.heads
    att_cfg = AttentionConfig(d_model=d_model, heads=args.heads, d_k=d_k, scale=True)
    proj = _seeded_projections(Lcg(args.seed), d_model, args.heads, d_k)
    output = multi_head_attention(x, att_cfg, proj)
    head1_scores = scale_scores((x @ proj.wq[0]) @ (x @ proj.wk[0]).T, d_k)
    payload = {
        "heads": args.heads,
        "d_model": d_model,
        "seed": args.seed,
        "weights_head1": softmax_rows(head1_scores),
        "output": output,
    }
    return _dumps_indented(payload)


def run_verify(args: argparse.Namespace) -> tuple[str, bool, str | None]:
    """Equivalence suite report; returns (report, all_passed, first_failure)."""
    checks = verify_mod.run_all(
        seed=args.seed, fraction=args.alpha_fraction, tolerance=args.tolerance
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


def _ranged(convert, low, high, requirement: str):
    """An argparse ``type=`` that converts the token and requires ``low <= value <= high``.

    The chained comparison is false for NaN, so NaN is outside every range.
    """
    def parse(token: str):
        value = convert(token)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value: 'x'"
    return parse


# Open bounds as closed ones: the floats just inside 0 and 1.
_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affinitykit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_rank = sub.add_parser("rank", help="score and rank all features")
    p_select = sub.add_parser("select", help="rank and keep the top-k features")
    p_attend = sub.add_parser("attend", help="seeded multi-head attention demo")
    p_verify = sub.add_parser("verify", help="run the equivalence property suite")
    at_least_1 = _ranged(int, 1, math.inf, "must be at least 1")

    for p in (p_rank, p_select, p_attend):
        p.add_argument("--input", dest="input_path", metavar="PATH", required=True,
                       help="input CSV path")
        p.add_argument("--no-header", action="store_true", help="input has no header row")
    for p in (p_rank, p_select, p_attend, p_verify):
        p.add_argument("--output", dest="output_path", metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--seed", type=_ranged(int, 0, math.inf, "must be nonnegative"), default=0,
                       help="RNG seed (default %(default)s)")
    for p in (p_rank, p_select):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--method", choices=("inffs", "ec", "pagerank"), default="inffs")
        p.add_argument("--beta", type=_ranged(float, 0.0, 1.0, "must lie in [0, 1]"), default=0.5,
                       help="variance vs correlation mix in [0, 1] (default %(default)s)")
        p.add_argument("--damping", type=_ranged(float, _ABOVE_0, _BELOW_1, "must lie in (0, 1)"),
                       default=0.85, help="PageRank damping in (0, 1) (default %(default)s)")
        p.add_argument("--truncation", type=at_least_1,
                       help="truncate the path series at this length instead of the closed form")
    for p in (p_rank, p_select, p_verify):
        p.add_argument("--alpha-fraction", default=0.5,
                       type=_ranged(float, _ABOVE_0, _BELOW_1, "must lie strictly inside (0, 1) "
                                    "so that alpha * rho stays below 1"),
                       help="alpha as a fraction of 1/rho (default %(default)s)")
    p_rank.set_defaults(k=None)  # rank reports every feature
    p_select.add_argument("--k", type=at_least_1, required=True, help="number of features to keep")
    p_attend.add_argument("--heads", type=at_least_1, default=1,
                          help="attention heads (default %(default)s)")
    p_verify.add_argument("--tolerance", type=_ranged(float, _ABOVE_0, math.inf, "must be positive"),
                          help="override every property tolerance")
    return parser


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
            if args.command == "verify":
                report, passed, first_failure = run_verify(args)
                _emit(report, args.output_path)
                if not passed:
                    print(f"verification failed: {first_failure}", file=sys.stderr)
                    return EXIT_VERIFY_FAILED
                return EXIT_OK
            _emit(run_attend(args) if args.command == "attend" else run_rank(args), args.output_path)
            return EXIT_OK
        # A table too large for the N x N affinity is an input error, not a crash.
        except (NumericError, InputError, ValueError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC_ERROR if isinstance(exc, NumericError) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
