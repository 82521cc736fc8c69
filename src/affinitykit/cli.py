"""Command-line front end.

Subcommands:

* ``rank``    score and rank the features of a CSV table
* ``select``  rank, then keep only the top-k features
* ``attend``  run seeded multi-head attention over token embeddings
* ``verify``  run the cross-module equivalence suite

Reports go to stdout (or ``--output``); every error path prints exactly
one diagnostic line to stderr and exits nonzero. Exit codes: 0 success,
1 verification failure, 2 input error, 3 numeric error, 130 interrupted.
JSON numbers use Python's shortest round-trip float representation, so
emitted scores parse back to the exact double that was computed.
"""

from __future__ import annotations

import argparse
import array
import csv
import io
import itertools
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .affinity import FeatureDataset, build_corr_affinity, build_dot_product_affinity
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for a run ended by Ctrl-C


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


# Lines per chunk of the body that numpy's reader parses in one call.
_CHUNK_ROWS = 64
# ASCII separators that str.isspace() accepts and numpy's reader strips around a
# number, but float() does not.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_row(row: list[str], line: int, width: int) -> list[float]:
    if len(row) != width:
        raise RaggedRows(f"line {line} has {len(row)} cells, expected {width}")
    try:
        values = list(map(float, row))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    # Only a failing row is parsed cell by cell, to name its first bad cell.
    return [_parse_cell(tok, line, j + 1) for j, tok in enumerate(row)]


def _append_rows(lines, first_line: int, width: int, data: array.array, path: str) -> None:
    """The row loop: parse ``lines``, the first of them file line ``first_line``, into ``data``.

    It names the first fault in file order, with its file line: a row of the
    wrong width, a cell ``float()`` rejects or a non-finite cell.
    """
    reader = csv.reader(lines)
    try:
        # Blank lines are skipped; line_num still counts them, so a row keeps its file line.
        for row in filter(None, reader):
            data.fromlist(_parse_row(row, first_line - 1 + reader.line_num, width))
    except csv.Error as exc:
        raise InputError(f"{path}, line {first_line - 1 + reader.line_num}: {exc}") from None


def _raising(exc: Exception):
    """A line source that raises ``exc`` when it is read."""
    raise exc
    yield


def _parse_chunk(lines: list[str], width: int) -> np.ndarray | None:
    """The chunk's rows by numpy's C reader, or None where only the row loop can decide.

    numpy accepts a subset of what ``float()`` accepts, with the same values, so
    None covers every fault and every cell in the rest of ``float()``'s grammar
    (``1_0``, Unicode digits). It also covers what the ``csv`` module reads
    differently or refuses: a quote left open at the chunk's end (numpy closes
    it, csv reads on into the next chunk), a field over csv's size limit and the
    separators above. A block must hold one row per non-blank line.
    """
    rows = len(lines) - lines.count("\n") - lines.count("\r\n") - lines.count("\r")
    if not rows:
        return np.empty((0, width))  # numpy warns on a chunk of blank lines
    text = "".join(lines)
    if (text.count('"') % 2 or max(map(len, lines)) > csv.field_size_limit()
            or any(ch in text for ch in _NOT_FLOAT_SPACE)):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (rows, width) and np.isfinite(block).all() else None


def _read_table(path: str, header: bool) -> tuple[list[str], np.ndarray]:
    """The first row's cells and the numeric body (every row when ``header`` is false).

    The first row is read by ``csv.reader``. The body is parsed in chunks of
    ``_CHUNK_ROWS`` lines by numpy's C reader into one float64 buffer. The row
    loop stays for two things numpy cannot do: ``float()``'s full grammar and
    the error messages, which name the first fault in file order with its file
    line. A chunk numpy rejects is parsed by the row loop from its first line
    to the end of the file, so a bad cell costs one chunk twice.
    """
    data = array.array("d")
    # utf-8-sig drops a byte-order mark, which would otherwise prefix the first name.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            first = next(filter(None, reader), None)
        except csv.Error as exc:
            raise InputError(f"{path}, line {reader.line_num}: {exc}") from None
        if first is None:
            raise EmptyFile(f"{path} contains no rows")
        width, line = len(first), reader.line_num + 1
        if not header:
            data.fromlist(_parse_row(first, reader.line_num, width))
        while True:
            lines = []
            try:
                lines.extend(itertools.islice(handle, _CHUNK_ROWS))
            except UnicodeDecodeError as exc:
                # The row loop meets the undecodable bytes where it would have: after these lines.
                _append_rows(itertools.chain(lines, _raising(exc)), line, width, data, path)
            if not lines:
                break
            block = _parse_chunk(lines, width)
            if block is None:
                _append_rows(itertools.chain(lines, handle), line, width, data, path)
                break
            data.frombytes(block.tobytes())
            line += len(lines)
    if not data:
        raise EmptyFile(f"{path} has a header but no data rows")
    return first, np.frombuffer(data).reshape(-1, width)


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

    Matrices are rendered by ``_floattext.matrix_text``, whole arrays at a
    time, to the same bytes; scalars and keys go through ``json.dumps``.
    """
    # Imported here: only attend loads the formatter.
    from ._floattext import matrix_text

    parts = []
    for key, value in payload.items():
        text = matrix_text(value) if isinstance(value, np.ndarray) else json.dumps(value)
        parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": ", text]
    return "".join(parts + ["\n}\n"])


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
    # By the dot-product builder, whose scan raises where a product overflows: the heads
    # give a key or score that overflows to -inf the weight 0, so their output can be finite.
    q, k = (build_dot_product_affinity(x, w[0].T) for w in (proj.wq, proj.wk))
    head1_scores = scale_scores(build_dot_product_affinity(q, k), d_k)
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
        # numpy.linalg raises a bare MemoryError(); the line still names the failure.
        detail = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else type(exc).__name__)
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR if isinstance(exc, NumericError) else EXIT_INPUT_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
