import concurrent.futures
import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import affinitykit as ak
from affinitykit._floattext import matrix_text
from affinitykit.cli import (
    _append_rows,
    _parse_cell,
    _read_table,
    build_parser,
    load_csv,
    load_matrix_csv,
    main,
    run_attend,
    run_rank,
)
from affinitykit.errors import EmptyFile, InputError, RaggedRows

DATA = Path(__file__).parent / "data"
CORR_FIXTURE = DATA / "corr_fixture.csv"
CHAIN_FIXTURE = DATA / "chain.csv"
TOKENS_FIXTURE = DATA / "tokens_4x4.csv"
ATTEND_GOLDEN = DATA / "attend_golden.json"


def run_cli(*args, text=True):
    return subprocess.run(
        [sys.executable, "-m", "affinitykit", *args],
        capture_output=True,
        text=text,
    )


def run_main(*argv):
    """``main(argv)`` in this process with every warning an error: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_outcome(code, out, err):
    """Exit 0 with an empty stderr, or exit 2 or 3 with no report and one stderr line."""
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 3)
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")


def feature_table_csv(path: Path, samples: int, features: int, seed: int, exponent: int = 0) -> Path:
    """A seeded table of normal columns, every fifth column small integers with many ties,
    scaled by 2**exponent."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((samples, features))
    data[:, ::5] = rng.integers(0, 7, size=(samples, len(range(0, features, 5))))
    data = np.ldexp(data, exponent)
    lines = [",".join(f"f{j}" for j in range(features))]
    lines += [",".join(map(repr, row)) for row in data.tolist()]
    path.write_text("\n".join(lines) + "\n")
    return path


def parse_scores_csv(payload: str) -> dict[str, float]:
    rows = list(csv.DictReader(io.StringIO(payload)))
    return {row["name"]: float(row["score"]) for row in rows}


@pytest.fixture(scope="module")
def constant_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "constant.csv"
    path.write_text("a,b,c\n2,2,2\n2,2,2\n2,2,2\n2,2,2\n")
    return path


class TestLoadCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("x,y,z\n1,2,3\n4,5,6\n")
        ds = load_csv(str(path))
        assert ds.n_samples == 2 and ds.n_features == 3
        assert ds.feature_names == ("x", "y", "z")

    def test_no_header_synthesizes_names(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        ds = load_csv(str(path), header=False)
        assert ds.feature_names == ("f0", "f1")
        assert ds.n_samples == 3

    def test_ragged_row_names_the_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ak.RaggedRows, match="line 3"):
            load_csv(str(path))

    def test_non_numeric_cell_has_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ak.NonNumericCell, match="line 3, column 2"):
            load_csv(str(path))

    @pytest.mark.parametrize(
        "last_row, error, message",
        [("3,x", ak.NonNumericCell, "line 4, column 2"), ("3", ak.RaggedRows, "line 4 has 1 cells")],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, last_row, error, message):
        path = tmp_path / "blank.csv"
        path.write_text(f"a,b\n\n1,2\n{last_row}\n")
        with pytest.raises(error, match=message):
            load_csv(str(path))

    # 1e999 parses: float() overflows it to inf.
    @pytest.mark.parametrize("token", ["inf", "nan", "-Infinity", "1e999"])
    def test_non_finite_cell_rejected(self, tmp_path, token):
        path = tmp_path / "inf.csv"
        path.write_text(f"a,b\n1,2\n{token},4\n")
        with pytest.raises(ak.NonNumericCell, match=f"line 3, column 1: '{token}' is not finite"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ak.EmptyFile):
            load_csv(str(path))

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "sci.csv"
        path.write_text("a,b\n1e-3,2E2\n-1.5e0,4\n")
        ds = load_csv(str(path))
        assert_allclose(ds.data, [[1e-3, 200.0], [-1.5, 4.0]])

    def test_matrix_loader_skips_header(self):
        x = load_matrix_csv(str(TOKENS_FIXTURE), header=True)
        assert x.shape == (4, 4)

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,c\n1,2,3\n2,1,4\n3,3,1\n4,5,2\n")
        assert load_csv(str(path)).feature_names == ("a", "b", "c")
        assert main(["rank", "--input", str(path)]) == 0
        names = {e["name"] for e in json.loads(capsys.readouterr().out)["scores"]}
        assert names == {"a", "b", "c"}

    def test_oversized_field_is_one_line_input_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,2\n3," + "9" * 131073 + "\n5,6\n")
        assert main(["rank", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "long.csv, line 3" in captured.err

    def test_oversized_finite_field_is_one_line_input_error(self, tmp_path, capsys):
        # numpy's reader would read this field as 0.0; the csv module refuses it.
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,2\n3,0." + "0" * 131073 + "1\n5,6\n")
        assert main(["rank", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}, line 3: field larger than field limit")

    def test_two_faults_report_the_first_in_file_order(self, tmp_path, capsys):
        # A bad cell on line 3 and, on line 5, a field over the csv module's size limit.
        path = tmp_path / "two_faults.csv"
        path.write_text("a,b\n1,2\nx,3\n4,5\n6," + "9" * 200000 + "\n")
        assert main(["rank", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3, column 1: 'x' is not a number\n"

    def test_ingest_peak_memory_is_a_small_multiple_of_the_table(self, tmp_path):
        # Rows are parsed as they are read into one float64 buffer: no list of
        # every row's strings or floats is kept. Narrow rows are the hard case.
        for shape in [(1000, 100), (20000, 4)]:
            path = tmp_path / "table.csv"
            x = np.random.default_rng(7).standard_normal(shape)
            path.write_text("".join(",".join(map(repr, row)) + "\n" for row in x.tolist()))
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                data = _read_table(str(path), header=False)[1]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert data.tobytes() == x.tobytes()
            assert peak <= 2 * data.nbytes, shape

    @pytest.mark.parametrize("command", [["rank"], ["select", "--k", "1"], ["attend"]])
    def test_header_only_table_is_one_line_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "names_only.csv"
        path.write_text("a,b\n")
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} has a header but no data rows\n"


class TestRankCommand:
    def test_fixture_matches_in_memory_pipeline(self):
        result = run_cli("rank", "--input", str(CORR_FIXTURE))
        assert result.returncode == 0 and result.stderr == ""
        payload = json.loads(result.stdout)
        args = build_parser().parse_args(["rank", "--input", str(CORR_FIXTURE)])
        expected = json.loads(run_rank(args))
        assert payload == expected

        ds = load_csv(str(CORR_FIXTURE))
        aff = ak.build_corr_affinity(ds, beta=0.5)
        scaling = ak.choose_alpha(aff, 0.5)
        matrix_paths = {
            None: ak.power_series_closed_form(aff, scaling),
            40: ak.power_series_truncated(aff, scaling.alpha, 40),
        }
        for length, path_sum in matrix_paths.items():
            flags = [] if length is None else ["--truncation", str(length)]
            report = json.loads(run_rank(build_parser().parse_args(
                ["rank", "--input", str(CORR_FIXTURE), *flags])))
            by_name = {e["name"]: e["score"] for e in report["scores"]}
            got = np.array([by_name[name] for name in ds.feature_names])
            # repr round-trip is exact
            assert got.tolist() == ak.path_scores(aff, scaling, length).tolist()
            # the N x N path matrix agrees up to rounding
            reference = ak.inffs_scores(path_sum)
            assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_chain_dataset_ranks_hub_first(self):
        result = run_cli("rank", "--input", str(CHAIN_FIXTURE), "--beta", "0")
        payload = json.loads(result.stdout)
        assert payload["scores"][0]["name"] == "b"
        assert payload["scores"][0]["rank"] == 1

    def test_constant_dataset_all_zero_scores_at_beta_one(self, constant_csv):
        # all columns constant: sigma term is zero everywhere at beta=1
        result = run_cli("rank", "--input", str(constant_csv), "--beta", "1")
        payload = json.loads(result.stdout)
        assert [e["score"] for e in payload["scores"]] == [0.0, 0.0, 0.0]
        assert [e["name"] for e in payload["scores"]] == ["a", "b", "c"]

    def test_constant_dataset_ranks_by_index_at_beta_zero(self, constant_csv):
        result = run_cli("rank", "--input", str(constant_csv), "--beta", "0")
        payload = json.loads(result.stdout)
        assert [e["name"] for e in payload["scores"]] == ["a", "b", "c"]

    def test_pagerank_two_features_split_evenly(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,1\n2,3\n3,2\n4,4\n")
        result = run_cli("rank", "--input", str(path), "--method", "pagerank")
        payload = json.loads(result.stdout)
        assert [e["score"] for e in payload["scores"]] == [0.5, 0.5]
        assert payload["alpha"] is None and payload["rho"] is None

    def test_eigenvector_method_reports_eigenvalue(self):
        result = run_cli("rank", "--input", str(CORR_FIXTURE), "--method", "ec")
        payload = json.loads(result.stdout)
        assert payload["alpha"] is None
        assert payload["rho"] is not None and payload["rho"] > 0

    def test_truncation_flag_gives_weighted_degrees(self):
        result = run_cli("rank", "--input", str(CORR_FIXTURE), "--truncation", "1")
        payload = json.loads(result.stdout)
        ds = load_csv(str(CORR_FIXTURE))
        aff = ak.build_corr_affinity(ds, beta=0.5)
        scaling = ak.choose_alpha(aff, 0.5)
        expected = scaling.alpha * aff.matrix.sum(axis=1)
        by_name = {e["name"]: e["score"] for e in payload["scores"]}
        for name, score in zip(ds.feature_names, expected):
            assert abs(by_name[name] - score) <= 1e-14

    def test_no_header_flag(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1,1\n2,3\n3,2\n4,4\n")
        result = run_cli("rank", "--input", str(path), "--no-header")
        payload = json.loads(result.stdout)
        assert {e["name"] for e in payload["scores"]} == {"f0", "f1"}

    @pytest.mark.parametrize(
        "table",
        ["a,b\n1e308,1e308\n1e308,-1e308\n", "a,b,c\n1e308,-1e308,3\n-1e308,1e308,1\n1e308,1e308,2\n"],
    )
    def test_huge_finite_table_ranks(self, tmp_path, capsys, table):
        path = tmp_path / "huge.csv"
        path.write_text(table)
        assert main(["rank", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(np.isfinite(e["score"]) for e in json.loads(captured.out)["scores"])

    @pytest.mark.parametrize("command", [["rank"], ["select", "--k", "2"]], ids=["rank", "select"])
    @pytest.mark.parametrize("flags", [[], ["--truncation", "40"]], ids=["closed_form", "truncated"])
    def test_inffs_builds_no_path_matrix(self, monkeypatch, capsys, command, flags):
        def no_path_matrix(self):
            raise AssertionError("the CLI built an N x N path matrix")

        monkeypatch.setattr(ak.PathSum, "__post_init__", no_path_matrix)
        assert main([*command, "--input", str(CORR_FIXTURE), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["method"] == "inffs"

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("rank", "--input", str(CORR_FIXTURE), "--output", str(out))
        assert result.returncode == 0 and result.stdout == ""
        assert json.loads(out.read_text())["method"] == "inffs"


class TestRankMemory:
    # Bounds over one N x N float64. The correlation builder allocates only the
    # Gram buffer that becomes A, and neither validation nor a later stage copies
    # A, so at 60 x 600 the matvec methods peak near 1.24 times; the closed
    # form's solve forms I - alpha A beside A, near 2.14 times.
    @pytest.mark.parametrize("command,bound", [
        (["rank"], 2.5),
        (["rank", "--truncation", "40"], 1.5),
        (["select", "--k", "5", "--method", "ec"], 1.5),
        (["rank", "--method", "pagerank"], 1.5),
    ], ids=["closed_form", "truncated", "ec", "pagerank"])
    def test_peak_is_a_small_multiple_of_the_affinity(self, tmp_path, capsys, command, bound):
        path = feature_table_csv(tmp_path / "wide.csv", 60, 600, seed=1)
        tracemalloc.start()
        try:
            assert main([*command, "--input", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == ""
        assert peak <= bound * 600 * 600 * 8


class TestBlasThreads:
    @pytest.mark.parametrize("command", [
        ["rank", "--truncation", "40"],
        ["rank", "--method", "pagerank"],
        ["select", "--k", "50", "--method", "ec"],
    ], ids=["truncated", "pagerank", "ec"])
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, command):
        """The matrix-vector forms give the same bytes under 1 and 2 OpenBLAS threads.

        Closed-form ``rank`` is left out: its LAPACK solve blocks by the thread
        count, and its last digits do (a known defect). Two threads differ from
        one only on a machine with at least two cores.
        """
        path = feature_table_csv(tmp_path / "wide.csv", 120, 1000, seed=1)
        outputs = []
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "affinitykit", *command, "--input", str(path)],
                capture_output=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert result.returncode == 0 and result.stderr == b""
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestSerializationContract:
    def test_byte_identical_repeat_runs(self):
        first = run_cli("rank", "--input", str(CORR_FIXTURE), text=False)
        second = run_cli("rank", "--input", str(CORR_FIXTURE), text=False)
        assert first.stdout == second.stdout and first.stdout

    def test_csv_json_round_trip(self):
        as_json = json.loads(run_cli("rank", "--input", str(CORR_FIXTURE)).stdout)
        as_csv = parse_scores_csv(
            run_cli("rank", "--input", str(CORR_FIXTURE), "--format", "csv").stdout
        )
        for entry in as_json["scores"]:
            assert abs(as_csv[entry["name"]] - entry["score"]) <= 1e-12

    def test_csv_rank_column_order(self):
        payload = run_cli("rank", "--input", str(CORR_FIXTURE), "--format", "csv").stdout
        rows = list(csv.DictReader(io.StringIO(payload)))
        assert [r["rank"] for r in rows] == ["1", "2", "3"]


class TestSelectCommand:
    def test_top_two_is_a_prefix_of_rank(self):
        ranked = json.loads(run_cli("rank", "--input", str(CHAIN_FIXTURE), "--beta", "0").stdout)
        selected = json.loads(
            run_cli("select", "--input", str(CHAIN_FIXTURE), "--beta", "0", "--k", "2").stdout
        )
        assert selected["scores"] == ranked["scores"][:2]

    def test_k_required(self):
        result = run_cli("select", "--input", str(CORR_FIXTURE))
        assert result.returncode == 2

    def test_k_out_of_range_is_input_error(self):
        result = run_cli("select", "--input", str(CORR_FIXTURE), "--k", "9")
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1


class TestAttendCommand:
    def test_single_token_weight_is_one(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b\n0.5,1.5\n")
        payload = json.loads(run_cli("attend", "--input", str(path)).stdout)
        assert payload["weights_head1"] == [[1.0]]

    def test_identical_rows_give_uniform_weights(self, tmp_path):
        path = tmp_path / "same.csv"
        path.write_text("a,b\n0.5,1.5\n0.5,1.5\n0.5,1.5\n")
        payload = json.loads(run_cli("attend", "--input", str(path)).stdout)
        weights = np.asarray(payload["weights_head1"])
        assert_allclose(weights, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_golden_file_is_bit_stable(self):
        result = run_cli(
            "attend", "--input", str(TOKENS_FIXTURE), "--heads", "2", "--seed", "7", text=False
        )
        assert result.stdout == ATTEND_GOLDEN.read_bytes()
        again = run_cli(
            "attend", "--input", str(TOKENS_FIXTURE), "--heads", "2", "--seed", "7", text=False
        )
        assert result.stdout == again.stdout

    def test_seed_changes_output(self):
        base = run_cli("attend", "--input", str(TOKENS_FIXTURE), "--seed", "7").stdout
        other = run_cli("attend", "--input", str(TOKENS_FIXTURE), "--seed", "8").stdout
        assert base != other

    def test_indivisible_heads_fail_cleanly(self):
        result = run_cli("attend", "--input", str(TOKENS_FIXTURE), "--heads", "3")
        assert result.returncode == 2
        assert "divisible" in result.stderr

    def test_csv_format_rejected(self):
        result = run_cli("attend", "--input", str(TOKENS_FIXTURE), "--format", "csv")
        assert result.returncode == 2


# The formatter's domain is finite floats (JSON has no NaN or Infinity). Its corner
# floats: a signed zero, the least subnormal and a near-maximal magnitude.
_JSON_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 1e308]))


@st.composite
def _json_matrices(draw):
    rows, cols = draw(st.one_of(st.just((1, 1)), st.tuples(st.just(1), st.integers(1, 6)),
                                st.tuples(st.integers(1, 6), st.just(1)),
                                st.tuples(st.integers(1, 6), st.integers(1, 6))))
    values = draw(st.lists(_JSON_FLOATS, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


class TestAttendSerializer:
    @given(_json_matrices(), _json_matrices())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_the_indenting_encoder(self, weights, output):
        args = build_parser().parse_args(["attend", "--input", str(TOKENS_FIXTURE), "--heads", "2",
                                          "--seed", "5"])
        with mock.patch("affinitykit.cli.softmax_rows", return_value=weights), \
                mock.patch("affinitykit.cli.multi_head_attention", return_value=output):
            text = run_attend(args)
        payload = {"heads": 2, "d_model": 4, "seed": 5,
                   "weights_head1": weights.tolist(), "output": output.tolist()}
        assert text == json.dumps(payload, indent=2) + "\n"


def _json_rows(matrix: np.ndarray) -> str:
    """A matrix as ``json.dumps(payload, indent=2)`` nests it: the C encoder per row."""
    rows = "\n    ],\n    [\n      ".join(
        json.dumps(row)[1:-1].replace(", ", ",\n      ") for row in matrix.tolist()
    )
    return f"[\n    [\n      {rows}\n    ]\n  ]"


def _sweep_values() -> np.ndarray:
    """Over 10^6 seeded finite doubles at the formatter's hard cases."""
    rng = np.random.default_rng(20201)

    def with_neighbours(v):
        v = v[np.isfinite(v)]
        return np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])

    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             np.array([float(f"1e{e}") for e in range(-323, 309)])])
    boundaries = np.concatenate([np.linspace(0.9e-4, 1.1e-4, 20_000), np.linspace(0.9e-5, 1.1e-5, 20_000),
                                 np.linspace(0.9e16, 1.1e16, 20_000)])
    bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
    parts = [
        bits[np.isfinite(bits)],  # bit patterns, the non-finite ones dropped
        rng.integers(1, 2**52, 150_000, dtype=np.uint64).view(np.float64),  # subnormals
        np.arange(1, 20_001, dtype=np.uint64).view(np.float64),  # the least subnormals
        with_neighbours(powers),
        rng.integers(0, 2**53, 150_000).astype(np.float64),  # integers up to 2^53
        np.arange(100_000, dtype=np.float64),
        2.0**53 - np.arange(1, 10_001),
        with_neighbours(boundaries),
        rng.standard_normal(100_000),
        np.array([0.0, -0.0]),
    ]
    values = np.concatenate(parts)
    return np.where(rng.random(values.size) < 0.5, -values, values)


class TestMatrixText:
    def test_every_value_is_spelled_as_repr(self):
        values = _sweep_values()
        assert values.size >= 10**6
        width = 1000
        matrix = np.concatenate([values, np.zeros(-values.size % width)]).reshape(-1, width)
        text = matrix_text(matrix)
        # json.dumps spells a finite float with float.__repr__.
        if text != _json_rows(matrix):
            spelled = [line.strip().rstrip(",") for line in text.splitlines() if line.startswith(" " * 6)]
            expected = [json.dumps(v) for v in matrix.ravel().tolist()]
            wrong = [(e, s) for e, s in zip(expected, spelled) if e != s]
            pytest.fail(f"{len(wrong)} of {len(expected)} values differ from repr, first {wrong[:10]}")

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "one row", "one column"])
    def test_any_layout_gives_the_json_rows(self, layout):
        base = np.random.default_rng(3).standard_normal((40, 60)) * 10.0 ** np.arange(-30, 30)
        matrix = {"C": base, "F": np.asfortranarray(base), "strided": base[::3, 1::2],
                  "one row": base[:1], "one column": base[:, 5:6]}[layout]
        assert matrix_text(matrix) == _json_rows(np.ascontiguousarray(matrix))


class TestVerifyCommand:
    def test_default_run_passes(self):
        result = run_cli("verify")
        assert result.returncode == 0 and result.stderr == ""
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 11 and all(line.endswith("PASS") for line in lines)

    def test_corrupted_tolerance_names_first_failure(self):
        result = run_cli("verify", "--tolerance", "1e-30")
        assert result.returncode == 1
        assert "closed_form_vs_truncated" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_alpha_fraction_one_is_a_clean_input_error(self):
        result = run_cli("verify", "--alpha-fraction", "1.0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.strip().splitlines()) == 1
        assert "so that alpha * rho stays below 1" in result.stderr


# Every ranged option of every subcommand that has it, with values just outside its range.
OUT_OF_RANGE = {
    "--alpha-fraction": (["rank", "select", "verify"], ["0", "1", "nan"]),
    "--beta": (["rank", "select"], ["-0.1", "1.1", "nan"]),
    "--damping": (["rank", "select"], ["0", "1", "inf"]),
    "--truncation": (["rank", "select"], ["0"]),
    "--k": (["select"], ["0"]),
    "--heads": (["attend"], ["0"]),
    "--seed": (["rank", "select", "attend", "verify"], ["-1"]),
    "--tolerance": (["verify"], ["0", "nan"]),
}


class TestOptionRanges:
    @pytest.mark.parametrize(
        "command, option, value",
        [
            (command, option, value)
            for option, (commands, values) in OUT_OF_RANGE.items()
            for command in commands
            for value in [*values, "x"]
        ],
    )
    def test_rejected_by_the_parser(self, tmp_path, capsys, command, option, value):
        out = tmp_path / "report.txt"
        argv = [command, option, value, "--output", str(out)]
        if command != "verify":
            argv += ["--input", str(TOKENS_FIXTURE if command == "attend" else CORR_FIXTURE)]
        if command == "select" and option != "--k":
            argv += ["--k", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: argument {option}: ")
        assert not out.exists()


class TestStartup:
    def test_import_loads_no_scipy(self):
        probe = "import sys, affinitykit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestErrorReporting:
    def test_missing_file(self):
        result = run_cli("rank", "--input", "does_not_exist.csv")
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.strip().splitlines()) == 1

    def test_ragged_file(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        result = run_cli("rank", "--input", str(path))
        assert result.returncode == 2
        assert "line 3" in result.stderr

    def test_single_feature_file(self, tmp_path):
        path = tmp_path / "one_col.csv"
        path.write_text("a\n1\n2\n")
        result = run_cli("rank", "--input", str(path))
        assert result.returncode == 2

    def test_overflowing_tokens_are_one_line_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,b\n1e308,1e308\n1e308,-1e308\n")
        # Two heads run on the pool's worker threads, under the CLI's error state too.
        for heads in ([], ["--heads", "2"]):
            result = run_cli("attend", "--input", str(path), *heads)
            assert result.returncode == 2
            assert result.stdout == ""
            assert len(result.stderr.strip().splitlines()) == 1

    def test_memory_error_is_one_line_input_error(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (31623, 31623)")

        monkeypatch.setattr("affinitykit.cli.build_corr_affinity", exhausted)
        assert main(["rank", "--input", str(CORR_FIXTURE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.45 GiB for an array with shape (31623, 31623)\n"

    def test_bare_memory_error_names_the_failure(self, monkeypatch, capsys):
        # numpy.linalg.solve raises MemoryError() with no message.
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("affinitykit.cli.path_scores", exhausted)
        assert main(["rank", "--input", str(CORR_FIXTURE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_unknown_flag_is_one_line(self):
        result = run_cli("rank", "--bogus")
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1


# Cells a CSV writer or a hand-edited file could hold: numbers of every
# magnitude, tokens float() reads but a naive parser would not (or the
# reverse), quoting, a byte-order mark, and arbitrary short text.
_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
_CELLS = st.one_of(
    _NUMBERS,
    st.sampled_from(["", " ", "1e999", "-1e308", "nan", "inf", "1_0", "\uff11", "0x10",
                     '"1"', '"a,b"', '"1\n2"', '"', "a", "\ufeff1", "\x00"]),
    st.text(max_size=4),
)


@st.composite
def _csv_texts(draw):
    """A header row, then a numeric body or rows of numbers, mixed cells or any width."""
    width = draw(st.integers(1, 4))
    numeric, mixed = (st.lists(cells, min_size=width, max_size=width) for cells in (_NUMBERS, _CELLS))
    header = draw(st.one_of(st.just([f"f{j}" for j in range(width)]), mixed))
    body = draw(st.one_of(st.lists(numeric, min_size=2, max_size=6),
                          st.lists(st.one_of(numeric, mixed, st.lists(_CELLS, max_size=5)), max_size=6)))
    rows = [header, *body]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(",".join(cells) for cells in rows) + draw(st.sampled_from(["", newline]))


_FUZZ_COMMANDS = [
    ["rank"], ["rank", "--method", "ec"], ["rank", "--method", "pagerank", "--format", "csv"],
    ["rank", "--truncation", "3"], ["select", "--k", "2"], ["attend"], ["attend", "--heads", "2"],
]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.csv"


class TestNoTraceback:
    @given(
        st.one_of(_csv_texts().map(lambda text: text.encode("utf-8")), st.binary(max_size=64)),
        st.sampled_from(_FUZZ_COMMANDS),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_input_exits_0_2_or_3_with_one_line_on_failure(self, fuzz_path, content, command,
                                                               no_header):
        fuzz_path.write_bytes(content)
        argv = [*command, "--input", str(fuzz_path)] + (["--no-header"] if no_header else [])
        assert_one_outcome(*run_main(*argv))


# The three one-column tokens, seed 0, whose head-1 scores span +-1.2e308: the
# softmax's row-max subtraction overflows, to a weight of exactly 0.
SPAN_TOKENS = "a\n1.336306147288432e+155\n-1.336306147288432e+155\n6.68153073644216e+154\n"


class TestNumpyErrorState:
    def test_stages_run_under_numpys_default_error_state(self, monkeypatch):
        seen, build = [], ak.cli.build_corr_affinity

        def probe(*args):
            seen.append(np.geterr())
            return build(*args)

        monkeypatch.setattr("affinitykit.cli.build_corr_affinity", probe)
        assert run_main("rank", "--input", str(CORR_FIXTURE))[0] == 0
        assert seen == [{"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}]

    def test_scores_spanning_past_the_largest_double_give_the_exact_weights(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text(SPAN_TOKENS)
        expected = {
            "heads": 1, "d_model": 1, "seed": 0,
            "weights_head1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
            "output": [[-5.561298690933365e+151], [5.561298690933365e+151], [-5.561298690933365e+151]],
        }
        code, out, err = run_main("attend", "--heads", "1", "--seed", "0", "--input", str(path))
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_head1_products_raise_where_they_overflow(self, tmp_path, monkeypatch):
        # The heads give a key or score that overflows to -inf the weight 0, so their
        # output can be finite; the head-1 report then raises where its product overflows.
        monkeypatch.setattr("affinitykit.cli.multi_head_attention",
                            lambda x, cfg, proj: np.zeros(x.shape))
        path = tmp_path / "wide.csv"
        path.write_text("\n".join([",".join(["c"] * 64)] + [",".join(["1.7e308"] * 64)] * 2) + "\n")
        code, out, err = run_main("attend", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(" contains NaN or infinite entries\n")

    def test_a_score_that_overflows_in_a_head_is_named_by_the_hop(self, tmp_path):
        # q k^T overflows to +inf in head 1's hop, and the softmax's row sums raise.
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n1e160,1e160\n-1e160,2e160\n5e159,1e160\n")
        code, out, err = run_main("attend", "--heads", "1", "--seed", "0", "--input", str(path))
        assert (code, out, err) == (
            2, "", "error: softmax scores contain NaN, +inf or a row with no finite entry\n")


def strict_json(text: str):
    """``json.loads`` that fails on ``NaN``, ``Infinity`` and ``-Infinity``, which JSON lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestAttendWritesStrictJson:
    """attend's report is strict JSON: every value it prints is finite."""

    @pytest.mark.parametrize("case", ["golden", "span", "seeded_64x64"])
    def test_report_parses_without_nan_or_infinity(self, tmp_path, case):
        path, argv = tmp_path / "tokens.csv", ["--heads", "8", "--seed", "3"]
        if case == "golden":
            path, argv = TOKENS_FIXTURE, ["--heads", "2", "--seed", "7"]
        elif case == "span":  # head-1 weights of exactly 0.0
            path.write_text(SPAN_TOKENS)
            argv = ["--heads", "1", "--seed", "0"]
        else:
            table = np.random.default_rng(64).standard_normal((64, 64))
            np.savetxt(path, table, delimiter=",", header=",".join(["c"] * 64), comments="")
        code, out, err = run_main("attend", *argv, "--input", str(path))
        assert (code, err) == (0, "")
        payload = strict_json(out)
        rows = len(payload["output"])
        assert np.shape(payload["weights_head1"]) == (rows, rows)
        if case == "golden":
            assert out.encode() == ATTEND_GOLDEN.read_bytes()
        if case == "span":
            assert 0.0 in np.ravel(payload["weights_head1"])


_SCALED_COMMANDS = [
    ["rank"], ["rank", "--truncation", "40"], ["rank", "--method", "ec"],
    ["rank", "--method", "pagerank"], ["rank", "--beta", "0"], ["rank", "--beta", "1"],
    ["select", "--k", "2"],
]


class TestEveryCommandAtEveryScale:
    """Every subcommand in process, every warning an error: exit 0 with an empty
    stderr, or 2 or 3 with one line."""

    @pytest.mark.parametrize("exponent", [-1070, -500, 0, 500, 1020])
    @pytest.mark.parametrize("command", _SCALED_COMMANDS, ids=" ".join)
    def test_rank_and_select(self, tmp_path, command, exponent):
        path = feature_table_csv(tmp_path / "scaled.csv", 40, 6, seed=5, exponent=exponent)
        code, out, err = run_main(*command, "--input", str(path))
        assert_one_outcome(code, out, err)
        if -1022 < exponent:  # an exact scaling leaves the ranks and spreads, so A, unchanged
            unscaled = feature_table_csv(tmp_path / "unscaled.csv", 40, 6, seed=5)
            assert (code, out) == run_main(*command, "--input", str(unscaled))[:2]

    # SPAN_TOKENS at one head: TestNumpyErrorState, which also pins the bytes.
    @pytest.mark.parametrize("tokens, argv, expected_code", [
        # Head 1 of two at seed 3 spans +-1.17e308.
        ("a,b\n1.8e155,0\n-1.8e155,0\n9e154,0\n", ["--heads", "2", "--seed", "3"], 0),
        ("a,b\n1e308,1e308\n1e308,-1e308\n", ["--heads", "1"], 2),
        ("a,b\n1e308,1e308\n1e308,-1e308\n", ["--heads", "2"], 2),
        # A head-1 score overflows to -inf at seed 1; the output is finite.
        ("a\n1e160\n1\n", ["--heads", "1", "--seed", "1"], 2),
    ], ids=["span_2_heads", "overflow_1_head", "overflow_2_heads", "minus_inf_score"])
    def test_attend(self, tmp_path, tokens, argv, expected_code):
        path = tmp_path / "tokens.csv"
        path.write_text(tokens)
        code, out, err = run_main("attend", *argv, "--input", str(path))
        assert code == expected_code
        assert_one_outcome(code, out, err)

    @pytest.mark.parametrize("fraction", ["0.5", "0.9", "0.995"])
    def test_verify(self, fraction):
        code, out, err = run_main("verify", "--alpha-fraction", fraction)
        assert (code, err) == (0, "")
        assert out.count("PASS") == len(out.splitlines())


class TestInterrupt:
    def test_interrupt_is_one_line_and_code_130(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("affinitykit.cli.build_corr_affinity", interrupted)
        assert run_main("rank", "--input", str(CORR_FIXTURE)) == (130, "", "error: interrupted\n")

    @staticmethod
    def signal_inside_a_stage_of_a_child(name):
        """(exit code, stdout, stderr) of a child ``rank`` whose affinity stage raises
        signal ``name`` in itself, so no timing is involved."""
        script = (
            "import signal, sys\n"
            "from affinitykit import cli\n"
            "build = cli.build_corr_affinity\n"
            "def stage(*args):\n"
            f"    signal.raise_signal(signal.{name})\n"
            "    return build(*args)\n"
            "cli.build_corr_affinity = stage\n"
            f"sys.exit(cli.main(['rank', '--input', {str(CORR_FIXTURE)!r}]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                timeout=120)
        return result.returncode, result.stdout, result.stderr

    def test_sigint_inside_a_stage_of_a_child(self):
        assert self.signal_inside_a_stage_of_a_child("SIGINT") == (130, "", "error: interrupted\n")

    def test_sigterm_inside_a_stage_of_a_child(self):
        assert self.signal_inside_a_stage_of_a_child("SIGTERM") == (143, "", "error: terminated\n")

    def test_the_callers_sigterm_handler_is_back_after_a_call(self):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            assert run_main("rank", "--input", str(CORR_FIXTURE))[0] == 0
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_a_call_off_the_main_thread_sets_no_handler(self):
        # signal.signal raises ValueError off the main thread; main must not call it there.
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            code, out, err = pool.submit(run_main, "rank", "--input", str(CORR_FIXTURE)).result()
        assert (code, err) == (0, "")


def _read_table_per_cell(path, header):
    """The reference reader: every cell of every row through ``_parse_cell``, rows in file order."""
    first, data = None, []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not row:
                    continue
                if first is None:
                    first = row
                    if header:
                        continue
                line = reader.line_num
                if len(row) != len(first):
                    raise RaggedRows(f"line {line} has {len(row)} cells, expected {len(first)}")
                data.append([_parse_cell(tok, line, j + 1) for j, tok in enumerate(row)])
        except csv.Error as exc:  # Python 3.10's reader rejects NUL
            raise InputError(f"{path}, line {reader.line_num}: {exc}") from None
    if not data:
        raise EmptyFile(f"{path} has a header but no data rows")
    return first, np.asarray(data, dtype=float)


def _outcome(read, path, header):
    try:
        first, data = read(path, header)
    except Exception as exc:
        return type(exc), str(exc)
    return first, data.shape, data.tobytes()


# The cell forms a CSV reader must agree on beside plain numbers: exponents,
# surrounding whitespace, underscores, Unicode digits, quoting (also left
# open, or around a line break) and non-finite values.
_INGEST_CELLS = st.one_of(
    _NUMBERS,
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6e}"),
    _NUMBERS.map(lambda t: f" {t}\t"),
    _NUMBERS.map(lambda t: f'"{t}"'),
    st.sampled_from(["1_0", "1_000.5", "\uff11", "\u0661\u0662", "nan", "-inf", "1e999", "Infinity",
                     '"1"2', '""1', '"1', '1"', '" 2\n"', "\x1c1"]),
    _CELLS,
)


@st.composite
def _tables(draw):
    """A header, then rows of its width, ragged rows, blank and whitespace-only
    lines, joined by one newline form, after an optional byte-order mark."""
    width = draw(st.integers(1, 4))
    rows = st.one_of(
        st.lists(_NUMBERS, min_size=width, max_size=width),
        st.lists(_INGEST_CELLS, min_size=width, max_size=width),
        st.lists(_INGEST_CELLS, max_size=5),
        st.sampled_from([[], [" "], ["\t "]]),
    )
    lines = [[f"f{j}" for j in range(width)], *draw(st.lists(rows, min_size=1, max_size=8))]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(",".join(cells) for cells in lines) + newline


class TestRowWiseIngest:
    @given(_tables(), st.booleans())
    @example("f0,f1\n1,2\n1e999,x\n", True)  # a non-finite cell before a non-numeric one
    @example("f0,f1\n1_0,\uff11\n 1 ,nan\n", True)
    @example("f0\n\n", True)  # a chunk of blank lines: numpy would warn
    @example('f0,f1\n1,2\n3," 4\n"\n', True)  # a quoted line break across a chunk boundary
    @example("f0,f1\n1,\x1c2\n", True)  # numpy strips \x1c around a number; float() does not
    @settings(max_examples=200, deadline=None)
    def test_same_bits_or_error_as_per_cell_parse(self, fuzz_path, text, header):
        fuzz_path.write_bytes(text.encode("utf-8"))
        # Two-line chunks: every table spans several, and faults fall on both sides of a boundary.
        with mock.patch("affinitykit.cli._CHUNK_ROWS", 2), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            outcome = _outcome(_read_table, fuzz_path, header)
        assert outcome == _outcome(_read_table_per_cell, fuzz_path, header)


def _benchmark_shaped_csv(path, samples, features, tied, quoted=False, newline="\n"):
    """A seeded table as the benchmark writes it: normal columns by ``str``, with
    every fifth column small integers when ``tied``. Returns the values."""
    rng = np.random.default_rng([samples, features])
    data = rng.standard_normal((samples, features))
    if tied:
        data[:, ::5] = rng.integers(0, 7, size=(samples, len(range(0, features, 5))))
    rows = data.tolist()
    if tied:
        for row in rows:
            row[::5] = map(int, row[::5])
    cells = [[f"f{j}" for j in range(features)], *([str(v) for v in row] for row in rows)]
    if quoted:
        cells = [[f'"{cell}"' for cell in row] for row in cells]
    path.write_bytes("".join(",".join(row) + newline for row in cells).encode("ascii"))
    return data


class TestRowLoopIsAFallback:
    """numpy's reader parses every row of a clean table; the row loop runs only
    from a chunk numpy rejects."""

    @pytest.mark.parametrize("samples, features, tied, quoted, newline", [
        (120, 1000, True, False, "\n"),
        (2000, 200, True, False, "\n"),
        (512, 512, False, False, "\n"),
        (2000, 200, True, True, "\r\n"),
    ], ids=["wide", "tall", "tokens", "tall_quoted_crlf"])
    def test_a_clean_table_never_enters_the_row_loop(self, tmp_path, samples, features, tied,
                                                      quoted, newline):
        path = tmp_path / "table.csv"
        data = _benchmark_shaped_csv(path, samples, features, tied, quoted, newline)
        with mock.patch("affinitykit.cli._append_rows", side_effect=AssertionError) as loop:
            first, body = _read_table(str(path), True)
        assert loop.call_count == 0
        assert first == [f"f{j}" for j in range(features)]
        assert body.tobytes() == data.tobytes()

    def test_an_underscore_sends_the_body_through_the_row_loop_once(self, tmp_path):
        path = tmp_path / "table.csv"
        _benchmark_shaped_csv(path, 2000, 200, True)
        header, first_row, rest = path.read_text().split("\n", 2)
        path.write_text("\n".join([header, "1_0" + first_row[first_row.index(","):], rest]))
        with mock.patch("affinitykit.cli._append_rows", wraps=_append_rows) as loop:
            outcome = _outcome(_read_table, path, True)
        assert loop.call_count == 1
        assert outcome[1] == (2000, 200)
        assert outcome == _outcome(_read_table_per_cell, path, True)
