"""Self-tests of the benchmark harness: span arithmetic, oracle, pass/fail rule.

Run with: python -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import inputs, oracle, spans  # noqa: E402
from harness.ops import Judge, Op, Position, Record, cycle_ops, output_digest  # noqa: E402


def span(name, start, end, parent=None, kind="ok", group=""):
    return [name, float(start), float(end), parent, kind, group]


def test_self_time_subtracts_the_union_of_child_spans():
    nested = [
        span("cli.self", 0, 10),
        span("affinity.corr", 1, 4, parent=0),
        span("normalize.spectral", 2, 3, parent=1),
        span("propagate.closed", 3, 6, parent=0),  # overlaps its sibling: covered once
        span("selection.rank", 8, 9, parent=0),
    ]
    assert spans.self_times(nested) == [4.0, 2.0, 1.0, 3.0, 1.0]
    rows = spans.share_rows(nested)
    assert rows["cli.self"] == 4.0 and rows["affinity"] == 2.0 and rows["propagate"] == 3.0
    assert sum(rows.values()) == 11.0  # self times add up to the root plus the overlap


def test_group_share_rows_keep_only_that_groups_spans():
    nested = [
        span("cli.self", 0, 4, group="tall"),
        span("cli.ingest", 1, 3, parent=0, group="tall"),
        span("cli.self", 4, 10, group="attend"),
        span("rng.draw", 5, 8, parent=2, group="attend"),
    ]
    tall, attend = spans.share_rows(nested, "tall"), spans.share_rows(nested, "attend")
    assert tall["cli.self"] == 2.0 and tall["cli.ingest"] == 2.0 and tall["rng"] == 0.0
    assert attend["cli.self"] == 3.0 and attend["rng"] == 3.0 and attend["cli.ingest"] == 0.0
    whole = spans.share_rows(nested)
    assert all(whole[row] == tall[row] + attend[row] for row in whole)


def test_same_name_nesting_counts_once_and_reject_ingest_is_separate():
    nested = [
        span("normalize.spectral", 0, 5),
        span("normalize.spectral", 1, 4, parent=0),  # choose_alpha -> spectral_radius
        span("cli.ingest", 5, 7),
        span("cli.ingest", 7, 10, kind="reject"),
    ]
    metrics = spans.cycle_metrics(nested, {"ingest_bytes.ok": 4e6})
    assert metrics["normalize.spectral_s"] == 5.0
    assert metrics["normalize.calls"] == 2.0
    assert metrics["cli.ingest_s"] == 2.0 and metrics["cli.reject_s"] == 3.0
    assert metrics["cli.ingest_mb_per_s"] == 2.0


def test_installed_spans_see_module_global_calls_and_are_removed_after():
    ak = pytest.importorskip("affinitykit")
    attention_module = sys.modules["affinitykit.attention"]  # the package attribute is the function

    original = attention_module.softmax_rows
    recorder = spans.Recorder()
    x = np.arange(12.0).reshape(4, 3) / 10
    with spans.installed(recorder):
        ak.attention(x, x, x)
    assert attention_module.softmax_rows is original
    names = [s[0] for s in recorder.spans]
    assert names[0] == "attention.attention"
    assert {"affinity.dot", "normalize.softmax", "propagate.aggregate"} <= set(names)
    assert all(s[3] == 0 for s in recorder.spans[1:] if s[0] != "attention.attention")


def test_average_ranks_match_brute_force_with_ties():
    data = np.array([[3.0, 1.0], [1.0, 1.0], [3.0, 2.0], [2.0, 1.0]])
    expected = np.array([[3.5, 2.0], [1.0, 2.0], [3.5, 4.0], [2.0, 2.0]])
    assert np.array_equal(oracle.average_ranks(data), expected)


def test_vectorized_mmix_matches_the_scalar_recurrence():
    state, scalar = 12345, []
    for _ in range(50):
        state = (oracle.MMIX_MULTIPLIER * state + oracle.MMIX_INCREMENT) % 2**64
        scalar.append(-0.1 + 0.2 * ((state >> 11) * 2.0**-53))
    assert np.array_equal(oracle.mmix_uniform(12345, 50, -0.1, 0.1, block=8), np.array(scalar))


def _ranking(seed=0):
    rng = np.random.default_rng(seed)
    data, _ = inputs.feature_table(rng, 30, 12)
    a = oracle.corr_affinity(data, 0.5)
    ref = oracle.closed_form_scores(a, 0.5 / oracle.perron_root(a))
    names = [f"f{j}" for j in range(12)]
    entries = [(names[i], float(ref[i]), r + 1) for r, i in enumerate(np.argsort(-ref, kind="stable"))]
    return a, ref, names, entries


def test_oracle_series_agree_and_accept_exact_scores():
    a, ref, names, entries = _ranking()
    alpha = 0.5 / oracle.perron_root(a)
    matrix = np.linalg.inv(np.eye(len(names)) - alpha * a) - np.eye(len(names))
    assert np.allclose(ref, matrix.sum(axis=1), rtol=1e-12)
    assert np.allclose(oracle.truncated_scores(a, alpha, 80), ref, rtol=1e-12)
    assert oracle.check_scores(entries, names, ref) is None
    assert oracle.check_scores(entries[:5], names, ref, k=5) is None


def test_oracle_rejects_a_perturbed_score_and_a_wrong_order():
    _, ref, names, entries = _ranking()
    name, score, rank = entries[3]
    perturbed = entries[:3] + [(name, score * (1 + 1e-6), rank)] + entries[4:]
    assert "differs from oracle" in oracle.check_scores(perturbed, names, ref)
    swapped = [(n, s, r) for (n, s, _), r in zip([entries[1], entries[0]] + entries[2:], range(1, 13))]
    assert "outranks" in oracle.check_scores(swapped, names, ref)


def test_verify_report_with_a_failed_property_is_rejected():
    good = "a: max_error=1.0e-15 tolerance=1.0e-12 PASS\nb: max_error=0.0e+00 tolerance=1.0e-14 PASS\n"
    assert oracle.verify_failures(good) == (None, 0)
    bad = good.replace("1.0e-15 tolerance=1.0e-12 PASS", "1.0e-10 tolerance=1.0e-12 FAIL")
    assert oracle.verify_failures(bad) == ("1 properties failed", 1)


def _write(tmp_path, op, data):
    (tmp_path / f"{op.key}.stdout").write_bytes(data)
    return output_digest(str(tmp_path), op)


def test_determinism_check_flags_a_changed_byte(tmp_path):
    op = Op("rank@0")
    judge = Judge(str(tmp_path), {op.key: lambda blob: None})
    assert judge(op, Record(op.key, 0, "", _write(tmp_path, op, b'{"score": 0.5}\n'), 1.0)) is None
    changed = _write(tmp_path, op, b'{"score": 0.6}\n')
    assert "differ" in judge(op, Record(op.key, 0, "", changed, 1.0))


def test_expected_error_needs_exactly_one_stderr_line(tmp_path):
    op = Op("bad@0", kind="reject", expect_code=2, stderr_has="line 9, column 4:")
    judge = Judge(str(tmp_path), {op.key: lambda blob: None if not blob else "report written"})
    digest = _write(tmp_path, op, b"")
    one = "error: line 9, column 4: '1.2.3' is not a number\n"
    assert judge(op, Record(op.key, 2, one, digest, 1.0)) is None
    two = "warning: something\n" + one
    assert "2 stderr lines" in judge(op, Record(op.key, 2, two, digest, 1.0))
    assert "exit code 1" in judge(op, Record(op.key, 1, one, digest, 1.0))
    assert "unexpected stderr" in Judge(str(tmp_path))(Op("ok"), Record("ok", 0, "oops\n", "", 1.0))


def test_cycles_rotate_pool_inputs_so_consecutive_ops_differ():
    table = Position("table", (Op("a@0"), Op("a@1")))
    other = Position("table", (Op("b@0"), Op("b@1")))
    single = Position("seed", (Op("v"),))
    keys = [[op.key for op in cycle_ops([table, other, single], c)] for c in range(3)]
    assert keys == [["a@0", "b@1", "v"]] * 3
    keys = [[op.key for op in cycle_ops([table, single], c)] for c in range(3)]
    assert keys == [["a@0", "v"], ["a@1", "v"], ["a@0", "v"]]
