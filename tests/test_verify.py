import numpy as np

import affinitykit as ak
from affinitykit import verify
from affinitykit import _floattext
from affinitykit._floattext import matrix_text
from affinitykit.cli import main


def test_all_properties_pass_at_default_tolerances():
    checks = ak.run_all(seed=0)
    assert len(checks) == 11
    for check in checks:
        assert check.passed, f"{check.name}: {check.max_error} > {check.tolerance}"


def test_property_names_are_stable():
    names = [c.name for c in ak.run_all(seed=3)]
    assert names == [
        "closed_form_vs_truncated",
        "one_hop_degeneration",
        "nonlocal_equals_attention",
        "gat_equals_dense_attention",
        "stacking_composition",
        "permutation_equivariance",
        "score_path_equals_matrix_path",
        "block_draws_equal_scalar_draws",
        "blocked_attention_equals_dense",
        "gaussian_pairs_equal_broadcast",
        "matrix_text_equals_repr",
    ]


def test_impossible_tolerance_fails():
    checks = ak.run_all(seed=0, tolerance=1e-30)
    assert any(not c.passed for c in checks)


def test_tolerance_override_applies_everywhere():
    checks = ak.run_all(seed=0, tolerance=0.5)
    assert all(c.tolerance == 0.5 for c in checks)


def test_individual_checks_report_nonnegative_errors():
    check = ak.run_all(seed=5)[4]  # stacking_composition, drawn from Lcg(9)
    assert check.name == "stacking_composition"
    assert check.max_error >= 0.0
    assert check.passed


def test_a_misspelled_value_fails_matrix_text_equals_repr(monkeypatch):
    def upper_exponent(matrix):
        return matrix_text(matrix).replace("e", "E")

    monkeypatch.setattr(_floattext, "matrix_text", upper_exponent)
    check = ak.run_all(seed=0)[-1]
    assert check.name == "matrix_text_equals_repr"
    assert check.max_error >= 1.0 and not check.passed


def test_nan_error_fails_verify(monkeypatch, capsys):
    def nan_scores(A, scaling, length=None):
        return np.full(A.matrix.shape[0], np.nan)

    monkeypatch.setattr(verify, "path_scores", nan_scores)
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert "score_path_equals_matrix_path: max_error=nan tolerance=1.0e-12 FAIL\n" in out
    assert err == "verification failed: score_path_equals_matrix_path\n"


def test_seeds_change_instances_not_outcomes():
    for seed in (0, 1, 42):
        assert all(c.passed for c in ak.run_all(seed=seed))


def test_high_fractions_pass_at_default_tolerances():
    # closed_form_vs_truncated sizes L from the fraction: 132 at 0.8, 285 at 0.9.
    for fraction in (0.8, 0.9):
        failed = [c.name for c in ak.run_all(seed=0, fraction=fraction) if not c.passed]
        assert failed == [], fraction


def test_fraction_near_one_passes_at_default_tolerances():
    # permutation_equivariance fixes alpha * rho at 0.5; at 0.995 its scores
    # would otherwise grow about 200-fold and miss the absolute 1e-12 budget.
    failed = [c.name for c in ak.run_all(seed=0, fraction=0.995) if not c.passed]
    assert failed == []


def test_fraction_needing_too_long_a_series_is_refused(capsys):
    assert main(["verify", "--alpha-fraction", "0.999"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: alpha fraction 0.999 needs L = 34522 > 10000 series terms\n"
