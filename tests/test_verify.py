import numpy as np

import affinitykit as ak
from affinitykit import verify
from affinitykit.cli import main


def test_all_properties_pass_at_default_tolerances():
    checks = ak.run_all(seed=0)
    assert len(checks) == 7
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
