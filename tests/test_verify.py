import affinitykit as ak
from affinitykit import verify


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
    check = verify.check_stacking_composition(seed=9, instances=3)
    assert check.max_error >= 0.0
    assert check.passed


def test_seeds_change_instances_not_outcomes():
    for seed in (0, 1, 42):
        assert all(c.passed for c in ak.run_all(seed=seed))
