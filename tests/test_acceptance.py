"""Acceptance criteria, one test per criterion.

Each test runs the corresponding named suite (the same code that backs
``doublefield verify``) and fails with the suite's own diagnostics, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.
"""

import time

from doublefield.suites import (
    SUITES,
    run_agreement,
    run_bilinearity,
    run_calibration,
    run_charts,
    run_different,
    run_principality,
    run_rsp,
    run_selfpair,
    run_suite,
    run_support,
    run_symmetry,
)


def _assert_ok(result, minimum=None):
    assert result["ok"], f"{result['suite']}: {result['failures']}"
    if minimum is not None:
        assert result["checked"] >= minimum, (
            f"{result['suite']}: only {result['checked']} instances, need {minimum}"
        )


def test_01_pairing_symmetry_both_sides():
    t0 = time.monotonic()
    result = run_symmetry()
    _assert_ok(result, minimum=50)
    assert time.monotonic() - t0 < 30


def test_02_bilinearity_of_pair_residue_correspondence():
    result = run_bilinearity()
    _assert_ok(result, minimum=50)
    assert result["residue_instances"] >= 50
    assert result["correspondence_instances"] >= 50


def test_03_principal_divisors_map_to_degree_zero():
    _assert_ok(run_principality(), minimum=20)


def test_04_residue_and_correspondence_paths_agree():
    _assert_ok(run_agreement(), minimum=50)


def test_05_degree_one_pairing_equals_different_divisor():
    _assert_ok(run_different(), minimum=50)


def test_06_support_membership_criterion():
    _assert_ok(run_support(), minimum=50)


def test_07_self_pairing_plus_differential_is_principal():
    _assert_ok(run_selfpair(), minimum=20)


def test_08_chart_robustness_and_numeric_intersection_oracle():
    result = run_charts()
    _assert_ok(result, minimum=20)
    assert result["equivariance_instances"] == 3 * result["checked"]
    assert result["common_instances"] >= 20
    assert result["oracle_instances"] >= 20


def test_09_arakelov_calibration():
    t0 = time.monotonic()
    result = run_calibration()
    _assert_ok(result, minimum=30)
    assert time.monotonic() - t0 < 60


def test_10_residue_scalar_product_symmetry_vanishing_invariance():
    result = run_rsp()
    _assert_ok(result, minimum=20)
    assert result["vanishing_instances"] >= 20
    assert result["invariance_instances"] >= 20
    assert result["nonzero_bezout"] >= 20


def test_11_explorer_reproducible_and_reports_minimum():
    # run_suite times both explorer runs (100 trials, max_deg 2, seed 7)
    result = run_suite("explorer")
    _assert_ok(result, minimum=100)
    assert result["seconds"] < 300
    assert result["minimum"] is not None


def test_run_suite_times_every_suite():
    results = run_suite("all")["results"]
    assert [r["suite"] for r in results] == list(SUITES)
    assert len(results) == 11
    assert all(isinstance(r["seconds"], float) for r in results)
