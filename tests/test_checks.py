import tracemalloc

import numpy as np

from psdalign import checks
from psdalign.checks import Check

# every registry measurement at tolerance scale 1, recorded before the checks
# moved into the registry (the Monte-Carlo ones drawn by the synthesis routine
# the channel models replaced, with the same seeds)
PINNED_MEASUREMENTS = {
    "limit_integral_vs_closed_form[a=0.05]": 1.1256551246674462e-12,
    "limit_integral_vs_closed_form[a=0.2]": 1.1254330800625212e-12,
    "limit_integral_vs_closed_form[a=1.0]": 1.1256551246674462e-12,
    "limit_integral_vs_closed_form[a=5.0]": 1.1237677455255835e-12,
    "closed_form_boundary_value": 0.0,
    "closed_form_branch[a=0.999999]": 2.1220315493675201e-07,
    "closed_form_branch[a=1.000001]": 2.1223477963960846e-07,
    "taylor_residual[a=0.1]": 0.03439059007781519,
    "taylor_residual[a=0.01]": 0.0037163567067483023,
    "small_alpha_value": 0.004,
    "small_alpha_vs_closed_form": 0.004908628542659409,
    "processing_gain_value": 0.0,
    "finite_p_mse_decreasing": 1.0,
    "finite_p_mse_min_above_limit": 0.0001502704069998211,
    "finite_p_gap[P=4096]": 0.03775291679490338,
    "orthogonality_residual_decreasing": 1.0,
    "orthogonality_residual_final[P=4096]": 0.00040427907607974993,
    "orthogonality_residual_unshifted[P=4096]": 1.6096579813492085,
    "shift_orthogonal_half_window": 1.0,
    "shift_orthogonal_rejects_zero_shift": 1.0,
    "capacity_users_packed[P=4096]": 249.0,
    "capacity_plan_valid": 1.0,
    "capacity_pairs_shift_orthogonal": 1.0,
    "mmse_orthogonality_principle_4se": 2.3891309630648903,
    "synthesis_autocorrelation_3se": 1.902801124582039,
}


def test_registry_matches_recorded_values(registry_run):
    measured = {check.name: check.measured for check in registry_run.checks}
    assert list(measured) == list(PINNED_MEASUREMENTS)
    for name, value in PINNED_MEASUREMENTS.items():
        # atol: the closed-form residues near 1e-12 are rounding noise
        np.testing.assert_allclose(measured[name], value, rtol=1e-9, atol=1e-15, err_msg=name)


def test_tolerance_scale_moves_upper_bounds_only(monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", (checks.criterion_04_small_alpha_formula,))
    scaled = {check.name: check for check in checks.run_checks(1e-3)}
    assert scaled["small_alpha_vs_closed_form"].target == 0.01 * 1e-3
    assert not scaled["small_alpha_vs_closed_form"].ok
    # an exact value is no tolerance
    assert scaled["small_alpha_value"].target == 0.004
    assert scaled["small_alpha_value"].ok


def test_check_relations():
    assert Check("a", 1.0, "<", 2.0).ok and not Check("a", 2.0, "<", 2.0).ok
    assert Check("a", 2.0, "<=", 2.0).ok and Check("a", 2.0, ">=", 2.0).ok
    assert Check("a", 3.0, ">", 2.0).ok and not Check("a", 2.0, ">", 2.0).ok
    assert not Check("a", float("nan"), "<", 2.0).ok
    assert Check("a", 1.0, "<", 2.0).line().startswith("PASS  a ")
    assert Check("a", 3.0, "<", 2.0).line().endswith("target<2.000e+00")


def test_criterion_6_allocates_order_p():
    # a dense P=4096 covariance alone is 134 MB
    tracemalloc.start()
    try:
        list(checks.criterion_06_orthogonality_decay())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
