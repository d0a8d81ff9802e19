import math

import numpy as np
import pytest

from mpraloha import checks
from mpraloha.analytic import solve_optimal_tau
from mpraloha.checks import CHECK_NAMES, VerifyGrid


SMALL = VerifyGrid(
    tau_values=(0.1, 0.3, 0.6, 0.9),
    n_values=(5, 10),
    d_values=(1, 2, 5),
    sweep_n=(6, 7),
    sweep_m=(2, 5),
    sweep_d=(1, 5),
)


class TestSuite:
    def test_every_check_passes_on_default_grid(self, verify_results):
        failures = [
            f"{r.name}: {r.detail}"
            for r in verify_results.values()
            if not r.passed
        ]
        assert not failures, "\n".join(failures)

    def test_names_and_order(self, verify_results):
        assert tuple(verify_results) == CHECK_NAMES

    def test_details_report_worst_location(self, verify_results):
        slope = verify_results["admitted_load_slope"]
        assert "n=" in slope.detail and "tau=" in slope.detail

    def test_margins_are_genuinely_needed(self, verify_results):
        # Finite differences brush the strict bounds from outside at the
        # 1e-9 level, which is exactly why the margin exists; a clean zero
        # here would suggest the check is not measuring anything.
        slope = verify_results["deadline_load_slope"]
        assert slope.worst > 0.0
        assert slope.worst < 1e-6


class TestFaultInjection:
    def test_unreachable_tolerance_reported_as_failure(self, monkeypatch):
        monkeypatch.setattr(checks, "_IDENTITY_TOL", 1e-18)
        results = checks.run_all(SMALL)
        by_name = {r.name: r for r in results}
        assert not by_name["moment_ratio_identity"].passed
        assert not by_name["term_matching_identity"].passed
        # Checks that do not depend on the identity tolerance still pass.
        assert by_name["sdp_bounds"].passed
        assert by_name["solver_vs_grid_search"].passed

    def test_small_grid_passes_at_stated_tolerances(self):
        results = checks.run_all(SMALL)
        assert all(r.passed for r in results)
        # Every d=1 cell ties at -1e-12; the first one is reported.
        window = {r.name: r for r in results}["window_bound"]
        assert window.detail.endswith("at d=1 tau=0.1")

    def test_sdp_disagreement_alone_fails_solver_check(self, monkeypatch):
        def oracle(cfg):
            report = solve_optimal_tau(cfg)
            return report.tau_opt, report.sdp_max + 1e-6

        monkeypatch.setattr(checks, "grid_search_optimum", oracle)
        result = checks.check_solver_oracle(SMALL)
        assert result.name == "solver_vs_grid_search"
        assert result.worst == 0.0
        assert not result.passed
        assert "max |sdp diff| = 1.000e-06" in result.detail

    def test_check_with_every_cell_skipped_fails(self):
        # At n=500 and tau=0.99 the admit probability and the decoded-batch
        # mass underflow in every cell, so these checks compute nothing.
        grid = VerifyGrid(tau_values=(0.99,), n_values=(500,))
        for check, skipped in (
            (checks.check_admitted_load_slope, 8),
            (checks.check_moment_ratio_identity, 8),
            (checks.check_iteration_map_slope, 24),
            (checks.check_iteration_map_bracketing, 24),
        ):
            result = check(grid)
            assert not result.passed
            assert result.detail == (
                f"{skipped} cells skipped as not computable, "
                "none left to check"
            )


    def test_nan_violation_fails_at_its_location(self, monkeypatch):
        # A NaN is the worst violation there is: the first one is reported
        # where it occurred and fails the check.
        row_form = checks._delivery_prob_row

        def poisoned(cfg, tau):
            values = row_form(cfg, tau)
            if (cfg.n_users, cfg.deadline) == (10, 5) and cfg.mpr in (2, 3):
                values[tau == 0.6] = math.nan
            return values

        monkeypatch.setattr(checks, "_delivery_prob_row", poisoned)
        result = checks.check_sdp_bounds(SMALL)
        assert not result.passed
        assert math.isnan(result.worst)
        assert result.detail.endswith("= nan at n=10 m=2 d=5 tau=0.6")

    def test_only_nan_violations_fail(self):
        result = checks._reduce(
            "probe", [("cell", np.array([math.nan, math.nan]), None)],
            lambda key, k: f"{key} {k}", 0.0, "{worst} at {where}",
        )
        assert not result.passed
        assert math.isnan(result.worst)
        assert result.detail == "nan at cell 0"


class TestGrid:
    def test_mpr_values_respect_population(self):
        grid = VerifyGrid()
        assert grid.mpr_values(2) == (1,)
        assert grid.mpr_values(5) == (1, 2, 3, 4)
        assert grid.mpr_values(50) == tuple(range(1, 9))

    def test_explicit_mpr_override_filtered(self):
        grid = VerifyGrid(m_values=(1, 4, 9))
        assert grid.mpr_values(5) == (1, 4)

    def test_sweep_skips_infeasible_combinations(self):
        grid = VerifyGrid(sweep_n=(6,), sweep_m=(2, 8), sweep_d=(1,))
        assert list(grid.sweep_cells()) == [(6, 2, 1)]

    def test_empty_grid_rejected(self):
        # Every check would pass on these without evaluating anything.
        with pytest.raises(ValueError, match="no tau values"):
            VerifyGrid(tau_values=())
        with pytest.raises(ValueError, match="no \\(n, m, d\\) cell"):
            VerifyGrid(n_values=(5,), m_values=(9,))
        with pytest.raises(ValueError, match="no sweep cell"):
            VerifyGrid(sweep_n=(6,), sweep_m=(9,))

    def test_single_deadline_rejected(self):
        # sdp_monotone_deadline needs a pair of deadlines to compare.
        for d_values in ((5,), (5, 5)):
            with pytest.raises(ValueError, match="two distinct deadlines"):
                VerifyGrid(d_values=d_values)

    def test_default_tau_grid(self):
        grid = VerifyGrid()
        assert len(grid.tau_values) == 99
        assert grid.tau_values[0] == pytest.approx(0.01)
        assert grid.tau_values[-1] == pytest.approx(0.99)
