import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpraloha import analytic, checks
from mpraloha.analytic import N_CAP, solve_optimal_tau
from mpraloha.checks import CHECK_NAMES, VerifyGrid
import reference


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
        def oracle(configs):
            reports = [solve_optimal_tau(cfg) for cfg in configs]
            return [(r.tau_opt, r.sdp_max + 1e-6) for r in reports]

        monkeypatch.setattr(checks, "grid_search_optimum", oracle)
        result = checks.check_solver_vs_grid_search(SMALL)
        assert result.name == "solver_vs_grid_search"
        assert result.worst == 0.0
        assert not result.passed
        assert "max |sdp diff| = 1.000e-06" in result.detail

    def test_nan_sdp_after_the_first_cell_fails_solver_check(
        self, monkeypatch
    ):
        # Python's max drops a NaN that is not first: max([0.0, nan]) is
        # 0.0. The sdp reduction must not.
        def oracle(configs):
            reports = [solve_optimal_tau(cfg) for cfg in configs]
            pairs = [(r.tau_opt, r.sdp_max) for r in reports]
            pairs[1] = (pairs[1][0], math.nan)
            return pairs

        monkeypatch.setattr(checks, "grid_search_optimum", oracle)
        result = checks.check_solver_vs_grid_search(SMALL)
        assert result.worst == 0.0
        assert not result.passed
        assert "max |sdp diff| = nan" in result.detail

    def test_checks_past_the_underflow_edge_pass(self):
        # At n=500 and tau=0.99 the admit probability and the decoded-batch
        # mass underflow in every cell; the conditional quantities are
        # still evaluated there, from the scaled sums.
        grid = VerifyGrid(tau_values=(0.99,), n_values=(500,))
        for check in (
            checks.check_admitted_load_slope,
            checks.check_moment_ratio_identity,
            checks.check_iteration_map_slope,
            checks.check_iteration_map_bracketing,
        ):
            result = check(grid)
            assert result.passed, result
            assert "tau=0.99" in result.detail

    def test_check_with_no_violation_fails(self, monkeypatch):
        # A check that evaluated nothing has shown nothing, so it fails
        # instead of passing vacuously.
        def empty(n, mprs, tau):
            return (np.empty(0) for _ in mprs)

        monkeypatch.setattr(checks, "_admitted_load_rows", empty)
        result = checks.check_admitted_load_slope(SMALL)
        assert not result.passed
        assert math.isnan(result.worst)
        assert result.detail == "no violation evaluated, nothing to check"


    def test_nan_violation_fails_at_its_location(self, monkeypatch):
        # A NaN is the worst violation there is: the first one is reported
        # where it occurred and fails the check.
        rows_form = checks._delivery_prob_rows

        def poisoned(n, mprs, deadlines, tau):
            cells = itertools.product(mprs, deadlines)
            for (m, d), values in zip(cells, rows_form(n, mprs, deadlines,
                                                        tau)):
                if (n, d) == (10, 5) and m in (2, 3):
                    values[tau == 0.6] = math.nan
                yield values

        monkeypatch.setattr(checks, "_delivery_prob_rows", poisoned)
        result = checks.check_sdp_bounds(SMALL)
        assert not result.passed
        assert math.isnan(result.worst)
        assert result.detail.endswith("= nan at n=10 m=2 d=5 tau=0.6")

    def test_derivative_check_reads_the_deadline_load(self, monkeypatch):
        # The derivative is the solver's gap, scaled: a 1e-3 relative error
        # in the deadline load, which that gap subtracts, fails the
        # finite-difference check.
        load_row = analytic._deadline_load_row

        def skewed(n, d, tau, window):
            return load_row(n, d, tau, window) * (1.0 + 1e-3)

        monkeypatch.setattr(analytic, "_deadline_load_row", skewed)
        result = checks.check_derivative_finite_difference(SMALL)
        assert not result.passed
        assert result.worst > 100 * checks._DERIVATIVE_TOL

    def test_window_bound_is_the_public_function(self, monkeypatch):
        public = checks.window_bound

        def faulty(d, x):
            return 1.001 if d == 2 else public(d, x)

        monkeypatch.setattr(checks, "window_bound", faulty)
        result = checks.check_window_bound(SMALL)
        assert not result.passed
        assert result.detail.endswith("at d=2 tau=0.1")

    def test_sdp_endpoints_are_the_public_function(self, monkeypatch):
        public = checks.delivery_prob

        def faulty(cfg, tau):
            return 1e-3 if tau == 1.0 else public(cfg, tau)

        monkeypatch.setattr(checks, "delivery_prob", faulty)
        result = checks.check_sdp_bounds(SMALL)
        assert not result.passed
        assert "tau=1.0" in result.detail

    def test_only_nan_violations_fail(self):
        result = checks._reduce(
            "probe", [("cell", np.array([math.nan, math.nan]))],
            lambda key, k: f"{key} {k}", 0.0, "{worst} at {where}",
        )
        assert not result.passed
        assert math.isnan(result.worst)
        assert result.detail == "nan at cell 0"


class TestSolveSharing:
    """`run_all` solves each distinct cell once, through the module's
    `solve_optimal_tau`, and keeps no report past the call."""

    @staticmethod
    def _counting(monkeypatch):
        solved = []

        def solver(config):
            solved.append(config)
            return solve_optimal_tau(config)

        monkeypatch.setattr(checks, "solve_optimal_tau", solver)
        return solved

    def test_one_solve_per_distinct_cell(self, monkeypatch):
        grid = VerifyGrid()
        cells = set(grid.cells()) | set(grid.sweep_cells())
        solved = self._counting(monkeypatch)
        checks.run_all(grid)
        assert len(solved) == len(cells) == 573
        assert {(c.n_users, c.mpr, c.deadline) for c in solved} == cells
        assert checks._SOLVES.get() is None

    def test_solver_patched_between_runs_is_called(self, monkeypatch):
        checks.run_all(SMALL)
        solved = self._counting(monkeypatch)
        checks.run_all(VerifyGrid(**vars(SMALL)))
        cells = set(SMALL.cells()) | set(SMALL.sweep_cells())
        assert len(solved) == len(cells)

    def test_standalone_check_solves_every_cell(self, monkeypatch):
        checks.run_all(SMALL)
        solved = self._counting(monkeypatch)
        grid = VerifyGrid()
        checks.check_solver_localization(grid)
        checks.check_solver_localization(grid)
        assert len(solved) == 2 * len(list(grid.cells())) == 126

    def test_table_dropped_when_a_check_raises(self, monkeypatch):
        def broken(grid):
            raise RuntimeError("broken check")

        monkeypatch.setattr(checks, "check_solver_localization", broken)
        with pytest.raises(RuntimeError, match="broken check"):
            checks.run_all(SMALL)
        assert checks._SOLVES.get() is None


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

    @pytest.mark.parametrize("override", [
        {"tau_values": (1e-6,)},
        {"tau_values": (1.0,)},
        {"tau_values": (1.0 - 1e-6,)},
        {"tau_values": (math.nan,)},
        {"n_values": (1, 5)},
        {"n_values": (5, 1001)},
        {"d_values": (0, 5)},
        {"sweep_n": (2000,)},
        {"sweep_m": (0,)},
        {"m_values": (0, 2)},
    ], ids=["tau-1e-6", "tau-1", "tau-1-1e-6", "tau-nan", "n-1", "n-1001",
            "d-0", "sweep-n-2000", "sweep-m-0", "m-0"])
    def test_out_of_domain_rejected(self, override):
        # The one domain check: no property check gets such a grid.
        with pytest.raises(ValueError):
            VerifyGrid(**override)

    def test_tau_just_inside_the_step_accepted(self):
        # tau - 1e-6 > 0 holds, so every shifted tau is inside (0, 1).
        assert VerifyGrid(tau_values=(1.0000001e-6,)).tau_values

    def test_default_tau_grid(self):
        grid = VerifyGrid()
        assert len(grid.tau_values) == 99
        assert grid.tau_values[0] == pytest.approx(0.01)
        assert grid.tau_values[-1] == pytest.approx(0.99)


def _tau_values():
    """tau over the grid's domain, edges within 1e-6 of 0 and 1 included."""
    step = checks._FD_STEP
    return st.one_of(
        st.floats(2 * step, 1.0 - 2 * step),
        st.floats(step, 2 * step),
        st.floats(1.0 - 2 * step, 1.0 - step),
    ).filter(lambda t: t - step > 0.0 and t + step < 1.0)


@st.composite
def _grids(draw):
    """A small grid over the accepted domain, n and m in any order and
    with repeats."""
    n_values = draw(st.lists(
        st.one_of(st.integers(2, 30), st.integers(2, N_CAP)),
        min_size=1, max_size=2,
    ))
    m_values = draw(st.lists(st.integers(1, max(n_values) - 1),
                             min_size=1, max_size=3))
    d_values = draw(st.lists(
        st.one_of(st.integers(1, 30), st.integers(1, 10**15)),
        min_size=2, max_size=3, unique=True,
    ))
    taus = draw(st.lists(_tau_values(), min_size=1, max_size=4))
    return VerifyGrid(tau_values=tuple(taus), n_values=tuple(n_values),
                      m_values=tuple(m_values), d_values=tuple(d_values),
                      sweep_n=(3,), sweep_m=(1,), sweep_d=(1,))


def _outcome(check, grid):
    """A check's result with `worst` by its bits, or the error it raised."""
    try:
        r = check(grid)
    except (ArithmeticError, RuntimeWarning) as exc:
        return type(exc).__name__
    return r.name, r.passed, np.float64(r.worst).view(np.int64), r.detail


class TestPerPopulationRows:
    """The checks run one recurrence per population n, read at each m; the
    reference runs one per (n, m, d) cell. Results agree bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(grid=_grids())
    @example(grid=VerifyGrid(
        tau_values=(0.1, 0.3, 0.6, 0.9), n_values=(10, 5, 10),
        m_values=(3, 1, 2, 2, 9), d_values=(5, 1, 20, 1)))
    @example(grid=VerifyGrid(
        tau_values=(1.0000001e-6, 0.5, 0.999998), n_values=(1000, 2),
        m_values=(999, 1, 500), d_values=(1, 10**15)))
    def test_matches_cell_by_cell_reference(self, grid):
        for cell_check in reference.CELL_CHECKS:
            check = getattr(checks, f"check_{cell_check.__name__}")
            assert _outcome(check, grid) == _outcome(cell_check, grid)

    def test_memory_does_not_grow_with_mpr_values(self):
        # 250 mpr values up to 999 read from one recurrence per row check,
        # against that recurrence read at 999 alone. Only the grid's ints
        # grow: a row of 99 floats kept per mpr would add 250 * 792 bytes,
        # four times the bound.
        def peak(check, grid):
            tracemalloc.start()
            try:
                check(grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = VerifyGrid(n_values=(1000,), m_values=(999,), d_values=(1, 20))
        many = VerifyGrid(n_values=(1000,), m_values=tuple(range(1, 1000, 4)),
                          d_values=(1, 20))
        rows = 250 * 99 * 8
        for check in (checks.check_sdp_monotone_deadline,
                      checks.check_derivative_finite_difference,
                      checks.check_admitted_load_slope,
                      checks.check_moment_ratio_identity,
                      checks.check_iteration_map_slope):
            growth = peak(check, many) - peak(check, one)
            assert growth < rows / 4, check.__name__
