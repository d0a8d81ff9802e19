"""Numerical verification of the analytic properties the solver rests on.

Every claim the optimizer depends on is checked here on a dense parameter
grid: bounds and endpoint values of the delivery probability, agreement of
the closed-form derivative with finite differences, the slope bounds that
give a unique crossing point, the moment-ratio and term-matching identities
behind the fixed-point map, the contraction factor staying below one, and
the solver itself against the derivative-free grid search.

Strict inequalities are tested with a small outward margin because central
finite differences carry noise of order 1e-10 and several bounds are
approached asymptotically on the grid.

Where a side of a check underflows and cannot be computed (the admit
probability or the decoded-batch mass of a large population at a tau near
1), the check skips that cell and counts it in its detail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analytic import (
    ChannelConfig,
    UnderflowError,
    admitted_load,
    binomial_pmf,
    deadline_load,
    delivery_prob,
    delivery_prob_derivative,
    grid_search_optimum,
    iteration_map,
    lower_bound_tau,
    solve_optimal_tau,
    success_size_ratio,
    window_bound,
)

__all__ = ["VerifyGrid", "CheckResult", "run_all", "CHECK_NAMES"]

# Step of the central finite differences.
_FD_STEP = 1e-6
# Outward margin on the strict slope bounds, for finite-difference noise.
_SLOPE_MARGIN = 1e-4
# Largest scaled error allowed between the closed-form derivative and the
# finite difference.
_DERIVATIVE_TOL = 1e-5
# Largest residual allowed in the moment-ratio and term-matching identities.
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class VerifyGrid:
    """Parameter grid the property checks run over.

    The default covers tau from 0.01 to 0.99 in steps of 0.01, small and
    large populations, every receiver capability up to 8, and short
    through long deadlines. sweep_* define the denser population sweep used
    only for the solver-versus-grid-search comparison. A grid without tau
    values, (n, m, d) cells, two distinct deadlines or sweep cells is
    rejected, because the checks would pass on it without evaluating
    anything.
    """

    tau_values: tuple[float, ...] = tuple(i / 100 for i in range(1, 100))
    n_values: tuple[int, ...] = (2, 5, 10, 50)
    m_values: tuple[int, ...] = tuple(range(1, 9))
    d_values: tuple[int, ...] = (1, 5, 20)
    sweep_n: tuple[int, ...] = tuple(range(6, 51))
    sweep_m: tuple[int, ...] = (2, 5, 8)
    sweep_d: tuple[int, ...] = (1, 5, 10, 20)

    def __post_init__(self) -> None:
        if not self.tau_values:
            raise ValueError("grid has no tau values")
        if next(self.cells(), None) is None:
            raise ValueError("grid has no (n, m, d) cell with 1 <= m < n")
        if len(set(self.d_values)) < 2:
            raise ValueError(
                "grid has fewer than two distinct deadlines to compare"
            )
        if next(self.sweep_cells(), None) is None:
            raise ValueError("grid has no sweep cell with m < n")

    def mpr_values(self, n_users: int) -> tuple[int, ...]:
        return tuple(m for m in self.m_values if 1 <= m < n_users)

    def cells(self):
        for n in self.n_values:
            for m in self.mpr_values(n):
                for d in self.d_values:
                    yield n, m, d

    def sweep_cells(self):
        for n in self.sweep_n:
            for m in self.sweep_m:
                if m < n:
                    for d in self.sweep_d:
                        yield n, m, d


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str


def _central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _result(
    name: str, pairs, limit: float, detail: str, strict: bool = False
) -> CheckResult:
    """Reduce (violation, location) pairs to their largest violation, the
    first one on ties. The check passes when that violation is at most
    `limit` (below it if `strict`); `detail` is formatted with `worst`,
    `where` and `limit`. A violation of None marks a cell that could not be
    computed; such cells are skipped and counted in the detail. A check
    with no cell left to compute fails, since it has shown nothing."""
    worst = -math.inf
    where = ""
    skipped = evaluated = 0
    for violation, location in pairs:
        if violation is None:
            skipped += 1
            continue
        evaluated += 1
        if violation > worst:
            worst, where = violation, location
    if not evaluated:
        return CheckResult(name, False, math.nan, f"{skipped} cells skipped as not "
                           "computable, none left to check")
    passed = worst < limit if strict else worst <= limit
    detail = detail.format(worst=worst, where=where, limit=limit)
    if skipped:
        detail += f"; {skipped} cells skipped as not computable"
    return CheckResult(name, passed, worst, detail)


def check_sdp_bounds(grid: VerifyGrid) -> CheckResult:
    """delivery_prob stays in [0, 1] and vanishes at tau = 0 and tau = 1."""
    def pairs():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            for tau in (0.0, 1.0):
                v = abs(delivery_prob(cfg, tau))
                yield v, f"n={n} m={m} d={d} tau={tau}"
            for tau in grid.tau_values:
                v = delivery_prob(cfg, tau)
                yield max(-v, v - 1.0), f"n={n} m={m} d={d} tau={tau}"

    return _result("sdp_bounds", pairs(), 0.0, "max excursion outside "
                   "[0, 1] (and endpoint residual) = {worst:.3e} at {where}")


def check_sdp_monotone_deadline(grid: VerifyGrid) -> CheckResult:
    """A longer deadline never lowers the delivery probability."""
    d_sorted = sorted(grid.d_values)

    def pairs():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                for tau in grid.tau_values:
                    values = [
                        delivery_prob(ChannelConfig(n, m, d), tau)
                        for d in d_sorted
                    ]
                    for k in range(len(values) - 1):
                        yield values[k] - values[k + 1], (
                            f"n={n} m={m} tau={tau} "
                            f"d={d_sorted[k]}->{d_sorted[k + 1]}"
                        )

    return _result("sdp_monotone_deadline", pairs(), 1e-15, "max decrease "
                   "when lengthening the deadline = {worst:.3e} at {where}")


def check_derivative_fd(grid: VerifyGrid) -> CheckResult:
    """Closed-form derivative against a central finite difference.

    Scaled error |analytic - fd| / (1 + |analytic|), because the derivative
    passes through zero at the optimum where relative error is meaningless.
    """
    def pairs():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            f = lambda t: delivery_prob(cfg, t)
            for tau in grid.tau_values:
                a = delivery_prob_derivative(cfg, tau)
                fd = _central_diff(f, tau, _FD_STEP)
                err = abs(a - fd) / (1.0 + abs(a))
                yield err, f"n={n} m={m} d={d} tau={tau}"

    return _result("derivative_finite_difference", pairs(), _DERIVATIVE_TOL,
                   "max scaled derivative error = {worst:.3e} at {where} "
                   "(tol {limit:g})")


def check_admitted_load_slope(grid: VerifyGrid) -> CheckResult:
    """The conditional interferer mean rises with tau, with slope below
    n_users - 1."""
    def pairs():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                cfg = ChannelConfig(n, m, 1)
                f = lambda t: admitted_load(cfg, t)
                for tau in grid.tau_values:
                    where = f"n={n} m={m} tau={tau}"
                    try:
                        slope = _central_diff(f, tau, _FD_STEP)
                    except UnderflowError:
                        yield None, where
                        continue
                    yield max(-slope, slope - (n - 1)), where

    return _result("admitted_load_slope", pairs(), _SLOPE_MARGIN,
                   "max violation of 0 <= slope <= n-1 = {worst:.3e} at "
                   "{where} (margin {limit:g})")


def check_deadline_load_slope(grid: VerifyGrid) -> CheckResult:
    """The deadline-window load rises strictly faster than n_users - 1,
    which is what makes the two curves cross exactly once."""
    def pairs():
        for n in grid.n_values:
            for d in grid.d_values:
                cfg = ChannelConfig(n, 1, d)
                f = lambda t: deadline_load(cfg, t)
                for tau in grid.tau_values:
                    slope = _central_diff(f, tau, _FD_STEP)
                    yield (n - 1) - slope, f"n={n} d={d} tau={tau}"

    return _result("deadline_load_slope", pairs(), _SLOPE_MARGIN,
                   "max shortfall below slope > n-1 = {worst:.3e} at "
                   "{where} (margin {limit:g})")


def check_moment_ratio_identity(grid: VerifyGrid) -> CheckResult:
    """Decoded-batch moment ratio exceeds the conditional interferer mean
    by exactly one."""
    def pairs():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                # Neither side depends on the deadline, so any value works.
                cfg = ChannelConfig(n, m, 1)
                for tau in grid.tau_values:
                    where = f"n={n} m={m} tau={tau}"
                    try:
                        residual = abs(
                            success_size_ratio(cfg, tau)
                            - 1.0
                            - admitted_load(cfg, tau)
                        )
                    except UnderflowError:
                        yield None, where
                        continue
                    yield residual, where

    return _result("moment_ratio_identity", pairs(), _IDENTITY_TOL,
                   "max |ratio - 1 - load| = {worst:.3e} at {where} "
                   "(tol {limit:g})")


def check_term_matching_identity(grid: VerifyGrid) -> CheckResult:
    """The term-by-term reindexing behind the moment-ratio identity:

        sum_{i=1..m} i   * P(X=i) = n tau * sum_{j<m} P(Y=j)
        sum_{i=1..m} i^2 * P(X=i) = n tau * sum_{j<m} (j+1) P(Y=j)

    with X ~ Binomial(n, tau) and Y ~ Binomial(n-1, tau)."""
    def pairs():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                for tau in grid.tau_values:
                    lhs1 = math.fsum(
                        i * binomial_pmf(n, i, tau) for i in range(1, m + 1)
                    )
                    lhs2 = math.fsum(
                        i * i * binomial_pmf(n, i, tau)
                        for i in range(1, m + 1)
                    )
                    rhs1 = n * tau * math.fsum(
                        binomial_pmf(n - 1, j, tau) for j in range(m)
                    )
                    rhs2 = n * tau * math.fsum(
                        (j + 1) * binomial_pmf(n - 1, j, tau)
                        for j in range(m)
                    )
                    residual = max(abs(lhs1 - rhs1), abs(lhs2 - rhs2))
                    yield residual, f"n={n} m={m} tau={tau}"

    return _result("term_matching_identity", pairs(), _IDENTITY_TOL,
                   "max reindexing residual = {worst:.3e} at {where} "
                   "(tol {limit:g})")


def check_window_bound(grid: VerifyGrid) -> CheckResult:
    """The contraction factor: identically 1 for a one-slot deadline and
    strictly below 1 on (0, 1) for every longer deadline."""
    def pairs():
        for d in sorted(set(grid.d_values) | {1, 2}):
            for tau in grid.tau_values:
                w = window_bound(d, tau)
                out = abs(w - 1.0) - 1e-12 if d == 1 else w - 1.0
                yield out, f"d={d} tau={tau}"

    return _result("window_bound", pairs(), 0.0, "max of (factor - 1), d=1 "
                   "as identity residual = {worst:.3e} at {where}",
                   strict=True)


def check_iteration_map_slope(grid: VerifyGrid) -> CheckResult:
    """The fixed-point map is increasing."""
    def pairs():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            f = lambda t: iteration_map(cfg, t)
            for tau in grid.tau_values:
                where = f"n={n} m={m} d={d} tau={tau}"
                try:
                    slope = _central_diff(f, tau, _FD_STEP)
                except UnderflowError:
                    yield None, where
                    continue
                yield -slope, where

    return _result("iteration_map_slope", pairs(), _SLOPE_MARGIN,
                   "max negative slope of the map = {worst:.3e} at {where} "
                   "(margin {limit:g})")


def check_iteration_map_bracketing(grid: VerifyGrid) -> CheckResult:
    """The map pushes iterates toward the optimum from both sides:
    g(x) > x strictly below it, g(x) < x strictly above it."""
    exclusion = 1e-6

    def pairs():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            tau_opt = solve_optimal_tau(cfg).tau_opt
            for tau in grid.tau_values:
                if abs(tau - tau_opt) <= exclusion:
                    continue
                where = f"n={n} m={m} d={d} tau={tau}"
                try:
                    gap = iteration_map(cfg, tau) - tau
                except UnderflowError:
                    yield None, where
                    continue
                # Wrong-signed gap is a violation; magnitude measures how
                # badly.
                yield (-gap if tau < tau_opt else gap), where

    return _result("iteration_map_bracketing", pairs(), 0.0, "max "
                   "wrong-signed displacement of g(x) - x = {worst:.3e} at "
                   "{where}", strict=True)


def check_solver_oracle(grid: VerifyGrid) -> CheckResult:
    """Solver against the derivative-free grid search over the
    dense population sweep."""
    rows = []
    for n, m, d in grid.sweep_cells():
        cfg = ChannelConfig(n, m, d)
        report = solve_optimal_tau(cfg)
        oracle_tau, oracle_sdp = grid_search_optimum(cfg)
        rows.append((abs(report.tau_opt - oracle_tau),
                     abs(report.sdp_max - oracle_sdp), f"n={n} m={m} d={d}"))
    worst_sdp = max(d_sdp for _, d_sdp, _ in rows)
    result = _result(
        "solver_vs_grid_search",
        ((d_tau, where) for d_tau, _, where in rows),
        1e-6,
        "max |tau diff| = {worst:.3e} at {where}, max |sdp diff| = "
        + f"{worst_sdp:.3e} (tols 1e-06, 1e-09)",
    )
    return replace(result, passed=result.passed and worst_sdp <= 1e-9)


def check_solver_localization(grid: VerifyGrid) -> CheckResult:
    """The solver converges, lands inside the localization interval, and for
    multi-packet receivers the two load curves really cross there."""
    def pairs():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            report = solve_optimal_tau(cfg)
            tau = report.tau_opt
            lo = lower_bound_tau(n, d)
            out = max(lo - tau - 1e-12, tau - (1.0 - 1e-15))
            if not report.converged:
                out = math.inf
            if m >= 2:
                crossing = abs(
                    admitted_load(cfg, tau) - deadline_load(cfg, tau)
                )
                out = max(out, crossing - 1e-9)
            yield out, f"n={n} m={m} d={d}"

    return _result("solver_localization", pairs(), 0.0, "max violation of "
                   "interval/crossing conditions = {worst:.3e} at {where}")


CHECK_NAMES = (
    "sdp_bounds",
    "sdp_monotone_deadline",
    "derivative_finite_difference",
    "admitted_load_slope",
    "deadline_load_slope",
    "moment_ratio_identity",
    "term_matching_identity",
    "window_bound",
    "iteration_map_slope",
    "iteration_map_bracketing",
    "solver_vs_grid_search",
    "solver_localization",
)


def run_all(grid: VerifyGrid | None = None) -> list[CheckResult]:
    """Run every property check; order matches CHECK_NAMES."""
    g = grid or VerifyGrid()
    return [
        check_sdp_bounds(g),
        check_sdp_monotone_deadline(g),
        check_derivative_fd(g),
        check_admitted_load_slope(g),
        check_deadline_load_slope(g),
        check_moment_ratio_identity(g),
        check_term_matching_identity(g),
        check_window_bound(g),
        check_iteration_map_slope(g),
        check_iteration_map_bracketing(g),
        check_solver_oracle(g),
        check_solver_localization(g),
    ]
