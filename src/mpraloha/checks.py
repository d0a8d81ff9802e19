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

Each check evaluates the tau values of one (n, m, d) cell in one pass, with
the array forms of `analytic` that give the scalar closed forms' values bit
for bit, and formats the location of its worst violation only.

Where a side of a check underflows and cannot be computed (the admit
probability or the decoded-batch mass of a large population at a tau near
1), the check skips that cell and counts it in its detail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    ChannelConfig,
    _admitted_load_row,
    _binomial_pmf_row,
    _deadline_load_row,
    _delivery_prob_derivative_row,
    _delivery_prob_row,
    _fsum_columns,
    _iteration_map_row,
    _success_size_ratio_row,
    _window_bound_row,
    admitted_load,
    deadline_load,
    grid_search_optimum,
    lower_bound_tau,
    solve_optimal_tau,
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


def _shifted_row(taus: np.ndarray) -> np.ndarray:
    """The tau values moved by +h, then by -h, for one pass of f."""
    return np.concatenate([taus + _FD_STEP, taus - _FD_STEP])


def _central_diff_row(values: np.ndarray) -> np.ndarray:
    """Central differences from f evaluated at `_shifted_row`."""
    half = values.size // 2
    return (values[:half] - values[half:]) / (2.0 * _FD_STEP)


def _both_halves(computable: np.ndarray) -> np.ndarray:
    half = computable.size // 2
    return computable[:half] & computable[half:]


def _larger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(a, b) element by element, as Python's max: b only where b > a."""
    return np.where(b > a, b, a)


def _reduce(
    name: str, rows, where, limit: float, detail: str, strict: bool = False
) -> CheckResult:
    """Reduce a check's violations to the largest, the first one on ties.

    `rows` yields (key, violations, computable) in the check's order: a
    float array of violations, a bool array marking those that could be
    computed (None when all could) and a key from which `where(key, k)`
    formats the location of violation k. A NaN violation is the largest
    (the first NaN, if several) and fails the check. The check passes when
    the largest violation is at most `limit` (below it if `strict`);
    `detail` is formatted with `worst`, `where` and `limit`. Violations
    that could not be computed are skipped and counted in the detail. A
    check with no violation left to compute fails, since it has shown
    nothing."""
    worst = -math.inf
    worst_at = None
    skipped = evaluated = 0
    for key, violations, computable in rows:
        if computable is not None:
            count = int(np.count_nonzero(computable))
            skipped += violations.size - count
            violations = np.where(computable, violations, -math.inf)
        else:
            count = violations.size
        if not count:
            continue
        evaluated += count
        # numpy's argmax takes the first NaN, else the first maximum.
        k = int(np.argmax(violations))
        value = float(violations[k])
        if value > worst or (math.isnan(value) and not math.isnan(worst)):
            worst, worst_at = value, (key, k)
    if not evaluated:
        return CheckResult(name, False, math.nan, f"{skipped} cells skipped "
                           "as not computable, none left to check")
    passed = worst < limit if strict else worst <= limit
    detail = detail.format(
        worst=worst, where="" if worst_at is None else where(*worst_at),
        limit=limit,
    )
    if skipped:
        detail += f"; {skipped} cells skipped as not computable"
    return CheckResult(name, passed, worst, detail)


def _cell_tau(taus, names=("n", "m", "d")):
    """`where` for rows keyed by a cell, a tuple of the parameters `names`,
    over the tau values: "n=5 m=2 d=1 tau=0.3"."""
    def where(cell, k):
        params = " ".join(f"{name}={v}" for name, v in zip(names, cell))
        return f"{params} tau={taus[k]}"

    return where


def check_sdp_bounds(grid: VerifyGrid) -> CheckResult:
    """delivery_prob stays in [0, 1] and vanishes at tau = 0 and tau = 1."""
    taus = (0.0, 1.0, *grid.tau_values)
    row = np.array(taus, dtype=float)

    def rows():
        for n, m, d in grid.cells():
            v = _delivery_prob_row(ChannelConfig(n, m, d), row)
            out = _larger(-v, v - 1.0)
            out[:2] = np.abs(v[:2])
            yield (n, m, d), out, None

    return _reduce("sdp_bounds", rows(), _cell_tau(taus), 0.0,
                   "max excursion outside [0, 1] (and endpoint residual) = "
                   "{worst:.3e} at {where}")


def check_sdp_monotone_deadline(grid: VerifyGrid) -> CheckResult:
    """A longer deadline never lowers the delivery probability."""
    taus = grid.tau_values
    row = np.array(taus, dtype=float)
    d_sorted = sorted(grid.d_values)
    steps = len(d_sorted) - 1

    def rows():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                values = np.array([
                    _delivery_prob_row(ChannelConfig(n, m, d), row)
                    for d in d_sorted
                ])
                # Tau by tau, each deadline step in turn.
                yield (n, m), (values[:-1] - values[1:]).T.ravel(), None

    def where(cell, k):
        t, j = divmod(k, steps)
        return (f"n={cell[0]} m={cell[1]} tau={taus[t]} "
                f"d={d_sorted[j]}->{d_sorted[j + 1]}")

    return _reduce("sdp_monotone_deadline", rows(), where, 1e-15,
                   "max decrease when lengthening the deadline = "
                   "{worst:.3e} at {where}")


def check_derivative_fd(grid: VerifyGrid) -> CheckResult:
    """Closed-form derivative against a central finite difference.

    Scaled error |analytic - fd| / (1 + |analytic|), because the derivative
    passes through zero at the optimum where relative error is meaningless.
    """
    row = np.array(grid.tau_values, dtype=float)
    shifted = _shifted_row(row)

    def rows():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            a = _delivery_prob_derivative_row(cfg, row)
            fd = _central_diff_row(_delivery_prob_row(cfg, shifted))
            yield (n, m, d), np.abs(a - fd) / (1.0 + np.abs(a)), None

    return _reduce("derivative_finite_difference", rows(),
                   _cell_tau(grid.tau_values), _DERIVATIVE_TOL,
                   "max scaled derivative error = {worst:.3e} at {where} "
                   "(tol {limit:g})")


def check_admitted_load_slope(grid: VerifyGrid) -> CheckResult:
    """The conditional interferer mean rises with tau, with slope below
    n_users - 1."""
    taus = grid.tau_values
    shifted = _shifted_row(np.array(taus, dtype=float))

    def rows():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                load, computable = _admitted_load_row(
                    ChannelConfig(n, m, 1), shifted
                )
                slope = _central_diff_row(load)
                yield ((n, m), _larger(-slope, slope - (n - 1)),
                       _both_halves(computable))

    return _reduce("admitted_load_slope", rows(),
                   _cell_tau(taus, ("n", "m")), _SLOPE_MARGIN,
                   "max violation of 0 <= slope <= n-1 = "
                   "{worst:.3e} at {where} (margin {limit:g})")


def check_deadline_load_slope(grid: VerifyGrid) -> CheckResult:
    """The deadline-window load rises strictly faster than n_users - 1,
    which is what makes the two curves cross exactly once."""
    taus = grid.tau_values
    shifted = _shifted_row(np.array(taus, dtype=float))

    def rows():
        for n in grid.n_values:
            for d in grid.d_values:
                load = _deadline_load_row(ChannelConfig(n, 1, d), shifted)
                yield (n, d), (n - 1) - _central_diff_row(load), None

    return _reduce("deadline_load_slope", rows(),
                   _cell_tau(taus, ("n", "d")), _SLOPE_MARGIN,
                   "max shortfall below slope > n-1 = "
                   "{worst:.3e} at {where} (margin {limit:g})")


def check_moment_ratio_identity(grid: VerifyGrid) -> CheckResult:
    """Decoded-batch moment ratio exceeds the conditional interferer mean
    by exactly one."""
    taus = grid.tau_values
    row = np.array(taus, dtype=float)

    def rows():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                # Neither side depends on the deadline, so any value works.
                cfg = ChannelConfig(n, m, 1)
                ratio, ratio_ok = _success_size_ratio_row(cfg, row)
                load, load_ok = _admitted_load_row(cfg, row)
                yield (n, m), np.abs(ratio - 1.0 - load), ratio_ok & load_ok

    return _reduce("moment_ratio_identity", rows(),
                   _cell_tau(taus, ("n", "m")), _IDENTITY_TOL,
                   "max |ratio - 1 - load| = {worst:.3e} at "
                   "{where} (tol {limit:g})")


def check_term_matching_identity(grid: VerifyGrid) -> CheckResult:
    """The term-by-term reindexing behind the moment-ratio identity:

        sum_{i=1..m} i   * P(X=i) = n tau * sum_{j<m} P(Y=j)
        sum_{i=1..m} i^2 * P(X=i) = n tau * sum_{j<m} (j+1) P(Y=j)

    with X ~ Binomial(n, tau) and Y ~ Binomial(n-1, tau)."""
    taus = grid.tau_values
    row = np.array(taus, dtype=float)

    def rows():
        for n in grid.n_values:
            mprs = grid.mpr_values(n)
            if not mprs:
                continue
            # x[i] = P(X = i + 1) and y[j] = P(Y = j), shared by every m.
            x = [_binomial_pmf_row(n, i, row) for i in range(1, max(mprs) + 1)]
            y = [_binomial_pmf_row(n - 1, j, row) for j in range(max(mprs))]
            for m in mprs:
                lhs1 = _fsum_columns([i * x[i - 1] for i in range(1, m + 1)])
                lhs2 = _fsum_columns(
                    [i * i * x[i - 1] for i in range(1, m + 1)]
                )
                rhs1 = n * row * _fsum_columns(y[:m])
                rhs2 = n * row * _fsum_columns(
                    [(j + 1) * y[j] for j in range(m)]
                )
                yield ((n, m), _larger(np.abs(lhs1 - rhs1),
                                       np.abs(lhs2 - rhs2)), None)

    return _reduce("term_matching_identity", rows(),
                   _cell_tau(taus, ("n", "m")), _IDENTITY_TOL,
                   "max reindexing residual = {worst:.3e} at "
                   "{where} (tol {limit:g})")


def check_window_bound(grid: VerifyGrid) -> CheckResult:
    """The contraction factor: identically 1 for a one-slot deadline and
    strictly below 1 on (0, 1) for every longer deadline."""
    taus = grid.tau_values
    row = np.array(taus, dtype=float)

    def rows():
        for d in sorted(set(grid.d_values) | {1, 2}):
            w = _window_bound_row(d, row)
            yield (d,), np.abs(w - 1.0) - 1e-12 if d == 1 else w - 1.0, None

    return _reduce("window_bound", rows(),
                   _cell_tau(taus, ("d",)), 0.0,
                   "max of (factor - 1), d=1 as identity residual = "
                   "{worst:.3e} at {where}", strict=True)


def check_iteration_map_slope(grid: VerifyGrid) -> CheckResult:
    """The fixed-point map is increasing."""
    shifted = _shifted_row(np.array(grid.tau_values, dtype=float))

    def rows():
        for n, m, d in grid.cells():
            g, computable = _iteration_map_row(ChannelConfig(n, m, d),
                                               shifted)
            yield (n, m, d), -_central_diff_row(g), _both_halves(computable)

    return _reduce("iteration_map_slope", rows(), _cell_tau(grid.tau_values),
                   _SLOPE_MARGIN, "max negative slope of the map = "
                   "{worst:.3e} at {where} (margin {limit:g})")


def check_iteration_map_bracketing(grid: VerifyGrid) -> CheckResult:
    """The map pushes iterates toward the optimum from both sides:
    g(x) > x strictly below it, g(x) < x strictly above it."""
    exclusion = 1e-6
    taus = grid.tau_values
    row = np.array(taus, dtype=float)

    def rows():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            tau_opt = solve_optimal_tau(cfg).tau_opt
            # Tau values within the exclusion of the optimum are not
            # checked at all.
            kept = np.flatnonzero(~(np.abs(row - tau_opt) <= exclusion))
            x = row[kept]
            g, computable = _iteration_map_row(cfg, x)
            gap = g - x
            # Wrong-signed gap is a violation; magnitude measures how
            # badly.
            yield ((n, m, d, kept), np.where(x < tau_opt, -gap, gap),
                   computable)

    def where(key, k):
        n, m, d, kept = key
        return f"n={n} m={m} d={d} tau={taus[kept[k]]}"

    return _reduce("iteration_map_bracketing", rows(), where, 0.0, "max "
                   "wrong-signed displacement of g(x) - x = {worst:.3e} at "
                   "{where}", strict=True)


def check_solver_oracle(grid: VerifyGrid) -> CheckResult:
    """Solver against the derivative-free grid search over the
    dense population sweep."""
    cells = list(grid.sweep_cells())
    tau_diffs = []
    sdp_diffs = []
    for n, m, d in cells:
        cfg = ChannelConfig(n, m, d)
        report = solve_optimal_tau(cfg)
        oracle_tau, oracle_sdp = grid_search_optimum(cfg)
        tau_diffs.append(abs(report.tau_opt - oracle_tau))
        sdp_diffs.append(abs(report.sdp_max - oracle_sdp))
    worst_sdp = max(sdp_diffs)
    result = _reduce(
        "solver_vs_grid_search",
        [(None, np.array(tau_diffs), None)],
        lambda _, k: "n={} m={} d={}".format(*cells[k]),
        1e-6,
        "max |tau diff| = {worst:.3e} at {where}, max |sdp diff| = "
        + f"{worst_sdp:.3e} (tols 1e-06, 1e-09)",
    )
    return replace(result, passed=result.passed and worst_sdp <= 1e-9)


def check_solver_localization(grid: VerifyGrid) -> CheckResult:
    """The solver converges, lands inside the localization interval, and for
    multi-packet receivers the two load curves really cross there."""
    cells = list(grid.cells())
    violations = []
    for n, m, d in cells:
        cfg = ChannelConfig(n, m, d)
        report = solve_optimal_tau(cfg)
        tau = report.tau_opt
        lo = lower_bound_tau(n, d)
        out = max(lo - tau - 1e-12, tau - (1.0 - 1e-15))
        if not report.converged:
            out = math.inf
        if m >= 2:
            crossing = abs(admitted_load(cfg, tau) - deadline_load(cfg, tau))
            out = max(out, crossing - 1e-9)
        violations.append(out)
    return _reduce("solver_localization", [(None, np.array(violations), None)],
                   lambda _, k: "n={} m={} d={}".format(*cells[k]), 0.0,
                   "max violation of interval/crossing conditions = "
                   "{worst:.3e} at {where}")


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
