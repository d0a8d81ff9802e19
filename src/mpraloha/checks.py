"""Numerical verification of the analytic properties the solver rests on.

Every claim the optimizer depends on is checked here on a dense parameter
grid: bounds and endpoint values of the delivery probability, agreement of
the derivative (the solver's gap, scaled) with finite differences, the
slope bounds that give a unique crossing point, the moment-ratio and
term-matching identities behind the fixed-point map, the contraction factor
staying below one, and the solver itself against the derivative-free grid
search.

Strict inequalities are tested with a small outward margin because central
finite differences carry noise of order 1e-10 and several bounds are
approached asymptotically on the grid.

Each check evaluates the tau values of one population n in one pass, with
the array forms of `analytic` that give the scalar closed forms' values bit
for bit: one head-sum recurrence per n, read at each m, and one window and
deadline-load row per (n, d). It reduces the rows cell by cell, in the
grid's (n, m, d) order, and formats the location of its worst violation
only. The window factor and the delivery probability at tau = 0 and 1 are
cheap enough to evaluate with the public functions themselves. Within one
`run_all` call the three solver checks share one `solve_optimal_tau` per
distinct cell; a check called alone solves each of its cells.
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    ChannelConfig,
    SolveReport,
    _admitted_load_rows,
    _binomial_pmf_row,
    _deadline_load_row,
    _delivery_prob_derivative_rows,
    _delivery_prob_rows,
    _elementwise,
    _gap_of,
    _int_text,
    _iteration_map_rows,
    _success_size_ratio_rows,
    _window_prob_row,
    delivery_prob,
    grid_search_optimum,
    lower_bound_tau,
    solve_optimal_tau,
    window_bound,
)

__all__ = ["VerifyGrid", "CheckResult", "run_all", "CHECK_NAMES"]

# Step of the central finite differences.
_FD_STEP = 1e-6
# Outward margin on the strict slope bounds, for finite-difference noise.
_SLOPE_MARGIN = 1e-4
# Largest scaled error allowed between the derivative and the finite
# difference.
_DERIVATIVE_TOL = 1e-5
# Largest residual allowed in the moment-ratio and term-matching identities.
_IDENTITY_TOL = 1e-12


def _valid_cell(where: str, n: int, m: int | None, d: int) -> ChannelConfig:
    """`ChannelConfig(n, m, d)`, with m = 1 if it is None. Its error is
    raised prefixed with `where` and the cell: n, then m unless it is None,
    then d, each by its digit count past DEADLINE_MAX."""
    cell = f"n={_int_text(n)}"
    if m is not None:
        cell += f" m={_int_text(m)}"
    try:
        return ChannelConfig(n, 1 if m is None else m, d)
    except ValueError as exc:
        raise ValueError(f"{where} {cell} d={_int_text(d)}: {exc}") from exc


# The reports of one `run_all` call by config, which each of its checks
# reads before it solves; None outside that call.
_SOLVES: ContextVar[dict[ChannelConfig, SolveReport] | None] = ContextVar(
    "_SOLVES", default=None
)


def _solve(config: ChannelConfig) -> SolveReport:
    """`solve_optimal_tau(config)`, looked up when it runs, solved once per
    config within one `run_all` call."""
    solves = _SOLVES.get()
    if solves is None:
        return solve_optimal_tau(config)
    report = solves.get(config)
    if report is None:
        report = solves[config] = solve_optimal_tau(config)
    return report


@dataclass(frozen=True)
class VerifyGrid:
    """Parameter grid the property checks run over.

    The default covers tau from 0.01 to 0.99 in steps of 0.01, small and
    large populations, every receiver capability up to 8, and short
    through long deadlines. sweep_* define the denser population sweep used
    only for the solver-versus-grid-search comparison. A grid without tau
    values, (n, m, d) cells, two distinct deadlines or sweep cells is
    rejected, because the checks would pass on it without evaluating
    anything. This is also the one place that checks the domain: each tau
    must stay inside (0, 1) when moved by the finite-difference step, and
    each `ChannelConfig(n, 1, d)`, each (n, m, d) cell of the check grid
    (n_values, m_values, d_values) and each cell of the sweep grid must be
    valid. A config error names the grid and the cell it came from.
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
        for tau in self.tau_values:
            if not (tau - _FD_STEP > 0.0 and tau + _FD_STEP < 1.0):
                raise ValueError(f"tau {tau!r} is not inside (0, 1) by the "
                                 f"finite-difference step {_FD_STEP:g}")
        for n in self.n_values:
            for d in self.d_values:
                _valid_cell("check grid", n, None, d)
        for n, m, d in self.cells():
            _valid_cell("check grid cell", n, m, d)
        if next(self.cells(), None) is None:
            raise ValueError("grid has no (n, m, d) cell with 1 <= m < n")
        if len(set(self.d_values)) < 2:
            raise ValueError(
                "grid has fewer than two distinct deadlines to compare"
            )
        if next(self.sweep_cells(), None) is None:
            raise ValueError("grid has no sweep cell with m < n")
        for n, m, d in self.sweep_cells():
            _valid_cell("sweep grid cell", n, m, d)

    def mpr_values(self, n_users: int) -> tuple[int, ...]:
        return tuple(m for m in self.m_values if m < n_users)

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


def _larger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(a, b) element by element, as Python's max: b only where b > a."""
    return np.where(b > a, b, a)


def _reduce(
    name: str, rows, where, limit: float, detail: str, strict: bool = False
) -> CheckResult:
    """Reduce a check's violations to the largest, the first one on ties.

    `rows` yields (key, violations) in the check's order: a float array of
    violations and a key from which `where(key, k)` formats the location of
    violation k. A NaN violation is the largest (the first NaN, if several)
    and fails the check. The check passes when the largest violation is at
    most `limit` (below it if `strict`); `detail` is formatted with
    `worst`, `where` and `limit`. A check that evaluated no violation
    fails, since it has shown nothing."""
    worst = -math.inf
    worst_at = None
    for key, violations in rows:
        if not violations.size:
            continue
        # numpy's argmax takes the first NaN, else the first maximum.
        k = int(np.argmax(violations))
        value = float(violations[k])
        if (worst_at is None or value > worst
                or (math.isnan(value) and not math.isnan(worst))):
            worst, worst_at = value, (key, k)
    if worst_at is None:
        return CheckResult(name, False, math.nan,
                           "no violation evaluated, nothing to check")
    passed = worst < limit if strict else worst <= limit
    detail = detail.format(worst=worst, where=where(*worst_at), limit=limit)
    return CheckResult(name, passed, worst, detail)


def _prefix_fsums(rows: list[np.ndarray], steps) -> list[np.ndarray]:
    """For each m of `steps`, math.fsum of the first m of the equal-length
    rows, element by element; each row is listed once."""
    columns = list(zip(*(row.tolist() for row in rows)))
    return [np.array([math.fsum(c[:m]) for c in columns]) for m in steps]


def _cell_rows(grid: VerifyGrid, form, tau: np.ndarray):
    """(cell, row) for each (n, m, d) cell of the grid, in its order, from
    one `form(n, mprs, d_values, tau)` per population n, which yields a row
    for each (m, d) with m major."""
    for n in grid.n_values:
        mprs = grid.mpr_values(n)
        cells = itertools.product((n,), mprs, grid.d_values)
        yield from zip(cells, form(n, mprs, grid.d_values, tau))


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
    row = np.array(grid.tau_values, dtype=float)

    def rows():
        for cell, v in _cell_rows(grid, _delivery_prob_rows, row):
            cfg = ChannelConfig(*cell)
            ends = [abs(delivery_prob(cfg, t)) for t in (0.0, 1.0)]
            yield cell, np.concatenate([ends, _larger(-v, v - 1.0)])

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
            mprs = grid.mpr_values(n)
            sdp = _delivery_prob_rows(n, mprs, d_sorted, row)
            for m in mprs:
                values = np.array([next(sdp) for _ in d_sorted])
                # Tau by tau, each deadline step in turn.
                yield (n, m), (values[:-1] - values[1:]).T.ravel()

    def where(cell, k):
        t, j = divmod(k, steps)
        return (f"n={cell[0]} m={cell[1]} tau={taus[t]} "
                f"d={d_sorted[j]}->{d_sorted[j + 1]}")

    return _reduce("sdp_monotone_deadline", rows(), where, 1e-15,
                   "max decrease when lengthening the deadline = "
                   "{worst:.3e} at {where}")


def check_derivative_finite_difference(grid: VerifyGrid) -> CheckResult:
    """The derivative, the solver's gap scaled, against a finite difference.

    Scaled error |analytic - fd| / (1 + |analytic|), because the derivative
    passes through zero at the optimum where relative error is meaningless.
    """
    row = np.array(grid.tau_values, dtype=float)
    shifted = _shifted_row(row)

    def rows():
        pairs = zip(_cell_rows(grid, _delivery_prob_derivative_rows, row),
                    _cell_rows(grid, _delivery_prob_rows, shifted))
        for (cell, a), (_, values) in pairs:
            fd = _central_diff_row(values)
            yield cell, np.abs(a - fd) / (1.0 + np.abs(a))

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
            mprs = grid.mpr_values(n)
            for m, load in zip(mprs, _admitted_load_rows(n, mprs, shifted)):
                slope = _central_diff_row(load)
                yield (n, m), _larger(-slope, slope - (n - 1))

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
                window = _window_prob_row(shifted, d)
                load = _deadline_load_row(n, d, shifted, window)
                yield (n, d), (n - 1) - _central_diff_row(load)

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
            mprs = grid.mpr_values(n)
            pairs = zip(_success_size_ratio_rows(n, mprs, row),
                        _admitted_load_rows(n, mprs, row))
            for m, (ratio, load) in zip(mprs, pairs):
                yield (n, m), np.abs(ratio - 1.0 - load)

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
            # P(X=i) and P(Y=i-1) for i up to max m, each power computed
            # once: p[i] = tau^i, and the two share (1-tau)^(n-i).
            p = [_elementwise(pow, row, i)
                 for i in range(max(mprs, default=0) + 1)]
            x, y = [], []
            for i in range(1, len(p)):
                shared = _elementwise(pow, 1.0 - row, n - i)
                x.append(_binomial_pmf_row(n, i, p[i], shared))
                y.append(_binomial_pmf_row(n - 1, i - 1, p[i - 1], shared))
            # The sums of i^k P(X=i) and of i^(k-1) P(Y=i-1), k = 1, 2.
            lhs1, lhs2, rhs1, rhs2 = (
                _prefix_fsums([i**k * r for i, r in enumerate(pmf, 1)], mprs)
                for k, pmf in ((1, x), (2, x), (0, y), (1, y))
            )
            for m, l1, l2, r1, r2 in zip(mprs, lhs1, lhs2, rhs1, rhs2):
                yield (n, m), _larger(np.abs(l1 - n * row * r1),
                                      np.abs(l2 - n * row * r2))

    return _reduce("term_matching_identity", rows(),
                   _cell_tau(taus, ("n", "m")), _IDENTITY_TOL,
                   "max reindexing residual = {worst:.3e} at "
                   "{where} (tol {limit:g})")


def check_window_bound(grid: VerifyGrid) -> CheckResult:
    """The contraction factor: identically 1 for a one-slot deadline and
    strictly below 1 on (0, 1) for every longer deadline."""
    taus = grid.tau_values

    def rows():
        for d in sorted(set(grid.d_values) | {1, 2}):
            w = np.array([window_bound(d, t) for t in taus])
            yield (d,), np.abs(w - 1.0) - 1e-12 if d == 1 else w - 1.0

    return _reduce("window_bound", rows(),
                   _cell_tau(taus, ("d",)), 0.0,
                   "max of (factor - 1), d=1 as identity residual = "
                   "{worst:.3e} at {where}", strict=True)


def check_iteration_map_slope(grid: VerifyGrid) -> CheckResult:
    """The fixed-point map is increasing."""
    shifted = _shifted_row(np.array(grid.tau_values, dtype=float))

    def rows():
        for cell, g in _cell_rows(grid, _iteration_map_rows, shifted):
            yield cell, -_central_diff_row(g)

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
        for (n, m, d), g in _cell_rows(grid, _iteration_map_rows, row):
            tau_opt = _solve(ChannelConfig(n, m, d)).tau_opt
            # Tau values within the exclusion of the optimum are not
            # checked at all.
            kept = np.flatnonzero(~(np.abs(row - tau_opt) <= exclusion))
            x = row[kept]
            gap = g[kept] - x
            # Wrong-signed gap is a violation; magnitude measures how
            # badly.
            yield (n, m, d, kept), np.where(x < tau_opt, -gap, gap)

    def where(key, k):
        n, m, d, kept = key
        return f"n={n} m={m} d={d} tau={taus[kept[k]]}"

    return _reduce("iteration_map_bracketing", rows(), where, 0.0, "max "
                   "wrong-signed displacement of g(x) - x = {worst:.3e} at "
                   "{where}", strict=True)


def check_solver_vs_grid_search(grid: VerifyGrid) -> CheckResult:
    """Solver against the derivative-free grid search over the
    dense population sweep."""
    cells = list(grid.sweep_cells())
    configs = [ChannelConfig(n, m, d) for n, m, d in cells]
    reports = [_solve(cfg) for cfg in configs]
    oracle = grid_search_optimum(configs)
    tau_diffs = [abs(r.tau_opt - t) for r, (t, _) in zip(reports, oracle)]
    # np.max, unlike Python's max, returns NaN if any difference is NaN.
    worst_sdp = float(np.max(
        [abs(r.sdp_max - s) for r, (_, s) in zip(reports, oracle)]
    ))
    result = _reduce(
        "solver_vs_grid_search",
        [(None, np.array(tau_diffs))],
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
        report = _solve(cfg)
        tau = report.tau_opt
        lo = lower_bound_tau(n, d)
        out = max(lo - tau - 1e-12, tau - (1.0 - 1e-15))
        if not report.converged:
            out = math.inf
        if m >= 2:
            out = max(out, abs(_gap_of(cfg)[0](tau)) - 1e-9)
        violations.append(out)
    return _reduce("solver_localization", [(None, np.array(violations))],
                   lambda _, k: "n={} m={} d={}".format(*cells[k]), 0.0,
                   "max violation of interval/crossing conditions = "
                   "{worst:.3e} at {where}")


# The `check_*` functions above, by name, in definition order.
CHECK_NAMES = tuple(
    name.removeprefix("check_") for name in globals()
    if name.startswith("check_")
)


def run_all(grid: VerifyGrid | None = None) -> list[CheckResult]:
    """Run `check_<name>` for each name of CHECK_NAMES, in that order. Each
    function, and `solve_optimal_tau`, is looked up when it runs, so a
    replaced module attribute is the one called. The checks share one
    solve per config for the length of the call."""
    g = grid or VerifyGrid()
    token = _SOLVES.set({})
    try:
        return [globals()[f"check_{name}"](g) for name in CHECK_NAMES]
    finally:
        _SOLVES.reset(token)
