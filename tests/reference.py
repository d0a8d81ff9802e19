"""References that the package's fast paths are tested against.

The per-slot reference simulator, `step_slot`, is what
`simulate.run_interval` is tested against. It simulates one slot at a time
for explicit per-station state and spells out the channel's rules: a
station that transmits resolves its packet, which succeeds when the slot
carries at most `mpr` transmissions; a station silent for `deadline`
consecutive slots loses its packet to expiry. It draws one uniform per
station per slot in station order, so run slot after slot it consumes the
stream exactly as `run_interval` does.

`grid_search_optimum` is the grid search one config at a time, which
`analytic.grid_search_optimum` must match bit for bit on every config.

`solve_optimal_tau` is the solver one config at a time as a plain scalar
Brent: its gap runs the unbound `_head_sums` and `_deadline_load` at every
evaluation, and its sdp_max is `delivery_prob` evaluated once more at the
tau it returns. `analytic.solve_optimal_tau` must give the same
`SolveReport` by repr, or raise the same error.

`delivery_prob_derivative` is the derivative of the delivery probability
by the product rule, in closed form. The package writes it instead as the
solver's stationarity gap times a positive factor, so this form is an
independent reference for both.

`CELL_CHECKS` are the row checks of `checks` evaluated one (n, m, d) cell
at a time, each cell with its own head-sum recurrence, start and window:
`checks` runs one recurrence per population instead, and must give the same
`CheckResult`s bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpraloha import analytic
from mpraloha.analytic import (
    _COARSE_POINTS,
    _RESCALE,
    _RESCALE_BITS,
    _SCALED_BELOW,
    _TOLERANCE,
    ChannelConfig,
    SolveReport,
    _deadline_load,
    _head_sums,
    _head_sums_row,
    _open_probability,
    _quotient,
    _window_prob,
    _window_prob_row,
    as_probability,
    delivery_prob,
    lower_bound_tau,
)
from mpraloha.checks import (
    _DERIVATIVE_TOL,
    _IDENTITY_TOL,
    _SLOPE_MARGIN,
    VerifyGrid,
    _cell_tau,
    _central_diff_row,
    _larger,
    _reduce,
    _shifted_row,
)


@dataclass
class UserState:
    """Mutable per-station simulation state.

    hol_age counts consecutive silent slots for the current head-of-line
    packet and always stays below the deadline; reaching it expires the
    packet and resets the counter.
    """

    tx_prob: float
    hol_age: int = 0
    packets_completed: int = 0
    packets_succeeded: int = 0

    def __post_init__(self) -> None:
        self.tx_prob = as_probability(self.tx_prob)


def step_slot(
    users: list[UserState],
    mpr: int,
    deadline: int,
    rng: np.random.Generator,
) -> tuple[int, list[bool]]:
    """Advance every station one slot, mutating `users` in place.

    Draws exactly len(users) uniforms from `rng`, in user-index order.
    Returns the slot's number of transmitters and, per station, whether it
    transmitted.
    """
    draws = rng.random(len(users))
    transmitted = [d < u.tx_prob for d, u in zip(draws, users)]
    total = sum(transmitted)
    decodable = total <= mpr
    for user, sent in zip(users, transmitted):
        if sent:
            user.packets_completed += 1
            if decodable:
                user.packets_succeeded += 1
            user.hol_age = 0
        else:
            user.hol_age += 1
            if user.hol_age >= deadline:
                # Deadline passed without a transmission: expired failure.
                user.packets_completed += 1
                user.hol_age = 0
    return total, transmitted


def grid_search_optimum(config: ChannelConfig) -> tuple[float, float]:
    """(tau, sdp) of the grid search for one config: a numpy scan of
    _COARSE_POINTS points of [lower_bound_tau, 1), with the head sum
    carried scaled where its start is at most _SCALED_BELOW, chooses the
    bracket that a scalar golden-section search on `delivery_prob` refines
    down to a width of 1e-10."""
    n, m, d = config.n_users - 1, config.mpr, config.deadline
    lo = lower_bound_tau(config.n_users, d)
    step = (1.0 - lo) / _COARSE_POINTS
    tau = lo + np.arange(_COARSE_POINTS) * step
    complement = 1.0 - tau
    term = complement**n
    ratio = tau / complement
    scaled = term <= _SCALED_BELOW
    frac, exp2 = np.frexp(complement[scaled])
    term[scaled] = frac**n
    shift = np.zeros(tau.shape, dtype=np.int64)
    shift[scaled] = exp2.astype(np.int64) * n
    head = np.zeros_like(tau)
    for i in range(m):
        head += term
        term *= ((n - i) / (i + 1)) * ratio
        big = term > _RESCALE
        term[big] /= _RESCALE
        head[big] /= _RESCALE
        shift[big] += _RESCALE_BITS
    head = np.ldexp(head, shift)
    window = tau if d == 1 else -np.expm1(d * np.log1p(-tau))
    best_k = int(np.argmax(window * np.minimum(head, 1.0)))
    a = lo + (best_k - 1) * step if best_k > 0 else lo
    b = min(lo + (best_k + 1) * step, 1.0)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = delivery_prob(config, c)
    fd = delivery_prob(config, d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = delivery_prob(config, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = delivery_prob(config, d)
    tau = 0.5 * (a + b)
    return tau, delivery_prob(config, tau)


def solve_optimal_tau(config: ChannelConfig) -> SolveReport:
    """The `SolveReport` of `analytic.solve_optimal_tau` for one config:
    the closed form for mpr = 1, else Brent's zero search (Brent 1973,
    ch. 4) on the gap admitted_load - deadline_load, from the bracket
    [lower_bound_tau, midpoint] moved right while the gap there is
    positive. Reads `analytic._MAX_ITER` when it runs."""
    n, m, d = config.n_users, config.mpr, config.deadline
    lo = lower_bound_tau(n, d)
    if m == 1:
        return SolveReport(lo, delivery_prob(config, lo), 0, 0.0, True)

    def gap(x: float) -> float:
        x = _open_probability(x)
        head, weighted, _ = _head_sums(n - 1, m, x)
        return weighted / head - _deadline_load(n, d, x)

    a, fa = lo, gap(lo)
    b = 0.5 * (lo + 1.0)
    fb = gap(b)
    while fb > 0.0:
        a, fa = b, fb
        b = 0.5 * (b + 1.0)
        fb = gap(b)
    c, fc = a, fa
    step = prev_step = b - a
    tol = 0.5 * _TOLERANCE
    iterations = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        width = abs(c - b)
        if fb == 0.0 or width <= 2.0 * tol or (
                iterations == analytic._MAX_ITER):
            break
        half = 0.5 * (c - b)
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            bound = min(3.0 * half * q - abs(tol * q), abs(prev_step * q))
            if 2.0 * p < bound:
                prev_step, step = step, p / q
            else:
                step = prev_step = half
        else:
            step = prev_step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = gap(b)
        iterations += 1
    converged = fb == 0.0 or width <= 2.0 * tol
    return SolveReport(b, delivery_prob(config, b), iterations,
                       0.0 if fb == 0.0 else width, converged)


def delivery_prob_derivative(config: ChannelConfig, tau: float) -> float:
    """d/dtau of `delivery_prob` at tau in (0, 1), by the product rule:
    with window W = 1 - (1-tau)^D and the head sums H = sum_{i<m} P(Y=i)
    and S = sum_{i<m} i P(Y=i), Y ~ Binomial(n-1, tau),

        P' = (W S - ((n-1) - (n+D-1) (1-tau)^D) tau H) / (tau (1-tau)).
    """
    n, d = config.n_users, config.deadline
    head, weighted, shift = _head_sums(n - 1, config.mpr, tau)
    head = math.ldexp(head, shift)
    weighted = math.ldexp(weighted, shift)
    inner = (n - 1) - (n + d - 1) * (1.0 - tau) ** d
    return (_window_prob(tau, d) * weighted - inner * tau * head) / (
        tau * (1.0 - tau)
    )


# The array forms of one cell, each running its own recurrence.


def _delivery_prob_row(n: int, m: int, d: int, tau: np.ndarray) -> np.ndarray:
    head, _, shift = next(_head_sums_row(n - 1, (m,), tau, weighted=False))
    head = np.ldexp(head, shift)
    return _window_prob_row(tau, d) * np.where(head < 1.0, head, 1.0)


def _admitted_load_row(cfg: ChannelConfig, tau: np.ndarray) -> np.ndarray:
    head, weighted, _ = next(_head_sums_row(cfg.n_users - 1, (cfg.mpr,), tau))
    return weighted / head


def _deadline_load_row(cfg: ChannelConfig, tau: np.ndarray) -> np.ndarray:
    d = cfg.deadline
    window = _window_prob_row(tau, d)
    return tau * (float(cfg.n_users + d - 1) - _quotient(float(d), window))


def _delivery_prob_derivative_row(
    cfg: ChannelConfig, tau: np.ndarray
) -> np.ndarray:
    head, weighted, shift = next(
        _head_sums_row(cfg.n_users - 1, (cfg.mpr,), tau)
    )
    gap = weighted / head - _deadline_load_row(cfg, tau)
    window = _window_prob_row(tau, cfg.deadline)
    return _quotient(window * np.ldexp(head, shift) * gap, tau * (1.0 - tau))


def _iteration_map_row(cfg: ChannelConfig, x: np.ndarray) -> np.ndarray:
    load = _admitted_load_row(cfg, x)
    return _quotient(x * (load + 1.0), _deadline_load_row(cfg, x) + 1.0)


def _success_size_ratio_row(
    cfg: ChannelConfig, tau: np.ndarray
) -> np.ndarray:
    den, num, _ = next(
        _head_sums_row(cfg.n_users, (cfg.mpr + 1,), tau, k=2)
    )
    return num / den


# The row checks, one cell at a time, with the names, limits and details of
# `checks`.


def sdp_bounds(grid: VerifyGrid):
    taus = (0.0, 1.0, *grid.tau_values)
    row = np.array(grid.tau_values, dtype=float)

    def rows():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            ends = [abs(delivery_prob(cfg, t)) for t in (0.0, 1.0)]
            v = _delivery_prob_row(n, m, d, row)
            yield (n, m, d), np.concatenate([ends, _larger(-v, v - 1.0)])

    return _reduce("sdp_bounds", rows(), _cell_tau(taus), 0.0,
                   "max excursion outside [0, 1] (and endpoint residual) = "
                   "{worst:.3e} at {where}")


def sdp_monotone_deadline(grid: VerifyGrid):
    taus = grid.tau_values
    row = np.array(taus, dtype=float)
    d_sorted = sorted(grid.d_values)
    steps = len(d_sorted) - 1

    def rows():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                values = np.array([
                    _delivery_prob_row(n, m, d, row) for d in d_sorted
                ])
                yield (n, m), (values[:-1] - values[1:]).T.ravel()

    def where(cell, k):
        t, j = divmod(k, steps)
        return (f"n={cell[0]} m={cell[1]} tau={taus[t]} "
                f"d={d_sorted[j]}->{d_sorted[j + 1]}")

    return _reduce("sdp_monotone_deadline", rows(), where, 1e-15,
                   "max decrease when lengthening the deadline = "
                   "{worst:.3e} at {where}")


def derivative_finite_difference(grid: VerifyGrid):
    row = np.array(grid.tau_values, dtype=float)
    shifted = _shifted_row(row)

    def rows():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            a = _delivery_prob_derivative_row(cfg, row)
            fd = _central_diff_row(_delivery_prob_row(n, m, d, shifted))
            yield (n, m, d), np.abs(a - fd) / (1.0 + np.abs(a))

    return _reduce("derivative_finite_difference", rows(),
                   _cell_tau(grid.tau_values), _DERIVATIVE_TOL,
                   "max scaled derivative error = {worst:.3e} at {where} "
                   "(tol {limit:g})")


def admitted_load_slope(grid: VerifyGrid):
    taus = grid.tau_values
    shifted = _shifted_row(np.array(taus, dtype=float))

    def rows():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                load = _admitted_load_row(ChannelConfig(n, m, 1), shifted)
                slope = _central_diff_row(load)
                yield (n, m), _larger(-slope, slope - (n - 1))

    return _reduce("admitted_load_slope", rows(),
                   _cell_tau(taus, ("n", "m")), _SLOPE_MARGIN,
                   "max violation of 0 <= slope <= n-1 = "
                   "{worst:.3e} at {where} (margin {limit:g})")


def deadline_load_slope(grid: VerifyGrid):
    taus = grid.tau_values
    shifted = _shifted_row(np.array(taus, dtype=float))

    def rows():
        for n in grid.n_values:
            for d in grid.d_values:
                load = _deadline_load_row(ChannelConfig(n, 1, d), shifted)
                yield (n, d), (n - 1) - _central_diff_row(load)

    return _reduce("deadline_load_slope", rows(),
                   _cell_tau(taus, ("n", "d")), _SLOPE_MARGIN,
                   "max shortfall below slope > n-1 = "
                   "{worst:.3e} at {where} (margin {limit:g})")


def moment_ratio_identity(grid: VerifyGrid):
    taus = grid.tau_values
    row = np.array(taus, dtype=float)

    def rows():
        for n in grid.n_values:
            for m in grid.mpr_values(n):
                cfg = ChannelConfig(n, m, 1)
                ratio = _success_size_ratio_row(cfg, row)
                load = _admitted_load_row(cfg, row)
                yield (n, m), np.abs(ratio - 1.0 - load)

    return _reduce("moment_ratio_identity", rows(),
                   _cell_tau(taus, ("n", "m")), _IDENTITY_TOL,
                   "max |ratio - 1 - load| = {worst:.3e} at "
                   "{where} (tol {limit:g})")


def iteration_map_slope(grid: VerifyGrid):
    shifted = _shifted_row(np.array(grid.tau_values, dtype=float))

    def rows():
        for n, m, d in grid.cells():
            g = _iteration_map_row(ChannelConfig(n, m, d), shifted)
            yield (n, m, d), -_central_diff_row(g)

    return _reduce("iteration_map_slope", rows(), _cell_tau(grid.tau_values),
                   _SLOPE_MARGIN, "max negative slope of the map = "
                   "{worst:.3e} at {where} (margin {limit:g})")


def iteration_map_bracketing(grid: VerifyGrid):
    exclusion = 1e-6
    taus = grid.tau_values
    row = np.array(taus, dtype=float)

    def rows():
        for n, m, d in grid.cells():
            cfg = ChannelConfig(n, m, d)
            tau_opt = analytic.solve_optimal_tau(cfg).tau_opt
            kept = np.flatnonzero(~(np.abs(row - tau_opt) <= exclusion))
            x = row[kept]
            gap = _iteration_map_row(cfg, x) - x
            yield (n, m, d, kept), np.where(x < tau_opt, -gap, gap)

    def where(key, k):
        n, m, d, kept = key
        return f"n={n} m={m} d={d} tau={taus[kept[k]]}"

    return _reduce("iteration_map_bracketing", rows(), where, 0.0, "max "
                   "wrong-signed displacement of g(x) - x = {worst:.3e} at "
                   "{where}", strict=True)


CELL_CHECKS = (
    sdp_bounds,
    sdp_monotone_deadline,
    derivative_finite_difference,
    admitted_load_slope,
    deadline_load_slope,
    moment_ratio_identity,
    iteration_map_slope,
    iteration_map_bracketing,
)
