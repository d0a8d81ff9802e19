"""Delivery probability and optimal transmission probability for slotted ALOHA
with multi-packet reception and a per-packet deadline.

Model: n_users saturated stations share a slotted channel. In every slot each
station independently transmits its head-of-line packet with probability tau.
The receiver decodes a slot when at most `mpr` stations transmit at once; a
slot with more simultaneous transmissions is lost entirely. Every packet must
be transmitted within `deadline` slots of reaching the head of its queue, and
there are no retransmissions: the packet is delivered exactly when its single
attempt lands in a decodable slot before the deadline passes.

`delivery_prob` evaluates the per-packet success probability for a given tau,
and `solve_optimal_tau` finds the tau that maximizes it: Brent's bracketed
zero search on the stationarity gap admitted_load - deadline_load inside
[lower_bound_tau, 1). The paper characterises the same optimum as the fixed
point of `iteration_map`, which `checks` verifies but which no longer drives
the solver, because it contracts with a slope near 1 when mpr/n_users or the
deadline is large. `grid_search_optimum` is a derivative-free maximizer used
to cross-check the solver: a uniform coarse scan, evaluated in one numpy pass,
chooses the bracket that a scalar golden-section search then refines.

The private `_*_row` functions evaluate the closed forms over a whole array
of tau at once, with the scalar functions' values bit for bit; `checks`
evaluates its property checks with them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "N_CAP",
    "ChannelConfig",
    "SolveReport",
    "binomial_pmf",
    "delivery_prob",
    "admit_prob",
    "admitted_load",
    "deadline_load",
    "delivery_prob_derivative",
    "lower_bound_tau",
    "solve_optimal_tau",
    "grid_search_optimum",
    "success_size_ratio",
    "window_bound",
    "iteration_map",
    "as_probability",
    "UnderflowError",
]


class UnderflowError(ValueError):
    """A conditional quantity whose conditioning probability underflowed to
    zero, so that it cannot be computed at this tau."""


# Population sizes beyond this are outside the supported regime; the closed
# forms still hold but the float evaluation here is only validated up to it.
N_CAP = 1000

# Binomial terms whose start (1 - tau)^n is at most _SCALED_BELOW are carried
# scaled: a subnormal start would leave the ratio recurrence only a few
# mantissa bits. Scaled terms are divided by 2**_RESCALE_BITS once they pass
# it, so that one more ratio step (at most n * tau / (1 - tau) < 2**64)
# cannot overflow.
_SCALED_BELOW = 1e-280
_RESCALE_BITS = 600
_RESCALE = 2.0**_RESCALE_BITS

# Cells of the uniform scan in `grid_search_optimum`.
_COARSE_POINTS = 2000

# Bracket width at which `solve_optimal_tau` stops, and its cap on gap
# evaluations; accepted cells up to N = 1000, D = 10^15 need fewer than 70.
_TOLERANCE = 1e-12
_MAX_ITER = 10_000


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel parameters.

    n_users: number of saturated stations, at least 2.
    mpr: receiver capability, decodes up to this many simultaneous packets.
    deadline: slots available to each head-of-line packet, at least 1.
    """

    n_users: int
    mpr: int
    deadline: int

    def __post_init__(self) -> None:
        if not 2 <= self.n_users <= N_CAP:
            raise ValueError(
                f"n_users must be in [2, {N_CAP}], got {self.n_users}"
            )
        if not 1 <= self.mpr < self.n_users:
            raise ValueError(
                f"mpr must satisfy 1 <= mpr < n_users, got mpr={self.mpr} "
                f"with n_users={self.n_users}"
            )
        if self.deadline < 1:
            raise ValueError(f"deadline must be >= 1, got {self.deadline}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of `solve_optimal_tau`.

    sdp_max is the delivery probability re-evaluated at tau_opt, not a value
    carried through the search. iterations counts gap evaluations after the
    bracket is set, residual is the width of the final sign-change bracket
    (0.0 on an exact zero of the gap), and converged holds when that width
    is at most the fixed 1e-12 tolerance.
    """

    tau_opt: float
    sdp_max: float
    iterations: int
    residual: float
    converged: bool


def as_probability(value) -> float:
    """Coerce to float and require it to be a probability in [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {value!r}")
    return v


def _open_probability(value) -> float:
    v = as_probability(value)
    if v == 0.0 or v == 1.0:
        raise ValueError(f"value must be strictly inside (0, 1), got {v}")
    return v


def binomial_pmf(n: int, i: int, p: float) -> float:
    """P(X = i) for X ~ Binomial(n, p). Exact at the endpoints p = 0 and 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= i <= n:
        raise ValueError(f"i must be in [0, n], got i={i}, n={n}")
    p = as_probability(p)
    c = math.comb(n, i)
    if c.bit_length() <= 1023:
        # 0.0 ** 0 == 1.0 in Python, so the endpoints need no special case.
        return c * p**i * (1.0 - p) ** (n - i)
    if p == 0.0:
        return 1.0 if i == 0 else 0.0
    if p == 1.0:
        return 1.0 if i == n else 0.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def _head_sums(n: int, m: int, tau: float) -> tuple[float, float]:
    """Return (sum_{i<m} P(Y=i), sum_{i<m} i*P(Y=i)) for Y ~ Binomial(n, tau).

    Terms are built by the ratio recurrence from (1-tau)^n. When that starting
    value underflows, the terms are carried scaled by 2**-shift instead: with
    1 - tau = frac * 2**e and frac in [0.5, 1), the start is frac**n (a normal
    float for n <= 1021) times the exact power 2**(e*n).
    """
    if tau == 0.0:
        return 1.0, 0.0
    if tau == 1.0:
        return 0.0, 0.0
    head = 0.0
    weighted = 0.0
    term = (1.0 - tau) ** n
    ratio = tau / (1.0 - tau)
    if term > _SCALED_BELOW:
        for i in range(m):
            head += term
            weighted += i * term
            term *= ((n - i) / (i + 1)) * ratio
        return head, weighted
    frac, exp2 = math.frexp(1.0 - tau)
    term, shift = frac**n, exp2 * n
    for i in range(m):
        head += term
        weighted += i * term
        term *= ((n - i) / (i + 1)) * ratio
        if term > _RESCALE:
            term /= _RESCALE
            head /= _RESCALE
            weighted /= _RESCALE
            shift += _RESCALE_BITS
    return math.ldexp(head, shift), math.ldexp(weighted, shift)


def _elementwise(func, values: np.ndarray, *args) -> np.ndarray:
    """func(v, *args) for every element v of the 1-D array `values`.

    The array forms below take their transcendental factors from here, so
    that each comes from libm exactly as the scalar closed forms compute
    it: numpy's own power, log1p and expm1 differ from libm's in the last
    bit for a few percent of arguments.
    """
    extra = [itertools.repeat(a) for a in args]
    return np.fromiter(
        map(func, values.tolist(), *extra), dtype=float, count=values.size
    )


def _libm_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """base ** exponent element by element, as Python's float power."""
    return _elementwise(pow, base, exponent)


def _head_sums_row(
    n: int, m: int, tau: np.ndarray, power=_libm_power, weighted=True
):
    """`_head_sums` at every element of `tau`, all strictly inside (0, 1).

    The recurrence runs on the whole vector, one step per i < m and in the
    scalar operation order, so memory stays at a few vectors for any m.
    Elements whose start underflows are carried scaled, as there; the
    others never pass 2**_RESCALE_BITS and keep a shift of 0. `power`
    computes the starts (1-tau)^n and frac^n: with the default libm power
    the sums are bit-identical to `_head_sums`. Returns (head, weighted
    sum), the second None unless `weighted`.
    """
    complement = 1.0 - tau
    term = power(complement, n)
    ratio = tau / complement
    scaled = term <= _SCALED_BELOW
    any_scaled = bool(scaled.any())
    if any_scaled:
        frac, exp2 = np.frexp(complement[scaled])
        term[scaled] = power(frac, n)
        shift = np.zeros(tau.shape, dtype=np.int64)
        shift[scaled] = exp2.astype(np.int64) * n
    head = np.zeros_like(tau)
    sums = np.zeros_like(tau) if weighted else None
    for i in range(m):
        head += term
        if weighted:
            sums += i * term
        term *= ((n - i) / (i + 1)) * ratio
        if any_scaled:
            big = term > _RESCALE
            term[big] /= _RESCALE
            head[big] /= _RESCALE
            if weighted:
                sums[big] /= _RESCALE
            shift[big] += _RESCALE_BITS
    if any_scaled:
        head = np.ldexp(head, shift)
        if weighted:
            sums = np.ldexp(sums, shift)
    return head, sums


def _delivery_prob_array(config: ChannelConfig, tau: np.ndarray):
    """`delivery_prob` at every element of `tau`, all strictly inside (0, 1),
    for the coarse scan of `grid_search_optimum`.

    The head sum is `_head_sums_row` with numpy's power, and the window
    uses numpy's log1p and expm1. These may differ from libm's by an ulp,
    so the values match the scalar ones to rounding, not bit for bit. The
    scan only chooses a bracket: on the 643 cells of the `analytic`
    benchmark the libm factors of `_delivery_prob_row` move no argmax but
    take a 2000-point scan from 0.17 to 0.80 ms.
    """
    head, _ = _head_sums_row(
        config.n_users - 1, config.mpr, tau, power=operator.pow,
        weighted=False,
    )
    d = config.deadline
    window = tau if d == 1 else -np.expm1(d * np.log1p(-tau))
    return window * np.minimum(head, 1.0)


def _window_prob(tau: float, deadline: int) -> float:
    """Probability of at least one transmission in `deadline` slots."""
    if tau == 0.0:
        return 0.0
    if tau == 1.0:
        return 1.0
    if deadline == 1:
        return tau
    return -math.expm1(deadline * math.log1p(-tau))


def admit_prob(config: ChannelConfig, tau) -> float:
    """Probability that at most mpr - 1 of the other n_users - 1 stations
    transmit, i.e. that a given transmission would be decoded. Clamped to
    1, which the summed binomial head can exceed by rounding when mpr is far
    above the mean interferer count."""
    t = as_probability(tau)
    head, _ = _head_sums(config.n_users - 1, config.mpr, t)
    return head if head < 1.0 else 1.0


def admitted_load(config: ChannelConfig, tau) -> float:
    """Mean number of interferers given the slot is decodable.

    Defined on the open interval (0, 1) only: the sum of i * P(Y = i) over
    i < mpr, divided by admit_prob, with Y the interferer count.
    """
    t = _open_probability(tau)
    head, weighted = _head_sums(config.n_users - 1, config.mpr, t)
    if head == 0.0:
        raise UnderflowError(
            f"admit probability underflowed to zero at tau={t}; "
            "the conditional mean is not computable here"
        )
    return weighted / head


def deadline_load(config: ChannelConfig, tau) -> float:
    """The deadline-window counterpart of `admitted_load`:

        tau * (n_users + deadline - 1 - deadline / (1 - (1 - tau)^deadline))

    Defined on (0, 1). The optimal tau is where this crosses admitted_load.
    """
    t = _open_probability(tau)
    window = _window_prob(t, config.deadline)
    return t * (config.n_users + config.deadline - 1 - config.deadline / window)


def delivery_prob(config: ChannelConfig, tau) -> float:
    """Per-packet successful delivery probability at transmission level tau.

    Product of the probability that the packet is transmitted at all within
    its deadline window and the probability that the chosen slot is decodable.
    Both factors are at most 1, so the result lies in [0, 1].
    """
    t = as_probability(tau)
    return _window_prob(t, config.deadline) * admit_prob(config, t)


def delivery_prob_derivative(config: ChannelConfig, tau) -> float:
    """d/dtau of delivery_prob, on the open interval (0, 1)."""
    t = _open_probability(tau)
    n = config.n_users
    d = config.deadline
    head, weighted = _head_sums(n - 1, config.mpr, t)
    window = _window_prob(t, d)
    miss = (1.0 - t) ** d
    inner = (n - 1) - (n + d - 1) * miss
    return (window * weighted - inner * t * head) / (t * (1.0 - t))


def lower_bound_tau(n_users: int, deadline: int) -> float:
    """Left endpoint of the interval that contains the optimum:

        1 - ((n_users - 1) / (n_users - 1 + deadline)) ** (1 / deadline)

    The maximizing tau always lies in [this bound, 1).
    """
    if n_users < 2:
        raise ValueError(f"n_users must be >= 2, got {n_users}")
    if deadline < 1:
        raise ValueError(f"deadline must be >= 1, got {deadline}")
    if deadline == 1:
        # Simplifies to 1/n exactly; the log/expm1 route is 1 ulp noisier.
        return 1.0 / n_users
    ratio = (n_users - 1) / (n_users - 1 + deadline)
    return -math.expm1(math.log(ratio) / deadline)


def success_size_ratio(config: ChannelConfig, tau) -> float:
    """Second-to-first moment ratio of the decoded batch size.

    Over all n_users stations, sum i^2 * P(X = i) / sum i * P(X = i) with the
    sums truncated at mpr. Exceeds the conditional interferer mean by exactly
    one, which is what the identity checks pin down.
    """
    t = _open_probability(tau)
    n = config.n_users
    num = math.fsum(
        i * i * binomial_pmf(n, i, t) for i in range(1, config.mpr + 1)
    )
    den = math.fsum(
        i * binomial_pmf(n, i, t) for i in range(1, config.mpr + 1)
    )
    if den == 0.0:
        raise UnderflowError(
            f"decoded-batch mass underflowed to zero at tau={t}"
        )
    return num / den


def window_bound(deadline: int, x) -> float:
    """The factor deadline^2 x^2 (1-x)^(deadline-1) / (1-(1-x)^deadline)^2.

    Identically 1 when deadline == 1 and strictly below 1 on (0, 1) otherwise;
    this is what makes `iteration_map` contract toward the optimum.
    """
    if deadline < 1:
        raise ValueError(f"deadline must be >= 1, got {deadline}")
    v = _open_probability(x)
    window = _window_prob(v, deadline)
    return (deadline * v) ** 2 * (1.0 - v) ** (deadline - 1) / window**2


def iteration_map(config: ChannelConfig, x) -> float:
    """One step of the paper's fixed-point update:

        g(x) = x * (admitted_load(x) + 1) / (deadline_load(x) + 1)

    Fixed points of g on (0, 1) are exactly the stationary points of the
    delivery probability. The solver brackets the same point directly.
    """
    v = _open_probability(x)
    return (
        v
        * (admitted_load(config, v) + 1.0)
        / (deadline_load(config, v) + 1.0)
    )


# Array forms of the closed forms above, for the property checks. Each takes
# a 1-D float array and returns what its scalar function returns at every
# element, bit for bit: numpy does the arithmetic in the scalar operation
# order, and the transcendental factors come from libm through
# `_elementwise`. Where the scalar function raises UnderflowError, the array
# form returns NaN and marks the element in a second array, `computable`.


def _open_row(tau: np.ndarray) -> np.ndarray:
    """`tau`, once `_open_probability` accepts each element."""
    outside = ~((tau > 0.0) & (tau < 1.0))
    if outside.any():
        _open_probability(float(tau[outside][0]))
    return tau


def _window_prob_row(tau: np.ndarray, deadline: int) -> np.ndarray:
    """`_window_prob` at every element of `tau`, all strictly inside (0, 1)."""
    if deadline == 1:
        return tau
    miss = float(deadline) * _elementwise(math.log1p, -tau)
    return -_elementwise(math.expm1, miss)


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den element by element, as Python divides floats: a zero
    divisor raises ZeroDivisionError, an overflow gives inf unwarned."""
    if not np.all(den):
        raise ZeroDivisionError("float division by zero")
    with np.errstate(over="ignore"):
        return num / den


def _conditional_row(num: np.ndarray, den: np.ndarray):
    """num / den, and where den is 0 (the scalar's UnderflowError) NaN,
    with no floating-point warning."""
    computable = den != 0.0
    values = np.full_like(num, math.nan)
    np.divide(num, den, out=values, where=computable)
    return values, computable


def _admitted_load_row(config: ChannelConfig, tau: np.ndarray):
    """`admitted_load` at every element: (values, computable)."""
    head, weighted = _head_sums_row(config.n_users - 1, config.mpr,
                                    _open_row(tau))
    return _conditional_row(weighted, head)


def _deadline_load_row(config: ChannelConfig, tau: np.ndarray) -> np.ndarray:
    """`deadline_load` at every element."""
    d = config.deadline
    window = _window_prob_row(_open_row(tau), d)
    load = float(config.n_users + d - 1) - _quotient(float(d), window)
    return tau * load


def _delivery_prob_row(config: ChannelConfig, tau: np.ndarray) -> np.ndarray:
    """`delivery_prob` at every element, all in [0, 1]."""
    outside = ~((tau >= 0.0) & (tau <= 1.0))
    if outside.any():
        as_probability(float(tau[outside][0]))
    inside = (tau > 0.0) & (tau < 1.0)
    if not inside.all():
        # Both endpoints give 0.0 as in the scalar form: no transmission at
        # tau = 0, no decodable slot at tau = 1.
        values = np.zeros_like(tau)
        values[inside] = _delivery_prob_row(config, tau[inside])
        return values
    head, _ = _head_sums_row(config.n_users - 1, config.mpr, tau,
                             weighted=False)
    admit = np.where(head < 1.0, head, 1.0)
    return _window_prob_row(tau, config.deadline) * admit


def _delivery_prob_derivative_row(
    config: ChannelConfig, tau: np.ndarray
) -> np.ndarray:
    """`delivery_prob_derivative` at every element."""
    n = config.n_users
    d = config.deadline
    head, weighted = _head_sums_row(n - 1, config.mpr, _open_row(tau))
    window = _window_prob_row(tau, d)
    miss = _libm_power(1.0 - tau, d)
    inner = float(n - 1) - float(n + d - 1) * miss
    return _quotient(window * weighted - inner * tau * head,
                     tau * (1.0 - tau))


def _iteration_map_row(config: ChannelConfig, x: np.ndarray):
    """`iteration_map` at every element: (values, computable)."""
    load, computable = _admitted_load_row(config, x)
    values = _quotient(
        x * (load + 1.0), _deadline_load_row(config, x) + 1.0
    )
    return values, computable


def _window_bound_row(deadline: int, x: np.ndarray) -> np.ndarray:
    """`window_bound` at every element."""
    if deadline < 1:
        raise ValueError(f"deadline must be >= 1, got {deadline}")
    window = _window_prob_row(_open_row(x), deadline)
    return _quotient(
        _libm_power(float(deadline) * x, 2)
        * _libm_power(1.0 - x, deadline - 1),
        _libm_power(window, 2),
    )


def _binomial_pmf_row(n: int, i: int, p: np.ndarray) -> np.ndarray:
    """`binomial_pmf` at every element of `p`, all in [0, 1]."""
    c = math.comb(n, i) if 0 <= i <= n else None
    if c is None or c.bit_length() > 1023 or not (
        (p >= 0.0) & (p <= 1.0)
    ).all():
        # The scalar's argument errors and its log-domain branch.
        return _elementwise(lambda q: binomial_pmf(n, i, q), p)
    return float(c) * _libm_power(p, i) * _libm_power(1.0 - p, n - i)


def _fsum_columns(rows: list[np.ndarray]) -> np.ndarray:
    """math.fsum of each column of the equal-length rows."""
    columns = zip(*(row.tolist() for row in rows))
    return np.fromiter(map(math.fsum, columns), dtype=float,
                       count=rows[0].size)


def _success_size_ratio_row(config: ChannelConfig, tau: np.ndarray):
    """`success_size_ratio` at every element: (values, computable)."""
    _open_row(tau)
    terms = [
        _binomial_pmf_row(config.n_users, i, tau)
        for i in range(1, config.mpr + 1)
    ]
    num = _fsum_columns([i * i * t for i, t in enumerate(terms, 1)])
    den = _fsum_columns([i * t for i, t in enumerate(terms, 1)])
    return _conditional_row(num, den)


def _stationarity_gap(config: ChannelConfig, x: float) -> float:
    """admitted_load(x) - deadline_load(x), which has the sign of the
    delivery-probability derivative. Where the admit probability underflows
    to zero, P(x) is below its value anywhere to the left, so x lies past
    the optimum and the gap is reported as -inf."""
    head, weighted = _head_sums(config.n_users - 1, config.mpr, x)
    if head == 0.0:
        return -math.inf
    window = _window_prob(x, config.deadline)
    d = config.deadline
    return weighted / head - x * (config.n_users + d - 1 - d / window)


def solve_optimal_tau(config: ChannelConfig) -> SolveReport:
    """Find the tau in (0, 1) maximizing `delivery_prob`.

    For mpr = 1 the closed form `lower_bound_tau` is returned directly.
    Otherwise the zero of the stationarity gap admitted_load - deadline_load
    is found by Brent's method (inverse quadratic and secant steps,
    safeguarded by bisection). The gap is positive below the optimum and
    negative above it. The starting bracket is [lower_bound_tau, midpoint
    of the localization interval]; while the gap at the right end is still
    positive, the bracket moves right, halving the distance to 1.

    The search stops converged once the bracket is at most _TOLERANCE
    (1e-12) wide, which every b <= 1 allows (4 ulp(b) <= 8.9e-16), and
    unconverged after _MAX_ITER (10,000) gap evaluations. `SolveReport`
    describes the fields.
    """
    lo = lower_bound_tau(config.n_users, config.deadline)
    if config.mpr == 1:
        return SolveReport(
            tau_opt=lo,
            sdp_max=delivery_prob(config, lo),
            iterations=0,
            residual=0.0,
            converged=True,
        )
    # Bracket: gap(a) > 0 >= gap(b).
    a, fa = lo, _stationarity_gap(config, lo)
    b = 0.5 * (lo + 1.0)
    fb = _stationarity_gap(config, b)
    while fb > 0.0:
        a, fa = b, fb
        b = 0.5 * (b + 1.0)
        fb = _stationarity_gap(config, b)
    # Brent's zero search (Brent 1973, ch. 4). b is the best estimate, c the
    # other end of the bracket, a the previous b.
    c, fc = a, fa
    step = prev_step = b - a
    # Half the stopping width; also the smallest step taken.
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
        if fb == 0.0 or width <= 2.0 * tol or iterations == _MAX_ITER:
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
        fb = _stationarity_gap(config, b)
        iterations += 1
    return SolveReport(
        tau_opt=b,
        sdp_max=delivery_prob(config, b),
        iterations=iterations,
        residual=0.0 if fb == 0.0 else width,
        converged=fb == 0.0 or width <= 2.0 * tol,
    )


def grid_search_optimum(config: ChannelConfig) -> tuple[float, float]:
    """Derivative-free maximizer of `delivery_prob`, for cross-checking.

    Scans _COARSE_POINTS uniformly spaced points of [lower_bound_tau, 1),
    then refines the best cell with golden-section search down to a bracket
    of width 1e-10. Returns (tau, sdp). The scan runs in one numpy pass and
    only chooses the bracket (the first maximum on ties); the refinement
    and the returned values use the scalar `delivery_prob`.
    """
    lo = lower_bound_tau(config.n_users, config.deadline)
    step = (1.0 - lo) / _COARSE_POINTS
    scan = _delivery_prob_array(config, lo + np.arange(_COARSE_POINTS) * step)
    best_k = int(np.argmax(scan))
    a = lo + (best_k - 1) * step if best_k > 0 else lo
    b = min(lo + (best_k + 1) * step, 1.0)
    # The objective is unimodal on (0, 1), so the bracket holds the maximum.
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
