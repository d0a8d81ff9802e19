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
[lower_bound_tau, 1), a function of tau bound to the config once per solve,
whose head sum at the tau returned also gives the reported maximum.
The paper characterises the same optimum as the fixed point of
`iteration_map`, which `checks` verifies; the solver does not iterate it,
because it contracts with a slope near 1 when mpr/n_users or the deadline
is large. `grid_search_optimum` is a derivative-free maximizer used
to cross-check the solver. It searches a whole list of configs at once: a
uniform coarse scan chooses each config's bracket, and a golden-section
search run for all configs in lockstep refines them, with the values of the
scalar `delivery_prob` bit for bit. The scan runs one binomial recurrence
per n_users over one row per distinct (n_users, deadline), and reads each
config's argmax at the step equal to its mpr.

The private `_*_row` and `_*_rows` functions evaluate the closed forms over
a whole array of tau at once, with the scalar functions' values bit for
bit; `checks` evaluates its property checks with them. `delivery_prob` has
two array forms, one per kernel: `_delivery_prob_rows`, one n_users over
many tau, for the check rows and, with numpy's factors, the coarse scan,
and `_refinement_kernel`, one config per element, banded by mpr, for the
lockstep refinement, scaled starts included. `_head_sums_row` is the one
array recurrence of the binomial head sums: the `_*_rows` forms run it
once per n_users and read it at each mpr.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "N_CAP",
    "DEADLINE_MAX",
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
]


# The largest population, and the largest n of `binomial_pmf`, whose
# float(comb(n, i)) stays finite up to it (comb(1000, 500) has 995 bits).
# The conditional quantities divide the scaled head sums, whose start
# frac**n with frac >= 1/2 must stay a normal float: 0.5**N_CAP must be at
# least sys.float_info.min, which holds up to 1021, or a denominator can be
# zero.
N_CAP = 1000

# Binomial terms whose start (1 - tau)^n is at most _SCALED_BELOW are carried
# scaled: a subnormal start would leave the ratio recurrence only a few
# mantissa bits. Scaled terms are divided by 2**_RESCALE_BITS once they pass
# it, so that one more ratio step (at most n * tau / (1 - tau) < 2**64)
# cannot overflow.
_SCALED_BELOW = 1e-280
_RESCALE_BITS = 600
_RESCALE = 2.0**_RESCALE_BITS

# Cells of the uniform scan in `grid_search_optimum`, and its largest matrix
# in float elements: it scans and refines its configs in chunks of that
# size, so its memory does not grow with their number.
_COARSE_POINTS = 2000
_CHUNK_ELEMENTS = 2**16

# The largest deadline: every formula takes it as a float, and a larger int
# has none. At this limit lower_bound_tau is 3.9e-306, still a normal float.
DEADLINE_MAX = int(sys.float_info.max)

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
        _require_population(self.n_users)
        if not 1 <= self.mpr < self.n_users:
            raise ValueError(
                f"mpr must satisfy 1 <= mpr < n_users, got "
                f"mpr={_int_text(self.mpr)} with "
                f"n_users={_int_text(self.n_users)}"
            )
        _require_deadline(self.deadline)


def _require_population(n_users: int) -> None:
    """Raise ValueError unless 2 <= n_users <= N_CAP."""
    if not 2 <= n_users <= N_CAP:
        raise ValueError(
            f"n_users must be in [2, {N_CAP}], got {_int_text(n_users)}"
        )


def _require_deadline(deadline: int) -> None:
    """Raise ValueError unless 1 <= deadline <= DEADLINE_MAX."""
    if deadline < 1:
        raise ValueError(f"deadline must be >= 1, got {_int_text(deadline)}")
    if deadline > DEADLINE_MAX:
        raise ValueError(
            "deadline must be at most int(sys.float_info.max), about "
            f"{sys.float_info.max:.4g}, got {_int_text(deadline)}"
        )


def _int_text(value: int) -> str:
    """The int `value` in decimal, or "a 310-digit number" ("a negative
    ...") where its magnitude passes DEADLINE_MAX and would run to hundreds
    of digits, or past the 4300 that str() accepts. Every validator names
    an int it rejects with it."""
    if abs(value) > DEADLINE_MAX:
        sign = "negative " if value < 0 else ""
        return f"a {sign}{_digits(abs(value))}-digit number"
    return str(value)


def _digits(value: int) -> int:
    """Decimal digits of the positive int `value`, with no str(), which
    refuses ints past 4300 digits."""
    digits = max(1, (value.bit_length() - 1) * 30103 // 100000)
    while 10**digits <= value:
        digits += 1
    return digits


@dataclass(frozen=True)
class SolveReport:
    """Outcome of `solve_optimal_tau`.

    sdp_max is `delivery_prob` at tau_opt, bit for bit, from the head sum
    that the gap evaluation at tau_opt computed. iterations counts gap evaluations after the
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
    """P(X = i) for X ~ Binomial(n, p), for 0 <= i <= n <= N_CAP. Exact at
    the endpoints p = 0 and 1. No caller loops on it, so it is
    `_binomial_pmf_row` at one point."""
    if not 0 <= n <= N_CAP:
        raise ValueError(f"n must be in [0, {N_CAP}], got {_int_text(n)}")
    if not 0 <= i <= n:
        raise ValueError(f"i must be in [0, n], got i={_int_text(i)}, n={n}")
    p = as_probability(p)
    # 0.0 ** 0 == 1.0 in Python, so the endpoints need no special case.
    return _binomial_pmf_row(n, i, p**i, (1.0 - p) ** (n - i))


def _head_sums(n: int, m: int, tau: float) -> tuple[float, float, int]:
    """Return (head, weighted, shift) with head * 2**shift = sum_{i<m}
    P(Y=i) and weighted * 2**shift = sum_{i<m} i P(Y=i), for
    Y ~ Binomial(n, tau).

    Terms are built by the ratio recurrence from (1-tau)^n. When that starting
    value underflows, the terms are carried scaled by 2**-shift instead: with
    1 - tau = frac * 2**e and frac in [0.5, 1), the start is frac**n (a normal
    float for n <= 1021) times the exact power 2**(e*n). A quotient of the
    two sums is taken before any ldexp, where both are still normal.
    """
    if tau == 1.0:
        return 0.0, 0.0, 0
    head = 0.0
    weighted = 0.0
    term = (1.0 - tau) ** n
    ratio = tau / (1.0 - tau)
    # Unscaled terms are at most 1, never pass 2**_RESCALE_BITS and keep a
    # shift of 0, which an ldexp leaves exact.
    shift = 0
    if term <= _SCALED_BELOW:
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
    return head, weighted, shift


def _elementwise(func, values: np.ndarray, *args) -> np.ndarray:
    """func(v, *a) for every element v of the 1-D array `values`, where
    each of `args` is one value for every element or an array of as many.

    The array forms below take their transcendental factors from here, so
    that each comes from libm exactly as the scalar closed forms compute
    it: numpy's own power, log1p and expm1 differ from libm's in the last
    bit for a few percent of arguments.
    """
    extra = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a)
             for a in args]
    return np.fromiter(
        map(func, values.tolist(), *extra), dtype=float, count=values.size
    )


def _head_sums_row(
    n: int, steps, tau: np.ndarray, k: int = 1, exact=True, weighted=True,
):
    """`_head_sums` at every element of `tau`, all strictly inside (0, 1),
    with each term weighted by i^(k-1), for every m in `steps`: a generator
    that yields the partial sums after each of those steps, in their order.

    The recurrence runs on the whole array, one step per i < max(steps)
    and in the scalar operation order, so the sums after m steps are those
    of a run that stops there, and memory stays at a few arrays for any m.
    A step below the one before it starts a new recurrence.
    Elements whose start underflows are carried scaled, as there; the
    others never pass 2**_RESCALE_BITS and keep a shift of 0. The starts
    (1-tau)^n and frac^n take Python's float power when `exact`, and then
    with k = 1 the sums are bit-identical to `_head_sums`; otherwise
    numpy's. Yields (head, weighted sum, shift), the second None unless
    `weighted`, the shift an int array, or 0 if no element is scaled. The
    arrays are updated in place by the next step: read them before it.
    """
    steps = list(steps)
    for j in range(1, len(steps)):
        if steps[j] < steps[j - 1]:
            yield from _head_sums_row(n, steps[:j], tau, k, exact, weighted)
            yield from _head_sums_row(n, steps[j:], tau, k, exact, weighted)
            return
    complement = 1.0 - tau
    term = _elementwise(pow, complement, n) if exact else complement**n
    ratio = tau / complement
    scaled = term <= _SCALED_BELOW
    any_scaled = bool(scaled.any())
    shift = 0
    if any_scaled:
        frac, exp2 = np.frexp(complement[scaled])
        term[scaled] = _elementwise(pow, frac, n) if exact else frac**n
        shift = np.zeros(tau.shape, dtype=np.int64)
        shift[scaled] = exp2.astype(np.int64) * n
        del frac, exp2
    del complement, scaled
    head = np.zeros_like(tau)
    sums = np.zeros_like(tau) if weighted else None
    # The steps need tau no more; a caller that drops it too frees it.
    del tau
    i = 0
    for m in steps:
        for i in range(i, m):
            part = term if k == 1 else i ** (k - 1) * term
            head += part
            if weighted:
                sums += i * part
            term *= ((n - i) / (i + 1)) * ratio
            # The mask is empty unless some term passed the bound.
            if any_scaled and term.max() > _RESCALE:
                big = term > _RESCALE
                term[big] /= _RESCALE
                head[big] /= _RESCALE
                if weighted:
                    sums[big] /= _RESCALE
                shift[big] += _RESCALE_BITS
        i = m
        yield head, sums, shift


def _window_prob(tau: float, deadline: int) -> float:
    """Probability of at least one transmission in `deadline` slots."""
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
    head, _, shift = _head_sums(config.n_users - 1, config.mpr, t)
    return _admit(head, shift)


def _admit(head: float, shift: int) -> float:
    """`admit_prob` from the head and shift of `_head_sums`."""
    head = math.ldexp(head, shift)
    return head if head < 1.0 else 1.0


def admitted_load(config: ChannelConfig, tau) -> float:
    """Mean number of interferers given the slot is decodable.

    Defined on the open interval (0, 1) only: the sum of i * P(Y = i) over
    i < mpr, divided by admit_prob, with Y the interferer count.
    """
    t = _open_probability(tau)
    head, weighted, _ = _head_sums(config.n_users - 1, config.mpr, t)
    return weighted / head


def deadline_load(config: ChannelConfig, tau) -> float:
    """The deadline-window counterpart of `admitted_load`:

        tau * (n_users + deadline - 1 - deadline / (1 - (1 - tau)^deadline))

    Defined on (0, 1). The optimal tau is where this crosses admitted_load.
    """
    return _deadline_load(config.n_users, config.deadline,
                          _open_probability(tau))


def _deadline_load(n_users: int, deadline: int, tau: float) -> float:
    """`deadline_load` at the float tau, strictly inside (0, 1)."""
    window = _window_prob(tau, deadline)
    quotient = deadline / window
    if quotient < math.inf:
        return tau * (n_users + deadline - 1 - quotient)
    # At subnormal tau the quotient overflows, but tau times it does not.
    return tau * (n_users + deadline - 1) - deadline * (tau / window)


def delivery_prob(config: ChannelConfig, tau) -> float:
    """Per-packet successful delivery probability at transmission level tau.

    Product of the probability that the packet is transmitted at all within
    its deadline window and the probability that the chosen slot is decodable.
    Both factors are at most 1, so the result lies in [0, 1].
    """
    t = as_probability(tau)
    return _window_prob(t, config.deadline) * admit_prob(config, t)


def delivery_prob_derivative(config: ChannelConfig, tau) -> float:
    """d/dtau of delivery_prob, on the open interval (0, 1). No caller
    loops on it, so it is `_delivery_prob_derivative_rows` at one point."""
    t = np.array([_open_probability(tau)])
    rows = _delivery_prob_derivative_rows(
        config.n_users, (config.mpr,), (config.deadline,), t
    )
    return float(next(rows)[0])


def lower_bound_tau(n_users: int, deadline: int) -> float:
    """Left endpoint of the interval that contains the optimum:

        1 - ((n_users - 1) / (n_users - 1 + deadline)) ** (1 / deadline)

    The maximizing tau always lies in [this bound, 1).
    """
    _require_population(n_users)
    _require_deadline(deadline)
    if deadline == 1:
        # Simplifies to 1/n exactly; the log/expm1 route is 1 ulp noisier.
        return 1.0 / n_users
    ratio = (n_users - 1) / (n_users - 1 + deadline)
    return -math.expm1(math.log(ratio) / deadline)


def success_size_ratio(config: ChannelConfig, tau) -> float:
    """Second-to-first moment ratio of the decoded batch size.

    Over all n_users stations, sum i^2 * P(X = i) / sum i * P(X = i) with the
    sums truncated at mpr. Exceeds the conditional interferer mean by exactly
    one, which the identity checks pin down. No caller loops on it, so it is
    `_success_size_ratio_rows` evaluated at one point.
    """
    t = np.array([_open_probability(tau)])
    rows = _success_size_ratio_rows(config.n_users, (config.mpr,), t)
    return float(next(rows)[0])


def window_bound(deadline: int, x) -> float:
    """The factor deadline^2 x^2 (1-x)^(deadline-1) / (1-(1-x)^deadline)^2.

    Identically 1 when deadline == 1 and strictly below 1 on (0, 1) otherwise;
    this is what makes `iteration_map` contract toward the optimum.
    """
    _require_deadline(deadline)
    v = _open_probability(x)
    window = _window_prob(v, deadline)
    return (deadline * v) ** 2 * (1.0 - v) ** (deadline - 1) / window**2


def iteration_map(config: ChannelConfig, x) -> float:
    """One step of the paper's fixed-point update:

        g(x) = x * (admitted_load(x) + 1) / (deadline_load(x) + 1)

    Fixed points of g on (0, 1) are exactly the stationary points of the
    delivery probability. The solver brackets the same point directly, and
    no caller loops on g, so it is `_iteration_map_rows` at one point.
    """
    v = np.array([_open_probability(x)])
    rows = _iteration_map_rows(
        config.n_users, (config.mpr,), (config.deadline,), v
    )
    return float(next(rows)[0])


# Array forms of the closed forms above, for the property checks and the
# grid search. Each takes a float array and returns what its scalar
# function returns at every element, bit for bit: numpy does the arithmetic
# in the scalar operation order, and the transcendental factors come from
# libm through `_elementwise`; only the coarse scan takes numpy's faster
# ones, through the exact=False of `_delivery_prob_rows`.
# The forms take valid parameters and tau strictly inside (0, 1), which
# `checks.VerifyGrid` guarantees. The `_*_rows` forms serve one n_users:
# generators that yield one row for each mpr of `mprs`, or for each
# (mpr, deadline) of mprs x deadlines with mpr major, from one head-sum
# recurrence read at each mpr and one window per deadline; the refinement's
# `_refinement_kernel` does its τ-free work once per chunk, and its golden
# section keeps every cell of the chunk to the end. A form exists
# only where a caller would otherwise loop a costly scalar function, and a
# scalar twin only where a caller loops on it, which only the solver does:
# its gap, `_gap_of`, binds one config's head-sum factors once per solve
# and runs `_head_sums`'s recurrence on them, or `_head_sums` itself where
# the start is scaled, then `_deadline_load` (with `_window_prob`);
# `admitted_load`, `deadline_load` and `delivery_prob` are built from the
# same three (the grid search's lockstep refinement takes `_head_sums`
# only where a scaled column would overflow its band). `binomial_pmf`,
# `success_size_ratio`,
# `delivery_prob_derivative` and `iteration_map`, which no caller loops
# on, are their forms at one point.


def _window_prob_row(tau: np.ndarray, deadline, exact=True) -> np.ndarray:
    """`_window_prob` at every element of `tau`, all strictly inside (0, 1).

    `deadline` is one int for every element, or an array that broadcasts
    against tau. log1p and expm1 are libm's when `exact`, else numpy's,
    which may differ from them by an ulp.
    """
    one = not isinstance(deadline, np.ndarray)
    if one and deadline == 1:
        return tau
    d = float(deadline) if one else deadline
    if exact:
        window = -_elementwise(math.expm1, d * _elementwise(math.log1p, -tau))
    else:
        window = -np.expm1(d * np.log1p(-tau))
    return window if one else np.where(d == 1.0, tau, window)


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den element by element, as Python divides floats: a zero
    divisor raises ZeroDivisionError, an overflow gives inf unwarned."""
    if not np.all(den):
        raise ZeroDivisionError("float division by zero")
    with np.errstate(over="ignore"):
        return num / den


def _deadline_load_row(n_users: int, deadline: int, tau: np.ndarray,
                       window: np.ndarray) -> np.ndarray:
    """`deadline_load` at every element, given its window
    `_window_prob_row(tau, deadline)`."""
    span, d = float(n_users + deadline - 1), float(deadline)
    quotient = _quotient(d, window)
    load = tau * (span - quotient)
    # At subnormal tau the quotient overflows, as in `_deadline_load`.
    huge = np.isinf(quotient)
    load[huge] = tau[huge] * span - d * (tau[huge] / window[huge])
    return load


def _refinement_kernel(n_users, mpr, deadline):
    """`delivery_prob` at one tau per cell, tau strictly inside (0, 1),
    bit for bit, over a chunk of cells: int arrays `n_users` and `mpr`,
    mpr descending, and a float array `deadline`. Returns the kernel, which
    takes and returns one value per cell of the chunk.

    Cell j's head sum has mpr[j] terms: sequential products and then sums
    down a column whose row 0 is the start (1-tau)^(n-1) and row i > 0
    the factor ((n-i+1)/i) * tau/(1-tau). With mpr descending, the cells
    that need row i are a column prefix, so rows 1 to max(mpr) - 1 form
    one band per distinct mpr, as wide as the cells that reach its last
    row, back to back in one buffer of sum(mpr) terms that every call
    reuses. The τ-free work is done here, once per chunk: the factors
    (n-i+1)/i, the start exponents, each head's position (row mpr - 1) and
    the cells with deadline != 1, the only ones whose window takes libm. A
    call multiplies each band by tau/(1-tau) once and runs the product and
    then the sum accumulate down it, carrying in the row above it.

    A start at most _SCALED_BELOW runs in the bands from its frexp start
    frac^(n-1), as `_head_sums` carries it, and its head is multiplied by
    2^shift at the end, with no rescale on the way: a power of two
    commutes with every product and sum while they stay in the normal
    range, and the terms rise from that start to their mode and fall below
    the normal range only past it, where they no longer move the head. So
    the head is `_head_sums`'s bit for bit, unless a term or the sum
    passes the float range, which only the rescales of `_head_sums`
    avoid: such a column takes its head from there.
    """
    n = n_users - 1
    exponents = n.tolist()
    far = np.flatnonzero(deadline != 1.0)
    far_deadline = deadline[far]
    terms = np.empty(int(mpr.sum()))
    # A cell of mpr 1 reads its head in row 0, any other in the last row of
    # the band that ends at its mpr: each band overwrites the heads of the
    # cells that reach it.
    columns = np.arange(n.size)
    heads = columns.copy()
    bands = []
    offset, low = n.size, 1
    for high in sorted(set(mpr.tolist()) - {1}):
        width = int(np.count_nonzero(mpr >= high))
        # (n - (i - 1)) / i, in floats: every operand is an exact integer.
        i = np.arange(float(low), high)[:, None]
        factors = (n[:width] - (i - 1.0)) / i
        end = offset + factors.size
        bands.append((factors, terms[offset:end].reshape(factors.shape)))
        heads[:width] = columns[:width] + (end - width)
        offset, low = end, high

    def kernel(tau: np.ndarray) -> np.ndarray:
        complement = 1.0 - tau
        start = terms[:tau.size]
        start[:] = np.fromiter(map(pow, complement.tolist(), exponents),
                               dtype=float, count=tau.size)
        scaled = np.flatnonzero(start <= _SCALED_BELOW)
        if scaled.size:
            peers = n[scaled]
            frac, exp2 = np.frexp(complement[scaled])
            start[scaled] = _elementwise(pow, frac, peers)
        ratio = tau / complement
        # In place: the products, then their running sums, down each band.
        # Only a scaled column can overflow, and then takes `_head_sums`.
        with np.errstate(over="ignore"):
            above = start
            for factors, block in bands:
                np.multiply(factors, ratio[:block.shape[1]], out=block)
                block[0] *= above[:block.shape[1]]
                above = np.multiply.accumulate(block, out=block)[-1]
            above = start
            for _, block in bands:
                block[0] += above[:block.shape[1]]
                above = np.add.accumulate(block, out=block)[-1]
        head = terms[heads]
        if scaled.size:
            head[scaled] = np.ldexp(head[scaled], exp2 * peers)
            for j in scaled[np.isinf(head[scaled])].tolist():
                sums, _, shift = _head_sums(exponents[j], int(mpr[j]),
                                            float(tau[j]))
                head[j] = math.ldexp(sums, shift)
        window = tau.copy()
        window[far] = _window_prob_row(tau[far], far_deadline)
        return window * np.minimum(head, 1.0, out=head)

    return kernel


def _delivery_prob_rows(n_users: int, mprs, deadlines, tau: np.ndarray,
                        exact=True):
    """`delivery_prob` at every element, for each (mpr, deadline). A
    deadline may be an array that broadcasts against `tau`; `exact` goes to
    `_head_sums_row` and `_window_prob_row`. The rows of a deadline share
    one array, which the next mpr overwrites."""
    windows = [_window_prob_row(tau, d, exact) for d in deadlines]
    heads = _head_sums_row(n_users - 1, mprs, tau, exact=exact,
                           weighted=False)
    # The recurrence frees tau once it starts, unless a caller holds it.
    del tau
    rows = [None] * len(windows)
    for head, _, shift in heads:
        for k, window in enumerate(windows):
            rows[k] = np.ldexp(head, shift, out=rows[k])
            np.minimum(rows[k], 1.0, out=rows[k])
            rows[k] *= window
            yield rows[k]


def _admitted_load_rows(n_users: int, mprs, tau: np.ndarray):
    """`admitted_load` at every element, for each mpr."""
    for head, weighted, _ in _head_sums_row(n_users - 1, mprs, tau):
        yield weighted / head


def _delivery_prob_derivative_rows(n_users: int, mprs, deadlines,
                                   tau: np.ndarray):
    """`delivery_prob_derivative` at every element, for each (mpr,
    deadline): with window W, admit probability (the unclamped head sum) H
    and the two loads,

        P' = W * H * (admitted_load - deadline_load) / (tau (1 - tau)),

    so it has the sign of the gap that the solver zeros."""
    windows = [_window_prob_row(tau, d) for d in deadlines]
    loads = [_deadline_load_row(n_users, d, tau, window)
             for d, window in zip(deadlines, windows)]
    spread = tau * (1.0 - tau)
    for head, weighted, shift in _head_sums_row(n_users - 1, mprs, tau):
        admitted = weighted / head
        head = np.ldexp(head, shift)
        for window, load in zip(windows, loads):
            yield _quotient(window * head * (admitted - load), spread)


def _iteration_map_rows(n_users: int, mprs, deadlines, x: np.ndarray):
    """`iteration_map` at every element, for each (mpr, deadline)."""
    loads = [_deadline_load_row(n_users, d, x, _window_prob_row(x, d)) + 1.0
             for d in deadlines]
    for admitted in _admitted_load_rows(n_users, mprs, x):
        lifted = x * (admitted + 1.0)
        for load in loads:
            yield _quotient(lifted, load)


def _binomial_pmf_row(n: int, i: int, p_power, q_power) -> np.ndarray:
    """`binomial_pmf(n, i, p)` at every element, for 0 <= i <= n <= N_CAP,
    from its factors p^i and (1-p)^(n-i) by `_elementwise(pow)`; at one
    point, given them as floats."""
    return float(math.comb(n, i)) * p_power * q_power


def _success_size_ratio_rows(n_users: int, mprs, tau: np.ndarray):
    """`success_size_ratio` at every element, for each mpr."""
    steps = [m + 1 for m in mprs]
    for den, num, _ in _head_sums_row(n_users, steps, tau, k=2):
        yield num / den


def _gap_of(config: ChannelConfig):
    """The stationarity gap of `config`, admitted_load(x) - deadline_load(x),
    as a function of the float x, bit for bit: it has the sign of the
    delivery-probability derivative. Returns (gap, sdp): sdp(x) is
    `delivery_prob` at an x the gap has evaluated, from the head sum of
    that evaluation.

    The config is read once, and each evaluation checks x with one
    comparison, taking `_open_probability`'s error only outside (0, 1).
    The step factors (peers - i) / (i + 1) of `_head_sums` are bound once
    too, as the same floats, with each i as a float: an unscaled start
    runs its recurrence on them with no rescale test, since unscaled
    terms stay near 1 at most, and a scaled one goes through
    `_head_sums`.
    """
    peers, mpr = config.n_users - 1, config.mpr
    n_users, deadline = config.n_users, config.deadline
    steps = [(float(i), (peers - i) / (i + 1)) for i in range(mpr)]
    # (head, shift) at every x evaluated.
    sums = {}

    def gap(x: float) -> float:
        if not 0.0 < x < 1.0:
            _open_probability(x)
        complement = 1.0 - x
        term = complement**peers
        if term > _SCALED_BELOW:
            ratio = x / complement
            head = weighted = 0.0
            shift = 0
            for i, factor in steps:
                head += term
                weighted += i * term
                term *= factor * ratio
        else:
            head, weighted, shift = _head_sums(peers, mpr, x)
        sums[x] = head, shift
        return weighted / head - _deadline_load(n_users, deadline, x)

    def sdp(x: float) -> float:
        return _window_prob(x, deadline) * _admit(*sums[x])

    return gap, sdp


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
    gap, sdp = _gap_of(config)
    # Bracket: gap(a) > 0 >= gap(b).
    a, fa = lo, gap(lo)
    b = 0.5 * (lo + 1.0)
    fb = gap(b)
    while fb > 0.0:
        a, fa = b, fb
        b = 0.5 * (b + 1.0)
        fb = gap(b)
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
        fb = gap(b)
        iterations += 1
    return SolveReport(
        tau_opt=b,
        sdp_max=sdp(b),
        iterations=iterations,
        residual=0.0 if fb == 0.0 else width,
        converged=fb == 0.0 or width <= 2.0 * tol,
    )


def _golden_section(n_users: np.ndarray, mpr: np.ndarray,
                    deadline: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Golden-section search for the maximum of `delivery_prob` on [a, b],
    for every cell (n_users[j], mpr[j], deadline[j]) in lockstep, mpr in
    descending order: one new point per cell per step, with the scalar
    search's branch and arithmetic, committed in place only where the
    bracket is still wider than 1e-10, so that a finished cell's bracket
    stays as the scalar search leaves it. Returns the arrays (tau, sdp);
    `a` and `b` end as the final brackets."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    kernel = _refinement_kernel(n_users, mpr, deadline)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = kernel(c), kernel(d)
    while (open_ := b - a > 1e-10).any():
        # fc > fd keeps [a, d], else [c, b], as the scalar branch does.
        # A finished cell's points move on unread: only its bracket stays.
        left = fc > fd
        np.copyto(a, c, where=open_ & ~left)
        np.copyto(b, d, where=open_ & left)
        x = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        fx = kernel(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    tau = 0.5 * (a + b)
    return tau, kernel(tau)


def grid_search_optimum(configs) -> list[tuple[float, float]]:
    """Derivative-free maximizer of `delivery_prob`, for cross-checking.

    For each config, scans _COARSE_POINTS uniformly spaced points of
    [lower_bound_tau, 1), then refines the best cell with golden-section
    search down to a bracket of width 1e-10. Returns one (tau, sdp) per
    config, in order. The scan only chooses the bracket (the first maximum
    on ties), so it takes numpy's power, log1p and expm1: on the 643 cells
    of the `analytic` benchmark libm's move no argmax but take a 2000-point
    scan from 0.17 to 0.80 ms. The refinement and the returned values are
    the scalar `delivery_prob`'s, bit for bit.

    All configs are searched at once, in chunks of at most _CHUNK_ELEMENTS
    matrix elements: the scan per n_users by `_delivery_prob_rows`, with
    one row of points per distinct deadline and one head-sum recurrence up
    to the largest mpr, whose partial sum after m steps scores the configs
    of mpr m, and the refinement in lockstep over the configs (see
    `_golden_section`). Each config's result is what a call with that
    config alone returns.
    """
    configs = list(configs)
    users = np.array([c.n_users for c in configs], dtype=np.int64)
    mpr = np.array([c.mpr for c in configs], dtype=np.int64)
    deadline = np.array([float(c.deadline) for c in configs])
    lo = np.array([lower_bound_tau(c.n_users, c.deadline) for c in configs])
    step = (1.0 - lo) / _COARSE_POINTS
    best = np.zeros(len(configs), dtype=np.int64)
    # The scan's points, start, ratio and window depend on (n_users,
    # deadline) only, and the head sum for mpr m is the recurrence's sum
    # after m steps: one row per distinct deadline of an n_users, and one
    # recurrence per chunk of rows, read at each mpr that a config asks.
    groups: dict[int, dict[int, list[int]]] = {}
    for j, config in enumerate(configs):
        by_deadline = groups.setdefault(config.n_users, {})
        by_deadline.setdefault(config.deadline, []).append(j)
    rows = max(1, _CHUNK_ELEMENTS // _COARSE_POINTS)
    for n, by_deadline in groups.items():
        members = list(by_deadline.values())
        for start in range(0, len(members), rows):
            part = members[start:start + rows]
            # Each deadline's first config, as a column index.
            first = [[cells[0]] for cells in part]
            # (row, config) pairs by mpr, in a dict: numpy's unique would
            # cost 1.6 MB of resident pages on its first use.
            reads: dict[int, list[tuple[int, int]]] = {}
            for r, cells in enumerate(part):
                for j in cells:
                    reads.setdefault(configs[j].mpr, []).append((r, j))
            steps = sorted(reads)
            # The scan holds the only reference to its points; strict runs
            # it to its end, which frees its arrays, and the del frees the
            # last row before the next chunk's.
            scans = _delivery_prob_rows(
                n, steps, [deadline[first]],
                lo[first] + np.arange(_COARSE_POINTS) * step[first],
                exact=False)
            for m, scan in zip(steps, scans, strict=True):
                top = np.argmax(scan, axis=1).tolist()
                for r, j in reads[m]:
                    best[j] = top[r]
            del scan
    # The objective is unimodal on (0, 1), so the bracket holds the maximum.
    a = np.where(best > 0, lo + (best - 1) * step, lo)
    b = np.minimum(lo + (best + 1) * step, 1.0)
    tau = np.empty(len(configs))
    sdp = np.empty(len(configs))
    # The refinement holds at most max(mpr) terms per cell and needs its
    # cells in descending mpr: chunk them in that order.
    order = np.argsort(-mpr, kind="stable")
    start = 0
    while start < len(order):
        size = max(1, _CHUNK_ELEMENTS // int(mpr[order[start]]))
        part = order[start:start + size]
        tau[part], sdp[part] = _golden_section(
            users[part], mpr[part], deadline[part], a[part], b[part]
        )
        start += size
    return list(zip(tau.tolist(), sdp.tolist()))
