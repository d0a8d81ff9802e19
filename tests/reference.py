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

`delivery_prob_derivative` is the derivative of the delivery probability
by the product rule, in closed form. The package writes it instead as the
solver's stationarity gap times a positive factor, so this form is an
independent reference for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpraloha.analytic import (
    _COARSE_POINTS,
    _RESCALE,
    _RESCALE_BITS,
    _SCALED_BELOW,
    ChannelConfig,
    _head_sums,
    _window_prob,
    as_probability,
    delivery_prob,
    lower_bound_tau,
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
