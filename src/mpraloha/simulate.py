"""Slot-level Monte Carlo simulation of the deadline-constrained channel.

Every station is saturated: as soon as a head-of-line packet is resolved a
new one takes its place. A packet is resolved in one of two ways. If the
station transmits, that single attempt decides it: the packet succeeds when
the slot carries at most `mpr` transmissions in total, and is lost otherwise.
If the station stays silent for `deadline` consecutive slots, the packet
expires unsent and counts as a failure.

`step_slot` advances one slot for explicit per-user state and is the
reference semantics. `run_interval` is a vectorized implementation of the
same process that consumes the random stream identically (one uniform draw
per user per slot, slot-major then user-index order), so both produce
bit-identical counts for the same seed. It turns each block of draws into a
station-major transmission matrix with one bit per slot. Per-slot totals
mark the decodable slots and the slots of each probed multiplicity, and a
station's count over such a set of slots is the popcount of its bits ANDed
with the set's bits. Expiries come from the gaps between each station's
transmissions, found in one pass over the matrix. `run_stationary` runs it
for fresh stations at one fixed tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import ChannelConfig, as_probability, delivery_prob

__all__ = [
    "UserState",
    "SlotObservation",
    "SimResult",
    "IntervalOutcome",
    "TheoryComparison",
    "step_slot",
    "run_interval",
    "run_stationary",
    "theoretical_check",
    "z_score",
]


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


@dataclass(frozen=True)
class SlotObservation:
    """What one station sees of one slot."""

    total_transmitters: int
    tagged_transmitted: bool


@dataclass(frozen=True)
class SimResult:
    """Aggregate counts from a finished run."""

    packets_completed: tuple[int, ...]
    packets_succeeded: tuple[int, ...]

    def pooled_sdp(self) -> float:
        """Succeeded over completed, pooled across stations. NaN if nothing
        completed."""
        total = sum(self.packets_completed)
        if total == 0:
            return math.nan
        return sum(self.packets_succeeded) / total

    def per_user_sdp(self) -> tuple[float, ...]:
        return tuple(
            s / c if c else math.nan
            for s, c in zip(self.packets_succeeded, self.packets_completed)
        )


@dataclass(frozen=True)
class IntervalOutcome:
    """Per-station counts for one simulated stretch of slots.

    probe_counts[c] holds, per station, the number of slots in which the
    station was silent and exactly c transmissions occurred in total.
    """

    completed: np.ndarray
    succeeded: np.ndarray
    probe_counts: dict[int, np.ndarray] = field(default_factory=dict)


# Most station-slots `run_interval` simulates at once. A block peaks at
# about 9 bytes per station-slot while its float64 draw and the bool mask
# coexist, or, when most stations transmit, at up to 25 in the expiry scan
# (1 for the matrix, 24 per transmission for positions and gaps): from
# about 10 MB at a low tau to about 26 MB when every station always sends.
_BLOCK_CELLS = 1 << 20


def step_slot(
    users: list[UserState],
    mpr: int,
    deadline: int,
    rng: np.random.Generator,
) -> list[SlotObservation]:
    """Advance every station one slot, mutating `users` in place.

    Draws exactly len(users) uniforms from `rng`, in user-index order.
    Returns one observation per station.
    """
    draws = rng.random(len(users))
    transmitted = [d < u.tx_prob for d, u in zip(draws, users)]
    total = sum(transmitted)
    decodable = total <= mpr
    observations = []
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
        observations.append(
            SlotObservation(total_transmitters=total, tagged_transmitted=sent)
        )
    return observations


def run_interval(
    rng: np.random.Generator,
    tx_probs: np.ndarray,
    mpr: int,
    deadline: int,
    n_slots: int,
    hol_ages: np.ndarray,
    probes: tuple[int, ...] = (),
) -> IntervalOutcome:
    """Vectorized simulation of `n_slots` slots for len(tx_probs) stations.

    hol_ages is updated in place so consecutive intervals chain exactly like
    repeated `step_slot` calls. The random stream consumption matches
    `step_slot`: an (n_slots, n_users) uniform block in row-major order.
    The slots are simulated in blocks of at most _BLOCK_CELLS station-slots,
    which bounds memory and, because the blocks chain the same way, leaves
    every count unchanged.
    """
    n_users = len(tx_probs)
    block = max(1, _BLOCK_CELLS // max(1, n_users))
    completed = np.zeros(n_users, dtype=np.int64)
    succeeded = np.zeros(n_users, dtype=np.int64)
    probe_counts = {c: np.zeros(n_users, dtype=np.int64) for c in probes}
    for start in range(0, n_slots, block):
        n = min(block, n_slots - start)
        transmitted = rng.random((n, n_users)) < tx_probs
        # Station-major, plus a sentinel transmission after the last slot
        # for the expiry scan.
        marks = np.empty((n_users, n + 1), dtype=bool)
        marks[:, :n] = transmitted.T
        marks[:, n] = True
        del transmitted  # not held through the expiry scan
        sent = marks[:, :n]
        # Transmitters per slot, in the smallest type that holds n_users.
        totals = sent.view(np.uint8).sum(
            axis=0, dtype=np.min_scalar_type(n_users)
        )
        bits = np.packbits(sent, axis=1)
        succeeded += _sent_in(bits, totals <= mpr)
        for c in probes:
            # Probe slots the station heard, i.e. those it did not send in.
            in_probe = totals == c
            probe_counts[c] += np.count_nonzero(in_probe) - _sent_in(
                bits, in_probe
            )
        if deadline == 1:
            # Every silent slot expires its packet and no age carries over.
            completed += n
        else:
            hits = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
            completed += hits + _expire(marks, hits, hol_ages, deadline)
    return IntervalOutcome(completed, succeeded, probe_counts)


def _sent_in(bits: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per station, its transmissions in the slots where the bool mask
    `slots` is set; `bits` holds each station's slots packed, one row each."""
    return np.bitwise_count(bits & np.packbits(slots)).sum(
        axis=1, dtype=np.int64
    )


def _expire(
    marks: np.ndarray,
    hits: np.ndarray,
    hol_ages: np.ndarray,
    deadline: int,
) -> np.ndarray:
    """Packets each station let expire in one block; advances hol_ages.

    `marks` is the station-major transmission matrix whose last column is a
    sentinel transmission after the block. Every full `deadline` silent
    slots between two of a station's transmissions expire one packet. The
    sentinel gives every station at least one position and makes its final
    gap the tail that carries over as its new age.
    """
    gaps = np.diff(np.flatnonzero(marks), prepend=-1)
    gaps -= 1
    last = np.cumsum(hits + 1) - 1
    first = last - hits
    # A station's first gap follows its carried-over age rather than the
    # previous station's sentinel.
    gaps[first] += hol_ages
    hol_ages[:] = gaps[last] % deadline
    gaps //= deadline
    return np.add.reduceat(gaps, first)


def run_stationary(
    config: ChannelConfig, tau, slots: int, seed: int
) -> SimResult:
    """Simulate `slots` slots with every station at the same fixed tau.

    Fresh stations (hol_age 0), counts from zero. Deterministic in `seed`.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    outcome = run_interval(
        np.random.default_rng(seed),
        np.full(config.n_users, as_probability(tau)),
        config.mpr,
        config.deadline,
        slots,
        np.zeros(config.n_users, dtype=np.int64),
    )
    return SimResult(
        packets_completed=tuple(int(c) for c in outcome.completed),
        packets_succeeded=tuple(int(s) for s in outcome.succeeded),
    )


@dataclass(frozen=True)
class TheoryComparison:
    """Empirical delivery rate against the analytic value."""

    empirical: float
    analytic: float
    z_score: float
    packets: int


def theoretical_check(
    config: ChannelConfig, tau, slots: int, seed: int
) -> TheoryComparison:
    """Run `run_stationary` and compare the pooled delivery rate with
    `delivery_prob`, reporting a binomial z-score."""
    t = as_probability(tau)
    result = run_stationary(config, t, slots, seed)
    analytic = delivery_prob(config, t)
    total = sum(result.packets_completed)
    empirical = result.pooled_sdp()
    if total == 0:
        return TheoryComparison(empirical, analytic, math.nan, 0)
    se = math.sqrt(analytic * (1.0 - analytic) / total)
    return TheoryComparison(
        empirical, analytic, z_score(empirical, analytic, se), total
    )


def z_score(estimate: float, expected: float, se: float) -> float:
    """(estimate - expected) / se. A zero standard error gives 0 when the
    estimate is exact and an infinity of the deviation's sign otherwise."""
    if se == 0.0:
        if estimate == expected:
            return 0.0
        return math.copysign(math.inf, estimate - expected)
    return (estimate - expected) / se
