"""Distributed estimation of the active population size at runtime.

Each station runs its own copy of this estimator. During an interval of
fixed length it watches the channel in the slots where it stays silent and
tallies how often it sees exactly c total transmissions, for the four probe
multiplicities low-1, low, high-1, high. At the end of the interval the
ratio

    count(low) * count(high - 1) / (count(high) * count(low - 1))

estimates a quantity that is monotone in the population size and independent
of the (unknown, possibly mixed) transmission probabilities in use, so it can
be inverted for the station count. The raw measure is clamped to the feasible
range, smoothed exponentially, inverted, rounded, and used to retune the
station's transmission probability via the analytic solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .analytic import N_CAP, ChannelConfig, solve_optimal_tau

__all__ = [
    "EstimatorConfig",
    "PopulationEstimator",
    "tuned_tau",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters shared by every station's estimator.

    interval_len: slots per estimation interval.
    memory_factor: exponential smoothing weight on the previous estimate,
        0 keeps only the newest measurement, values near 1 change slowly.
    probe_low, probe_high: the two probed multiplicities (low < high) whose
        counts form the measurement ratio; both must be decodable (at most
        mpr).
    n_max: largest population the system is provisioned for.
    """

    interval_len: int
    memory_factor: float
    probe_low: int
    probe_high: int
    n_max: int
    mpr: int
    deadline: int

    def __post_init__(self) -> None:
        if self.interval_len < 1:
            raise ValueError(
                f"interval_len must be >= 1, got {self.interval_len}"
            )
        if not 0.0 <= self.memory_factor <= 1.0:
            raise ValueError(
                f"memory_factor must be in [0, 1], got {self.memory_factor}"
            )
        if not 1 <= self.probe_low < self.probe_high:
            raise ValueError(
                "probes must satisfy 1 <= probe_low < probe_high, got "
                f"{self.probe_low} and {self.probe_high}"
            )
        if self.probe_high > self.mpr:
            raise ValueError(
                f"probe_high must be decodable (<= mpr), got "
                f"{self.probe_high} with mpr={self.mpr}"
            )
        if not self.mpr < self.n_max <= N_CAP:
            raise ValueError(
                f"n_max must satisfy mpr < n_max <= {N_CAP}, got "
                f"{self.n_max} with mpr={self.mpr}"
            )
        if self.deadline < 1:
            raise ValueError(f"deadline must be >= 1, got {self.deadline}")

    @property
    def probes(self) -> tuple[int, ...]:
        """Multiplicities that need counting, ascending and deduplicated."""
        return tuple(
            sorted(
                {
                    self.probe_low - 1,
                    self.probe_low,
                    self.probe_high - 1,
                    self.probe_high,
                }
            )
        )

    @property
    def mu_floor(self) -> float:
        """Measure value at the largest supported population."""
        i1, i2 = self.probe_low, self.probe_high
        return i2 * (self.n_max - i1) / (i1 * (self.n_max - i2))

    @property
    def mu_cap(self) -> float:
        """Measure value at the smallest population worth estimating."""
        i1, i2 = self.probe_low, self.probe_high
        small = self.mpr + 1
        return i2 * (small - i1) / (i1 * (small - i2))


@lru_cache(maxsize=None)
def tuned_tau(n_users: int, mpr: int, deadline: int) -> float:
    """Optimal transmission probability for a channel, cached because the
    estimator re-solves the same handful of population sizes constantly."""
    report = solve_optimal_tau(ChannelConfig(n_users, mpr, deadline))
    if not report.converged:
        raise RuntimeError(
            f"solver failed to converge for n={n_users}, mpr={mpr}, "
            f"deadline={deadline}"
        )
    return report.tau_opt


class PopulationEstimator:
    """One station's view: probe counters, smoothed measure, current guess.

    A fresh estimator assumes the worst case n_max and transmits with the tau
    tuned for it; `end_interval` updates the guess from the interval's counts
    and resets the counters.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.counters: dict[int, int] = {c: 0 for c in config.probes}
        self.mu = config.mu_floor
        self._mu_raw_prev = config.mu_floor
        self.n_est = config.n_max
        self.tau = tuned_tau(config.n_max, config.mpr, config.deadline)

    def add_counts(self, counts: dict[int, int]) -> None:
        """Tally probe hits: `counts` maps a multiplicity to the number of
        slots in which this station stayed silent and saw that many
        transmissions. Only silent slots carry information, because the
        station's own transmission would shift the multiplicity it observes.
        Multiplicities that are not probed are ignored."""
        for c, hits in counts.items():
            if c in self.counters:
                self.counters[c] += int(hits)

    def end_interval(self) -> int:
        """Fold the interval's counts into the population estimate, retune
        tau, reset the counters. Returns the new population estimate."""
        cfg = self.config
        i1, i2 = cfg.probe_low, cfg.probe_high
        denom = self.counters[i2] * self.counters[i1 - 1]
        if denom == 0:
            # No usable measurement this interval: carry the previous one.
            mu_raw = self._mu_raw_prev
        else:
            mu_raw = (
                self.counters[i1] * self.counters[i2 - 1]
            ) / denom
        mu_raw = min(max(mu_raw, cfg.mu_floor), cfg.mu_cap)
        self._mu_raw_prev = mu_raw
        delta = cfg.memory_factor
        self.mu = delta * self.mu + (1.0 - delta) * mu_raw
        # mu >= mu_floor > i2 / i1, so raw_n > i2 > 0 and rounds half up.
        raw_n = i2 * (i2 - i1) / (i1 * self.mu - i2) + i2
        n = math.floor(raw_n + 0.5)
        self.n_est = min(max(n, cfg.mpr + 1), cfg.n_max)
        self.tau = tuned_tau(self.n_est, cfg.mpr, cfg.deadline)
        for c in self.counters:
            self.counters[c] = 0
        return self.n_est
