"""Distributed estimation of the active population size at runtime.

Each station runs its own copy of this estimator; `PopulationEstimator`
holds the copies of every active station side by side in arrays. During an
interval of fixed length a station watches the channel in the slots where
it stays silent and tallies how often it sees exactly c total
transmissions, for the four probe multiplicities low-1, low, high-1, high.
At the end of the interval the ratio

    count(low) * count(high - 1) / (count(high) * count(low - 1))

estimates a quantity that is monotone in the population size and, when
every station transmits with the same probability, independent of that
probability, so it can be inverted for the station count. Stations with
different probabilities, as in the transient after a population change,
bias it. The raw measure is clamped to the feasible range, smoothed
exponentially, inverted, rounded, and used to retune the station's
transmission probability via the analytic solver. An interval with a zero
denominator measures nothing and reads the worst case, the measure of
n_max, as a joining station does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import (N_CAP, ChannelConfig, _int_text, _require_deadline,
                       solve_optimal_tau)

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
            raise ValueError("interval_len must be >= 1, got "
                             f"{_int_text(self.interval_len)}")
        if not 0.0 <= self.memory_factor <= 1.0:
            raise ValueError(
                f"memory_factor must be in [0, 1], got {self.memory_factor}"
            )
        if not 1 <= self.probe_low < self.probe_high:
            raise ValueError(
                "probes must satisfy 1 <= probe_low < probe_high, got "
                f"{_int_text(self.probe_low)} and "
                f"{_int_text(self.probe_high)}"
            )
        if self.probe_high > self.mpr:
            raise ValueError(
                f"probe_high must be decodable (<= mpr), got "
                f"{_int_text(self.probe_high)} with mpr={_int_text(self.mpr)}"
            )
        if not self.mpr < self.n_max <= N_CAP:
            raise ValueError(
                f"n_max must satisfy mpr < n_max <= {N_CAP}, got "
                f"{_int_text(self.n_max)} with mpr={_int_text(self.mpr)}"
            )
        _require_deadline(self.deadline)

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
    """Every active station's view, one array element per station id.

    Each station keeps its own probe counters, smoothed measure,
    population guess and tau; the arrays only hold them side by side. A
    joining station assumes the worst case n_max and transmits with the
    tau tuned for it; `end_interval` updates every guess from the
    interval's counts and resets the counters.
    """

    def __init__(self, config: EstimatorConfig, stations: int = 1):
        self.config = config
        self.counters = {
            c: np.zeros(0, dtype=np.int64) for c in config.probes
        }
        self.mu = np.zeros(0)
        self.n_est = np.zeros(0, dtype=np.int64)
        self.tau = np.zeros(0)
        self.resize(stations)

    def resize(self, stations: int) -> None:
        """Change the number of active stations: leavers drop the highest
        ids, joiners get the next ids and start from the worst case."""
        cfg = self.config
        joiners = max(0, stations - len(self.n_est))

        def fit(values, fill):
            return np.concatenate(
                [values[:stations], np.full(joiners, fill, values.dtype)]
            )

        self.counters = {c: fit(v, 0) for c, v in self.counters.items()}
        self.mu = fit(self.mu, cfg.mu_floor)
        self.n_est = fit(self.n_est, cfg.n_max)
        self.tau = fit(
            self.tau, tuned_tau(cfg.n_max, cfg.mpr, cfg.deadline)
        )

    def add_counts(self, counts) -> None:
        """Tally probe hits: `counts` maps a multiplicity to, per station,
        the number of slots in which that station stayed silent and saw that
        many transmissions (an array, or one number for every station), as
        in `IntervalOutcome.probe_counts`. Only silent slots carry
        information, because a station's own transmission would shift the
        multiplicity it observes. Multiplicities that are not probed are
        ignored."""
        for c, hits in counts.items():
            if c in self.counters:
                self.counters[c] += hits

    def end_interval(self) -> np.ndarray:
        """Fold the interval's counts into every population estimate,
        retune tau, reset the counters. Returns the new estimates."""
        cfg = self.config
        i1, i2 = cfg.probe_low, cfg.probe_high
        # A zero denominator reads 0, which the clamp lifts to mu_floor:
        # no usable measurement reads the worst case, N = n_max.
        mu_raw = _count_ratio(
            self.counters[i1],
            self.counters[i2 - 1],
            self.counters[i2],
            self.counters[i1 - 1],
        )
        mu_raw = np.minimum(np.maximum(mu_raw, cfg.mu_floor), cfg.mu_cap)
        delta = cfg.memory_factor
        self.mu = delta * self.mu + (1.0 - delta) * mu_raw
        # mu >= mu_floor > i2 / i1, so raw_n > i2 > 0 and rounds half up.
        raw_n = i2 * (i2 - i1) / (i1 * self.mu - i2) + i2
        self.n_est = np.clip(
            np.floor(raw_n + 0.5), cfg.mpr + 1, cfg.n_max
        ).astype(np.int64)
        # One tuned_tau per distinct estimate, grouped in a dict: numpy's
        # unique would cost 1.6 MB of resident pages on its first use.
        estimates = self.n_est.tolist()
        tuned = {n: tuned_tau(n, cfg.mpr, cfg.deadline)
                 for n in dict.fromkeys(estimates)}
        self.tau = np.array([tuned[n] for n in estimates])
        for counter in self.counters.values():
            counter.fill(0)
        return self.n_est


# Below this count the products of two counts stay under 2**53, so they
# and their quotient are exact and correctly rounded in float64, as the
# quotient of two Python ints is.
_EXACT_COUNT = 1 << 26


def _count_ratio(a, b, c, d) -> np.ndarray:
    """a*b / (c*d) per element, rounded once from the exact integers, or 0
    where c*d is 0."""
    ratio = np.zeros(len(a))
    den = c.astype(np.float64) * d
    np.divide(a.astype(np.float64) * b, den, out=ratio, where=den != 0)
    large = np.maximum(np.maximum(a, b), np.maximum(c, d)) >= _EXACT_COUNT
    for j in np.flatnonzero(large):
        den_j = int(c[j]) * int(d[j])
        if den_j:
            ratio[j] = int(a[j]) * int(b[j]) / den_j
    return ratio
