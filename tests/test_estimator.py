import copy
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpraloha.estimator import (
    EstimatorConfig,
    PopulationEstimator,
    tuned_tau,
)
from mpraloha.simulate import run_interval


def _config(**overrides):
    base = dict(
        interval_len=1000,
        memory_factor=0.0,
        probe_low=2,
        probe_high=5,
        n_max=100,
        mpr=5,
        deadline=1,
    )
    base.update(overrides)
    return EstimatorConfig(**base)


def _comb_counts(config, n_true):
    """Counts proportional to the stationary probe frequencies with every
    tau power cancelling, so the measurement ratio is exactly rational."""
    return {c: math.comb(n_true - 1, c) for c in config.probes}


class TestConfig:
    def test_probe_ordering_enforced(self):
        with pytest.raises(ValueError):
            _config(probe_low=5, probe_high=5)
        with pytest.raises(ValueError):
            _config(probe_low=0, probe_high=2)

    def test_probes_must_be_decodable(self):
        with pytest.raises(ValueError):
            _config(probe_high=6)

    def test_population_limit(self):
        with pytest.raises(ValueError):
            _config(n_max=5)
        with pytest.raises(ValueError):
            _config(n_max=1001)

    def test_memory_factor_range(self):
        with pytest.raises(ValueError):
            _config(memory_factor=-0.1)
        with pytest.raises(ValueError):
            _config(memory_factor=1.1)

    def test_probe_multiplicities_deduplicated(self):
        assert _config().probes == (1, 2, 4, 5)
        assert _config(probe_low=4, probe_high=5).probes == (3, 4, 5)

    def test_measure_range_endpoints(self):
        cfg = _config()
        # Measure at the provisioning limit and at the smallest population.
        assert cfg.mu_floor == pytest.approx(5 * 98 / (2 * 95), rel=1e-15)
        assert cfg.mu_cap == pytest.approx(10.0, rel=1e-15)
        assert cfg.mu_floor < cfg.mu_cap


class TestExactRecovery:
    @pytest.mark.parametrize("probe_low,probe_high", [(2, 5), (4, 5), (1, 2)])
    def test_every_population_recovered(self, probe_low, probe_high):
        mpr = max(probe_high, 2)
        cfg = _config(probe_low=probe_low, probe_high=probe_high, mpr=mpr)
        for n_true in range(mpr + 2, cfg.n_max + 1):
            est = PopulationEstimator(cfg)
            est.add_counts(_comb_counts(cfg, n_true))
            assert est.end_interval() == n_true

    def test_scaling_counts_changes_nothing(self):
        cfg = _config()
        for scale in (1, 17, 10**6):
            est = PopulationEstimator(cfg)
            est.add_counts(
                {c: v * scale for c, v in _comb_counts(cfg, 42).items()}
            )
            assert est.end_interval() == 42

    @given(n_true=st.integers(min_value=7, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_recovery_property(self, n_true):
        cfg = _config()
        est = PopulationEstimator(cfg)
        est.add_counts(_comb_counts(cfg, n_true))
        assert est.end_interval() == n_true


class TestSafeguards:
    def test_huge_measure_clamps_to_smallest_population(self):
        est = PopulationEstimator(_config())
        est.add_counts({1: 1, 2: 10**9, 4: 10**9, 5: 1})
        assert est.end_interval() == 6

    def test_tiny_measure_clamps_to_provisioning_limit(self):
        est = PopulationEstimator(_config())
        est.add_counts({1: 10**9, 2: 1, 4: 1, 5: 10**9})
        assert est.end_interval() == 100

    def test_all_zero_counts_read_the_worst_case(self):
        cfg = _config(memory_factor=0.5)
        est = PopulationEstimator(cfg)
        for _ in range(40):
            est.add_counts(_comb_counts(cfg, 30))
            est.end_interval()
        assert est.n_est == 30
        mu_30 = est.mu.copy()
        # Nothing observed: the interval measures mu_floor (n_max), as a
        # joining station assumes, not the last measure again.
        est.end_interval()
        assert est.mu == 0.5 * mu_30 + 0.5 * cfg.mu_floor
        assert est.n_est > 30
        assert est.counters == {c: 0 for c in cfg.probes}
        for _ in range(20):
            est.end_interval()
        assert est.n_est == cfg.n_max

    def test_fresh_estimator_assumes_worst_case(self):
        cfg = _config()
        est = PopulationEstimator(cfg)
        assert est.n_est == cfg.n_max
        assert est.tau == tuned_tau(cfg.n_max, cfg.mpr, cfg.deadline)
        # With no data at all the first interval stays at the limit.
        assert est.end_interval() == cfg.n_max

    def test_zero_denominator_only_partial(self):
        cfg = _config()
        est = PopulationEstimator(cfg)
        # probe_high count present but count(probe_low - 1) zero: invalid.
        est.add_counts({1: 0, 2: 50, 4: 50, 5: 10})
        assert est.end_interval() == cfg.n_max


class TestSmoothing:
    def test_memory_factor_blends_measurements(self):
        cfg = _config(memory_factor=0.5)
        est = PopulationEstimator(cfg)
        est.add_counts(_comb_counts(cfg, 10))
        est.end_interval()
        mu_10 = (
            math.comb(9, 2) * math.comb(9, 4)
            / (math.comb(9, 5) * math.comb(9, 1))
        )
        assert est.mu == pytest.approx(
            0.5 * cfg.mu_floor + 0.5 * mu_10, rel=1e-12
        )

    def test_full_memory_never_moves(self):
        cfg = _config(memory_factor=1.0)
        est = PopulationEstimator(cfg)
        for _ in range(5):
            est.add_counts(_comb_counts(cfg, 10))
            est.end_interval()
        assert est.n_est == cfg.n_max
        assert est.mu == cfg.mu_floor

    def test_estimate_converges_under_smoothing(self):
        cfg = _config(memory_factor=0.7)
        est = PopulationEstimator(cfg)
        for _ in range(40):
            est.add_counts(_comb_counts(cfg, 25))
            est.end_interval()
        assert est.n_est == 25


class TestStationaryConsistency:
    def test_median_estimate_over_long_run_is_exact(self):
        """Feed one station's real channel observations to its estimator.

        With 20 stations at the optimal rate and no smoothing, the
        per-interval estimates scatter around the truth; their median
        over 50 long intervals lands on it exactly.
        """
        cfg = _config(interval_len=100_000)
        n_true = 20
        rng = np.random.default_rng(0)
        tx_probs = np.full(n_true, tuned_tau(n_true, cfg.mpr, cfg.deadline))
        hol_ages = np.zeros(n_true, dtype=np.int64)
        est = PopulationEstimator(cfg)
        estimates = []
        for _ in range(50):
            outcome = run_interval(
                rng, tx_probs, cfg.mpr, cfg.deadline, cfg.interval_len,
                hol_ages, probes=cfg.probes,
            )
            est.add_counts(
                {c: int(v[0]) for c, v in outcome.probe_counts.items()}
            )
            estimates.append(est.end_interval())
        assert statistics.median(estimates) == n_true
        assert max(abs(e - n_true) for e in estimates) <= 5


class TestNoAbsorbingState:
    @pytest.fixture(scope="class")
    def locked_in(self):
        """1000 stations under scenarios/scale.cfg's channel and estimator,
        every one tuned for M + 1 = 6 stations."""
        cfg = _config(interval_len=200, memory_factor=0.9, n_max=1000,
                      deadline=20)
        est = PopulationEstimator(cfg, stations=1000)
        # The counts clamp the measure at mu_cap; 400 intervals bring the
        # smoothed measure to within an ulp of it.
        for _ in range(400):
            est.add_counts({1: 1, 2: 10**9, 4: 10**9, 5: 1})
            est.end_interval()
        assert est.mu == pytest.approx(cfg.mu_cap, rel=1e-15)
        assert (est.n_est == cfg.mpr + 1).all()
        return est

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_locked_in_population_sees_a_probe_again(self, locked_in, seed):
        """Tuned for 6, each of the 1000 stations sends in about 29 % of
        the slots, so no silent station sees 1 or 5 others sending, and
        every probe denominator is 0. Carrying the last measure forward
        keeps them there for good (none escapes within 200 intervals at
        seeds 1-3); reading mu_floor lets the estimates rise until some
        station measures again, at intervals 60-65 over seeds 1-12."""
        est = copy.deepcopy(locked_in)
        cfg = est.config
        rng = np.random.default_rng(seed)
        hol_ages = np.zeros(1000, dtype=np.int64)
        for _ in range(100):
            outcome = run_interval(
                rng, est.tau, cfg.mpr, cfg.deadline, cfg.interval_len,
                hol_ages, probes=cfg.probes,
            )
            counts = outcome.probe_counts
            if (counts[cfg.probe_high] * counts[cfg.probe_low - 1]).any():
                return
            est.add_counts(counts)
            est.end_interval()
        pytest.fail("no station saw a nonzero denominator in 100 intervals")


class TestAddCounts:
    def test_only_probed_multiplicities_counted(self):
        # Probes are {1, 2, 4, 5}: the hits at multiplicity 3 are ignored,
        # repeated calls accumulate.
        est = PopulationEstimator(_config())
        est.add_counts({2: 1, 3: 4, 5: 1})
        est.add_counts({2: 2, 3: 1})
        assert est.counters == {1: 0, 2: 3, 4: 0, 5: 1}


class _ScalarEstimator:
    """One station's estimator in Python ints and floats: the reference
    that PopulationEstimator must match element for element."""

    def __init__(self, config):
        self.config = config
        self.counters = {c: 0 for c in config.probes}
        self.mu = config.mu_floor
        self.n_est = config.n_max
        self.tau = tuned_tau(config.n_max, config.mpr, config.deadline)

    def end_interval(self):
        cfg = self.config
        i1, i2 = cfg.probe_low, cfg.probe_high
        denom = self.counters[i2] * self.counters[i1 - 1]
        if denom == 0:
            mu_raw = cfg.mu_floor
        else:
            mu_raw = (self.counters[i1] * self.counters[i2 - 1]) / denom
        mu_raw = min(max(mu_raw, cfg.mu_floor), cfg.mu_cap)
        delta = cfg.memory_factor
        self.mu = delta * self.mu + (1.0 - delta) * mu_raw
        raw_n = i2 * (i2 - i1) / (i1 * self.mu - i2) + i2
        n = math.floor(raw_n + 0.5)
        self.n_est = min(max(n, cfg.mpr + 1), cfg.n_max)
        self.tau = tuned_tau(self.n_est, cfg.mpr, cfg.deadline)
        self.counters = {c: 0 for c in cfg.probes}
        return self.n_est


class TestArraysMatchScalarReference:
    def _check(self, est, reference):
        assert est.n_est.tolist() == [r.n_est for r in reference]
        assert est.mu.tolist() == [r.mu for r in reference]
        assert est.tau.tolist() == [r.tau for r in reference]
        for c, counter in est.counters.items():
            assert counter.tolist() == [r.counters[c] for r in reference]

    def _add(self, est, reference, counts):
        """counts: one {multiplicity: hits} dict per station."""
        for r, station in zip(reference, counts):
            for c, hits in station.items():
                r.counters[c] += hits
        est.add_counts({
            c: np.array([station[c] for station in counts], dtype=np.int64)
            for c in est.config.probes
        })

    def _interval(self, est, reference, counts):
        self._add(est, reference, counts)
        assert est.end_interval().tolist() == [
            r.end_interval() for r in reference
        ]
        self._check(est, reference)

    def test_element_for_element(self):
        cfg = _config(memory_factor=0.6)
        probes = cfg.probes  # (1, 2, 4, 5)
        est = PopulationEstimator(cfg, stations=5)
        reference = [_ScalarEstimator(cfg) for _ in range(5)]
        self._check(est, reference)
        self._interval(est, reference, [
            _comb_counts(cfg, 30),
            dict(zip(probes, (17, 40, 23, 5))),
            # Zero denominators: the worst case, mu_floor, is measured.
            dict(zip(probes, (0, 40, 23, 5))),
            dict(zip(probes, (0, 2**30, 2**30, 2**29))),
            # Products near 2**59, far above 2**53, whose float64 quotient
            # differs from the exact one in the last bit.
            dict(zip(probes, (187664724, 452740236, 856875179, 625427705))),
        ])
        self._interval(est, reference, [
            # Nothing seen: mu_floor, not the measure of 30 stations.
            dict(zip(probes, (0, 0, 0, 0))),
            # Clamped at mu_cap and at mu_floor.
            {1: 1, 2: 10**9, 4: 10**9, 5: 1},
            {1: 10**9, 2: 1, 4: 1, 5: 10**9},
            _comb_counts(cfg, 12),
            dict(zip(probes, (152924356, 701507560, 240039009, 224032155))),
        ])
        # Mid-interval, two leave (the highest ids, with their counts) and
        # four join at the worst case.
        self._add(est, reference, [
            dict(zip(probes, (5 * k, 9, 4, k))) for k in range(5)
        ])
        est.resize(3)
        del reference[3:]
        self._check(est, reference)
        est.resize(7)
        reference += [_ScalarEstimator(cfg) for _ in range(4)]
        self._check(est, reference)
        rng = np.random.default_rng(5)
        for _ in range(6):
            self._interval(est, reference, [
                dict(zip(probes, (int(v) for v in rng.integers(
                    0, 2 ** int(rng.integers(3, 33)), size=len(probes)
                ))))
                for _ in reference
            ])

    def test_halfway_estimate_rounds_up(self):
        # Measure 7/2 inverts to exactly 12.5 stations.
        cfg = _config()
        est = PopulationEstimator(cfg, stations=2)
        reference = [_ScalarEstimator(cfg) for _ in range(2)]
        self._interval(est, reference, [
            dict(zip(cfg.probes, (2, 7, 1, 1))), _comb_counts(cfg, 12),
        ])
        assert est.n_est.tolist() == [13, 12]

    def test_every_station_of_a_large_population(self):
        # Random counts over the whole range, products up to 2**64, many
        # of them not exact in float64.
        cfg = _config(memory_factor=0.3, n_max=1000)
        est = PopulationEstimator(cfg, stations=400)
        reference = [_ScalarEstimator(cfg) for _ in range(400)]
        rng = np.random.default_rng(11)
        for high in (2**8, 2**20, 2**27, 2**32):
            self._interval(est, reference, [
                dict(zip(cfg.probes, (int(v) for v in rng.integers(
                    0, high, size=len(cfg.probes)
                ))))
                for _ in reference
            ])


class TestTunedTau:
    def test_matches_solver(self):
        from mpraloha.analytic import ChannelConfig, solve_optimal_tau

        direct = solve_optimal_tau(ChannelConfig(30, 5, 1)).tau_opt
        assert tuned_tau(30, 5, 1) == direct

    def test_solves_slow_map_cell(self):
        # Large mpr/n and deadline: the paper's fixed-point map barely
        # contracts here, the bracketed solver still converges.
        assert 0.0 < tuned_tau(10, 9, 100) < 1.0

    def test_cache_returns_identical_object(self):
        assert tuned_tau(20, 5, 1) is tuned_tau(20, 5, 1)
