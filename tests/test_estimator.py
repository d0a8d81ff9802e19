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

    def test_all_zero_counts_reuse_previous_measurement(self):
        cfg = _config()
        est = PopulationEstimator(cfg)
        est.add_counts(_comb_counts(cfg, 30))
        assert est.end_interval() == 30
        # Nothing observed: the previous (clamped) measurement carries over.
        assert est.end_interval() == 30
        assert est.counters == {c: 0 for c in cfg.probes}

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


class TestAddCounts:
    def test_only_probed_multiplicities_counted(self):
        # Probes are {1, 2, 4, 5}: the hits at multiplicity 3 are ignored,
        # repeated calls accumulate.
        est = PopulationEstimator(_config())
        est.add_counts({2: 1, 3: 4, 5: 1})
        est.add_counts({2: 2, 3: 1})
        assert est.counters == {1: 0, 2: 3, 4: 0, 5: 1}


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
