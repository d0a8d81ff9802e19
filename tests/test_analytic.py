import argparse
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpraloha import analytic, checks, cli
from mpraloha.analytic import (
    _COARSE_POINTS,
    _SCALED_BELOW,
    N_CAP,
    ChannelConfig,
    admit_prob,
    admitted_load,
    as_probability,
    binomial_pmf,
    deadline_load,
    delivery_prob,
    delivery_prob_derivative,
    grid_search_optimum,
    iteration_map,
    lower_bound_tau,
    solve_optimal_tau,
    success_size_ratio,
    window_bound,
)
from mpraloha.estimator import EstimatorConfig
from mpraloha.scenario import ScenarioTimeline, Stage
from mpraloha.simulate import run_interval, run_stationary
import reference


def _accepted_domain():
    """The 110 (n, m, d) cells that span the accepted domain, including
    the flat cell (200, 180, 100) and the underflowing (1000, 999, d)."""
    for n in (10, 50, 200, 1000):
        for m in sorted({1, 2, n // 10, n // 2, 9 * n // 10, n - 1}):
            for d in (1, 5, 20, 100, 1000):
                yield n, m, d


class TestValidation:
    def test_config_rejects_bad_population(self):
        with pytest.raises(ValueError):
            ChannelConfig(1, 1, 1)
        with pytest.raises(ValueError):
            ChannelConfig(1001, 5, 1)

    def test_config_rejects_bad_mpr(self):
        with pytest.raises(ValueError):
            ChannelConfig(10, 0, 1)
        with pytest.raises(ValueError):
            ChannelConfig(10, 10, 1)

    def test_config_rejects_bad_deadline(self):
        with pytest.raises(ValueError):
            ChannelConfig(10, 2, 0)

    def test_config_deadline_limit_is_the_float_range(self):
        # At the limit every formula still has a float deadline and a
        # normal lower bound, and the M = 1 closed form converges.
        limit = int(sys.float_info.max)
        assert analytic.DEADLINE_MAX == limit
        for n in (2, 1000):
            lo = lower_bound_tau(n, limit)
            assert lo >= sys.float_info.min
            report = solve_optimal_tau(ChannelConfig(n, 1, limit))
            assert report.converged and report.tau_opt == lo
        # One past it is rejected by name, with the digit count and not
        # the value; so is a value past str()'s 4300 digits.
        for deadline, digits in ((limit + 1, 309), (10**5000, 5001)):
            with pytest.raises(ValueError) as info:
                ChannelConfig(5, 1, deadline)
            message = str(info.value)
            assert message.startswith("deadline must be at most "
                                      "int(sys.float_info.max)")
            assert message.endswith(f"got a {digits}-digit number")

    def test_deadline_functions_share_the_config_rule(self):
        # A deadline past the float range is rejected up front with the
        # config's message, not by an OverflowError from the formula.
        for call in (lambda: lower_bound_tau(10, 10**309),
                     lambda: window_bound(10**309, 0.5)):
            with pytest.raises(ValueError,
                               match="got a 310-digit number$"):
                call()
        with pytest.raises(ValueError, match="deadline must be >= 1"):
            window_bound(0, 0.5)

    @pytest.mark.parametrize("entry", [
        lambda d: ChannelConfig(10, 2, d),
        lambda d: lower_bound_tau(10, d),
        lambda d: window_bound(d, 0.5),
        lambda d: EstimatorConfig(100, 0.5, 1, 2, 10, 5, d),
        lambda d: run_interval(np.random.default_rng(0), np.full(3, 0.5), 2,
                               d, 10, np.zeros(3, dtype=np.int64)),
    ], ids=["ChannelConfig", "lower_bound_tau", "window_bound",
            "EstimatorConfig", "run_interval"])
    def test_every_deadline_entry_point_has_one_message(self, entry):
        # A deadline whose magnitude passes the float range is named by its
        # digit count, negative ones too: str() refuses ints past 4300
        # digits.
        at_most = ("deadline must be at most int(sys.float_info.max), "
                   "about 1.798e+308, got ")
        for deadline, message in (
            (0, "deadline must be >= 1, got 0"),
            (-1, "deadline must be >= 1, got -1"),
            (-10**5000,
             "deadline must be >= 1, got a negative 5001-digit number"),
            (analytic.DEADLINE_MAX + 1, at_most + "a 309-digit number"),
            (10**5000, at_most + "a 5001-digit number"),
        ):
            with pytest.raises(ValueError) as info:
                entry(deadline)
            assert str(info.value) == message

    @pytest.mark.parametrize("entry, message", [
        (lambda: ChannelConfig(10**5000, 1, 1),
         "n_users must be in [2, 1000], got a 5001-digit number"),
        (lambda: ChannelConfig(5, -10**5000, 1),
         "mpr must satisfy 1 <= mpr < n_users, got mpr=a negative "
         "5001-digit number with n_users=5"),
        (lambda: lower_bound_tau(-10**5000, 3),
         "n_users must be in [2, 1000], got a negative 5001-digit number"),
        (lambda: binomial_pmf(10**5000, 1, 0.5),
         "n must be in [0, 1000], got a 5001-digit number"),
        (lambda: binomial_pmf(10, -10**5000, 0.5),
         "i must be in [0, n], got i=a negative 5001-digit number, n=10"),
        (lambda: checks._valid_cell("sweep cell", 5, 10**5000, 1),
         "sweep cell n=5 m=a 5001-digit number d=1: mpr must satisfy "
         "1 <= mpr < n_users, got mpr=a 5001-digit number with n_users=5"),
        (lambda: EstimatorConfig(-10**5000, 0.5, 1, 2, 10, 5, 1),
         "interval_len must be >= 1, got a negative 5001-digit number"),
        (lambda: EstimatorConfig(100, 0.5, 1, 2, 10**5000, 5, 1),
         "n_max must satisfy mpr < n_max <= 1000, got a 5001-digit number "
         "with mpr=5"),
        (lambda: run_interval(np.random.default_rng(0), np.full(3, 0.5), 2,
                              1, -10**5000, np.zeros(3, dtype=np.int64)),
         "n_slots must be >= 0, got a negative 5001-digit number"),
        (lambda: run_stationary(ChannelConfig(5, 2, 3), 0.1, -10**5000, 1),
         "slots must be >= 1, got a negative 5001-digit number"),
        (lambda: _timeline(Stage(1, 3, 20), seed=-10**5000),
         "seed must be >= 0, got a negative 5001-digit number"),
        (lambda: _timeline(Stage(10**5000, 3, 20)),
         "stages must cover intervals contiguously from 1; expected a "
         "stage starting at 1, got a 5001-digit number"),
        (lambda: _timeline(Stage(1, 10**5000, 20), Stage(5, 6, 20)),
         "stages must cover intervals contiguously from 1; expected a "
         "stage starting at a 5001-digit number, got 5"),
        (lambda: _timeline(Stage(1, -10**5000, 20)),
         "stage 1-a negative 5001-digit number is empty"),
        (lambda: _timeline(Stage(1, 3, 10**5000)),
         "stage 1-3: active_users must be in (5, 100], got a 5001-digit "
         "number"),
        (lambda: _simulate_args(reps=-10**5000),
         "--reps must be >= 1, got a negative 5001-digit number"),
        (lambda: _simulate_args(slots=-10**5000),
         "--slots must be >= 1, got a negative 5001-digit number"),
        (lambda: _simulate_args(seed=-10**5000),
         "--seed must be >= 0, got a negative 5001-digit number"),
    ], ids=["population", "mpr", "lower_bound_tau", "binomial_pmf-n",
            "binomial_pmf-i", "valid_cell", "interval_len", "n_max",
            "n_slots", "slots", "seed", "stage-first", "stage-after",
            "stage-empty", "stage-users", "cli-reps", "cli-slots",
            "cli-seed"])
    def test_oversized_int_named_by_its_digits(self, entry, message):
        # str() refuses ints past 4300 digits: every validator names the
        # int it rejects by its digit count past the float range.
        with pytest.raises(ValueError) as info:
            entry()
        assert str(info.value) == message

    def test_probability_range(self):
        with pytest.raises(ValueError):
            as_probability(-0.1)
        with pytest.raises(ValueError):
            as_probability(1.5)
        with pytest.raises(ValueError):
            as_probability(float("nan"))
        assert as_probability(0.25) == 0.25

    def test_open_interval_functions_reject_endpoints(self):
        cfg = ChannelConfig(10, 2, 5)
        for fn in (admitted_load, deadline_load, delivery_prob_derivative,
                   success_size_ratio, iteration_map):
            with pytest.raises(ValueError):
                fn(cfg, 0.0)
            with pytest.raises(ValueError):
                fn(cfg, 1.0)


def _timeline(*stages, seed=0):
    return ScenarioTimeline(
        stages, EstimatorConfig(100, 0.5, 2, 5, 100, 5, 1), seed=seed
    )


def _simulate_args(reps=1, slots=10, seed=0):
    # Such ints reach the command only from the API: argparse's int()
    # refuses strings past 4300 digits first.
    return cli._cmd_simulate(argparse.Namespace(
        n=5, m=2, d=3, tau="0.1", reps=reps, slots=slots, seed=seed,
        out=None,
    ))


class TestBinomialPmf:
    def test_hand_value(self):
        assert binomial_pmf(5, 2, 0.3) == pytest.approx(
            10 * 0.09 * 0.343, rel=1e-14
        )

    def test_endpoints(self):
        assert binomial_pmf(4, 0, 0.0) == 1.0
        assert binomial_pmf(4, 2, 0.0) == 0.0
        assert binomial_pmf(4, 4, 1.0) == 1.0
        assert binomial_pmf(4, 1, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_pmf(5, 6, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(5, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0, 0.5)

    def test_population_past_the_cap_raises(self):
        with pytest.raises(ValueError, match=f"n must be in \\[0, {N_CAP}\\]"):
            binomial_pmf(N_CAP + 1, 0, 0.5)

    @given(
        n=st.integers(min_value=0, max_value=N_CAP),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    # The largest coefficient of the domain, comb(1000, 500).
    @example(n=1000, p=0.5)
    @settings(max_examples=60, deadline=None)
    def test_mass_property(self, n, p):
        total = math.fsum(binomial_pmf(n, i, p) for i in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestDeliveryProb:
    def test_two_user_single_slot(self):
        # n=2, m=1, d=1 collapses to tau * (1 - tau).
        cfg = ChannelConfig(2, 1, 1)
        assert delivery_prob(cfg, 0.3) == pytest.approx(0.21, rel=1e-14)

    def test_hand_value_with_window(self):
        # n=3, m=2, d=2 at tau=1/2: (1 - 1/4) * (1/4 + 1/2) = 9/16.
        cfg = ChannelConfig(3, 2, 2)
        assert delivery_prob(cfg, 0.5) == pytest.approx(0.5625, rel=1e-14)

    def test_endpoints_vanish(self):
        cfg = ChannelConfig(10, 3, 5)
        assert delivery_prob(cfg, 0.0) == 0.0
        assert delivery_prob(cfg, 1.0) == 0.0

    def test_silent_channel_is_exact(self):
        # At tau = 0 the general formulas give exact values and a positive
        # zero: nothing is sent, and every transmission would be decoded.
        for d in (1, 5, 10**9):
            cfg = ChannelConfig(10, 3, d)
            assert repr(delivery_prob(cfg, 0.0)) == "0.0"
            assert admit_prob(cfg, 0.0) == 1.0
        for n, m in ((9, 3), (999, 1), (999, 998)):
            assert analytic._head_sums(n, m, 0.0) == (1.0, 0.0, 0)

    def test_admit_prob_is_binomial_head(self):
        cfg = ChannelConfig(10, 3, 5)
        direct = sum(binomial_pmf(9, i, 0.2) for i in range(3))
        assert admit_prob(cfg, 0.2) == pytest.approx(direct, rel=1e-13)

    def test_flat_cells_stay_at_most_one(self):
        # The summed binomial head rounds above 1 on these cells.
        for n, m, d in ((200, 180, 100), (200, 199, 100), (50, 45, 100)):
            cfg = ChannelConfig(n, m, d)
            assert delivery_prob(cfg, solve_optimal_tau(cfg).tau_opt) <= 1.0

    def test_underflow_regime_stays_finite(self):
        cfg = ChannelConfig(1000, 8, 5)
        for tau in (0.52, 0.7, 0.9):
            v = delivery_prob(cfg, tau)
            assert 0.0 <= v <= 1.0

    @given(
        n=st.integers(min_value=2, max_value=100),
        d=st.integers(min_value=1, max_value=40),
        tau=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_a_probability(self, n, d, tau, data):
        m = data.draw(st.integers(min_value=1, max_value=n - 1))
        v = delivery_prob(ChannelConfig(n, m, d), tau)
        assert 0.0 <= v <= 1.0

    @given(
        n=st.integers(min_value=2, max_value=60),
        d=st.integers(min_value=1, max_value=30),
        tau=st.floats(min_value=0.001, max_value=0.999),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_longer_deadline_never_hurts(self, n, d, tau, data):
        m = data.draw(st.integers(min_value=1, max_value=n - 1))
        shorter = delivery_prob(ChannelConfig(n, m, d), tau)
        longer = delivery_prob(ChannelConfig(n, m, d + 5), tau)
        assert longer >= shorter - 1e-15


class TestLoadCurves:
    def test_admitted_load_hand_value(self):
        # n=3, m=2 at tau=1/2: (0*1/4 + 1*1/2) / (1/4 + 1/2) = 2/3.
        cfg = ChannelConfig(3, 2, 1)
        assert admitted_load(cfg, 0.5) == pytest.approx(2 / 3, rel=1e-14)

    def test_deadline_load_hand_value(self):
        # n=10, d=1 at tau=0.2: 0.2 * (10 - 1/0.2) = 1.
        cfg = ChannelConfig(10, 2, 1)
        assert deadline_load(cfg, 0.2) == pytest.approx(1.0, abs=1e-15)

    def test_deadline_load_small_tau_limit(self):
        # As tau -> 0 the deadline load tends to -1.
        cfg = ChannelConfig(10, 2, 5)
        assert deadline_load(cfg, 1e-9) == pytest.approx(-1.0, abs=1e-7)

    def test_deadline_load_vanishes_at_lower_bound(self):
        for n, d in ((5, 3), (20, 10), (50, 1)):
            cfg = ChannelConfig(n, 2, d)
            lo = lower_bound_tau(n, d)
            assert deadline_load(cfg, lo) == pytest.approx(0.0, abs=1e-10)

    def test_finite_at_subnormal_tau(self):
        # deadline / window overflows below about 5.6e-309, yet the load
        # keeps its limit -1 and the derivative its limit D.
        assert deadline_load(ChannelConfig(10, 2, 5), 1e-310) == (
            pytest.approx(-1.0, abs=1e-15))
        for n, m, d in ((2, 1, 1), (10, 2, 5)):
            assert delivery_prob_derivative(
                ChannelConfig(n, m, d), 5e-324) == pytest.approx(d, rel=1e-15)

    @pytest.mark.parametrize("n, d", [(2, 1), (10, 5), (1000, 10**6)])
    def test_row_matches_scalar_at_subnormal_tau(self, n, d):
        taus = [5e-324, 1e-320, 1e-310, 5e-309, 2e-308, sys.float_info.min]
        row = np.array(taus)
        got = analytic._deadline_load_row(
            n, d, row, analytic._window_prob_row(row, d))
        assert np.isfinite(got).all()
        assert _bits(got) == _bits(
            [deadline_load(ChannelConfig(n, 1, d), t) for t in taus])

    def test_moment_ratio_exceeds_load_by_one(self):
        # n=3, m=2 at tau=1/2: ratio 5/3 versus load 2/3.
        cfg = ChannelConfig(3, 2, 1)
        assert success_size_ratio(cfg, 0.5) == pytest.approx(
            5 / 3, rel=1e-14
        )



def _exact_quotient(n: int, lo: int, hi: int, tau: float, k: int) -> Fraction:
    """sum_{lo<=i<hi} i^k P(X=i) / sum_{lo<=i<hi} i^(k-1) P(X=i) for
    X ~ Binomial(n, tau), in exact rational arithmetic."""
    t = Fraction(tau)
    a, b = t.numerator, t.denominator - t.numerator
    num = den = 0
    power = a**lo
    # Horner's rule in b: after step i, each sum holds its terms times the
    # common factor denominator**n / b**(n - i), which the quotient drops.
    for i in range(lo, hi):
        w = math.comb(n, i) * power
        num = num * b + i**k * w
        den = den * b + i ** (k - 1) * w
        power *= a
    return Fraction(num, den)


class TestConditionalOracle:
    """The conditional quantities divide the scaled head sums, so they stay
    accurate where the sums themselves underflow (large n, tau near 1)."""

    @staticmethod
    def _assert_exact(n: int, m: int, tau: float) -> None:
        # `success_size_ratio` is its row form at one point, so one call
        # covers both; `admitted_load` and its row form are two paths.
        cfg = ChannelConfig(n, m, 1)
        load = admitted_load(cfg, tau)
        ratio = success_size_ratio(cfg, tau)
        exact_load = _exact_quotient(n - 1, 0, m, tau, 1)
        for got, want in (
            (load, exact_load),
            (next(analytic._admitted_load_rows(n, (m,), np.array([tau])))[0],
             exact_load),
            (ratio, _exact_quotient(n, 1, m + 1, tau, 2)),
        ):
            assert abs(Fraction(float(got)) - want) <= want * 1e-15, (
                n, m, tau, got, float(want)
            )
        assert abs(ratio - 1.0 - load) <= 1e-12

    @pytest.mark.parametrize("n, m, tau", [
        (1000, 3, 0.52), (1000, 3, 0.53), (1000, 3, 0.60), (500, 7, 0.79),
        (1000, 8, 0.99),
    ])
    def test_edge_cells(self, n, m, tau):
        self._assert_exact(n, m, tau)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, analytic.N_CAP), m=st.integers(1, 8),
           tau=st.floats(1e-16, 0.5).map(lambda e: 1.0 - e))
    def test_near_one(self, n, m, tau):
        self._assert_exact(n, min(m, n - 1), tau)

    def test_scaled_start_normal_up_to_the_cap(self):
        # The scaled start frac**n, frac >= 1/2, stays a normal float up to
        # the cap, so neither quotient's denominator can round to zero.
        assert 0.5**analytic.N_CAP >= sys.float_info.min

class TestLowerBound:
    def test_single_slot_deadline_is_reciprocal(self):
        assert lower_bound_tau(10, 1) == 0.1
        assert lower_bound_tau(2, 1) == 0.5
        assert lower_bound_tau(50, 1) == 0.02

    def test_known_value(self):
        # n=2, d=2: 1 - sqrt(1/3).
        assert lower_bound_tau(2, 2) == pytest.approx(
            1.0 - math.sqrt(1.0 / 3.0), rel=1e-14
        )

    def test_matches_direct_formula(self):
        for n in (2, 7, 33, 100):
            for d in (2, 5, 17, 50):
                direct = 1.0 - ((n - 1) / (n - 1 + d)) ** (1.0 / d)
                assert lower_bound_tau(n, d) == pytest.approx(
                    direct, abs=1e-14
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_tau(1, 5)
        with pytest.raises(ValueError):
            lower_bound_tau(5, 0)
        # The population rule is the config's, message included.
        with pytest.raises(ValueError) as info:
            lower_bound_tau(N_CAP + 1, 5)
        assert str(info.value) == (
            f"n_users must be in [2, {N_CAP}], got {N_CAP + 1}")
        with pytest.raises(ValueError) as info:
            ChannelConfig(N_CAP + 1, 2, 5)
        assert str(info.value) == (
            f"n_users must be in [2, {N_CAP}], got {N_CAP + 1}")


def _outcome(func, *args):
    """func(*args) as its float bits, or the type and text of its error."""
    try:
        return _bits([func(*args)])
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def _gap_points(draw):
    """A cell of the accepted domain with D up to 10^15, and an x: any
    float of [0, 1], or one of the points the solver's bracket moves to,
    1 - (1 - lo) / 2^k from lo = lower_bound_tau, whose starts
    (1 - x)^(n-1) are carried scaled as k grows and which reach tau = 1
    past k = 53."""
    n = draw(st.integers(2, analytic.N_CAP))
    m = draw(st.integers(1, n - 1))
    d = draw(st.one_of(st.integers(1, 30), st.integers(1, 10**15)))
    lo = lower_bound_tau(n, d)
    x = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.floats(1e-16, 0.5).map(lambda e: 1.0 - e),
        st.integers(0, 60).map(lambda k: 1.0 - (1.0 - lo) / 2**k),
    ))
    return (n, m, d), x


class TestSolver:
    @settings(max_examples=200, deadline=None)
    @given(point=_gap_points())
    @example(point=((50, 49, 10**15), 1.0))
    @example(point=((1000, 999, 10**15), 1.0 - 2**-40))
    @example(point=((1000, 3, 20), 0.6))
    @example(point=((10, 2, 5), math.nan))
    def test_gap_is_the_load_difference(self, point):
        # The solver's gap, bound once per config, is the public loads'
        # difference bit for bit, and raises their error outside (0, 1).
        cell, x = point
        cfg = ChannelConfig(*cell)
        want = _outcome(
            lambda t: admitted_load(cfg, t) - deadline_load(cfg, t), x)
        assert _outcome(analytic._gap_of(cfg)[0], x) == want
        if not 0.0 < x < 1.0:
            assert want[0] is ValueError

    def test_single_packet_receiver_closed_form(self):
        report = solve_optimal_tau(ChannelConfig(10, 1, 1))
        assert type(report.tau_opt) is float
        assert report.tau_opt == 0.1
        assert report.iterations == 0
        assert report.residual == 0.0
        assert report.converged

    def test_table_values(self):
        expected = {
            (20, 5, 1): (0.18633017574146896, 0.13565916191804867),
            (40, 5, 1): (0.09199105932303608, 0.06557634313519477),
            (20, 5, 20): (0.11716540842223212, 0.8595162454106166),
            (40, 5, 20): (0.0694674569021787, 0.6628268464812509),
        }
        for (n, m, d), (tau, sdp) in expected.items():
            report = solve_optimal_tau(ChannelConfig(n, m, d))
            assert report.converged
            assert type(report.tau_opt) is float
            assert report.tau_opt == pytest.approx(tau, rel=1e-9)
            assert report.sdp_max == pytest.approx(sdp, rel=1e-9)

    def test_report_sdp_is_recomputed(self, monkeypatch):
        # For mpr >= 2 it comes from the gap's head sum at tau_opt, with no
        # further `delivery_prob` call, and equals that call bit for bit.
        def refuse(config, tau):
            raise AssertionError("delivery_prob called")

        cfg = ChannelConfig(20, 5, 5)
        monkeypatch.setattr(analytic, "delivery_prob", refuse)
        report = solve_optimal_tau(cfg)
        monkeypatch.undo()
        assert report.sdp_max == delivery_prob(cfg, report.tau_opt)

    def test_solution_is_stationary(self):
        cfg = ChannelConfig(30, 4, 10)
        report = solve_optimal_tau(cfg)
        tau = report.tau_opt
        assert admitted_load(cfg, tau) == pytest.approx(
            deadline_load(cfg, tau), abs=1e-9
        )
        assert delivery_prob_derivative(cfg, tau) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_solution_inside_localization_interval(self):
        for n, m, d in ((5, 2, 1), (20, 5, 20), (50, 8, 10), (9, 8, 20)):
            cfg = ChannelConfig(n, m, d)
            tau = solve_optimal_tau(cfg).tau_opt
            assert lower_bound_tau(n, d) - 1e-12 <= tau < 1.0

    def test_unconverged_reported_honestly(self, monkeypatch):
        monkeypatch.setattr(analytic, "_MAX_ITER", 3)
        report = solve_optimal_tau(ChannelConfig(20, 5, 1))
        assert not report.converged
        assert report.iterations == 3
        assert report.residual > 1e-12

    def test_converges_on_accepted_domain(self):
        # Reference: 60 bisection steps on the sign of the closed-form
        # derivative of `tests/reference.py`, not on the gap the solver
        # zeros. Where P is 1 to within rounding the maximizer is not
        # determined in double precision, so tau is compared only off
        # those flat cells.
        for n, m, d in _accepted_domain():
            cfg = ChannelConfig(n, m, d)
            report = solve_optimal_tau(cfg)
            assert report.converged, (n, m, d)
            lo = hi = lower_bound_tau(n, d)
            if m > 1:  # mpr = 1 peaks at the left endpoint
                hi = 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if reference.delivery_prob_derivative(cfg, mid) > 0.0:
                        lo = mid
                    else:
                        hi = mid
            tau = 0.5 * (lo + hi)
            assert report.sdp_max >= delivery_prob(cfg, tau) - 1e-12
            if 1.0 - report.sdp_max >= 1e-6:
                assert report.tau_opt == pytest.approx(
                    tau, abs=1e-9
                ), (n, m, d)

    def test_matches_grid_search(self):
        for n, m, d in ((10, 3, 5), (25, 5, 1), (40, 2, 20)):
            cfg = ChannelConfig(n, m, d)
            report = solve_optimal_tau(cfg)
            oracle_tau, oracle_sdp = grid_search_optimum([cfg])[0]
            assert report.tau_opt == pytest.approx(
                oracle_tau, abs=1e-7
            )
            assert report.sdp_max == pytest.approx(oracle_sdp, abs=1e-10)

    def test_grid_search_handles_boundary_maximum(self):
        # With mpr=1 the maximum sits at the interval's left endpoint.
        cfg = ChannelConfig(10, 1, 1)
        oracle_tau, _ = grid_search_optimum([cfg])[0]
        assert oracle_tau == pytest.approx(0.1, abs=1e-8)

    def test_array_scan_matches_scalar_scan(self):
        # grid_search_optimum's coarse scan evaluates the points of every
        # (m, d) of one n from one numpy recurrence (`_delivery_prob_rows`
        # with exact=False, one deadline per row of points). It
        # must pick the first maximum of the scalar loop and refine next to
        # it; the values may differ by the ulps of numpy's power, log1p and
        # expm1. At (1000, 999, d) the start (1 - tau)^(n-1) of the points
        # near tau = 1 is below _SCALED_BELOW, so those run scaled and
        # rescale.
        scaled = 0
        by_n = {}
        for n, m, d in _accepted_domain():
            by_n.setdefault(n, []).append((m, d))
        for n, cells in by_n.items():
            steps = sorted({m for m, _ in cells})
            deadlines = sorted({d for _, d in cells})
            row_lo = np.array([[lower_bound_tau(n, d)] for d in deadlines])
            row_step = (1.0 - row_lo) / _COARSE_POINTS
            scans = analytic._delivery_prob_rows(
                n, steps, [np.array(deadlines, dtype=float)[:, None]],
                row_lo + np.arange(_COARSE_POINTS) * row_step, exact=False,
            )
            for m, rows in zip(steps, scans):
                for d, fast in zip(deadlines, rows):
                    if (m, d) not in cells:
                        continue
                    cfg = ChannelConfig(n, m, d)
                    lo = lower_bound_tau(n, d)
                    step = (1.0 - lo) / _COARSE_POINTS
                    taus = lo + np.arange(_COARSE_POINTS) * step
                    slow = [delivery_prob(cfg, t) for t in taus.tolist()]
                    first_max = max(range(_COARSE_POINTS),
                                    key=slow.__getitem__)
                    assert int(np.argmax(fast)) == first_max, (n, m, d)
                    tau, _ = grid_search_optimum([cfg])[0]
                    assert lo + (first_max - 1) * step <= tau, (n, m, d)
                    assert tau <= lo + (first_max + 1) * step, (n, m, d)
                    np.testing.assert_allclose(fast, slow, rtol=1e-14,
                                               atol=0.0,
                                               err_msg=str((n, m, d)))
                    start = (1.0 - taus) ** (n - 1)
                    scaled += int(np.count_nonzero(start <= _SCALED_BELOW))
        assert scaled > 0


def _cells():
    """(n, m, d) over the accepted domain, small n and d as often as any."""
    n = st.one_of(st.integers(2, 30), st.integers(2, N_CAP))
    d = st.one_of(st.integers(1, 30), st.integers(1, 10**15))
    return n.flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1), d)
    )


# The `analytic` benchmark's 115-cell sweep, and its n = 200 row.
_ANALYTIC_SWEEP = [(n, m, d) for n in (10, 50, 200)
                   for m in (1, 2, 5, 9, 20, 25, 45, 49, 100, 180, 199)
                   if m < n for d in (1, 5, 20, 100, 1000)]
_N200_SWEEP_ROW = [cell for cell in _ANALYTIC_SWEEP if cell[0] == 200]
_N1000_SHUFFLED = [
    (1000, 998, 20), (1000, 1, 10**15), (1000, 999, 1), (1000, 500, 20),
    (1000, 2, 1), (1000, 999, 10**15), (1000, 1, 20), (1000, 998, 20),
    (1000, 500, 10**15), (1000, 2, 20), (1000, 999, 20), (1000, 1, 1),
    (1000, 998, 10**15), (1000, 2, 10**15), (1000, 500, 1), (1000, 1, 1),
    (1000, 998, 1),
]


# Cells near the population cap whose solves evaluate the gap at scaled
# starts, and long deadlines where the solver raises or returns a wrong
# converged tau (ROADMAP item 1), which it must keep doing exactly so.
_SCALED_START_CELLS = [(n, m, d) for n in (1000, 999, 500)
                       for m in (n - 1, n - 2, n - 10, n // 2)
                       for d in (1, 5, 20, 10**6, 10**12)]
_LONG_DEADLINE_CELLS = [(50, 49, 10**16), (3, 2, 10**17), (50, 20, 10**16)]


class TestReferenceSolver:
    """`solve_optimal_tau` binds its head-sum factors once per config and
    takes sdp_max from the head sum of its gap evaluation at tau_opt; it
    must report what the plain scalar Brent of `tests/reference.py`
    reports, by repr, or raise its error."""

    @staticmethod
    def _report(solve, cell):
        try:
            return repr(solve(ChannelConfig(*cell)))
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    # The first set is the `analytic` benchmark's 643 cells: `verify`'s
    # default sweep grid and the 115-cell sweep.
    @pytest.mark.parametrize("cells", [
        [*checks.VerifyGrid().sweep_cells(), *_ANALYTIC_SWEEP],
        _SCALED_START_CELLS,
        _LONG_DEADLINE_CELLS,
    ], ids=["analytic-benchmark", "scaled-starts", "long-deadlines"])
    def test_matches_reference_solver(self, cells):
        for cell in cells:
            assert self._report(solve_optimal_tau, cell) == self._report(
                reference.solve_optimal_tau, cell), cell

    def test_scaled_starts_take_the_scalar_head_sum(self):
        # Every solve of these cells with mpr >= 2 evaluates its gap through
        # `_head_sums` only where the start is scaled; some are.
        with mock.patch.object(analytic, "_head_sums",
                               wraps=analytic._head_sums) as scalar:
            for cell in _SCALED_START_CELLS:
                solve_optimal_tau(ChannelConfig(*cell))
        assert scalar.call_count > 0
        with mock.patch.object(analytic, "_head_sums",
                               wraps=analytic._head_sums) as scalar:
            solve_optimal_tau(ChannelConfig(20, 5, 5))
        assert scalar.call_count == 0


class TestGridSearchBatch:
    """`grid_search_optimum` searches all its configs at once; each result
    must be the one-config search of `tests/reference.py`, bit for bit."""

    @staticmethod
    def _bits(pairs):
        return [(tau.hex(), sdp.hex()) for tau, sdp in pairs]

    # n = 2 and 3 hit numpy's power fast paths for exponents 1 and 2;
    # (1000, 999, d) scans scaled points and (200, 199, 1) also refines
    # some; budgets of 1 and 4000 elements put chunk boundaries between
    # and inside the groups of cells. The scan runs one recurrence for all
    # the mpr of an n and reads each at its own step: the workload sweep's
    # n = 200 row, and n = 1000 in shuffled order with duplicates, where
    # scaled starts and rescales fall between the steps that are read;
    # budgets of 4000 and 1 split one n's deadline rows across chunks.
    # The refinement bands each chunk's rows by mpr, its cells sorted by
    # descending mpr: the whole sweep in one chunk of 11 distinct mpr;
    # chunks of d = 1 cells only and of d != 1 cells only, whose window
    # takes no libm and only libm; and cells whose brackets finish on
    # different steps, the mpr 1 cell first and then the cell of the
    # largest mpr, 10, whose bracket stays put while the others run on, or
    # one of a middle mpr, before the rest.
    @example(cells=_ANALYTIC_SWEEP, budget=2**16)
    @example(cells=[(200, 199, 1), (50, 25, 1), (1000, 2, 1), (10, 3, 1),
                    (2, 1, 1)], budget=2**16)
    @example(cells=[(200, 199, 20), (50, 25, 10**15), (1000, 2, 7),
                    (10, 3, 5), (1000, 1, 10**15)], budget=2**16)
    @example(cells=[(1000, 10, 10**15), (200, 5, 20), (10, 3, 5), (2, 1, 1),
                    (50, 8, 1)], budget=2**16)
    @example(cells=[(200, 199, 1), (1000, 10, 10**15), (200, 5, 20),
                    (10, 3, 5), (2, 1, 1), (50, 8, 1)], budget=2**16)
    @example(cells=_N200_SWEEP_ROW, budget=2**16)
    @example(cells=_N200_SWEEP_ROW, budget=4000)
    @example(cells=_N1000_SHUFFLED, budget=2**16)
    @example(cells=_N1000_SHUFFLED, budget=4000)
    @example(cells=_N1000_SHUFFLED, budget=1)
    @example(cells=[(2, 1, 1), (3, 2, 1), (2, 1, 10**15), (3, 2, 10**15)],
             budget=2**16)
    @example(cells=[(1000, 999, 1), (1000, 999, 10**15), (200, 199, 1)],
             budget=2**16)
    @example(cells=[(200, 199, 1)], budget=2**16)
    @example(cells=[(200, 199, 1), (10, 3, 5), (1000, 999, 20), (10, 3, 5),
                    (10, 3, 6), (50, 25, 100)], budget=4000)
    @example(cells=[(10, 3, 5), (10, 3, 6), (12, 2, 1)], budget=1)
    @given(cells=st.lists(_cells(), min_size=1, max_size=6),
           budget=st.sampled_from([2**16, 4000, 1]))
    @settings(max_examples=40, deadline=None)
    def test_matches_one_config_search(self, cells, budget):
        configs = [ChannelConfig(*cell) for cell in cells]
        with mock.patch.object(analytic, "_CHUNK_ELEMENTS", budget):
            got = grid_search_optimum(configs)
        expected = [reference.grid_search_optimum(cfg) for cfg in configs]
        assert self._bits(got) == self._bits(expected)

    def test_empty_batch(self):
        assert grid_search_optimum([]) == []

    def test_scaled_starts_stay_in_the_bands(self):
        # The sweep's (200, 199, 1) cell refines at starts below
        # _SCALED_BELOW at every evaluation; the kernel's bands carry them
        # from their frexp start, so no scalar head sum runs.
        configs = [ChannelConfig(*cell) for cell in _ANALYTIC_SWEEP]
        with mock.patch.object(analytic, "_head_sums",
                               wraps=analytic._head_sums) as scalar:
            got = grid_search_optimum(configs)
        assert scalar.call_count == 0
        tau = got[_ANALYTIC_SWEEP.index((200, 199, 1))][0]
        assert (1.0 - tau) ** 199 <= _SCALED_BELOW

    def test_memory_does_not_grow_with_cells(self):
        def peak(configs):
            tracemalloc.start()
            try:
                grid_search_optimum(configs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Four cells at mpr = 400 give the refinement a tall matrix, and
        # n = 50 takes all the other cells, one scan row per deadline:
        # searched whole, 2000 cells would peak about 150 times higher than
        # 16.
        def cells(n_small):
            return ([ChannelConfig(1000, 400, d) for d in range(1, 5)]
                    + [ChannelConfig(50, 2, d) for d in range(1, n_small)])

        assert peak(cells(1997)) < 4 * peak(cells(13))
        # One (n, d) row read at 399 mpr values against one mpr read 399
        # times: the refinement is alike, and a copy of the scan row kept
        # per mpr would add 399 * 16 kB.
        assert peak([ChannelConfig(1000, m, 20) for m in range(1, 400)]) < (
            2 * peak([ChannelConfig(1000, 399, 20)] * 399)
        )
        # 128 deadlines of one n are four chunks of 32 scan rows, whose
        # arrays must be freed before the next chunk's are made: one chunk
        # kept alive would add a fifth to the peak of one chunk alone.
        assert peak([ChannelConfig(50, 2, d) for d in range(1, 129)]) <= (
            1.05 * peak([ChannelConfig(50, 2, d) for d in range(1, 33)])
        )


class TestDerivativeAndMap:
    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for n, m, d, tau in (
            (10, 3, 5, 0.3),
            (20, 5, 1, 0.1),
            (50, 8, 20, 0.05),
            (2, 1, 1, 0.7),
        ):
            cfg = ChannelConfig(n, m, d)
            fd = (
                delivery_prob(cfg, tau + h) - delivery_prob(cfg, tau - h)
            ) / (2 * h)
            assert delivery_prob_derivative(cfg, tau) == pytest.approx(
                fd, rel=1e-6, abs=1e-8
            )

    def test_derivative_matches_closed_form(self):
        # The package writes P' as the solver's gap scaled; the product
        # rule's closed form in `tests/reference.py` must agree to 1e-10 in
        # the check's scaled error, up to m = n - 1 and d = 10^6.
        taus = [i / 100 for i in range(1, 100)]
        deadlines = (1, 5, 20, 1000, 10**6)
        worst = 0.0
        for n in (2, 5, 10, 50, 200, 1000):
            mprs = sorted({1, 2, n // 2, n - 1} & set(range(1, n)))
            rows = analytic._delivery_prob_derivative_rows(
                n, mprs, deadlines, np.array(taus))
            for (m, d), got in zip(itertools.product(mprs, deadlines), rows):
                cfg = ChannelConfig(n, m, d)
                want = np.array([
                    reference.delivery_prob_derivative(cfg, t) for t in taus
                ])
                err = np.abs(got - want) / (1.0 + np.abs(want))
                worst = max(worst, float(err.max()))
        assert worst <= 1e-10

    def test_derivative_sign_flips_at_optimum(self):
        cfg = ChannelConfig(20, 5, 5)
        tau = solve_optimal_tau(cfg).tau_opt
        assert delivery_prob_derivative(cfg, tau - 0.05) > 0
        assert delivery_prob_derivative(cfg, tau + 0.05) < 0

    def test_map_fixed_point_is_optimum(self):
        for n, m, d in ((20, 5, 1), (10, 3, 5), (40, 5, 20)):
            cfg = ChannelConfig(n, m, d)
            tau = solve_optimal_tau(cfg).tau_opt
            assert iteration_map(cfg, tau) == pytest.approx(tau, abs=1e-11)

    def test_map_pushes_toward_optimum(self):
        cfg = ChannelConfig(20, 5, 1)
        tau = solve_optimal_tau(cfg).tau_opt
        assert iteration_map(cfg, tau - 0.08) > tau - 0.08
        assert iteration_map(cfg, tau + 0.08) < tau + 0.08

    def test_window_bound_unit_for_single_slot(self):
        for x in (0.1, 0.37, 0.9):
            assert window_bound(1, x) == 1.0

    def test_window_bound_below_one_otherwise(self):
        # d=2 at x=1/2: 4 * (1/4) * (1/2) / (3/4)^2 = 8/9.
        assert window_bound(2, 0.5) == pytest.approx(8 / 9, rel=1e-14)
        for d in (2, 5, 20):
            for x in (0.01, 0.3, 0.99):
                assert window_bound(d, x) < 1.0


def _iteration_map_of_loads(config, x) -> float:
    """The paper's map from the scalar loads: the oracle of
    `_iteration_map_rows`, which `iteration_map` evaluates at one point."""
    return x * (admitted_load(config, x) + 1.0) / (
        deadline_load(config, x) + 1.0)


def _bits(values) -> list[int]:
    """The float64 bit patterns, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _scalar_row(func, args, taus):
    """func(*args, tau) at each tau; None if it raises ZeroDivisionError
    anywhere."""
    try:
        return [func(*args, t) for t in taus]
    except ZeroDivisionError:
        return None


@st.composite
def _cells(draw):
    n = draw(st.integers(2, analytic.N_CAP))
    m = draw(st.integers(1, n - 1))
    d = draw(st.one_of(st.integers(1, 30), st.integers(1, 10**6)))
    return n, m, d


# Interior tau, and tau near 1 where (1 - tau)^(n-1) runs scaled and the
# admit probability underflows to zero.
_TAUS = st.lists(
    st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1e-16, 0.5).map(lambda e: 1.0 - e),
    ),
    min_size=1,
    max_size=12,
)


def _generated_rows(form, *args) -> list:
    """The rows that the generator `form(*args)` yields, and then None if it
    raised ZeroDivisionError."""
    rows = []
    try:
        # A form may overwrite a row at its next step: keep copies.
        rows.extend(row.copy() for row in form(*args))
    except ZeroDivisionError:
        rows.append(None)
    return rows


class TestArrayForms:
    """The array forms that `checks` evaluates a tau row with are the scalar
    closed forms bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(cell=_cells(), taus=_TAUS, i=st.floats(0.0, 1.0))
    @example(cell=(1000, 999, 10**6), taus=[0.3, 0.6, 0.9, 0.999], i=0.5)
    @example(cell=(200, 7, 1), taus=[0.97, 0.98, 0.995], i=1.0)
    @example(cell=(1000, 1, 5), taus=[1e-300, 0.5, 1.0 - 2**-53], i=0.0)
    # Past the edge where the admit probability underflows.
    @example(cell=(1000, 3, 20), taus=[0.52, 0.53, 0.60], i=0.5)
    @example(cell=(500, 7, 5), taus=[0.79], i=0.5)
    @example(cell=(1000, 8, 1), taus=[0.99], i=0.5)
    def test_bit_identical_to_scalar(self, cell, taus, i):
        n, m, d = cell
        cfg = ChannelConfig(n, m, d)
        row = np.array(taus)
        closed = np.array([0.0, 1.0, *taus])
        k = round(i * n)

        # The sums after each requested step are those of a run that
        # stops there, in any order: a step below the one before it
        # starts a new recurrence.
        steps = [m, 1, (m + 1) // 2, m]
        for step, (head, weighted, shift) in zip(
            steps, analytic._head_sums_row(n - 1, steps, row)
        ):
            want = [analytic._head_sums(n - 1, step, t) for t in taus]
            assert _bits(head) == _bits([w[0] for w in want]), step
            assert _bits(weighted) == _bits([w[1] for w in want]), step
            assert (np.zeros(row.size, dtype=int) + shift).tolist() == [
                w[2] for w in want
            ], step
        window = analytic._window_prob_row(row, d)
        assert _bits(window) == _bits([analytic._window_prob(t, d)
                                       for t in taus])
        assert _bits(analytic._binomial_pmf_row(
            n, k, analytic._elementwise(pow, closed, k),
            analytic._elementwise(pow, 1.0 - closed, n - k),
        )) == _bits([math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
                     for t in closed])
        want = _scalar_row(deadline_load, (cfg,), taus)
        if want is None:
            with pytest.raises(ZeroDivisionError):
                analytic._deadline_load_row(n, d, row, window)
        else:
            assert _bits(analytic._deadline_load_row(n, d, row, window)) == (
                _bits(want))
        # The forms of one n_users yield a row for each m, or for each
        # (m, d) with m major, from one recurrence read at each m.
        mprs, deadlines = (m, 1), (d, 1)
        by_cell = list(itertools.product(mprs, deadlines))
        for form, scalar, args, cells in (
            (analytic._delivery_prob_rows, delivery_prob,
             (mprs, deadlines), by_cell),
            (analytic._iteration_map_rows, _iteration_map_of_loads,
             (mprs, deadlines), by_cell),
            (analytic._admitted_load_rows, admitted_load, (mprs,),
             [(s, d) for s in mprs]),
        ):
            want = [_scalar_row(scalar, (ChannelConfig(n, s, e),), taus)
                    for s, e in cells]
            if None in want:
                # The form raises at the first cell where the scalar does.
                want = want[:want.index(None) + 1]
            got = _generated_rows(form, n, *args, row)
            assert [None if w is None else _bits(w) for w in want] == [
                None if g is None else _bits(g) for g in got
            ], form.__name__
        # `delivery_prob_derivative` and `success_size_ratio` are these
        # forms at one point, so their oracles are independent ones: the
        # product rule's closed form, in the derivative check's scaled
        # error, and the exact quotient, within the rounding of a sum of
        # positive terms from a recurrence of m + 1 steps. The closed form
        # multiplies tau into its terms, which keep few bits below the
        # normal range: it is the oracle of normal tau only.
        normal = row >= sys.float_info.min
        rows = _generated_rows(analytic._delivery_prob_derivative_rows, n,
                               mprs, deadlines, row)
        for (s, e), got in zip(by_cell, rows):
            cfg = ChannelConfig(n, s, e)
            want = np.array([reference.delivery_prob_derivative(cfg, t)
                             for t in row[normal].tolist()])
            if got is not None and want.size:
                err = np.abs(got[normal] - want) / (1.0 + np.abs(want))
                assert err.max() <= 1e-10, (s, e)
        rows = _generated_rows(analytic._success_size_ratio_rows, n, mprs,
                               row)
        for s, got in zip(mprs, rows):
            for t, value in zip(taus, got.tolist()):
                exact = _exact_quotient(n, 1, s + 1, t, 2)
                assert abs(Fraction(value) - exact) <= (
                    exact * 8 * (s + 1) * Fraction(2)**-53), (s, t)

    def test_per_element_bit_identical_to_scalar(self):
        # One call with a (n, m, d) per element, as the grid search's
        # refinement makes it: m from 1 to n - 1 side by side, so that each
        # column's terms must stop at its own m, and tau up to 1 - 2**-53,
        # where the start (1 - tau)^(n-1) is carried scaled.
        rng = np.random.default_rng(5)
        elements = []
        for n in (2, 3, 50, 200, 1000):
            for m in sorted({1, 2, n // 2, n - 2, n - 1} & set(range(1, n))):
                for d in (1, 7, 10**6):
                    taus = [*rng.random(6), 1.0 - 2**-53, 1.0 - 1e-9, 0.6]
                    elements += [(n, m, d, t) for t in taus]
        n, m, d, tau = (np.array(column) for column in zip(*elements))
        order = np.argsort(-m, kind="stable")
        got = np.empty_like(tau)
        with mock.patch.object(analytic, "_head_sums",
                               wraps=analytic._head_sums) as scalar:
            got[order] = analytic._refinement_kernel(
                n[order], m[order], d[order].astype(float))(tau[order])
        want = [delivery_prob(ChannelConfig(*cell[:3]), cell[3])
                for cell in elements]
        assert _bits(got) == _bits(want)
        start = (1.0 - tau) ** (n - 1)
        scaled = np.count_nonzero(start <= _SCALED_BELOW)
        assert scaled > 50
        # Scaled columns stay in the bands unless their terms would pass
        # the float range there, as at tau = 1 - 1e-9 for n = 1000; only
        # those take `_head_sums`, which rescales.
        assert 0 < scalar.call_count < scaled

    def test_conditional_forms_finite_past_the_underflow_edge(self):
        # The admit probability and the decoded-batch mass underflow to
        # zero here, but the quotients of the scaled sums stay finite, and
        # tier-1 turns any floating-point warning into an error.
        row = np.array([0.5, 0.99, 0.999])
        sdp = next(analytic._delivery_prob_rows(500, (8,), (5,), row))
        assert sdp[1:].tolist() == [0.0, 0.0]
        for rows in (analytic._admitted_load_rows(500, (8,), row),
                     analytic._iteration_map_rows(500, (8,), (5,), row),
                     analytic._success_size_ratio_rows(500, (8,), row)):
            assert np.isfinite(next(rows)).all(), rows.__name__
