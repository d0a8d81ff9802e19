import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpraloha import analytic
from mpraloha.analytic import (
    _COARSE_POINTS,
    _SCALED_BELOW,
    ChannelConfig,
    _delivery_prob_array,
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

    def test_large_n_mass_sums_to_one(self):
        # Central coefficients at this size force the log-gamma branch.
        total = math.fsum(binomial_pmf(2000, i, 0.3) for i in range(2001))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_n_ratio_consistency(self):
        # Consecutive terms obey the exact pmf ratio, both branches.
        for n, p in ((2000, 0.5), (1500, 0.2)):
            for i in (n // 3, n // 2):
                left = binomial_pmf(n, i + 1, p)
                right = binomial_pmf(n, i, p) * ((n - i) / (i + 1)) * (
                    p / (1 - p)
                )
                assert left == pytest.approx(right, rel=1e-10)

    @given(
        n=st.integers(min_value=0, max_value=120),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
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

    def test_moment_ratio_exceeds_load_by_one(self):
        # n=3, m=2 at tau=1/2: ratio 5/3 versus load 2/3.
        cfg = ChannelConfig(3, 2, 1)
        assert success_size_ratio(cfg, 0.5) == pytest.approx(
            5 / 3, rel=1e-14
        )


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


class TestSolver:
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

    def test_report_sdp_is_recomputed(self):
        cfg = ChannelConfig(20, 5, 5)
        report = solve_optimal_tau(cfg)
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
        # Reference: 60 bisection steps on the sign of the derivative. Where
        # P is 1 to within rounding the maximizer is not determined in
        # double precision, so tau is compared only off those flat cells.
        for n, m, d in _accepted_domain():
            cfg = ChannelConfig(n, m, d)
            report = solve_optimal_tau(cfg)
            assert report.converged, (n, m, d)
            lo = hi = lower_bound_tau(n, d)
            if m > 1:  # mpr = 1 peaks at the left endpoint
                hi = 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if delivery_prob_derivative(cfg, mid) > 0.0:
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
            oracle_tau, oracle_sdp = grid_search_optimum(cfg)
            assert report.tau_opt == pytest.approx(
                oracle_tau, abs=1e-7
            )
            assert report.sdp_max == pytest.approx(oracle_sdp, abs=1e-10)

    def test_grid_search_handles_boundary_maximum(self):
        # With mpr=1 the maximum sits at the interval's left endpoint.
        cfg = ChannelConfig(10, 1, 1)
        oracle_tau, _ = grid_search_optimum(cfg)
        assert oracle_tau == pytest.approx(0.1, abs=1e-8)

    def test_array_scan_matches_scalar_scan(self):
        # grid_search_optimum's coarse scan evaluates its points in one
        # numpy pass. It must pick the first maximum of the scalar loop and
        # refine next to it; the values may differ by the ulps of numpy's
        # power, log1p and expm1. At (1000, 999, d) the start
        # (1 - tau)^(n-1) of the points near tau = 1 is below
        # _SCALED_BELOW, so those run scaled and rescale.
        scaled = 0
        for n, m, d in _accepted_domain():
            cfg = ChannelConfig(n, m, d)
            lo = lower_bound_tau(n, d)
            step = (1.0 - lo) / _COARSE_POINTS
            taus = lo + np.arange(_COARSE_POINTS) * step
            fast = _delivery_prob_array(cfg, taus)
            slow = [delivery_prob(cfg, t) for t in taus.tolist()]
            first_max = max(range(_COARSE_POINTS), key=slow.__getitem__)
            assert int(np.argmax(fast)) == first_max, (n, m, d)
            tau, _ = grid_search_optimum(cfg)
            assert lo + (first_max - 1) * step <= tau, (n, m, d)
            assert tau <= lo + (first_max + 1) * step, (n, m, d)
            np.testing.assert_allclose(fast, slow, rtol=1e-14, atol=0.0,
                                       err_msg=str((n, m, d)))
            start = (1.0 - taus) ** (n - 1)
            scaled += int(np.count_nonzero(start <= _SCALED_BELOW))
        assert scaled > 0


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


def _bits(values) -> list[int]:
    """The float64 bit patterns, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _scalar_row(func, args, taus):
    """func(*args, tau) at each tau, with NaN and a False mark where it
    raises UnderflowError; None if it raises ZeroDivisionError anywhere."""
    values, computable = [], []
    for t in taus:
        try:
            values.append(func(*args, t))
            computable.append(True)
        except analytic.UnderflowError:
            values.append(math.nan)
            computable.append(False)
        except ZeroDivisionError:
            return None
    return values, computable


@st.composite
def _cells(draw):
    n = draw(st.integers(2, analytic.N_CAP))
    m = draw(st.integers(1, n - 1))
    d = draw(st.one_of(st.integers(1, 30), st.integers(1, 10**6)))
    return n, m, d


# Interior tau, and tau near 1 where (1 - tau)^(n-1) runs scaled or the
# admit probability underflows to zero.
_TAUS = st.lists(
    st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1e-16, 0.5).map(lambda e: 1.0 - e),
    ),
    min_size=1,
    max_size=12,
)


class TestArrayForms:
    """The array forms that `checks` evaluates a tau row with are the scalar
    closed forms bit for bit, and mark exactly where the scalar raises
    UnderflowError."""

    @settings(max_examples=60, deadline=None)
    @given(cell=_cells(), taus=_TAUS, i=st.floats(0.0, 1.0))
    @example(cell=(1000, 999, 10**6), taus=[0.3, 0.6, 0.9, 0.999], i=0.5)
    @example(cell=(200, 7, 1), taus=[0.97, 0.98, 0.995], i=1.0)
    @example(cell=(1000, 1, 5), taus=[1e-300, 0.5, 1.0 - 2**-53], i=0.0)
    def test_bit_identical_to_scalar(self, cell, taus, i):
        n, m, d = cell
        cfg = ChannelConfig(n, m, d)
        row = np.array(taus)
        closed = np.array([0.0, 1.0, *taus])
        k = round(i * n)

        head, weighted = analytic._head_sums_row(n - 1, m, row)
        pairs = [analytic._head_sums(n - 1, m, t) for t in taus]
        assert _bits(head) == _bits([h for h, _ in pairs])
        assert _bits(weighted) == _bits([w for _, w in pairs])
        # (array form, scalar function, leading arguments, taus, whether
        # the form marks the elements where the scalar underflows)
        for form, scalar, args, x, marks in (
            (analytic._window_prob_row, analytic._window_prob, None, row,
             False),
            (analytic._deadline_load_row, deadline_load, (cfg,), row, False),
            (analytic._delivery_prob_row, delivery_prob, (cfg,), closed,
             False),
            (analytic._delivery_prob_derivative_row,
             delivery_prob_derivative, (cfg,), row, False),
            (analytic._window_bound_row, window_bound, (d,), row, False),
            (analytic._binomial_pmf_row, binomial_pmf, (n, k), closed, False),
            (analytic._admitted_load_row, admitted_load, (cfg,), row, True),
            (analytic._iteration_map_row, iteration_map, (cfg,), row, True),
            (analytic._success_size_ratio_row, success_size_ratio, (cfg,),
             row, True),
        ):
            if args is None:
                # `_window_prob` takes the deadline after tau.
                want = _scalar_row(lambda t: scalar(t, d), (), x.tolist())
                got = lambda: form(x, d)
            else:
                want = _scalar_row(scalar, args, x.tolist())
                got = lambda: form(*args, x)
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    got()
                continue
            values, computable = got() if marks else (got(), None)
            assert _bits(values) == _bits(want[0]), form.__name__
            if marks:
                assert computable.tolist() == want[1], form.__name__
            else:
                assert all(want[1]), form.__name__

    def test_underflow_marks_raise_no_warning(self):
        # Tier-1 turns warnings into errors: the marked elements must be
        # skipped without a floating-point warning.
        cfg = ChannelConfig(500, 8, 5)
        row = np.array([0.5, 0.99, 0.999])
        for form in (analytic._admitted_load_row,
                     analytic._iteration_map_row,
                     analytic._success_size_ratio_row):
            _, computable = form(cfg, row)
            assert computable.tolist() == [True, False, False]

    def test_domain_errors_match_scalar(self):
        cfg = ChannelConfig(10, 3, 5)
        with pytest.raises(ValueError, match="strictly inside"):
            analytic._deadline_load_row(cfg, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            analytic._delivery_prob_row(cfg, np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="i must be in"):
            analytic._binomial_pmf_row(10, 11, np.array([0.5]))
