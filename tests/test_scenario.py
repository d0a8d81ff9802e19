import dataclasses
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpraloha import scenario
from mpraloha.estimator import EstimatorConfig, PopulationEstimator
from mpraloha.scenario import (
    ScenarioError,
    ScenarioTimeline,
    Stage,
    parse_scenario,
    load_scenario,
    run_dynamic,
    stage_statistics,
)
from mpraloha.simulate import delivery_rate

GOOD = """\
# comment line
[channel]
mpr = 5
deadline = 1

[estimator]
interval_len = 400
memory_factor = 0.7
probe_low = 2
probe_high = 5
n_max = 100

[run]
seed = 7

[stages]
1-3 = 20      # inline comment
4-8 = 40
9-10 = 20
"""


def _estimator(**overrides):
    base = dict(
        interval_len=400,
        memory_factor=0.7,
        probe_low=2,
        probe_high=5,
        n_max=100,
        mpr=5,
        deadline=1,
    )
    base.update(overrides)
    return EstimatorConfig(**base)


class TestParser:
    def test_round_trip(self):
        tl = parse_scenario(GOOD)
        assert tl.seed == 7
        assert tl.stages == (
            Stage(1, 3, 20), Stage(4, 8, 40), Stage(9, 10, 20),
        )
        assert tl.estimator.interval_len == 400
        assert tl.estimator.memory_factor == 0.7
        assert tl.estimator.mpr == 5

    def test_seed_defaults_to_zero(self):
        text = GOOD.replace("[run]\nseed = 7\n", "")
        assert parse_scenario(text).seed == 0

    @pytest.mark.parametrize(
        "needle,replacement,line_fragment",
        [
            ("[channel]", "[nonsense]", ":2:"),
            ("mpr = 5", "mpr = 5\nvolume = 11", ":4:"),
            ("mpr = 5", "mpr = five", ":3:"),
            ("1-3 = 20", "three = 20", ":17:"),
            ("1-3 = 20", "1-3 = many", ":17:"),
            ("4-8 = 40", "5-8 = 40", ":18:"),
            ("4-8 = 40", "4-2 = 40", ":18:"),
            ("4-8 = 40", "4-8 = 3", ":18:"),
            ("4-8 = 40", "4-8 = 101", ":18:"),
            ("deadline = 1", "deadline = 1\ndeadline = 2", ":5:"),
            # The first error in file order: a bad value before an unknown
            # key.
            ("mpr = 5\ndeadline = 1", "mpr = five\ndeadline = 1\nvolume = 11",
             ":3:"),
        ],
    )
    def test_malformed_line_is_named(self, needle, replacement, line_fragment):
        text = GOOD.replace(needle, replacement)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, source="surge.cfg")
        assert "surge.cfg" in str(err.value)
        assert line_fragment in str(err.value)

    def test_content_before_section(self):
        with pytest.raises(ScenarioError, match="before any"):
            parse_scenario("mpr = 5\n")

    def test_missing_required_key(self):
        text = GOOD.replace("interval_len = 400\n", "")
        with pytest.raises(ScenarioError, match="interval_len"):
            parse_scenario(text)

    def test_missing_keys_reported_estimator_first(self):
        text = GOOD.replace("mpr = 5\n", "").replace("n_max = 100\n", "")
        with pytest.raises(ScenarioError,
                           match=r"'n_max' in \[estimator\]"):
            parse_scenario(text)

    def test_missing_stages(self):
        text = GOOD.split("[stages]")[0]
        with pytest.raises(ScenarioError, match="stages"):
            parse_scenario(text)

    def test_estimator_constraint_surfaces_with_source(self):
        text = GOOD.replace("probe_high = 5", "probe_high = 9")
        with pytest.raises(ScenarioError, match="decodable"):
            parse_scenario(text, source="bad.cfg")

    def test_deadline_past_float_range_names_source(self):
        text = GOOD.replace("deadline = 1", f"deadline = {10**309}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, source="big.cfg")
        assert str(err.value).startswith("big.cfg: deadline must be at most")
        assert str(err.value).endswith("got a 310-digit number")

    @pytest.mark.parametrize(
        "needle,replacement,line_fragment",
        [
            ("1-3 = 20", "1-{} = 20", ":17:"),
            ("1-3 = 20", "1-3 = {}", ":17:"),
            ("mpr = 5", "mpr = {}", ":3:"),
        ],
        ids=["stage_bound", "stage_population", "mpr"],
    )
    def test_oversized_int_is_named_by_its_digits(
        self, needle, replacement, line_fragment
    ):
        # 5000 digits are more than int() converts by default.
        text = GOOD.replace(needle, replacement.format("9" * 5000))
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, source="big.cfg")
        message = str(err.value)
        assert message.startswith("big.cfg" + line_fragment)
        assert "a 5000-digit number" in message
        assert len(message) < 200

    def test_negative_seed_rejected(self):
        text = GOOD.replace("seed = 7", "seed = -3")
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(text)

    def test_load_scenario_reads_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(GOOD)
        assert load_scenario(path) == parse_scenario(GOOD, source=str(path))

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.cfg")


class TestTimelineValidation:
    def test_programmatic_gap_rejected(self):
        with pytest.raises(ValueError, match="contiguously"):
            ScenarioTimeline(
                stages=(Stage(1, 5, 20), Stage(7, 9, 20)),
                estimator=_estimator(),
            )

    def test_must_start_at_interval_one(self):
        with pytest.raises(ValueError, match="starting at 1"):
            ScenarioTimeline(
                stages=(Stage(2, 5, 20),), estimator=_estimator()
            )

    def test_population_bounds(self):
        with pytest.raises(ValueError, match="active_users"):
            ScenarioTimeline(
                stages=(Stage(1, 5, 4),), estimator=_estimator()
            )

    def test_empty_scenario(self):
        with pytest.raises(ValueError, match="at least one stage"):
            ScenarioTimeline(stages=(), estimator=_estimator())


@pytest.fixture(scope="module")
def run():
    """The run of GOOD: the rows its sink collected, joined into one
    `Trace`, and its result."""
    return _collect(parse_scenario(GOOD))


def _collect(timeline):
    received = []
    result = run_dynamic(timeline, received.append)
    trace = scenario.Trace(*(
        np.concatenate([getattr(rows, f.name) for rows in received])
        for f in dataclasses.fields(scenario.Trace)
    ))
    return trace, result


def _same_columns(a, b):
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


class TestRunDynamic:
    def test_trace_covers_every_station_interval(self, run):
        trace, result = run
        assert len(trace) == 3 * 20 + 5 * 40 + 2 * 20
        assert result.trace == range(len(trace))
        per_interval = {}
        for interval, user_id in zip(trace.interval, trace.user_id):
            per_interval.setdefault(int(interval), []).append(int(user_id))
        assert sorted(per_interval) == list(range(1, 11))
        for interval, ids in per_interval.items():
            expected = 40 if 4 <= interval <= 8 else 20
            assert sorted(ids) == list(range(expected))

    def test_everyone_starts_from_worst_case(self, run):
        trace, _ = run
        first = trace.interval == 1
        assert set(trace.n_est[first].tolist()) == {100}
        # A joiner mid-run starts from the worst case too.
        joiners = (trace.interval == 4) & (trace.user_id >= 20)
        assert set(trace.n_est[joiners].tolist()) == {100}

    def test_survivors_keep_their_state_across_shrink(self, run):
        trace, _ = run
        last_big = (trace.interval == 8) & (trace.user_id < 20)
        after = trace.interval == 9
        # Estimates evolve by one end_interval step between the reads, but
        # survivors do not reset to the worst case.
        assert all(v < 100 for v in trace.n_est[after])
        assert set(trace.user_id[after]) == set(trace.user_id[last_big])

    def test_deterministic_and_seed_sensitive(self, run):
        trace, result = run
        again_trace, again = _collect(parse_scenario(GOOD))
        assert _same_columns(again_trace, trace)
        assert again.stages == result.stages
        other_trace, _ = _collect(
            dataclasses.replace(parse_scenario(GOOD), seed=8)
        )
        assert not _same_columns(other_trace, trace)

    def test_stage_stats_match_trace(self, run):
        trace, result = run
        tl = parse_scenario(GOOD)
        # Each stage's rows pooled, as run_dynamic counts them.
        in_stages = (
            (s.first <= trace.interval) & (trace.interval <= s.last)
            for s in tl.stages
        )
        rates = [
            Counter(trace.sdp[rows & (trace.packets_completed > 0)].tolist())
            for rows in in_stages
        ]
        stats = stage_statistics(tl, rates)
        assert stats == result.stages
        s2 = stats[1]
        rows = trace.sdp[
            (4 <= trace.interval)
            & (trace.interval <= 8)
            & (trace.packets_completed > 0)
        ].tolist()
        assert s2.samples == len(rows) == 200
        assert s2.sdp_mean == pytest.approx(sum(rows) / len(rows))
        assert s2.active_users == 40

    @pytest.mark.parametrize("stages", [2, 4])
    def test_stage_stats_need_one_count_per_stage(self, stages):
        with pytest.raises(ValueError):
            stage_statistics(parse_scenario(GOOD), [Counter()] * stages)

    def test_theory_column_uses_true_population(self, run):
        from mpraloha.analytic import ChannelConfig, solve_optimal_tau

        want = solve_optimal_tau(ChannelConfig(40, 5, 1)).sdp_max
        assert run[1].stages[1].sdp_theory == want

    def test_no_estimate_after_the_last_interval(self, monkeypatch):
        # The estimates after the last interval would reach no row.
        calls = []
        end_interval = PopulationEstimator.end_interval

        def counted(self):
            calls.append(len(self.n_est))
            return end_interval(self)

        monkeypatch.setattr(PopulationEstimator, "end_interval", counted)
        run_dynamic(parse_scenario(GOOD), lambda rows: None)
        assert calls == [20] * 3 + [40] * 5 + [20]

    def test_sink_gets_each_interval_in_order(self):
        received = []
        run_dynamic(parse_scenario(GOOD), received.append)
        assert [set(rows.interval.tolist()) for rows in received] == [
            {k} for k in range(1, 11)
        ]
        assert all(
            np.array_equal(rows.user_id, np.arange(len(rows)))
            for rows in received
        )


# (succeeded, completed) of a row: small counts as they occur, so rates
# repeat and 0.0 and 1.0 occur, an arbitrary float rate in [0, 1] over one
# completed packet, and rows that completed nothing, which are no sample.
_rows = st.one_of(
    st.integers(0, 60).flatmap(
        lambda c: st.tuples(st.integers(0, c), st.just(c))
    ),
    st.tuples(st.floats(0.0, 1.0), st.just(1)),
)


@given(
    intervals=st.lists(
        st.lists(_rows, min_size=1, max_size=30).map(lambda v: v * 2)
        | st.lists(_rows, max_size=30),
        min_size=1, max_size=6,
    )
)
@example(intervals=[[(3, 10)]])
@example(intervals=[[(0, 4), (0, 7), (0, 1)]])
@example(intervals=[[(2, 2)], [(5, 5), (1, 1)]])
@example(intervals=[[(1, 10)] * 7 + [(0, 0)], [(7, 10), (1, 10)]])
@example(intervals=[[(5e-324, 1), (1, 1), (0, 3)]])
@settings(max_examples=300, deadline=None)
def test_stage_samples_match_statistics(intervals):
    # The per-stage counts, kept interval by interval, rebuild
    # statistics.fmean and pvariance(samples, mu=mean) bit for bit.
    rates = Counter()
    for rows in intervals:
        succeeded, completed = (np.array(column, dtype=float)
                                for column in zip(*rows or [(0, 0)]))
        rates.update(
            delivery_rate(succeeded, completed)[completed > 0].tolist()
        )
    flat = [s / c for rows in intervals for s, c in rows if c > 0]
    mean, variance = scenario._mean_variance(rates)
    assert rates.total() == len(flat)
    if not flat:
        assert np.isnan(mean) and np.isnan(variance)
        return
    want = statistics.fmean(flat)
    assert mean.hex() == want.hex()
    assert variance.hex() == statistics.pvariance(flat, mu=want).hex()
