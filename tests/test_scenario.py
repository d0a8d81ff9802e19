import dataclasses

import numpy as np
import pytest

from mpraloha.estimator import EstimatorConfig
from mpraloha.scenario import (
    ScenarioError,
    ScenarioTimeline,
    Stage,
    parse_scenario,
    load_scenario,
    run_dynamic,
    stage_statistics,
)

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

    def test_missing_stages(self):
        text = GOOD.split("[stages]")[0]
        with pytest.raises(ScenarioError, match="stages"):
            parse_scenario(text)

    def test_estimator_constraint_surfaces_with_source(self):
        text = GOOD.replace("probe_high = 5", "probe_high = 9")
        with pytest.raises(ScenarioError, match="decodable"):
            parse_scenario(text, source="bad.cfg")

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
def result():
    return run_dynamic(parse_scenario(GOOD))


def _same_columns(a, b):
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


class TestRunDynamic:
    def test_trace_covers_every_station_interval(self, result):
        trace = result.trace
        assert len(trace) == 3 * 20 + 5 * 40 + 2 * 20
        per_interval = {}
        for interval, user_id in zip(trace.interval, trace.user_id):
            per_interval.setdefault(int(interval), []).append(int(user_id))
        assert sorted(per_interval) == list(range(1, 11))
        for interval, ids in per_interval.items():
            expected = 40 if 4 <= interval <= 8 else 20
            assert sorted(ids) == list(range(expected))

    def test_everyone_starts_from_worst_case(self, result):
        trace = result.trace
        first = trace.interval == 1
        assert set(trace.n_est[first].tolist()) == {100}
        # A joiner mid-run starts from the worst case too.
        joiners = (trace.interval == 4) & (trace.user_id >= 20)
        assert set(trace.n_est[joiners].tolist()) == {100}

    def test_survivors_keep_their_state_across_shrink(self, result):
        trace = result.trace
        last_big = (trace.interval == 8) & (trace.user_id < 20)
        after = trace.interval == 9
        # Estimates evolve by one end_interval step between the reads, but
        # survivors do not reset to the worst case.
        assert all(v < 100 for v in trace.n_est[after])
        assert set(trace.user_id[after]) == set(trace.user_id[last_big])

    def test_deterministic_and_seed_sensitive(self, result):
        again = run_dynamic(parse_scenario(GOOD))
        assert _same_columns(again.trace, result.trace)
        assert again.stages == result.stages
        other = run_dynamic(
            dataclasses.replace(parse_scenario(GOOD), seed=8)
        )
        assert not _same_columns(other.trace, result.trace)

    def test_stage_stats_match_trace(self, result):
        tl = parse_scenario(GOOD)
        stats = stage_statistics(tl, result.trace)
        assert stats == result.stages
        s2 = stats[1]
        trace = result.trace
        rows = trace.sdp[
            (4 <= trace.interval)
            & (trace.interval <= 8)
            & (trace.packets_completed > 0)
        ].tolist()
        assert s2.samples == len(rows) == 200
        assert s2.sdp_mean == pytest.approx(sum(rows) / len(rows))
        assert s2.active_users == 40

    def test_stage_stats_reject_a_trace_of_other_stages(self, result):
        tl = dataclasses.replace(
            parse_scenario(GOOD), stages=(Stage(1, 10, 20),)
        )
        with pytest.raises(ValueError, match="rows"):
            stage_statistics(tl, result.trace)

    def test_theory_column_uses_true_population(self, result):
        from mpraloha.analytic import ChannelConfig, solve_optimal_tau

        want = solve_optimal_tau(ChannelConfig(40, 5, 1)).sdp_max
        assert result.stages[1].sdp_theory == want
