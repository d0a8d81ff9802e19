import argparse
import csv
import dataclasses
import pathlib
import re
import tracemalloc

import pytest

from mpraloha import analytic, checks, cli, scenario

SCENARIO = """\
[channel]
mpr = 5
deadline = 1

[estimator]
interval_len = 500
memory_factor = 0.7
probe_low = 2
probe_high = 5
n_max = 100

[stages]
1-4 = 20
5-8 = 40
"""


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["solve", "--n", "5", "--frequency", "2"]) == 1

    def test_missing_required_flag(self):
        assert cli.main(["solve", "--n", "20", "--m", "5"]) == 1

    def test_invalid_configuration(self, capsys):
        assert cli.main(["solve", "--n", "5", "--m", "5", "--d", "1"]) == 1
        assert "mpr" in capsys.readouterr().err

    def test_bad_list_syntax(self):
        assert cli.main(
            ["sweep", "--n", "6;9", "--m", "2", "--d", "1"]
        ) == 1

    @pytest.mark.parametrize("flag", [
        ["--tolerance", "1e-9"], ["--max-iter", "2"],
    ], ids=["tolerance", "max-iter"])
    def test_solver_bounds_are_not_flags(self, flag, capsys):
        assert cli.main(
            ["solve", "--n", "20", "--m", "5", "--d", "1"] + flag
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag[0]}" in captured.err


class TestSolve:
    def test_prints_report(self, capsys):
        assert cli.main(["solve", "--n", "20", "--m", "5", "--d", "1"]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
        assert float(values["tau_opt"]) == pytest.approx(
            0.186330175, abs=1e-8
        )
        assert values["converged"] == "yes"

    def test_single_packet_closed_form(self, capsys):
        assert cli.main(["solve", "--n", "10", "--m", "1", "--d", "1"]) == 0
        assert "tau_opt    = 0.1\n" in capsys.readouterr().out

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(analytic, "_MAX_ITER", 2)
        code = cli.main(["solve", "--n", "20", "--m", "5", "--d", "1"])
        assert code == 2
        assert "converged  = no" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "solve.csv"
        assert cli.main(
            ["solve", "--n", "20", "--m", "5", "--d", "1",
             "--out", str(path)]
        ) == 0
        rows = _rows(path)
        assert len(rows) == 1
        assert rows[0]["n_users"] == "20"
        assert rows[0]["converged"] == "true"


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        assert cli.main(
            ["sweep", "--n", "6:8", "--m", "2,8", "--d", "1,5"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # m=8 is infeasible for every n here, so 3 populations x 2 deadlines.
        assert len(lines) == 1 + 6
        assert lines[0] == (
            "n_users,mpr,deadline,tau_opt,sdp_max,iterations,residual,"
            "converged,grid_tau,grid_sdp,tau_abs_diff"
        )

    def test_grid_search_column_agrees(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert cli.main(
            ["sweep", "--n", "10,20", "--m", "5", "--d", "1",
             "--out", str(path)]
        ) == 0
        for row in _rows(path):
            diff = abs(float(row["tau_opt"]) - float(row["grid_tau"]))
            assert float(row["tau_abs_diff"]) == pytest.approx(diff)
            assert diff < 1e-6
            assert float(row["grid_sdp"]) == pytest.approx(
                float(row["sdp_max"]), abs=1e-9
            )

    def test_optimum_trends_across_grid(self, tmp_path):
        path = tmp_path / "trend.csv"
        assert cli.main(
            ["sweep", "--n", "10,20,40", "--m", "1,2,5", "--d", "5",
             "--out", str(path)]
        ) == 0
        rows = _rows(path)
        # More stations compete, so each station must send less often.
        for m in ("1", "2", "5"):
            taus = [float(r["tau_opt"]) for r in rows if r["mpr"] == m]
            assert taus == sorted(taus, reverse=True)
        # A stronger receiver always helps.
        for n in ("10", "20", "40"):
            sdps = [float(r["sdp_max"]) for r in rows if r["n_users"] == n]
            assert sdps == sorted(sdps)

    def test_all_combinations_infeasible(self, capsys):
        assert cli.main(
            ["sweep", "--n", "6", "--m", "8", "--d", "1"]
        ) == 1
        assert "no valid" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.csv"
        assert cli.main(
            ["sweep", "--n", "10", "--m", "2", "--d", "1",
             "--out", str(target)]
        ) == 3

    def test_invalid_cell_fails_before_solving(self, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(analytic, "solve_optimal_tau", solved.append)
        assert cli.main(
            ["sweep", "--n", "6,1001", "--m", "2", "--d", "1"]
        ) == 1
        assert solved == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_users must be in [2, 1000], got 1001" in captured.err

    def test_unconverged_row_exits_two(self, tmp_path, capsys,
                                        monkeypatch):
        solve = analytic.solve_optimal_tau

        def fake(config, **kwargs):
            report = solve(config, **kwargs)
            if config.n_users == 20:
                report = dataclasses.replace(report, converged=False)
            return report

        monkeypatch.setattr(analytic, "solve_optimal_tau", fake)
        path = tmp_path / "sweep.csv"
        assert cli.main(
            ["sweep", "--n", "10,20", "--m", "5", "--d", "1,5",
             "--out", str(path)]
        ) == 2
        assert [r["converged"] for r in _rows(path)] == [
            "true", "true", "false", "false"
        ]
        err = capsys.readouterr().err
        assert "2 of 4" in err
        assert "(20,5,1) (20,5,5)" in err
        assert "(10,5," not in err


class TestSimulate:
    def test_summary_and_csv(self, tmp_path, capsys):
        path = tmp_path / "reps.csv"
        code = cli.main(
            ["simulate", "--n", "10", "--m", "2", "--d", "5",
             "--tau", "0.2", "--slots", "20000", "--reps", "3",
             "--seed", "1", "--out", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "z_score" in out
        rows = _rows(path)
        # One row per station per replication, then the aggregate.
        assert len(rows) == 3 * 10 + 1
        stations = rows[:-1]
        assert sorted({r["seed"] for r in stations}) == ["1", "2", "3"]
        assert [r["user_id"] for r in stations[:10]] == [
            str(u) for u in range(10)
        ]
        assert all(r["z_score"] == "" for r in stations)
        total = rows[-1]
        assert (total["rep"], total["user_id"]) == ("all", "all")
        assert int(total["packets_completed"]) == sum(
            int(r["packets_completed"]) for r in stations
        )
        assert float(total["analytic"]) == pytest.approx(
            0.2932711, abs=1e-6
        )
        assert total["z_score"] != ""

    def test_replications_completing_nothing_give_nan(
        self, tmp_path, capsys
    ):
        # 20 slots at a deadline of 50 and tau 0.001: a replication can end
        # with no packet completed, so its delivery rate is NaN.
        path = tmp_path / "reps.csv"
        assert cli.main(
            ["simulate", "--n", "6", "--m", "2", "--d", "50",
             "--tau", "0.001", "--slots", "20", "--reps", "4",
             "--seed", "0", "--out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "empirical  = nan" in out
        assert "std_error  = nan" in out
        assert "z_score    = nan" in out
        total = _rows(path)[-1]
        assert [total[k] for k in ("sdp", "std_error", "z_score")] == [
            "nan", "nan", "nan"
        ]

    def test_optimal_tau_default(self, capsys):
        assert cli.main(
            ["simulate", "--n", "10", "--m", "2", "--d", "5",
             "--slots", "5000"]
        ) == 0
        out = capsys.readouterr().out
        assert "tau        = 0.135315" in out

    def test_bad_tau(self, capsys):
        assert cli.main(
            ["simulate", "--n", "10", "--m", "2", "--d", "5",
             "--tau", "lots"]
        ) == 1
        assert "--tau" in capsys.readouterr().err

    @pytest.mark.parametrize("n_users, to_file", [(1000, False), (200, True)],
                             ids=["stdout-only", "csv"])
    def test_memory_does_not_grow_with_reps(
        self, n_users, to_file, tmp_path, capsys
    ):
        # Station rows are written as each replication ends and never
        # kept, so ten times the replications must not raise the peak.
        args = ["simulate", "--n", str(n_users), "--m", "5", "--d", "5",
                "--slots", "1"]
        if to_file:
            args += ["--out", str(tmp_path / "reps.csv")]
        peaks = []
        for reps in ("5", "50"):
            tracemalloc.start()
            try:
                assert cli.main(args + ["--reps", reps]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 500_000, peaks

    def test_bad_slots_starts_no_csv(self, tmp_path):
        path = tmp_path / "reps.csv"
        assert cli.main(
            ["simulate", "--n", "10", "--m", "2", "--d", "5",
             "--slots", "0", "--out", str(path)]
        ) == 1
        assert not path.exists()

    def test_bad_reps(self):
        assert cli.main(
            ["simulate", "--n", "10", "--m", "2", "--d", "5",
             "--reps", "0"]
        ) == 1


class TestDynamic:
    @pytest.fixture()
    def scenario_path(self, tmp_path):
        path = tmp_path / "surge.cfg"
        path.write_text(SCENARIO)
        return path

    def test_writes_trace_and_stages(self, scenario_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main(
            ["dynamic", "--scenario", str(scenario_path),
             "--out", str(out_dir)]
        )
        assert code == 0
        trace = _rows(out_dir / "trace.csv")
        stages = _rows(out_dir / "stages.csv")
        assert len(trace) == 4 * 20 + 4 * 40
        assert len(stages) == 2
        assert stages[0]["active_users"] == "20"
        assert "stage 1:" in capsys.readouterr().out

    def test_repeat_runs_byte_identical(self, scenario_path, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.main(
                ["dynamic", "--scenario", str(scenario_path),
                 "--out", str(d), "--seed", "3"]
            ) == 0
        for name in ("trace.csv", "stages.csv"):
            assert (dirs[0] / name).read_bytes() == (
                dirs[1] / name
            ).read_bytes()

    def test_seed_override_changes_output(self, scenario_path, tmp_path):
        for seed, d in (("3", tmp_path / "a"), ("4", tmp_path / "b")):
            assert cli.main(
                ["dynamic", "--scenario", str(scenario_path),
                 "--out", str(d), "--seed", seed]
            ) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()

    def test_chunked_trace_is_byte_identical(
        self, scenario_path, tmp_path, monkeypatch
    ):
        args = ["dynamic", "--scenario", str(scenario_path), "--seed", "3"]
        assert cli.main(args + ["--out", str(tmp_path / "whole")]) == 0
        # 240 rows in chunks of 7: many chunks and a short last one.
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)
        assert cli.main(args + ["--out", str(tmp_path / "chunked")]) == 0
        assert (tmp_path / "whole" / "trace.csv").read_bytes() == (
            tmp_path / "chunked" / "trace.csv"
        ).read_bytes()

    def test_unusable_out_fails_before_the_run(
        self, scenario_path, tmp_path, monkeypatch
    ):
        runs = []
        monkeypatch.setattr(scenario, "run_dynamic", runs.append)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(
            ["dynamic", "--scenario", str(scenario_path),
             "--out", str(blocker / "out")]
        ) == 3
        assert runs == []

    def test_missing_scenario_is_io_error(self, tmp_path):
        assert cli.main(
            ["dynamic", "--scenario", str(tmp_path / "nope.cfg"),
             "--out", str(tmp_path)]
        ) == 3

    def test_malformed_scenario_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SCENARIO.replace("1-4 = 20", "1-4 = 200"))
        assert cli.main(
            ["dynamic", "--scenario", str(path), "--out", str(tmp_path)]
        ) == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err


class TestVerify:
    ARGS = ["verify", "--n", "2,5", "--m", "1,2", "--d", "1,2",
            "--sweep-n", "6:8", "--sweep-m", "2", "--sweep-d", "1,5"]

    def test_small_grid_passes(self, capsys):
        assert cli.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 12
        assert "FAIL" not in out
        assert "all 12 checks passed" in out

    def test_empty_grid_is_config_error(self, capsys):
        args = ["verify", "--n", "5", "--m", "9", "--sweep-n", "6",
                "--sweep-m", "9", "--sweep-d", "1"]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "no (n, m, d) cell" in captured.err

    def test_single_deadline_is_config_error(self, capsys):
        # sdp_monotone_deadline would compare nothing and pass at -inf.
        args = ["verify", "--n", "6", "--m", "2", "--d", "1",
                "--sweep-n", "6", "--sweep-m", "2", "--sweep-d", "1"]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "two distinct deadlines" in captured.err

    def test_large_population_skips_uncomputable_cells(self, capsys):
        # At n = 200 and tau >= 0.98 the admit probability and the
        # decoded-batch mass underflow to zero: four checks skip those
        # cells and say how many, instead of stopping the run.
        args = ["verify", "--n", "200", "--sweep-n", "6", "--sweep-m", "2",
                "--sweep-d", "1"]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:12]] == ["PASS"] * 12
        assert lines[12] == "all 12 checks passed"
        skipped = {
            line.split()[1].rstrip(":"): line.rsplit("; ", 1)[1]
            for line in lines if "skipped" in line
        }
        assert skipped == {
            "admitted_load_slope": "12 cells skipped as not computable",
            "moment_ratio_identity": "16 cells skipped as not computable",
            "iteration_map_slope": "36 cells skipped as not computable",
            "iteration_map_bracketing": "36 cells skipped as not computable",
        }

    def test_impossible_tolerance_fails_honestly(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "_IDENTITY_TOL", 1e-18)
        assert cli.main(self.ARGS) == 2
        captured = capsys.readouterr()
        assert "FAIL moment_ratio_identity" in captured.out
        assert "checks failed" in captured.err


class TestReadme:
    def test_command_line_section_names_every_flag(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        section = readme.read_text().split("## Command line", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        (subparsers,) = (
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        defined = {
            flag
            for sub in subparsers.choices.values()
            for action in sub._actions
            for flag in action.option_strings
        } - {"-h", "--help"}
        assert documented == defined
