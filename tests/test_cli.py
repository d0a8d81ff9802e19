import argparse
import csv
import dataclasses
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
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
        for n in ("6;9", "50:6,60"):
            assert cli.main(
                ["sweep", "--n", n, "--m", "2", "--d", "1"]
            ) == 1

    def test_reversed_range_is_named(self, capsys):
        # The error names the reversed part.
        assert cli.main(["sweep", "--n", "50:6", "--m", "2", "--d", "1"]) == 1
        assert "'50:6'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "5", "--m", "1", "--d", "D"],
        ["solve", "--n", "5", "--m", "3", "--d", "D"],
        ["sweep", "--n", "5", "--m", "2", "--d", "D"],
        ["simulate", "--n", "5", "--m", "2", "--d", "D", "--tau", "0.1",
         "--slots", "100"],
        ["verify", "--d", "1,D"],
        ["dynamic", "--scenario", "SCENARIO"],
    ], ids=["solve-m1", "solve-m3", "sweep", "simulate", "verify",
            "dynamic"])
    def test_deadline_past_float_range_exits_one(self, argv, tmp_path,
                                                 capsys):
        # 10^309 has no float: the run ends in one error line, not a
        # traceback, and `dynamic` removes the --out directories it made.
        huge = str(10**309)
        path = tmp_path / "huge.cfg"
        path.write_text(
            SCENARIO.replace("deadline = 1", f"deadline = {huge}")
        )
        argv = [a.replace("D", huge) for a in argv]
        if argv[0] == "dynamic":
            argv[2] = str(path)
            argv += ["--out", str(tmp_path / "new" / "out")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "new").exists()

    def test_deadline_past_float_range_is_rejected_up_front(self):
        # The message names the field and the limit, and counts the digits
        # of the 310-digit value instead of echoing it.
        src = pathlib.Path(__file__).parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mpraloha.cli", "solve", "--n", "5",
             "--m", "1", "--d", str(10**309)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: deadline must be at most int(sys.float_info.max), "
            "about 1.798e+308, got a 310-digit number\n"
        )

    @pytest.mark.parametrize("argv, cell", [
        (["sweep", "--n", "5", "--m", "1", "--d", "D"], "sweep cell n=5 m=1"),
        (["verify", "--d", "1,D"], "check grid n=2"),
    ], ids=["sweep", "verify"])
    def test_cell_prefix_counts_the_digits(self, argv, cell, capsys):
        # The cell that names the error counts the deadline's digits too,
        # instead of echoing 310 of them.
        huge = str(10**309)
        assert cli.main([a.replace("D", huge) for a in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {cell} d=a 310-digit number: deadline must be at most "
            "int(sys.float_info.max), about 1.798e+308, got a 310-digit "
            "number\n"
        )


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

    def test_row_lines_up_with_the_header(self):
        # The row lists the fields by hand; the header reads them from the
        # dataclasses.
        config = analytic.ChannelConfig(20, 5, 7)
        for converged in (True, False):
            report = analytic.SolveReport(0.25, 0.5, 9, 1e-13, converged)
            fields = {**dataclasses.asdict(config),
                      **dataclasses.asdict(report),
                      "converged": str(converged).lower()}
            row = cli._solve_row(config, report)
            assert dict(zip(cli._SOLVE_HEADER, row, strict=True)) == fields

    def test_gap_outside_the_open_interval_exits_one(self, capsys):
        # At D = 10^16 the bracket reaches tau = 1.0, where the gap
        # raises the open-interval error (the cancellation near 1 is an
        # open fault; this pins how it surfaces).
        argv = ["solve", "--n", "50", "--m", "49", "--d", str(10**16)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: value must be strictly inside (0, 1), got 1.0\n")


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

    def test_rows_are_written_between_grid_searches(self, monkeypatch,
                                                    capsys):
        # Two cells per call: each call's rows are out before the next
        # cells are searched, so a sweep never holds all its rows.
        monkeypatch.setattr(cli, "_SWEEP_CHUNK", 2)
        search = analytic.grid_search_optimum
        lines = []

        def spy(configs):
            lines.append(capsys.readouterr().out.count("\n"))
            return search(configs)

        monkeypatch.setattr(analytic, "grid_search_optimum", spy)
        assert cli.main(["sweep", "--n", "6:8", "--m", "2", "--d", "1,5"]) == 0
        lines.append(capsys.readouterr().out.count("\n"))
        # The header, then two rows after each of the three calls.
        assert lines == [1, 2, 2, 2]

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
        assert captured.err == (
            "error: sweep cell n=1001 m=2 d=1: "
            "n_users must be in [2, 1000], got 1001\n"
        )

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

    def test_deadline_past_int64(self, capsys):
        assert cli.main(
            ["simulate", "--n", "5", "--m", "2", "--d", str(10**19),
             "--tau", "0.1", "--slots", "100"]
        ) == 0
        assert "empirical" in capsys.readouterr().out

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
        for flag in (["--slots", "0"], ["--seed", "-1"]):
            assert cli.main(
                ["simulate", "--n", "10", "--m", "2", "--d", "5",
                 *flag, "--out", str(path)]
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

    def test_negative_seed_creates_no_output(
        self, scenario_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        assert cli.main(
            ["dynamic", "--scenario", str(scenario_path),
             "--out", str(out_dir), "--seed", "-1"]
        ) == 1
        assert not out_dir.exists()
        assert "seed" in capsys.readouterr().err

    def test_trace_holds_every_row_the_run_hands_on(self, tmp_path):
        # 100 stations over 45 intervals: 4,500 rows, each interval's
        # written as it ends, in the order and with the values the run's
        # sink receives.
        path = tmp_path / "long.cfg"
        path.write_text(
            SCENARIO.replace("interval_len = 500", "interval_len = 20")
            .replace("n_max = 100", "n_max = 200")
            .replace("1-4 = 20\n5-8 = 40", "1-45 = 100")
        )
        assert cli.main(
            ["dynamic", "--scenario", str(path), "--seed", "3",
             "--out", str(tmp_path / "out")]
        ) == 0
        received = []
        scenario.run_dynamic(
            dataclasses.replace(scenario.load_scenario(path), seed=3),
            received.append,
        )
        trace = _rows(tmp_path / "out" / "trace.csv")
        assert len(trace) == sum(map(len, received)) == 4500
        for name in cli._TRACE_COLUMNS:
            column = np.concatenate([getattr(rows, name) for rows in received])
            np.testing.assert_array_equal(
                np.array([row[name] for row in trace], dtype=column.dtype),
                column,
            )

    def test_failed_run_leaves_no_partial_trace(
        self, scenario_path, tmp_path, monkeypatch, capsys
    ):
        # The run fails after its first interval's rows were written.
        run_dynamic = scenario.run_dynamic

        def fail_after_one_interval(timeline, sink):
            def first_then_fail(rows):
                sink(rows)
                raise MemoryError("interval 2")
            return run_dynamic(timeline, first_then_fail)

        monkeypatch.setattr(scenario, "run_dynamic", fail_after_one_interval)
        out_dir = tmp_path / "new" / "out"
        assert cli.main(
            ["dynamic", "--scenario", str(scenario_path),
             "--out", str(out_dir)]
        ) == 1
        assert capsys.readouterr().err == "error: out of memory: interval 2\n"
        # The partial trace and the directories made for --out are gone.
        assert not (tmp_path / "new").exists()

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

    def test_peak_memory_does_not_grow_with_the_run(self, tmp_path):
        # The shipped scale check cut to 60 and to 180 intervals of 1000
        # stations. The trace is written as the run goes, so the longer run
        # peaks within 5 % of the shorter one; a trace held whole would add
        # about 100 bytes a row, 12 MB here.
        root = pathlib.Path(__file__).parents[1]
        scale = (root / "scenarios" / "scale.cfg").read_text()
        code = (
            "import resource, sys\n"
            "from mpraloha import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )

        def peak(intervals):
            path = tmp_path / f"scale{intervals}.cfg"
            path.write_text(
                scale.replace("1-500 = 1000", f"1-{intervals} = 1000")
            )
            proc = subprocess.run(
                [sys.executable, "-c", code, "dynamic", "--scenario",
                 str(path), "--out", str(tmp_path / str(intervals))],
                env=dict(os.environ, PYTHONPATH=str(root / "src")),
                capture_output=True, text=True, timeout=120, check=True,
            )
            return int(proc.stdout.splitlines()[-1])

        short = peak(60)
        assert peak(180) <= 1.05 * short

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

    @pytest.mark.parametrize("override, message", [
        (["--sweep-n", "2000"], "n_users must be in"),
        (["--n", "1,5"], "n_users must be in"),
        (["--m", "0,2"], "mpr must satisfy 1 <= mpr"),
    ], ids=["sweep-n-2000", "n-1", "m-0"])
    def test_out_of_domain_grid_runs_no_check(
        self, override, message, capsys, monkeypatch
    ):
        def run_all(grid):
            raise AssertionError("run_all called on an out-of-domain grid")

        monkeypatch.setattr(checks, "run_all", run_all)
        assert cli.main(["verify", *override]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_domain_error_names_its_grid(self, capsys):
        errors = {}
        for flag, grid in (("--n", "check grid n=2000 d=1: "),
                           ("--sweep-n", "sweep grid cell n=2000 m=2 d=1: ")):
            assert cli.main(["verify", flag, "2000"]) == 1
            errors[flag] = capsys.readouterr().err
            assert grid in errors[flag]
        assert errors["--n"] != errors["--sweep-n"]

    def test_large_populations_pass(self, capsys):
        # Near tau = 1 the admit probability and the decoded-batch mass of
        # these populations underflow to zero; every check still evaluates
        # every cell there and passes.
        for n in ("200", "500", "1000"):
            assert cli.main(["verify", "--n", n]) == 0, n
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[0] for line in lines[:12]] == ["PASS"] * 12
            assert lines[12:] == ["all 12 checks passed"]
            assert not any("skipped" in line for line in lines), n

    def test_impossible_tolerance_fails_honestly(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "_IDENTITY_TOL", 1e-18)
        assert cli.main(self.ARGS) == 2
        captured = capsys.readouterr()
        assert "FAIL moment_ratio_identity" in captured.out
        assert "checks failed" in captured.err


# ROADMAP item 1: past D = 2^53, N + D - 1 is no longer exact and
# deadline_load cancels. Each test asserts the right answer; item 1's fix
# turns them into passes, and strict=True makes it remove the marks.
_ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: deadline_load cancels at D = 10^16",
)


class TestLongDeadlines:
    @_ITEM_1
    def test_solve_converges(self):
        report = analytic.solve_optimal_tau(
            analytic.ChannelConfig(50, 49, 10**16))
        assert report.converged

    @_ITEM_1
    def test_sweep_row_reaches_the_grid_optimum(self, capsys):
        assert cli.main(
            ["sweep", "--n", "50", "--m", "20", "--d", str(10**16)]) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert row["converged"] == "true"
        assert float(row["sdp_max"]) >= float(row["grid_sdp"]) - 1e-9

    @_ITEM_1
    def test_verify_passes(self):
        assert cli.main(
            ["verify", "--n", "50", "--m", "20", "--d", f"1,{10**16}",
             "--sweep-n", "50", "--sweep-m", "20", "--sweep-d", "1"]) == 0


def _readme_section(title):
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split(f"## {title}", 1)[1]
    return section.split("\n## ", 1)[0]


class TestReadme:
    def test_command_line_section_names_every_flag(self):
        section = _readme_section("Command line")
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

    def test_command_line_section_lists_every_csv_column(self):
        # The solve and trace headers come from dataclass fields, so a
        # field reorder would reorder a CSV; the README pins the order.
        bullets = {
            bullet.split("`", 1)[0]: bullet
            for bullet in _readme_section("Command line").split("\n- `")[1:]
        }

        def columns(command):
            return [
                listed.split(",") for listed in
                re.findall(r"`([a-z_]+(?:,[a-z_]+)+)`", bullets[command])
            ]

        assert columns("sweep") == [cli._SWEEP_HEADER]
        assert columns("simulate") == [cli._SIMULATE_HEADER]
        assert columns("dynamic") == [cli._TRACE_COLUMNS, cli._STAGES_HEADER]
        assert len(cli._STAGES_HEADER) == len(
            dataclasses.fields(scenario.StageStats)
        )

    def test_scenario_section_names_every_key(self):
        section = _readme_section("Scenario files")
        sections = set(re.findall(r"^\[([a-z_]+)\]", section, re.M))
        keys = set(re.findall(r"^([a-z_]+) *=", section, re.M))
        assert sections == set(scenario._SECTION_KEYS)
        assert keys == set().union(*filter(None,
                                           scenario._SECTION_KEYS.values()))
