"""Acceptance gate for the whole package.

Each test prints one `[criterion N] ... PASS/FAIL` line (visible with
`pytest -s`) and then asserts, so a red run still shows the measured
numbers for every criterion that executed.
"""

import contextlib
import hashlib
import io
import math
from pathlib import Path
from statistics import fmean, median, stdev

import pytest

from mpraloha import cli
from mpraloha.analytic import (
    ChannelConfig,
    lower_bound_tau,
    solve_optimal_tau,
)
from mpraloha.checks import VerifyGrid
from mpraloha.estimator import EstimatorConfig, PopulationEstimator
from mpraloha.scenario import load_scenario, run_dynamic
from mpraloha.simulate import delivery_rate, run_stationary

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

TABLE_CONFIGS = (
    (20, 5, 1, 0.1357),
    (40, 5, 1, 0.0656),
    (20, 5, 20, 0.8595),
    (40, 5, 20, 0.6628),
)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def test_criterion_1_solver_matches_grid_search(verify_results):
    # The shared property-check run already compares the solver with the
    # grid search (|tau diff| <= 1e-6, |sdp diff| <= 1e-9); this pins the
    # cells it covers to the criterion's grid.
    cells = [
        (n, m, d)
        for n in range(6, 51)
        for m in (2, 5, 8)
        if m < n
        for d in (1, 5, 10, 20)
    ]
    assert list(VerifyGrid().sweep_cells()) == cells
    result = verify_results["solver_vs_grid_search"]
    _report(
        1,
        "solver matches grid search",
        result.passed,
        f"{len(cells)} cells, {result.detail}",
    )


def test_criterion_2_single_packet_closed_form():
    worst = 0.0
    for n in range(2, 101):
        for d in range(1, 51):
            closed = 1.0 - ((n - 1) / (n - 1 + d)) ** (1.0 / d)
            report = solve_optimal_tau(ChannelConfig(n, 1, d))
            worst = max(
                worst,
                abs(report.tau_opt - closed),
                abs(lower_bound_tau(n, d) - closed),
            )
    _report(
        2,
        "single-packet receiver closed form",
        worst <= 1e-10,
        f"4950 cells, max |tau - closed form| {worst:.3e} <= 1e-10",
    )


def test_criterion_3_reference_table_values():
    worst = 0.0
    for n, m, d, expected in TABLE_CONFIGS:
        got = solve_optimal_tau(ChannelConfig(n, m, d)).sdp_max
        worst = max(worst, abs(got - expected))
    _report(
        3,
        "reference delivery probabilities",
        worst <= 1e-4,
        f"max |sdp - table| {worst:.2e} <= 1e-04 over {len(TABLE_CONFIGS)} "
        f"configurations",
    )


def test_criterion_4_monte_carlo_agreement():
    reps = 10
    slots = 1_000_000
    details = []
    ok = True
    for idx, (n, m, d, _) in enumerate(TABLE_CONFIGS):
        cfg = ChannelConfig(n, m, d)
        report = solve_optimal_tau(cfg)
        tau = report.tau_opt
        sdps = []
        for rep in range(reps):
            outcome = run_stationary(cfg, tau, slots, seed=1000 * idx + rep)
            sdps.append(
                delivery_rate(
                    outcome.succeeded.sum(), outcome.completed.sum()
                ).item()
            )
        mean = fmean(sdps)
        se = stdev(sdps) / math.sqrt(reps)
        diff = abs(mean - report.sdp_max)
        this_ok = diff <= 3 * se and diff <= 0.005
        ok = ok and this_ok
        details.append(
            f"n={n} d={d}: |diff| {diff:.2e} vs 3se {3 * se:.2e}"
        )
    _report(
        4,
        "Monte Carlo matches analytic delivery probability",
        ok,
        "; ".join(details),
    )


def test_criterion_5_property_checks(verify_results):
    failed = [r.name for r in verify_results.values() if not r.passed]
    _report(
        5,
        "analytic property suite",
        not failed,
        f"{len(verify_results)} checks on the default grid"
        + (f", failed: {failed}" if failed else ", all pass"),
    )


def test_criterion_6_estimator_exact_recovery():
    cfg = EstimatorConfig(
        interval_len=50_000,
        memory_factor=0.0,
        probe_low=2,
        probe_high=5,
        n_max=100,
        mpr=5,
        deadline=1,
    )
    bad = []
    for n_true in range(cfg.mpr + 2, cfg.n_max + 1):
        est = PopulationEstimator(cfg)
        est.add_counts(
            {c: math.comb(n_true - 1, c) for c in cfg.probes}
        )
        if est.end_interval() != n_true:
            bad.append(n_true)
    high = PopulationEstimator(cfg)
    high.add_counts({1: 1, 2: 10**9, 4: 10**9, 5: 1})
    clamp_small = high.end_interval()
    low = PopulationEstimator(cfg)
    low.add_counts({1: 10**9, 2: 1, 4: 1, 5: 10**9})
    clamp_large = low.end_interval()
    ok = not bad and clamp_small == 6 and clamp_large == 100
    _report(
        6,
        "population estimator inversion",
        ok,
        f"exact for N in 7..100 (misses: {bad or 'none'}), clamps -> "
        f"{clamp_small}/{clamp_large}",
    )


@pytest.mark.parametrize(
    "name", ["surge_d1.cfg", "surge_d20.cfg"], ids=["d1", "d20"]
)
def test_criterion_7_dynamic_adaptation(name):
    timeline = load_scenario(SCENARIO_DIR / name)
    result = run_dynamic(timeline)
    details = []
    ok = True
    for s in result.stages:
        rel = abs(s.sdp_mean - s.sdp_theory) / s.sdp_theory
        this_ok = rel <= 0.05 and s.sdp_variance <= 0.01
        ok = ok and this_ok
        details.append(
            f"stage {s.number} ({s.active_users}u): mean {s.sdp_mean:.4f} "
            f"theory {s.sdp_theory:.4f} rel {rel:.3f} var "
            f"{s.sdp_variance:.1e}"
        )
    # After the surge recedes the estimators must settle back on the true
    # population: median estimate across the last 50 intervals.
    final_stage = result.stages[-1]
    trace = result.trace
    recovered = median(
        trace.n_est[trace.interval > final_stage.last - 50].tolist()
    )
    ok = ok and recovered == final_stage.active_users
    details.append(f"recovered median estimate {recovered}")
    _report(
        7,
        f"dynamic adaptation {name}",
        ok,
        "; ".join(details) + " (limits: rel 0.05, var 0.01)",
    )


DYNAMIC_SHA256 = {
    "trace.csv":
        "fba2eb437431a6513c43719c8868987111e3ea4ae00051e3bd03b5870bf7e54f",
    "stages.csv":
        "94c8f3b1664af93b88559a6679e12f0d5a76e9b1f44c987b832e8637c28d77f6",
}


def test_criterion_8_byte_identical_reruns(tmp_path):
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(
        "[channel]\nmpr = 5\ndeadline = 1\n"
        "[estimator]\ninterval_len = 500\nmemory_factor = 0.7\n"
        "probe_low = 2\nprobe_high = 5\nn_max = 100\n"
        "[stages]\n1-3 = 20\n4-6 = 40\n"
    )
    mismatches = []
    for label, args, outputs in (
        (
            "sweep",
            lambda d: ["sweep", "--n", "6:9", "--m", "2,5", "--d", "1,5",
                       "--out", str(d / "sweep.csv")],
            ("sweep.csv",),
        ),
        (
            "simulate",
            lambda d: ["simulate", "--n", "10", "--m", "2", "--d", "5",
                       "--tau", "0.2", "--slots", "30000", "--reps", "2",
                       "--seed", "5", "--out", str(d / "reps.csv")],
            ("reps.csv",),
        ),
        (
            "dynamic",
            lambda d: ["dynamic", "--scenario", str(scenario),
                       "--seed", "3", "--out", str(d)],
            ("trace.csv", "stages.csv"),
        ),
    ):
        dirs = (tmp_path / f"{label}_a", tmp_path / f"{label}_b")
        for d in dirs:
            d.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(args(d)) == 0
        for out_name in outputs:
            if (dirs[0] / out_name).read_bytes() != (
                dirs[1] / out_name
            ).read_bytes():
                mismatches.append(f"{label}/{out_name}")
    # Any drift in the estimator arithmetic or the CSV path changes these.
    for out_name, digest in DYNAMIC_SHA256.items():
        got = hashlib.sha256(
            (tmp_path / "dynamic_a" / out_name).read_bytes()
        ).hexdigest()
        if got != digest:
            mismatches.append(f"dynamic/{out_name} sha256 {got}")
    _report(
        8,
        "seeded reruns byte-identical",
        not mismatches,
        "sweep, simulate, dynamic outputs compared, dynamic pinned by sha256"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )


# The outputs of the `analytic` benchmark workload: the stdout and exit code
# of `verify` on the default grid and at n = 200 and n = 500 (whose three
# FAILs are ROADMAP item 6), and the CSV of its sweep. Any drift in the
# closed forms, the property checks or the solver changes these.
VERIFY_SHA256 = {
    (): (
        0, "c3d24d29b1f9411d5a9c14eda7d7344619405942702614945cdee12b31358965"
    ),
    ("--n", "200"): (
        0, "78b6c9994cb8ba71e6dcc7095206b6d7625e7df4787e4a44352a0edf4a12dfd7"
    ),
    ("--n", "500"): (
        2, "11b6ed0b4a89840295dec45a1861c93f86f4a52633c5483b757e9439c91db7b0"
    ),
}
SWEEP_SHA256 = (
    "1770cc9eacfb048693f20222785316baf06c50e61245535b720cd84872de14b4"
)


def test_analytic_outputs_pinned(tmp_path):
    mismatches = []
    for extra, (code, digest) in VERIFY_SHA256.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            got_code = cli.main(["verify", *extra])
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (got_code, got) != (code, digest):
            mismatches.append(f"verify {extra}: exit {got_code}, {got}")
    sweep = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "sweep", "--n", "10,50,200",
            "--m", "1,2,5,9,20,25,45,49,100,180,199",
            "--d", "1,5,20,100,1000", "--out", str(sweep),
        ]) == 0
    got = hashlib.sha256(sweep.read_bytes()).hexdigest()
    if got != SWEEP_SHA256:
        mismatches.append(f"sweep.csv {got}")
    assert not mismatches, mismatches
