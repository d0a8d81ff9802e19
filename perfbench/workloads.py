"""Workload definitions and the correctness gate of the mpraloha benchmark.

A workload is a fixed list of `mpraloha` command lines. The gate reads the
files those commands wrote and sorts what it finds into two kinds:

* failed operations, counted against attempted ones, with the acceptance
  bounds of the tier-1 suite: a statistical or convergence miss that the
  program may legitimately show, and that a later change should not add to;
* problems, which make the run incorrect: a missing or malformed output, an
  exit code the CLI does not document, or a number that disagrees with an
  independent evaluation of the closed-form delivery probability. run.py
  adds repetitions that disagree and a majority of failed operations.

This module uses only the standard library, so the parent process of the
benchmark never imports the program or numpy.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO = os.path.join(HERE, "surge_d20.cfg")

# BENCHMARK.json lists surge and analytic; stationary runs by hand (see
# NOTES.md).
WORKLOADS = ("stationary", "surge", "analytic")

# (n, m, d, slots, reps) of the three `simulate` runs of `stationary`.
STATIONARY = (
    (20, 5, 1, 1_000_000, 4),
    (100, 8, 20, 200_000, 4),
    (500, 8, 5, 200_000, 1),
)

SWEEP_N = (10, 50, 200)
SWEEP_M = (1, 2, 5, 9, 20, 25, 45, 49, 100, 180, 199)
SWEEP_D = (1, 5, 20, 100, 1000)

# Acceptance bounds of tier-1 criteria 1, 4 and 7.
SIM_ABS_BOUND = 0.005
SIM_Z_BOUND = 3.0
STAGE_REL_BOUND = 0.05
STAGE_VAR_BOUND = 0.01
SDP_GAP_BOUND = 1e-9

# The binomial standard error of one replication treats every packet as
# independent, but packets sharing a slot share its fate. Over 60, 120 and
# 6 seeds the standard deviation of the binomial z-score of the three
# `stationary` configurations was 1.0, 1.4-1.8 and 1.4, so the gate's
# standard error is the binomial one times this factor.
SIM_OVERDISPERSION = 2.0

# Tolerance between a value the program wrote and the same closed form
# evaluated here; far above rounding, far below any modelling error.
REFERENCE_TOL = 1e-9


def commands(workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """The CLI argv lists of one repetition of `workload`."""
    if workload == "stationary":
        return [
            ["simulate", "--n", str(n), "--m", str(m), "--d", str(d),
             "--slots", str(slots), "--reps", str(reps),
             "--seed", str(seed),
             "--out", os.path.join(out_dir, f"simulate_{k}.csv")]
            for k, (n, m, d, slots, reps) in enumerate(STATIONARY)
        ]
    if workload == "surge":
        return [["dynamic", "--scenario", SCENARIO, "--seed", str(seed),
                 "--out", out_dir]]
    if workload == "analytic":
        return [
            ["verify"],
            ["sweep", "--n", _csv_list(SWEEP_N), "--m", _csv_list(SWEEP_M),
             "--d", _csv_list(SWEEP_D),
             "--out", os.path.join(out_dir, "sweep.csv")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def stationary_station_slots() -> int:
    return sum(n * slots * reps for n, _, _, slots, reps in STATIONARY)


def sweep_cells() -> int:
    return sum(1 for n in SWEEP_N for m in SWEEP_M if m < n) * len(SWEEP_D)


def reference_delivery_prob(n: int, m: int, d: int, tau: float) -> float:
    """(1 - (1 - tau)^d) * sum_{i<m} C(n-1, i) tau^i (1 - tau)^(n-1-i),
    evaluated term by term, independently of `mpraloha.analytic`."""
    window = 1.0 - (1.0 - tau) ** d
    head = math.fsum(
        math.comb(n - 1, i) * tau**i * (1.0 - tau) ** (n - 1 - i)
        for i in range(m)
    )
    return window * head


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Estimator quality read from the outputs of `surge`, reported by the
    # traced run; 0 on workloads that run no estimator.
    quality: dict[str, float] = field(default_factory=lambda: {
        "estimator.n_est_abs_err": 0.0,
        "estimator.delivery_ratio_min": 0.0,
    })

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def gate(workload: str, out_dir: str, exit_codes: list) -> GateResult:
    """Check one repetition's outputs; `exit_codes` are those of its
    commands, in order."""
    result = GateResult()
    try:
        {"stationary": _gate_stationary, "surge": _gate_surge,
         "analytic": _gate_analytic}[workload](out_dir, exit_codes, result)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result.problems.append(f"unreadable output: {exc!r}")
    return result


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def stdout_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"cmd{index}.stdout")


def _gate_stationary(out_dir, exit_codes, result: GateResult) -> None:
    for k, (n, m, d, _, reps) in enumerate(STATIONARY):
        if exit_codes[k] != 0:
            result.problems.append(f"simulate {k} exited {exit_codes[k]}")
            result.attempted += reps
            result.failed += reps
            continue
        tau_line = re.search(
            r"^tau\s*=\s*(\S+)$", _read_text(stdout_path(out_dir, k)), re.M
        )
        tau = float(tau_line[1])
        rows = _read_csv(os.path.join(out_dir, f"simulate_{k}.csv"))
        *user_rows, total = rows
        analytic = float(total["analytic"])
        reference = reference_delivery_prob(n, m, d, tau)
        if abs(analytic - reference) > REFERENCE_TOL:
            result.problems.append(
                f"simulate {k}: analytic {analytic!r} but the closed form "
                f"gives {reference!r} at tau={tau!r}"
            )
        if len(user_rows) != n * reps:
            result.problems.append(
                f"simulate {k}: {len(user_rows)} station rows, "
                f"expected {n * reps}"
            )
        completed = [0] * reps
        succeeded = [0] * reps
        for row in user_rows:
            rep = int(row["rep"])
            completed[rep] += int(row["packets_completed"])
            succeeded[rep] += int(row["packets_succeeded"])
        if (sum(completed) != int(total["packets_completed"])
                or sum(succeeded) != int(total["packets_succeeded"])):
            result.problems.append(
                f"simulate {k}: aggregate row disagrees with station rows"
            )
        for c, s in zip(completed, succeeded):
            if c == 0:
                result.operation(False)
                continue
            se = SIM_OVERDISPERSION * math.sqrt(
                reference * (1.0 - reference) / c
            )
            diff = abs(s / c - reference)
            result.operation(
                diff <= SIM_Z_BOUND * se and diff <= SIM_ABS_BOUND
            )


def _scenario_stages() -> list[tuple[int, int, int]]:
    """(first, last, active) of every stage of the surge scenario."""
    stages = []
    in_stages = False
    for raw in _read_text(SCENARIO).splitlines():
        line = raw.partition("#")[0].strip()
        if line.startswith("["):
            in_stages = line == "[stages]"
        elif in_stages and line:
            span, _, count = line.partition("=")
            first, _, last = span.partition("-")
            stages.append((int(first), int(last), int(count)))
    return stages


def _gate_surge(out_dir, exit_codes, result: GateResult) -> None:
    stages = _scenario_stages()
    if exit_codes[0] != 0:
        result.problems.append(f"dynamic exited {exit_codes[0]}")
        result.attempted += len(stages)
        result.failed += len(stages)
        return
    stats = _read_csv(os.path.join(out_dir, "stages.csv"))
    trace = _read_csv(os.path.join(out_dir, "trace.csv"))
    if len(stats) != len(stages):
        result.problems.append(
            f"stages.csv has {len(stats)} rows, expected {len(stages)}"
        )
    expected_rows = sum((last - first + 1) * n for first, last, n in stages)
    if len(trace) != expected_rows:
        result.problems.append(
            f"trace.csv has {len(trace)} rows, expected {expected_rows}"
        )
    ratios = []
    for row in stats:
        theory = float(row["sdp_theory"])
        mean = float(row["sdp_mean"])
        rel = abs(mean - theory) / theory
        result.operation(
            rel <= STAGE_REL_BOUND
            and float(row["sdp_variance"]) <= STAGE_VAR_BOUND
        )
        ratios.append(mean / theory)
    # Estimator quality: mean |n_est - N| over the second half of each
    # stage, once the estimate has had time to settle.
    errors = []
    by_interval = {}
    for row in trace:
        by_interval.setdefault(int(row["interval"]), []).append(
            int(row["n_est"])
        )
    for first, last, n in stages:
        for interval in range(first + (last - first + 1) // 2, last + 1):
            errors.extend(abs(e - n) for e in by_interval.get(interval, ()))
    result.quality = {
        "estimator.n_est_abs_err": (
            math.fsum(errors) / len(errors) if errors else 0.0
        ),
        "estimator.delivery_ratio_min": min(ratios, default=0.0),
    }


def _gate_analytic(out_dir, exit_codes, result: GateResult) -> None:
    verify_rc, sweep_rc = exit_codes
    lines = re.findall(
        r"^(PASS|FAIL) (\w+):", _read_text(stdout_path(out_dir, 0)), re.M
    )
    if not lines:
        result.problems.append("verify printed no PASS/FAIL line")
    failures = sum(status == "FAIL" for status, _ in lines)
    if verify_rc != (2 if failures else 0):
        result.problems.append(
            f"verify exited {verify_rc} with {failures} FAIL lines"
        )
    for status, _ in lines:
        result.operation(status == "PASS")
    # Failures are read from the rows, so a sweep that exits 2 on an
    # unconverged row is as valid as one that exits 0.
    if sweep_rc not in (0, 2):
        result.problems.append(f"sweep exited {sweep_rc}")
        result.attempted += sweep_cells()
        result.failed += sweep_cells()
        return
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    if len(rows) != sweep_cells():
        result.problems.append(
            f"sweep.csv has {len(rows)} rows, expected {sweep_cells()}"
        )
    for row in rows:
        n, m, d = (int(row[k]) for k in ("n_users", "mpr", "deadline"))
        sdp_max = float(row["sdp_max"])
        grid_sdp = float(row["grid_sdp"])
        for tau_key, sdp in (("tau_opt", sdp_max), ("grid_tau", grid_sdp)):
            reference = reference_delivery_prob(n, m, d, float(row[tau_key]))
            if abs(sdp - reference) > REFERENCE_TOL:
                result.problems.append(
                    f"sweep ({n},{m},{d}): delivery probability {sdp!r} at "
                    f"{tau_key} but the closed form gives {reference!r}"
                )
        # Compared on sdp, not tau: on flat cells where P is about 1 the
        # two optimizers legitimately disagree in tau only.
        result.operation(
            row["converged"] == "true" and grid_sdp - sdp_max <= SDP_GAP_BOUND
        )


def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV the repetition wrote."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def csv_volume(out_dir: str) -> tuple[int, int]:
    """(data rows, bytes) over every CSV the repetition wrote."""
    rows = size = 0
    for name in os.listdir(out_dir):
        if name.endswith(".csv"):
            path = os.path.join(out_dir, name)
            size += os.path.getsize(path)
            with open(path, "rb") as handle:
                rows += sum(1 for _ in handle) - 1
    return rows, size
