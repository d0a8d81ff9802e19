"""Command line front end.

Subcommands:
    solve     optimal transmission probability for one channel
    sweep     solve over a grid of populations/capabilities/deadlines,
              each row cross-checked against an independent grid search;
              exits 2 if any row is unconverged
    simulate  fixed-tau Monte Carlo runs against the analytic value
    dynamic   run a scenario file with the runtime population estimator
    verify    the analytic property checks, one PASS/FAIL line each

Exit codes: 0 success, 1 bad usage or configuration, 2 verification or
convergence failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from statistics import fmean, stdev

from . import analytic, checks, scenario, simulate

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this CLI reserves 2 for
    verification failures, so usage problems are rerouted."""

    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    """Parse '2,5,8' or '6:50' (inclusive) or a mix of both."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo, _, hi = part.partition(":")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("empty list")
    return tuple(out)


def _write_csv(handle, header, rows) -> None:
    """Write `rows` as they come, so an iterator is never held whole. The
    csv module writes floats with repr, which round-trips exactly, and
    other values with str."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_csv(path: str | None, header, rows) -> None:
    if path is None or path == "-":
        _write_csv(sys.stdout, header, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, header, rows)


_SOLVE_HEADER = [
    "n_users",
    "mpr",
    "deadline",
    "tau_opt",
    "sdp_max",
    "iterations",
    "residual",
    "converged",
]


_SWEEP_HEADER = _SOLVE_HEADER + ["grid_tau", "grid_sdp", "tau_abs_diff"]


def _solve_row(config: analytic.ChannelConfig, report: analytic.SolveReport):
    return [
        config.n_users,
        config.mpr,
        config.deadline,
        report.tau_opt,
        report.sdp_max,
        report.iterations,
        report.residual,
        "true" if report.converged else "false",
    ]


def _cmd_solve(args) -> int:
    config = analytic.ChannelConfig(args.n, args.m, args.d)
    report = analytic.solve_optimal_tau(
        config, tolerance=args.tolerance, max_iter=args.max_iter
    )
    print(f"tau_opt    = {report.tau_opt!r}")
    print(f"sdp_max    = {report.sdp_max!r}")
    print(f"iterations = {report.iterations}")
    print(f"residual   = {report.residual:.3e}")
    print(f"converged  = {'yes' if report.converged else 'no'}")
    if args.out:
        _emit_csv(args.out, _SOLVE_HEADER, [_solve_row(config, report)])
    if not report.converged:
        print("error: solver did not converge", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows = []
    unconverged = []
    for n in args.n:
        for m in args.m:
            if m >= n:
                continue
            for d in args.d:
                config = analytic.ChannelConfig(n, m, d)
                report = analytic.solve_optimal_tau(
                    config, tolerance=args.tolerance
                )
                if not report.converged:
                    unconverged.append(f"({n},{m},{d})")
                grid_tau, grid_sdp = analytic.grid_search_optimum(config)
                rows.append(
                    _solve_row(config, report)
                    + [grid_tau, grid_sdp, abs(report.tau_opt - grid_tau)]
                )
    if not rows:
        raise ValueError(
            "no valid (n, m, d) combination in the requested sweep"
        )
    _emit_csv(args.out, _SWEEP_HEADER, rows)
    if unconverged:
        print(
            f"error: solver did not converge for {len(unconverged)} of "
            f"{len(rows)} (n,m,d) cells: {' '.join(unconverged)}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = analytic.ChannelConfig(args.n, args.m, args.d)
    if args.tau == "optimal":
        tau = analytic.solve_optimal_tau(config).tau_opt
    else:
        try:
            tau = float(args.tau)
        except ValueError:
            raise ValueError(
                f"--tau must be a number or 'optimal', got {args.tau!r}"
            ) from None
    expected = analytic.delivery_prob(config, tau)
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    rows = []
    rep_sdps = []
    total_completed = 0
    total_succeeded = 0
    for rep in range(args.reps):
        seed = args.seed + rep
        outcome = simulate.run_stationary(config, tau, args.slots, seed)
        completed = outcome.completed.tolist()
        succeeded = outcome.succeeded.tolist()
        rep_sdps.append(
            simulate.delivery_rate(sum(succeeded), sum(completed)).item()
        )
        total_completed += sum(completed)
        total_succeeded += sum(succeeded)
        sdps = simulate.delivery_rate(outcome.succeeded, outcome.completed)
        for user, row in enumerate(zip(completed, succeeded, sdps.tolist())):
            rows.append([rep, seed, user, *row, "", "", ""])
    mean = fmean(rep_sdps)
    if math.isnan(mean):
        # Some replication completed no packet.
        std_error = math.nan
    elif args.reps >= 2:
        std_error = stdev(rep_sdps) / math.sqrt(args.reps)
    else:
        std_error = math.sqrt(expected * (1.0 - expected) / total_completed)
    z = simulate.z_score(mean, expected, std_error)
    # Final row carries the run-level comparison; the per-user rows above
    # leave those columns blank.
    rows.append(
        ["all", "", "all", total_completed, total_succeeded, mean,
         std_error, expected, z]
    )
    print(f"tau        = {tau!r}")
    print(f"analytic   = {expected!r}")
    print(f"empirical  = {mean!r}")
    print(f"std_error  = {std_error:.3e}")
    print(f"z_score    = {z:.3f}")
    print(f"reps       = {args.reps}, slots each = {args.slots}")
    if args.out:
        _emit_csv(
            args.out,
            ["rep", "seed", "user_id", "packets_completed",
             "packets_succeeded", "sdp", "std_error", "analytic",
             "z_score"],
            rows,
        )
    return EXIT_OK


# trace.csv columns; `_trace_rows` reads each from the Trace by this name.
_TRACE_HEADER = [
    "interval",
    "user_id",
    "n_est",
    "tau",
    "packets_completed",
    "packets_succeeded",
    "sdp",
]

# Trace rows converted to Python numbers at a time, which bounds the memory
# the conversion takes whatever the length of the run.
_CSV_CHUNK_ROWS = 1 << 16


def _trace_rows(trace: scenario.Trace):
    columns = [getattr(trace, name) for name in _TRACE_HEADER]
    for start in range(0, len(trace), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        yield from zip(*(column[start:stop].tolist() for column in columns))


def _cmd_dynamic(args) -> int:
    timeline = scenario.load_scenario(args.scenario)
    if args.seed is not None:
        timeline = dataclasses.replace(timeline, seed=args.seed)
    # Before the run, so an unusable directory fails in a moment.
    os.makedirs(args.out, exist_ok=True)
    result = scenario.run_dynamic(timeline)
    trace_path = os.path.join(args.out, "trace.csv")
    stages_path = os.path.join(args.out, "stages.csv")
    _emit_csv(trace_path, _TRACE_HEADER, _trace_rows(result.trace))
    _emit_csv(
        stages_path,
        ["stage", "first_interval", "last_interval", "active_users",
         "sdp_theory", "sdp_mean", "sdp_variance", "samples"],
        (
            [s.number, s.first, s.last, s.active_users, s.sdp_theory,
             s.sdp_mean, s.sdp_variance, s.samples]
            for s in result.stages
        ),
    )
    for s in result.stages:
        print(
            f"stage {s.number}: intervals {s.first}-{s.last}, "
            f"{s.active_users} users, mean sdp {s.sdp_mean:.5f} "
            f"(theory {s.sdp_theory:.5f}), variance {s.sdp_variance:.2e}"
        )
    print(f"trace: {trace_path}")
    print(f"stages: {stages_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    overrides = {
        "n_values": args.n, "m_values": args.m, "d_values": args.d,
        "sweep_n": args.sweep_n, "sweep_m": args.sweep_m,
        "sweep_d": args.sweep_d,
    }
    grid = checks.VerifyGrid(
        **{k: v for k, v in overrides.items() if v is not None}
    )
    results = checks.run_all(grid, identity_tol=args.tolerance)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failed = sum(not r.passed for r in results)
    if failed:
        print(
            f"error: {failed} of {len(results)} checks failed",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpraloha",
        description=(
            "Deadline-constrained slotted ALOHA with multi-packet "
            "reception: optimal tuning, simulation, verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", help="optimal transmission probability for one channel"
    )
    p.add_argument("--n", type=int, required=True, help="number of stations")
    p.add_argument("--m", type=int, required=True,
                   help="receiver capability (packets decodable per slot)")
    p.add_argument("--d", type=int, required=True,
                   help="per-packet deadline in slots")
    p.add_argument("--tolerance", type=float, default=1e-12,
                   help="bracket width at which the solver stops "
                        "(default 1e-12)")
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="cap on solver gap evaluations (default 10000)")
    p.add_argument("--out", help="also write the result as one CSV row")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "sweep",
        help="solve over a parameter grid, CSV output with an independent "
             "grid-search column per row (combinations with m >= n are "
             "skipped)",
        description=(
            "Solve every (n, m, d) combination with m < n and cross-check "
            "each row against an independent grid search (grid_tau, "
            "grid_sdp, tau_abs_diff). On flat cells, where the delivery "
            "probability is 1 to within rounding, tau_abs_diff can be "
            "large (0.19 at n=200 m=180 d=100, 0.83 at n=1000 m=999 "
            "d=1000) although both optimizers are right; there, compare "
            "grid_sdp with sdp_max."
        ),
    )
    p.add_argument("--n", type=_int_list, required=True,
                   help="station counts, e.g. '6:50' or '10,20,40'")
    p.add_argument("--m", type=_int_list, required=True,
                   help="receiver capabilities, e.g. '2,5,8'")
    p.add_argument("--d", type=_int_list, required=True,
                   help="deadlines, e.g. '1,5,10,20'")
    p.add_argument("--tolerance", type=float, default=1e-12,
                   help="bracket width at which the solver stops "
                        "(default 1e-12)")
    p.add_argument("--out", help="CSV path ('-' or omitted: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "simulate", help="Monte Carlo at fixed tau against the analytic value"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tau", default="optimal",
                   help="transmission probability, or 'optimal' (default)")
    p.add_argument("--slots", type=int, default=100_000,
                   help="slots per replication (default 100000)")
    p.add_argument("--reps", type=int, default=1,
                   help="replications, seeded seed, seed+1, ... (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out",
                   help="CSV path: one row per station per replication "
                        "plus a final aggregate row")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "dynamic", help="run a dynamic-population scenario file"
    )
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario file's seed")
    p.add_argument("--out", default=".",
                   help="output directory for trace.csv and stages.csv")
    p.set_defaults(func=_cmd_dynamic)

    p = sub.add_parser(
        "verify", help="run the analytic property checks"
    )
    p.add_argument("--tolerance", type=float, default=1e-12,
                   help="tolerance for the exact identities (default 1e-12)")
    p.add_argument("--n", type=_int_list, default=None,
                   help="override grid populations")
    p.add_argument("--m", type=_int_list, default=None,
                   help="override grid receiver capabilities")
    p.add_argument("--d", type=_int_list, default=None,
                   help="override grid deadlines")
    p.add_argument("--sweep-n", type=_int_list, default=None,
                   help="override solver-vs-grid-search populations")
    p.add_argument("--sweep-m", type=_int_list, default=None)
    p.add_argument("--sweep-d", type=_int_list, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
