"""Command line front end.

Subcommands:
    solve     optimal transmission probability for one channel
    sweep     solve over a grid of populations/capabilities/deadlines,
              each row cross-checked against an independent grid search;
              exits 2 if any row is unconverged
    simulate  fixed-tau Monte Carlo runs against the analytic value
    dynamic   run a scenario file with the runtime population estimator
    verify    the analytic property checks, one PASS/FAIL line each

Exit codes: 0 success, 1 bad usage, configuration or allocation failure,
2 verification or convergence failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import os
import sys

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
    """Parse '2,5,8' or '6:50' (inclusive, b >= a in 'a:b') or a mix."""
    out: list[int] = []
    for part in text.split(","):
        lo, colon, hi = part.partition(":")
        if colon and int(hi) < int(lo):
            raise argparse.ArgumentTypeError(f"reversed range {part!r}")
        out.extend(range(int(lo), int(hi if colon else lo) + 1))
    return tuple(out)


@contextlib.contextmanager
def _csv_writer(path: str | None, header):
    """A csv writer on `path` (None or '-': stdout) with `header` written.
    The csv module writes floats with repr, which round-trips exactly, and
    other values with str."""
    if path is None or path == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(path, "w", encoding="utf-8", newline="")
    with target as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        yield writer


def _emit_csv(path: str | None, header, rows) -> None:
    """Write `rows` as they come, so an iterator is never held whole."""
    with _csv_writer(path, header) as writer:
        writer.writerows(rows)


# solve/sweep columns: the ChannelConfig fields, then the SolveReport fields.
_SOLVE_HEADER = [
    field.name
    for cls in (analytic.ChannelConfig, analytic.SolveReport)
    for field in dataclasses.fields(cls)
]

_SWEEP_HEADER = _SOLVE_HEADER + ["grid_tau", "grid_sdp", "tau_abs_diff"]

# Cells that `sweep` grid-searches in one call; their rows are written
# before the next cells are searched.
_SWEEP_CHUNK = 256

_SIMULATE_HEADER = [
    "rep", "seed", "user_id", "packets_completed", "packets_succeeded",
    "sdp", "std_error", "analytic", "z_score",
]


def _solve_row(config: analytic.ChannelConfig, report: analytic.SolveReport):
    """The `_SOLVE_HEADER` values, read field by field (astuple deep-copies
    each one); `converged` is written as true/false."""
    return [
        config.n_users, config.mpr, config.deadline, report.tau_opt,
        report.sdp_max, report.iterations, report.residual,
        "true" if report.converged else "false",
    ]


def _cmd_solve(args) -> int:
    config = analytic.ChannelConfig(args.n, args.m, args.d)
    report = analytic.solve_optimal_tau(config)
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
    # Every cell is validated, and named in its error, before one is solved.
    configs = [
        checks._valid_cell("sweep cell", n, m, d)
        for n in args.n for m in args.m if m < n for d in args.d
    ]
    if not configs:
        raise ValueError(
            "no valid (n, m, d) combination in the requested sweep"
        )
    unconverged = []

    def rows():
        for start in range(0, len(configs), _SWEEP_CHUNK):
            chunk = configs[start:start + _SWEEP_CHUNK]
            reports = [analytic.solve_optimal_tau(c) for c in chunk]
            searched = analytic.grid_search_optimum(chunk)
            for config, report, (grid_tau, grid_sdp) in zip(
                chunk, reports, searched
            ):
                if not report.converged:
                    unconverged.append(
                        f"({config.n_users},{config.mpr},{config.deadline})"
                    )
                yield _solve_row(config, report) + [
                    grid_tau, grid_sdp, abs(report.tau_opt - grid_tau)
                ]

    _emit_csv(args.out, _SWEEP_HEADER, rows())
    if unconverged:
        print(
            f"error: solver did not converge for {len(unconverged)} of "
            f"{len(configs)} (n,m,d) cells: {' '.join(unconverged)}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # Imported here: `statistics` loads fractions, decimal and random, which
    # no other command needs.
    from statistics import fmean, stdev

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
        raise ValueError(
            f"--reps must be >= 1, got {analytic._int_text(args.reps)}"
        )
    # Here, not at the first replication, so no CSV is started for a run
    # that cannot happen.
    if args.slots < 1:
        raise ValueError(
            f"--slots must be >= 1, got {analytic._int_text(args.slots)}"
        )
    if args.seed < 0:
        raise ValueError(
            f"--seed must be >= 0, got {analytic._int_text(args.seed)}"
        )
    rep_sdps = []
    total_completed = 0
    total_succeeded = 0
    # Station rows go out as each replication ends, so memory does not grow
    # with --reps.
    with (
        _csv_writer(args.out, _SIMULATE_HEADER) if args.out
        else contextlib.nullcontext()
    ) as writer:
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
            if writer:
                sdps = simulate.delivery_rate(
                    outcome.succeeded, outcome.completed
                ).tolist()
                writer.writerows(
                    [rep, seed, user, *row, "", "", ""]
                    for user, row in enumerate(zip(completed, succeeded, sdps))
                )
        mean = fmean(rep_sdps)
        if math.isnan(mean):
            # Some replication completed no packet.
            std_error = math.nan
        elif args.reps >= 2:
            std_error = stdev(rep_sdps) / math.sqrt(args.reps)
        else:
            std_error = math.sqrt(
                expected * (1.0 - expected) / total_completed
            )
        z = _z_score(mean, expected, std_error)
        if writer:
            # The final row carries the run-level comparison; the station
            # rows above leave those columns blank.
            writer.writerow(
                ["all", "", "all", total_completed, total_succeeded, mean,
                 std_error, expected, z]
            )
    print(f"tau        = {tau!r}")
    print(f"analytic   = {expected!r}")
    print(f"empirical  = {mean!r}")
    print(f"std_error  = {std_error:.3e}")
    print(f"z_score    = {z:.3f}")
    print(f"reps       = {args.reps}, slots each = {args.slots}")
    return EXIT_OK


def _z_score(estimate: float, expected: float, se: float) -> float:
    """(estimate - expected) / se. A zero standard error gives 0 when the
    estimate is exact and an infinity of the deviation's sign otherwise."""
    if se == 0.0:
        if estimate == expected:
            return 0.0
        return math.copysign(math.inf, estimate - expected)
    return (estimate - expected) / se


# trace.csv columns: the Trace fields, then the derived `sdp`.
_TRACE_COLUMNS = [f.name for f in dataclasses.fields(scenario.Trace)] + ["sdp"]

# stages.csv columns: the StageStats fields, in order; `stage`,
# `first_interval` and `last_interval` name `number`, `first` and `last`.
_STAGES_HEADER = [
    "stage", "first_interval", "last_interval", "active_users",
    "sdp_theory", "sdp_mean", "sdp_variance", "samples",
]

def _cmd_dynamic(args) -> int:
    timeline = scenario.load_scenario(args.scenario)
    if args.seed is not None:
        timeline = dataclasses.replace(timeline, seed=args.seed)
    # Before the run, so an unusable directory fails in a moment. A failed
    # run removes its partial trace and the directories made here, still
    # empty, innermost first.
    created = []
    path = os.path.abspath(args.out)
    while not os.path.exists(path):
        created.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    stages_path = os.path.join(args.out, "stages.csv")
    opened = False
    try:
        # Each interval's rows are written as it ends, so memory does not
        # grow with the run.
        with _csv_writer(trace_path, _TRACE_COLUMNS) as writer:
            opened = True

            def sink(rows):
                writer.writerows(zip(*(
                    getattr(rows, name).tolist() for name in _TRACE_COLUMNS
                )))

            result = scenario.run_dynamic(timeline, sink=sink)
    except BaseException:
        with contextlib.suppress(OSError):
            if opened:
                os.remove(trace_path)
            for path in created:
                os.rmdir(path)
        raise
    _emit_csv(
        stages_path,
        _STAGES_HEADER,
        (dataclasses.astuple(s) for s in result.stages),
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
    results = checks.run_all(grid)
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


def _channel_flags(p) -> None:
    """The --n, --m and --d of one channel, as solve and simulate take it."""
    p.add_argument("--n", type=int, required=True, help="number of stations")
    p.add_argument("--m", type=int, required=True,
                   help="receiver capability (packets decodable per slot)")
    p.add_argument("--d", type=int, required=True,
                   help="per-packet deadline in slots")


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
    _channel_flags(p)
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
    p.add_argument("--out", help="CSV path ('-' or omitted: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "simulate", help="Monte Carlo at fixed tau against the analytic value"
    )
    _channel_flags(p)
    p.add_argument("--tau", default="optimal",
                   help="transmission probability, or 'optimal' (default)")
    p.add_argument("--slots", type=int, default=100_000,
                   help="slots per replication (default 100000)")
    p.add_argument("--reps", type=int, default=1,
                   help="replications, seeded seed, seed+1, ... (default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="first replication's seed, at least 0 (default 0)")
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
    p.add_argument("--n", type=_int_list, default=None,
                   help="override grid populations")
    p.add_argument("--m", type=_int_list, default=None,
                   help="override grid receiver capabilities")
    p.add_argument("--d", type=_int_list, default=None,
                   help="override grid deadlines")
    p.add_argument("--sweep-n", type=_int_list, default=None,
                   help="override solver-vs-grid-search populations")
    p.add_argument("--sweep-m", type=_int_list, default=None,
                   help="override solver-vs-grid-search receiver "
                        "capabilities")
    p.add_argument("--sweep-d", type=_int_list, default=None,
                   help="override solver-vs-grid-search deadlines")
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
    except (ValueError, OverflowError) as exc:
        # OverflowError: an int with no float that no validator caught.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # An array larger than the address space fails at once.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
