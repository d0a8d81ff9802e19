"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py:

    python3 perfbench/worker.py --workload W --seed S --out DIR --result FILE
        [--trace] [--setup-only]

Everything before "ready" is set-up: interpreter start, importing the
program from src/, and loading the workload's inputs. The body then calls
`mpraloha.cli.main` once per command line of the workload, in this process
and on this thread, with each command's stdout and stderr going to files in
DIR. The measurements are written to FILE as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402  (these two live next to this file)
import workloads  # noqa: E402


def _run_command(cli, argv, out_dir, index, tracer):
    """Run one command line; returns its exit code, or "raised"."""
    stdout = workloads.stdout_path(out_dir, index)
    stderr = os.path.join(out_dir, f"cmd{index}.stderr")
    with open(stdout, "w", encoding="utf-8") as out, \
            open(stderr, "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        frame = tracer.enter(f"cli.{argv[0]}") if tracer else None
        try:
            return cli.main(argv)
        except Exception:  # noqa: BLE001 - a raising run is a failed operation
            traceback.print_exc()
            return "raised"
        finally:
            if tracer:
                tracer.exit(frame)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    from mpraloha import checks, cli, scenario

    commands = workloads.commands(args.workload, args.seed, args.out)
    if args.workload == "stationary":
        work = workloads.stationary_station_slots()
    elif args.workload == "surge":
        timeline = scenario.load_scenario(workloads.SCENARIO)
        work = timeline.estimator.interval_len * sum(
            (s.last - s.first + 1) * s.active_users for s in timeline.stages
        )
    else:
        work = workloads.sweep_cells() + sum(
            1 for _ in checks.VerifyGrid().sweep_cells()
        )
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    result = {
        "ready": time.clock_gettime(time.CLOCK_MONOTONIC),
        "work": work,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    result["kernel_ready_s"] = speed.calibrate()

    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        exit_codes = []
        cmd_s = []
        with speed.Speedometer() as meter:
            start = time.perf_counter()
            for k, argv in enumerate(commands):
                cmd_start = time.perf_counter()
                exit_codes.append(
                    _run_command(cli, argv, args.out, k, tracer)
                )
                cmd_s.append(time.perf_counter() - cmd_start)
            end = time.perf_counter()
        kernel_after = speed.calibrate()
        result["wall_s"] = meter.rescaled(
            start, end, result["kernel_ready_s"], kernel_after
        )
        result["wall_raw_s"] = end - start - meter.sampled_s()
        result["speed_samples"] = len(meter.samples)
        result["cmd_s"] = cmd_s
        result["exit_codes"] = exit_codes
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        if tracer:
            result["layers"] = tracing.layer_metrics(tracer)
            tracer.write_spans(os.path.join(args.out, "spans.jsonl"))

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
