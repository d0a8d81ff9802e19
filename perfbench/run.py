"""The mpraloha benchmark: one workload, one seed, for a fixed time.

    python3 perfbench/run.py --workload {stationary,surge,analytic} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from src/.
Each repetition of the workload is a fresh interpreter (worker.py) that runs
the workload's command lines one after another through `mpraloha.cli.main`.
Repetitions run one at a time, so the workload always has one process and
one thread to itself. Outputs go to perfbench/_out/.

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see NOTES.md). It prints one line per
metric, an `info` line with machine facts and output digests, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics. It exits non-zero without that line if any repetition fails to
run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# A run must end within 180 s; stop starting repetitions well before.
HARD_LIMIT_S = 165.0
# Set-up only runs per run, on top of the set-up of every repetition.
SETUP_PROBES = 4
MIN_REPETITIONS = 3

TIME_UNITS = ("s", "ms", "ns")
WORK_UNIT = {
    "stationary": "station_slots",
    "surge": "station_slots",
    "analytic": "cells",
}


class BenchError(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workload: str, seed: int, out_root: str, limit: float):
        self.workload = workload
        self.seed = seed
        self.out_root = out_root
        self.limit = limit
        self.env = dict(os.environ)
        # numpy's BLAS starts a thread pool at import; keep the repetition
        # on one thread.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.count = 0

    def child(self, setup_only: bool = False, trace: bool = False) -> dict:
        """Start one worker, wait for it, return its measurements plus the
        set-up time and its output directory."""
        self.count += 1
        out_dir = os.path.join(self.out_root, f"rep{self.count}")
        result_path = out_dir + ".json"
        argv = [sys.executable, WORKER, "--workload", self.workload,
                "--seed", str(self.seed), "--out", out_dir,
                "--result", result_path]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        timeout = self.limit - _now()
        if timeout <= 0:
            raise BenchError("time limit reached before a repetition")
        started = _now()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  stdin=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"repetition {self.count} passed the time limit"
            ) from None
        if proc.returncode != 0:
            raise BenchError(
                f"repetition {self.count} exited {proc.returncode}"
            )
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_raw_s"] = result["ready"] - started
        result["setup_s"] = speed.at_reference_speed(
            result["setup_raw_s"], result["kernel_ready_s"]
        )
        result["out_dir"] = out_dir
        result["traced"] = trace
        return result


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as h:
            for line in h:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def machine_facts(worker_result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run(args) -> tuple[dict, dict]:
    """Measure; returns (result line, info)."""
    start = _now()
    out_root = os.path.join(
        HERE, "_out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    runner = Runner(args.workload, args.seed, out_root,
                    start + HARD_LIMIT_S)

    # Warm the byte-code and file caches once: users do not pay that on
    # every run.
    runner.child(setup_only=True)
    setups = [runner.child(setup_only=True) for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    measure_start = _now()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = runner.child(trace=traced)
        reps.append(rep)
        setups.append(rep)
        elapsed = _now() - measure_start
        per_rep = elapsed / len(reps)
        # Stop at the repetition count that ends nearest to --seconds, and
        # never start one that could overrun the hard limit.
        if (len(reps) >= MIN_REPETITIONS
                and elapsed + per_rep / 2 >= args.seconds):
            break
        if _now() + 2 * per_rep > runner.limit:
            break

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if args.trace and not traced:
        raise BenchError("no traced repetition fitted in the time limit")
    first = reps[0]
    check = workloads.gate(args.workload, first["out_dir"],
                           first["exit_codes"])
    digests = workloads.output_digests(first["out_dir"])
    problems = list(check.problems)
    for k, rep in enumerate(reps[1:], start=2):
        if workloads.output_digests(rep["out_dir"]) != digests:
            problems.append(
                f"repetition {k} wrote different CSV bytes than repetition 1"
            )
    # A chance miss fails one operation in thousands; a majority failing
    # is a wrong program, not bad luck.
    if 2 * check.failed > check.attempted:
        problems.append(
            f"{check.failed} of {check.attempted} operations failed"
        )
    correct = not problems and check.attempted > 0

    wall = statistics.median(r["wall_s"] for r in plain)
    work = first["work"]
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "work_per_s": work / wall,
        "ok_frac": (check.attempted - check.failed) / max(check.attempted, 1),
    }
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        # Layer times are rescaled like their repetition's wall time.
        scaled = [
            {name: (value * rep["wall_s"] / rep["wall_raw_s"]
                    if units.get(name) in TIME_UNITS else value)
             for name, value in rep["layers"].items()}
            for rep in traced
        ]
        metrics = {
            name: statistics.median(layers[name] for layers in scaled)
            for name in scaled[0]
        }
        metrics.update(check.quality)
        rows, size = workloads.csv_volume(first["out_dir"])
        metrics["cli.csv_rows"] = rows
        metrics["cli.csv_bytes"] = size
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
    else:
        metrics = end_to_end
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "setups": len(setups),
        "work": work,
        "work_unit": WORK_UNIT[args.workload],
        "end_to_end": end_to_end,
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "wall_raw_s": [r["wall_raw_s"] for r in plain],
            "command_raw_s": [r["cmd_s"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "setup_s": [r["setup_s"] for r in setups],
            "setup_raw_s": [r["setup_raw_s"] for r in setups],
            "kernel_ready_s": [r["kernel_ready_s"] for r in setups],
            "speed_samples": [r["speed_samples"] for r in reps],
        },
        "problems": problems,
        "csv_sha256": digests,
        "machine": machine_facts(first),
        "run_s": _now() - start,
    }
    return result, info


def _metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `kind` metrics declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    return {m["name"]: m["unit"] for m in spec[kind]}


def print_summary(result: dict, info: dict) -> None:
    workload = info["workload"]
    print(f"workload {workload}, seed {info['seed']}: "
          f"{info['repetitions']} repetitions"
          + (f" + {info['traced_repetitions']} traced"
             if info["trace"] else "")
          + f", {info['setups']} set-ups, {info['run_s']:.1f} s in all")
    e2e = info["end_to_end"]
    rate_name = ("cells_per_s" if workload == "analytic"
                 else "station_slots_per_s")
    raw_wall = statistics.median(info["samples"]["wall_raw_s"])
    raw_setup = statistics.median(info["samples"]["setup_raw_s"])
    lines = [
        ("wall_s", e2e["wall_s"],
         f"s at reference speed (raw {raw_wall:.4g} s)"),
        ("setup_s", e2e["setup_s"],
         f"s at reference speed (raw {raw_setup:.4g} s)"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        (rate_name, e2e["work_per_s"], f"{info['work_unit']}/s"),
        ("ok_frac", e2e["ok_frac"], "ratio"),
        ("fail_frac", result["failed"] / max(result["attempted"], 1),
         f"ratio ({result['failed']} of {result['attempted']} operations)"),
    ]
    for name, value, unit in lines:
        print(f"  {name:<22} {value:<14.6g} {unit}")
    if info["trace"]:
        for name, entry in result["metrics"].items():
            print(f"  {name:<40} {entry['value']:<14.6g} {entry['unit']}")
    for problem in info["problems"]:
        print(f"  problem: {problem}")
    print("info " + json.dumps(info, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mpraloha", "cli.py")):
        print(f"error: no program at {os.path.join(ROOT, 'src', 'mpraloha')}",
              file=sys.stderr)
        return 2
    try:
        result, info = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "_out", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"result": result, "info": info}, handle, indent=1)
    print_summary(result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
