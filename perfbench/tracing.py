"""Spans around the calls into each `mpraloha` layer, for the traced run.

`install` replaces public functions with timing wrappers at the module
boundaries where other layers look them up, so the program itself is not
edited. Every wrapped call is a span: name, start, end, and the span that
caused it; the spans of one CLI command share that command's root span as
their request identifier. A span's self time is its duration minus the
durations of its direct child spans, which are disjoint because everything
runs on one thread.

Functions called millions of times (`delivery_prob` and the analytic
helpers the property checks evaluate) are aggregated only: they take part
in the self-time accounting but leave no span record.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

from mpraloha import analytic, checks, estimator, scenario, simulate

CLI_COMMANDS = ("solve", "sweep", "simulate", "dynamic", "verify")

# The property checks by the names their results carry.
CHECKS = (
    "sdp_bounds",
    "sdp_monotone_deadline",
    "derivative_finite_difference",
    "admitted_load_slope",
    "deadline_load_slope",
    "moment_ratio_identity",
    "term_matching_identity",
    "window_bound",
    "iteration_map_slope",
    "iteration_map_bracketing",
    "solver_vs_grid_search",
    "solver_localization",
)

# Analytic helpers the property checks call directly; aggregated only.
_CHECK_HELPERS = (
    "admitted_load",
    "binomial_pmf",
    "deadline_load",
    "delivery_prob_derivative",
    "iteration_map",
    "lower_bound_tau",
    "success_size_ratio",
    "window_bound",
)


class Tracer:
    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self._next_id = 0
        self.totals: dict[str, list[int]] = {}  # name -> [calls, ns, self_ns]
        self.spans: list[tuple] = []  # (id, parent, root, name, start, end)
        self.solves: list[tuple[int, int, bool]] = []  # (ns, iters, converged)
        self.station_slots = 0
        self.block_peak_bytes = 0
        self.trace_rows = 0
        self.check_ns: dict[str, int] = {}  # CheckResult.name -> ns

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, 0, 0, self._next_id]
        self._stack.append(frame)
        frame[1] = self._clock()
        return frame

    def exit(self, frame: list) -> int:
        end = self._clock()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        totals = self.totals.setdefault(name, [0, 0, 0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        parent = self._stack[-1][3] if self._stack else 0
        root = self._stack[0][3] if self._stack else span_id
        self.spans.append((span_id, parent, root, name, start, end))
        return duration

    def wrap_leaf(self, func, name: str):
        """Count and time a function that calls no wrapped function, with
        no span record: the cheap wrapper for calls made by the million."""
        totals = self.totals.setdefault(name, [0, 0, 0])
        clock = self._clock
        stack = self._stack

        def traced(*args, **kwargs):
            start = clock()
            result = func(*args, **kwargs)
            duration = clock() - start
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration
            if stack:
                stack[-1][2] += duration
            return result

        traced.__wrapped__ = func
        return traced

    def wrap(self, func, name: str, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.exit(frame)
                raise
            duration = tracer.exit(frame)
            if on_return is not None:
                on_return(result, duration)
            return result

        traced.__wrapped__ = func
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, root, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "root": root,
                     "name": name, "start_ns": start, "end_ns": end}
                ) + "\n")

    def seconds(self, name: str, column: int = 1) -> float:
        return self.totals.get(name, (0, 0, 0))[column] / 1e9

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def self_seconds(self, prefix: str) -> float:
        return sum(t[2] for n, t in self.totals.items()
                   if n.startswith(prefix)) / 1e9


def _patch(modules, attr: str, wrapper) -> None:
    for module in modules:
        setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap the layer boundaries of the imported `mpraloha` modules."""
    tracer = Tracer()
    wrap = tracer.wrap

    def on_solve(report, duration):
        tracer.solves.append((duration, report.iterations, report.converged))

    _patch((analytic, estimator, scenario, checks), "solve_optimal_tau",
           wrap(analytic.solve_optimal_tau, "analytic.solve",
                on_return=on_solve))
    _patch((analytic, checks), "grid_search_optimum",
           wrap(analytic.grid_search_optimum, "analytic.grid_search"))
    _patch((analytic, simulate, checks), "delivery_prob",
           tracer.wrap_leaf(analytic.delivery_prob, "analytic.delivery_prob"))
    for helper in _CHECK_HELPERS:
        _patch((checks,), helper,
               tracer.wrap_leaf(getattr(analytic, helper),
                                f"analytic.{helper}"))

    timed_interval = wrap(simulate.run_interval, "simulate.run_interval")
    measured_shapes = set()

    def run_interval(rng, tx_probs, mpr, deadline, n_slots, *rest, **kw):
        tracer.station_slots += n_slots * len(tx_probs)
        # The block's peak depends only on its shape, and tracemalloc costs
        # about 4 ms a call, a third of surge's run: measure each shape once,
        # with tracemalloc started outside the timed span.
        shape = (len(tx_probs), n_slots)
        if shape in measured_shapes:
            return timed_interval(
                rng, tx_probs, mpr, deadline, n_slots, *rest, **kw
            )
        measured_shapes.add(shape)
        tracemalloc.start()
        try:
            return timed_interval(
                rng, tx_probs, mpr, deadline, n_slots, *rest, **kw
            )
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.block_peak_bytes = max(tracer.block_peak_bytes, peak)

    _patch((simulate, scenario), "run_interval", run_interval)
    simulate.run_stationary = wrap(
        simulate.run_stationary, "simulate.run_stationary"
    )

    cls = estimator.PopulationEstimator
    cls.end_interval = wrap(cls.end_interval, "estimator.end_interval")
    cls.add_counts = wrap(cls.add_counts, "estimator.add_counts")
    estimator.tuned_tau = wrap(estimator.tuned_tau, "estimator.tuned_tau")

    def on_dynamic(result, duration):
        tracer.trace_rows += len(result.trace)

    scenario.run_dynamic = wrap(
        scenario.run_dynamic, "scenario.run_dynamic", on_return=on_dynamic
    )
    scenario.stage_statistics = wrap(
        scenario.stage_statistics, "scenario.stage_statistics"
    )
    scenario.load_scenario = wrap(
        scenario.load_scenario, "scenario.load_scenario"
    )

    def on_check(result, duration):
        tracer.check_ns[result.name] = (
            tracer.check_ns.get(result.name, 0) + duration
        )

    checks.run_all = wrap(checks.run_all, "checks.run_all")
    for name in dir(checks):
        if name.startswith("check_"):
            setattr(checks, name, wrap(
                getattr(checks, name), f"checks.{name}", on_return=on_check
            ))
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures that the wrappers measured, by metric name.

    A layer the workload never entered reads 0 for its counts and times.
    """
    out: dict[str, float] = {}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = tracer.seconds(f"cli.{cmd}")
    out["cli.self_s"] = tracer.self_seconds("cli.")

    calls = tracer.calls("simulate.run_interval")
    interval_s = tracer.seconds("simulate.run_interval")
    out["simulate.run_interval.calls"] = calls
    out["simulate.run_interval.s"] = interval_s
    out["simulate.station_slots"] = tracer.station_slots
    out["simulate.ns_per_station_slot"] = (
        interval_s * 1e9 / tracer.station_slots
        if tracer.station_slots else 0.0
    )
    out["simulate.block_peak_mb"] = tracer.block_peak_bytes / 2**20

    out["estimator.end_interval.s"] = tracer.seconds("estimator.end_interval")
    out["estimator.add_counts.s"] = tracer.seconds("estimator.add_counts")
    cache = estimator.tuned_tau.__wrapped__.cache_info()
    out["estimator.tuned_tau.hits"] = cache.hits
    out["estimator.tuned_tau.misses"] = cache.misses

    out["scenario.run_dynamic.self_s"] = tracer.seconds(
        "scenario.run_dynamic", column=2
    )
    out["scenario.stage_statistics.s"] = tracer.seconds(
        "scenario.stage_statistics"
    )
    out["scenario.trace_rows"] = tracer.trace_rows

    solve_ms = [ns / 1e6 for ns, _, _ in tracer.solves]
    out["analytic.solve.calls"] = len(tracer.solves)
    out["analytic.solve.s"] = tracer.seconds("analytic.solve")
    out["analytic.solve.iterations"] = sum(i for _, i, _ in tracer.solves)
    out["analytic.solve.unconverged"] = sum(
        not ok for _, _, ok in tracer.solves
    )
    out["analytic.solve.ms_p50"] = (
        statistics.median(solve_ms) if solve_ms else 0.0
    )
    out["analytic.solve.ms_max"] = max(solve_ms, default=0.0)
    out["analytic.grid_search.calls"] = tracer.calls("analytic.grid_search")
    out["analytic.grid_search.s"] = tracer.seconds("analytic.grid_search")
    dp_calls = tracer.calls("analytic.delivery_prob")
    out["analytic.delivery_prob.calls"] = dp_calls
    out["analytic.delivery_prob.ns_per_call"] = (
        tracer.seconds("analytic.delivery_prob") * 1e9 / dp_calls
        if dp_calls else 0.0
    )

    for name in CHECKS:
        out[f"checks.{name}.s"] = tracer.check_ns.get(name, 0) / 1e9
    out["checks.self_s"] = tracer.self_seconds("checks.")
    return out
