"""Dynamic-population scenarios: a station population that grows and shrinks
in stages while every station estimates the population and retunes itself.

A scenario is a piecewise-constant timeline of active station counts, indexed
by estimation interval. Stations joining at a stage boundary start from the
worst-case population guess; stations leaving simply disappear, abandoning
any head-of-line packet. `run_dynamic` simulates the whole timeline slot by
slot and records, per station and interval, the population estimate and
transmission probability in force plus the packet counts and their delivery
rate, so the adaptation transient is visible in the output; what each
station heard in its silent slots updates its estimate for the next
interval. It hands each interval's rows to the caller's sink as the
interval ends and keeps only a count of each stage's delivery rates, from
which `stage_statistics` pools the stage's mean and variance, so a long
run need not hold its trace.

Scenario files are plain text, read by `parse_scenario`:

    # lines starting with '#' and blank lines are skipped
    [channel]
    mpr = 5
    deadline = 1

    [estimator]
    interval_len = 50000
    memory_factor = 0.7
    probe_low = 2
    probe_high = 5
    n_max = 100

    [run]
    seed = 7          # optional, command line takes precedence

    [stages]
    1-100 = 20        # intervals 1..100 have 20 active stations
    101-400 = 40
    401-500 = 20
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analytic import ChannelConfig, _int_text, solve_optimal_tau
from .estimator import EstimatorConfig, PopulationEstimator
from .simulate import delivery_rate, run_interval

__all__ = [
    "Stage",
    "ScenarioTimeline",
    "Trace",
    "StageStats",
    "DynamicResult",
    "ScenarioError",
    "parse_scenario",
    "load_scenario",
    "run_dynamic",
    "stage_statistics",
]


class ScenarioError(ValueError):
    """A scenario file that cannot be used; the message starts with the
    source and, where one applies, the line number."""

    def __init__(self, source: str, line_no: int | None, message: str):
        location = f"{source}:{line_no}" if line_no else source
        super().__init__(f"{location}: {message}")


class _StageError(ValueError):
    """A stage that breaks a timeline rule; `index` is its position."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


@dataclass(frozen=True)
class Stage:
    """A stretch of intervals with a constant active population."""

    first: int
    last: int
    active_users: int


@dataclass(frozen=True)
class ScenarioTimeline:
    """A validated scenario: contiguous stages plus estimator parameters.

    Stages cover the intervals contiguously from 1, none is empty, and each
    holds mpr < active_users <= n_max stations. The seed is at least 0.
    """

    stages: tuple[Stage, ...]
    estimator: EstimatorConfig
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(
                f"seed must be >= 0, got {_int_text(self.seed)}"
            )
        if not self.stages:
            raise ValueError("scenario needs at least one stage in [stages]")
        cfg = self.estimator
        expected_first = 1
        for index, stage in enumerate(self.stages):
            span = f"{_int_text(stage.first)}-{_int_text(stage.last)}"
            if stage.first != expected_first:
                raise _StageError(
                    index,
                    f"stages must cover intervals contiguously from 1; "
                    f"expected a stage starting at "
                    f"{_int_text(expected_first)}, got "
                    f"{_int_text(stage.first)}",
                )
            if stage.last < stage.first:
                raise _StageError(index, f"stage {span} is empty")
            if not cfg.mpr < stage.active_users <= cfg.n_max:
                raise _StageError(
                    index,
                    f"stage {span}: active_users must be in "
                    f"({cfg.mpr}, {cfg.n_max}], got "
                    f"{_int_text(stage.active_users)}",
                )
            expected_first = stage.last + 1


@dataclass(frozen=True, eq=False)
class Trace:
    """Stations' views of intervals, as columns with one row per station
    and interval, ordered by interval and then station id: the estimate and
    tau the station used, what happened to its packets and its delivery
    rate, NaN where no packet completed. `run_dynamic` hands a sink one
    interval's rows at a time."""

    interval: np.ndarray
    user_id: np.ndarray
    n_est: np.ndarray
    tau: np.ndarray
    packets_completed: np.ndarray
    packets_succeeded: np.ndarray
    sdp: np.ndarray

    def __len__(self) -> int:
        return len(self.interval)


@dataclass(frozen=True)
class StageStats:
    """Delivery statistics pooled over one stage.

    Samples are per-station per-interval delivery rates; sdp_theory is the
    optimum achievable with the stage's true population known exactly.
    """

    number: int
    first: int
    last: int
    active_users: int
    sdp_theory: float
    sdp_mean: float
    sdp_variance: float
    samples: int


@dataclass(frozen=True)
class DynamicResult:
    """The range of the row numbers a run handed to its sink, and the
    run's per-stage statistics."""

    trace: range
    stages: tuple[StageStats, ...]


# Each section's keys and the converters of their values; [stages] holds
# ranges, not keys. The [channel] and [estimator] keys are the
# EstimatorConfig fields, all required; [run] holds optional
# ScenarioTimeline fields.
_SECTION_KEYS = {
    "channel": {"mpr": int, "deadline": int},
    "estimator": {
        "interval_len": int,
        "memory_factor": float,
        "probe_low": int,
        "probe_high": int,
        "n_max": int,
    },
    "run": {"seed": int},
    "stages": None,
}

_STAGE_RANGE = re.compile(r"(\d+)\s*-\s*(\d+)")


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioTimeline:
    """Parse scenario text into a validated timeline.

    Raises ScenarioError naming the first malformed line in file order;
    missing keys and timeline rules are checked after the last line.
    """
    values: dict[str, dict] = {name: {} for name in _SECTION_KEYS}
    stages: list[Stage] = []
    stage_lines: list[int] = []
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            line = line.partition("#")[0].strip()
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                raise ScenarioError(
                    source, line_no, f"unknown section [{name}]"
                )
            section = name
            continue
        if section is None:
            raise ScenarioError(
                source, line_no, "content before any [section] header"
            )
        if "=" not in line:
            raise ScenarioError(
                source, line_no, f"expected 'key = value', got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "stages":
            match = _STAGE_RANGE.fullmatch(key)
            if not match:
                raise ScenarioError(
                    source,
                    line_no,
                    f"stage range must look like '1-100', got {key!r}",
                )
            first, last = (
                _number(int, bound, "stage bound", source, line_no)
                for bound in match.groups()
            )
            count = _number(int, value, "stage population", source, line_no)
            stages.append(Stage(first, last, count))
            stage_lines.append(line_no)
            continue
        convert = _SECTION_KEYS[section].get(key)
        if convert is None:
            raise ScenarioError(
                source, line_no, f"unknown key {key!r} in [{section}]"
            )
        if key in values[section]:
            raise ScenarioError(
                source, line_no, f"duplicate key {key!r} in [{section}]"
            )
        values[section][key] = _number(
            convert, value, f"value for {key!r}", source, line_no
        )

    for sect in ("estimator", "channel"):
        for key in _SECTION_KEYS[sect]:
            if key not in values[sect]:
                raise ScenarioError(
                    source, None, f"missing required key '{key}' in [{sect}]"
                )
    try:
        return ScenarioTimeline(
            stages=tuple(stages),
            estimator=EstimatorConfig(
                **values["estimator"], **values["channel"]
            ),
            **values["run"],
        )
    except _StageError as exc:
        raise ScenarioError(source, stage_lines[exc.index], str(exc)) from None
    except ValueError as exc:
        raise ScenarioError(source, None, str(exc)) from None


def _number(convert, token: str, what: str, source: str, line_no: int):
    """`token` read by `convert`, int or float, or a ScenarioError naming
    `what` at `source:line_no`. A decimal token that int() refuses has more
    digits than Python converts; it is named by its digit count, not
    echoed."""
    try:
        return convert(token)
    except ValueError:
        pass
    digits = token[1:] if token[:1] in ("+", "-") else token
    if digits.isdecimal():
        got = (
            f"a {len(digits)}-digit number, more than the "
            f"{sys.get_int_max_str_digits()} digits Python converts"
        )
    else:
        got = repr(token)
    raise ScenarioError(source, line_no, f"bad {what}: {got}")


def load_scenario(path) -> ScenarioTimeline:
    """Read and parse a scenario file. I/O failures propagate as OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_scenario(text, source=str(path))


def run_dynamic(timeline: ScenarioTimeline, sink) -> DynamicResult:
    """Simulate the whole timeline. Deterministic in timeline.seed.

    Stations are numbered from 0; a population change keeps the lowest ids.
    Uniform draws are consumed one (interval_len, active) block per interval
    in row-major order, so a run is reproducible even across stage changes.

    Each interval's rows, a `Trace` ordered by station id, go to
    `sink(rows)` as the interval ends, and only a count of each stage's
    delivery rates is kept, so memory does not grow with the run. The
    result's `trace` is the `range` of the row numbers handed over. No
    estimate is updated after the last interval, since no row reads it.
    """
    cfg = timeline.estimator
    rng = np.random.default_rng(timeline.seed)
    estimators = PopulationEstimator(cfg, stations=0)
    hol_ages = np.zeros(0, dtype=np.int64)
    rows = 0
    last = timeline.stages[-1].last
    stage_rates = []
    for stage in timeline.stages:
        count = stage.active_users
        estimators.resize(count)
        joiners = max(0, count - len(hol_ages))
        hol_ages = np.concatenate(
            [hol_ages[:count], np.zeros(joiners, dtype=np.int64)]
        )
        user_ids = np.arange(count)
        rates = Counter()
        for interval in range(stage.first, stage.last + 1):
            outcome = run_interval(
                rng,
                estimators.tau,
                cfg.mpr,
                cfg.deadline,
                cfg.interval_len,
                hol_ages,
                heard=cfg.probe_high + 1,
            )
            sdp = delivery_rate(outcome.succeeded, outcome.completed)
            # The samples: the rates of the rows that completed a packet.
            rates.update(sdp[outcome.completed > 0].tolist())
            sink(Trace(
                interval=np.full(count, interval, dtype=np.int64),
                user_id=user_ids,
                n_est=estimators.n_est,
                tau=estimators.tau,
                packets_completed=outcome.completed,
                packets_succeeded=outcome.succeeded,
                sdp=sdp,
            ))
            rows += count
            if interval < last:
                estimators.add_counts(outcome.heard)
                estimators.end_interval()
        stage_rates.append(rates)
    return DynamicResult(range(rows), stage_statistics(timeline, stage_rates))


def stage_statistics(
    timeline: ScenarioTimeline, rates: list[Counter]
) -> tuple[StageStats, ...]:
    """Each stage's statistics from the count of each delivery rate in it,
    one `Counter` per stage of `timeline`, in order."""
    cfg = timeline.estimator
    stats = []
    for number, (stage, counts) in enumerate(
        zip(timeline.stages, rates, strict=True), start=1
    ):
        theory = solve_optimal_tau(
            ChannelConfig(stage.active_users, cfg.mpr, cfg.deadline)
        ).sdp_max
        mean, variance = _mean_variance(counts)
        stats.append(StageStats(
            number=number,
            first=stage.first,
            last=stage.last,
            active_users=stage.active_users,
            sdp_theory=theory,
            sdp_mean=mean,
            sdp_variance=variance,
            samples=counts.total(),
        ))
    return tuple(stats)


def _mean_variance(rates: Counter) -> tuple[float, float]:
    """(mean, population variance) of samples given as a count per value;
    NaN for none. Bit for bit what CPython 3.11's `statistics.fmean` and
    `pvariance(samples, mu=mean)` give, so memory need not grow with the
    samples: `fsum` over the count, and the exact sum of the float terms
    (x - mean)**2, summed per denominator as `statistics` does, over the
    count, rounded once."""
    n = rates.total()
    if not n:
        return math.nan, math.nan
    mean = math.fsum(rates.elements()) / n
    partials: dict[int, int] = {}
    for x, count in rates.items():
        d = x - mean
        num, den = (d * d).as_integer_ratio()
        partials[den] = partials.get(den, 0) + count * num
    # Every denominator is a power of two, so each divides the largest.
    scale = max(partials)
    squares = sum(num * (scale // den) for den, num in partials.items())
    return mean, squares / (scale * n)
