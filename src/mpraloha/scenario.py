"""Dynamic-population scenarios: a station population that grows and shrinks
in stages while every station estimates the population and retunes itself.

A scenario is a piecewise-constant timeline of active station counts, indexed
by estimation interval. Stations joining at a stage boundary start from the
worst-case population guess; stations leaving simply disappear, abandoning
any head-of-line packet. `run_dynamic` simulates the whole timeline slot by
slot and records, per station and interval, the population estimate and
transmission probability in force plus the packet counts, so the adaptation
transient is visible in the output.

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
from dataclasses import dataclass
from statistics import fmean, pvariance

import numpy as np

from .analytic import ChannelConfig, solve_optimal_tau
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
    holds mpr < active_users <= n_max stations.
    """

    stages: tuple[Stage, ...]
    estimator: EstimatorConfig
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("scenario needs at least one stage in [stages]")
        cfg = self.estimator
        expected_first = 1
        for index, stage in enumerate(self.stages):
            if stage.first != expected_first:
                raise _StageError(
                    index,
                    f"stages must cover intervals contiguously from 1; "
                    f"expected a stage starting at {expected_first}, got "
                    f"{stage.first}",
                )
            if stage.last < stage.first:
                raise _StageError(
                    index, f"stage {stage.first}-{stage.last} is empty"
                )
            if not cfg.mpr < stage.active_users <= cfg.n_max:
                raise _StageError(
                    index,
                    f"stage {stage.first}-{stage.last}: active_users must "
                    f"be in ({cfg.mpr}, {cfg.n_max}], got "
                    f"{stage.active_users}",
                )
            expected_first = stage.last + 1


@dataclass(frozen=True, eq=False)
class Trace:
    """Every station's view of every interval, as columns with one row per
    station and interval, ordered by interval and then station id: the
    estimate and tau the station used, and what happened to its packets."""

    interval: np.ndarray
    user_id: np.ndarray
    n_est: np.ndarray
    tau: np.ndarray
    packets_completed: np.ndarray
    packets_succeeded: np.ndarray

    def __len__(self) -> int:
        return len(self.interval)

    @property
    def sdp(self) -> np.ndarray:
        """Delivery rate per row; NaN where no packet completed."""
        return delivery_rate(self.packets_succeeded, self.packets_completed)


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
    trace: Trace
    stages: tuple[StageStats, ...]


_SECTION_KEYS = {
    "channel": {"mpr", "deadline"},
    "estimator": {
        "interval_len",
        "memory_factor",
        "probe_low",
        "probe_high",
        "n_max",
    },
    "run": {"seed"},
    "stages": None,
}

_STAGE_RANGE = re.compile(r"(\d+)\s*-\s*(\d+)")

_REQUIRED = object()


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioTimeline:
    """Parse scenario text into a validated timeline.

    Raises ScenarioError naming the offending line for anything malformed.
    """
    values: dict[tuple[str, str], tuple[str, int]] = {}
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
            try:
                count = int(value)
            except ValueError:
                raise ScenarioError(
                    source, line_no, f"stage population must be an integer, "
                    f"got {value!r}"
                ) from None
            stages.append(Stage(int(match[1]), int(match[2]), count))
            stage_lines.append(line_no)
            continue
        if key not in _SECTION_KEYS[section]:
            raise ScenarioError(
                source, line_no, f"unknown key {key!r} in [{section}]"
            )
        if (section, key) in values:
            raise ScenarioError(
                source, line_no, f"duplicate key {key!r} in [{section}]"
            )
        values[(section, key)] = (value, line_no)

    def pick(sect: str, key: str, convert, default=_REQUIRED):
        if (sect, key) not in values:
            if default is _REQUIRED:
                raise ScenarioError(
                    source, None, f"missing required key '{key}' in [{sect}]"
                )
            return default
        value, line_no = values[(sect, key)]
        try:
            return convert(value)
        except ValueError:
            raise ScenarioError(
                source, line_no, f"bad value for {key!r}: {value!r}"
            ) from None

    try:
        return ScenarioTimeline(
            stages=tuple(stages),
            estimator=EstimatorConfig(
                interval_len=pick("estimator", "interval_len", int),
                memory_factor=pick("estimator", "memory_factor", float),
                probe_low=pick("estimator", "probe_low", int),
                probe_high=pick("estimator", "probe_high", int),
                n_max=pick("estimator", "n_max", int),
                mpr=pick("channel", "mpr", int),
                deadline=pick("channel", "deadline", int),
            ),
            seed=pick("run", "seed", int, default=0),
        )
    except ScenarioError:
        raise
    except _StageError as exc:
        raise ScenarioError(source, stage_lines[exc.index], str(exc)) from None
    except ValueError as exc:
        raise ScenarioError(source, None, str(exc)) from None


def load_scenario(path) -> ScenarioTimeline:
    """Read and parse a scenario file. I/O failures propagate as OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_scenario(text, source=str(path))


def run_dynamic(timeline: ScenarioTimeline) -> DynamicResult:
    """Simulate the whole timeline. Deterministic in timeline.seed.

    Stations are numbered from 0; a population change keeps the lowest ids.
    Uniform draws are consumed one (interval_len, active) block per interval
    in row-major order, so a run is reproducible even across stage changes.
    """
    cfg = timeline.estimator
    rng = np.random.default_rng(timeline.seed)
    rows = sum(_stage_rows(stage) for stage in timeline.stages)
    trace = Trace(
        interval=np.empty(rows, dtype=np.int64),
        user_id=np.empty(rows, dtype=np.int64),
        n_est=np.empty(rows, dtype=np.int64),
        tau=np.empty(rows),
        packets_completed=np.empty(rows, dtype=np.int64),
        packets_succeeded=np.empty(rows, dtype=np.int64),
    )
    estimators = PopulationEstimator(cfg, stations=0)
    hol_ages = np.zeros(0, dtype=np.int64)
    stop = 0
    for stage in timeline.stages:
        count = stage.active_users
        estimators.resize(count)
        joiners = max(0, count - len(hol_ages))
        hol_ages = np.concatenate(
            [hol_ages[:count], np.zeros(joiners, dtype=np.int64)]
        )
        user_ids = np.arange(count)
        for interval in range(stage.first, stage.last + 1):
            start, stop = stop, stop + count
            outcome = run_interval(
                rng,
                estimators.tau,
                cfg.mpr,
                cfg.deadline,
                cfg.interval_len,
                hol_ages,
                probes=cfg.probes,
            )
            trace.interval[start:stop] = interval
            trace.user_id[start:stop] = user_ids
            trace.n_est[start:stop] = estimators.n_est
            trace.tau[start:stop] = estimators.tau
            trace.packets_completed[start:stop] = outcome.completed
            trace.packets_succeeded[start:stop] = outcome.succeeded
            estimators.add_counts(outcome.probe_counts)
            estimators.end_interval()
    return DynamicResult(trace, stage_statistics(timeline, trace))


def _stage_rows(stage: Stage) -> int:
    return (stage.last - stage.first + 1) * stage.active_users


def stage_statistics(
    timeline: ScenarioTimeline, trace: Trace
) -> tuple[StageStats, ...]:
    """Pool per-station per-interval delivery rates within each stage.

    `trace` is the interval-ordered trace `run_dynamic` made of `timeline`,
    so each stage is one contiguous slice of its rows.
    """
    cfg = timeline.estimator
    rows = sum(_stage_rows(stage) for stage in timeline.stages)
    if len(trace) != rows:
        raise ValueError(
            f"trace has {len(trace)} rows, the timeline's stages {rows}"
        )
    sdp = trace.sdp
    stats = []
    stop = 0
    for number, stage in enumerate(timeline.stages, start=1):
        start, stop = stop, stop + _stage_rows(stage)
        theory = solve_optimal_tau(
            ChannelConfig(stage.active_users, cfg.mpr, cfg.deadline)
        ).sdp_max
        completed = trace.packets_completed[start:stop]
        samples = sdp[start:stop][completed > 0].tolist()
        if samples:
            mean = fmean(samples)
            variance = pvariance(samples, mu=mean)
        else:
            mean = math.nan
            variance = math.nan
        stats.append(
            StageStats(
                number=number,
                first=stage.first,
                last=stage.last,
                active_users=stage.active_users,
                sdp_theory=theory,
                sdp_mean=mean,
                sdp_variance=variance,
                samples=len(samples),
            )
        )
    return tuple(stats)
