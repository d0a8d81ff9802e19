"""The traced benchmark run (`perfbench/tracing.py`) wraps functions of the
package by module and name, so renaming or deleting one of them breaks it.
This installs its wrappers against the current source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# A traced `sweep` and `run_all` on small grids and a traced `dynamic` on a
# tiny scenario. Each must reach the grid search, the checks and the
# simulator through the module attributes that install() replaced, or that
# layer's per-layer time silently reads 0.
_SCRIPT = """
import os
import sys
import tempfile
sys.path[:0] = sys.argv[1:]
import tracing
from mpraloha import checks, cli

tracer = tracing.install()
# (5, 5) is skipped, so the sweep has 3 x 2 cells, grid-searched in one
# call.
assert cli.main(["sweep", "--n", "5,8", "--m", "2,5", "--d", "1,20",
                 "--out", os.devnull]) == 0
metrics = tracing.layer_metrics(tracer)
assert metrics["analytic.grid_search.calls"] == 1, metrics
assert metrics["analytic.grid_search.s"] > 0, metrics

checks.run_all(checks.VerifyGrid(
    tau_values=(0.1, 0.5), n_values=(5,), d_values=(1, 5),
    sweep_n=(6,), sweep_m=(2,), sweep_d=(1,),
))
metrics = tracing.layer_metrics(tracer)
times = {k: v for k, v in metrics.items()
         if k.startswith("checks.") and k.endswith(".s")}
assert len(times) == 12, sorted(times)
assert all(v > 0 for v in times.values()), times

# Five intervals of 300 slots: two with 4 stations, three with 6.
with tempfile.TemporaryDirectory() as tmp:
    scenario = os.path.join(tmp, "tiny.cfg")
    with open(scenario, "w") as handle:
        handle.write(
            "[channel]\\nmpr = 2\\ndeadline = 3\\n"
            "[estimator]\\ninterval_len = 300\\nmemory_factor = 0.5\\n"
            "probe_low = 1\\nprobe_high = 2\\nn_max = 10\\n"
            "[stages]\\n1-2 = 4\\n3-5 = 6\\n"
        )
    assert cli.main(["dynamic", "--scenario", scenario, "--seed", "1",
                     "--out", tmp]) == 0
metrics = tracing.layer_metrics(tracer)
assert metrics["simulate.run_interval.calls"] == 5, metrics
assert metrics["simulate.station_slots"] == (2 * 4 + 3 * 6) * 300, metrics
assert metrics["simulate.run_interval.s"] > 0, metrics
# The trace has a length, run_dynamic pools the stages through the wrapped
# stage_statistics, and the estimator runs through its wrapped methods.
assert metrics["scenario.trace_rows"] == 2 * 4 + 3 * 6, metrics
assert metrics["scenario.stage_statistics.s"] > 0, metrics
assert metrics["estimator.end_interval.s"] > 0, metrics
"""


def test_tracing_wrappers_install():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
