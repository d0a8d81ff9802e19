"""The traced benchmark run (`perfbench/tracing.py`) wraps functions of the
package by module and name, so renaming or deleting one of them breaks it.
This installs its wrappers against the current source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# A traced `run_all` and a traced `sweep` on small grids. Each must reach
# the checks and the grid search through the module attributes that
# install() replaced, or that layer's per-layer time silently reads 0.
_SCRIPT = """
import os
import sys
sys.path[:0] = sys.argv[1:]
import tracing
from mpraloha import checks, cli

tracer = tracing.install()
# (5, 5) is skipped, so the sweep has 3 x 2 cells, one grid search each.
assert cli.main(["sweep", "--n", "5,8", "--m", "2,5", "--d", "1,20",
                 "--out", os.devnull]) == 0
metrics = tracing.layer_metrics(tracer)
assert metrics["analytic.grid_search.calls"] == 6, metrics
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
