"""The traced benchmark run (`perfbench/tracing.py`) wraps functions of the
package by module and name, so renaming or deleting one of them breaks it.
This installs its wrappers against the current source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# A traced `run_all` on a small grid. It must reach each check through the
# module attribute that install() replaced, or that check's per-layer time
# silently reads 0.
_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:]
import tracing
from mpraloha import checks

tracer = tracing.install()
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
