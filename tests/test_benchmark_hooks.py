"""The traced benchmark run (`perfbench/tracing.py`) wraps functions of the
package by module and name, so renaming or deleting one of them breaks it.
This installs its wrappers against the current source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_wrappers_install():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
        "tracing.layer_metrics(tracing.install())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
