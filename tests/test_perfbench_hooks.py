"""The benchmark's traced pass must still find what it wraps.

``perfbench/worker.py`` wraps routelab functions and methods by name (for
example ``RewardEngine.evaluate``, ``humans.run_episode`` and
``UcbLearner.update``), so renaming one breaks ``--trace 1``. This installs
its spans in a fresh interpreter that writes no bytecode, so nothing under
``perfbench/`` changes.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTALL = (
    "import sys; sys.path[:0] = ['perfbench', 'src']; import worker, spans; "
    "worker.install_spans(spans.Tracer(), {})"
)


def test_traced_pass_finds_every_binding_it_wraps():
    done = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
