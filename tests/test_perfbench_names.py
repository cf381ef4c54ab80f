"""The benchmark's tracer finds every package name it patches or reads.

``perfbench/layers.py`` omits a per-layer metric, with a note, when a
private name it wraps (``_RowTables.ensure``, ``_RowTables.extend_cap``,
``row_plethysm._strip_additions`` and so on) is renamed or deleted. The
tracer patches the package in place, so it is installed in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import plethlab

ROOT = Path(__file__).resolve().parents[1]

_INSTALL_TRACER = """
import sys

import plethlab
import plethlab.cli  # noqa: F401

sys.path.insert(0, sys.argv[1])
from layers import METRICS, Tracer

tracer = Tracer()
tracer.install()
if tracer.notes:
    sys.exit("\\n".join(tracer.notes))
# trace.overhead_s is the difference of two runs, computed by run.py
missing = sorted(set(METRICS) - set(tracer.metrics(0.0)) - {"trace.overhead_s"})
if missing:
    sys.exit("metrics omitted: " + ", ".join(missing))
"""


# the counter reads the cache of the border-strip step; a full expansion must move it
_COUNT_STRIPS = """
plethlab.plethysm_schur((2,), (3,))
if not tracer.metrics(0.0)["row_plethysm.strip_additions.built"]:
    sys.exit("row_plethysm.strip_additions.built stayed 0 over a full expansion")
"""


def _run_tracer(script: str) -> subprocess.CompletedProcess:
    src = str(Path(plethlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_tracer_installs_without_a_note():
    proc = _run_tracer(_INSTALL_TRACER)
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_the_border_strips_of_a_full_expansion():
    proc = _run_tracer(_INSTALL_TRACER + _COUNT_STRIPS)
    assert proc.returncode == 0, proc.stderr
