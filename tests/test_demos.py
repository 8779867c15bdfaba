"""Smoke test: the fast demos run to completion.

Each demo runs in its own interpreter with one BLAS thread, the checkout's
``src`` on the path and temporary files under pytest's ``tmp_path``; the
test asserts exit status 0 and that no ``hyperfl_demo_*`` work directory is
left behind.  Demo 02 drives the hypernetwork forward
and backward passes end to end; demo 05 runs both attacks and the
analytic HyperFL head-bias recovery.

Left out: demo 04 (a full protocol comparison, about half a minute),
which CI runs as its own step.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_autodiff_basics",
    "02_hypernet_generation",
    "03_noniid_partition",
    "05_inversion_attack",
    "06_dp_tradeoff",
    "07_cli_workflow",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    src = str(ROOT / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("hyperfl_demo_*"))
