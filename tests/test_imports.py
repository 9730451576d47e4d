"""chancap runs on numpy alone: neither an import nor an estimate, nor a CLI command, loads scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded by a fresh interpreter that runs ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint({SCIPY_MODULES}, file=sys.stderr)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["chancap", "chancap.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _scipy_modules_after(f"import {module}") == "[]"


def test_estimates_load_no_scipy():
    code = (
        "from chancap import amplitude_damping_channel\n"
        "from chancap.capacity import OptimizerConfig, holevo_capacity, measured_input_bound, shannon_capacity\n"
        "ch, cfg = amplitude_damping_channel(0.3), OptimizerConfig(restarts=2, max_iters=3, tol=1e-6, seed=1)\n"
        "for estimate in (shannon_capacity, holevo_capacity, measured_input_bound):\n"
        "    assert 0.0 < estimate(ch, cfg).value <= 1.0\n"
    )
    assert _scipy_modules_after(code) == "[]"


def test_cli_capacity_loads_no_scipy(tmp_path):
    spec = tmp_path / "ad.json"
    spec.write_text('{"kind": "amplitude-damping", "gamma": 0.5}')
    code = (
        "from chancap.cli import main\n"
        f"assert main(['capacity', {str(spec)!r}, '--which', 'all', '--restarts', '2', '--max-iters', '3']) == 0\n"
    )
    assert _scipy_modules_after(code) == "[]"
