import os
import subprocess
import sys
from pathlib import Path

import tprop


def _env_with_src():
    """The environment with this checkout's src directory on PYTHONPATH."""
    src = str(Path(tprop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_loads_no_scipy():
    # nor the process-pool machinery, which only grid_search(jobs > 1) needs
    env = _env_with_src()
    code = ("import sys, tprop; print(sorted(m for m in sys.modules if m.split('.')[0] in"
            " ('scipy', 'multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "tprop", "check", "--help"],
                         env=_env_with_src(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "--suite" in out.stdout
