import os
import subprocess
import sys
from pathlib import Path

import tprop


def test_import_loads_no_scipy():
    # nor the process-pool machinery, which only grid_search(jobs > 1) needs
    src = str(Path(tprop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, tprop; print(sorted(m for m in sys.modules if m.split('.')[0] in"
            " ('scipy', 'multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
