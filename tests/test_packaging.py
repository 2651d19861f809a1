import ast
import dataclasses
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import tprop


def _env_with_src():
    """The environment with this checkout's src directory on PYTHONPATH."""
    src = str(Path(tprop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_loads_no_scipy():
    # nor process-pool machinery: grid_search(jobs > 1) forks its workers
    # with os.fork, so a two-process grid loads no multiprocessing either
    env = _env_with_src()
    code = ("import sys, tprop\n"
            "cfg = tprop.ExperimentConfig(T=10, hidden=4, batch=2, eval_every=0)\n"
            "cells = tprop.grid_search(cfg, [0.05, 0.1], [1.0], horizon=2, jobs=2)\n"
            "assert len(cells) == 2\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in"
            " ('scipy', 'multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "tprop", "check", "--help"],
                         env=_env_with_src(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "--suite" in out.stdout


def test_train_help_lists_every_setting():
    out = subprocess.run([sys.executable, "-m", "tprop", "train", "--help"],
                         env=_env_with_src(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    flags = set(re.findall(r"--[\w-]+", out.stdout))
    for fld in dataclasses.fields(tprop.trainer.ExperimentConfig):
        flag = "--" + fld.name.replace("_", "-")
        assert flag in flags, flag
        if fld.type == "bool":
            assert "--no-" + flag[2:] in flags, flag


def test_every_module_stays_below_4096_tokens():
    # Imported without a bytecode cache, a module is compiled from source,
    # and past 4096 tokens CPython 3.11's parser doubles its token array,
    # which raises the peak RSS of every process that imports the module.
    # Tokens are counted as tokenize yields them, comments and blank lines
    # aside.
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    for path in sorted(Path(tprop.__file__).parent.glob("*.py")):
        with path.open("rb") as f:
            n = sum(tok.type not in skip for tok in tokenize.tokenize(f.readline))
        assert n < 4096, (path.name, n)


def test_tasks_module_does_not_import_the_trainer():
    # the trainer builds tasks; an import back would be a cycle
    tree = ast.parse((Path(tprop.__file__).parent / "tasks.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not any("trainer" in name for name in names), names
