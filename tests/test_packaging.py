import ast
import dataclasses
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import tprop


def test_import_loads_no_scipy(env_with_src):
    # nor process-pool machinery: grid_search(jobs > 1) forks its workers
    # with os.fork, so a two-process grid loads no multiprocessing either.
    # The import a training job makes loads neither the CLI nor the
    # diagnostics, which every process without a bytecode cache would
    # compile from source.
    grid = ("import tprop\n"
            "cfg = tprop.ExperimentConfig(T=10, hidden=4, batch=2, eval_every=0)\n"
            "cells = tprop.grid_search(cfg, [0.05, 0.1], [1.0], horizon=2, jobs=2)\n"
            "assert len(cells) == 2\n")
    cases = [(grid, ("scipy.", "multiprocessing.", "concurrent.")),
             ("from tprop import tasks, trainer\n", ("tprop.cli.", "tprop.diagnostics."))]
    for code, unwanted in cases:  # a module or any submodule of it
        code = ("import sys\n" + code + "print(sorted(m for m in sys.modules"
                f" if (m + '.').startswith({unwanted})))")
        out = subprocess.run([sys.executable, "-c", code], env=env_with_src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", (code, out.stdout)


def test_python_dash_m_runs_the_cli(env_with_src):
    out = subprocess.run([sys.executable, "-m", "tprop", "check", "--help"],
                         env=env_with_src, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "--suite" in out.stdout


def test_train_help_lists_every_setting(env_with_src):
    out = subprocess.run([sys.executable, "-m", "tprop", "train", "--help"],
                         env=env_with_src, capture_output=True, text=True)
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


def test_every_module_uses_what_it_imports():
    # no linter is required to run the suite, so this stands in for the
    # unused-import rule; __init__.py imports names to re-export them
    src = Path(tprop.__file__).parent
    paths = sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_every_private_module_name_is_referenced():
    # A module-level private name (_x, not a dunder) defined in src/tprop
    # must be read somewhere in src/tprop, so a cut leaves no dead helper.
    defined, read = [], set()
    for path in sorted(Path(tprop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((name, f"{path.name}:{node.lineno}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{where} {name}" for name, where in defined if name not in read]
    assert not dead, dead
