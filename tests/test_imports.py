"""Every module of the package imports when it is the first one loaded.

The package's `__init__` imports nothing, so each module's own imports
decide the load order. An import cycle that works only when another module
happens to load first fails here, in a fresh interpreter per module. The
module graph is guarded too: the sequence container and preprocessing load
without the phantom generator, and the package's own imports sit at the top
of each module, except one that would close a cycle.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import irzone

SRC = Path(irzone.__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.walk_packages(irzone.__path__, "irzone."))


def test_every_module_is_listed():
    assert {"irzone.cli", "irzone.preprocess", "irzone.phantom",
            "irzone.models.cascade"} <= set(MODULES)


def run_python(code):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    run = run_python(f"import {module}")
    assert run.returncode == 0, run.stderr


def test_container_and_preprocessing_load_without_the_phantom_generator():
    loaded = {}
    for module in ("irzone.io_formats", "irzone.preprocess"):
        run = run_python(f"import sys, {module}; print('irzone.phantom' in sys.modules)")
        assert run.returncode == 0, run.stderr
        loaded[module] = run.stdout.strip()
    assert loaded == {"irzone.io_formats": "False", "irzone.preprocess": "False"}


def package_imports_in_functions():
    """(module, function) of each import of the package inside a function."""
    found = set()
    for module in MODULES:
        path = SRC / (module.replace(".", "/") + ".py")
        if not path.exists():
            path = path.with_suffix("") / "__init__.py"
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["irzone"] if node.level else [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "irzone" for name in names):
                    found.add((module, fn.name))
    return found


def test_package_imports_sit_at_the_top_but_one():
    # load_cascade imports the cascade model when called: the models import io_formats
    assert package_imports_in_functions() == {("irzone.io_formats", "load_cascade")}
