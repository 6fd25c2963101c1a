"""Every module of the package imports when it is the first one loaded.

The package's `__init__` imports nothing, so each module's own imports
decide the load order. An import cycle that works only when another module
happens to load first fails here, in a fresh interpreter per module.
"""

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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
