import os
import subprocess
import sys
from pathlib import Path

import cavity_route
from cavity_route import closed_form, collective, evolution, network, routing

MODULES = (closed_form, collective, evolution, network, routing)


def test_package_exports_every_module_name_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(cavity_route.__all__) == sorted(names + ["__version__"])


def test_package_names_are_the_defining_modules_objects():
    # bench/spans.py swaps a function for a wrapper wherever a module holds it
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(cavity_route, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_import_loads_numpy_only():
    # the runtime dependency is numpy alone: scipy, hypothesis and pytest serve the tests
    src = str(Path(cavity_route.__file__).parents[1])
    probe = "import sys, cavity_route; print(*sorted(set(sys.modules) & set(sys.argv[1:])))"
    names = ["numpy", "scipy", "hypothesis", "pytest"]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe, *names], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().split() == ["numpy"]
