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


def test_readme_quick_tour_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```")[0]
    namespace = {}
    exec(tour, namespace)
    printed = capsys.readouterr().out.splitlines()
    shown = [f"{namespace[name]:.6f}" for name in ("t1", "t2", "slow")]
    shown += [f"{float(printed[0]):.6f}", printed[1], printed[2]]
    assert shown == ["2.223149", "3.141407", "266.573545", "0.999705", "[4, 6, 6, 4] 0.0", "True"]
    assert all(f"# {value}\n" in tour for value in shown)
