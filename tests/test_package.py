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
