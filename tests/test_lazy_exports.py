"""The lazy export tables: every package name resolves, once, to the
object its submodule defines (``repro._lazy``)."""

import importlib
import pkgutil

import pytest

PACKAGES = [
    "repro.analysis", "repro.core", "repro.des", "repro.httpnet",
    "repro.proxy", "repro.trace", "repro.workloads",
]


def submodules(package):
    return sorted(
        info.name for info in pkgutil.iter_modules(package.__path__)
    )


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_submodules_object(name):
    """Each name is the object of the submodule that defines it (a
    class's or function's ``__module__``, else the submodule whose
    ``__all__`` lists it), or is that submodule itself."""
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    modules = [
        importlib.import_module(f"{name}.{sub}") for sub in submodules(package)
    ]
    for export in package.__all__:
        value = getattr(package, export)
        if export in submodules(package):
            assert value is importlib.import_module(f"{name}.{export}")
            continue
        homes = [
            module for module in modules
            if vars(module).get(export) is value and (
                module.__name__ == getattr(value, "__module__", None)
                or export in getattr(module, "__all__", ())
            )
        ]
        assert homes, f"{name}.{export} is no submodule's own object"


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export  # noqa: B018 - the lookup is the test


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_no_export_shadows_another_submodule(name):
    """A name that is also a submodule's would be rebound when that
    submodule is first imported; only ``repro.core.experiments``, which
    exports the submodule itself, shares its name."""
    package = importlib.import_module(name)
    shared = sorted(set(package.__all__) & set(submodules(package)))
    assert shared == (["experiments"] if name == "repro.core" else [])
