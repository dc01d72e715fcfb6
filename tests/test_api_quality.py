"""API quality gates: documentation, export hygiene and read model fields.

These tests keep the library credible as an open-source release: every
public module, class and function must carry a docstring, every name in an
``__all__`` must resolve, the package must not leak obviously private
names through its public surfaces, and every field of a model preset must
be read by some code path.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.machine import MachineSpec
from repro.mpi import MPICosts
from repro.network import NetworkParams
from repro.threadsim import OpenMPCosts

def _walk():
    """Every package and module under ``repro``, found by walking it."""
    packages, modules = ["repro"], ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it would run the CLI
        modules.append(info.name)
        if info.ispkg:
            packages.append(info.name)
    return sorted(packages), sorted(modules)


PACKAGES, MODULES = _walk()


class TestDocstrings:
    @pytest.mark.parametrize("mod_name", MODULES)
    def test_module_has_docstring(self, mod_name):
        module = importlib.import_module(mod_name)
        assert module.__doc__ and module.__doc__.strip(), mod_name

    @pytest.mark.parametrize("mod_name", MODULES)
    def test_public_callables_are_documented(self, mod_name):
        module = importlib.import_module(mod_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__.startswith("repro") and not obj.__doc__:
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for mname, member in inspect.getmembers(obj):
                        if mname.startswith("_"):
                            continue
                        if (inspect.isfunction(member)
                                and member.__module__
                                and member.__module__.startswith("repro")
                                and not member.__doc__):
                            undocumented.append(f"{name}.{mname}")
        assert not undocumented, (
            f"{mod_name}: missing docstrings on {undocumented}")


class TestExports:
    @pytest.mark.parametrize("mod_name", MODULES)
    def test_all_names_resolve(self, mod_name):
        module = importlib.import_module(mod_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{mod_name}.__all__: {name}"

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_packages_define_all(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert getattr(pkg, "__all__", None), f"{pkg_name} lacks __all__"

    def test_no_private_names_exported(self):
        for mod_name in MODULES:
            module = importlib.import_module(mod_name)
            for name in getattr(module, "__all__", []):
                if name == "__version__":  # dunder metadata is fine
                    continue
                assert not name.startswith("_"), f"{mod_name}: {name}"

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(p.isdigit() for p in parts[:2])


@functools.cache
def _attributes_read():
    """Every ``<expr>.<name>`` load under ``src/repro``, except inside the
    ``validate_*`` range checks (a check alone is no use of a value)."""
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        checks = {id(node)
                  for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name.startswith("validate_")
                  for node in ast.walk(fn)}
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in checks)
    return names


class TestModelFields:
    """Every preset field is read by name somewhere in the package: a
    constant no code reads is one no result depends on."""

    @pytest.mark.parametrize("preset", [MachineSpec, NetworkParams,
                                        MPICosts, OpenMPCosts],
                             ids=lambda cls: cls.__name__)
    def test_every_field_is_read(self, preset):
        read = _attributes_read()
        unread = [f.name for f in dataclasses.fields(preset)
                  if f.name not in read]
        assert not unread, f"{preset.__name__}: nothing reads {unread}"
