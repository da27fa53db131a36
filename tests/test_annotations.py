"""Every annotation in ``repro`` resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming something the module never imports is only a string until someone
asks for it — ``typing.get_type_hints`` (dataclass tooling, documentation
builders, runtime type checkers) then raises ``NameError``.  This walks
every module and resolves the hints of each module-level function and
class and of every method a class defines.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith(".__main__"):  # importing one runs its CLI
            yield importlib.import_module(info.name)


def _annotated(module):
    """``(qualified name, object)`` for every function, class and method
    defined in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    unresolved = []
    for module in _modules():
        for name, obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except Exception as exc:  # noqa: BLE001 - report every failure
                unresolved.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not unresolved, "\n".join(unresolved)
