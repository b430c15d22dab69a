"""Every defaulted parameter and defaulted dataclass field is a setting that
tests and benchmarks have to cover, and every line of the package is code to
read.  These tests fix both numbers: a change that adds a setting raises
DEFAULTED_LIMIT, and one that grows the package past SRC_LINE_LIMIT raises
that, in the same diff, and says why."""

import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import qdecay

# lowered by 6 from 15: the four d = 2 defaults of the oracles that moved to
# tests/oracles.py, and g_factor's variant and flagged_channel's noise, which every
# caller now passes
DEFAULTED_LIMIT = 9
# lines of src/qdecay/*.py, as `cat src/qdecay/*.py | wc -l` counts them; raised by 20
# from 2500 when the fragility demo became the Holevo quantity on d x d states: +9 in
# experiments.py for the rewrite, 8 of them its docstring's Holevo identity and i_pre
# closed form, +9 in experiments.py for the integer dim and points checks and +2 in
# bounds.py for the empty-variants check
SRC_LINE_LIMIT = 2520


def _defaulted_settings() -> list:
    """Qualified names of the parameters with a default of qdecay's module
    functions and methods, and of its dataclass fields with a default (the
    generated __init__ is not counted again)."""
    out = []
    for info in pkgutil.iter_modules(qdecay.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"qdecay.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    out += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                            if f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING]
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(member) and not (
                            attr == "__init__" and dataclasses.is_dataclass(obj)):
                        funcs.append((f"{name}.{attr}", member))
            out += [f"{fname}:{p.name}" for fname, f in funcs
                    for p in inspect.signature(f).parameters.values()
                    if p.default is not inspect.Parameter.empty]
    return out


def test_defaulted_settings_do_not_grow():
    found = _defaulted_settings()
    assert len(found) == len(set(found))
    assert len(found) <= DEFAULTED_LIMIT, "\n".join(found)


def test_src_lines_do_not_grow():
    files = sorted(Path(qdecay.__file__).parent.glob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    assert lines <= SRC_LINE_LIMIT, f"{lines} lines in {len(files)} files"


def test_package_exports_only_its_version_and_modules():
    # callers import the modules (from qdecay import entropy): one import path per name
    for info in pkgutil.iter_modules(qdecay.__path__):
        if info.name != "__main__":
            importlib.import_module(f"qdecay.{info.name}")
    bound = {name: obj for name, obj in vars(qdecay).items() if not name.startswith("__")}
    assert qdecay.__version__
    assert all(isinstance(obj, types.ModuleType) and obj.__name__ == f"qdecay.{name}"
               for name, obj in bound.items()), sorted(bound)
