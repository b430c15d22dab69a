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

# lowered by 1 from 16: EntropyValue.finite is derived from value, no longer a field
DEFAULTED_LIMIT = 15
# lines of src/qdecay/*.py, as `cat src/qdecay/*.py | wc -l` counts them; lowered by 26
# from 2652 for one commuting-state converse: -19 in bounds.py, where the mutual-information
# check runs classical_converse_check under Id x E; -13 in cli.py for one error path in
# main; -1 in entropy.py for the derived EntropyValue.finite; +3 in channels.py and +4 in
# verify.py for the range checks on replacement_lindbladian and on the sample count
SRC_LINE_LIMIT = 2626


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
