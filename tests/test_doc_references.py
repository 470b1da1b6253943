"""The prose names what the tree holds.

Every backticked reference in README.md, DESIGN.md, EXPERIMENTS.md and
the verify skill is resolved against the code, so a rename or a deletion
cannot leave a sentence behind:

* ``Class.attr`` — when ``Class`` is defined somewhere in ``repro``, the
  attribute resolves by ``getattr`` on (one of) the class(es) of that
  name; dataclass fields count, ``*`` globs over the class's names, and
  trailing ``(...)`` call text is ignored;
* ``repro.x.y`` — imports, or is an attribute of the module before it;
* a relative path with a known suffix — exists under the repo root,
  ``src/``, ``src/repro/`` or ``tests/``; a bare file name (DESIGN's
  module table lists them per package) is a file somewhere in the tree.

Names the documents mention on purpose *because* they are gone (a
deleted shim, an output file a command writes) carry a placeholder or
are not backticked as a reference; the test has no allow-list.
"""

import dataclasses
import fnmatch
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
)
PATH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "tests")
PATH_SUFFIXES = (".py", ".md", ".sh", ".json", ".yml", ".toml")

BACKTICKED = re.compile(r"`([^`\n]+)`")
CLASS_ATTR = re.compile(r"^([A-Z]\w*)\.([A-Za-z_][\w*]*)(?:\(.*\))?$")
DOTTED_MODULE = re.compile(r"^repro(?:\.\w+)+$")
RELATIVE_PATH = re.compile(r"^[\w.-]+(?:/[\w.-]+)*$")


def _references():
    """(document, line number, backticked text) for every reference."""
    for name in DOCUMENTS:
        lines = (ROOT / name).read_text().splitlines()
        for number, line in enumerate(lines, 1):
            for text in BACKTICKED.findall(line):
                yield name, number, text.strip()


@pytest.fixture(scope="module")
def classes() -> dict[str, list[type]]:
    """Class name -> every class of that name defined in ``repro``."""
    found: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # entry points parse argv on import
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                found.setdefault(name, []).append(cls)
    return found


def _names(cls: type) -> set[str]:
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    return names


def test_class_attributes_resolve(classes):
    stale = []
    for document, number, text in _references():
        match = CLASS_ATTR.match(text)
        if match is None or match[1] not in classes:
            continue
        if not any(
            fnmatch.filter(_names(cls), match[2]) for cls in classes[match[1]]
        ):
            stale.append(f"{document}:{number}: `{text}`")
    assert not stale, "\n".join(stale)


def test_dotted_modules_import():
    stale = []
    for document, number, text in _references():
        if not DOTTED_MODULE.match(text):
            continue
        owner, _, leaf = text.rpartition(".")
        try:
            importlib.import_module(text)
        except ImportError:
            try:
                getattr(importlib.import_module(owner), leaf)
            except (ImportError, AttributeError):
                stale.append(f"{document}:{number}: `{text}`")
    assert not stale, "\n".join(stale)


def test_relative_paths_exist():
    file_names = {path.name for path in ROOT.iterdir()}
    for tree in ("src", "tests", "examples", "benchmarks"):
        file_names.update(path.name for path in (ROOT / tree).rglob("*.*"))
    stale = []
    for document, number, text in _references():
        if not text.endswith(PATH_SUFFIXES) or not RELATIVE_PATH.match(text):
            continue
        if "/" not in text and text in file_names:
            continue
        if not any((root / text).exists() for root in PATH_ROOTS):
            stale.append(f"{document}:{number}: `{text}`")
    assert not stale, "\n".join(stale)
