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
  module table lists them per package) is a file somewhere in the tree;
* ``python -m repro.bench <name>...`` — every name is an ``EXPERIMENTS``
  key or ``all``; ``python -m repro.simtest --flag...`` — every flag is
  one its argument parser accepts (``<...>`` placeholders and
  ``[``/``|`` option syntax are skipped);
* a backticked ``_NAME`` followed by ``= <integer>`` — a module-level constant of that name in
  ``repro`` holds that integer (every module defining the name agrees).

The public surface is guarded the same way: every name a README code
block or an ``examples/*.py`` file takes from ``repro`` itself
(``from repro import X`` or ``repro.X``; submodules aside) is in
``repro.__all__``, and ``__all__`` holds at most 25 names.

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
from repro.bench import EXPERIMENTS
from repro.simtest.__main__ import build_parser

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
COMMAND = re.compile(r"\bpython3? -m repro\.(bench|simtest)\b(.*)$")
QUOTED_CONSTANT = re.compile(r"`(_[A-Z][A-Z0-9_]*)` = (\d+)(?![\d.])")
CODE_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
FROM_REPRO = re.compile(r"^\s*from repro import (?:\(([^)]*)\)|([^\n]*))", re.M)
REPRO_ATTR = re.compile(r"\brepro\.(\w+)\b(?!\.)")
PUBLIC_LIMIT = 25


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


@pytest.fixture(scope="module")
def constants() -> dict[str, list]:
    """Private upper-case name -> every value a ``repro`` module gives it."""
    found: dict[str, list] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for name, value in vars(importlib.import_module(info.name)).items():
            if QUOTED_CONSTANT.match(f"`{name}` = 0"):
                found.setdefault(name, []).append(value)
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


def _command_words(text: str) -> list[str]:
    return [w for w in re.split(r"[\s\[\]|]+", text) if w and not w.startswith("<")]


def test_commands_resolve():
    flags = build_parser()._option_string_actions
    stale = []
    for document, number, text in _references():
        match = COMMAND.search(text)
        if match is None:
            continue
        words = _command_words(match[2])
        if match[1] == "bench":
            names = []
            for word in words:
                if word.startswith("-"):
                    break
                names.append(word)
            bad = [name for name in names if name not in EXPERIMENTS and name != "all"]
        else:
            bad = [word for word in words if word.startswith("-") and word not in flags]
        if bad:
            stale.append(f"{document}:{number}: `{text}` ({', '.join(bad)})")
    assert not stale, "\n".join(stale)


def test_quoted_constants_hold_their_values(constants):
    stale = []
    for name in DOCUMENTS:
        for number, line in enumerate((ROOT / name).read_text().splitlines(), 1):
            for constant, value in QUOTED_CONSTANT.findall(line):
                held = constants.get(constant, [])
                if not held or any(type(v) is not int or v != int(value) for v in held):
                    stale.append(f"{name}:{number}: `{constant}` = {value} "
                                 f"(the code has {held})")
    assert not stale, "\n".join(stale)


def _names_taken_from_repro():
    """(source, name) for every name a README code block or an example
    takes from the ``repro`` package itself."""
    modules = {info.name for info in pkgutil.iter_modules(repro.__path__)}
    readme = (ROOT / "README.md").read_text()
    sources = [("README.md", block) for block in CODE_BLOCK.findall(readme)]
    sources += [(f"examples/{path.name}", path.read_text())
                for path in sorted((ROOT / "examples").glob("*.py"))]
    for source, text in sources:
        for match in FROM_REPRO.finditer(text):
            for name in re.findall(r"\w+", match[1] or match[2]):
                yield source, name
        for name in REPRO_ATTR.findall(text):
            if name not in modules:
                yield source, name


def test_public_surface_is_what_the_docs_use():
    assert len(repro.__all__) <= PUBLIC_LIMIT, sorted(repro.__all__)
    missing = sorted({f"{source}: {name}" for source, name in _names_taken_from_repro()
                      if name not in repro.__all__})
    assert not missing, "\n".join(missing)
