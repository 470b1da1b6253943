"""The definition census: every definition in ``src/repro`` is reached by a program.

The option census (:mod:`tests.test_config_census`) keeps a value from
living on for its own test; this one does the same for code.  A
*definition* is every module-level function, class and constant in
``src/repro`` and every method of such a class (dunders and ``__all__``
aside).  It is *reached* when a reached place refers to its name: a
``Name``, an ``Attribute``, a keyword argument, or an identifier-shaped
string constant (the router dispatches to a shard client by method name).
The places reached from the start:

* every statement at module level or in a class body that is not itself a
  definition, an import or ``__all__`` (a loop that fills a table, a
  registration, a dataclass field's default);
* every program file under ``examples/`` and ``benchmarks/`` (the option
  census's walker, tests excluded);
* every definition under a registering decorator (:data:`REGISTRATIONS`),
  every function named ``main`` and every module-level dunder.

A method is reached when its name is and its class is (it is called on an
instance); a class's dunders are reached with the class.

A reached definition's body is followed in turn, to a fixpoint, so a chain
that only a test enters is flagged link by link.  A statement that only
mutates a constant (``TABLE[i] = ...``) belongs to that constant, and an
``import x as y`` makes a reference to ``y`` one to ``x``.  Matching is by
name only: a name collision keeps a definition alive, so the census can
miss a dead definition but never flags a live one.

Every flagged definition is deleted, moved into ``tests/`` if it is an
oracle the tests compare against, or listed in :data:`ALLOWLIST` with the
reason it stays; an entry that names a missing definition, or one that is
now reached, fails too, so the list only shrinks.

``python -c "from tests.test_definition_census import summary; print(summary())"``
prints the counts.
"""

from __future__ import annotations

import ast
import functools
import re
import time
from pathlib import Path
from typing import NamedTuple

from tests.test_config_census import PROGRAM_ROOTS, SRC, _parse, _program_files

#: Decorators that register what they decorate where a program finds it.
REGISTRATIONS = {"experiment", "_regenerated_as", "mark"}
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")

_ATTACKER = (
    "the security tests' attacker API: what a compromised host or a network "
    "attacker does to the store, the wire or the protocol; no program mounts an attack"
)
#: Definitions no program reaches that stay: qualname -> the reason.
#: Entries whose reason starts "unused:" are dead code still awaiting
#: deletion together with the tests that check only them.
ALLOWLIST = {
    **{f"security.adversary.{name}": _ATTACKER for name in (
        "HostAdversary.save", "HostAdversary.put_back", "HostAdversary.truncate",
        "HostAdversary.exchange", "WireTapAdversary", "QueryForgingAdversary",
        "QueryForgingAdversary.attack", "BruteForceAdversary",
        "BruteForceAdversary.attack_with_challenge",
        "BruteForceAdversary.attack_without_challenge",
    )},
    **{f"baselines.unic.UnicStore.{name}": (
        "the UNIC baseline's attacker view: a host reading or rewriting plaintext "
        "memoized results, which the security comparison's tests mount"
    ) for name in ("leak", "overwrite")},
    "apps.compress.stream.DeflateStream": (
        "unused: the compression case study's incremental form; delete the module "
        "with tests/apps/test_stream.py (10 tests)"
    ),
    "apps.compress.stream.inflate_stream": "unused: see DeflateStream",
    "crypto.mle.ConvergentEncryption": (
        "unused: the generic MLE schemes core.scheme specialises; delete the module "
        "with tests/crypto/test_mle.py and test_properties.py's CE / RCE classes (16 tests)"
    ),
    "crypto.mle.RandomizedConvergentEncryption": "unused: see ConvergentEncryption",
    **{f"obs.exporters.{name}": (
        "unused: span JSON lines and the metrics table; delete with the three "
        "tests in tests/obs/test_exporters.py that check only them"
    ) for name in ("spans_to_jsonl", "write_spans_jsonl", "format_metrics")},
    "obs.metrics.Histogram.observe": (
        "unused: no component records into a histogram; delete Histogram, "
        "MetricsRegistry.histogram and the four tests that check only them"
    ),
    "obs.tracer.Tracer.reset": "unused: delete with test_reset_clears_spans_and_totals",
    "sgx.cost_model.SimClock.reset": "unused: delete with TestSimClock.test_reset",
    "sgx.platform.SgxPlatform.destroy_enclave": (
        "unused: no program tears an enclave down; delete it, Enclave.destroy, "
        "EpcManager.release_enclave and Enclave._destroyed's checks with their "
        "seven lifecycle tests"
    ),
}


class Definition(NamedTuple):
    name: str
    #: Where it lives, module path from ``repro`` on: ``crypto.aes.AES128.encrypt_block``.
    qualname: str
    #: The names its body refers to, followed once it is reached.
    refs: frozenset[str]
    #: Reached from the start.
    root: bool
    #: The enclosing class's qualname, for a method.
    owner: str | None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registered(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) in REGISTRATIONS:
            return True
    return False


def _references(nodes) -> frozenset[str]:
    """Every name the nodes refer to."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.AugAssign):  # ``x += 1`` reads ``x``
                names.add(getattr(node.target, "id", getattr(node.target, "attr", "")))
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
            elif isinstance(node, ast.keyword):
                if node.arg is not None:
                    names.add(node.arg)
            elif isinstance(node, ast.Constant):
                if isinstance(node.value, str) and _IDENTIFIER.match(node.value):
                    names.add(node.value)
    return frozenset(names)


def _stored(target: ast.expr) -> list[str] | None:
    """The names a plain binding target stores, or ``None`` for any other target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names = [_stored(elt) for elt in target.elts]
        return None if None in names else [name for part in names for name in part]
    return None


def _mutated(target: ast.expr) -> str | None:
    """``X`` for a target ``X[...]`` or ``X.attr``."""
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    return target.id if isinstance(target, ast.Name) else None


def _scan_class(node: ast.ClassDef, prefix: str, owner, defs: list, roots: list) -> None:
    qualname = prefix + node.name
    header = [*node.bases, *node.keywords, *node.decorator_list]
    defs.append(Definition(node.name, qualname, _references(header), _registered(node), owner))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append(Definition(stmt.name, f"{qualname}.{stmt.name}", _references([stmt]),
                                   _registered(stmt) or stmt.name == "main", qualname))
        elif isinstance(stmt, ast.ClassDef):
            _scan_class(stmt, qualname + ".", qualname, defs, roots)
        else:
            roots.append(stmt)


def scan_module(tree: ast.Module, module: str) -> tuple[list[Definition], list[ast.AST]]:
    """A module's definitions and its root statements."""
    defs: list[Definition] = []
    roots: list[ast.AST] = []
    constants: dict[str, list[ast.AST]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            root = _registered(stmt) or stmt.name == "main" or _is_dunder(stmt.name)
            defs.append(Definition(stmt.name, f"{module}.{stmt.name}", _references([stmt]),
                                   root, None))
        elif isinstance(stmt, ast.ClassDef):
            _scan_class(stmt, f"{module}.", None, defs, roots)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            stored = [_stored(t) for t in targets]
            mutated = {_mutated(t) for t in targets}
            if None not in stored:
                for name in {name for names in stored for name in names} - {"__all__"}:
                    constants.setdefault(name, []).append(stmt)
            elif len(mutated) == 1 and None not in mutated:
                constants.setdefault(mutated.pop(), []).append(stmt)
            else:
                roots.append(stmt)
        else:
            roots.append(stmt)
    for name, stmts in constants.items():
        defs.append(Definition(name, f"{module}.{name}", _references(stmts),
                               _is_dunder(name), None))
    return defs, roots


def _aliases(trees) -> dict[str, set[str]]:
    """``as`` name -> the imported names it stands for."""
    aliases: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases.setdefault(alias.asname, set()).add(alias.name.split(".")[-1])
    return aliases


@functools.cache
def scan(src: Path = SRC, programs: tuple[Path, ...] = PROGRAM_ROOTS):
    """``(definitions, names the roots refer to, import aliases)``."""
    defs: list[Definition] = []
    roots: list[ast.AST] = []
    trees = []
    for path in sorted(src.rglob("*.py")):
        trees.append(_parse(path))
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module_defs, module_roots = scan_module(trees[-1], module)
        defs += module_defs
        roots += module_roots
    for path in _program_files(programs):
        trees.append(_parse(path))
        roots.append(trees[-1])
    return defs, _references(roots), _aliases(trees)


def census(src: Path = SRC, programs: tuple[Path, ...] = PROGRAM_ROOTS,
           kept: frozenset[str] = frozenset()) -> tuple[list[Definition], set[str]]:
    """Every definition under ``src`` and the qualnames of those reached,
    with the ``kept`` qualnames reached from the start too."""
    defs, root_refs, aliases = scan(src, programs)
    by_name: dict[str, list[Definition]] = {}
    waiting: dict[str, list[Definition]] = {}  # class -> its dunders and methods named so far
    for d in defs:
        by_name.setdefault(d.name, []).append(d)
        if d.owner is not None and _is_dunder(d.name):
            waiting.setdefault(d.owner, []).append(d)

    reached: set[str] = set()
    queue = [d for d in defs if d.root or d.qualname in kept]
    seen: set[str] = set()
    new = set(root_refs)
    while new or queue:
        while new:  # the names first referred to, and what their aliases stand for
            seen |= new
            for name in new:
                queue += by_name.get(name, ())
            new = {target for name in new for target in aliases.get(name, ())} - seen
        while queue:
            d = queue.pop()
            if d.qualname in reached:
                continue
            if d.owner is not None and d.owner not in reached and d.qualname not in kept:
                # A method is called on an instance, so on a reached class.
                waiting.setdefault(d.owner, []).append(d)
                continue
            reached.add(d.qualname)
            new |= d.refs - seen
            queue += waiting.pop(d.qualname, ())
    return defs, reached


def unreached(src: Path = SRC, programs: tuple[Path, ...] = PROGRAM_ROOTS,
              kept: frozenset[str] = frozenset()) -> list[str]:
    """The qualnames of the definitions no program reaches (dunders aside)."""
    defs, reached = census(src, programs, kept)
    return sorted(d.qualname for d in defs
                  if d.qualname not in reached and not _is_dunder(d.name))


def summary() -> str:
    defs, _ = census()
    return (
        f"definitions census: {sum(not _is_dunder(d.name) for d in defs)} definitions, "
        f"{len(ALLOWLIST)} allowlisted"
    )


def test_every_definition_is_reached_by_a_program_or_has_a_reason():
    start = time.perf_counter()
    flagged = unreached(kept=frozenset(ALLOWLIST))
    assert not flagged, (
        f"{len(flagged)} definitions in src/repro are reached from no program (only from "
        f"tests, or from nothing): {sorted(flagged)}.  Delete each with the tests that "
        f"check only it, move an oracle the tests compare against into tests/, or list it "
        f"in tests/test_definition_census.py's ALLOWLIST with the reason it stays."
    )
    assert time.perf_counter() - start < 2.0, "the census takes 2 s or more"


def test_the_allowlist_names_only_live_unreached_definitions():
    defs, reached = census()
    gone = ALLOWLIST.keys() - {d.qualname for d in defs}
    assert not gone, f"allowlisted definitions that no longer exist: {sorted(gone)}"
    now_reached = ALLOWLIST.keys() & reached
    assert not now_reached, (
        f"allowlisted definitions that a program now reaches: {sorted(now_reached)}"
    )
    assert all(reason.strip() for reason in ALLOWLIST.values())


# -- the census on a tree of its own -----------------------------------------
CENSUS_MODULE = '''
import sys

LIMIT = 3
TABLE = [0] * 4
TABLE[1] = LIMIT  # belongs to TABLE: LIMIT lives only if TABLE does


def experiment(name):
    return lambda func: func


@experiment("fig")
def registered():
    return _helper_of_registered()


def _helper_of_registered():
    return 1


def dispatched():
    return 2


def called_by_example():
    return 3


def only_a_test_calls_this():
    return _next_link()


def _next_link():
    return TABLE


class Built:
    def __init__(self):
        self.value = _from_dunder()

    def run(self):
        return 4

    def never_named(self):
        return 5


class NeverBuilt:
    def run(self):
        return _only_under_never_built()


def _only_under_never_built():
    return 6


def _from_dunder():
    return 7


def main():
    getattr(sys.modules[__name__], "dispatched")()
    return Built().run()
'''


def _tree(tmp_path: Path) -> tuple[Path, tuple[Path, ...]]:
    src, examples, tests = tmp_path / "src", tmp_path / "examples", tmp_path / "tests"
    for folder in (src, examples, tests):
        folder.mkdir()
    (src / "mod.py").write_text(CENSUS_MODULE)
    (examples / "demo.py").write_text("from mod import called_by_example\ncalled_by_example()\n")
    (tests / "test_mod.py").write_text(
        "from mod import only_a_test_calls_this\nonly_a_test_calls_this()\n"
    )
    return src, (examples,)


def test_the_census_flags_what_only_tests_reach_and_nothing_a_program_reaches(tmp_path):
    src, programs = _tree(tmp_path)
    assert unreached(src, programs) == [
        "mod.Built.never_named",        # a method nothing names
        "mod.LIMIT",                    # reached only through TABLE's dead mutation
        "mod.NeverBuilt",               # its method's name is live, the class is not
        "mod.NeverBuilt.run",
        "mod.TABLE",
        "mod._next_link",               # the second link of a test-only chain
        "mod._only_under_never_built",
        "mod.only_a_test_calls_this",   # only a test calls it
    ]


def test_an_allowlisted_definition_keeps_what_it_calls(tmp_path):
    src, programs = _tree(tmp_path)
    kept = frozenset({"mod.only_a_test_calls_this"})
    assert unreached(src, programs, kept) == [
        "mod.Built.never_named", "mod.NeverBuilt", "mod.NeverBuilt.run",
        "mod._only_under_never_built",
    ]
