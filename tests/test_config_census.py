"""The option census: every settable value has a caller outside the tests.

An option that only a test selects is a second design kept alive for its
own test.  The census reads the source with :mod:`ast` and counts every
independently settable value: each public field of a ``@dataclass`` in
``src/repro`` whose name ends in ``Config``, ``Policy`` or ``Params``,
and each keyword parameter of :func:`repro.connect` and
:meth:`repro.session.Session.enable_pipeline`.  ``src/repro/apps/`` is
left out: its ``SiftConfig``, ``PyramidConfig`` and ``DetectorConfig``
hold the SIFT algorithm's published parameters, not deployment options.

A value has a caller when some program file — under ``src/repro``,
``examples`` or ``benchmarks``, and not a test — passes it by keyword to
its class, to ``dataclasses.replace`` or to its function.  Every value
without one is in :data:`ALLOWLIST` with the reason it stays; an entry
that names a value that no longer exists, or that now has a caller,
fails too, so the list only shrinks.

``python -c "from tests.test_config_census import summary; print(summary())"``
prints the counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: The program files outside the package (tests excluded).
PROGRAM_ROOTS = (ROOT / "examples", ROOT / "benchmarks")
#: Where a value's callers may live (tests excluded).
CALLER_ROOTS = (SRC, *PROGRAM_ROOTS)
#: The dataclasses counted are named ``*Config``, ``*Policy`` or ``*Params``.
SUFFIXES = ("Config", "Policy", "Params")
#: The functions whose keyword parameters are counted: name -> (module, class).
FUNCTIONS = {"connect": ("session.py", None), "enable_pipeline": ("session.py", "Session")}

_COST = "a calibrated cost constant; which ones stay is ROADMAP item 16"
_SECURITY = "a security switch only tests flip: each guards an attack a test mounts"
ALLOWLIST = {
    **{f"CostParams.{name}": _COST for name in (
        "aead_dec_cycles_per_byte", "aead_dec_fixed_cycles", "aead_enc_cycles_per_byte",
        "aead_enc_fixed_cycles", "cpu_freq_hz", "ecall_cycles", "hash_cycles_per_byte",
        "hash_fixed_cycles", "hotcall_cycles", "keygen_fixed_cycles",
        "marshal_cycles_per_byte", "net_cycles_per_byte", "net_fixed_cycles", "ocall_cycles",
        "page_fault_cycles", "page_size",
    )},
    "StoreConfig.verify_blob_digest": _SECURITY,
    "StoreConfig.strict_rollback": _SECURITY,
    "QuotaPolicy.max_bytes_per_app": _SECURITY,
    "QuotaPolicy.puts_per_second": _SECURITY,
    "QuotaPolicy.burst": _SECURITY,
    "AuthorizationPolicy.open_admission": _SECURITY,
    "AuthorizationPolicy.allowed_mrenclaves": _SECURITY,
    "AuthorizationPolicy.allowed_mrsigners": _SECURITY,
    "StoreConfig.recency_log_interval": (
        "deleting it removes the REC_TOUCH WAL record and re-pins the WAL layout, "
        "which ROADMAP item 13 re-pins once anyway"
    ),
}


def _program_files(roots=CALLER_ROOTS):
    """Every ``.py`` file under ``roots`` that is not a test."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.parts and not path.name.startswith("test_"):
                yield path


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _not_in_init(value) -> bool:
    """``field(..., init=False)``: set by the class itself, not by a caller."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def _fields(node: ast.ClassDef) -> list[str]:
    return [
        stmt.target.id
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_")
        and "ClassVar" not in ast.unparse(stmt.annotation)
        and not _not_in_init(stmt.value)
    ]


def _parameters(node: ast.FunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in (*args.args, *args.kwonlyargs) if a.arg != "self"]


def settable_values() -> dict[str, set[str]]:
    """Every counted value, ``"Owner.name"`` -> where it is declared."""
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        if "apps" in path.relative_to(SRC).parts:
            continue
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.ClassDef) and node.name.endswith(SUFFIXES)
                    and _is_dataclass(node)):
                owners[node.name] = _fields(node)
    for name, (module, cls) in FUNCTIONS.items():
        tree = _parse(SRC / module)
        scope = tree.body if cls is None else next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls
        ).body
        (func,) = [n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name]
        owners[name] = _parameters(func)
    return {f"{owner}.{field}" for owner, fields in owners.items() for field in fields}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        # ``store.connect(...)`` is another function; only ``repro.connect``
        # (or a bare imported ``connect``) is the session's.
        if func.attr == "connect" and getattr(func.value, "id", None) != "repro":
            return None
        return func.attr
    return None


def called_values(values: set[str]) -> set[str]:
    """The values some program file passes by keyword."""
    by_owner: dict[str, set[str]] = {}
    for value in values:
        owner, name = value.split(".")
        by_owner.setdefault(owner, set()).add(name)
    called = set()
    for path in _program_files():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee(node)
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if callee == "replace":
                owners = list(by_owner)  # any counted dataclass may be the one replaced
            elif callee in by_owner:
                owners = [callee]
            else:
                continue
            called |= {f"{o}.{k}" for o in owners for k in keywords & by_owner[o]}
    return called


def summary() -> str:
    values = settable_values()
    return (
        f"config census: {len(values)} settable values, "
        f"{len(values & ALLOWLIST.keys())} allowlisted without a caller"
    )


def test_every_settable_value_has_a_caller_or_a_reason():
    values = settable_values()
    uncalled = values - called_values(values) - ALLOWLIST.keys()
    assert not uncalled, (
        f"{len(uncalled)} settable values are passed by keyword in no file outside the "
        f"tests: {sorted(uncalled)}.  Delete each (or make it a module constant if the "
        f"program reads it), or give it a caller; tests/test_config_census.py's "
        f"ALLOWLIST is for values that stay for a stated reason."
    )


def test_the_allowlist_names_only_live_values_without_callers():
    values = settable_values()
    gone = ALLOWLIST.keys() - values
    assert not gone, f"allowlisted values that no longer exist: {sorted(gone)}"
    called = ALLOWLIST.keys() & called_values(values)
    assert not called, f"allowlisted values that now have a caller: {sorted(called)}"
