"""The end-to-end benchmark's span recorder still finds every name it wraps.

``benchmarks/e2e/tracing.py`` patches the program's entry points by
``vars(owner)[attribute]``, and some names in ``src/repro`` (the router's
lone-call compositions among them) exist only for it.  A deleted or
renamed target would otherwise surface only when a traced benchmark pass
runs.  The file is loaded by path, unedited, and each ``_targets()``
entry is looked up exactly as ``Recorder.__enter__`` looks it up.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_entry_point_exists():
    missing = []
    for label, owner, attribute, _payload in load_tracing()._targets():
        if attribute not in vars(owner):
            owner_name = getattr(owner, "__qualname__", owner.__name__)
            missing.append(f"{label}: {owner_name}.{attribute}")
    assert not missing, "benchmarks/e2e/tracing.py wraps missing names:\n" + "\n".join(missing)
