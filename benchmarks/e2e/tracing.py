"""Outside-in span recorder for the end-to-end benchmark.

The program's source is not edited: :class:`Recorder` swaps timing
wrappers in with ``setattr`` around each layer's public entry points and
restores the originals on exit.  One span is recorded per wrapped call —
name, layer, start, end, the span that caused it, and a request id
shared by every span under one root — and kept in memory until the run
ends.  :func:`aggregate` turns the spans into per-layer *self* time: a
span's duration minus the part of it its child spans cover.

(The ISSUE names this file ``trace.py``; it is ``tracing.py`` because
``run.py`` is started as a script, which puts this directory first on
``sys.path`` where a ``trace.py`` would shadow the standard library's
``trace`` module for the whole process.)
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import NamedTuple

#: Aggregation labels, outermost first.  ``net`` is split in two so the
#: channel's own cost (sequence numbers, record framing) is told apart
#: from the RPC plumbing; the AEAD itself is a ``crypto`` child of both.
LABELS = (
    "session", "core", "sgx", "crypto", "net.channel", "net.rpc",
    "cluster", "engine", "store", "durable",
)

_CLIENT_SURFACE = (
    "call", "submit", "wait", "call_batch", "submit_gets", "wait_gets",
    "submit_puts", "wait_puts", "send_oneway", "send_oneway_batch",
    "drain_responses",
)


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _targets() -> list[tuple]:
    """``(label, owner, attribute, payload_arg)`` per wrapped entry point.

    ``owner`` is a class (the attribute is a method) or a module (a
    function, patched in every ``repro`` module that imported it by
    name).  ``payload_arg`` is the positional index of the argument
    whose length is recorded as the span's ``bytes`` (AEAD payloads).
    """
    from repro.cluster.ring import ShardRing
    from repro.cluster.router import ClusterRouter
    from repro.core.description import TrustedLibraryRegistry
    from repro.core.runtime import DedupRuntime
    from repro.core.scheme import CrossAppScheme
    from repro.core.serialization import Parser
    from repro.crypto import gcm, hashes
    from repro.durable import checkpoint, recovery
    from repro.durable.wal import DurableLog
    from repro.engine import PipelineEngine
    from repro.net.channel import ChannelEndpoint
    from repro.net.rpc import RpcClient, RpcServer
    from repro.net.transport import Network
    from repro.session import Session
    from repro.sgx.enclave import Enclave
    from repro.store.blobstore import BlobStore
    from repro.store.resultstore import ResultStore

    def methods(label, owner, *names):
        return [(label, owner, name, None) for name in names]

    targets = [
        *methods("session", Session, "execute", "execute_many",
                 "execute_many_results", "flush_puts", "power_fail_shard"),
        *methods("core", DedupRuntime, "execute_result", "execute_many_results",
                 "flush_puts", "drain_put_batch"),
        *methods("core", CrossAppScheme, "protect", "recover"),
        *methods("core", TrustedLibraryRegistry, "function_identity"),
        *methods("sgx", Enclave, "seal", "unseal", "touch"),
        ("crypto", gcm.AesGcm, "encrypt", 2),
        ("crypto", gcm.AesGcm, "decrypt", 2),
        *methods("crypto", gcm, "seal", "open_"),
        *methods("crypto", hashes, "sha256", "tagged_hash"),
        *methods("net.channel", ChannelEndpoint, "protect", "unprotect"),
        *methods("net.rpc", RpcClient, *_CLIENT_SURFACE),
        *methods("net.rpc", RpcServer, "pump"),
        *methods("net.rpc", Network, "deliver"),
        *methods("cluster", ClusterRouter, *_CLIENT_SURFACE),
        *methods("cluster", ShardRing, "read_owners", "write_owners"),
        *methods("engine", PipelineEngine, "run_gets", "run_puts", "settle"),
        *methods("store", ResultStore, "pump", "recover"),
        *methods("store", BlobStore, "put", "get"),
        *methods("durable", DurableLog, "append_put", "append_remove", "commit",
                 "install_checkpoint"),
        # Not in the ISSUE's list, but sealing the image is where a
        # checkpoint's time goes; without it that time reads as store self.
        *methods("durable", checkpoint, "take_checkpoint"),
        *methods("durable", recovery, "recover_store"),
    ]
    for parser in _subclasses(Parser):
        targets += methods(
            "core", parser, *(n for n in ("encode", "decode") if n in vars(parser))
        )
    return targets


class Span(NamedTuple):
    span_id: int
    parent_id: int      # 0 for a root
    request_id: int     # shared by all spans under one root
    target: int         # index into Recorder.names
    start_ns: int
    end_ns: int
    payload_bytes: int


class Recorder:
    """Installs the wrappers on ``__enter__`` and removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.names: list[tuple[str, str]] = []   # target -> (label, name)
        self._stack: list[tuple[int, int]] = []  # (span id, request id)
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        for label, owner, attribute, payload_arg in _targets():
            original = vars(owner)[attribute]
            owner_name = getattr(owner, "__qualname__", owner.__name__.rpartition(".")[2])
            self.names.append((label, f"{owner_name}.{attribute}"))
            wrapper = self._wrap(original, len(self.names) - 1, payload_arg)
            if isinstance(owner, type):
                holders = [(owner, attribute)]
            else:
                # ``from .hashes import sha256`` binds the function in the
                # importer's namespace too; swap every such reference.
                holders = [
                    (module, name)
                    for module in list(sys.modules.values())
                    if getattr(module, "__name__", "").partition(".")[0] == "repro"
                    for name, value in list(vars(module).items())
                    if value is original
                ]
            for holder, name in holders:
                self._patched.append((holder, name, original))
                setattr(holder, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _wrap(self, function, target: int, payload_arg: int | None):
        spans, stack, ids, requests = self.spans, self._stack, self._ids, self._requests

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if stack:
                parent_id, request_id = stack[-1]
            else:
                parent_id, request_id = 0, next(requests)
            span_id = next(ids)
            payload = len(args[payload_arg]) if payload_arg is not None else 0
            stack.append((span_id, request_id))
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(
                    Span(span_id, parent_id, request_id, target, start, end, payload)
                )

        return wrapper

    def dump(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as out:
            for span in self.spans:
                label, name = self.names[span.target]
                out.write(json.dumps({
                    "id": span.span_id, "parent": span.parent_id,
                    "request": span.request_id, "layer": label, "name": name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "bytes": span.payload_bytes,
                }) + "\n")


@dataclass
class Aggregate:
    self_ns: dict[str, int]     # label -> summed self time
    root_ns: int                # summed duration of root spans
    roots: int
    aead_calls: int
    aead_bytes: int
    longest_ns: dict[str, int]  # span name -> longest single span

    @property
    def residual_share(self) -> float:
        """How far the per-label self times are from adding up to the
        root spans (0 when every span nests properly)."""
        if not self.root_ns:
            return 0.0
        return abs(self.root_ns - sum(self.self_ns.values())) / self.root_ns


def aggregate(spans: list[Span], names: list[tuple[str, str]]) -> Aggregate:
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent_id:
            covered[span.parent_id] += span.end_ns - span.start_ns
    agg = Aggregate(dict.fromkeys(LABELS, 0), 0, 0, 0, 0, defaultdict(int))
    for span in spans:
        label, name = names[span.target]
        duration = span.end_ns - span.start_ns
        agg.self_ns[label] += duration - covered.get(span.span_id, 0)
        agg.longest_ns[name] = max(agg.longest_ns[name], duration)
        if not span.parent_id:
            agg.root_ns += duration
            agg.roots += 1
        if name in ("AesGcm.encrypt", "AesGcm.decrypt"):
            agg.aead_calls += 1
            agg.aead_bytes += span.payload_bytes
    return agg
