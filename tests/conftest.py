"""Shared fixtures for the SPEED reproduction test suite."""

from __future__ import annotations

import pytest

from repro import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry
from repro.deployment import Deployment
from repro.store.persistence import snapshot_name


def double_bytes(data: bytes) -> bytes:
    """A trivial deterministic trusted-library function for tests."""
    return data + data


def make_libs() -> TrustedLibraryRegistry:
    libs = TrustedLibraryRegistry()
    libs.register(
        TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_bytes)
    )
    return libs


DOUBLE_DESC = FunctionDescription("testlib", "1.0", "bytes double(bytes)")


def arena_name(store, tag: bytes) -> str:
    """The host name holding the ciphertext ``store`` keeps for ``tag``."""
    return store.blobstore.name(store.metadata_entry(tag).blob_ref)


def quota_usage(quota, app_id: str) -> tuple[int, int]:
    """``(bytes, entries)`` one application holds against its quota."""
    usage = quota._get(app_id)
    return usage.bytes_used, usage.entries


def find_spans(spans, name: str) -> list:
    """The spans named ``name``, in order."""
    return [span for span in spans if span.name == name]


def find_nodes(node, name: str) -> list:
    """Every node of a span tree (``node`` included) whose span is named ``name``."""
    found = [node] if node.span.name == name else []
    for child in node.children:
        found += find_nodes(child, name)
    return found


def carry_snapshot(source, target) -> None:
    """Copy ``source``'s sealed snapshot to ``target``'s host, as an
    operator copies the file to the restarted machine."""
    sealed = source.platform.host.get(snapshot_name(source))
    target.platform.host.put(snapshot_name(target), sealed)


@pytest.fixture
def deployment() -> Deployment:
    return Deployment(seed=b"test-deployment")


@pytest.fixture
def app(deployment):
    return deployment.create_application("test-app", make_libs())


@pytest.fixture
def dedup_double(app):
    return app.deduplicable(DOUBLE_DESC)


