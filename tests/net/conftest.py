"""Shared helpers for the network-layer tests."""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg
from repro.net.channel import ChannelEndpoint


def plain_channel_pair(clock, seed: bytes) -> tuple[ChannelEndpoint, ChannelEndpoint]:
    """A client/server channel pair on session keys drawn from ``seed``,
    without the attested handshake."""
    drbg = HmacDrbg(seed, b"store/plain-channel")
    k_c2s, k_s2c = drbg.generate(16), drbg.generate(16)
    client = ChannelEndpoint(clock, send_key=k_c2s, recv_key=k_s2c, label=0)
    server = ChannelEndpoint(clock, send_key=k_s2c, recv_key=k_c2s, label=1)
    return client, server
