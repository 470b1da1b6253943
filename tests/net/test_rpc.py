"""RPC layer: sync calls, one-way PUTs, error surfacing."""

import pytest

from repro.errors import ProtocolError, TransportError
from repro.net.messages import (
    ErrorMessage,
    GetRequest,
    GetResponse,
    PutRequest,
    PutResponse,
)
from repro.net.rpc import RpcClient, RpcServer
from repro.net.transport import FaultInjector, Network
from repro.sgx.cost_model import SimClock

from .conftest import plain_channel_pair


def make_rpc(handler, fault_injector=None):
    clock = SimClock()
    net = Network(fault_injector=fault_injector)
    client_ep = net.endpoint("client", clock)
    server_ep = net.endpoint("server", clock)
    client_chan, server_chan = plain_channel_pair(clock, b"rpc-test")
    server = RpcServer(server_ep, server_chan, handler)
    net.set_reactor("server", server)
    client = RpcClient(client_ep, client_chan, "server")
    return client, server


class TestCalls:
    def test_request_response(self):
        def handler(msg):
            assert isinstance(msg, GetRequest)
            return GetResponse(found=False)

        client, server = make_rpc(handler)
        response = client.call(GetRequest(tag=b"\x01" * 32))
        assert response == GetResponse(found=False)
        assert server.requests_served == 1

    def test_handler_exception_becomes_error(self):
        def handler(msg):
            raise RuntimeError("store exploded")

        client, _ = make_rpc(handler)
        with pytest.raises(ProtocolError, match="store exploded"):
            client.call(GetRequest(tag=b"\x01" * 32))

    def test_error_message_raises_client_side(self):
        client, _ = make_rpc(lambda msg: ErrorMessage(code=418, detail="teapot"))
        with pytest.raises(ProtocolError, match="teapot"):
            client.call(GetRequest(tag=b""))

    def test_dropped_request_raises_transport_error(self):
        client, _ = make_rpc(
            lambda msg: GetResponse(found=False),
            fault_injector=FaultInjector(drop_indices={0}),
        )
        with pytest.raises(TransportError):
            client.call(GetRequest(tag=b""))


class TestOneWay:
    def test_send_and_drain(self):
        client, _ = make_rpc(lambda msg: PutResponse(accepted=True))
        put = PutRequest(tag=b"t" * 32, challenge=b"r" * 32,
                         wrapped_key=b"k" * 16, sealed_result=b"blob")
        client.send_oneway(put)
        client.send_oneway(put)
        responses = client.drain_responses()
        assert responses == [PutResponse(accepted=True)] * 2

    def test_drain_empty(self):
        client, _ = make_rpc(lambda msg: PutResponse(accepted=True))
        assert client.drain_responses() == []


class TestEnclaveWrapped:
    def test_wrap_factory_charges_transitions(self):
        from repro.sgx.platform import SgxPlatform

        platform = SgxPlatform(seed=b"rpc-enclave")
        enclave = platform.create_enclave("svc", b"svc-code")
        net = Network()
        client_ep = net.endpoint("client", platform.clock)
        server_ep = net.endpoint("server", platform.clock)
        client_chan, server_chan = plain_channel_pair(platform.clock, b"x")
        server = RpcServer(
            server_ep, server_chan, lambda msg: GetResponse(found=False),
            wrap_factory=lambda name, in_bytes: enclave.ecall(name, in_bytes=in_bytes),
        )
        net.set_reactor("server", server)
        client = RpcClient(client_ep, client_chan, "server")
        client.call(GetRequest(tag=b"\x00" * 32))
        assert enclave.ecall_count == 1


class TestAttachReactor:
    def test_attach_reactor_helper(self):
        clock = SimClock()
        net = Network()
        client_ep = net.endpoint("c", clock)
        server_ep = net.endpoint("s", clock)
        client_chan, server_chan = plain_channel_pair(clock, b"attach")
        server = RpcServer(server_ep, server_chan, lambda msg: GetResponse(found=False))
        net.set_reactor("s", server)  # it drains its inbox whenever a message lands
        client = RpcClient(client_ep, client_chan, "s")
        assert client.call(GetRequest(tag=b"")) == GetResponse(found=False)
