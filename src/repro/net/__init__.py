"""Network substrate: wire messages, loopback transport, secure channel.

Stands in for the sockets + ``sgx_dh`` secure-channel machinery of the
paper's prototype (DESIGN.md §2).
"""

from .channel import ChannelEndpoint, EstablishedChannel, establish
from .framing import FieldReader, FieldWriter
from .messages import (
    ErrorMessage,
    GetRequest,
    GetResponse,
    Message,
    MessageType,
    PutRequest,
    PutResponse,
    decode_message,
    encode_message,
)
from .rpc import RpcClient, RpcServer
from .transport import Endpoint, FaultInjector, Network

__all__ = [
    "ChannelEndpoint",
    "Endpoint",
    "ErrorMessage",
    "EstablishedChannel",
    "FaultInjector",
    "FieldReader",
    "FieldWriter",
    "GetRequest",
    "GetResponse",
    "Message",
    "MessageType",
    "Network",
    "PutRequest",
    "PutResponse",
    "RpcClient",
    "RpcServer",
    "decode_message",
    "encode_message",
    "establish",
]
