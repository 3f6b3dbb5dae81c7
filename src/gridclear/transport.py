"""Round-synchronous message passing between trading agents.

Each market round has two sub-phases: every node announces its selling
price, then every node places its purchase bids (bids can only be computed
once all prices are known). `market.TradingAgent.play_round` is that round
for one node; it talks to a transport through two calls, `post` (send a
list of messages) and `collect` (block until exactly one message of the
given round and kind has arrived from every expected sender, raising on a
missing, unexpected, duplicate or stale one). The loopback keeps all agents
in one process, the TCP transport gives every node its own process and
socket endpoint.

A node posts to each neighbor in the order that neighbor collects (price,
then bids, round after round, in any topology), so the TCP transport reads
each expected peer's stream in order, one frame per collect. A frame from a
sender the node is not collecting from is refused when that peer is next
read. The loopback picks the wanted messages out of a mailbox.

Both transports refuse the same messages: `check` holds the field rules
(kind, u32 round, u16 ids, finite value, no negative bid). `encode` runs it
before packing and `decode` after unpacking. The loopback runs `check` and
files the message object itself; only the TCP transport puts bytes on a
wire.

Wire format, little-endian, 21 bytes per frame:

    len:u32 | round:u32 | sender:u16 | receiver:u16 | kind:u8 | value:f64

where len = 17 counts the bytes after the length field.
"""

from __future__ import annotations

import math
from operator import index
import socket
import struct
import time
from enum import IntEnum
from typing import NamedTuple

__all__ = [
    "MessageKind",
    "Message",
    "TransportError",
    "ProtocolError",
    "check",
    "encode",
    "decode",
    "LoopbackTransport",
    "TcpTransport",
    "FRAME_SIZE",
    "DEFAULT_TIMEOUT",
]

_FRAME = struct.Struct("<IIHHBd")
FRAME_SIZE = _FRAME.size            # 21 bytes on the wire
_PAYLOAD = FRAME_SIZE - 4           # length-field value: 17
DEFAULT_TIMEOUT = 10.0              # seconds


class MessageKind(IntEnum):
    PRICE = 1   # value = sender's selling price, $/MWh
    BID = 2     # value = MWh the sender wants to buy from the receiver


class TransportError(RuntimeError):
    """Lost peer, timeout, or an endpoint misused."""


class ProtocolError(TransportError):
    """A peer violated the round protocol or sent a malformed frame."""


class Message(NamedTuple):
    round: int
    sender: int
    receiver: int
    kind: MessageKind
    value: float


_KINDS = (MessageKind.PRICE, MessageKind.BID)


def check(m: Message) -> None:
    """Raise ValueError unless the message fits a frame and the protocol:
    a known kind, a u32 round, u16 ids, a finite value, no negative bid.
    A round or id that is not an integer raises TypeError."""
    round_no, sender, receiver, kind, value = m
    if kind not in _KINDS:
        raise ValueError(f"invalid message kind {kind!r}")
    if not 0 <= index(round_no) < 2**32:
        raise ValueError(f"round {round_no} out of u32 range")
    if not 0 <= index(sender) < 2**16:
        raise ValueError(f"sender id {sender} out of u16 range")
    if not 0 <= index(receiver) < 2**16:
        raise ValueError(f"receiver id {receiver} out of u16 range")
    if not math.isfinite(value):
        raise ValueError(f"non-finite message value {value}")
    if kind == MessageKind.BID and value < 0.0:
        raise ValueError(f"negative bid {value}")


def encode(m: Message) -> bytes:
    """Serialize a message to its 21-byte frame.

    Raises ValueError on out-of-range fields, non-finite values, or a
    negative bid, TypeError on a non-integer round or id (see `check`);
    bad messages must not reach the wire.
    """
    check(m)
    return _FRAME.pack(_PAYLOAD, m.round, m.sender, m.receiver,
                       int(m.kind), m.value)


def decode(frame: bytes) -> Message:
    """Parse one frame; raises ProtocolError on a wrong length or on a
    field `check` refuses."""
    if len(frame) != FRAME_SIZE:
        raise ProtocolError(f"frame is {len(frame)} bytes, expected {FRAME_SIZE}")
    length, *fields = _FRAME.unpack(frame)
    if length != _PAYLOAD:
        raise ProtocolError(f"length field {length}, expected {_PAYLOAD}")
    try:
        check(fields)
    except ValueError as e:
        raise ProtocolError(str(e)) from None
    round_no, sender, receiver, kind, value = fields
    return Message(round_no, sender, receiver, MessageKind(kind), value)


def _accept(msg: Message, node: int, round_no: int, kind: MessageKind,
            expected: set, got: dict) -> bool:
    """The round protocol for one frame arriving at `node` while it collects
    `kind` messages of `round_no` from `expected` into `got`.

    Files the frame and returns True if it belongs to this collect; returns
    False if it is for a later phase or round (the loopback keeps it in the
    mailbox; TCP refuses it when it heads a peer's stream); raises
    ProtocolError if it is stale, from an unexpected sender, or a
    duplicate.
    """
    if msg.round < round_no:
        raise ProtocolError(
            f"stale round-{msg.round} message at node {node} in round {round_no}")
    if msg.round != round_no or msg.kind != kind:
        return False
    if msg.sender not in expected:
        raise ProtocolError(
            f"unexpected {kind.name} from node {msg.sender} to {node}")
    if msg.sender in got:
        raise ProtocolError(
            f"duplicate {kind.name} from node {msg.sender} to {node}")
    got[msg.sender] = msg
    return True


# ---------------------------------------------------------------------------
# in-process transport
# ---------------------------------------------------------------------------

class LoopbackTransport:
    """Mailbox shared by all agents in one process.

    Every posted message passes the encoder's field checks (`check`), so
    the loopback refuses what the socket transport would refuse, but it is
    filed as it is, without the byte round trip. The wire format is covered
    by the TCP transport and its tests.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"need at least one node, got {m}")
        self.m = m
        self._mailboxes = [[] for _ in range(m)]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.m:
            raise TransportError(f"no such node {node}")

    def post(self, messages) -> None:
        mailboxes = self._mailboxes
        for msg in messages:
            self._check_node(msg.receiver)
            check(msg)
            mailboxes[msg.receiver].append(msg)

    def collect(self, node: int, round_no: int, kind: MessageKind,
                senders) -> dict:
        self._check_node(node)
        expected = set(senders)
        got = {}
        self._mailboxes[node] = [
            msg for msg in self._mailboxes[node]
            if not _accept(msg, node, round_no, kind, expected, got)]
        if set(got) != expected:
            missing = sorted(expected - set(got))
            raise TransportError(
                f"node {node} round {round_no}: no {kind.name} from {missing}")
        return got


# ---------------------------------------------------------------------------
# socket transport
# ---------------------------------------------------------------------------

class TcpTransport:
    """One endpoint of the TCP mesh; each node runs in its own process.

    For every neighbor pair the higher id dials the lower id, which is
    listening; the dialer identifies itself with a 2-byte id preamble.
    `collect` takes the next frame of each expected peer's stream; bytes
    read past it stay in that peer's buffer.
    """

    def __init__(self, node: int, addresses: dict, neighbors,
                 timeout: float = DEFAULT_TIMEOUT):
        self.node = node
        self.timeout = timeout
        self._addresses = dict(addresses)
        self._neighbors = sorted(set(neighbors))
        if node in self._neighbors:
            raise ValueError(f"node {node} cannot neighbor itself")
        for peer in self._neighbors:
            if peer not in self._addresses:
                raise ValueError(f"no address configured for node {peer}")
        if node not in self._addresses:
            raise ValueError(f"no address configured for node {node}")
        self._conns = {}
        self._buffers = {}
        self._listener = None

    # -- connection setup ---------------------------------------------------

    def connect(self) -> None:
        """Establish the mesh: accept higher-id peers, dial lower-id peers."""
        deadline = time.monotonic() + self.timeout
        above = [p for p in self._neighbors if p > self.node]
        below = [p for p in self._neighbors if p < self.node]
        if above:
            host, port = self._addresses[self.node]
            self._listener = socket.create_server((host, port), backlog=len(above))
            self._listener.settimeout(self.timeout)
        try:
            for peer in below:
                self._conns[peer] = self._dial(peer, deadline)
            for _ in above:
                self._accept_one(deadline)
        except OSError as e:
            self.close()
            raise TransportError(f"node {self.node} mesh setup failed: {e}") from e
        except BaseException:
            self.close()    # a timeout or a bad peer: drop the peers dialled
            raise
        finally:
            if self._listener is not None:
                self._listener.close()
                self._listener = None
        for peer in self._conns:
            self._buffers[peer] = bytearray()

    def _dial(self, peer: int, deadline: float):
        host, port = self._addresses[peer]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"node {self.node}: timeout dialing node {peer} at {host}:{port}")
            try:
                s = socket.create_connection((host, port), timeout=remaining)
                break
            except ConnectionRefusedError:
                time.sleep(0.05)   # peer not listening yet
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall(struct.pack("<H", self.node))
        return s

    def _accept_one(self, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TransportError(f"node {self.node}: timeout waiting for peers")
        self._listener.settimeout(remaining)
        try:
            conn, _ = self._listener.accept()
        except socket.timeout:
            raise TransportError(
                f"node {self.node}: timeout waiting for peers") from None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            (peer,) = struct.unpack("<H", self._recv_exact(conn, 2, deadline))
            if peer not in self._neighbors or peer <= self.node or peer in self._conns:
                raise ProtocolError(f"node {self.node}: unexpected peer id {peer}")
        except BaseException:
            conn.close()
            raise
        self._conns[peer] = conn

    @staticmethod
    def _recv_exact(conn, n: int, deadline: float) -> bytes:
        buf = b""
        while len(buf) < n:
            conn.settimeout(max(0.001, deadline - time.monotonic()))
            chunk = conn.recv(n - len(buf))
            if not chunk:
                raise TransportError("peer closed connection during handshake")
            buf += chunk
        return buf

    # -- message plane ------------------------------------------------------

    def post(self, messages) -> None:
        for msg in messages:
            if msg.sender != self.node:
                raise TransportError(
                    f"endpoint of node {self.node} asked to post as node {msg.sender}")
            conn = self._conns.get(msg.receiver)
            if conn is None:
                raise TransportError(
                    f"node {self.node} has no connection to node {msg.receiver}")
            try:
                conn.sendall(encode(msg))
            except OSError as e:
                raise TransportError(
                    f"node {self.node} lost node {msg.receiver}: {e}") from e

    def collect(self, node: int, round_no: int, kind: MessageKind,
                senders) -> dict:
        if node != self.node:
            raise TransportError(
                f"endpoint of node {self.node} asked to collect for node {node}")
        expected = set(senders)
        unconnected = expected - self._conns.keys()
        if unconnected:
            raise TransportError(f"node {self.node} has no connection "
                                 f"to node {min(unconnected)}")
        got = {}
        deadline = time.monotonic() + self.timeout
        for peer in sorted(expected):
            conn, buf = self._conns[peer], self._buffers[peer]
            while len(buf) < FRAME_SIZE:
                conn.settimeout(max(0.001, deadline - time.monotonic()))
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    missing = sorted(expected - set(got))
                    raise TransportError(
                        f"node {self.node} round {round_no}: timeout, "
                        f"no {kind.name} from {missing}") from None
                except OSError as e:
                    raise TransportError(
                        f"node {self.node} lost node {peer}: {e}") from e
                if not chunk:
                    if buf:
                        raise ProtocolError(
                            f"node {self.node}: node {peer} closed mid-frame")
                    raise TransportError(
                        f"node {self.node}: node {peer} closed the connection")
                buf.extend(chunk)
            # The first frame must be this collect's; frames behind it are
            # for later phases, and a repeat or a stale one is refused now.
            for start in range(0, len(buf) - FRAME_SIZE + 1, FRAME_SIZE):
                msg = decode(buf[start:start + FRAME_SIZE])
                if msg.sender != peer or msg.receiver != self.node:
                    raise ProtocolError(
                        f"node {peer} sent node {self.node} a frame from "
                        f"{msg.sender} to {msg.receiver}")
                if (not _accept(msg, node, round_no, kind, expected, got)
                        and start == 0):
                    raise ProtocolError(
                        f"out of order round-{msg.round} {msg.kind.name} from "
                        f"node {peer} at node {node} in round {round_no}")
            del buf[:FRAME_SIZE]
        return got

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
