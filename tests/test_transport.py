import contextlib
import socket
import struct
import threading
import time

import pytest

from gridclear import market, topology, transport
from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST)
from gridclear.transport import (DEFAULT_TIMEOUT, FRAME_SIZE,
                                 LoopbackTransport, Message, MessageKind,
                                 ProtocolError, TcpTransport, TransportError,
                                 decode, encode)


def free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def mesh_addresses(n):
    return {i: ("127.0.0.1", p) for i, p in enumerate(free_ports(n))}


# -- wire format --------------------------------------------------------------

def test_frame_is_21_bytes_little_endian():
    frame = encode(Message(1, 2, 3, MessageKind.PRICE, 1.5))
    assert len(frame) == FRAME_SIZE == 21
    assert frame == (b"\x11\x00\x00\x00"      # length field: 17 payload bytes
                     b"\x01\x00\x00\x00"      # round 1
                     b"\x02\x00"              # sender 2
                     b"\x03\x00"              # receiver 3
                     b"\x01"                  # kind PRICE
                     + struct.pack("<d", 1.5))


def test_encode_decode_roundtrip():
    for msg in (Message(0, 0, 1, MessageKind.PRICE, 56.564),
                Message(7, 3, 0, MessageKind.BID, 0.0),
                Message(2**32 - 1, 65535, 65534, MessageKind.BID, 1e-12),
                Message(5, 1, 2, MessageKind.PRICE, -3.0)):
        assert decode(encode(msg)) == msg


def test_encode_rejects_bad_fields():
    with pytest.raises(ValueError, match="kind"):
        encode(Message(0, 0, 1, 3, 1.0))
    with pytest.raises(ValueError, match="round"):
        encode(Message(-1, 0, 1, MessageKind.PRICE, 1.0))
    with pytest.raises(ValueError, match="u32"):
        encode(Message(2**32, 0, 1, MessageKind.PRICE, 1.0))
    with pytest.raises(ValueError, match="u16"):
        encode(Message(0, 65536, 1, MessageKind.PRICE, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        encode(Message(0, 0, 1, MessageKind.PRICE, float("nan")))
    with pytest.raises(ValueError, match="negative bid"):
        encode(Message(0, 0, 1, MessageKind.BID, -0.5))


def test_decode_rejects_malformed_frames():
    good = encode(Message(1, 2, 3, MessageKind.BID, 4.0))
    with pytest.raises(ProtocolError, match="bytes"):
        decode(good[:-1])
    with pytest.raises(ProtocolError, match="length field"):
        decode(b"\x10" + good[1:])
    with pytest.raises(ProtocolError, match="kind"):
        decode(good[:12] + b"\x07" + good[13:])
    bad_bid = good[:13] + struct.pack("<d", -4.0)
    with pytest.raises(ProtocolError, match="negative bid"):
        decode(bad_bid)
    nan_frame = good[:13] + struct.pack("<d", float("nan"))
    with pytest.raises(ProtocolError, match="non-finite"):
        decode(nan_frame)


@pytest.mark.parametrize("fields", [
    (0, 0, 1, MessageKind.PRICE, float("nan")),
    (0, 0, 1, MessageKind.PRICE, float("inf")),
    (0, 0, 1, MessageKind.BID, -0.5),
    (0, 0, 1, 0, 1.0),
    (0, 0, 1, 3, 1.0),
])
def test_encode_and_decode_refuse_by_one_rule_set(fields):
    with pytest.raises(ValueError) as refused:
        encode(Message(*fields))
    # the same fields packed past encode's checks, as a faulty peer might
    frame = transport._FRAME.pack(FRAME_SIZE - 4, *fields)
    with pytest.raises(ProtocolError) as caught:
        decode(frame)
    assert str(refused.value) in str(caught.value)


# -- loopback -----------------------------------------------------------------

def test_loopback_delivers_by_receiver():
    tr = LoopbackTransport(3)
    tr.post([Message(0, 0, 1, MessageKind.PRICE, 60.0),
             Message(0, 2, 1, MessageKind.PRICE, 70.0),
             Message(0, 0, 2, MessageKind.PRICE, 60.0)])
    inbox = tr.collect(1, 0, MessageKind.PRICE, {0, 2})
    assert inbox[0].value == 60.0
    assert inbox[2].value == 70.0
    inbox = tr.collect(2, 0, MessageKind.PRICE, {0})
    assert inbox[0].value == 60.0


def test_loopback_keeps_future_rounds_queued():
    tr = LoopbackTransport(2)
    tr.post([Message(0, 1, 0, MessageKind.PRICE, 50.0),
             Message(0, 1, 0, MessageKind.BID, 2.0),
             Message(1, 1, 0, MessageKind.PRICE, 51.0)])
    assert tr.collect(0, 0, MessageKind.PRICE, {1})[1].value == 50.0
    assert tr.collect(0, 0, MessageKind.BID, {1})[1].value == 2.0
    assert tr.collect(0, 1, MessageKind.PRICE, {1})[1].value == 51.0


def test_loopback_rejects_protocol_violations():
    tr = LoopbackTransport(2)
    tr.post([Message(0, 1, 0, MessageKind.PRICE, 50.0)])
    with pytest.raises(ProtocolError, match="stale"):
        tr.collect(0, 1, MessageKind.PRICE, {1})

    tr = LoopbackTransport(2)
    tr.post([Message(0, 1, 0, MessageKind.PRICE, 50.0)])
    with pytest.raises(ProtocolError, match="unexpected"):
        tr.collect(0, 0, MessageKind.PRICE, set())

    tr = LoopbackTransport(2)
    tr.post([Message(0, 1, 0, MessageKind.PRICE, 50.0),
             Message(0, 1, 0, MessageKind.PRICE, 51.0)])
    with pytest.raises(ProtocolError, match="duplicate"):
        tr.collect(0, 0, MessageKind.PRICE, {1})

    tr = LoopbackTransport(2)
    with pytest.raises(TransportError, match="no PRICE"):
        tr.collect(0, 0, MessageKind.PRICE, {1})

    with pytest.raises(TransportError, match="no such node"):
        tr.post([Message(0, 0, 5, MessageKind.PRICE, 50.0)])

    tr = LoopbackTransport(2)
    tr.post([Message(0, 0, 1, MessageKind.PRICE, 50.0)])
    for node in (-1, 2):    # -1 would read node 1's mailbox
        with pytest.raises(TransportError, match=f"no such node {node}"):
            tr.collect(node, 0, MessageKind.PRICE, {0})
    assert tr.collect(1, 0, MessageKind.PRICE, {0})[0].value == 50.0


@pytest.mark.parametrize("msg, match", [
    (Message(0, 0, 1, MessageKind.PRICE, float("nan")), "non-finite"),
    (Message(0, 0, 1, MessageKind.PRICE, float("inf")), "non-finite"),
    (Message(0, 0, 1, MessageKind.BID, -0.5), "negative bid"),
    (Message(2**32, 0, 1, MessageKind.PRICE, 1.0), "u32"),
    (Message(0, 2**16, 1, MessageKind.PRICE, 1.0), "u16"),
    (Message(0, 0, 1, 3, 1.0), "kind"),
])
def test_loopback_applies_the_encoder_checks(msg, match):
    # The loopback files message objects without encoding them, but it
    # refuses every message encode would refuse, and files nothing.
    tr = LoopbackTransport(2)
    with pytest.raises(ValueError, match=match):
        tr.post([msg])
    with pytest.raises(TransportError, match="no PRICE"):
        tr.collect(1, 0, MessageKind.PRICE, {0})


@pytest.mark.parametrize("msg", [
    Message(1.5, 0, 1, MessageKind.PRICE, 1.0),
    Message(0, 0.0, 1, MessageKind.PRICE, 1.0),
    Message(0, 0, 1.5, MessageKind.PRICE, 1.0),
])
def test_non_integer_round_or_id_is_refused(msg):
    # struct would refuse these fields, so the loopback must too
    with pytest.raises(TypeError):
        encode(msg)
    with pytest.raises(TypeError):
        LoopbackTransport(2).post([msg])


def test_loopback_rejects_unknown_receiver():
    tr = LoopbackTransport(2)
    for receiver in (2, -1):
        with pytest.raises(TransportError, match="no such node"):
            tr.post([Message(0, 0, receiver, MessageKind.PRICE, 50.0)])


def test_loopback_files_the_posted_message():
    tr = LoopbackTransport(2)
    msg = Message(3, 1, 0, MessageKind.BID, 0.25)
    tr.post([msg])
    assert tr.collect(0, 3, MessageKind.BID, {1})[1] is msg


# -- sockets ------------------------------------------------------------------

def run_mesh(addresses, neighbors_of, fn, timeout=5.0):
    """Run fn(node, transport) in one thread per node; re-raise failures."""
    results = {}
    errors = []

    def worker(node):
        tr = TcpTransport(node, addresses, neighbors_of[node], timeout=timeout)
        try:
            tr.connect()
            results[node] = fn(node, tr)
        except Exception as e:
            errors.append((node, e))
        finally:
            tr.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in addresses]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    if errors:
        raise errors[0][1]
    return results


def test_tcp_pair_exchanges_rounds():
    addresses = mesh_addresses(2)
    neighbors = {0: [1], 1: [0]}

    def fn(node, tr):
        peer = 1 - node
        values = []
        for k in range(3):
            tr.post([Message(k, node, peer, MessageKind.PRICE, 10.0 * node + k)])
            inbox = tr.collect(node, k, MessageKind.PRICE, {peer})
            values.append(inbox[peer].value)
        return values

    results = run_mesh(addresses, neighbors, fn)
    assert results[0] == [10.0, 11.0, 12.0]
    assert results[1] == [0.0, 1.0, 2.0]


def test_tcp_full_mesh_price_and_bid_phases():
    addresses = mesh_addresses(3)
    neighbors = {i: [j for j in range(3) if j != i] for i in range(3)}

    def fn(node, tr):
        peers = neighbors[node]
        tr.post([Message(0, node, j, MessageKind.PRICE, 50.0 + node) for j in peers])
        prices = tr.collect(node, 0, MessageKind.PRICE, peers)
        tr.post([Message(0, node, j, MessageKind.BID, float(node)) for j in peers])
        bids = tr.collect(node, 0, MessageKind.BID, peers)
        return ({j: m.value for j, m in prices.items()},
                {j: m.value for j, m in bids.items()})

    results = run_mesh(addresses, neighbors, fn)
    for node in range(3):
        prices, bids = results[node]
        assert prices == {j: 50.0 + j for j in neighbors[node]}
        assert bids == {j: float(j) for j in neighbors[node]}


def test_tcp_out_of_phase_peer_is_buffered():
    # node 1 races two rounds ahead on the wire; node 0 must still see
    # round 0 first and round 1 afterwards
    addresses = mesh_addresses(2)
    neighbors = {0: [1], 1: [0]}

    def fn(node, tr):
        if node == 1:
            tr.post([Message(0, 1, 0, MessageKind.PRICE, 5.0),
                     Message(1, 1, 0, MessageKind.PRICE, 6.0)])
            inbox = tr.collect(1, 0, MessageKind.PRICE, {0})
            inbox = tr.collect(1, 1, MessageKind.PRICE, {0})
            return None
        time.sleep(0.1)
        first = tr.collect(0, 0, MessageKind.PRICE, {1})[1].value
        tr.post([Message(0, 0, 1, MessageKind.PRICE, 1.0)])
        second = tr.collect(0, 1, MessageKind.PRICE, {1})[1].value
        tr.post([Message(1, 0, 1, MessageKind.PRICE, 2.0)])
        return (first, second)

    results = run_mesh(addresses, neighbors, fn)
    assert results[0] == (5.0, 6.0)


def test_tcp_rejects_duplicate_frame():
    addresses = mesh_addresses(2)
    neighbors = {0: [1], 1: [0]}

    def fn(node, tr):
        if node == 1:
            tr.post([Message(0, 1, 0, MessageKind.PRICE, 5.0),
                     Message(0, 1, 0, MessageKind.PRICE, 6.0)])
            return None
        time.sleep(0.2)         # both frames are waiting in the socket
        with pytest.raises(ProtocolError, match="duplicate"):
            tr.collect(0, 0, MessageKind.PRICE, {1})
        return True

    results = run_mesh(addresses, neighbors, fn)
    assert results[0] is True


def test_tcp_collect_times_out():
    addresses = mesh_addresses(2)
    neighbors = {0: [1], 1: [0]}

    def fn(node, tr):
        if node == 1:
            time.sleep(0.8)     # never sends; keep the socket open meanwhile
            return None
        with pytest.raises(TransportError, match="timeout"):
            tr.collect(0, 0, MessageKind.PRICE, {1})
        return True

    # per-node timeout short enough that node 0 gives up while 1 still holds on
    results = run_mesh(addresses, neighbors, fn, timeout=0.3)
    assert results[0] is True


def test_tcp_closed_peer_raises_when_still_needed():
    addresses = mesh_addresses(2)
    neighbors = {0: [1], 1: [0]}

    def fn(node, tr):
        if node == 1:
            return None         # connects, then closes immediately
        with pytest.raises(TransportError, match="closed"):
            tr.collect(0, 0, MessageKind.PRICE, {1})
        return True

    results = run_mesh(addresses, neighbors, fn)
    assert results[0] is True


def test_tcp_closed_peer_harmless_once_satisfied():
    # peer sends its round-0 frame and disappears; the slow node must still
    # be able to use that frame
    addresses = mesh_addresses(2)
    neighbors = {0: [1], 1: [0]}

    def fn(node, tr):
        if node == 1:
            tr.post([Message(0, 1, 0, MessageKind.PRICE, 9.0)])
            return None
        time.sleep(0.3)         # peer has exited by now
        return tr.collect(0, 0, MessageKind.PRICE, {1})[1].value

    results = run_mesh(addresses, neighbors, fn)
    assert results[0] == 9.0


def test_tcp_failed_connect_closes_dialled_peers():
    # node 2 dials node 0, then times out dialling node 1, which never
    # listens; node 0 must then see its connection closed
    addresses = mesh_addresses(3)
    with socket.create_server(addresses[0]) as listener:
        tr = TcpTransport(2, addresses, [0, 1], timeout=0.3)
        with pytest.raises(TransportError, match="timeout"):
            tr.connect()
        listener.settimeout(1.0)
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(1.0)
            assert conn.recv(2) == struct.pack("<H", 2)
            assert conn.recv(1) == b""


@contextlib.contextmanager
def raw_peers(node, peers, timeout):
    """Node `node`'s TcpTransport, connected to plain listening sockets that
    stand in for its lower-id `peers`; yields it and {peer: socket}."""
    addresses = mesh_addresses(node + 1)
    with contextlib.ExitStack() as stack:
        listeners = {p: stack.enter_context(socket.create_server(addresses[p]))
                     for p in peers}
        tr = stack.enter_context(
            TcpTransport(node, addresses, peers, timeout=timeout))
        tr.connect()
        conns = {}
        for p, listener in listeners.items():
            listener.settimeout(1.0)
            conns[p] = stack.enter_context(listener.accept()[0])
            conns[p].settimeout(1.0)
            assert conns[p].recv(2, socket.MSG_WAITALL) == struct.pack("<H", node)
        yield tr, conns


@pytest.mark.parametrize("data, match", [
    # a price as node 1 ahead of its own: not to be filed as node 1's price
    (encode(Message(0, 1, 2, MessageKind.PRICE, 99.0))
     + encode(Message(0, 0, 2, MessageKind.PRICE, 1.0)), "frame from 1"),
    (encode(Message(0, 0, 2, MessageKind.BID, 1.0)), "out of order"),
    (encode(Message(1, 0, 2, MessageKind.PRICE, 1.0)), "out of order"),
    (encode(Message(0, 0, 2, MessageKind.PRICE, 1.0))[:10], "closed mid-frame"),
], ids=["other-id", "other-kind", "later-round", "part-frame"])
def test_tcp_refuses_frames_out_of_stream_order(data, match):
    # node 2 collects round-0 prices from 0 and 1; peer 0, read first,
    # sends `data` and closes
    with raw_peers(2, [0, 1], timeout=1.0) as (tr, conns):
        conns[0].sendall(data)
        conns[0].shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match=match):
            tr.collect(2, 0, MessageKind.PRICE, {0, 1})


def test_tcp_post_refuses_another_senders_message():
    with raw_peers(1, [0], timeout=1.0) as (tr, conns):
        with pytest.raises(TransportError, match="post as node 0"):
            tr.post([Message(0, 0, 0, MessageKind.PRICE, 3.0)])
        tr.post([Message(0, 1, 0, MessageKind.PRICE, 4.0)])
        frame = conns[0].recv(FRAME_SIZE, socket.MSG_WAITALL)
        assert decode(frame) == Message(0, 1, 0, MessageKind.PRICE, 4.0)


def test_tcp_collect_from_unconnected_sender_fails_at_once():
    with raw_peers(1, [0], timeout=1.0) as (tr, conns):
        conns[0].sendall(encode(Message(0, 0, 1, MessageKind.PRICE, 1.0)))
        start = time.monotonic()
        with pytest.raises(TransportError, match="no connection to node 5"):
            tr.collect(1, 0, MessageKind.PRICE, {0, 5})
        assert time.monotonic() - start < 0.5


def test_tcp_validates_configuration():
    with pytest.raises(ValueError, match="neighbor itself"):
        TcpTransport(0, {0: ("127.0.0.1", 1)}, [0])
    with pytest.raises(ValueError, match="no address"):
        TcpTransport(0, {0: ("127.0.0.1", 1)}, [1])


# One-way links: 0->1, 1->2, 2->0, 3->4, 4->5, 5->3, 1->4 carry prices one
# way and bids the other; 2<->3 carries both ways.
DIGRAPH = topology.from_adjacency([[0, 1, 0, 0, 0, 0],
                                   [0, 0, 1, 0, 1, 0],
                                   [1, 0, 0, 1, 0, 0],
                                   [0, 0, 1, 0, 1, 0],
                                   [0, 0, 0, 0, 0, 1],
                                   [0, 0, 0, 1, 0, 0]])


@pytest.mark.parametrize("top", [topology.build("ring", 6), DIGRAPH],
                         ids=["ring", "digraph"])
def test_tcp_agents_match_loopback_every_round(top):
    # Each node runs run_agent in its own thread over real sockets; every
    # round's price and regime must equal the loopback trace's, bit for bit.
    demands = (9.0, 2.0, 7.0, 10.0, 1.0, 5.0)
    m, rounds = len(demands), 40
    scn = market.Scenario(topology=top, demands=demands,
                          gen_costs=(DEFAULT_GENERATION_COST,) * m,
                          transfer_cost=DEFAULT_TRANSFER_COST)
    adj = scn.topology.adj
    neighbors = {i: [j for j in range(m) if j != i and (adj[i][j] or adj[j][i])]
                 for i in range(m)}

    results = run_mesh(mesh_addresses(m), neighbors,
                       lambda node, tr: market.run_agent(scn, node, rounds, tr))

    trace = market.run(scn, rounds=rounds)
    for i in range(m):
        assert results[i]["price_history"] == [row[i] for row in trace.prices]
        assert results[i]["case_history"] == [row[i] for row in trace.cases]
