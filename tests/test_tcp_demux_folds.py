"""Fold invariance of the TCP stack's train demultiplexer.

``TcpStack.receive_batch`` takes three train paths that never build a
packet for most rows: SYN trains into a listener's backlog, ACK trains
at a listener (half-open promotion and SYN cookies), and mixed-source
trains where only some rows belong to established connections.  Each
test here draws a train and cut points, delivers the train fold by fold
through ``receive_batch``, and compares the outcome with the same rows
handed one by one to the per-packet ``receive``:

* listener state: half-open entries in insertion order, stored ISNs,
  drop / cookie / accept counters;
* the connection table and every connection's sequence state;
* the kernel's pending timers (``Simulator.state_hash``);
* every emitted segment.  SYN-ACK and RST replies leave in row order on
  both paths; the mixed-source test compares the emitted multiset,
  because the train path serves established-connection rows before the
  listener rows.

Sources repeat within a train, including sources a row of the same
train promotes to a connection: later rows must reach that connection.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CsmaLan, Simulator
from repro.sim.packet import PacketBatch, TcpFlags
from repro.sim.tcp import TcpState

SERVER_PORT = 80
M32 = 0xFFFFFFFF


def _server(backlog, cookies):
    """A listening host whose emissions are recorded, not routed."""
    sim = Simulator()
    lan = CsmaLan(sim)
    host = lan.add_host("tserver")
    host.tcp.seed(99)
    accepted = []
    listener = host.tcp.listen(SERVER_PORT, accepted.append, backlog=backlog)
    if cookies:
        listener.enable_syn_cookies(threshold=1.0, secret=0xC0FFEE)
    emitted = []

    def send_segment(src_port, dst, dst_port, seq, ack, flags, payload=b"",
                     payload_len=None, app_data=None, provenance=None, src=None):
        length = len(payload) if payload_len is None else payload_len
        emitted.append((dst.value, dst_port, src_port, seq & M32, ack & M32,
                        int(flags), length))
        return True

    def send_segment_batch(batch):
        for i in range(len(batch)):
            emitted.append((
                int(batch.dst_ip[i]), int(batch.dst_port[i]), int(batch.src_port[i]),
                int(batch.seq[i]), int(batch.ack[i]), int(batch.flags),
                int(batch.payload_len[i]),
            ))
        return len(batch)

    host.tcp.send_segment = send_segment
    host.tcp.send_segment_batch = send_segment_batch
    return sim, host, listener, emitted


def _client_ip(source):
    return 0x0A000100 + source


def _syn(host, source, sport, seq):
    return PacketBatch.tcp_batch(
        1, src_ip=_client_ip(source), dst_ip=host.address.value,
        src_port=sport, dst_port=SERVER_PORT, seq=seq, flags=TcpFlags.SYN,
    ).packet(0)


def _train(host, rows, flags):
    """``rows`` are ``(src_ip, src_port, seq, ack, payload_len)`` tuples."""
    cols = list(zip(*rows))
    return PacketBatch.tcp_batch(
        len(rows), src_ip=list(cols[0]), dst_ip=host.address.value,
        src_port=list(cols[1]), dst_port=SERVER_PORT, seq=list(cols[2]),
        ack=list(cols[3]), flags=flags, payload_len=list(cols[4]),
    )


def _deliver(host, train, folds):
    """``folds=None`` hands the rows to ``receive`` one by one."""
    if folds is None:
        for packet in train.packets():
            host.tcp.receive(packet)
        return
    for start, stop in folds:
        host.tcp.receive_batch(train.slice(start, stop))


def _snapshot(sim, host, listener, emitted, ordered=True):
    return {
        "half_open": list(listener.half_open),
        "isns": dict(listener._isns),
        "syn_dropped": listener.syn_dropped,
        "accepted": listener.accepted,
        "cookies": (
            listener.syn_cookies_sent,
            listener.syn_cookies_accepted,
            listener.syn_cookies_rejected,
        ),
        "rst_sent": host.tcp.rst_sent,
        "sockets": {
            key: (sock.state, sock.snd_una, sock.snd_nxt, sock.rcv_nxt, sock.bytes_received)
            for key, sock in sorted(host.tcp.sockets.items())
        },
        "timers": sim.state_hash(),
        "emitted": list(emitted) if ordered else sorted(emitted),
    }


@st.composite
def _folds(draw, n):
    cuts = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=max(0, n - 1)))
    bounds = [0, *sorted(c for c in cuts if 0 < c < n), n]
    return list(zip(bounds, bounds[1:]))


# ----------------------------------------------------------------------
# SYN trains into a saturated backlog


@st.composite
def _syn_case(draw):
    backlog = draw(st.integers(1, 6))
    prefill = draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(1000, 1003)),
        max_size=backlog, unique=True,
    ))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(1000, 1003), st.integers(0, M32)),
        min_size=1, max_size=40,
    ))
    cookies = draw(st.booleans())
    return backlog, prefill, rows, cookies, draw(_folds(len(rows)))


def _run_syn(case, folds):
    backlog, prefill, rows, cookies, _ = case
    sim, host, listener, emitted = _server(backlog, cookies)
    for source, sport in prefill:
        host.tcp.receive(_syn(host, source, sport, 7))
    train = _train(
        host, [(_client_ip(s), p, q, 0, 0) for s, p, q in rows], TcpFlags.SYN
    )
    _deliver(host, train, folds)
    return _snapshot(sim, host, listener, emitted)


class TestSynTrainFolds:
    @settings(max_examples=100, deadline=None)
    @given(case=_syn_case())
    def test_any_split_equals_per_packet_receive(self, case):
        assert _run_syn(case, case[-1]) == _run_syn(case, None)

    def test_saturated_tail_counts_only_new_sources(self):
        # Backlog of 2 filled by sources 0 and 1; the tail repeats them
        # (duplicates, not drops) and adds two new sources (drops).
        rows = [(0, 1000, 5), (1, 1000, 6), (2, 1000, 7), (0, 1000, 8), (3, 1000, 9)]
        case = (2, [(0, 1000), (1, 1000)], rows, False, [(0, len(rows))])
        state = _run_syn(case, case[-1])
        assert state == _run_syn(case, None)
        assert state["syn_dropped"] == 2
        assert state["half_open"] == [(_client_ip(0), 1000), (_client_ip(1), 1000)]


# ----------------------------------------------------------------------
# ACK trains at a listener: half-open hits, cookies, spoofed rows


@st.composite
def _ack_case(draw):
    cookies = draw(st.booleans())
    half_open = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(1000, 1003)),
        max_size=6, unique=True,
    ))
    promotable_pool = [(s, p) for s in range(10, 13) for p in (2000, 2001)]
    cookie_valid = draw(st.lists(st.sampled_from(promotable_pool), max_size=6))
    hits = draw(st.lists(st.sampled_from(half_open), max_size=8)) if half_open else []
    unpromotable = draw(st.lists(
        st.tuples(st.integers(20, 25), st.integers(3000, 3002), st.integers(0, M32)),
        max_size=12,
    ))
    rows = (
        [("hit", s, p, 0) for s, p in hits]
        + [("cookie", s, p, 0) for s, p in cookie_valid]
        + [("spoofed", s, p, a) for s, p, a in unpromotable]
    )
    rows = draw(st.permutations(rows))
    if not rows:
        rows = [("spoofed", 20, 3000, 1)]
    return cookies, half_open, rows, draw(_folds(len(rows)))


def _run_ack(case, folds):
    cookies, half_open, rows, _ = case
    sim, host, listener, emitted = _server(backlog=16, cookies=cookies)
    for source, sport in half_open:
        host.tcp.receive(_syn(host, source, sport, 100 + source))
    train_rows = []
    for kind, source, sport, ack in rows:
        ip = _client_ip(source)
        if kind == "cookie":
            ack = (listener._cookie_isn(ip, sport) + 1) & M32
        elif kind == "hit":
            ack = (listener._isns[(ip, sport)] + 1) & M32
        train_rows.append((ip, sport, 101 + source, ack, 0))
    _deliver(host, _train(host, train_rows, TcpFlags.ACK), folds)
    return _snapshot(sim, host, listener, emitted)


class TestAckTrainFolds:
    @settings(max_examples=100, deadline=None)
    @given(case=_ack_case())
    def test_any_split_equals_per_packet_receive(self, case):
        assert _run_ack(case, case[-1]) == _run_ack(case, None)

    def test_every_row_kind_with_cookies(self):
        rows = [
            ("spoofed", 20, 3000, 12345),
            ("hit", 1, 1000, 0),
            ("cookie", 11, 2000, 0),
            ("spoofed", 21, 3001, 0),
        ]
        case = (True, [(1, 1000), (2, 1000)], rows, [(0, 2), (2, 4)])
        state = _run_ack(case, case[-1])
        assert state == _run_ack(case, None)
        assert state["accepted"] == 2
        assert state["cookies"] == (0, 1, 2)
        assert state["rst_sent"] == 2
        assert state["half_open"] == [(_client_ip(2), 1000)]

    def test_repeat_of_a_promoted_peer_reaches_its_connection(self):
        # Whole train: the second row of each peer must find the
        # connection its first row created, not the listener again
        # (an RST with cookies off, a second promotion with them on).
        for cookies, kind, peer in ((False, "hit", (1, 1000)), (True, "cookie", (11, 2000))):
            rows = [(kind, *peer, 0), ("spoofed", 20, 3000, 7), (kind, *peer, 0)]
            case = (cookies, [(1, 1000)], rows, [(0, 3)])
            state = _run_ack(case, case[-1])
            assert state == _run_ack(case, None), cookies
            assert state["accepted"] == 1 and state["rst_sent"] == 1


# ----------------------------------------------------------------------
# Mixed-source trains where some rows hit established connections


@st.composite
def _mixed_case(draw):
    n_conns = draw(st.integers(1, 3))
    # Row sources: 0..n_conns-1 are established connections, 30..33 are
    # unknown (drawing RSTs), 40..42 are half-open.
    half_open = draw(st.integers(0, 3))
    known = st.tuples(st.integers(0, n_conns - 1), st.integers(0, 3))
    unknown = st.tuples(st.integers(30, 33), st.integers(0, 3))
    pending = st.tuples(st.integers(40, 39 + half_open), st.just(0))
    sources = st.one_of(known, unknown, pending) if half_open else st.one_of(known, unknown)
    rows = draw(st.lists(sources, min_size=1, max_size=30))
    lens = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    flags = draw(st.sampled_from([TcpFlags.ACK, TcpFlags.ACK | TcpFlags.PSH]))
    return n_conns, half_open, rows, lens, flags, draw(_folds(len(rows)))


def _run_mixed(case, folds):
    n_conns, half_open, rows, lens, flags, _ = case
    sim, host, listener, emitted = _server(backlog=16, cookies=False)
    delivered = []
    for source in list(range(n_conns)) + [40 + k for k in range(half_open)]:
        host.tcp.receive(_syn(host, source, 5000, 1000))
    for source in range(n_conns):
        ip = _client_ip(source)
        ack = PacketBatch.tcp_batch(
            1, src_ip=ip, dst_ip=host.address.value, src_port=5000,
            dst_port=SERVER_PORT, seq=1001,
            ack=(listener._isns[(ip, 5000)] + 1) & M32, flags=TcpFlags.ACK,
        )
        host.tcp.receive(ack.packet(0))
    for sock in host.tcp.sockets.values():
        sock.on_data = lambda s, p, n, a: delivered.append((s.remote_port, n))
    # Rows of one connection carry consecutive sequence numbers, so some
    # data arrives in order and some is re-acknowledged as a duplicate.
    next_seq = {}
    train_rows = []
    for (source, step), length in zip(rows, lens):
        ip = _client_ip(source)
        seq = next_seq.get(source, 1001) + step
        next_seq[source] = seq + length * 100
        ack = (listener._isns[(ip, 5000)] + 1) & M32 if source >= 40 else 0
        train_rows.append((ip, 5000, seq, ack, length * 100))
    _deliver(host, _train(host, train_rows, flags), folds)
    state = _snapshot(sim, host, listener, emitted, ordered=False)
    state["delivered"] = delivered
    return state


class TestMixedSourceFolds:
    @settings(max_examples=100, deadline=None)
    @given(case=_mixed_case())
    def test_any_split_equals_per_packet_receive(self, case):
        assert _run_mixed(case, case[-1]) == _run_mixed(case, None)

    def test_established_rows_reach_their_connection(self):
        rows = [(0, 0), (30, 0), (0, 0), (0, 0), (31, 1), (1, 0)]
        case = (2, 1, rows, [1, 1, 1, 0, 1, 2], TcpFlags.ACK | TcpFlags.PSH,
                [(0, len(rows))])
        state = _run_mixed(case, case[-1])
        assert state == _run_mixed(case, None)
        assert state["rst_sent"] == 2
        established = [
            v for v in state["sockets"].values() if v[0] is TcpState.ESTABLISHED
        ]
        assert len(established) == 2
        assert sum(v[4] for v in established) == 400
        assert all(n > 0 for _, n in state["delivered"])


# ----------------------------------------------------------------------
# RST trains to several local ports (the replies to an ACK flood)


@st.composite
def _rst_case(draw):
    n_conns = draw(st.integers(0, 2))
    # Sources 0..n_conns-1 are established, 40..41 half-open, 30..33
    # unknown; ports other than SERVER_PORT have no listener.
    source = st.sampled_from(list(range(n_conns)) + [40, 41, 30, 31, 32, 33])
    port = st.sampled_from([SERVER_PORT, 4000, 4001, 4002])
    rows = draw(st.lists(st.tuples(source, port), min_size=2, max_size=30))
    if all(p == rows[0][1] for _, p in rows):
        rows.append((30, 4003 if rows[0][1] != 4003 else 4000))
    flags = draw(st.sampled_from([TcpFlags.RST, TcpFlags.RST | TcpFlags.ACK]))
    return n_conns, rows, flags, draw(_folds(len(rows)))


def _run_rst(case, folds):
    n_conns, rows, flags, _ = case
    sim, host, listener, emitted = _server(backlog=16, cookies=False)
    resets = []
    for source in list(range(n_conns)) + [40, 41]:
        host.tcp.receive(_syn(host, source, 5000, 1000))
    for source in range(n_conns):
        ip = _client_ip(source)
        ack = PacketBatch.tcp_batch(
            1, src_ip=ip, dst_ip=host.address.value, src_port=5000,
            dst_port=SERVER_PORT, seq=1001,
            ack=(listener._isns[(ip, 5000)] + 1) & M32, flags=TcpFlags.ACK,
        )
        host.tcp.receive(ack.packet(0))
    for sock in host.tcp.sockets.values():
        sock.on_reset = lambda s: resets.append(s.remote_address.value)
    train_rows = []
    for source, port in rows:
        ip = _client_ip(source)
        isn = listener._isns.get((ip, 5000), 0)
        train_rows.append((ip, 5000, 1001, (isn + 1) & M32, 0))
    cols = list(zip(*train_rows))
    train = PacketBatch.tcp_batch(
        len(rows), src_ip=list(cols[0]), dst_ip=host.address.value,
        src_port=list(cols[1]), dst_port=[p for _, p in rows], seq=list(cols[2]),
        ack=list(cols[3]), flags=flags,
    )
    _deliver(host, train, folds)
    state = _snapshot(sim, host, listener, emitted)
    state["resets"] = resets
    return state


class TestMultiPortRstFolds:
    @settings(max_examples=100, deadline=None)
    @given(case=_rst_case())
    def test_any_split_equals_per_packet_receive(self, case):
        assert _run_rst(case, case[-1]) == _run_rst(case, None)

    def test_rst_reaches_connections_and_listener_only(self):
        rows = [(0, SERVER_PORT), (30, 4000), (40, SERVER_PORT), (0, SERVER_PORT), (31, 4001)]
        case = (1, rows, TcpFlags.RST | TcpFlags.ACK, [(0, len(rows))])
        state = _run_rst(case, case[-1])
        assert state == _run_rst(case, None)
        # The connection is reset; the half-open peer's RST|ACK completes
        # its handshake at the listener, as per-packet receive() does.
        assert state["resets"] == [_client_ip(0)]
        assert state["accepted"] == 2
        # Nothing answers a RST: the only emissions are the set-up SYN-ACKs.
        assert state["rst_sent"] == 0
        assert {row[5] for row in state["emitted"]} == {int(TcpFlags.SYN | TcpFlags.ACK)}
