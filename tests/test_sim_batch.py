"""Batch-dispatch kernel tests: ordering, anchoring, and scalar equivalence.

The batched kernel (bucket-drain dispatch, ``schedule_batch``,
:class:`~repro.sim.packet.PacketBatch` trains, partial-fit queue splits)
must be an *optimisation*, not a semantics change: same seeds, same
packets, same verdicts.  These tests pin that contract.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.botnet.attacks import make_attack
from repro.ids.defense import TokenBucket
from repro.sim import CsmaLan, PacketProbe, SegmentedLan, Simulator
from repro.sim.packet import PacketBatch, TcpFlags
from repro.sim.queue import DropTailQueue
from repro.testbed import AttackPhase, Scenario, Testbed

# ----------------------------------------------------------------------
# Kernel ordering


@settings(max_examples=30, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),  # coarse grid → buckets
            st.sampled_from([0, 1]),  # priority
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_batch_scheduling_preserves_scalar_order(jobs):
    """schedule_batch executes in exactly the order a scalar loop would.

    Delays are drawn from a coarse grid so many events share a (time,
    priority) bucket and the bucket-drain path is exercised, not just
    the singleton fast path.
    """
    orders = []
    for use_batch in (False, True):
        sim = Simulator()
        order = []
        if use_batch:
            for prio in (0, 1):
                delays = [d for d, p in jobs if p == prio]
                args = [(i,) for i, (d, p) in enumerate(jobs) if p == prio]
                sim.schedule_batch(delays, order.append, args, priority=prio)
        else:
            for prio in (0, 1):
                for i, (d, p) in enumerate(jobs):
                    if p == prio:
                        sim.schedule(d, order.append, i, priority=prio)
        sim.run()
        orders.append(order)
    assert orders[0] == orders[1]
    # Both must equal the analytic total order: (time, priority, seq),
    # where seq follows the priority-0-then-priority-1 insertion above.
    indexed = [(d, p, i) for i, (d, p) in enumerate(jobs)]
    expected = [
        i
        for d, p, i in sorted(
            indexed, key=lambda t: (t[0], t[1], t[1], t[2])
        )
    ]
    assert orders[0] == expected


def test_events_scheduled_during_bucket_run_after_it():
    """Events spawned inside a bucket callback land behind the bucket."""
    sim = Simulator()
    order = []

    def spawner(tag):
        order.append(tag)
        if tag == "first":
            # Same timestamp as the bucket being drained.
            sim.schedule(0.0, order.append, "spawned")

    sim.schedule(1.0, spawner, "first")
    sim.schedule(1.0, spawner, "second")
    sim.run()
    assert order == ["first", "second", "spawned"]


# ----------------------------------------------------------------------
# Anchored periodic scheduling


def test_periodic_ticks_stay_on_exact_multiples_for_10k_ticks():
    """10k anchored ticks land bit-exactly on t0 + k*interval (no drift).

    The drifting form (``schedule(interval, ...)`` from the callback)
    accumulates one ulp every few thousand ticks; the anchored scheduler
    must not.
    """
    sim = Simulator()
    interval = 0.1
    times = []
    handle = sim.schedule_periodic(interval, lambda: times.append(sim.now))
    sim.run(until=1000.0)
    assert handle.ticks == 10_000
    assert len(times) == 10_000
    expected = [(k + 1) * interval for k in range(10_000)]
    assert times == expected  # bit-equality, not approx


def test_periodic_anchor_uses_explicit_t0():
    """An explicit t0 anchors ticks to t0 + k*interval, not to now."""
    sim = Simulator()
    times = []
    sim.schedule(5.0, lambda: None)
    sim.run(until=5.0)
    handle = sim.schedule_periodic(0.25, lambda: times.append(sim.now), t0=5.5)
    sim.run(until=7.0)
    handle.cancel()
    assert times == [5.5 + k * 0.25 for k in range(1, 7)]


# ----------------------------------------------------------------------
# Cancellation ledger


def test_cancel_ledger_is_exact_after_run():
    """Every cancelled-in-heap event is accounted; ledger drains to zero."""
    sim = Simulator()
    ran = []
    events = [sim.schedule(float(i % 7), ran.append, i) for i in range(100)]
    for event in events[::2]:
        event.cancel()
    # Cancelling twice must not double-count the ledger.
    events[0].cancel()
    assert sim._cancelled_in_heap + len(sim._heap) >= 50
    sim.run()
    assert sim._cancelled_in_heap == 0
    assert sorted(ran) == list(range(1, 100, 2))
    assert sim.pending_events == 0


def test_cancel_compaction_keeps_order_and_count():
    """A mid-schedule compaction sweep loses no live events."""
    sim = Simulator()
    ran = []
    live = [sim.schedule(10.0 + i, ran.append, i) for i in range(20)]
    doomed = [sim.schedule(500.0 + i, ran.append, 1000 + i) for i in range(200)]
    for event in doomed:
        event.cancel()
    assert sim.heap_compactions >= 1  # sweep triggered by the ledger
    # The ledger stays exact through sweeps: live events all still pending.
    assert sim.pending_events == len(live)
    sim.run()
    assert sim._cancelled_in_heap == 0
    assert ran == list(range(20))


# ----------------------------------------------------------------------
# Heap entries: (time, priority, seq, event) tuples

_ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("cancel"), st.integers(0, 120)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.5]), st.sampled_from([0, 1])),
    st.just(("stop",)),
    st.just(("cancel_fill",)),
)


@st.composite
def _kernel_scripts(draw):
    """Filler events far in the future, then jobs on a coarse time grid
    whose callbacks cancel, spawn, stop the run or cancel every filler."""
    n_fill = draw(st.sampled_from([0, 10, 80]))
    jobs = draw(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0, 1]), _ACTIONS),
            min_size=1,
            max_size=40,
        )
    )
    return n_fill, jobs, draw(st.booleans())


def _spawn_priority(dt, prio, running_prio):
    # A same-instant spawn below the running bucket's priority would run
    # after the bucket rather than first; the (time, priority, seq)
    # order holds for everything else.
    return max(prio, running_prio) if dt == 0.0 else prio


def _kernel_order(n_fill, jobs, use_batch):
    sim = Simulator(sanitize=True)
    events, meta, order = [], [], []
    fill = []

    def fire(i, action):
        order.append(i)
        kind = action[0]
        if kind == "cancel" and action[1] < len(events):
            events[action[1]].cancel()
        elif kind == "spawn":
            _, dt, prio = action
            add(sim.schedule(dt, fire, len(events), ("none",),
                             priority=_spawn_priority(dt, prio, meta[i][1])))
        elif kind == "stop":
            sim.stop()
        elif kind == "cancel_fill":
            for event in fill:
                event.cancel()

    def add(event):
        assert event.seq == len(events)
        events.append(event)
        meta.append((event.time, event.priority))

    for k in range(n_fill):
        add(sim.schedule(100.0 + k, fire, len(events), ("none",)))
    fill.extend(events)
    if use_batch:
        start = 0
        while start < len(jobs):
            stop = start
            while stop < len(jobs) and jobs[stop][1] == jobs[start][1]:
                stop += 1
            run = jobs[start:stop]
            base = len(events)
            for event in sim.schedule_batch_abs(
                [t for t, _, _ in run], fire,
                [(base + k, a) for k, (_, _, a) in enumerate(run)],
                priority=jobs[start][1],
            ):
                add(event)
            start = stop
    else:
        for t, prio, action in jobs:
            add(sim.schedule_abs(t, fire, len(events), action, priority=prio))
    for entry in sim._heap:
        assert entry[:3] == entry[3].sort_key() and entry[3]._in_heap
    runs = 0
    while sim._heap:
        sim.run()
        runs += 1
    assert sim._cancelled_in_heap == 0 and not sim._heap
    return order, runs, sim.heap_compactions


def _model_order(n_fill, jobs):
    """Reference: always run the pending event with the least key."""
    pending = {}

    def add(when, prio, action):
        pending[len(meta)] = (when, prio, action)
        meta.append(prio)

    meta = []
    for k in range(n_fill):
        add(100.0 + k, 0, ("none",))
    for t, prio, action in jobs:
        add(t, prio, action)
    order = []
    while pending:
        i = min(pending, key=lambda k: (pending[k][0], pending[k][1], k))
        when, prio, action = pending.pop(i)
        order.append(i)
        kind = action[0]
        if kind == "cancel":
            pending.pop(action[1], None)
        elif kind == "spawn":
            _, dt, new_prio = action
            add(when + dt, _spawn_priority(dt, new_prio, prio), ("none",))
        elif kind == "cancel_fill":
            for k in range(n_fill):
                pending.pop(k, None)
    return order


@settings(max_examples=150, deadline=None)
@given(script=_kernel_scripts())
def test_property_pop_order_is_sorted_time_priority_seq(script):
    """Bucket drains, in-bucket cancels, compaction sweeps triggered from
    a callback and mid-bucket ``stop()`` re-pushes all leave the dispatch
    order equal to repeatedly taking the least ``(time, priority, seq)``."""
    n_fill, jobs, use_batch = script
    order, _, _ = _kernel_order(n_fill, jobs, use_batch)
    assert order == _model_order(n_fill, jobs)


def test_compaction_mid_drain_keeps_the_bucket_in_order():
    # The first job of the t=1 bucket cancels 80 fillers, so the sweep
    # runs while the rest of the bucket waits outside the heap.
    jobs = [(1.0, 0, ("cancel_fill",))] + [(1.0, 0, ("none",))] * 5
    jobs += [(0.5, 1, ("spawn", 0.5, 0))]
    order, runs, compactions = _kernel_order(80, jobs, use_batch=True)
    assert compactions == 1
    assert order == _model_order(80, jobs) == [86, 80, 81, 82, 83, 84, 85, 87]


def test_stop_mid_bucket_re_pushes_the_tail_as_entries():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.schedule(1.0, sim.stop)
    sim.schedule(1.0, order.append, 5)
    sim.schedule(2.0, order.append, 6)
    sim.run()
    assert order == [0, 1, 2, 3, 4] and sim.now == 1.0
    assert sorted(entry[:3] for entry in sim._heap) == [(1.0, 0, 6), (2.0, 0, 7)]
    assert all(entry[3]._in_heap for entry in sim._heap)
    sim.run()
    assert order == [0, 1, 2, 3, 4, 5, 6]


def test_state_hash_ignores_seq_and_cancelled_entries():
    a, b = Simulator(), Simulator()
    a.schedule(1.0, print)
    a.schedule(2.0, print, priority=1)
    b.schedule(0.5, print).cancel()
    b.schedule(2.0, print, priority=1)
    b.schedule(1.0, print)
    assert a.state_hash() == b.state_hash()
    b.clear()
    assert b.pending_events == 0 and b.state_hash() == Simulator().state_hash()


# ----------------------------------------------------------------------
# Queue and rate-limiter batch semantics


def _syn_batch(n, src=0x0A000001, dst=0x0A000002):
    return PacketBatch.tcp_batch(
        n,
        src_ip=src,
        dst_ip=dst,
        src_port=list(range(1000, 1000 + n)),
        dst_port=80,
        flags=TcpFlags.SYN,
    )


def test_enqueue_batch_partial_fit_splits_at_boundary():
    """A batch that half-fits is split head-accepted/tail-dropped."""
    queue = DropTailQueue(capacity=10)
    assert queue.enqueue_batch(_syn_batch(7)) == 7
    assert queue.enqueue_batch(_syn_batch(7)) == 3  # only 3 slots left
    assert queue.dropped == 4
    assert len(queue) == 10
    assert queue.conservation_error() is None
    # The accepted head keeps scalar order: ports run 1000..1006,1000..1002.
    ports = [queue.dequeue().tcp.src_port for _ in range(10)]
    assert ports == list(range(1000, 1007)) + list(range(1000, 1003))
    assert queue.conservation_error() is None
    assert queue.enqueue_batch(_syn_batch(3)) == 3  # drained queue refills


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),  # inter-arrival gap
            st.integers(min_value=0, max_value=40),  # requested
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_property_token_bucket_take_equals_sequential_allow(rate, burst, steps):
    """``take(now, n)`` grants exactly what n ``allow(now)`` calls would."""
    batched = TokenBucket(rate=rate, burst=burst)
    scalar = TokenBucket(rate=rate, burst=burst)
    now = 0.0
    for gap, requested in steps:
        now += gap
        granted = batched.take(now, requested)
        sequential = sum(1 for _ in range(requested) if scalar.allow(now))
        assert granted == sequential
        assert batched.tokens == pytest.approx(scalar.tokens, abs=1e-9)


# ----------------------------------------------------------------------
# Flood-path equivalence: scalar packets vs batched trains


def _flood_capture(attack_kind, batch, n_nodes=4, pps=2000.0, duration=0.1):
    sim = Simulator()
    lan = CsmaLan(sim)
    victim = lan.add_host("tserver")
    victim.tcp.seed(99)
    victim.tcp.listen(80, on_accept=lambda sock: None)
    probe = lan.add_probe(PacketProbe())
    modules = []
    for i in range(n_nodes):
        node = lan.add_host(f"dev-{i}")
        modules.append(
            make_attack(
                attack_kind, node, sim, victim.address, 80,
                pps, duration, seed=1000 + i, batch=batch,
            )
        )
    for module in modules:
        sim.schedule(0.0, module.start)
    sim.run(until=duration + 1.0)
    return probe.records, sum(m.packets_sent for m in modules)


@pytest.mark.parametrize("attack_kind", ["syn", "udp"])
def test_single_sender_flood_records_bit_identical(attack_kind):
    """One sender, no contention: batched floods are the *same capture* —
    timestamps, seq draws, every header field bit-equal to scalar."""
    scalar_records, scalar_sent = _flood_capture(attack_kind, batch=False, n_nodes=1)
    batch_records, batch_sent = _flood_capture(attack_kind, batch=True, n_nodes=1)
    assert scalar_sent == batch_sent > 0
    assert scalar_records == batch_records


def _frame_population(records):
    """Capture content modulo wire interleaving (timestamps dropped)."""
    return Counter(
        (r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.seq, r.size,
         r.tcp_flags, r.label, r.attack)
        for r in records
    )


@pytest.mark.parametrize("attack_kind", ["syn", "udp"])
def test_contending_flood_population_identical_scalar_vs_batch(attack_kind):
    """Many senders contending for the wire: whole-train service reorders
    frame *interleaving* (as real NIC batching does) but must deliver the
    exact same frame population — every address, port, and seq draw —
    and finish the wire schedule at the same instant."""
    scalar_records, scalar_sent = _flood_capture(attack_kind, batch=False)
    batch_records, batch_sent = _flood_capture(attack_kind, batch=True)
    assert scalar_sent == batch_sent > 0
    assert len(scalar_records) == len(batch_records)
    assert _frame_population(scalar_records) == _frame_population(batch_records)
    assert max(r.timestamp for r in scalar_records) == pytest.approx(
        max(r.timestamp for r in batch_records)
    )


# ----------------------------------------------------------------------
# Testbed-level equivalence across topology/emission modes


def _testbed_capture(batch_floods, devices_per_segment):
    scenario = Scenario(
        n_devices=4,
        seed=7,
        batch_floods=batch_floods,
        devices_per_segment=devices_per_segment,
    )
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    dataset = testbed.capture(
        duration=8.0,
        attack_phases=[
            AttackPhase(start=1.0, kind="syn", duration=3.0, pps_per_bot=100.0)
        ],
    )
    return dataset.records


def test_testbed_capture_identical_across_batch_and_segmentation():
    """Same seed → same labelled traffic, flat/segmented, scalar/batched.

    Every dev↔server flow crosses the backbone exactly once, so the
    backbone probe of a segmented topology observes the same per-flow
    population a flat LAN's promiscuous tap does (leaf hosts draw
    different subnet addresses and timestamps shift by a router hop, so
    the comparison is per-label/attack counts); batched emission on the
    *same* topology must match scalar frame for frame.
    """

    def summary(records):
        return (
            len(records),
            Counter((r.attack, r.label, r.protocol) for r in records),
        )

    baseline = _testbed_capture(batch_floods=False, devices_per_segment=0)
    assert len(baseline) > 100
    # Same flat topology, batched emission: identical frame population.
    batched = _testbed_capture(batch_floods=True, devices_per_segment=0)
    assert _frame_population(batched) == _frame_population(baseline)
    # Hierarchical topology (scalar and batched): same labelled traffic.
    for batch_floods in (False, True):
        got = _testbed_capture(batch_floods, devices_per_segment=2)
        assert summary(got) == summary(baseline), batch_floods


def test_full_experiment_verdicts_identical_scalar_vs_batch():
    """Same seed end to end: batched floods leave the windowed traffic and
    every window-level verdict identical to the scalar kernel.

    Whole-train wire service can shift frame *interleaving* under
    contention (see the contending-flood test above), which nudges
    inter-arrival features by microseconds; per-window ground truth,
    dataset summaries, and window attack verdicts must be unaffected,
    and Table I accuracies must agree to well under a point (RF, whose
    thresholds are interval-robust, is bit-equal in practice).
    """
    from repro.testbed import run_full_experiment

    results = []
    for batch_floods in (False, True):
        scenario = Scenario(n_devices=3, seed=11, batch_floods=batch_floods)
        results.append(
            run_full_experiment(
                scenario, train_duration=20.0, detect_duration=10.0
            )
        )
    scalar, batched = results
    assert scalar.train_summary == batched.train_summary
    assert scalar.detect_summary == batched.detect_summary
    for rep_s, rep_b in zip(scalar.detection, batched.detection):
        # Identical window composition: same packets, same true labels.
        assert [
            (w.window_index, w.n_packets, w.n_malicious_true)
            for w in rep_s.windows
        ] == [
            (w.window_index, w.n_packets, w.n_malicious_true)
            for w in rep_b.windows
        ]
        # Identical window-level verdicts (majority-malicious decision).
        assert [
            w.n_malicious_predicted * 2 >= w.n_packets for w in rep_s.windows
        ] == [
            w.n_malicious_predicted * 2 >= w.n_packets for w in rep_b.windows
        ], rep_s.model_name
    for (name_s, acc_s), (name_b, acc_b) in zip(scalar.table1(), batched.table1()):
        assert name_s == name_b
        assert acc_s == pytest.approx(acc_b, abs=0.5), name_s


# ----------------------------------------------------------------------
# Hierarchical topology forwarding


def test_segmented_lan_routes_leaf_to_backbone_and_leaf_to_leaf():
    """UDP crosses leaf→backbone and leaf→leaf through gateway routers."""
    sim = Simulator()
    lan = SegmentedLan(sim, devices_per_segment=2)
    server = lan.add_host("tserver")  # backbone by name
    devs = [lan.add_host(f"dev-{i}") for i in range(4)]  # two leaf segments
    assert len(lan.segments) == 2
    assert lan.segment_of(devs[0]) is lan.segment_of(devs[1])
    assert lan.segment_of(devs[0]) is not lan.segment_of(devs[2])
    assert lan.segment_of(server) is None

    got = []
    server_sock = server.udp.bind(9000)
    server_sock.on_receive = lambda sock, payload, length, src, sport: got.append(
        ("server", str(src))
    )
    dev_sock = devs[3].udp.bind(9001)
    dev_sock.on_receive = lambda sock, payload, length, src, sport: got.append(
        ("dev-3", str(src))
    )
    # leaf → backbone, and leaf → different leaf (via two routers).
    devs[0].udp.bind(0).send_to(server.address, 9000, length=64)
    devs[1].udp.bind(0).send_to(devs[3].address, 9001, length=64)
    sim.run(until=2.0)
    assert ("server", str(devs[0].address)) in got
    assert ("dev-3", str(devs[1].address)) in got


def test_segmented_lan_backbone_probe_sees_cross_segment_traffic():
    """The backbone tap captures every inter-segment frame exactly once."""
    sim = Simulator()
    lan = SegmentedLan(sim, devices_per_segment=2)
    server = lan.add_host("tserver")
    devs = [lan.add_host(f"dev-{i}") for i in range(2)]
    probe = lan.add_probe(PacketProbe())
    server.udp.bind(9000)
    for _ in range(5):
        devs[0].udp.bind(0).send_to(server.address, 9000, length=100)
    sim.run(until=2.0)
    udp_records = [r for r in probe.records if r.dst_ip == server.address.value]
    assert len(udp_records) == 5
