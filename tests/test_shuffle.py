"""Bucket-shuffle race detector tests (``Simulator(shuffle_buckets=…)``).

The kernel claims equal-``(time, priority)`` bucket mates commute
(ORD002's contract).  The shuffle sanitizer *tests* that claim at
runtime: a deterministic permutation of every same-bucket drain must
leave all observable results bit-identical.  These tests pin

* the mechanism — shuffling really permutes dispatch, deterministically
  per seed, and a deliberately order-dependent workload is caught;
* the contract — kernel state hashes and full-experiment verdicts are
  bit-identical across shuffle seeds.
"""

import pytest

from repro.analysis import shuffle_seed_from_env
from repro.sim import Simulator
from repro.testbed import AttackPhase, Scenario, Testbed, run_full_experiment


def _bucket_order(shuffle_buckets, tags=16):
    """Dispatch order of one 16-event bucket (all at t=1, priority 0)."""
    sim = Simulator(shuffle_buckets=shuffle_buckets)
    order = []
    for i in range(tags):
        sim.schedule(1.0, order.append, i)
    sim.run()
    return order


class TestShuffleMechanism:
    def test_unshuffled_bucket_runs_in_schedule_order(self):
        assert _bucket_order(None) == list(range(16))

    def test_shuffle_permutes_bucket_deterministically(self):
        first = _bucket_order(shuffle_buckets=1)
        assert sorted(first) == list(range(16))  # nothing lost or duplicated
        assert first != list(range(16))  # 1-in-16! chance if broken
        assert _bucket_order(shuffle_buckets=1) == first  # same seed, same order
        assert _bucket_order(shuffle_buckets=2) != first  # new seed, new order

    def test_env_seed_arms_the_shuffler(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHUFFLE", "7")
        assert Simulator().shuffle_seed == 7
        assert _bucket_order(None) != list(range(16))
        monkeypatch.setenv("REPRO_SHUFFLE", "off")
        assert Simulator().shuffle_seed is None

    def test_shuffle_seed_env_parsing(self, monkeypatch):
        for raw, expected in [
            ("", None), ("0", None), ("off", None), ("FALSE", None),
            ("no", None), ("7", 7), ("0x10", 16), ("  3 ", 3),
        ]:
            monkeypatch.setenv("REPRO_SHUFFLE", raw)
            assert shuffle_seed_from_env() == expected, raw
        monkeypatch.setenv("REPRO_SHUFFLE", "garbage")
        with pytest.raises(ValueError):
            shuffle_seed_from_env()

    def test_order_dependent_workload_is_caught(self):
        """The detector's point: a last-writer-wins race that schedule
        order happens to hide becomes a visible divergence."""

        def last_writer(shuffle_buckets):
            sim = Simulator(shuffle_buckets=shuffle_buckets)
            state = {"winner": None}
            for tag in range(8):
                sim.schedule(1.0, state.__setitem__, "winner", tag)
            sim.run()
            return state["winner"]

        assert last_writer(None) == 7  # schedule order: last scheduled wins
        winners = {last_writer(seed) for seed in range(1, 6)}
        assert winners != {7}  # some permutation exposes the race


class TestShuffleContract:
    def test_state_hash_identical_for_commuting_bucket(self):
        """Counter-increment bucket mates commute: every shuffle seed
        must end on the same kernel state hash and counter value."""

        def run(shuffle_buckets):
            sim = Simulator(shuffle_buckets=shuffle_buckets)
            state = {"count": 0}

            def bump(k):
                state["count"] += k
                sim.schedule(0.5, lambda: None)  # pending tail state

            for k in range(10):
                sim.schedule(1.0, bump, k)
            sim.run(until=1.2)
            return state["count"], sim.state_hash()

        baseline = run(None)
        for seed in (1, 2, 3):
            assert run(seed) == baseline

    def test_phases_starting_together_do_not_race(self):
        """Two attack phases at one instant: a bot runs the order it
        receives last, so the schedule order must hold under shuffling."""
        phases = [
            AttackPhase(start=0.5, kind="syn", duration=1.0, pps_per_bot=100.0),
            AttackPhase(start=0.5, kind="ack", duration=1.0, pps_per_bot=100.0),
        ]

        def run(shuffle_buckets):
            testbed = Testbed(
                Scenario(n_devices=2, seed=11), shuffle_buckets=shuffle_buckets
            ).build()
            testbed.infect_all()
            return testbed.capture(2.0, phases).summary().by_attack

        baseline = run(None)
        assert baseline.get("ack_flood", 0) > baseline.get("syn_flood", 0)
        for seed in (1, 2, 3, 4, 5):
            assert run(seed) == baseline, seed

    def test_order_at_a_flood_tick_instant_stops_it_after_the_tick(self):
        """An order arriving exactly at a running flood's tick instant
        (the 3 s training schedule's ACK order reaches each bot one
        second of ticks after its SYN order) must not race the tick."""
        from repro.botnet.attacks import TICK, make_attack
        from repro.sim import CsmaLan

        def run(shuffle_buckets):
            sim = Simulator(shuffle_buckets=shuffle_buckets)
            lan = CsmaLan(sim)
            bot = lan.add_host("bot")
            victim = lan.add_host("victim")
            attack = make_attack(
                "syn", bot, sim,
                victim.address, 80, pps=200.0, duration=5.0, batch=True,
            )
            sim.schedule_abs(0.5, attack.start)
            # Scheduled first, so unshuffled it would win a shared bucket.
            sim.schedule_abs(0.5 + 10 * TICK, attack.stop)
            sim.run(until=1.0)
            return attack.packets_sent

        assert run(None) == 11 * 2  # ticks 0..10 at 2 packets each
        for seed in (1, 2, 3, 4, 5):
            assert run(seed) == run(None), seed

    def test_full_experiment_bit_identical_across_shuffle_seeds(self, monkeypatch):
        """Acceptance: one small full experiment, >= 3 shuffle seeds,
        bit-identical window verdicts and result fingerprint."""
        results = {}
        for seed in (None, 1, 2, 3):
            if seed is None:
                monkeypatch.delenv("REPRO_SHUFFLE", raising=False)
            else:
                monkeypatch.setenv("REPRO_SHUFFLE", str(seed))
            results[seed] = run_full_experiment(
                Scenario(n_devices=3, seed=11),
                train_duration=20.0,
                detect_duration=10.0,
            )
        baseline = results[None]
        verdicts = {
            report.model_name: [
                (w.window_index, w.n_packets, w.n_malicious_true,
                 w.n_malicious_predicted, w.status)
                for w in report.windows
            ]
            for report in baseline.detection
        }
        assert any(len(v) > 0 for v in verdicts.values())
        for seed in (1, 2, 3):
            result = results[seed]
            assert result.fingerprint() == baseline.fingerprint(), seed
            for report in result.detection:
                assert verdicts[report.model_name] == [
                    (w.window_index, w.n_packets, w.n_malicious_true,
                     w.n_malicious_predicted, w.status)
                    for w in report.windows
                ], (seed, report.model_name)
            assert result.table1() == baseline.table1(), seed
