"""Scenario / FaultPlan JSON round-trips (campaign grids, cache keys)."""

import json
from dataclasses import asdict

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.testbed import AttackPhase, Scenario


class TestScenarioRoundTrip:
    def test_default_scenario_roundtrips(self):
        scenario = Scenario()
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_roundtrip_through_json_text(self):
        scenario = Scenario(
            n_devices=4, seed=11, window_seconds=2.0, churn_interval=15.0,
            http_weight=0.5, ftp_weight=0.2, rtmp_weight=0.3,
        )
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    def test_fault_plan_nests(self):
        plan = FaultPlan.of(
            FaultSpec(kind="loss", start=2.0, duration=5.0, rate=0.1),
            FaultSpec(kind="kill", start=8.0, duration=3.0,
                      targets=("dev-0",), restart="on-failure"),
            seed=3,
        )
        scenario = Scenario(n_devices=3, fault_plan=plan)
        payload = scenario.to_dict()
        assert payload["fault_plan"]["seed"] == 3
        clone = Scenario.from_dict(json.loads(json.dumps(payload)))
        assert clone.fault_plan == plan
        assert clone == scenario

    def test_post_init_validation_fires_on_load(self):
        payload = Scenario().to_dict()
        payload["n_devices"] = 0
        with pytest.raises(ValueError, match="at least one device"):
            Scenario.from_dict(payload)
        payload = Scenario().to_dict()
        payload["window_seconds"] = -1.0
        with pytest.raises(ValueError, match="window_seconds"):
            Scenario.from_dict(payload)

    def test_unknown_keys_rejected(self):
        payload = Scenario().to_dict()
        payload["num_devices"] = 6  # typo'd field name
        with pytest.raises(ValueError, match="unknown Scenario field"):
            Scenario.from_dict(payload)

    def test_dict_order_is_stable(self):
        # Canonical-JSON cache keys rely on deterministic content.
        assert list(Scenario().to_dict()) == list(Scenario(seed=99).to_dict())


class TestAttackPhaseValidation:
    def test_unknown_kind_rejected_at_construction(self):
        # The typo must surface here, before any testbed is built or
        # infected, not inside Testbed.capture.
        with pytest.raises(ValueError, match="unknown attack 'synn'"):
            AttackPhase(start=1.0, kind="synn", duration=2.0, pps_per_bot=10.0)
        # Stage params carry phases as dicts; rebuilding one re-validates.
        payload = asdict(Scenario().training_schedule(60.0)[0])
        payload["kind"] = "synn"
        with pytest.raises(ValueError, match="unknown attack 'synn'"):
            AttackPhase(**payload)

    def test_known_kinds_accepted_case_insensitively(self):
        for kind in ("syn", "ACK", "udp_flood"):
            AttackPhase(start=0.0, kind=kind, duration=1.0, pps_per_bot=1.0)


class TestFaultPlanRoundTrip:
    def test_spec_roundtrip_revalidates(self):
        spec = FaultSpec(kind="partition", start=1.0, duration=2.0, targets=("dev-1",))
        clone = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.targets == ("dev-1",)  # tuple restored, not list
        bad = spec.to_dict()
        bad["duration"] = -1.0
        with pytest.raises(ValueError):
            FaultSpec.from_dict(bad)

    def test_plan_roundtrip(self):
        plan = FaultPlan.of(
            FaultSpec(kind="loss", start=0.0, duration=4.0, rate=0.2),
            seed=5,
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
