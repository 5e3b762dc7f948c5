"""Integration tests for the paper's narrative attack campaigns."""

import pytest

from repro.faults.campaign import Campaign
from repro.faults.campaign_library import (
    CAMPAIGNS,
    PAPER_CAMPAIGNS,
    physically_breached,
    run_paper_campaign,
)

#: (narrative, protect, home kwargs) -> device states, smoke level,
#: per-stage exploit success, and the end-of-run breach check.
OUTCOMES = [
    ("fig3-break-in", False, {},
     {"fire_alarm": "alarm", "window": "open"}, "clear",
     {"firealarm_backdoor": True, "window_brute_force": True}, True),
    ("fig3-break-in", True, {},
     {"fire_alarm": "ok", "window": "closed"}, "clear",
     {"firealarm_backdoor": False, "window_brute_force": True}, False),
    ("thermal-break-in", False, {},
     {"ac_plug": "off", "window": "open"}, "clear",
     {"plug_backdoor_off": True}, True),
    ("thermal-break-in", True, {},
     {"ac_plug": "on", "window": "closed"}, "clear",
     {"plug_backdoor_off": False}, False),
    ("oven-arson", False, {},
     {"oven_plug": "on", "alarm": "alarm"}, "detected",
     {"oven_plug_backdoor_on": True}, True),
    ("oven-arson", True, {},
     {"oven_plug": "off", "alarm": "ok"}, "clear",
     {"oven_plug_backdoor_on": False}, False),
    # Somebody home: "on" is policy-compliant and flows through the gate.
    ("oven-arson", True, {"occupied": True},
     {"oven_plug": "on", "alarm": "alarm"}, "detected",
     {"oven_plug_backdoor_on": True}, True),
]


@pytest.mark.parametrize(
    "name,protect,home,states,smoke,stages,breached",
    OUTCOMES,
    ids=[f"{o[0]}-{'iotsec' if o[1] else 'current'}{'-occupied' if o[2] else ''}"
         for o in OUTCOMES],
)
def test_narrative_outcome(name, protect, home, states, smoke, stages, breached):
    dep, runner = run_paper_campaign(name, protect, **home)
    assert {device: node.state for device, node in dep.devices.items()} == states
    assert dep.env.level("smoke") == smoke
    assert {n: r.succeeded for n, r in runner.exploit_results.items()} == stages
    assert physically_breached(dep) is breached


def test_fig3_window_posture_per_arm():
    bare, __ = run_paper_campaign("fig3-break-in", protect=False)
    guarded, __ = run_paper_campaign("fig3-break-in", protect=True)
    assert bare.orchestrator.posture_of("window").name == "allow"
    assert guarded.orchestrator.posture_of("window").name == "block-open-fw"


@pytest.mark.parametrize("name", sorted(PAPER_CAMPAIGNS))
def test_paper_campaign_json_roundtrip(name):
    campaign = PAPER_CAMPAIGNS[name]
    assert Campaign.from_json(campaign.to_json()) == campaign


def test_paper_campaigns_stay_out_of_the_corpus():
    assert set(PAPER_CAMPAIGNS).isdisjoint(CAMPAIGNS)
    assert len(CAMPAIGNS) == 19


def test_narratives_journal_like_every_campaign():
    dep, runner = run_paper_campaign("fig3-break-in", protect=True)
    starts = dep.sim.journal.entries(kind="campaign-start")
    assert [e.fields["campaign"] for e in starts] == ["fig3-break-in"]
    stages = dep.sim.journal.entries(kind="campaign-stage")
    assert [e.fields["stage"] for e in stages] == [
        "firealarm_backdoor",
        "window_brute_force",
    ]
    assert runner.trace_id is not None


class TestThermalBreakIn:
    """Section 2.1: plug off -> heat -> cool-down recipe opens the window."""

    def test_current_world_breached_without_touching_the_window(self):
        dep, __ = run_paper_campaign("thermal-break-in", protect=False)
        assert dep.devices["window"].state == "open"  # physics + automation
        # the attacker never sent a packet to the window
        assert all(r.src != "attacker" for r in dep.devices["window"].command_log)

    def test_iotsec_blocks_the_backdoor_stage(self):
        dep, __ = run_paper_campaign("thermal-break-in", protect=True)
        assert dep.devices["ac_plug"].state == "on"  # backdoor command dropped
        assert any(a.kind == "signature-match" for a in dep.alerts("ac_plug"))


class TestOvenArson:
    """Fig. 5's hazard: oven powered remotely while nobody is home."""

    def test_current_world_smoke_and_alarm(self):
        dep, __ = run_paper_campaign("oven-arson", protect=False)
        assert dep.env.level("smoke") == "detected"
        assert dep.devices["alarm"].state == "alarm"
        # the physical cascade tripped the alarm, not attacker traffic
        assert all(r.src != "attacker" for r in dep.devices["alarm"].command_log)

    def test_iotsec_context_gate_blocks_when_absent(self):
        dep, __ = run_paper_campaign("oven-arson", protect=True)
        # the gate dropped "on" before it reached the plug
        assert all(r.src != "attacker" for r in dep.devices["oven_plug"].command_log)
        assert any(
            a.kind == "context-gate-blocked" for a in dep.alerts("oven_plug")
        )
