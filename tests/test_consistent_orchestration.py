"""Tests for the orchestrator's two-phase consistent-update mode."""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.devices import protocol
from repro.devices.library import smart_bulb, smart_camera, smart_plug, thermostat
from repro.policy.posture import ALLOW_ALL, block_commands
from repro.sdn.flowrule import FlowRule


@pytest.fixture
def dep():
    deployment = SecuredDeployment.build(consistent_updates=True)
    deployment.add_device(smart_camera, "cam")
    deployment.add_device(smart_plug, "plug")
    deployment.add_attacker()
    deployment.finalize()
    return deployment


def test_rules_installed_with_version_tags(dep):
    dep.secure("cam", block_commands("stop"))
    dep.run(until=1.0)
    rules = dep.edge.rules_for("cam")
    assert len(rules) == 4
    assert all(r.version is not None for r in rules)
    assert dep.edge.active_version == rules[0].version


def test_rules_inactive_before_commit(dep):
    dep.secure("cam", block_commands("stop"))
    # the two-phase commit needs 3 channel legs (2 ms each); before that,
    # the new epoch is installed but not active
    assert dep.edge.active_version is None
    assert dep.edge.lookup(
        protocol.command("attacker", "cam", "stop"), in_port=0
    ) is None
    dep.run(until=1.0)
    assert dep.edge.active_version is not None


def test_traffic_traverses_mbox_after_commit(dep):
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    dep.run(until=3.0)
    assert dep.devices["plug"].state == "off"
    assert len(dep.alerts("plug")) == 1


def test_second_device_epoch_keeps_first_devices_rules(dep):
    dep.secure("cam", block_commands("stop"))
    dep.run(until=1.0)
    dep.secure("plug", block_commands("on"))
    dep.run(until=2.0)
    assert len(dep.edge.rules_for("cam")) == 4
    assert len(dep.edge.rules_for("plug")) == 4
    # all live rules belong to the latest epoch (old one garbage-collected)
    versions = {r.version for r in dep.edge.flow_table}
    assert len(versions) == 1
    assert dep.edge.active_version in versions


def test_removal_epoch_drops_only_that_device(dep):
    dep.secure("cam", block_commands("stop"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    dep.orchestrator.unpin("cam")
    dep.orchestrator.apply("cam", ALLOW_ALL)
    dep.run(until=2.0)
    assert dep.edge.rules_for("cam") == []
    assert len(dep.edge.rules_for("plug")) == 4


def test_both_devices_protected_end_to_end(dep):
    dep.secure("cam", block_commands("record"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    replies = []
    attacker.request(
        protocol.login("attacker", "cam", "admin", "admin"), replies.append
    )
    dep.run(until=3.0)
    assert dep.devices["plug"].state == "off"
    # cam's posture only blocks "record": login still flows through its mbox
    assert len(replies) == 1


def test_epoch_installs_call_sort_key_once_per_rule(monkeypatch):
    """Write-path gate: installing an epoch costs O(rules), not a table sort.

    Each of 40 onboardings pushes one epoch carrying every device's rules
    on the edge switch.  A switch that re-sorts its table per installed
    rule calls ``FlowRule.sort_key`` hundreds of thousands of times here;
    the bucket index needs one call per installed rule.
    """
    calls = {"n": 0}
    original = FlowRule.sort_key

    def counted(rule):
        calls["n"] += 1
        return original(rule)

    monkeypatch.setattr(FlowRule, "sort_key", counted)
    deployment = SecuredDeployment.build(consistent_updates=True)
    factories = (smart_camera, smart_plug, thermostat, smart_bulb)
    names = [f"dev{i}" for i in range(40)]
    for i, name in enumerate(names):
        deployment.add_device(factories[i % len(factories)], name)
    deployment.finalize()
    deployment.run(until=0.1)
    calls["n"] = 0
    first = len(deployment.orchestrator.updater.reports)
    for name in names:
        deployment.secure(name, block_commands("stop"), pin=False)
        deployment.run(until=deployment.sim.now + 0.1)

    reports = deployment.orchestrator.updater.reports[first:]
    assert len(reports) == len(names)
    assert all(r.committed_at is not None for r in reports)
    installed = sum(r.rules_installed for r in reports)
    assert installed >= 4 * len(names) * (len(names) + 1) // 2
    assert calls["n"] <= installed
