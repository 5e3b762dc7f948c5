"""Tests for controller survivability: checkpoint/restore and failover.

The contract under test:

- a checkpoint is a *deterministic* snapshot: the same seeded run always
  produces the same content digest, and a digest mismatch means the
  security state actually differs;
- restore + journal-tail replay reconstructs exactly the state the
  crashed controller held (view, escalation windows, postures) -- the
  journal is a WAL, not just evidence;
- hot-standby takeover re-adopts the data plane under the primary's
  endpoint name and never *lowers* a device's defenses while reconciling.
"""

import hashlib
import json

import pytest

from repro.core.controller import DEFAULT_ESCALATIONS, EscalationRule
from repro.core.deployment import SecuredDeployment
from repro.core.ha import CHECKPOINT_VERSION, Checkpoint, CheckpointStore
from repro.core.overload import IngestConfig
from repro.devices.library import smart_camera, smart_plug
from repro.policy.context import NORMAL, SUSPICIOUS
from repro.policy.fsm import PostureRule, StatePredicate
from repro.policy.posture import block_commands, quarantine


def make_dep(sim=None, **kwargs):
    dep = SecuredDeployment.build(
        sim=sim,
        consistent_updates=True,
        reliable_control=True,
        checkpointing=True,
        checkpoint_period=1.0,
        **kwargs,
    )
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
    dep.finalize()
    dep.secure("plug", block_commands("on"))
    dep.enforce_baseline()
    return dep


def send_alert(dep, device, kind, at):
    dep.sim.schedule_at(
        at,
        dep.channel.send,
        dep.CLUSTER,
        dep.CONTROLLER,
        "alert",
        {"device": device, "kind": kind, "detail": {}},
    )


def drive(dep, horizon=8.0):
    """A small deterministic workload: enough alerts to escalate the cam.

    The last alert lands *after* the final checkpoint tick, so restoring
    requires the journal tail, not just the snapshot.
    """
    for i in range(5):
        send_alert(dep, "cam", "login-attempt", 1.0 + i * 0.5)
    send_alert(dep, "plug", "anomalous-command", 2.0)
    send_alert(dep, "cam", "login-attempt", horizon - 0.2)
    dep.run(until=horizon)
    return dep


# ---------------------------------------------------------------------------
# Checkpoint determinism
# ---------------------------------------------------------------------------
class TestCheckpointDeterminism:
    def test_same_seeded_run_same_digests(self):
        """Two independent runs of the same scenario checkpoint to
        byte-identical digests -- the cross-machine determinism CI relies
        on."""
        digests = []
        for __ in range(2):
            dep = drive(make_dep())
            digests.append([cp.digest() for cp in dep.checkpoint_store])
        assert digests[0] == digests[1]
        assert len(digests[0]) >= 4  # periodic ticks actually fired

    def test_digest_tracks_state(self):
        """The digest changes exactly when controller state changes."""
        dep = make_dep()
        dep.run(until=0.5)
        a = Checkpoint.capture(dep.controller).digest()
        assert Checkpoint.capture(dep.controller).digest() == a
        dep.controller.set_context("cam", "suspicious")
        assert Checkpoint.capture(dep.controller).digest() != a

    def test_round_trips_through_dict(self):
        dep = drive(make_dep())
        cp = Checkpoint.capture(dep.controller)
        clone = Checkpoint.from_dict(cp.as_dict())
        assert clone.digest() == cp.digest()
        assert clone.view == cp.view and clone.escalations == cp.escalations

    def test_rejects_unknown_version(self):
        dep = make_dep()
        data = Checkpoint.capture(dep.controller).as_dict()
        data["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError):
            Checkpoint.from_dict(data)


def reference_digest(checkpoint):
    """The digest's definition: sha256 over the whole dict, encoded at once."""
    canonical = json.dumps(checkpoint.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def quarantine_rule(device, context="compromised"):
    return PostureRule(
        predicate=StatePredicate.make({f"ctx:{device}": context}),
        device=device,
        posture=quarantine(device),
        priority=500,
    )


class TestMemoizedCheckpoints:
    """Checkpoints reuse the policy's per-revision encoding; the bytes
    they hash and the rules they carry are those of a fresh encoding."""

    def test_digest_matches_whole_dict_encoding(self):
        dep = make_dep(standby=True, ha_seed=7)
        dep.checkpoint_store.keep = 1000  # keep every tick's checkpoint
        dep.sim.schedule_at(3.5, dep.controller.update_policy, quarantine_rule("cam"))
        drive(dep)
        captured = list(dep.checkpoint_store)
        revisions = {len(cp.policy["rules"]) for cp in captured}
        assert len(captured) >= 7 and len(revisions) == 2  # before and after the rule
        # The standby's copy arrived over the channel and was rebuilt by
        # from_dict: it hashes like the primary's original.
        standby = dep.standby_controller.checkpoint
        original = {cp.seq: cp for cp in captured}[standby.seq]
        assert standby.digest() == original.digest()
        rebuilt = [Checkpoint.from_dict(cp.as_dict()) for cp in captured]
        for cp in [*captured, *rebuilt, standby]:
            assert cp.digest() == reference_digest(cp)
        assert [cp.digest() for cp in rebuilt] == [cp.digest() for cp in captured]

    def test_runtime_rule_invalidates_the_memo(self):
        dep = SecuredDeployment.build(consistent_updates=True, checkpointing=True)
        dep.add_device(smart_camera, "cam")
        dep.finalize()
        dep.run(until=1.0)
        policy = dep.controller.policy
        before = Checkpoint.capture(dep.controller)
        assert Checkpoint.capture(dep.controller).policy is before.policy  # memo hit
        revision = policy.revision
        dep.controller.update_policy(quarantine_rule("cam", context="suspicious"))
        assert policy.revision == revision + 1
        dep.run(until=6.0)  # a periodic tick captures after the rule

        checkpoint = dep.checkpoint_store.latest()
        assert checkpoint.seq > dep.sim.journal.entries(kind="policy-update")[-1].seq
        assert checkpoint.digest() != before.digest()
        assert checkpoint.digest() == reference_digest(checkpoint)
        added = [r for r in checkpoint.policy["rules"] if r["priority"] == 500]
        assert [(r["device"], r["when"], r["posture"]["name"]) for r in added] == [
            ("cam", {"ctx:cam": "suspicious"}, "quarantine")
        ]

        # The restored controller gets the rule from the checkpoint alone
        # (the policy-update entry predates it, so the WAL tail replays no
        # rule) and enforces its posture.
        dep.crash_controller()
        dep.restart_controller()
        restart = dep.sim.journal.entries(kind="controller-restart")[-1]
        assert restart.fields["checkpoint_seq"] == checkpoint.seq
        assert dep.orchestrator.current.get("cam") is None or (
            dep.orchestrator.current["cam"].is_permissive
        )
        dep.controller.set_context("cam", "suspicious")
        dep.run(until=7.0)
        assert dep.orchestrator.current["cam"].name == "quarantine"


class TestCheckpointStore:
    def test_keeps_newest_n(self):
        dep = make_dep()
        store = CheckpointStore(keep=3)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            dep.run(until=t)
            store.add(Checkpoint.capture(dep.controller))
        assert store.captured == 5 and len(store) == 3
        assert store.latest().at == 5.0
        assert [cp.at for cp in store] == [3.0, 4.0, 5.0]

    def test_latest_empty(self):
        assert CheckpointStore().latest() is None


# ---------------------------------------------------------------------------
# Restore + WAL replay
# ---------------------------------------------------------------------------
class TestRestoreReplay:
    def test_restart_reconstructs_crashed_state(self):
        """Checkpoint + journal-tail replay equals the never-crashed
        state: view, escalation windows and installed postures all match
        what the controller held the instant it died."""
        dep = drive(make_dep(), horizon=7.3)
        before = {
            "view": dep.controller.view.snapshot(),
            "escalations": dep.controller.pipeline.escalator.snapshot(),
            "postures": {d: p.name for d, p in dep.orchestrator.current.items()},
        }
        assert before["view"].get("ctx:cam") == "suspicious"  # workload escalated

        dep.crash_controller()
        dep.restart_controller()

        after = {
            "view": dep.controller.view.snapshot(),
            "escalations": dep.controller.pipeline.escalator.snapshot(),
            "postures": {d: p.name for d, p in dep.orchestrator.current.items()},
        }
        assert after == before
        restart = dep.sim.journal.entries(kind="controller-restart")
        assert len(restart) == 1
        # The escalations that fired after the last checkpoint came back
        # through the WAL tail, not the (stale) checkpoint.
        assert restart[0].fields["replayed"] > 0

    def test_restart_requires_a_checkpoint(self):
        dep = SecuredDeployment.build()
        dep.add_device(smart_plug, "plug")
        dep.finalize()
        with pytest.raises(RuntimeError):
            dep.restart_controller()

    def test_crash_is_idempotent_and_detaches(self):
        dep = make_dep()
        dep.run(until=0.5)
        dep.crash_controller()
        crashed = dep.sim.journal.entries(kind="controller-crash")
        assert len(crashed) == 1
        # Alerts to the dead controller do not raise; they are retried or
        # dropped by the channel, never handled.
        send_alert(dep, "cam", "login-attempt", 0.6)
        dep.run(until=1.0)
        assert dep.sim.journal.entries(kind="alert-ingest") == []


# ---------------------------------------------------------------------------
# Hot-standby failover
# ---------------------------------------------------------------------------
class TestFailover:
    def make_ha_dep(self):
        dep = SecuredDeployment.build(
            consistent_updates=True,
            reliable_control=True,
            checkpointing=True,
            checkpoint_period=1.0,
            standby=True,
            ha_seed=7,
        )
        dep.add_device(smart_camera, "cam")
        dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        dep.enforce_baseline()
        return dep

    def test_takeover_on_heartbeat_loss(self):
        dep = self.make_ha_dep()
        primary = dep.controller
        dep.sim.schedule_at(5.0, dep.crash_controller)
        dep.run(until=10.0)
        assert dep.controller is not primary
        assert dep.controller is dep.standby_controller.promoted
        failover = dep.sim.journal.entries(kind="failover")
        complete = dep.sim.journal.entries(kind="failover-complete")
        assert len(failover) == 1 and len(complete) == 1
        assert failover[0].fields["reason"] == "heartbeat-timeout"
        # Detection is heartbeat timeout + jitter + check quantum, not
        # minutes of silence.
        assert complete[0].fields["blind_s"] < 2.0

    def test_takeover_never_lowers_defenses(self):
        """Reconciliation keeps the stricter installed posture when the
        restored policy has no opinion (the out-of-band monitor baseline
        and the pinned block must both survive takeover)."""
        dep = self.make_ha_dep()
        before = {d: p.name for d, p in dep.orchestrator.current.items()}
        dep.sim.schedule_at(5.0, dep.crash_controller)
        dep.run(until=10.0)
        after = {d: p.name for d, p in dep.orchestrator.current.items()}
        assert after == before
        assert after["cam"] == "monitor" and after["plug"] == "block-commands"

    def test_new_primary_serves_alerts(self):
        """Post-takeover the standby runs the whole loop under the
        primary's endpoint name: alerts escalate and postures land."""
        dep = self.make_ha_dep()
        dep.sim.schedule_at(5.0, dep.crash_controller)
        for i in range(5):
            send_alert(dep, "cam", "login-attempt", 8.0 + i * 0.5)
        dep.run(until=15.0)
        assert dep.controller.view.get("ctx:cam") == "suspicious"

    def test_scenario_blind_window_ratio(self):
        """The E13 acceptance bound: failover's blind window is under 20%
        of the cold-restart outage, and nothing retried at the dead
        primary is abandoned."""
        from repro.faults.ha_scenario import run_failover_scenario

        crash = run_failover_scenario(standby=False)
        standby = run_failover_scenario(standby=True)
        assert standby["failovers"] == 1 and crash["restarts"] == 1
        assert standby["blind_window_s"] < 0.2 * crash["blind_window_s"]
        assert standby["ctrl_giveups"] == 0


# ---------------------------------------------------------------------------
# Site settings carry over to every controller the site builds
# ---------------------------------------------------------------------------
#: The default rules, except that two login attempts already make a
#: device suspicious (the default needs five).
TWO_STRIKES = tuple(
    r for r in DEFAULT_ESCALATIONS if r.alert_kind != "login-attempt"
) + (EscalationRule("login-attempt", SUSPICIOUS, count=2, window=30.0),)


class TestSiteBuildsEveryController:
    """Cold restart and standby takeover build their controller through the
    site, so its escalation rules, ingest backpressure and checkpoint loop
    are the first controller's."""

    def make_site(self, **kwargs):
        dep = SecuredDeployment.build(
            checkpointing=True,
            checkpoint_period=1.0,
            ingest=IngestConfig(),
            escalations=TWO_STRIKES,
            **kwargs,
        )
        for name in ("cam0", "cam1"):
            dep.add_device(smart_camera, name)
        dep.finalize()
        return dep

    def escalates_on_second_attempt(self, dep, device, at):
        send_alert(dep, device, "login-attempt", at)
        dep.run(until=at + 0.1)
        first = dep.controller.context_of(device)
        send_alert(dep, device, "login-attempt", at + 0.2)
        dep.run(until=at + 0.3)
        return first == NORMAL and dep.controller.context_of(device) == SUSPICIOUS

    def assert_site_wired(self, dep):
        assert dep.controller.ingest.on_shed == dep.cluster.set_backpressure
        assert dep.checkpointer.controller is dep.controller
        # One loop: one checkpoint per period for the next three periods.
        since = dep.sim.journal.last_seq
        dep.run(until=dep.sim.now + 3.0)
        ticks = [e for e in dep.sim.journal.entries_since(since) if e.kind == "checkpoint"]
        assert len(ticks) == 3

    def test_first_controller_uses_site_escalations(self):
        dep = self.make_site()
        assert self.escalates_on_second_attempt(dep, "cam0", 1.0)
        self.assert_site_wired(dep)

    def test_restarted_controller_keeps_site_settings(self):
        dep = self.make_site()
        assert self.escalates_on_second_attempt(dep, "cam0", 1.0)
        dep.crash_controller()
        restarted = dep.restart_controller()
        assert dep.controller is restarted
        self.assert_site_wired(dep)
        assert self.escalates_on_second_attempt(dep, "cam1", dep.sim.now + 0.5)

    def test_promoted_standby_keeps_site_settings(self):
        dep = self.make_site(standby=True)
        primary = dep.controller
        assert self.escalates_on_second_attempt(dep, "cam0", 1.0)
        dep.sim.schedule_at(2.0, dep.crash_controller)
        dep.run(until=5.0)
        assert dep.controller is not primary
        assert dep.controller is dep.standby_controller.promoted
        self.assert_site_wired(dep)
        assert self.escalates_on_second_attempt(dep, "cam1", dep.sim.now + 0.5)
