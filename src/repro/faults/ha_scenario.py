"""Controller-survivability scenarios: crash/failover and alert storms.

Two seeded, deterministic experiments behind bench E13:

**Failover** (:func:`run_failover_scenario`): one protected home loses its
controller mid-attack.  The camera's brute-force wave starts right after
the crash, so every alert that would escalate it lands on a dead endpoint
(at-least-once retries keep them alive on the wire).  Two arms:

- ``standby=False`` -- the crash arm: the site runs periodic local
  checkpoints but has no replica; an operator cold-restarts the
  controller ``RESTART_AFTER`` seconds later from the latest checkpoint +
  journal tail.  The *blind window* -- attack seconds before the first
  post-crash enforcing posture lands -- is essentially the outage length.
- ``standby=True`` -- the failover arm: a hot standby consumes replicated
  checkpoints and journal deltas, detects the silence by heartbeat
  timeout, and takes over under the primary's endpoint name, so pending
  alert retransmissions deliver to it.  The blind window collapses to
  detection time plus one escalation window.

Background logins *before* the crash are part of the experiment: the
camera needs 5 login attempts inside 30 s to escalate, and two of them
happen pre-crash -- the post-crash escalation only fires promptly because
the restored escalation windows still remember them.

**Storm** (:func:`run_storm_scenario`): the controller's ingest queue
faces a 10x telemetry flood while real enforcing-posture alerts keep
arriving.  With ``shedding=True`` the queue is class-prioritized with
watermark shedding; with ``shedding=False`` it degrades to plain bounded
drop-tail FIFO (same capacity, same service rate).  Headline metrics: the
fraction of enforcing-class alerts processed and per-class P99 queueing
latency.
"""

from __future__ import annotations

from typing import Any

from repro.core.overload import CLASS_NAMES, IngestConfig
from repro.faults.plan import FaultEvent, FaultPlan

#: Failover-scenario schedule (seconds, simulated).
CRASH_AT = 10.0
RESTART_AFTER = 20.0          # cold-restart delay in the no-standby arm
CHECKPOINT_PERIOD = 2.0
BACKGROUND_LOGINS = (3.0, 6.0)
ATTACK_START = 10.5
ATTACK_PERIOD = 0.5
FAILOVER_HORIZON = 40.0

#: Storm-scenario schedule and rates.
STORM_HORIZON = 20.0
TELEMETRY_RATE = 50.0         # background telemetry, alerts/s over [1, 19)
STORM_RATE = 500.0            # the 10x flood, alerts/s over [5, 13)
ENFORCING_RATE = 20.0         # real alerts for an enforcing device
STORM_START = 5.0
STORM_LEN = 8.0
INGEST_CAPACITY = 128
INGEST_SERVICE_TIME = 0.004   # 250 alerts/s service ceiling


def run_failover_scenario(
    standby: bool,
    seed: int = 7,
    horizon: float = FAILOVER_HORIZON,
    keep_dep: bool = False,
) -> dict[str, Any]:
    """Run one arm of the crash-vs-failover experiment."""
    from repro.core.deployment import SecuredDeployment
    from repro.devices import protocol
    from repro.devices.library import smart_camera, smart_plug
    from repro.policy.posture import block_commands

    dep = SecuredDeployment.build(
        consistent_updates=True,
        reliable_control=True,
        checkpointing=True,
        checkpoint_period=CHECKPOINT_PERIOD,
        standby=standby,
        ha_seed=seed,
    )
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
    attacker = dep.add_attacker()
    dep.finalize()

    # The crash is a declared fault -- journaled, reproducible, reviewable.
    FaultPlan([FaultEvent(CRASH_AT, "controller-crash", "controller")]).apply(dep)
    if not standby:
        dep.sim.schedule_at(CRASH_AT + RESTART_AFTER, dep.restart_controller)

    dep.secure("plug", block_commands("on"))  # pinned: survives failover
    dep.enforce_baseline()  # cam: unpinned monitor posture, policy-driven

    # Pre-crash background logins: two of the five the escalation window
    # needs.  Only a restore that rebuilds the sliding windows lets the
    # post-crash wave escalate on its third attempt instead of its fifth.
    for t in BACKGROUND_LOGINS:
        dep.sim.schedule_at(
            t,
            attacker.fire_and_forget,
            protocol.login("attacker", "cam", "admin", "admin"),
        )

    attempts = 0
    t = ATTACK_START
    while t < horizon:
        dep.sim.schedule_at(
            t,
            attacker.fire_and_forget,
            protocol.login("attacker", "cam", "admin", "admin"),
        )
        attempts += 1
        t += ATTACK_PERIOD

    dep.run(until=horizon)

    # Blind window: attack time from the crash until the first *enforcing*
    # posture lands anywhere post-crash (the camera's firewall).
    enforced_at = next(
        (
            r.at
            for r in dep.orchestrator.records
            if r.at > CRASH_AT
            and r.device == "cam"
            and r.posture not in ("allow", "monitor")
        ),
        None,
    )
    blind = (enforced_at - CRASH_AT) if enforced_at is not None else horizon - CRASH_AT

    journal = dep.sim.journal
    failover_entries = journal.entries(kind="failover-complete")
    restart_entries = journal.entries(kind="controller-restart")
    cam = dep.devices["cam"]
    result: dict[str, Any] = {
        "arm": "standby" if standby else "crash",
        "seed": seed,
        "horizon_s": horizon,
        "attack_attempts": attempts,
        "cam_login_successes": sum(
            1 for __, src, __, ok in cam.login_log if ok and src == "attacker"
        ),
        "blind_window_s": round(blind, 6),
        "cam_enforced_at": round(enforced_at, 6) if enforced_at is not None else None,
        "checkpoints": dep.checkpoint_store.captured if dep.checkpoint_store else 0,
        "failovers": len(failover_entries),
        "restarts": len(restart_entries),
        "replayed": (
            failover_entries[0].fields["replayed_alerts"]
            + failover_entries[0].fields["replayed_contexts"]
            if failover_entries
            else (restart_entries[0].fields["replayed"] if restart_entries else 0)
        ),
        "reconciled": (
            failover_entries[0].fields["reconciled"]
            if failover_entries
            else (restart_entries[0].fields["reconciled"] if restart_entries else 0)
        ),
        "ctrl_retries": dep.channel.retries,
        "ctrl_giveups": dep.channel.giveups,
        "ctrl_duplicates": dep.channel.duplicates,
        "dedup_evictions": dep.channel.dedup_evictions,
        "events": dep.sim.events_processed,
    }
    if keep_dep:
        result["dep"] = dep
    return result


def _p99(samples: list[float]) -> float | None:
    if not samples:
        return None
    ordered = sorted(samples)
    return round(ordered[int(0.99 * (len(ordered) - 1))], 6)


def run_storm_scenario(
    shedding: bool,
    seed: int = 7,
    horizon: float = STORM_HORIZON,
    keep_dep: bool = False,
) -> dict[str, Any]:
    """Run one arm of the 10x-alert-storm experiment."""
    from repro.core.deployment import SecuredDeployment
    from repro.devices.library import smart_camera, smart_plug
    from repro.policy.posture import block_commands

    config = IngestConfig(
        capacity=INGEST_CAPACITY,
        service_time=INGEST_SERVICE_TIME,
        prioritized=shedding,
        shed=shedding,
    )
    dep = SecuredDeployment.build(
        consistent_updates=True,
        reliable_control=True,
        ingest=config,
    )
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
    dep.finalize()
    dep.secure("plug", block_commands("on"))  # enforcing posture -> class 0
    dep.enforce_baseline()

    sim = dep.sim
    controller = dep.controller
    assert controller is not None and controller.ingest is not None
    latencies: dict[int, list[float]] = {0: [], 1: [], 2: []}
    controller.ingest.on_processed = lambda cls, lat: latencies[cls].append(lat)

    # The 10x flood rides the declarative fault plan (journaled).
    FaultPlan(
        [FaultEvent(STORM_START, "alert-storm", "cam", STORM_LEN, intensity=STORM_RATE)]
    ).apply(dep)

    def feed(kind: str, device: str, rate: float, start: float, end: float) -> None:
        period = 1.0 / rate

        def burst() -> None:
            dep.channel.send(
                dep.CLUSTER,
                dep.CONTROLLER,
                "alert",
                {"device": device, "kind": kind, "detail": {"feed": kind}},
            )
            if sim.now + period < end:
                sim.schedule(period, burst)

        sim.schedule_at(start, burst)

    # Routine background telemetry (class 2) and genuine alerts for the
    # enforcing-posture plug (class 0) that must survive the storm.
    feed("telemetry", "cam", TELEMETRY_RATE, 1.0, horizon - 1.0)
    feed("anomalous-command", "plug", ENFORCING_RATE, STORM_START, STORM_START + STORM_LEN)

    dep.run(until=horizon)

    queue = controller.ingest
    stats = queue.stats()
    arrived = [a + d for a, d in zip(queue.accepted, queue.dropped)]
    fractions = {
        CLASS_NAMES[cls]: (
            round(queue.processed[cls] / arrived[cls], 6) if arrived[cls] else None
        )
        for cls in (0, 1, 2)
    }
    result: dict[str, Any] = {
        "arm": "shed" if shedding else "fifo",
        "seed": seed,
        "horizon_s": horizon,
        "storm_rate": STORM_RATE,
        "service_rate": round(1.0 / INGEST_SERVICE_TIME, 6),
        "queue": stats,
        "enforcing_processed_frac": fractions["enforcing"],
        "processed_frac": fractions,
        "p99_latency_s": {
            CLASS_NAMES[cls]: _p99(latencies[cls]) for cls in (0, 1, 2)
        },
        "shed_transitions": queue.shed_transitions,
        "events": sim.events_processed,
    }
    if keep_dep:
        result["dep"] = dep
    return result
