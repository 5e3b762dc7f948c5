"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo fig3|fig4|fig5|thermal`` -- run a paper scenario, current world
  vs IoTSec, and print the outcome plus a deployment report.
- ``table1`` -- replay all seven Table 1 vulnerability rows.
- ``model-audit`` -- fuzz the model library and print the attack graph +
  hardening plan for a canned smart home.
- ``report`` -- build a secured home, attack it, print the operator view.
- ``metrics`` -- same scenario, but export the metrics registry
  (Prometheus text, or ``--json`` for the raw snapshot).
- ``trace <device>`` -- same scenario, then print the causal chain(s)
  (packet -> alert -> escalation -> posture) for one device.
- ``audit [--since T] [--kind K]`` -- same scenario, then query the
  security audit journal (the flight recorder).
- ``incident <device>`` -- same scenario, then reconstruct the device's
  incident: journal + traces + metrics joined into one timeline
  (``--chaos`` swaps in the fault-injection scenario).
- ``chaos`` -- partition the control channel and crash a µmbox under
  attack; compare the no-resilience baseline against retry + fail-closed
  + health-check recovery.  ``--plan`` selects the fault plan: the
  built-ins ``standard`` and ``controller``, or a JSON file; malformed
  plans exit 2 with a one-line error.
- ``failover`` -- crash the controller mid-attack and compare cold
  restart against hot-standby failover (``--storm`` compares the ingest
  queue's shedding arms under a 10x alert flood instead).
- ``dlq`` -- run the durable-telemetry home (store-and-forward buffers +
  offset-tracked replay) with a rogue peer injecting malformed and
  reputation-flagged stream records, then inspect the controller's
  dead-letter queue: what was quarantined, from whom, and why.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, TypeVar

T = TypeVar("T")


def _arm(protect: bool) -> str:
    return "IoTSec" if protect else "current world"


def _demo_fig4(protect: bool) -> None:
    from repro import SecuredDeployment, build_recommended_posture
    from repro.attacks.exploits import EXPLOITS
    from repro.core.metrics import summarize
    from repro.devices.library import smart_camera

    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    attacker = dep.add_attacker()
    dep.finalize()
    if protect:
        dep.secure(
            "cam",
            build_recommended_posture("password_proxy", "cam", new_password="S3cure!"),
        )
    result = EXPLOITS["default_credential_hijack"].launch(
        attacker, "cam", dep.sim, resource="image"
    )
    dep.run(until=30.0)
    print(
        f"[fig4 / {_arm(protect)}] hijack={result.succeeded}"
        f" loot={len(attacker.loot_from('cam'))}"
    )
    if protect:
        print(summarize(dep).render())


def _demo_fig5(protect: bool) -> None:
    from repro.core.metrics import summarize
    from repro.faults.campaign_library import run_paper_campaign

    dep, _ = run_paper_campaign("oven-arson", protect)
    print(
        f"[fig5 / {_arm(protect)}] oven={dep.devices['oven_plug'].state}"
        f" smoke={dep.env.level('smoke')}"
    )
    if protect:
        print(summarize(dep).render())


def _demo_fig3(protect: bool) -> None:
    from repro.core.metrics import summarize
    from repro.faults.campaign_library import physically_breached, run_paper_campaign

    dep, _ = run_paper_campaign("fig3-break-in", protect)
    print(
        f"[fig3 / {_arm(protect)}] breached={physically_breached(dep)}"
        f" window={dep.devices['window'].state}"
    )
    if protect:
        print(summarize(dep).render())


def _demo_thermal(protect: bool) -> None:
    from repro.faults.campaign_library import physically_breached, run_paper_campaign

    dep, _ = run_paper_campaign("thermal-break-in", protect)
    print(
        f"[thermal / {_arm(protect)}] ac={dep.devices['ac_plug'].state}"
        f" temp={dep.env.level('temperature')} window={dep.devices['window'].state}"
        f" breached={physically_breached(dep)}"
    )


DEMOS = {
    "fig3": _demo_fig3,
    "fig4": _demo_fig4,
    "fig5": _demo_fig5,
    "thermal": _demo_thermal,
}


def cmd_demo(args: argparse.Namespace) -> int:
    demo = DEMOS[args.scenario]
    demo(protect=False)
    demo(protect=True)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.devices.vulnerabilities import TABLE1

    print(f"{'#':<3}{'device':<22}{'flaw':<24}{'mitigation'}")
    for row in TABLE1:
        print(f"{row.row:<3}{row.device:<22}{row.flaw_class:<24}{row.mitigation}")
    print("\nRun `pytest benchmarks/bench_table1_vulnerabilities.py -s` for the full replay.")
    return 0


def cmd_model_audit(args: argparse.Namespace) -> int:
    from repro.devices.library import fire_alarm, smart_plug, window_actuator
    from repro.learning.abstract_env import AbstractWorld
    from repro.learning.attackgraph import AttackGraphBuilder, envfact
    from repro.learning.fuzzing import ModelFuzzer, exhaustive_edges
    from repro.netsim.simulator import Simulator
    from repro.policy.ifttt import Recipe

    sim = Simulator()
    devices = {
        d.name: d
        for d in (
            smart_plug("heater_plug", sim, load={"heat_watts": 1500.0}),
            fire_alarm("alarm", sim),
            window_actuator("window", sim),
        )
    }
    world = AbstractWorld({n: d.model for n, d in devices.items()})
    truth, __, states = exhaustive_edges(world)
    fuzz = ModelFuzzer(world, random.Random(args.seed)).run(2000)
    print(f"abstract states: {states}; implicit couplings: {len(truth)}; "
          f"fuzzer coverage: {fuzz.coverage_against(truth):.0%}")
    builder = AttackGraphBuilder(
        {n: (d.model, d.firmware) for n, d in devices.items()},
        recipes=[Recipe("cool-down", "env:temperature", "high", "window", "open")],
    )
    goal = envfact("window", "open")
    for path in builder.paths_to(goal):
        print(f"  [{path.stages} stages] {path}")
    plan = builder.hardening_plan(goal)
    print("hardening plan:", ", ".join(f"{d}->{m}" for d, m in plan) or "(nothing needed)")
    return 0


def _too_few_sites(sites: int, least: int) -> int:
    """A usage error like a malformed chaos plan: one line, exit 2."""
    print(f"error: --sites must be at least {least} (got {sites})", file=sys.stderr)
    return 2


def cmd_fleet(args: argparse.Namespace) -> int:
    """The federation story: one victim site buys fleet immunity."""
    from repro.core.fleet import run_fleet

    if args.sites < 1:
        return _too_few_sites(args.sites, 1)
    result = run_fleet(args.sites)
    if result["published_at"] is not None:
        print(f"t={result['published_at']:.0f}s  site 0 mined + published a signature")
    for outcome in result["outcomes"]:
        print(
            f"site {outcome['site']}: attacked t={outcome['attacked_at']:>4.0f}s -> "
            f"{'COMPROMISED' if outcome['compromised'] else 'safe (signature blocked it)'}"
        )
    print(f"\nfleet losses: {result['lost']}/{args.sites} "
          f"(without sharing it would have been {args.sites}/{args.sites})")
    return 0


def cmd_federation(args: argparse.Namespace) -> int:
    """The multi-site control plane: blackout drill or parallel scale run."""
    least = 1 if args.scale else 2
    if args.sites < least:
        return _too_few_sites(args.sites, least)
    if args.scale:
        from repro.federation import run_federation, shard_fleet

        out = run_federation(
            shard_fleet(args.scale, args.sites), workers=args.workers
        )
        print(
            f"{out['devices']:,} devices across {out['sites']} sites "
            f"({out['mode']}): {out['events']:,} sim events in "
            f"{out['wall_s']:.1f}s = {out['aggregate_events_per_s']:,.0f} "
            "events/s aggregate"
        )
        for row in out["per_site"]:
            print(
                f"  {row['site']}: {row['devices']} devices, "
                f"{row['events']:,} events, build {row['build_s']:.1f}s, "
                f"run {row['run_s']:.1f}s, blocked "
                f"{row['attacks_blocked']}/{row['attacks_launched']}"
            )
        print(
            f"compromised: {out['compromised']} "
            f"(blocked {out['attacks_blocked']}/{out['attacks_launched']})"
        )
        return 0

    from repro.faults.scenario import (
        FEDERATION_BLACKOUT_END,
        FEDERATION_BLACKOUT_START,
        run_federation_blackout_scenario,
    )

    out = run_federation_blackout_scenario(sites=args.sites)
    window = f"t={FEDERATION_BLACKOUT_START:.0f}..{FEDERATION_BLACKOUT_END:.0f}s"
    print(f"coordinator blackout drill: {args.sites} sites, WAN dark {window}\n")
    print(f"  patient zero compromised pre-signature: "
          f"{'yes' if out['patient_zero_compromised'] else 'no'}")
    print(f"  mid-blackout attacks blocked on cached policy: "
          f"{out['attacks_blocked']}/{out['attacks_launched'] - 1}")
    print(f"  enforcement gaps during blackout: {out['enforcement_gaps']}")
    print(f"  signatures versioned fleet-wide: {out['signatures_propagated']} "
          f"(propagation lag {out['propagation_lag_v1']:.3f}s)")
    print(f"  autonomy spells journaled: {out['autonomy_enters']} enter / "
          f"{out['autonomy_exits']} exit ({out['offline_s']:.0f} site-seconds)")
    print(f"  out-of-order updates on heal: {out['out_of_order']}")
    print(f"  poisoned reports quarantined to DLQ: {out['dlq_quarantined']}")
    print(f"  reconverged after heal: {'yes' if out['converged'] else 'NO'}")
    if out["enforcement_gaps"]:
        for detail in out["gap_details"]:
            print(f"    GAP: {detail}")
        return 1
    print("\nevery site kept enforcing on cached policy for the whole outage")
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    """Export a sample home's default policy as reviewable JSON."""
    from repro import SecuredDeployment
    from repro.devices.library import smart_camera, smart_plug
    from repro.policy.serialization import dumps

    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.finalize()
    print(dumps(dep.policy))
    return 0


def _attacked_home(setup=None):
    """The canned scenario behind ``report``/``metrics``/``trace``: a
    secured two-device home whose camera gets brute-forced.

    ``setup(dep)``, when given, runs right before the clock starts --
    ``metrics --watch`` hooks its periodic re-render there.
    """
    from repro import SecuredDeployment
    from repro.attacks.exploits import EXPLOITS
    from repro.devices.library import smart_camera, smart_plug

    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    dep.enforce_baseline()
    EXPLOITS["brute_force_login"].launch(attacker, "cam", dep.sim)
    if setup is not None:
        setup(dep)
    dep.run(until=60.0)
    return dep


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.metrics import summarize

    print(summarize(_attacked_home()).render())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import to_prometheus

    if _bad_watch(args.watch):
        return 2
    setup = None
    if args.watch is not None:

        def setup(dep):
            def show() -> None:
                print(f"--- t={dep.sim.now:.1f}s ---")
                if args.json:
                    print(json.dumps(dep.sim.metrics.snapshot(), indent=2, sort_keys=True))
                else:
                    print(to_prometheus(dep.sim.metrics))
                print()

            dep.sim.every(args.watch, show)

    dep = _attacked_home(setup=setup) if setup is not None else _attacked_home()
    registry = dep.sim.metrics
    snapshot = registry.snapshot()
    if not registry.enabled or not any(snapshot.values()):
        print("error: metrics registry is empty (observability disabled?)")
        return 1
    if args.watch is not None:
        print(f"--- t={dep.sim.now:.1f}s (final) ---")
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(to_prometheus(registry))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import trace_as_dicts

    dep = _attacked_home()
    if args.device not in dep.devices:
        known = ", ".join(sorted(dep.devices))
        print(f"error: unknown device {args.device!r} (known: {known})")
        return 1
    tracer = dep.sim.tracer
    trace_ids = tracer.traces_for(args.device)
    if args.json:
        print(json.dumps([trace_as_dicts(tracer, t) for t in trace_ids], indent=2))
        return 0
    if not trace_ids:
        print(f"no traces recorded for device {args.device!r}")
        return 1
    for trace_id in trace_ids:
        print(tracer.render(trace_id))
    return 0


def cmd_journal_audit(args: argparse.Namespace) -> int:
    """Query the flight recorder for the canned attacked-home scenario."""
    dep = _attacked_home()
    entries = dep.sim.journal.entries(since=args.since, kind=args.kind)
    if args.json:
        print(json.dumps([e.as_dict() for e in entries], indent=2))
        return 0
    stats = dep.sim.journal.stats()
    print(
        f"audit journal: {stats['recorded']} recorded,"
        f" {stats['retained']} retained, {stats['evicted']} evicted"
        f" ({len(entries)} match)"
    )
    for entry in entries:
        trace = f" trace={entry.trace_id}" if entry.trace_id is not None else ""
        detail = " ".join(
            f"{k}={v}" for k, v in entry.fields.items() if v not in ("", None)
        )
        print(
            f"  #{entry.seq:<5} t={entry.at:>9.4f}  {entry.kind:<16}"
            f" {entry.device or '-':<10}{trace}  {detail}".rstrip()
        )
    return 0


def _bad_watch(period: float | None) -> bool:
    """Report a non-positive ``--watch`` period (a usage error, exit 2)."""
    if period is not None and period <= 0:
        print("error: --watch period must be positive", file=sys.stderr)
        return True
    return False


def _read_document(path: str, what: str, parse: Callable[[str], T]) -> T | None:
    """Read and parse a JSON document named on the command line.

    An unreadable or malformed document is a usage error: one line on
    stderr and ``None``, for which the caller exits with status 2.
    """
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        print(f"error: cannot read {what} {path!r}: {exc}", file=sys.stderr)
        return None
    try:
        return parse(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _print_arm_table(results: list[dict], cols: tuple[str, ...]) -> None:
    print(f"\n{'metric':<26}" + "".join(f"{r['arm']:>12}" for r in results))
    for col in cols:
        cells = "".join(f"{str(r.get(col)):>12}" for r in results)
        print(f"{col:<26}{cells}")


def _failover_comparison(seed: int, json_out: bool) -> int:
    """Both arms of the controller-crash experiment (bench E13a)."""
    from repro.faults.ha_scenario import run_failover_scenario

    results = [run_failover_scenario(standby, seed=seed) for standby in (False, True)]
    if json_out:
        print(json.dumps(results, indent=2))
        return 0
    _print_arm_table(
        results,
        (
            "attack_attempts",
            "cam_login_successes",
            "blind_window_s",
            "cam_enforced_at",
            "checkpoints",
            "failovers",
            "restarts",
            "ctrl_retries",
            "ctrl_giveups",
            "events",
        ),
    )
    crash, standby = results
    if crash["blind_window_s"] > 0:
        ratio = standby["blind_window_s"] / crash["blind_window_s"]
        print(
            f"\nblind window: {crash['blind_window_s']}s (cold restart) -> "
            f"{standby['blind_window_s']}s (hot standby, {ratio:.1%} of the outage)"
        )
    return 0


def cmd_failover(args: argparse.Namespace) -> int:
    """Controller survivability, both arms (bench E13).

    Default: crash the controller mid-attack and compare the cold-restart
    blind window against hot-standby failover.  ``--storm``: flood the
    ingest queue 10x over its service rate and compare plain drop-tail
    against prioritized shedding.
    """
    if not args.storm:
        return _failover_comparison(args.seed, args.json)

    from repro.faults.ha_scenario import run_storm_scenario

    results = [run_storm_scenario(shedding, seed=args.seed) for shedding in (False, True)]
    if args.json:
        print(json.dumps(results, indent=2))
        return 0
    _print_arm_table(
        results, ("enforcing_processed_frac", "shed_transitions", "events")
    )
    for cls in ("enforcing", "telemetry"):
        cells = "".join(f"{str(r['p99_latency_s'][cls]):>12}" for r in results)
        print(f"{'p99_latency_s[' + cls + ']':<26}{cells}")
    fifo, shed = results
    print(
        f"\nenforcing alerts kept under the storm: "
        f"{fifo['enforcing_processed_frac']:.1%} (drop-tail) -> "
        f"{shed['enforcing_processed_frac']:.1%} (prioritized shedding)"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the standard resilience scenario under injected faults, both arms.

    The baseline arm has no retry, no health checks and fail-open µmboxes;
    the resilient arm retries control messages across the partition,
    fails closed, and reboots + re-pins the crashed µmbox.  The printed
    exposure window is the headline number of bench E12.

    ``--plan`` picks the fault schedule: ``standard`` (partition + µmbox
    crash), ``controller`` (delegates to the E13 controller-crash
    comparison), or a path to a JSON plan document.  A malformed plan is
    a usage error: one line on stderr, exit status 2.
    """
    from repro.faults.chaos import ChaosGenerator
    from repro.faults.plan import FaultPlan
    from repro.faults.scenario import run_resilience_scenario, standard_fault_plan

    if args.plan == "controller":
        return _failover_comparison(args.seed, args.json)
    if args.random:
        plan = ChaosGenerator(args.seed).generate(
            args.duration,
            endpoints=("*",),
            devices=("cam", "plug"),
            link_flaps=0,
            partitions=1,
            crashes=2,
            max_fault=min(5.0, args.duration / 4),
        )
    elif args.plan == "standard":
        plan = standard_fault_plan()
    else:
        plan = _read_document(args.plan, "fault plan", FaultPlan.from_json)
        if plan is None:
            return 2
    arms = [False] if args.no_resilience else [False, True]
    results = [
        run_resilience_scenario(
            resilient,
            seed=args.seed,
            horizon=args.duration,
            drop_prob=args.drop,
            jitter=args.jitter,
            plan=plan,
        )
        for resilient in arms
    ]
    if args.json:
        print(json.dumps({"plan": plan.as_dict(), "arms": results}, indent=2))
        return 0
    print(f"fault plan: {plan!r}")
    for event in plan:
        extra = f" for {event.duration}s" if event.duration else ""
        print(f"  t={event.at:>7.3f}  {event.kind:<12} {event.target}{extra}")
    cols = (
        "attack_attempts",
        "attack_successes",
        "exposure_s",
        "mean_time_to_reenforce_s",
        "ctrl_retries",
        "ctrl_giveups",
        "mbox_restarts",
        "fail_open_passes",
    )
    _print_arm_table(results, cols)
    if len(results) == 2:
        base, res = results
        print(
            f"\nexposure window: {base['exposure_s']}s -> {res['exposure_s']}s "
            f"({'bounded' if res['exposure_s'] < base['exposure_s'] else 'NOT bounded'})"
        )
    return 0


def _campaign_summary(score: dict) -> list[tuple]:
    ttc = score["time_to_containment_s"]
    return [
        ("class", score["class"]),
        ("stages ok", f"{score['stages_ok']}/{score['stages']}"),
        ("attacked", ", ".join(score["attacked"]) or "-"),
        ("alerted", ", ".join(score["alerted"]) or "-"),
        ("detection precision", f"{score['detection_precision']:.2f}"),
        ("detection recall", f"{score['detection_recall']:.2f}"),
        (
            "time to containment",
            ", ".join(f"{d}={t:.2f}s" for d, t in ttc.items()) or "-",
        ),
        ("exposure total", f"{score['total_exposure_s']:.2f}s"),
        ("containment misses", ", ".join(score["containment_misses"]) or "none"),
        ("containment SLO breaches", score["containment_breaches"]),
        ("fabric degraded", score["fabric_degraded"]),
        ("graceful degradation", "ok" if score["graceful_degradation"]["ok"] else "VIOLATED"),
        ("journal digest", score["journal_digest"][:16]),
    ]


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run adversarial campaigns against the standard home and score them.

    ``--list`` prints the shipped corpus; ``--name`` runs one campaign,
    ``--class`` a whole class, ``--file`` a campaign JSON document.  A
    malformed campaign file is a usage error: one line on stderr, exit
    status 2 (mirroring ``chaos --plan``).
    """
    from repro.faults.campaign import Campaign
    from repro.faults.campaign_library import (
        CAMPAIGNS,
        campaigns_by_class,
        run_campaign,
    )

    if args.file:
        campaign = _read_document(args.file, "campaign", Campaign.from_json)
        if campaign is None:
            return 2
        selected = [campaign]
    elif args.name:
        if args.name not in CAMPAIGNS:
            print(
                f"error: no campaign named {args.name!r} (see --list)",
                file=sys.stderr,
            )
            return 2
        selected = [CAMPAIGNS[args.name]]
    elif args.campaign_class:
        selected = campaigns_by_class(args.campaign_class)
    else:
        selected = []

    if args.list or not selected:
        if args.json:
            print(json.dumps([c.as_dict() for c in CAMPAIGNS.values()], indent=2))
            return 0
        print(f"{'campaign':<28}{'class':<20}{'stages':>7}  expect contained")
        for c in CAMPAIGNS.values():
            print(
                f"{c.name:<28}{c.campaign_class:<20}{len(c.stages):>7}  "
                f"{', '.join(c.expect_contained) or '-'}"
            )
        return 0

    scores = [run_campaign(c, seed=args.seed) for c in selected]
    if args.json:
        print(json.dumps(scores, indent=2, default=str))
        return 0
    for score in scores:
        print(f"\ncampaign: {score['campaign']}  (seed {score['seed']})")
        for label, value in _campaign_summary(score):
            print(f"  {label:<26}{value}")
    missed = sorted({m for s in scores for m in s["containment_misses"]})
    if missed:
        print(f"\nCONTAINMENT MISSED: {', '.join(missed)}")
        return 1
    print(f"\nall {len(scores)} campaign(s) fully contained")
    return 0


def _durable_home():
    """The canned durable-telemetry scenario behind ``dlq``: a secured
    home whose alerts ride the store-and-forward stream, with a rogue
    peer injecting malformed records and a reputation-flagged host."""
    from repro import SecuredDeployment
    from repro.attacks.exploits import EXPLOITS
    from repro.devices.library import smart_camera, smart_plug

    dep = SecuredDeployment.build(durable_telemetry=True)
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    dep.enforce_baseline()
    consumer = dep.controller.stream
    assert consumer is not None
    # Reputation decision: everything "rogue-host" sends is quarantined.
    consumer.flag_host("rogue-host")

    def inject_flagged() -> None:
        dep.channel.send(
            "rogue-host",
            dep.CONTROLLER,
            "stream",
            {
                "host": "rogue-host",
                "lane": "bulk",
                "records": [
                    {
                        "offset": 1,
                        "at": dep.sim.now,
                        "body": {
                            "device": "cam",
                            "kind": "telemetry",
                            "mbox": "spoofed",
                            "detail": {"state": "recording"},
                            "trace": None,
                        },
                    }
                ],
            },
        )

    def inject_malformed() -> None:
        dep.channel.send(
            "buggy-host",
            dep.CONTROLLER,
            "stream",
            {
                "host": "buggy-host",
                "lane": "bulk",
                "records": [
                    {"offset": 1, "at": dep.sim.now, "body": {"device": "", "kind": "telemetry"}},
                    {"offset": 2, "at": dep.sim.now, "body": {"device": "plug", "kind": ""}},
                ],
            },
        )

    dep.sim.schedule(5.0, inject_flagged)
    dep.sim.schedule(6.0, inject_malformed)
    EXPLOITS["brute_force_login"].launch(attacker, "cam", dep.sim)
    dep.run(until=60.0)
    return dep


def cmd_dlq(args: argparse.Namespace) -> int:
    """Inspect the dead-letter queue of the durable-telemetry scenario."""
    dep = _durable_home()
    dlq = dep.controller.dlq
    consumer = dep.controller.stream
    assert dlq is not None and consumer is not None
    entries = dlq.entries(device=args.device or None, reason=args.reason or None)
    if args.json:
        print(
            json.dumps(
                {
                    "stats": dlq.stats(),
                    "consumer": consumer.stats(),
                    "entries": entries,
                },
                indent=2,
                default=str,
            )
        )
        return 0
    stats = dlq.stats()
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(stats["by_reason"].items()))
    print(
        f"dead-letter queue: {stats['depth']} retained,"
        f" {stats['quarantined']} quarantined ({reasons or 'none'})"
    )
    print(
        f"stream consumer: {consumer.delivered} delivered,"
        f" {consumer.duplicates} duplicates, {consumer.gaps} gaps"
    )
    if not entries:
        print("(no matching entries)")
        return 0
    print(f"\n{'t':>9}  {'host':<12}{'reason':<18}{'device':<10}{'kind':<12}offset")
    for entry in entries:
        print(
            f"{entry['at']:>9.3f}  {entry['host']:<12}{entry['reason']:<18}"
            f"{entry['device'] or '-':<10}{entry['alert_kind'] or '-':<12}"
            f"{entry['offset'] if entry['offset'] is not None else '-'}"
        )
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    from repro.faults.scenario import HEALTH_PLANS, run_health_scenario

    if _bad_watch(args.watch):
        return 2

    def setup(dep):
        if args.watch is None:
            return
        plane = dep.health_plane

        def show() -> None:
            print(f"--- t={dep.sim.now:.1f}s ---")
            print(plane.render())
            print()

        dep.sim.every(args.watch, show)

    try:
        result = run_health_scenario(args.plan, seed=args.seed, keep_dep=True, setup=setup)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dep = result.pop("dep")
    plane = dep.health_plane
    if plane is None or not plane.enabled:
        print("error: health plane is disabled (observe=False?)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if args.plan != "none":
        print(f"fault plan: {args.plan}")
    print(plane.render())
    if result["breach_events"]:
        print("\nbreach chains (journaled, trace-linked):")
        recovered = {r["trace"]: r for r in result["recovery_events"]}
        for breach in result["breach_events"]:
            rec = recovered.get(breach["trace"])
            tail = (
                f" -> recovered t={rec['at']:.1f}s (after {rec['breach_s']:.1f}s)"
                if rec is not None
                else " -> STILL BREACHED"
            )
            print(
                f"  t={breach['at']:>7.1f}s  {breach['slo']}"
                f" [{breach['severity']}] trace={breach['trace']}{tail}"
            )
    return 0


def cmd_incident(args: argparse.Namespace) -> int:
    from repro.obs import reconstruct

    if args.chaos:
        from repro.faults.scenario import run_resilience_scenario

        dep = run_resilience_scenario(True, keep_dep=True, health=args.site)["dep"]
    else:
        dep = _attacked_home()
    if args.device not in dep.devices:
        known = ", ".join(sorted(dep.devices))
        print(f"error: unknown device {args.device!r} (known: {known})")
        return 1
    state = dep.controller.pipeline.system_state()
    incident = reconstruct(
        dep.sim,
        args.device,
        policy=dep.policy,
        state=state,
        dlq=dep.controller.dlq,
        site_events=args.site,
    )
    if args.json:
        print(json.dumps(incident.as_dict(), indent=2))
    else:
        print(incident.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="IoTSec (HotNets 2015) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a paper scenario, both arms")
    demo.add_argument("scenario", choices=sorted(DEMOS))
    demo.set_defaults(fn=cmd_demo)

    table1 = sub.add_parser("table1", help="list the Table 1 registry")
    table1.set_defaults(fn=cmd_table1)

    model_audit = sub.add_parser(
        "model-audit", help="fuzz models + attack-graph a canned home"
    )
    model_audit.add_argument("--seed", type=int, default=7)
    model_audit.set_defaults(fn=cmd_model_audit)

    audit = sub.add_parser("audit", help="query the security audit journal")
    audit.add_argument("--since", type=float, default=None, help="simulated time floor")
    audit.add_argument("--kind", default=None, help="filter by entry kind")
    audit.add_argument("--json", action="store_true", help="entry dicts instead of text")
    audit.set_defaults(fn=cmd_journal_audit)

    incident = sub.add_parser(
        "incident", help="reconstruct one device's incident from the flight recorder"
    )
    incident.add_argument("device", nargs="?", default="cam")
    incident.add_argument("--json", action="store_true", help="incident dict instead of text")
    incident.add_argument(
        "--chaos",
        action="store_true",
        help="reconstruct from the chaos scenario (partition + µmbox crash)"
        " instead of the canned brute-force home",
    )
    incident.add_argument(
        "--site",
        action="store_true",
        help="fold site-scoped events (SLO breaches, health transitions,"
        " stream replays, failovers) into the device timeline",
    )
    incident.set_defaults(fn=cmd_incident)

    report = sub.add_parser("report", help="operator report for a secured home under attack")
    report.set_defaults(fn=cmd_report)

    metrics = sub.add_parser("metrics", help="export the metrics registry for the report scenario")
    metrics.add_argument("--json", action="store_true", help="raw snapshot instead of Prometheus text")
    metrics.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="N",
        help="re-render the snapshot every N simulated seconds while the"
        " scenario runs (plus one final render)",
    )
    metrics.set_defaults(fn=cmd_metrics)

    health = sub.add_parser(
        "health", help="SLO burn rates + subsystem health rollup for a seeded run"
    )
    health.add_argument(
        "--plan",
        default="none",
        choices=("none", "standard", "controller", "long-partition"),
        help="fault plan to drive the run (default: the all-green standard run)",
    )
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--json", action="store_true", help="summary dict instead of text")
    health.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="N",
        help="re-render the health report every N simulated seconds",
    )
    health.set_defaults(fn=cmd_health)

    trace = sub.add_parser("trace", help="print causal traces (packet -> posture) for one device")
    trace.add_argument("device", nargs="?", default="cam")
    trace.add_argument("--json", action="store_true", help="span dicts instead of rendered text")
    trace.set_defaults(fn=cmd_trace)

    policy = sub.add_parser("policy", help="export a sample default policy as JSON")
    policy.set_defaults(fn=cmd_policy)

    federation = sub.add_parser(
        "federation",
        help="multi-site control plane: coordinator-blackout drill or "
        "parallel scale run",
    )
    federation.add_argument(
        "--sites", type=int, default=4, help="number of federated sites"
    )
    federation.add_argument(
        "--scale",
        type=int,
        default=0,
        metavar="N",
        help="instead of the blackout drill, shard an N-device fleet "
        "across the sites in parallel worker processes",
    )
    federation.add_argument(
        "--workers", type=int, default=None, help="worker processes for --scale"
    )
    federation.set_defaults(fn=cmd_federation)

    fleet = sub.add_parser("fleet", help="federated-signature story across N sites")
    fleet.add_argument("--sites", type=int, default=6)
    fleet.set_defaults(fn=cmd_fleet)

    campaign = sub.add_parser(
        "campaign",
        help="run adversarial multi-stage campaigns and print per-class "
        "containment scorecards",
    )
    campaign.add_argument("--list", action="store_true", help="list the shipped corpus")
    campaign.add_argument("--name", default=None, help="run one named campaign")
    campaign.add_argument(
        "--class",
        dest="campaign_class",
        default=None,
        choices=("single-flaw", "lateral-movement", "fabric-degradation", "automation-abuse"),
        help="run every campaign of one class",
    )
    campaign.add_argument(
        "--file", default=None, help="run a campaign from a JSON document"
    )
    campaign.add_argument(
        "--seed", type=int, default=None, help="override the campaign's baked-in seed"
    )
    campaign.add_argument(
        "--json", action="store_true", help="scorecard dicts instead of text"
    )
    campaign.set_defaults(fn=cmd_campaign)

    chaos = sub.add_parser(
        "chaos", help="inject faults (partition, µmbox crash) and compare arms"
    )
    chaos.add_argument("--seed", type=int, default=7, help="chaos + fault-model seed")
    chaos.add_argument(
        "--plan",
        default="standard",
        help="fault plan: 'standard', 'controller', or a JSON plan file",
    )
    chaos.add_argument("--duration", type=float, default=30.0, help="simulated horizon")
    chaos.add_argument("--drop", type=float, default=0.0, help="background control-loss prob")
    chaos.add_argument("--jitter", type=float, default=0.0, help="max extra control delay")
    chaos.add_argument(
        "--random",
        action="store_true",
        help="draw the fault plan from the seeded chaos generator"
        " instead of the standard partition+crash plan",
    )
    chaos.add_argument(
        "--no-resilience", action="store_true", help="run only the baseline arm"
    )
    chaos.add_argument("--json", action="store_true", help="plan + both arms as JSON")
    chaos.set_defaults(fn=cmd_chaos)

    failover = sub.add_parser(
        "failover", help="controller crash: cold restart vs hot-standby takeover"
    )
    failover.add_argument("--seed", type=int, default=7, help="scenario seed")
    failover.add_argument(
        "--storm",
        action="store_true",
        help="compare ingest-queue arms under a 10x alert storm instead",
    )
    failover.add_argument("--json", action="store_true", help="both arms as JSON")
    failover.set_defaults(fn=cmd_failover)

    dlq = sub.add_parser(
        "dlq", help="inspect the durable-telemetry dead-letter queue"
    )
    dlq.add_argument("--device", default=None, help="only entries for this device")
    dlq.add_argument("--reason", default=None, help="only entries with this refusal reason")
    dlq.add_argument("--json", action="store_true", help="stats + entries as JSON")
    dlq.set_defaults(fn=cmd_dlq)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
