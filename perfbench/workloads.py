"""The three benchmark workloads: seeded inputs, one repetition, its outcome.

Each workload is a pure input generator (``*_inputs(seed)``: the same seed
gives the same plain-data inputs) plus a repetition runner
(``run_*(inputs)``) that builds the deployment, times set-up and every
simulated window on the host clock, and reads the sim-clock outcome back
from the deployment.  Only the generated inputs reach the program.

Host-clock figures live in :class:`Rep` (``setups_s``, ``windows_s``);
sim-clock observations live in ``Rep.outcome`` and must be identical whenever the
inputs are, whatever the host did.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.core.overload import IngestConfig
from repro.devices.library import smart_bulb, smart_camera, smart_plug, thermostat
from repro.faults import campaign_library
from repro.faults.campaign import journal_digest
from repro.faults.campaign_library import (
    CAMPAIGNS,
    ENFORCING_CLASSES,
    WEMO_BACKDOOR,
    run_campaign,
)
from repro.policy.posture import ALLOW_ALL

from perfbench.stats import percentile

WORKLOADS = ("fleet-dataplane", "fleet-planes", "campaign-corpus")

#: E9's device cycle and telemetry cadence.
FACTORY_CYCLE = (smart_camera, smart_plug, thermostat, smart_bulb)
TELEMETRY_PERIOD = 20.0
#: Postures that block by themselves (everything but allow/monitor).
PERMISSIVE_POSTURES = ("allow", "monitor")
#: Seconds an attacked, detected device may stay uncontained.
CONTAINMENT_DEADLINE = 15.0
#: Telemetry sent this close to the end of a run may still be in flight.
TELEMETRY_GRACE = 1.0
#: The exploit menu both fleets draw from.
EXPLOIT_MENU = (
    "default_credential_hijack",
    "backdoor_command",
    "brute_force_login",
    "open_access_control",
    "unauthenticated_command",
)

DATAPLANE_DEVICES = 200
DATAPLANE_HORIZON = 3600.0
DATAPLANE_WINDOW = 20.0
DATAPLANE_ATTACKS = 16

PLANES_DEVICES = 40
PLANES_HORIZON = 600.0
#: One wave step per window, ``PLANES_OFFSET`` seconds into it, so every
#: window carries the same work mix.
PLANES_WINDOW = 15.0
PLANES_OFFSET = 3.0
#: After an attack the operator releases the device for vetting (context
#: cleared, posture allow) and, one second later, re-onboards it with its
#: E9 posture: two epochs per step whatever the attack provoked.
PLANES_RELEASE_AFTER = 8.0
PLANES_REONBOARD_AFTER = 9.0
#: Simulated seconds the onboarding epochs get to commit during set-up.
PLANES_COMMIT_DEADLINE = 60.0

CORPUS_SEEDS = 10


# ----------------------------------------------------------------------
# Seeded inputs (plain data: the program never sees the seed)
# ----------------------------------------------------------------------
def _fleet_devices(rng: random.Random, n: int) -> list[dict[str, Any]]:
    return [
        {
            "name": f"dev{i}",
            "factory": i % len(FACTORY_CYCLE),
            "latency": round(rng.uniform(0.001, 0.004), 6),
            "phase": round(rng.uniform(0.0, TELEMETRY_PERIOD), 6),
        }
        for i in range(n)
    ]


def dataplane_inputs(seed: int, devices: int = DATAPLANE_DEVICES,
                     horizon: float = DATAPLANE_HORIZON) -> dict[str, Any]:
    rng = random.Random(f"fleet-dataplane/{seed}")
    fleet = _fleet_devices(rng, devices)
    attacks = sorted(
        (
            round(rng.uniform(60.0, horizon - 120.0), 6),
            rng.choice(EXPLOIT_MENU),
            f"dev{rng.randrange(devices)}",
        )
        for __ in range(DATAPLANE_ATTACKS)
    )
    return {"devices": fleet, "attacks": attacks, "horizon": horizon,
            "window": DATAPLANE_WINDOW}


def planes_inputs(seed: int, devices: int = PLANES_DEVICES,
                  horizon: float = PLANES_HORIZON) -> dict[str, Any]:
    rng = random.Random(f"fleet-planes/{seed}")
    fleet = _fleet_devices(rng, devices)
    wave = [
        (k * PLANES_WINDOW + PLANES_OFFSET, rng.choice(EXPLOIT_MENU),
         f"dev{rng.randrange(devices)}")
        for k in range(int(horizon // PLANES_WINDOW))
    ]
    return {"devices": fleet, "attacks": wave, "horizon": horizon,
            "window": PLANES_WINDOW}


def corpus_inputs(seed: int) -> dict[str, Any]:
    # Consecutive campaign seeds: no seed is skipped, so a seed-dependent
    # miss shows at its natural rate.
    return {"campaign_seeds": [seed * CORPUS_SEEDS + k for k in range(CORPUS_SEEDS)],
            "campaigns": list(CAMPAIGNS)}


INPUTS: dict[str, Callable[[int], dict[str, Any]]] = {
    "fleet-dataplane": dataplane_inputs,
    "fleet-planes": planes_inputs,
    "campaign-corpus": corpus_inputs,
}


# ----------------------------------------------------------------------
# Outcome of one repetition
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Raw sim-clock observations, summed over every deployment of a rep."""

    attacks_launched: int = 0
    attacks_succeeded: int = 0
    attacked: int = 0
    detected: int = 0
    ttc_s: list[float] = field(default_factory=list)
    reaction_s: list[float] = field(default_factory=list)
    pkt_latency_s: list[float] = field(default_factory=list)
    #: Send times of telemetry reports, and creation times of those that
    #: reached the hub (raw probe output, folded by ``count_telemetry``).
    telemetry_sent_at: list[float] = field(default_factory=list)
    telemetry_arrived_from: list[float] = field(default_factory=list)
    telemetry_sent: int = 0
    telemetry_arrived: int = 0
    misses: list[str] = field(default_factory=list)

    def count_telemetry(self, end: float) -> None:
        """Count reports sent at least ``TELEMETRY_GRACE`` before ``end``
        (later ones may still be in flight) and how many of them arrived."""
        cutoff = end - TELEMETRY_GRACE
        self.telemetry_sent = sum(1 for t in self.telemetry_sent_at if t <= cutoff)
        self.telemetry_arrived = sum(
            1 for t in self.telemetry_arrived_from if t <= cutoff
        )
        self.telemetry_sent_at.clear()
        self.telemetry_arrived_from.clear()


@dataclass
class Rep:
    """One repetition of a workload."""

    #: Host seconds of each set-up step (one per deployment built).
    setups_s: list[float]
    windows_s: list[float]
    #: Simulated device-seconds the timed windows covered.
    device_sim_s: float
    outcome: Outcome
    digest: str
    #: (check name, passed, detail) for every correctness check made.
    checks: list[tuple[str, bool, str]]

    @property
    def setup_s(self) -> float:
        return sum(self.setups_s)

    @property
    def host_s(self) -> float:
        return self.setup_s + sum(self.windows_s)

    def fingerprint(self) -> dict[str, Any]:
        """What the modelled system did: equal whenever the inputs are."""
        return {"digest": self.digest, "sim": sim_metrics(self.outcome),
                "misses": list(self.outcome.misses)}


def _pct(values: list[float], pct: float, scale: float = 1.0) -> float | None:
    return percentile(values, pct) * scale if values else None


def sim_metrics(o: Outcome) -> dict[str, Any]:
    """The sim-clock end-to-end metrics (deterministic given the inputs)."""
    return {
        "ttc_p50_s": _pct(o.ttc_s, 50),
        "ttc_p90_s": _pct(o.ttc_s, 90),
        "reaction_ms_p50": _pct(o.reaction_s, 50, 1e3),
        "reaction_ms_p90": _pct(o.reaction_s, 90, 1e3),
        "pkt_latency_ms_p50": _pct(o.pkt_latency_s, 50, 1e3),
        "pkt_latency_ms_p90": _pct(o.pkt_latency_s, 90, 1e3),
        "detection_recall": o.detected / o.attacked if o.attacked else 1.0,
        "containment_misses": len(o.misses),
        "attack_success_frac": (
            o.attacks_succeeded / o.attacks_launched if o.attacks_launched else 0.0
        ),
        "telemetry_loss_frac": (
            1.0 - o.telemetry_arrived / o.telemetry_sent if o.telemetry_sent else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Probes: observe the program from outside, change nothing it does
# ----------------------------------------------------------------------
def _probe_hub(dep: SecuredDeployment, outcome: Outcome) -> None:
    """Record each telemetry packet's sim-clock latency at the hub."""
    hub = dep.hub
    original = hub.on_packet
    latencies = outcome.pkt_latency_s
    created = outcome.telemetry_arrived_from

    def on_packet(packet, in_port):
        if packet.payload.get("action") == "telemetry":
            latencies.append(hub.sim.now - packet.created_at)
            created.append(packet.created_at)
        original(packet, in_port)

    hub.on_packet = on_packet


def _probe_telemetry(device, outcome: Outcome) -> None:
    """Count the telemetry reports a device sends (install before it starts)."""
    original = device._report
    sent_at = outcome.telemetry_sent_at

    def report():
        if device.ports:
            sent_at.append(device.sim.now)
        original()

    device._report = report


def _reaction_latencies(dep: SecuredDeployment, start: int) -> list[float]:
    """Sim seconds from each reaction's trigger to its blocking µmbox being
    ready, for the controller reactions recorded from index ``start`` on."""
    ready = {
        (r.device, r.requested_at): r.ready_at
        for r in dep.manager.records
        if r.operation != "teardown"
    }
    out = []
    for reaction in dep.controller.reactions[start:]:
        if reaction.posture in PERMISSIVE_POSTURES:
            continue
        ready_at = ready.get((reaction.device, reaction.applied_at))
        if ready_at is not None:
            out.append(ready_at - reaction.trigger_at)
    return out


def _alerted(dep: SecuredDeployment) -> dict[str, list[float]]:
    """Device -> sim times of its security alerts (telemetry excluded)."""
    out: dict[str, list[float]] = {}
    for alert in dep.cluster.alerts:
        if alert.kind != "telemetry":
            out.setdefault(alert.device, []).append(alert.at)
    return out


# ----------------------------------------------------------------------
# The fleets
# ----------------------------------------------------------------------
def e9_posture(dep: SecuredDeployment, name: str):
    """E9's per-flaw posture: proxy, firewall, else monitor."""
    device = dep.devices[name]
    flaws = device.firmware.flaw_classes()
    if "exposed-credentials" in flaws:
        return build_recommended_posture("password_proxy", name)
    if flaws & {"backdoor", "exposed-access"}:
        return build_recommended_posture(
            "stateful_firewall", name, trusted_sources=(dep.HUB, dep.CONTROLLER)
        )
    return build_recommended_posture("monitor", name, sku=device.sku)


def _launch(dep: SecuredDeployment, attacker, exploit: str, target: str, results: list):
    params: dict[str, Any] = {}
    if exploit == "backdoor_command":
        params["backdoor_port"] = dep.devices[target].firmware.backdoor_port or WEMO_BACKDOOR
    results.append(
        (target, dep.sim.now, EXPLOITS[exploit].launch(attacker, target, dep.sim, **params))
    )


def _fleet_outcome(dep, outcome: Outcome, launched: list, reactions_from: int) -> None:
    """Fold a fleet run into ``outcome``: attacks, TTC, recall, misses.

    TTC runs from a device's first attack packet to the first blocking
    posture it gets (0 when it already had one).  A detected, unpinned
    device still unblocked ``CONTAINMENT_DEADLINE`` seconds after its
    first attack is a containment miss.
    """
    alerted = _alerted(dep)
    postures: dict[str, list[tuple[float, bool]]] = {}
    for record in dep.orchestrator.records:
        blocking = record.posture not in PERMISSIVE_POSTURES
        postures.setdefault(record.device, []).append((record.at, blocking))
    first_attack: dict[str, float] = {}
    for target, at, result in launched:
        outcome.attacks_launched += 1
        outcome.attacks_succeeded += int(result.succeeded)
        first_attack.setdefault(target, at)
    end = dep.sim.now
    for target, at in sorted(first_attack.items()):
        outcome.attacked += 1
        detected = any(t >= at for t in alerted.get(target, ()))
        outcome.detected += int(detected)
        history = postures.get(target, [])
        before = [blocking for t, blocking in history if t <= at]
        later = [t for t, blocking in history if t > at and blocking]
        if before and before[-1]:
            outcome.ttc_s.append(0.0)
            continue
        if later:
            outcome.ttc_s.append(later[0] - at)
        contained_by = later[0] if later else end
        if detected and target not in dep.orchestrator.pinned and \
                contained_by - at > CONTAINMENT_DEADLINE:
            outcome.misses.append(target)
    outcome.reaction_s.extend(_reaction_latencies(dep, reactions_from))
    outcome.count_telemetry(end)


def _build_fleet(inputs: dict[str, Any], outcome: Outcome, planes: bool):
    kwargs: dict[str, Any] = {}
    if planes:
        kwargs = dict(
            consistent_updates=True,
            reliable_control=True,
            health_check_period=1.0,
            ingest=IngestConfig(),
            durable_telemetry=True,
            checkpointing=True,
            standby=True,
            health=True,
        )
    dep = SecuredDeployment.build(**kwargs)
    for spec in inputs["devices"]:
        device = dep.add_device(
            FACTORY_CYCLE[spec["factory"]],
            spec["name"],
            latency=spec["latency"],
            report_to="hub",
            telemetry_period=TELEMETRY_PERIOD,
        )
        _probe_telemetry(device, outcome)
        dep.sim.schedule(spec["phase"], device.start_telemetry)
    attacker = dep.add_attacker()
    dep.finalize()
    _probe_hub(dep, outcome)
    return dep, attacker


def _run_windows(dep: SecuredDeployment, start: float, inputs: dict[str, Any]) -> list[float]:
    window = inputs["window"]
    steps = int(round(inputs["horizon"] / window))
    clock = time.perf_counter
    out = []
    for k in range(1, steps + 1):
        t = clock()
        dep.run(until=start + k * window)
        out.append(clock() - t)
    return out


#: Called with each finished deployment (the traced run counts from it).
OnDeployment = Callable[[SecuredDeployment], None] | None


def run_dataplane(inputs: dict[str, Any], on_deployment: OnDeployment = None) -> Rep:
    """One E9-style site: pinned postures, telemetry, a few exploits."""
    outcome = Outcome()
    t0 = time.perf_counter()
    dep, attacker = _build_fleet(inputs, outcome, planes=False)
    for spec in inputs["devices"]:
        dep.secure(spec["name"], e9_posture(dep, spec["name"]))
    launched: list = []
    for at, exploit, target in inputs["attacks"]:
        dep.sim.schedule_at(at, _launch, dep, attacker, exploit, target, launched)
    reactions_from = len(dep.controller.reactions)
    setup_s = time.perf_counter() - t0

    windows = _run_windows(dep, 0.0, inputs)
    _fleet_outcome(dep, outcome, launched, reactions_from)

    checks = []
    enforcing = {
        name for name, posture in dep.orchestrator.current.items()
        if posture.name not in PERMISSIVE_POSTURES
    }
    for target, at, result in launched:
        if target in enforcing:
            checks.append((
                f"blocked {result.exploit}->{target}@{at:.0f}s",
                not result.succeeded,
                "attack on an enforcing pinned posture succeeded",
            ))
    compromised = sorted(n for n in enforcing if dep.devices[n].is_compromised())
    checks.append(("nothing behind an enforcing posture compromised",
                   not compromised, ", ".join(compromised)))
    active = dep.manager.active_count()
    checks.append(("one µmbox per device", active == len(dep.devices),
                   f"{active} µmboxes for {len(dep.devices)} devices"))
    if on_deployment is not None:
        on_deployment(dep)
    return Rep([setup_s], windows, len(dep.devices) * inputs["horizon"], outcome,
               journal_digest(dep.sim.journal), checks)


def _release(dep: SecuredDeployment, device: str) -> None:
    """The operator takes a device out of the cluster to vet it."""
    dep.controller.clear_context(device)
    dep.secure(device, ALLOW_ALL, pin=False)


def run_planes(inputs: dict[str, Any], on_deployment: OnDeployment = None) -> Rep:
    """Every single-site plane on; one epoch per onboarding; a rolling wave."""
    outcome = Outcome()
    t0 = time.perf_counter()
    dep, attacker = _build_fleet(inputs, outcome, planes=True)
    for spec in inputs["devices"]:
        dep.secure(spec["name"], e9_posture(dep, spec["name"]), pin=False)
    updater = dep.orchestrator.updater

    def uncommitted() -> int:
        return sum(1 for report in updater.reports if report.committed_at is None)

    deadline = dep.sim.now + PLANES_COMMIT_DEADLINE
    while uncommitted() and dep.sim.now < deadline:
        dep.run(until=dep.sim.now + 0.01)
    pending = uncommitted()
    checks = [("onboarding epochs commit", pending == 0,
               f"{pending} epochs uncommitted {PLANES_COMMIT_DEADLINE:g} sim-s after onboarding")]
    start = dep.sim.now
    primary = dep.controller
    launched: list = []
    for at, exploit, target in inputs["attacks"]:
        sim = dep.sim
        sim.schedule_at(start + at, _launch, dep, attacker, exploit, target, launched)
        sim.schedule_at(start + at + PLANES_RELEASE_AFTER, _release, dep, target)
        sim.schedule_at(start + at + PLANES_REONBOARD_AFTER,
                        lambda t=target: dep.secure(t, e9_posture(dep, t), pin=False))
    reactions_from = len(dep.controller.reactions)
    setup_s = time.perf_counter() - t0

    windows = _run_windows(dep, start, inputs)
    _fleet_outcome(dep, outcome, launched, reactions_from)

    lost = sum(lane.lost for lane in dep.host_stream.lanes.values())
    takeover = dep.standby_controller.active or dep.controller is not primary
    checks += [
        ("zero durable-telemetry loss", lost == 0, f"{lost} records lost"),
        ("no standby takeover without a crash", not takeover, "standby took over"),
    ]
    if on_deployment is not None:
        on_deployment(dep)
    return Rep([setup_s], windows, len(dep.devices) * inputs["horizon"], outcome,
               journal_digest(dep.sim.journal), checks)


# ----------------------------------------------------------------------
# The campaign corpus
# ----------------------------------------------------------------------
def run_corpus(inputs: dict[str, Any], on_deployment: OnDeployment = None) -> Rep:
    """Every library campaign against a fresh home, for each campaign seed.

    Each run goes through :func:`run_campaign`.  Its ``build_home`` call
    is timed apart as set-up; the rest of the run, scoring included, is
    the campaign's window.
    """
    outcome = Outcome()
    clock = time.perf_counter
    setups: list[float] = []
    windows: list[float] = []
    device_sim_s = 0.0
    digests = hashlib.sha256()
    checks: list[tuple[str, bool, str]] = []
    fabric = {"degraded": False, "outages": 0, "repins": 0, "breaches": 0}
    build_home = campaign_library.build_home
    # (host seconds, controller reactions) of each build_home call.
    built: list[tuple[float, int]] = []

    def timed_build_home(*args, **kwargs):
        t = clock()
        dep = build_home(*args, **kwargs)
        built.append((clock() - t, len(dep.controller.reactions)))
        return dep

    campaign_library.build_home = timed_build_home
    try:
        for seed in inputs["campaign_seeds"]:
            for name in inputs["campaigns"]:
                campaign = CAMPAIGNS[name]
                t = clock()
                score = run_campaign(campaign, seed=seed, keep_dep=True)
                run_s = clock() - t
                build_s, reactions_from = built.pop()
                setups.append(build_s)
                windows.append(run_s - build_s)
                dep, runner = score["dep"], score["runner"]
                device_sim_s += len(dep.devices) * campaign.horizon

                attacked = set(score["attacked"])
                outcome.attacked += len(attacked)
                outcome.detected += len(attacked & set(score["alerted"]))
                outcome.ttc_s.extend(score["time_to_containment_s"].values())
                outcome.reaction_s.extend(_reaction_latencies(dep, reactions_from))
                for result in runner.exploit_results.values():
                    outcome.attacks_launched += 1
                    outcome.attacks_succeeded += int(result.succeeded)
                outcome.misses.extend(
                    f"{name}@{seed}:{device}" for device in score["containment_misses"]
                )
                digests.update(score["journal_digest"].encode())
                if campaign.campaign_class in ENFORCING_CLASSES:
                    checks.append((
                        f"{name}@{seed} contained",
                        not score["containment_misses"]
                        and score["graceful_degradation"]["ok"],
                        f"misses {score['containment_misses']}",
                    ))
                else:
                    fabric["degraded"] |= score["fabric_degraded"]
                    fabric["outages"] += score["graceful_degradation"]["outages"]
                    fabric["repins"] += score["repin_count"]
                    fabric["breaches"] += score["containment_breaches"]
                if on_deployment is not None:
                    on_deployment(dep)
    finally:
        campaign_library.build_home = build_home
    checks.append(("fabric campaigns degrade the fabric", fabric["degraded"], ""))
    checks.append(("fabric campaigns crash and re-pin a µmbox",
                   fabric["outages"] >= 1 and fabric["repins"] >= 1,
                   f"{fabric['outages']} outages, {fabric['repins']} re-pins"))
    checks.append(("a containment miss burns the campaign SLO", fabric["breaches"] >= 1,
                   f"{fabric['breaches']} breaches"))
    return Rep(setups, windows, device_sim_s, outcome, digests.hexdigest(), checks)


RUNNERS: dict[str, Callable[..., Rep]] = {
    "fleet-dataplane": run_dataplane,
    "fleet-planes": run_planes,
    "campaign-corpus": run_corpus,
}

