"""Fleet builders shared by the benches, the CLI and the fixtures.

- :func:`add_e9_fleet` / :func:`e9_posture` -- the scale site.  Bench E9,
  the observability-overhead bench, the federation site worker and the
  hot-path equivalence fixtures all run the same site shape: the
  four-device factory cycle, every device telemetering to the hub, each
  device given the posture its worst flaw class calls for.
- :func:`run_fleet` -- the fleet-immunity sweep behind bench E11 and
  ``repro fleet``: identical sites share one simulator and one signature
  repository while an attacker sweeps them one by one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.orchestrator import build_recommended_posture
from repro.devices.library import smart_bulb, smart_camera, smart_plug, thermostat
from repro.policy.posture import MboxSpec, Posture

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment

FACTORY_CYCLE = (smart_camera, smart_plug, thermostat, smart_bulb)


def add_e9_fleet(
    dep: "SecuredDeployment", n: int, telemetry_period: float = 20.0
) -> None:
    """Add ``dev0..dev{n-1}`` from the factory cycle, telemetry started."""
    for i in range(n):
        factory = FACTORY_CYCLE[i % len(FACTORY_CYCLE)]
        device = dep.add_device(
            factory, f"dev{i}", report_to="hub", telemetry_period=telemetry_period
        )
        device.start_telemetry()


def e9_posture(dep: "SecuredDeployment", name: str) -> "Posture":
    """The E9 posture for a device: proxy, firewall or monitor by flaw class."""
    device = dep.devices[name]
    flaws = device.firmware.flaw_classes()
    if "exposed-credentials" in flaws:
        return build_recommended_posture("password_proxy", name)
    if flaws & {"backdoor", "exposed-access"}:
        return build_recommended_posture(
            "stateful_firewall", name, trusted_sources=(dep.HUB, dep.CONTROLLER)
        )
    return build_recommended_posture("monitor", name, sku=device.sku)


# ----------------------------------------------------------------------
# Fleet immunity
# ----------------------------------------------------------------------
SWEEP_GAP = 30.0  # seconds between the attacker's visits to two sites
CAMERA_SKU = "dlink:DCS-930L:1.0"
FORENSIC_MONITOR = Posture.make(
    "forensic-monitor",
    MboxSpec.make("telemetry_tap"),
    MboxSpec.make("packet_logger", capture=True),
    MboxSpec.make("login_monitor"),
    MboxSpec.make("signature_ids", sku=CAMERA_SKU, drop_on_match=True),
)


def run_fleet(sites: int, share: bool = True) -> dict[str, Any]:
    """Sweep ``sites`` identical camera sites with one exploit, 30 s apart.

    Site 0 falls -- no signature exists yet.  With ``share``, its
    operator mines a signature from the µmbox capture ten seconds later
    and publishes it; the repository pushes it to every subscribed
    site's live IDS, so later sites shrug the attack off.  Without
    sharing every site falls.
    """
    from repro.attacks.exploits import EXPLOITS
    from repro.core.deployment import SecuredDeployment
    from repro.learning.repository import CrowdRepository
    from repro.learning.traceminer import LabelledTrace, mine_and_publish
    from repro.mboxes.elements import PacketLogger
    from repro.netsim.simulator import Simulator

    sim = Simulator()
    repo = CrowdRepository(sim, free_rider_delay=5.0, base_delay=1.0)
    fleet, attackers = [], []
    for __ in range(sites):
        site = SecuredDeployment.build(sim=sim)
        site.add_device(smart_camera, "cam")
        attackers.append(site.add_attacker())
        site.finalize()
        if share:
            site.attach_repository(repo)
        site.secure("cam", FORENSIC_MONITOR)
        fleet.append(site)
    published_at: list[float] = []

    def site0_responds() -> None:
        elements = fleet[0].cluster.mboxes["cam"].elements
        logger = next((e for e in elements if isinstance(e, PacketLogger)), None)
        captured = logger.captured if logger else []
        attack = [
            p for p in captured if p.src == "attacker" and p.payload.get("action") == "login"
        ]
        if attack:
            benign = [p for p in captured if p.src != "attacker"]
            mine_and_publish(
                repo,
                LabelledTrace.make(attack=attack, benign=benign),
                sku=CAMERA_SKU,
                reporter="site-0-operator",
                flaw_class="exposed-credentials",
                recommended_posture="password_proxy",
            )
            published_at.append(sim.now)

    def attack(attacker: Any) -> None:
        EXPLOITS["default_credential_hijack"].launch(attacker, "cam", sim, resource="image")

    for i, attacker in enumerate(attackers):
        sim.schedule(1.0 + i * SWEEP_GAP, attack, attacker)
    if share:
        sim.schedule(11.0, site0_responds)
    sim.run(until=sites * SWEEP_GAP + 60.0)

    outcomes = [
        {
            "site": i,
            "attacked_at": 1.0 + i * SWEEP_GAP,
            "compromised": bool(attackers[i].loot_from("cam")),
            "signature_hits": sum(1 for a in site.alerts("cam") if a.kind == "signature-match"),
        }
        for i, site in enumerate(fleet)
    ]
    return {
        "arm": "federated" if share else "isolated",
        "outcomes": outcomes,
        "lost": sum(1 for o in outcomes if o["compromised"]),
        "published": repo.published,
        "published_at": published_at[0] if published_at else None,
    }
