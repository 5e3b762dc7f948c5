"""The E9 fleet: one builder for the scale site every harness shares.

Bench E9, the observability-overhead bench, the federation site worker
and the hot-path equivalence fixtures all run the same site shape: the
four-device factory cycle, every device telemetering to the hub, each
device given the posture its worst flaw class calls for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.orchestrator import build_recommended_posture
from repro.devices.library import smart_bulb, smart_camera, smart_plug, thermostat

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment
    from repro.policy.posture import Posture

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
