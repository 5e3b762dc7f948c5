"""Observability overhead: instrumentation must stay near-free.

The whole premise of ``repro.obs`` is that it is *always on*: callback
gauges cost nothing until sampled, counters are one attribute add, and
histograms/spans only fire at control-plane frequency.  This bench proves
it, by running an E9-small workload (20 fully-tunnelled devices, ten
simulated minutes of telemetry plus an attack sweep) with observability
enabled (the default) and disabled (``Simulator(observe=False)``), and
comparing simulator throughput.

Measurement protocol (shared with ``regression.py`` via
:func:`measure_overhead`): one *warmup pair* is run and discarded (the
first runs pay import, allocator and branch-predictor costs that have
nothing to do with instrumentation), then ``REPEATS`` interleaved
(on, off) pairs are measured and each arm takes its **best** run.
Ambient machine noise only ever makes a run *slower*, so the max over N
runs converges on each arm's true rate; per-pair ratios were tried and
rejected -- single runs on a shared box swing tens of percent, and the
two runs of a pair do not share that noise.  Because instrumentation
cannot make the simulator faster, a negative best-of-N estimate is pure
residual noise and is clamped to zero (the raw per-pair series is kept
in the recorded baseline so the noise floor stays visible) -- earlier
unclamped protocols recorded *negative* overheads in
``BENCH_TRAJECTORY.json``.  The threshold is 5% locally
(``REPRO_OBS_OVERHEAD_THRESHOLD`` overrides; CI uses 10%).
"""

from __future__ import annotations

import os
import time
import types

from _util import percent, print_table, record

from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.fleet import add_e9_fleet, e9_posture
from repro.netsim.simulator import Simulator

N_DEVICES = 20
UNTIL = 1800.0
REPEATS = 7


def run_workload(observe: bool) -> dict:
    sim = Simulator(observe=observe)
    # The SLO/health plane rides along: with observe=True it evaluates
    # the full catalog at its default cadence (one sample per 5s fast
    # window); with observe=False it must be a strict no-op (no timer,
    # no gauges -- the null-instrument guarantee).
    dep = SecuredDeployment.build(sim=sim, health=True)
    add_e9_fleet(dep, N_DEVICES)
    attacker = dep.add_attacker()
    dep.finalize()
    for name in dep.devices:
        dep.secure(name, e9_posture(dep, name))

    EXPLOITS["default_credential_hijack"].launch(attacker, "dev0", dep.sim)
    EXPLOITS["backdoor_command"].launch(
        attacker, "dev1", dep.sim, backdoor_port=49153, command="on"
    )
    start = time.perf_counter()
    dep.run(until=UNTIL)
    run_s = time.perf_counter() - start
    events = dep.sim.events_processed
    plane = dep.health_plane
    return {
        "observe": observe,
        "events": events,
        "run_s": run_s,
        "events_per_s": events / max(run_s, 1e-9),
        "compromised": sum(1 for d in dep.devices.values() if d.is_compromised()),
        "series": len(dep.sim.metrics),
        "traces": dep.sim.tracer.started,
        "journal": dep.sim.journal.recorded,
        "journal_retained": len(dep.sim.journal),
        "health_ticks": plane.slos.ticks if plane is not None else 0,
        "health_rollup": (
            plane.health.rollup() if plane is not None and plane.enabled else None
        ),
        "slo_breaches": plane.slos.breach_total() if plane is not None else 0,
    }


def measure_overhead(repeats: int = REPEATS) -> dict:
    """Warmed, interleaved, best-of-N overhead estimate (see module doc).

    Returns ``{"on": best-on-run, "off": best-off-run, "overhead":
    clamped best-of-N overhead, "pair_overheads": [per-pair overheads]}``
    -- the per-pair series is recorded so the noise floor is visible in
    the artifacts instead of silently folded into one number.
    """
    # Warmup pair, discarded: the first run of each arm pays one-time
    # costs (imports, allocator growth, branch caches) that would
    # otherwise bias whichever arm happens to run first.
    run_workload(observe=True)
    run_workload(observe=False)
    on_runs, off_runs = [], []
    for _ in range(repeats):
        on_runs.append(run_workload(observe=True))
        off_runs.append(run_workload(observe=False))
    on = max(on_runs, key=lambda r: r["events_per_s"])
    off = max(off_runs, key=lambda r: r["events_per_s"])
    return {
        "on": on,
        "off": off,
        # Instrumentation can only slow the simulator down; a negative
        # estimate is residual noise, clamped so the trajectory never
        # records an impossible speedup.
        "overhead": max(0.0, 1.0 - on["events_per_s"] / off["events_per_s"]),
        "pair_overheads": [
            1.0 - a["events_per_s"] / b["events_per_s"]
            for a, b in zip(on_runs, off_runs)
        ],
    }


def test_obs_overhead():
    estimate = measure_overhead()
    on, off = estimate["on"], estimate["off"]

    # Identical simulated work in both arms, modulo the health plane's
    # own evaluation timer: the observed arm runs one SLO tick per
    # simulated second, the disabled arm schedules nothing at all (the
    # null-instrument guarantee) -- so the event counts differ by
    # exactly the tick count and the <threshold budget now covers
    # instrumentation *plus* the live health plane.
    assert on["events"] == off["events"] + on["health_ticks"]
    assert on["health_ticks"] > 0 and off["health_ticks"] == 0
    assert on["health_rollup"] == "ok" and on["slo_breaches"] == 0
    assert on["compromised"] == off["compromised"] == 0
    assert off["series"] == 0 and off["traces"] == 0 and off["journal"] == 0
    assert on["series"] > 0 and on["traces"] > 0 and on["journal"] > 0
    # Bounded retention: however much was recorded, in-memory entries
    # never exceed the ring capacity.
    journal = Simulator().journal
    assert on["journal_retained"] <= journal.segment_size * journal.max_segments

    overhead = estimate["overhead"]
    threshold = float(os.environ.get("REPRO_OBS_OVERHEAD_THRESHOLD", "0.05"))

    print_table(
        f"Obs overhead: instrumentation on vs off (warmed best of {REPEATS})",
        ["Arm", "Sim events", "Wall (s)", "Events/s", "Series", "Traces"],
        [
            (
                "observe=True" if r is on else "observe=False",
                f"{r['events']:,}",
                f"{r['run_s']:.3f}",
                f"{r['events_per_s']:,.0f}",
                r["series"],
                r["traces"],
            )
            for r in (on, off)
        ],
    )
    print(f"overhead: {percent(overhead)} (threshold {percent(threshold)})")

    shim = types.SimpleNamespace(name="test_obs_overhead", extra_info={})
    record(
        shim,
        "overhead",
        {
            "on_events_per_s": on["events_per_s"],
            "off_events_per_s": off["events_per_s"],
            "overhead": overhead,
            "pair_overheads": estimate["pair_overheads"],
            "threshold": threshold,
            "series": on["series"],
            "traces": on["traces"],
            "journal": on["journal"],
            "health_ticks": on["health_ticks"],
            "health_rollup": on["health_rollup"],
        },
    )

    assert overhead < threshold, (
        f"instrumentation costs {overhead:.1%} of throughput "
        f"(threshold {threshold:.0%}): the observability layer is no "
        "longer near-free"
    )
