"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fleet-dataplane --seed 1 --seconds 35 --trace 0

Runs one workload from a single process, from the source tree next to
this directory (``src/``).  With ``--trace 0`` it repeats the workload
for ``--seconds`` seconds of host time and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer ledger instead.
Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics printed by name for every workload: (name, unit, clock, better).
END_TO_END = (
    ("setup_s", "s", "host", "lower"),
    ("window_ms_p50", "ms", "host", "lower"),
    ("window_ms_p90", "ms", "host", "lower"),
    ("sim_device_s_per_s", "1/s", "host", "higher"),
    ("peak_mem_mb", "MB", "host", "lower"),
    ("ttc_p50_s", "s", "sim", "lower"),
    ("ttc_p90_s", "s", "sim", "lower"),
    ("reaction_ms_p50", "ms", "sim", "lower"),
    ("reaction_ms_p90", "ms", "sim", "lower"),
    ("pkt_latency_ms_p50", "ms", "sim", "lower"),
    ("pkt_latency_ms_p90", "ms", "sim", "lower"),
    ("detection_recall", "frac", "sim", "higher"),
    ("containment_misses", "count", "sim", "lower"),
    ("attack_success_frac", "frac", "sim", "lower"),
    ("telemetry_loss_frac", "frac", "sim", "lower"),
)

#: The end-to-end metrics in the JSON result line, which a regression
#: gate compares across seeds and commits: the host-clock ones, never
#: zero and steady across seeds.  The sim-clock ones are exact functions
#: of the seed (several are zero on some workload), so they are printed
#: above the result line and checked instead: against golden.json on the
#: golden input, and between the repetitions of the run.
GATED = (
    "setup_s",
    "window_ms_p50",
    "window_ms_p90",
    "sim_device_s_per_s",
    "peak_mem_mb",
)

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.run_self_ms", "ms"),
    ("netsim.receive_self_ms", "ms"),
    ("netsim.transmit_self_ms", "ms"),
    ("netsim.link_delivered", "count"),
    ("netsim.link_queue_drops", "count"),
    ("netsim.switch.lookups", "count"),
    ("netsim.switch.punted_frac", "frac"),
    ("sdn.flow_installs", "count"),
    ("sdn.install_self_ms", "ms"),
    ("sdn.epochs", "count"),
    ("sdn.epoch_self_ms", "ms"),
    ("sdn.rules_per_epoch", "count"),
    ("sdn.channel_msgs", "count"),
    ("sdn.channel_retries", "count"),
    ("sdn.channel_self_ms", "ms"),
    ("mboxes.packets", "count"),
    ("mboxes.self_ms", "ms"),
    ("mboxes.alerts", "count"),
    ("mboxes.deploys", "count"),
    ("mboxes.deploy_self_ms", "ms"),
    ("mboxes.down_drops", "count"),
    ("core.alerts", "count"),
    ("core.controller_self_ms", "ms"),
    ("core.pipeline.rounds", "count"),
    ("core.pipeline.evaluations", "count"),
    ("core.pipeline.applies", "count"),
    ("core.pipeline.coalesced_frac", "frac"),
    ("core.orchestrator_self_ms", "ms"),
    ("core.ingest.depth_max", "count"),
    ("core.ingest.dropped", "count"),
    ("core.ha.checkpoints", "count"),
    ("core.ha.checkpoint_bytes", "bytes"),
    ("core.ha.capture_self_ms", "ms"),
    ("policy.lookups", "count"),
    ("policy.self_ms", "ms"),
    ("obs.journal.records", "count"),
    ("obs.journal_self_ms", "ms"),
    ("obs.stream.offers", "count"),
    ("obs.stream.batches", "count"),
    ("obs.stream_self_ms", "ms"),
    ("obs.slo_evals", "count"),
    ("obs.slo_self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("scale.exponent.fleet-dataplane", "1"),
    ("scale.exponent.fleet-planes", "1"),
)

#: Scaling probe: the traced fleet at 1/4, 1/2 and 1x its device count,
#: over a fixed simulated horizon, fastest host time of this many runs per
#: size.  Each fleet's exponent comes from its own traced run.
SCALE_HORIZON = 600.0
SCALE_RUNS = 3
SCALED = ("fleet-dataplane", "fleet-planes")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-dataplane", "fleet-planes", "campaign-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Repetition loop
# ----------------------------------------------------------------------
def _reps(run, seconds: float, at_least: int) -> list:
    """Run ``run()`` until ``seconds`` of host time have passed and at
    least ``at_least`` repetitions are done.  Garbage from one
    repetition is collected before the next starts."""
    reps = []
    start = time.perf_counter()
    while len(reps) < at_least or time.perf_counter() - start < seconds:
        gc.collect()
        reps.append(run())
    gc.collect()
    return reps


class Checks:
    """Correctness checks counted against the checks attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def rep(self, rep) -> None:
        for name, ok, detail in rep.checks:
            self.check(name, ok, detail)

    def same(self, name: str, a, b) -> None:
        self.check(name, a == b, f"{a!r} != {b!r}")


# ----------------------------------------------------------------------
# Timed run: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    from perfbench import golden, stats
    from perfbench.workloads import INPUTS, RUNNERS

    inputs = INPUTS[workload](seed)
    run = RUNNERS[workload]
    # The golden repetition fills lazy imports and caches.  The seed's
    # first repetition is the reference every timed one must reproduce.
    golden.check(workload, checks)
    reference = run(inputs)
    # Peak resident set after the two untimed repetitions: later
    # repetitions only add allocator fragmentation, which depends on how
    # many of them the host speed allowed.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks.rep(reference)
    expected = reference.fingerprint()
    reps = _reps(lambda: run(inputs), seconds, at_least=2)
    for i, rep in enumerate(reps, 1):
        checks.rep(rep)
        checks.same(f"repetition {i} reproduces the reference", rep.fingerprint(), expected)

    # On a shared host, other tenants' memory traffic slows this
    # memory-bound simulator by up to 1.7x for seconds to minutes at a
    # time.  Every repetition runs the same set-up steps and simulated
    # windows, so each step's fastest time over the repetitions (its
    # floor) is its cost with the least interference; the host metrics
    # are taken over floors.  Pooled figures are printed for comparison.
    floor = stats.floor([rep.windows_s for rep in reps])
    pooled = [w for rep in reps for w in rep.windows_s]
    metrics = {
        "setup_s": sum(stats.floor([rep.setups_s for rep in reps])),
        "window_ms_p50": stats.percentile(floor, 50) * 1e3,
        "window_ms_p90": stats.percentile(floor, 90) * 1e3,
        "sim_device_s_per_s": reference.device_sim_s / sum(floor),
        "peak_mem_mb": peak_mb,
    }
    metrics.update(expected["sim"])
    high = stats.highest_reportable(len(floor))
    report = {
        "repetitions": len(reps),
        "windows": len(floor),
        "pooled_ms": (stats.percentile(pooled, 50) * 1e3, stats.percentile(pooled, 90) * 1e3),
        "setup_median_s": stats.median([rep.setup_s for rep in reps]),
        "window_ms_high": (high, stats.percentile(floor, high) * 1e3) if high else None,
        "outcome": reference.outcome,
        "digest": reference.digest,
    }
    return {"metrics": metrics, "report": report}


# ----------------------------------------------------------------------
# Traced run: per-layer ledger
# ----------------------------------------------------------------------
def _snapshot_total(snapshot: dict, kind: str, name: str, skip_kind: str = "") -> float:
    return sum(
        series["value"]
        for series in snapshot[kind].get(name, ())
        if not skip_kind or series["labels"].get("kind") != skip_kind
    )


class DeploymentCounts:
    """Deterministic per-layer counts read from finished deployments."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.checkpoints: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def __call__(self, dep) -> None:
        snap = dep.sim.metrics.snapshot()
        add = self.add
        add("netsim.events", dep.sim.events_processed)
        add("netsim.link_delivered", _snapshot_total(snap, "gauges", "link_delivered"))
        add("netsim.link_queue_drops", _snapshot_total(snap, "gauges", "link_queue_drops"))
        add("punted", _snapshot_total(snap, "gauges", "switch_punted"))
        add("sdn.epochs", _snapshot_total(snap, "counters", "updater_commits"))
        updater = dep.orchestrator.updater
        if updater is not None:
            add("epoch_rules", sum(r.rules_installed for r in updater.reports))
            add("epoch_reports", len(updater.reports))
        add("sdn.channel_retries", _snapshot_total(snap, "counters", "channel_retries"))
        add("mboxes.alerts", _snapshot_total(snap, "counters", "mbox_alerts", "telemetry"))
        add("mboxes.down_drops", _snapshot_total(snap, "gauges", "mbox_down_drops"))
        add("core.alerts",
            _snapshot_total(snap, "counters", "controller_alerts", "telemetry"))
        for stage in ("rounds", "evaluations", "applies", "ingested", "coalesced"):
            add(f"pipeline.{stage}", _snapshot_total(snap, "gauges", f"pipeline_{stage}"))
        add("core.ingest.dropped", _snapshot_total(snap, "counters", "ingest_dropped"))
        store = dep.checkpoint_store
        latest = store.latest() if store is not None else None
        if latest is not None:
            self.checkpoints.append(len(json.dumps(latest.as_dict(), sort_keys=True)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_counts(counts: dict[str, int], dep_counts: DeploymentCounts) -> dict[str, float]:
    t = dep_counts.totals
    out = dict(counts)
    for key in ("netsim.events", "netsim.link_delivered", "netsim.link_queue_drops",
                "sdn.epochs", "sdn.channel_retries", "mboxes.alerts", "mboxes.down_drops",
                "core.alerts", "core.ingest.dropped"):
        out[key] = t.get(key, 0)
    out["netsim.switch.punted_frac"] = _ratio(t.get("punted", 0),
                                              counts.get("netsim.switch.lookups", 0))
    out["sdn.rules_per_epoch"] = _ratio(t.get("epoch_rules", 0), t.get("epoch_reports", 0))
    for stage in ("rounds", "evaluations", "applies"):
        out[f"core.pipeline.{stage}"] = t.get(f"pipeline.{stage}", 0)
    out["core.pipeline.coalesced_frac"] = _ratio(t.get("pipeline.coalesced", 0),
                                                 t.get("pipeline.ingested", 0))
    cps = dep_counts.checkpoints
    out["core.ha.checkpoint_bytes"] = sum(cps) / len(cps) if cps else 0
    # Snapshot values are floats; whole counts read better as integers.
    return {k: int(v) if isinstance(v, float) and v.is_integer() else v
            for k, v in out.items()}


def scale_exponent(workload: str, seed: int) -> float:
    from perfbench import stats
    from perfbench.workloads import DATAPLANE_DEVICES, PLANES_DEVICES, INPUTS, RUNNERS

    full = DATAPLANE_DEVICES if workload == "fleet-dataplane" else PLANES_DEVICES
    sizes = [full // 4, full // 2, full]
    times = []
    for n in sizes:
        inputs = INPUTS[workload](seed, devices=n, horizon=SCALE_HORIZON)
        reps = _reps(lambda: RUNNERS[workload](inputs), 0.0, at_least=SCALE_RUNS)
        times.append(min(rep.host_s for rep in reps))
    return stats.scaling_exponent(sizes, times)


def per_layer(workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    from perfbench import golden, stats
    from perfbench.tracing import Ledger
    from perfbench.workloads import INPUTS, RUNNERS

    inputs = INPUTS[workload](seed)
    run = RUNNERS[workload]
    golden.check(workload, checks)
    reference = run(inputs)
    checks.rep(reference)
    expected = reference.fingerprint()
    ledger = Ledger()

    def pair():
        # Untraced and traced back to back, so host-speed drift hits both
        # sides of the overhead ratio alike.
        plain = run(inputs)
        gc.collect()
        dep_counts = DeploymentCounts()
        with ledger:
            traced = run(inputs, on_deployment=dep_counts)
            self_ms, counts = ledger.fold()
        return plain, traced, self_ms, _layer_counts(counts, dep_counts)

    pairs = _reps(pair, seconds, at_least=2)
    for plain, traced, __, __ in pairs:
        checks.rep(traced)
        checks.same("untraced repetition reproduces the reference",
                    plain.fingerprint(), expected)
        checks.same("traced repetition reproduces the untraced reference",
                    traced.fingerprint(), expected)
    first_counts = pairs[0][3]
    for __, __, __, counts in pairs[1:]:
        checks.same("traced repetitions give identical per-layer counts", counts, first_counts)

    metrics: dict[str, float] = {name: 0 for name, __ in PER_LAYER}
    metrics.update(first_counts)
    for name in pairs[0][2]:
        metrics[name] = stats.median([self_ms[name] for __, __, self_ms, __ in pairs])
    untraced_s = stats.median([plain.host_s for plain, __, __, __ in pairs])
    metrics["netsim.events_per_s"] = first_counts.get("netsim.events", 0) / untraced_s
    metrics["trace.overhead_frac"] = stats.median(
        [traced.host_s / plain.host_s for plain, traced, __, __ in pairs]
    ) - 1.0
    if workload in SCALED:
        gc.collect()
        metrics[f"scale.exponent.{workload}"] = scale_exponent(workload, seed)
    unmeasured = [f"scale.exponent.{fleet}" for fleet in SCALED if fleet != workload]
    report = {"pairs": len(pairs), "missing_hooks": ledger.missing, "unmeasured": unmeasured,
              "outcome": reference.outcome, "digest": reference.digest}
    return {"metrics": {name: metrics[name] for name, __ in PER_LAYER}, "report": report}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_end_to_end(result: dict) -> None:
    metrics, report = result["metrics"], result["report"]
    o = report["outcome"]
    counts = {
        "ttc_p50_s": f"n={len(o.ttc_s)}",
        "reaction_ms_p50": f"n={len(o.reaction_s)}",
        "pkt_latency_ms_p50": f"n={len(o.pkt_latency_s)}",
        "detection_recall": f"{o.detected} of {o.attacked} attacked devices alerted",
        "attack_success_frac": f"{o.attacks_succeeded} of {o.attacks_launched} "
                               "launched exploits reached their goal",
        "telemetry_loss_frac": f"sent {o.telemetry_sent}, arrived {o.telemetry_arrived}",
        "window_ms_p50": f"{report['windows']} windows, each its fastest of "
                         f"{report['repetitions']} repetitions",
        "setup_s": f"each set-up step's fastest of {report['repetitions']} repetitions "
                   f"(median set-up {report['setup_median_s']:.6g} s)",
    }
    print("end-to-end metrics:")
    for name, unit, clock, __ in END_TO_END:
        gated = "*" if name in GATED else " "
        print(f" {gated} {name:<22} {_fmt(metrics[name]):>12} {unit:<6} [{clock}] "
              f"{counts.get(name, '')}")
    print("   (* = in the result line; sim-clock values come from the reference repetition)")
    print("window times pooled over all repetitions: p50 {:.6g} ms, p90 {:.6g} ms"
          .format(*report["pooled_ms"]))
    high = report["window_ms_high"]
    if high:
        print(f"highest window percentile with >=10 windows beyond: p{high[0]:g} = "
              f"{high[1]:.6g} ms")
    print(f"containment misses ({len(o.misses)}): {', '.join(o.misses) or 'none'}")
    print(f"journal digest: {report['digest']}")


def _print_per_layer(result: dict) -> None:
    report = result["report"]
    print(f"untraced/traced repetition pairs: {report['pairs']}")
    if report["missing_hooks"]:
        print(f"hooks not found (their metrics read 0): {', '.join(report['missing_hooks'])}")
    for name, unit in PER_LAYER:
        note = "  (not measured here: see that workload's traced run)" \
            if name in report["unmeasured"] else ""
        print(f"   {name:<34} {_fmt(result['metrics'][name]):>12} {unit}{note}")
    print(f"journal digest: {report['digest']}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    checks = Checks()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        result = per_layer(args.workload, args.seed, args.seconds, checks)
        _print_per_layer(result)
        units = dict(PER_LAYER)
        names = [name for name, __ in PER_LAYER]
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, checks)
        _print_end_to_end(result)
        units = {name: unit for name, unit, __, __ in END_TO_END}
        names = list(GATED)
    print(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
