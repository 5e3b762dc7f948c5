"""Continuous perf-regression gate.

Runs the load-bearing benchmarks (E9 whole-stack scale, the observability
overhead pair), compares the numbers against the committed baselines under
``benchmarks/results/``, appends one entry to the repo-level
``BENCH_TRAJECTORY.json`` (the perf history across commits), and exits
non-zero when a pinned threshold is violated -- this is what the CI
``bench-regression`` job runs.

Two kinds of checks, because wall-clock throughput is machine-dependent
but the simulation itself is deterministic:

- **throughput**: E9 events/s may not drop more than
  ``THROUGHPUT_REGRESSION`` below the committed baseline, and the
  instrumentation overhead may not exceed ``OBS_OVERHEAD_LIMIT``;
- **determinism**: simulated event counts, pipeline rounds and applies
  must match the baseline within ``EVENT_COUNT_DRIFT`` -- these numbers
  do not depend on the machine, so any drift is a behavior change that
  should have re-recorded the baselines (run the benches, commit the
  updated ``benchmarks/results/*.json``);
- **resilience**: the E12 chaos scenario's exposure window (sim-time, so
  also machine-independent) -- the resilient arm must stay strictly below
  the no-resilience arm and within ``RESILIENCE_REGRESSION`` of its
  committed baseline;
- **survivability**: the E13 controller-HA pair -- the hot-standby blind
  window must stay under ``FAILOVER_BLIND_RATIO`` of the cold-restart
  arm's, and prioritized shedding must process at least
  ``STORM_MIN_ENFORCING_FRAC`` of enforcing-class alerts under the 10x
  storm;
- **durability**: the E14 telemetry-plane pair (also sim-time) -- the
  durable arm must deliver every record it emitted across the 2.5 h
  partition (``telemetry_loss == 0``, a hard gate) with the buffer's
  peak depth under ``E14_PEAK_BUFFER_LIMIT``, while the lossy arm still
  shows the loss the durable plane exists to prevent.  The durable arm's
  dead-letter queue is exported to ``results/dlq_sample.jsonl`` as a CI
  artifact.
- **campaigns (E16)**: the full adversarial campaign corpus, per class
  (sim-time, fully seeded).  Hard gates: the *enforcing* classes
  (single-flaw, lateral-movement, automation-abuse) must end with **zero
  containment misses**, and the fabric-degradation class must produce
  real degradation evidence (sinkholed/bypassed packets, µmbox outages,
  re-pins, and at least one campaign-containment burn-rate breach) while
  still containing by horizon.  Per-class recall drift-checks against
  the committed bench results.  The full scorecard is exported to
  ``results/campaign_scorecard.json`` as a CI artifact.
- **health/SLO**: two deterministic health-plane runs (sim-time only, no
  baseline needed) -- the standard seeded run must end all-green (rollup
  ``ok``, zero SLO breaches) and the chaos plan must trip at least one
  burn-rate breach *and* journal a matching ``slo-recover`` carrying the
  breach's trace id.  Both verdicts are written to
  ``results/health_snapshot.json`` as a CI artifact.
- **federation (E15)**: the gate pair (one fleet run single-site vs
  sharded across ``E15_SITES`` federated sites) must keep a
  >= ``E15_MIN_SPEEDUP`` aggregate-throughput edge, and the seeded
  coordinator-blackout scenario must show **zero enforcement gaps** (a
  hard property, like E14's zero loss), in-order replay, convergence
  and the poisoned report quarantined -- plus determinism drift on its
  counters.  The full federation run is exported to
  ``results/federation_snapshot.json`` as a CI artifact.

Usage::

    PYTHONPATH=src python benchmarks/regression.py [--json] [--record]

``--record`` refreshes the committed wall-clock baselines
(``test_e9_whole_stack_scale.json``, ``test_e9_small_core_capacity.json``,
``test_obs_overhead.json``) from this run's own best-of-N measurements.
Baselines must be recorded with the *same estimator the gate uses*: a
single lucky pytest-bench pass committed as the baseline would make the
tightened 10% gate flake on the next ordinary run.

``compare`` is a pure function over plain dicts so the gate itself is
unit-testable (including the synthetic-regression case) without running
any benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

# ---------------------------------------------------------------------------
# Regression thresholds -- the ONE place CI gates are pinned.  Environment
# variables override for local experiments; CI uses these values.
# ---------------------------------------------------------------------------
THROUGHPUT_REGRESSION = 0.10   # max fractional E9 events/s drop vs baseline
OBS_OVERHEAD_LIMIT = 0.10      # max instrumentation overhead (on vs off arm)
EVENT_COUNT_DRIFT = 0.02       # max fractional drift of deterministic counts
RESILIENCE_REGRESSION = 0.20   # max fractional growth of E12's exposure window
FAILOVER_BLIND_RATIO = 0.20    # max standby blind window / crash blind window
STORM_MIN_ENFORCING_FRAC = 0.90  # min enforcing-alert fraction under shedding
E14_PEAK_BUFFER_LIMIT = 2048   # max stream-buffer records held during the outage
E15_MIN_SPEEDUP = 1.5          # min federated/single aggregate-throughput ratio
E15_GATE_DEVICES = 2000        # fleet size of the gate's single-vs-federated pair
E15_SITES = 4                  # federated sites (and worker processes) in the gate
OBS_PROFILE_FRAC = 0.10        # max share of hot-loop time in any obs frame
SWEEP = (10, 40, 80)           # E9 device counts measured by the gate
REPEATS = 5                    # best-of-N wall-clock estimator per data point
DETERMINISTIC_KEYS = ("events", "pipeline_rounds", "pipeline_applies")
E12_DETERMINISTIC_KEYS = ("attack_attempts", "attack_successes", "events")
E13_DETERMINISTIC_KEYS = ("attack_attempts", "blind_window_s", "events")
E14_DETERMINISTIC_KEYS = (
    "emitted",
    "received",
    "telemetry_loss",
    "delivered",
    "peak_depth",
    "events",
)
E16_DETERMINISTIC_KEYS = ("campaigns", "recall", "containment_breaches")
E15_DETERMINISTIC_KEYS = (
    "events",
    "attacks_launched",
    "attacks_blocked",
    "enforcement_gaps",
    "signatures_propagated",
    "dlq_quarantined",
    "autonomy_enters",
    "autonomy_exits",
    "out_of_order",
    "pending_after",
)

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
TRAJECTORY_PATH = BENCH_DIR.parent / "BENCH_TRAJECTORY.json"
SPILL_SAMPLE_PATH = RESULTS_DIR / "journal_spill_sample.jsonl"
DLQ_SAMPLE_PATH = RESULTS_DIR / "dlq_sample.jsonl"
HEALTH_SNAPSHOT_PATH = RESULTS_DIR / "health_snapshot.json"
FEDERATION_SNAPSHOT_PATH = RESULTS_DIR / "federation_snapshot.json"
CAMPAIGN_SCORECARD_PATH = RESULTS_DIR / "campaign_scorecard.json"

E9_BASELINE = RESULTS_DIR / "test_e9_whole_stack_scale.json"
E9_SMALL_BASELINE = RESULTS_DIR / "test_e9_small_core_capacity.json"
OVERHEAD_BASELINE = RESULTS_DIR / "test_obs_overhead.json"
E12_BASELINE = RESULTS_DIR / "test_e12_resilience.json"
E13_BASELINE = RESULTS_DIR / "test_e13_controller_ha.json"
E14_BASELINE = RESULTS_DIR / "test_e14_durable_telemetry.json"
E15_BASELINE = RESULTS_DIR / "test_e15_federation.json"
E16_BASELINE = RESULTS_DIR / "test_e16_campaign_scorecard.json"


def _threshold(env: str, default: float) -> float:
    return float(os.environ.get(env, default))


# ---------------------------------------------------------------------------
# The pure gate
# ---------------------------------------------------------------------------
def _drift(
    label: str,
    keys: tuple[str, ...],
    committed: dict[str, Any] | None,
    current: dict[str, Any] | None,
    allowed: float,
) -> list[str]:
    """Violations for deterministic counters that moved more than ``allowed``.

    Keys missing on either side are skipped, like a missing arm.
    """
    if not committed or not current:
        return []
    violations = []
    for key in keys:
        if key not in committed or key not in current:
            continue
        b, c = committed[key], current[key]
        if abs(c - b) > allowed * max(abs(b), 1):
            violations.append(
                f"{label}: deterministic counter {key} drifted "
                f"{b} -> {c} (allowed {allowed:.0%}); "
                "a behavior change must re-record the baselines"
            )
    return violations


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    throughput_regression: float | None = None,
    obs_overhead_limit: float | None = None,
    event_count_drift: float | None = None,
    resilience_regression: float | None = None,
    failover_blind_ratio: float | None = None,
    storm_min_enforcing_frac: float | None = None,
    obs_profile_frac: float | None = None,
    e14_peak_buffer_limit: float | None = None,
    e15_min_speedup: float | None = None,
) -> list[str]:
    """Return the list of violations of ``current`` against ``baseline``.

    Both are plain dicts: ``{"e9": [sweep rows], "obs_overhead": float,
    "e12": {"baseline": {...}, "resilient": {...}},
    "e13": {"failover": {"crash": {...}, "standby": {...}},
    "storm": {"fifo": {...}, "shed": {...}}}}``.
    Sweep rows join on their ``devices`` value; sizes present in only one
    side are skipped (the gate never fails on missing data -- a vanished
    baseline is a repo problem, not a perf regression).
    """
    if throughput_regression is None:
        throughput_regression = _threshold(
            "REPRO_REGRESSION_THROUGHPUT", THROUGHPUT_REGRESSION
        )
    if obs_overhead_limit is None:
        obs_overhead_limit = _threshold(
            "REPRO_OBS_OVERHEAD_THRESHOLD", OBS_OVERHEAD_LIMIT
        )
    if event_count_drift is None:
        event_count_drift = _threshold(
            "REPRO_REGRESSION_COUNT_DRIFT", EVENT_COUNT_DRIFT
        )
    if resilience_regression is None:
        resilience_regression = _threshold(
            "REPRO_REGRESSION_RESILIENCE", RESILIENCE_REGRESSION
        )
    if failover_blind_ratio is None:
        failover_blind_ratio = _threshold(
            "REPRO_REGRESSION_FAILOVER_RATIO", FAILOVER_BLIND_RATIO
        )
    if storm_min_enforcing_frac is None:
        storm_min_enforcing_frac = _threshold(
            "REPRO_REGRESSION_STORM_FRAC", STORM_MIN_ENFORCING_FRAC
        )
    if obs_profile_frac is None:
        obs_profile_frac = _threshold("REPRO_OBS_PROFILE_FRAC", OBS_PROFILE_FRAC)
    if e14_peak_buffer_limit is None:
        e14_peak_buffer_limit = _threshold(
            "REPRO_E14_PEAK_BUFFER", E14_PEAK_BUFFER_LIMIT
        )
    if e15_min_speedup is None:
        e15_min_speedup = _threshold("REPRO_E15_GATE_SPEEDUP", E15_MIN_SPEEDUP)

    violations: list[str] = []
    base_rows = {row["devices"]: row for row in baseline.get("e9", ())}
    for row in current.get("e9", ()):
        base = base_rows.get(row["devices"])
        if base is None:
            continue
        label = f"e9@{row['devices']}dev"
        if base.get("events_per_s", 0) > 0:
            drop = 1.0 - row["events_per_s"] / base["events_per_s"]
            if drop > throughput_regression:
                violations.append(
                    f"{label}: throughput dropped {drop:.1%} "
                    f"({base['events_per_s']:,.0f} -> {row['events_per_s']:,.0f} "
                    f"events/s, limit {throughput_regression:.0%})"
                )
        violations += _drift(label, DETERMINISTIC_KEYS, base, row, event_count_drift)

    # E9-small: the event-loop core probe, gated like the sweep rows
    # (baseline-relative throughput plus exact deterministic event count).
    small = current.get("e9_small")
    base_small = baseline.get("e9_small")
    if small and base_small:
        if base_small.get("events_per_s", 0) > 0:
            drop = 1.0 - small["events_per_s"] / base_small["events_per_s"]
            if drop > throughput_regression:
                violations.append(
                    f"e9-small: core capacity dropped {drop:.1%} "
                    f"({base_small['events_per_s']:,.0f} -> "
                    f"{small['events_per_s']:,.0f} events/s, "
                    f"limit {throughput_regression:.0%})"
                )
        if "events" in base_small and small.get("events") != base_small["events"]:
            violations.append(
                f"e9-small: deterministic event count drifted "
                f"{base_small['events']} -> {small.get('events')}; "
                "a behavior change must re-record the baselines"
            )

    overhead = current.get("obs_overhead")
    if overhead is not None and overhead > obs_overhead_limit:
        violations.append(
            f"obs-overhead: instrumentation costs {overhead:.1%} of "
            f"throughput (limit {obs_overhead_limit:.0%})"
        )

    # cProfile smoke: instrumentation must stay amortized -- no single
    # obs frame may own more than ``obs_profile_frac`` of hot-loop time.
    profile = current.get("obs_profile")
    if profile and profile.get("max_frac", 0.0) > obs_profile_frac:
        violations.append(
            f"obs-profile: frame {profile.get('max_frame')} owns "
            f"{profile['max_frac']:.1%} of hot-loop time "
            f"(limit {obs_profile_frac:.0%}); a per-event cost snuck "
            "back into the observability layer"
        )

    # E12: the resilience property itself (the resilient arm must bound
    # the exposure window strictly below the no-resilience arm), plus a
    # pinned ceiling on how far the resilient window may grow versus the
    # committed numbers.  All sim-time, so machine-independent.
    e12 = current.get("e12") or {}
    e12_base = baseline.get("e12") or {}
    cur_res, cur_none = e12.get("resilient"), e12.get("baseline")
    if cur_res and cur_none:
        if cur_res["exposure_s"] >= cur_none["exposure_s"]:
            violations.append(
                f"e12: resilience no longer bounds the exposure window "
                f"({cur_res['exposure_s']}s resilient vs "
                f"{cur_none['exposure_s']}s without)"
            )
        committed = e12_base.get("resilient") or {}
        if committed.get("exposure_s", 0) > 0:
            growth = cur_res["exposure_s"] / committed["exposure_s"] - 1.0
            if growth > resilience_regression:
                violations.append(
                    f"e12: resilient exposure window grew {growth:.1%} "
                    f"({committed['exposure_s']}s -> {cur_res['exposure_s']}s, "
                    f"limit {resilience_regression:.0%})"
                )
        for arm, committed_arm in e12_base.items():
            violations += _drift(
                f"e12/{arm}", E12_DETERMINISTIC_KEYS, committed_arm,
                e12.get(arm), event_count_drift,
            )

    # E13: controller survivability.  Hard property gates first (ratios
    # are pinned thresholds, not baseline-relative -- these are the
    # issue's acceptance criteria), then determinism drift per arm.
    e13 = current.get("e13") or {}
    e13_base = baseline.get("e13") or {}
    failover = e13.get("failover") or {}
    crash, standby = failover.get("crash"), failover.get("standby")
    if crash and standby and crash.get("blind_window_s", 0) > 0:
        ratio = standby["blind_window_s"] / crash["blind_window_s"]
        if ratio > failover_blind_ratio:
            violations.append(
                f"e13: failover blind window is {ratio:.1%} of the "
                f"cold-restart window ({standby['blind_window_s']}s vs "
                f"{crash['blind_window_s']}s, limit {failover_blind_ratio:.0%})"
            )
    shed = (e13.get("storm") or {}).get("shed")
    if shed and shed.get("enforcing_processed_frac") is not None:
        frac = shed["enforcing_processed_frac"]
        if frac < storm_min_enforcing_frac:
            violations.append(
                f"e13: shedding processed only {frac:.1%} of enforcing "
                f"alerts under the storm (floor {storm_min_enforcing_frac:.0%})"
            )
    for group in ("failover", "storm"):
        for arm, committed_arm in (e13_base.get(group) or {}).items():
            violations += _drift(
                f"e13/{group}/{arm}", E13_DETERMINISTIC_KEYS, committed_arm,
                (e13.get(group) or {}).get(arm), event_count_drift,
            )

    # E14: telemetry durability.  Zero loss is an absolute property, not a
    # baseline delta: any record the durable plane emitted but never
    # processed is a bug.  The peak-depth ceiling pins bounded memory, and
    # the lossy arm must keep *showing* loss -- if it stops, the scenario
    # no longer exercises the partition the durable plane exists for.
    e14 = current.get("e14") or {}
    e14_base = baseline.get("e14") or {}
    durable, lossy = e14.get("durable"), e14.get("lossy")
    if durable:
        if durable.get("telemetry_loss", 0) != 0:
            violations.append(
                f"e14: durable arm lost {durable['telemetry_loss']} records "
                "across the partition (must be exactly 0)"
            )
        if durable.get("peak_depth", 0) > e14_peak_buffer_limit:
            violations.append(
                f"e14: stream buffer peaked at {durable['peak_depth']} records "
                f"(ceiling {e14_peak_buffer_limit:.0f}); the outage no longer "
                "fits the pinned memory budget"
            )
    if lossy and lossy.get("telemetry_loss", 1) <= 0:
        violations.append(
            "e14: the lossy arm shows no telemetry loss -- the partition "
            "scenario stopped exercising the failure the durable plane "
            "is gated on"
        )
    for arm, committed_arm in e14_base.items():
        violations += _drift(
            f"e14/{arm}", E14_DETERMINISTIC_KEYS, committed_arm, e14.get(arm),
            event_count_drift,
        )

    # E15: the federated control plane.  The gate pair's speedup is a
    # pinned ratio of two same-machine wall clocks, so it gates without a
    # committed baseline; the blackout scenario's properties are absolute
    # (zero enforcement gaps is the federation's E14-style hard gate) and
    # its counters are sim-deterministic, so they drift-check against the
    # committed bench results.
    e15 = current.get("e15") or {}
    e15_base = baseline.get("e15") or {}
    pair = e15.get("pair")
    if pair:
        if pair.get("speedup", 0.0) < e15_min_speedup:
            violations.append(
                f"e15: federated aggregate throughput is only "
                f"{pair.get('speedup', 0.0):.2f}x the single-site arm at "
                f"{pair.get('devices')} devices (floor {e15_min_speedup}x)"
            )
        if pair.get("compromised", 0) != 0:
            violations.append(
                f"e15: {pair['compromised']} device(s) compromised in the "
                "scale pair (must be 0 -- sharding broke enforcement)"
            )
    blackout = e15.get("blackout")
    if blackout:
        if blackout.get("enforcement_gaps", 1) != 0:
            violations.append(
                f"e15: {blackout.get('enforcement_gaps')} enforcement gap(s) "
                "during the coordinator blackout (must be exactly 0 -- sites "
                "stopped enforcing on cached policy): "
                f"{blackout.get('gap_details', '')}"
            )
        if not blackout.get("converged", False):
            violations.append(
                "e15: the federation did not reconverge after the blackout "
                "heal -- a site's replay cursor is wedged"
            )
        if blackout.get("out_of_order", 1) != 0:
            violations.append(
                f"e15: {blackout.get('out_of_order')} out-of-order signature "
                "update(s) observed (the versioned replay contract is broken)"
            )
        if blackout.get("dlq_quarantined", 0) < 1:
            violations.append(
                "e15: the poisoned signature report was not quarantined -- "
                "repository validation regressed"
            )
        violations += _drift(
            "e15/blackout", E15_DETERMINISTIC_KEYS, e15_base.get("blackout"),
            blackout, event_count_drift,
        )

    # E16: the adversarial campaign corpus.  Containment on the enforcing
    # classes is an absolute property (like E14's zero loss): a campaign
    # the defense is pinned to contain that ends uncontained is a bug,
    # not a drift.  The fabric-degradation class is gated on *evidence*
    # that the degradation really happened (stolen packets, outages,
    # re-pins, a burn-rate breach) -- a fabric campaign that stops
    # degrading anything is a scenario regression.  Per-class recall
    # drift-checks against the committed bench numbers.
    e16 = current.get("e16") or {}
    e16_base = baseline.get("e16") or {}
    e16_summary = e16.get("summary") or {}
    if e16_summary:
        missed = e16_summary.get("enforcing_misses", [])
        if missed:
            violations.append(
                f"e16: enforcing-class campaign(s) left {', '.join(missed)} "
                "uncontained (must be zero containment misses)"
            )
        evidence = e16_summary.get("fabric_evidence") or {}
        if not evidence.get("fabric_degraded", False):
            violations.append(
                "e16: no fabric-degradation campaign stole any packets -- "
                "the compromised-switch scenarios stopped degrading the fabric"
            )
        if evidence.get("outages", 0) < 1 or evidence.get("repins", 0) < 1:
            violations.append(
                f"e16: fabric class shows {evidence.get('outages', 0)} "
                f"outage(s) / {evidence.get('repins', 0)} re-pin(s) "
                "(needs >= 1 of each -- the µmbox-outage campaign went inert)"
            )
        if evidence.get("containment_breaches", 0) < 1:
            violations.append(
                "e16: no campaign-containment burn-rate breach fired -- a "
                "degraded-fabric miss would be silent (SLO fold-in regressed)"
            )
    for name, committed_cls in (e16_base.get("classes") or {}).items():
        violations += _drift(
            f"e16/{name}", E16_DETERMINISTIC_KEYS, committed_cls,
            (e16.get("classes") or {}).get(name), event_count_drift,
        )

    # Health/SLO plane: properties of the current run only (both health
    # scenarios are deterministic sim-time runs, so there is no committed
    # baseline to drift against).  The standard seeded run must come up
    # all-green, and the chaos plan must both trip a burn-rate breach and
    # journal a recovery carrying the same trace id -- if either side
    # fails, the SLO detectors (or the breach->recover chain the incident
    # reconstructor walks) regressed.
    health = current.get("health") or {}
    steady = health.get("steady") or {}
    if steady:
        if steady.get("rollup") != "ok":
            violations.append(
                f"health/steady: deployment rollup is "
                f"{steady.get('rollup')!r} on the standard seeded run "
                "(must be 'ok' -- a fault-free deployment reports sick)"
            )
        if steady.get("slo_breaches", 0) != 0:
            violations.append(
                f"health/steady: {steady.get('slo_breaches')} SLO "
                "breach(es) fired on the standard seeded run (must be 0; "
                "a burn-rate detector went trigger-happy)"
            )
    chaos = health.get("chaos") or {}
    if chaos:
        if chaos.get("slo_breaches", 0) < 1:
            violations.append(
                "health/chaos: the chaos plan tripped no SLO breach -- "
                "burn-rate detection went blind to a partition it is "
                "pinned to catch"
            )
        elif chaos.get("matched_recoveries", 0) < 1:
            violations.append(
                "health/chaos: no slo-recover shares its breach's trace "
                "id -- the journaled breach->recover chain is broken"
            )
    return violations


def append_trajectory(
    entry: dict[str, Any], path: Path | str = TRAJECTORY_PATH
) -> list[dict[str, Any]]:
    """Append one run's entry to the trajectory file; returns the history."""
    path = Path(path)
    history: list[dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                history = loaded
        except (OSError, ValueError):
            pass
    history.append(entry)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return history


def load_baseline() -> dict[str, Any]:
    """The committed numbers this run is gated against."""
    baseline: dict[str, Any] = {
        "e9": [],
        "e9_small": None,
        "obs_overhead": None,
        "e12": {},
        "e13": {},
        "e14": {},
        "e15": {},
        "e16": {},
    }
    if E9_BASELINE.exists():
        baseline["e9"] = json.loads(E9_BASELINE.read_text()).get("sweep", [])
    if E9_SMALL_BASELINE.exists():
        baseline["e9_small"] = json.loads(E9_SMALL_BASELINE.read_text()).get("small")
    if OVERHEAD_BASELINE.exists():
        overhead = json.loads(OVERHEAD_BASELINE.read_text()).get("overhead", {})
        baseline["obs_overhead"] = overhead.get("overhead")
    if E12_BASELINE.exists():
        baseline["e12"] = json.loads(E12_BASELINE.read_text()).get("arms", {})
    if E13_BASELINE.exists():
        baseline["e13"] = json.loads(E13_BASELINE.read_text()).get("arms", {})
    if E14_BASELINE.exists():
        baseline["e14"] = json.loads(E14_BASELINE.read_text()).get("arms", {})
    if E15_BASELINE.exists():
        data = json.loads(E15_BASELINE.read_text())
        baseline["e15"] = {"blackout": data.get("blackout") or {}}
    if E16_BASELINE.exists():
        baseline["e16"] = json.loads(E16_BASELINE.read_text()).get("scorecard", {})
    return baseline


# ---------------------------------------------------------------------------
# Measurement (lazy bench imports so the pure gate is importable anywhere)
# ---------------------------------------------------------------------------
def profile_obs_share() -> dict[str, Any]:
    """cProfile smoke over one E9 run: the observability layer's share.

    Profiles a small whole-stack run and reports, for every frame whose
    code lives under ``repro/obs``, its *own* (tottime) share of the
    hot-loop total.  The amortized-telemetry contract says instrumentation
    rides the hot path as plain attribute adds and buffered appends, so no
    single obs frame may exceed ``OBS_PROFILE_FRAC`` of the run -- if one
    does, a per-event cost snuck back in (e.g. an eager gauge evaluation
    or a per-record flush) and the gate fails.
    """
    import cProfile
    import pstats

    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    from bench_e9_scale import run_scale

    profiler = cProfile.Profile()
    profiler.enable()
    run_scale(SWEEP[0]).pop("sim")
    profiler.disable()

    stats = pstats.Stats(profiler)
    sep = os.sep
    obs_marker = f"{sep}repro{sep}obs{sep}"
    total = 0.0
    obs_frames: dict[str, float] = {}
    for (filename, lineno, funcname), (
        __cc,
        __nc,
        tottime,
        __ct,
        __callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        total += tottime
        if obs_marker in filename:
            frame = f"{Path(filename).name}:{lineno}({funcname})"
            obs_frames[frame] = obs_frames.get(frame, 0.0) + tottime
    if total <= 0.0:
        return {"max_frame": None, "max_frac": 0.0, "frames": {}}
    shares = {
        frame: tottime / total for frame, tottime in sorted(
            obs_frames.items(), key=lambda kv: kv[1], reverse=True
        )
    }
    max_frame = next(iter(shares), None)
    return {
        "max_frame": max_frame,
        "max_frac": shares.get(max_frame, 0.0) if max_frame else 0.0,
        "frames": dict(list(shares.items())[:10]),
    }


def measure() -> dict[str, Any]:
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    from bench_e12_resilience import run_arms
    from bench_e13_controller_ha import run_arms as run_ha_arms
    from bench_e14_durable_telemetry import run_arms as run_durable_arms
    from bench_e9_scale import run_scale, run_small
    from bench_obs_overhead import measure_overhead

    current: dict[str, Any] = {"e9": []}
    spill_sim = None
    run_scale(SWEEP[0]).pop("sim")  # warmup: import costs, branch caches
    for n in SWEEP:
        # Best-of-N: wall-clock noise only ever makes a run look slower,
        # so the max over repeats estimates true throughput (the small
        # sweep sizes finish in milliseconds and are otherwise dominated
        # by scheduler/caching noise).
        rows = [run_scale(n) for _ in range(REPEATS)]
        for row in rows:
            spill_sim = row.pop("sim")
        current["e9"].append(max(rows, key=lambda r: r["events_per_s"]))

    # E9-small: the event-loop core capacity probe (best-of-N).
    small_rows = [run_small() for _ in range(REPEATS)]
    current["e9_small"] = max(small_rows, key=lambda r: r["events_per_s"])

    # Warmed interleaved best-of-N pairs, shared with the overhead bench
    # (one estimator, one definition of "overhead" everywhere).
    estimate = measure_overhead(repeats=REPEATS)
    current["obs_overhead"] = estimate["overhead"]
    current["journal_recorded"] = estimate["on"]["journal"]

    # cProfile smoke: no single obs-layer frame may dominate the hot loop.
    current["obs_profile"] = profile_obs_share()

    # E12/E13/E14 are deterministic (sim-time only): one run is the number.
    current["e12"] = {row["arm"]: row for row in run_arms()}
    ha = run_ha_arms()
    current["e13"] = {
        group: {row["arm"]: row for row in rows} for group, rows in ha.items()
    }
    # E14 also exports the durable arm's dead-letter queue as a CI
    # artifact alongside the journal sample below.
    RESULTS_DIR.mkdir(exist_ok=True)
    current["e14"] = {
        row["arm"]: row for row in run_durable_arms(str(DLQ_SAMPLE_PATH))
    }

    # Health/SLO verdicts (also deterministic): the all-green steady run
    # and the chaos plan with its journaled breach->recover chains.  The
    # full summaries ship as a CI artifact; the gate reads the compact
    # verdict fields.
    from repro.faults.scenario import run_health_scenario

    steady = run_health_scenario("none")
    chaos = run_health_scenario("standard")
    current["health"] = {
        "steady": {
            k: steady.get(k)
            for k in (
                "plan",
                "rollup",
                "slo_breaches",
                "slo_recoveries",
                "health_transitions",
                "events",
            )
        },
        "chaos": {
            k: chaos.get(k)
            for k in (
                "plan",
                "rollup",
                "slo_breaches",
                "slo_recoveries",
                "matched_recoveries",
                "health_transitions",
                "events",
            )
        },
    }
    HEALTH_SNAPSHOT_PATH.write_text(
        json.dumps({"steady": steady, "chaos": chaos}, indent=2, sort_keys=True)
        + "\n"
    )

    # E16: the campaign corpus (also deterministic sim-time).  The gate
    # reads the compact per-class rollups; the full scorecard -- every
    # per-campaign result, digests included -- ships as a CI artifact.
    from bench_e16_campaigns import compact, run_scorecard

    scorecard = run_scorecard()
    current["e16"] = compact(scorecard)
    CAMPAIGN_SCORECARD_PATH.write_text(
        json.dumps(scorecard, indent=2, sort_keys=True, default=str) + "\n"
    )

    # E15: the federation gate pair (small fleet, same definition as the
    # full bench) plus the deterministic coordinator-blackout scenario.
    # The whole section ships as a CI artifact.
    from bench_e15_federation import run_pair
    from repro.faults.scenario import run_federation_blackout_scenario

    current["e15"] = {
        "pair": run_pair(E15_GATE_DEVICES, sites=E15_SITES, workers=E15_SITES),
        "blackout": run_federation_blackout_scenario(sites=E15_SITES),
    }
    FEDERATION_SNAPSHOT_PATH.write_text(
        json.dumps(current["e15"], indent=2, sort_keys=True) + "\n"
    )

    # CI artifact: a journal sample from the largest E9 run, so every
    # pipeline run leaves an inspectable flight-recorder dump behind.
    if spill_sim is not None:
        current["journal_sample_entries"] = spill_sim.journal.export_jsonl(
            str(SPILL_SAMPLE_PATH)
        )
    return current


def record_baselines(current: dict[str, Any]) -> list[Path]:
    """Refresh the committed wall-clock baselines from ``current``.

    Updates only the measurement sections (``sweep`` / ``small`` /
    ``overhead``) in place, preserving any other keys the pytest benches
    recorded (e.g. the E9 metrics snapshot), so a ``--record`` run and a
    bench run stay mergeable.
    """
    import datetime

    stamp = {
        "git_sha": _git_sha(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    written: list[Path] = []

    def _update(path: Path, benchmark: str, key: str, value: Any) -> None:
        data: dict[str, Any] = {"benchmark": benchmark}
        if path.exists():
            try:
                data = json.loads(path.read_text())
            except ValueError:
                pass
        data.update(stamp)
        data[key] = value
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        written.append(path)

    _update(E9_BASELINE, "test_e9_whole_stack_scale", "sweep", current["e9"])
    _update(
        E9_SMALL_BASELINE,
        "test_e9_small_core_capacity",
        "small",
        {
            k: current["e9_small"][k]
            for k in ("events", "run_s", "events_per_s")
            if k in current.get("e9_small", {})
        },
    )
    overhead_value = None
    if OVERHEAD_BASELINE.exists():
        try:
            overhead_value = json.loads(OVERHEAD_BASELINE.read_text()).get("overhead")
        except ValueError:
            pass
    if not isinstance(overhead_value, dict):
        overhead_value = {}
    overhead_value["overhead"] = current["obs_overhead"]
    _update(OVERHEAD_BASELINE, "test_obs_overhead", "overhead", overhead_value)
    return written


def _git_sha() -> str:
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    from _util import _git_sha as util_git_sha

    return util_git_sha()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--record",
        action="store_true",
        help="refresh the committed wall-clock baselines from this run",
    )
    args = parser.parse_args(argv)

    current = measure()
    if args.record:
        for path in record_baselines(current):
            print(f"recorded baseline: {path}")
    baseline = load_baseline()
    violations = compare(current, baseline)

    import datetime

    entry = {
        "git_sha": _git_sha(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "e9": [
            {k: row[k] for k in ("devices", "events", "events_per_s") if k in row}
            for row in current["e9"]
        ],
        "e9_small": {
            k: current["e9_small"][k]
            for k in ("events", "events_per_s")
            if k in current.get("e9_small", {})
        },
        "obs_overhead": current["obs_overhead"],
        "obs_profile_max_frac": current.get("obs_profile", {}).get("max_frac"),
        "e12_exposure_s": {
            arm: row["exposure_s"] for arm, row in current.get("e12", {}).items()
        },
        "e13_blind_window_s": {
            arm: row["blind_window_s"]
            for arm, row in current.get("e13", {}).get("failover", {}).items()
        },
        "e13_enforcing_frac": {
            arm: row["enforcing_processed_frac"]
            for arm, row in current.get("e13", {}).get("storm", {}).items()
        },
        "e14_telemetry_loss": {
            arm: row["telemetry_loss"] for arm, row in current.get("e14", {}).items()
        },
        "e14_peak_depth": current.get("e14", {}).get("durable", {}).get("peak_depth"),
        "e15_speedup": current.get("e15", {}).get("pair", {}).get("speedup"),
        "e15_enforcement_gaps": (
            current.get("e15", {}).get("blackout", {}).get("enforcement_gaps")
        ),
        "e15_signatures_propagated": (
            current.get("e15", {}).get("blackout", {}).get("signatures_propagated")
        ),
        "e15_propagation_lag_s": (
            current.get("e15", {}).get("blackout", {}).get("propagation_lag_v1")
        ),
        "e16_campaigns": (
            current.get("e16", {}).get("summary", {}).get("campaigns")
        ),
        "e16_enforcing_misses": (
            current.get("e16", {}).get("summary", {}).get("enforcing_misses")
        ),
        "e16_recall": {
            name: rollup.get("recall")
            for name, rollup in current.get("e16", {}).get("classes", {}).items()
        },
        "health_steady_rollup": (
            current.get("health", {}).get("steady", {}).get("rollup")
        ),
        "health_chaos_breaches": (
            current.get("health", {}).get("chaos", {}).get("slo_breaches")
        ),
        "health_chaos_matched": (
            current.get("health", {}).get("chaos", {}).get("matched_recoveries")
        ),
        "violations": violations,
    }
    append_trajectory(entry)

    if args.json:
        print(json.dumps({"current": current, "violations": violations}, indent=2))
    else:
        for row in current["e9"]:
            print(
                f"e9@{row['devices']}dev: {row['events_per_s']:,.0f} events/s "
                f"({row['events']:,} sim events, {row['pipeline_rounds']} rounds)"
            )
        small = current.get("e9_small") or {}
        if small:
            print(
                f"e9-small (event-loop core): {small['events_per_s']:,.0f} "
                f"events/s ({small['events']:,} sim events)"
            )
        print(f"obs overhead: {current['obs_overhead']:.1%}")
        profile = current.get("obs_profile") or {}
        if profile.get("max_frame"):
            print(
                f"obs profile: hottest obs frame {profile['max_frame']} at "
                f"{profile['max_frac']:.1%} of hot-loop time"
            )
        if current.get("e12"):
            windows = " vs ".join(
                f"{arm}={row['exposure_s']}s" for arm, row in current["e12"].items()
            )
            print(f"e12 exposure window: {windows}")
        if current.get("e13"):
            blind = " vs ".join(
                f"{arm}={row['blind_window_s']}s"
                for arm, row in current["e13"].get("failover", {}).items()
            )
            frac = " vs ".join(
                f"{arm}={row['enforcing_processed_frac']:.1%}"
                for arm, row in current["e13"].get("storm", {}).items()
            )
            print(f"e13 blind window: {blind}; enforcing kept: {frac}")
        if current.get("e14"):
            loss = " vs ".join(
                f"{arm}={row['telemetry_loss']}"
                for arm, row in current["e14"].items()
            )
            durable_row = current["e14"].get("durable", {})
            print(
                f"e14 telemetry loss: {loss}; peak buffer depth "
                f"{durable_row.get('peak_depth')} "
                f"(dlq sample -> {DLQ_SAMPLE_PATH})"
            )
        e15 = current.get("e15") or {}
        if e15:
            pair = e15.get("pair") or {}
            blackout = e15.get("blackout") or {}
            print(
                f"e15 federation: {pair.get('speedup', 0.0):.2f}x aggregate "
                f"speedup at {pair.get('devices')} devices ({pair.get('mode')}); "
                f"blackout gaps={blackout.get('enforcement_gaps')} "
                f"lag={blackout.get('propagation_lag_v1')}s "
                f"(snapshot -> {FEDERATION_SNAPSHOT_PATH})"
            )
        e16 = current.get("e16") or {}
        if e16:
            summary = e16.get("summary") or {}
            evidence = summary.get("fabric_evidence") or {}
            recalls = ", ".join(
                f"{name}={rollup.get('recall'):.2f}"
                for name, rollup in (e16.get("classes") or {}).items()
            )
            print(
                f"e16 campaigns: {summary.get('campaigns')} run, enforcing "
                f"misses={summary.get('enforcing_misses')}; fabric outages="
                f"{evidence.get('outages')} repins={evidence.get('repins')} "
                f"breaches={evidence.get('containment_breaches')}; recall "
                f"{recalls} (scorecard -> {CAMPAIGN_SCORECARD_PATH})"
            )
        health = current.get("health") or {}
        if health:
            steady_h = health.get("steady") or {}
            chaos_h = health.get("chaos") or {}
            print(
                f"health: steady rollup={steady_h.get('rollup')} "
                f"(breaches {steady_h.get('slo_breaches')}); chaos "
                f"breaches={chaos_h.get('slo_breaches')} "
                f"matched recoveries={chaos_h.get('matched_recoveries')} "
                f"(snapshot -> {HEALTH_SNAPSHOT_PATH})"
            )
        print(f"trajectory: appended to {TRAJECTORY_PATH}")
        if current.get("journal_sample_entries") is not None:
            print(
                f"journal sample: {current['journal_sample_entries']} entries "
                f"-> {SPILL_SAMPLE_PATH}"
            )
        if violations:
            print("\nREGRESSIONS DETECTED:")
            for violation in violations:
                print(f"  - {violation}")
        else:
            print("no regressions against committed baselines")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
