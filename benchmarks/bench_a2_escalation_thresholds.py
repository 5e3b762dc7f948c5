"""Ablation A2: context-escalation threshold tuning.

The controller turns alert streams into security contexts through
threshold rules ("N login attempts within W seconds -> suspicious").
The tradeoff:

- too aggressive, and a fat-fingered owner locks themselves out
  (false-positive escalation);
- too lax, and the brute-forcer gets more dictionary words in before the
  firewall slams (attacker budget).

We sweep the login-attempt threshold and measure both sides against the
same home: an owner who mistypes twice before getting it right, and a
10 req/s brute forcer.
"""

from __future__ import annotations

from _util import print_table, record

from repro.attacks.exploits import BruteForceLogin
from repro.core.controller import DEFAULT_ESCALATIONS, EscalationRule
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import window_actuator
from repro.policy.context import SUSPICIOUS


def escalations_with_threshold(n: int) -> tuple[EscalationRule, ...]:
    rules = [r for r in DEFAULT_ESCALATIONS if r.alert_kind != "login-attempt"]
    rules.append(EscalationRule("login-attempt", SUSPICIOUS, count=n, window=30.0))
    return tuple(rules)


def run_threshold(threshold: int) -> dict:
    # --- arm 1: clumsy but legitimate owner -------------------------------
    escalations = escalations_with_threshold(threshold)
    dep = SecuredDeployment.build(escalations=escalations)
    win = dep.add_device(window_actuator, "window")
    owner = dep.add_attacker("owner_phone", latency=0.005)
    dep.finalize()
    dep.secure(
        "window",
        build_recommended_posture("monitor", "window", sku=win.sku),
        pin=False,
    )
    outcomes = []
    for i, password in enumerate(["window-pss", "windw-pass", "window-pass"]):
        dep.sim.schedule(
            1.0 + i * 2.0,
            lambda p=password: owner.request(
                protocol.login("owner_phone", "window", "admin", p),
                lambda rep: outcomes.append(protocol.is_ok(rep)),
            ),
        )
    dep.run(until=30.0)
    owner_locked_out = not any(outcomes)
    owner_flagged = dep.controller.context_of("window") == SUSPICIOUS

    # --- arm 2: brute forcer ----------------------------------------------
    dep2 = SecuredDeployment.build(escalations=escalations)
    win2 = dep2.add_device(window_actuator, "window")
    attacker = dep2.add_attacker()
    dep2.finalize()
    dep2.secure(
        "window",
        build_recommended_posture("monitor", "window", sku=win2.sku),
        pin=False,
    )
    result = BruteForceLogin(rate=10.0).launch(attacker, "window", dep2.sim, command="open")
    dep2.run(until=60.0)
    attempts_before_block = sum(1 for __t, src, __u, __ok in win2.login_log if src == "attacker")
    return {
        "threshold": threshold,
        "owner_locked_out": owner_locked_out,
        "owner_flagged": owner_flagged,
        "brute_force_won": result.succeeded and win2.state == "open",
        "attempts_landed": attempts_before_block,
    }


def test_a2_escalation_threshold_sweep(scenario_benchmark):
    thresholds = [2, 3, 5, 8, 12, 20]

    def run_all():
        return [run_threshold(t) for t in thresholds]

    results = scenario_benchmark(run_all)

    print_table(
        "A2: login-attempt escalation threshold (owner mistypes twice; attacker at 10/s)",
        [
            "Threshold",
            "Owner locked out",
            "Owner flagged suspicious",
            "Brute force won",
            "Attacker attempts landed",
        ],
        [
            (
                r["threshold"],
                r["owner_locked_out"],
                r["owner_flagged"],
                r["brute_force_won"],
                r["attempts_landed"],
            )
            for r in results
        ],
    )
    record(scenario_benchmark, "sweep", results)

    by_threshold = {r["threshold"]: r for r in results}
    # too aggressive: the owner's two typos trip the escalation
    assert by_threshold[2]["owner_flagged"]
    # the shipped default (5) leaves the owner alone and stops the attack
    assert not by_threshold[5]["owner_locked_out"]
    assert not by_threshold[5]["owner_flagged"]
    assert not by_threshold[5]["brute_force_won"]
    # attacker budget grows monotonically with the threshold
    budgets = [r["attempts_landed"] for r in results]
    assert all(b <= c for b, c in zip(budgets, budgets[1:]))
    # far too lax: the dictionary wins before escalation
    assert by_threshold[20]["brute_force_won"]
