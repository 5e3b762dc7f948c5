"""E11 (extension): fleet immunity through real federation.

E3 models crowdsourcing's coverage race abstractly; this experiment runs
it for real.  Eight *actual* deployments share one simulator and one
signature repository.  Every site runs the same vulnerable camera SKU
behind a monitor posture with forensic capture.  An attacker sweeps the
fleet, one site every 30 seconds.

Site 0 falls -- no signature exists yet.  Its operator mines a signature
from the µmbox's packet capture (:mod:`repro.learning.traceminer`) and
publishes it.  The repository scrubs it, pushes it to every subscribed
site's live IDS, and every *later* site in the sweep shrugs the attack
off.  The no-sharing control arm loses the entire fleet.

Reported: per-site outcome timeline, time from first compromise to fleet
immunity, total sites lost per arm.
"""

from __future__ import annotations

from _util import print_table, record

from repro.core.fleet import run_fleet

N_SITES = 8


def test_e11_fleet_immunity(scenario_benchmark):
    def run_all():
        return [run_fleet(N_SITES, share=False), run_fleet(N_SITES, share=True)]

    isolated, federated = scenario_benchmark(run_all)

    print_table(
        "E11: an attacker sweeps 8 identical sites (one every 30 s)",
        ["Site", "Attacked at (s)", "Isolated arm", "Federated arm", "IDS hits (fed.)"],
        [
            (
                i,
                int(iso["attacked_at"]),
                "COMPROMISED" if iso["compromised"] else "safe",
                "COMPROMISED" if fed["compromised"] else "safe",
                fed["signature_hits"],
            )
            for i, (iso, fed) in enumerate(
                zip(isolated["outcomes"], federated["outcomes"])
            )
        ],
    )
    print_table(
        "E11: summary",
        ["Arm", "Sites lost", "Signatures published"],
        [
            (isolated["arm"], f"{isolated['lost']}/{N_SITES}", isolated["published"]),
            (federated["arm"], f"{federated['lost']}/{N_SITES}", federated["published"]),
        ],
    )
    record(scenario_benchmark, "isolated_lost", isolated["lost"])
    record(scenario_benchmark, "federated_lost", federated["lost"])

    # isolated: every site falls to the same exploit
    assert isolated["lost"] == N_SITES
    # federated: only the first victim falls; everyone after is immune
    assert federated["outcomes"][0]["compromised"]
    assert federated["lost"] == 1
    for outcome in federated["outcomes"][1:]:
        assert not outcome["compromised"]
        assert outcome["signature_hits"] >= 1
