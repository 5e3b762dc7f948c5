"""Checked-in sim-clock reference for each workload.

The sim-clock metrics, the containment-miss list and the journal digest
are exact functions of a workload's inputs, and a pure speed-up leaves
them unchanged.  Every benchmark run starts with one repetition on its
workload's golden input (seed ``GOLDEN_SEED``), which doubles as the
warm-up, and compares what it did with ``golden.json`` as a counted
check.  A change in behaviour therefore fails the run on any commit, not
only between the repetitions of one run.

A change meant to alter what the modelled system does regenerates the
file from the repository root and says why:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_SEED = 0
PATH = Path(__file__).resolve().with_name("golden.json")


def load() -> dict:
    return json.loads(PATH.read_text()) if PATH.is_file() else {}


def _differences(got: dict, want: dict) -> str:
    keys = sorted(
        {f"sim.{k}" for k in {**got["sim"], **want.get("sim", {})}
         if got["sim"].get(k) != want.get("sim", {}).get(k)}
        | {k for k in ("digest", "misses") if got[k] != want.get(k)}
    )
    return "differs in " + ", ".join(keys)


def check(workload: str, checks) -> None:
    """Run the golden input once and compare it with ``golden.json``."""
    from perfbench.workloads import INPUTS, RUNNERS

    rep = RUNNERS[workload](INPUTS[workload](GOLDEN_SEED))
    checks.rep(rep)
    want = load().get(workload)
    got = rep.fingerprint()
    if want is None:
        checks.check("golden input matches golden.json", False, f"no entry for {workload}")
    else:
        checks.check("golden input matches golden.json", got == want,
                     _differences(got, want))


def write() -> dict:
    from perfbench.workloads import INPUTS, RUNNERS, WORKLOADS

    golden = {
        workload: RUNNERS[workload](INPUTS[workload](GOLDEN_SEED)).fingerprint()
        for workload in WORKLOADS
    }
    PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


if __name__ == "__main__":
    root = PATH.parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    for name, entry in write().items():
        print(f"{name}: digest {entry['digest']}, {len(entry['misses'])} misses")
    print(f"wrote {PATH.name}")
