"""Repository benchmark: seeded IoTSec workloads on a host clock and a sim clock.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
