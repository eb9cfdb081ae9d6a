"""Repository benchmark: end-to-end and per-layer performance of the
simulator, the campaign executor and the campaign service.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
