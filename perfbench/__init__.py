"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and layer table are described in ``perfbench/README.md``.
"""
