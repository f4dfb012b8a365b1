"""The RESIN serving benchmark: seeded inputs, an HTTP load client, a
response oracle, an out-of-process server controller and a call tracer.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
