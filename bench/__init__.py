"""The repo benchmark: five workloads driven through the public APIs of
``repro.serving``, ``repro.plan`` and ``repro.ckks`` (see ``README.md``
beside this file and ``BENCHMARK.json`` at the repo root)."""
