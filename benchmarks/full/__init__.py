"""The repository's benchmark: one seeded full-path scenario
(ingest -> lifecycle -> query -> gateway) with a per-layer waterfall.
``BENCHMARK.json`` at the repository root names its metrics; the README
beside this file explains them."""
