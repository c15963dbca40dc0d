PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-serving chaos equivalence lifecycle read-plane lineage lint lint-json obs-report

test:
	$(PYTHON) -m pytest -x -q

# Fault-injection suite: deterministic chaos plans (repro.faults) plus
# the crash/restart harness asserting Gold output is byte-identical to
# a fault-free run — see DESIGN.md §10.
chaos:
	$(PYTHON) -m pytest -x -q tests/faults tests/integration/test_crash_recovery.py

# Fast path vs. reference path: every fast-path decision follows the
# one switch, repro.perf.baseline_mode(), and the two paths answer the
# same bytes — framework windows (also with tracing and metrics off)
# and archive queries, the switch's depth counter from overlapping
# threads, batched vs. reference emission, the chunk memo, the
# estimator, factorize and the row-group cache — see DESIGN.md §8.
equivalence:
	$(PYTHON) -m pytest -x -q tests/core/test_parallel_equivalence.py \
		tests/core/test_race_fixes.py tests/telemetry/test_batch_emit.py \
		tests/columnar/test_encoding_memo.py tests/pipeline/test_factorize.py \
		tests/query/test_cache_equivalence.py

bench:
	$(PYTHON) -m pytest -q benchmarks/

# Tier lifecycle suite: crash-safe compaction commit protocol, the
# size-tiered suffix selector's property suite, sorted rewrites,
# demotion/freeze policies, pinned compaction work counters, the
# streaming merge against its whole-table oracle (byte identity, and
# what it holds under tracemalloc), the part table (every retire site
# drops everything derived from a part; the stamped listing against a
# fresh one; part numbering over reopened tiers), materialized Gold
# rollups, and the crash-mid-compaction chaos harness (single- and
# multi-generation) — see DESIGN.md §15.
lifecycle:
	$(PYTHON) -m pytest -x -q tests/storage/test_compaction.py \
		tests/storage/test_streaming_merge.py \
		tests/storage/test_part_table.py tests/storage/test_live_view.py \
		tests/storage/test_lifecycle.py tests/storage/test_rollup.py \
		tests/integration/test_lifecycle_chaos.py

# Read-plane suite: planner and scan soundness, the row-group cache
# (token index, frequency-gated admission pinned on trace replays,
# answers identical with the cache on and under baseline_mode()), raw
# PLAIN chunks read in
# place (views of the part, never cached), manifest pruning and
# manifests parsed once per part record, the part read handles (opened
# once, valid for their bytes, dropped on delete) with their pinned work
# counters, and
# LAKE segment coalescing against its piece-list oracle — see
# DESIGN.md §11.
read-plane:
	$(PYTHON) -m pytest -x -q tests/query/test_plan.py \
		tests/query/test_scan_soundness.py tests/query/test_cache.py \
		tests/query/test_cache_equivalence.py tests/query/test_raw_views.py \
		tests/storage/test_query_archive.py \
		tests/storage/test_part_handles.py tests/storage/test_manifest.py \
		tests/storage/test_lake.py

# Serving benchmark: seeded zipf multi-tenant load replayed against the
# gateway with the result cache on/off across offered-QPS levels; finds
# the admission knee and the cached p50/p99 speedup — see DESIGN.md §16.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

# Bytecode compile catches syntax errors in cold paths; repro.analysis
# then enforces the repo invariants (determinism, locking, fast-path
# oracles, exception hygiene, layering) — see DESIGN.md §9 and §14.
# Every run parses every file (about a second); nothing is cached.
lint:
	$(PYTHON) -m compileall -q src benchmarks examples tools
	$(PYTHON) -m repro.analysis src

lint-json:
	$(PYTHON) -m repro.analysis --format json src

# Provenance: run a seeded deployment with the lineage catalog on and a
# CORRUPT_PART fault planted at one OCEAN put, print the blast-radius
# report, dump the catalog, and render it with the offline CLI — see
# DESIGN.md §17.
lineage:
	$(PYTHON) examples/lineage_impact.py
	$(PYTHON) -m repro.lineage report lineage_catalog.json

# Self-observability: run a seeded end-to-end window sequence with
# tracing + self-telemetry on, dump the trace/metric JSONL, and render
# it as a span-tree report — see DESIGN.md §12.
obs-report:
	$(PYTHON) examples/self_observability.py
	$(PYTHON) -m repro.obs report obs_trace.jsonl
