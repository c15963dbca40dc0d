PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-serving chaos equivalence fuzz lifecycle read-plane serving lineage lint lint-json obs-report

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
# threads, batched vs. reference emission (fixed and randomized windows,
# split invariance, and each source's bytes pinned to committed
# digests), the estimator (file bytes equal under every codec),
# factorize and the row-group cache — see DESIGN.md §8.
equivalence:
	$(PYTHON) -m pytest -x -q tests/core/test_parallel_equivalence.py \
		tests/core/test_race_fixes.py tests/telemetry/test_batch_emit.py \
		tests/telemetry/test_emit_properties.py \
		tests/telemetry/test_emit_pins.py \
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

# Read-plane suite: the RCF format (v2, the one layout: lazy open,
# self-contained chunks, cheap codec, appends; damaged structure a typed
# RcfFormatError, held by properties over prefixes, footer fields and
# the dtype tokens of every encoding),
# the zone map against per-part might_match (random predicate trees and
# part lists; the fast executor over its plans against the reference),
# planner and scan soundness (the LAKE segment scan
# against brute-force mask-then-filter included; parts of mixed dtypes
# and group counts assembled once per plan into arrays the result
# owns; runs of small parts scanned as one row group, held to the
# oracle and to the part-by-part scan; an emptied or unknown LAKE table
# keeps its projection), the pinned read-work ledger of one seeded run
# (write-side counters included), the row-group cache
# (token index, plain LRU order and the byte budget pinned on trace
# replays, answers identical with the cache on and under
# baseline_mode()), raw
# PLAIN chunks read in
# place (views of the part, never cached), manifest pruning and
# manifests parsed once per part record, the part read handles (opened
# once, valid for their bytes, dropped on delete) with their pinned work
# counters, and
# the LAKE open segment against its piece-list oracle — see
# DESIGN.md §11.
read-plane:
	$(PYTHON) -m pytest -x -q tests/columnar/test_rcf_v2.py \
		tests/columnar/test_rcf_format_errors.py tests/query/test_plan.py \
		tests/query/test_zonemap.py \
		tests/query/test_scan_soundness.py tests/query/test_scan_segment.py \
		tests/query/test_runs.py \
		tests/query/test_work_ledger.py tests/query/test_cache.py \
		tests/query/test_cache_equivalence.py tests/query/test_raw_views.py \
		tests/storage/test_query_archive.py \
		tests/storage/test_part_handles.py tests/storage/test_manifest.py \
		tests/storage/test_lake.py

# Byte-surface properties at a larger example count: RCF blobs cut
# short or with footer fields or dtype tokens overwritten, trace
# JSONL dumps with inserted junk lines, torn or mangled checkpoints.json
# files and lineage catalog dumps, each a typed error (or a quarantine, or a
# skipped line) or the right answer; random LAKE ingest/query/drop
# histories against the piece-list oracle, every published table
# unchanged; and the zone map's prune against per-part might_match.
# Tier-1 runs the same properties at their own smaller counts; the
# fuzz profile is registered in tests/conftest.py.
fuzz:
	$(PYTHON) -m pytest -x -q --hypothesis-profile fuzz \
		tests/columnar/test_rcf_format_errors.py \
		tests/obs/test_exporters.py tests/pipeline/test_checkpoint.py \
		tests/lineage/test_catalog.py \
		tests/storage/test_lake.py::test_random_histories_match_the_piece_list_oracle \
		tests/storage/test_lake.py::test_open_segment_histories_keep_every_snapshot \
		tests/query/test_zonemap.py

# Serving suite: request fingerprints, payload digests (pinned hex and
# a property against the spec algorithm), admission, the result cache,
# the gateway and load generator, and gateway answers byte-identical to
# direct library calls — see DESIGN.md §16.
serving:
	$(PYTHON) -m pytest -x -q tests/serve \
		tests/integration/test_serving_equivalence.py

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
