PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench-full bench-goldens bench-figures ingest-demo docs-check faults-smoke obs-smoke streaming-smoke hierarchy-smoke

## Tier-1 verification: the full test + benchmark suite (writes no file).
test:
	$(PYTHON) -m pytest -x -q

## Quick throughput regression gate: replays a small (20k-request) trace
## and fails if it is >30% slower than the baseline recorded in
## BENCH_perf.json.
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_perf_throughput.py -k smoke

## Full throughput measurement: 200k-request replay plus every subsystem
## section, bounds asserted; the only writer of BENCH_perf.json (the
## repo's performance trajectory).
bench-full:
	$(PYTHON) -m benchmarks.test_bench_perf_throughput

## Benchmark golden check: one round of every bench/ workload for seeds
## 0 and 1, compared with bench/golden/seed-{0,1}.json.  run.py exits 0
## even when samples fail, so its last stdout line decides: it must
## report "correct": true.
bench-goldens:
	@for seed in 0 1; do \
		out=$$($(PYTHON) bench/run.py --seed $$seed --repeats 1 --trace 0); \
		status=$$?; \
		printf '%s\n' "$$out"; \
		[ $$status -eq 0 ] && printf '%s\n' "$$out" | tail -n 1 | $(PYTHON) -c \
			'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)' \
			|| { echo "bench-goldens: seed $$seed failed its checks" >&2; exit 1; }; \
	done

## The paper-figure benchmarks (pytest-benchmark timings, printed tables).
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

## Ingest the bundled sample access logs through the CLI: summary + a
## policy comparison on the Squid log, summary only for the CLF log.
ingest-demo:
	$(PYTHON) -m repro ingest examples/data/sample_squid.log --compare --policies PB,IB,LRU --runs 1
	$(PYTHON) -m repro ingest examples/data/sample_clf.log

## Documentation gate: link-check README.md + docs/*.md and execute the
## README quickstart and docs/clients.md worked-example snippets.
docs-check:
	$(PYTHON) scripts/check_docs.py

## Fault-injection smoke: the fault test suite (golden bit-identity,
## retry/backoff semantics, reactive behaviour under fault storms) plus a
## CLI replay with a stochastic outage/flap schedule end-to-end.
faults-smoke:
	$(PYTHON) -m pytest -q tests/test_sim_faults.py
	$(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
		--reactive-threshold 0.15 --reactive-passive --reactive-hysteresis 0.05 \
		--fault-origin-outages 2 --fault-bandwidth-flaps 4 --fault-seed 1

## Observability smoke: one faulted reactive replay with the windowed
## metrics timeline, the JSONL event trace, and the stage profiler all
## switched on, then a schema check over the two files it wrote
## (docs/observability.md).  Artifacts land in .obs-smoke/.
obs-smoke:
	mkdir -p .obs-smoke
	$(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
		--reactive-threshold 0.15 --reactive-passive --reactive-hysteresis 0.05 \
		--fault-origin-outages 2 --fault-seed 1 \
		--metrics-out .obs-smoke/metrics.json --metrics-window 1800 \
		--trace-out .obs-smoke/trace.jsonl --trace-level debug --profile
	$(PYTHON) scripts/check_obs.py .obs-smoke/metrics.json .obs-smoke/trace.jsonl

## Streaming smoke: the streaming test suite (engine semantics,
## golden bit-identity with sessions on, the golden QoE fixture, the
## prefix-vs-whole ablation) plus one CLI replay with segment-aware
## sessions and the QoE report end-to-end (docs/streaming.md).
streaming-smoke:
	$(PYTHON) -m pytest -q tests/test_sim_streaming.py tests/test_streaming_segmentation.py
	$(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
		--client-clouds 8 --streaming-fraction 1.0 --streaming-prefetch 2

## Hierarchy smoke: the hierarchy test suite (tier-chain semantics,
## golden bit-identity with the fleet on, the golden ablation
## fixture, sharded-replay determinism) plus one sharded 2-tier CLI
## replay that prints the per-tier report end-to-end (docs/hierarchy.md).
hierarchy-smoke:
	$(PYTHON) -m pytest -q tests/test_sim_hierarchy.py
	$(PYTHON) -m repro run --policy PB --scale 0.05 --pops 4 --tiers 2 \
		--tier-cache-kb 100000,400000 --tier-uplink 50,40 --shards 4
