PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test spawn-smoke experiments-smoke bench-smoke bench-full bench-goldens ingest-demo docs-check faults-smoke obs-smoke streaming-smoke streaming-smoke-record hierarchy-smoke

## Tier-1 verification: the tests (the paper's claims among them) and the
## throughput measurement in benchmarks/ (writes no file).
test:
	$(PYTHON) -m pytest -x -q

## The process-pool tests under the spawn start method, where each worker
## unpickles the workload its initializer receives instead of inheriting
## it as a forked worker does (macOS, Windows, and Linux from Python 3.14
## start workers this way).  The experiment goldens send the reactive,
## fault and streaming grids and every sweep figure's grid through spawned
## workers, so whole results (fault and streaming reports, a metrics
## timeline) cross that boundary.
spawn-smoke:
	$(PYTHON) -c 'import multiprocessing, sys; multiprocessing.set_start_method("spawn"); import pytest; sys.exit(pytest.main(["-q", "tests/test_analysis_parallel.py", "tests/test_experiment_goldens.py", "tests/test_sim_hierarchy.py::TestShardedFleet"]))'

## Experiment determinism smoke: every `repro experiment` name at a small
## scale, once in-process (--jobs 1) and once on a 2-worker pool
## (--jobs 2); the two stdouts of each name must be byte-identical.  The
## reports go to a temporary directory, so the checkout is never written to.
experiments-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	names=$$($(PYTHON) -c 'from repro.cli import EXPERIMENTS; print(" ".join(sorted(EXPERIMENTS)))') && \
	for name in $$names; do \
		for jobs in 1 2; do \
			$(PYTHON) -m repro experiment $$name --scale 0.02 --runs 2 --jobs $$jobs \
				> "$$dir/$$name.$$jobs.out" || exit 1; \
		done; \
		diff -u "$$dir/$$name.1.out" "$$dir/$$name.2.out" \
			|| { echo "experiments-smoke: $$name differs between --jobs 1 and --jobs 2" >&2; exit 1; }; \
		echo "$$name: --jobs 1 and --jobs 2 stdouts identical"; \
	done

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

## Ingest the bundled sample access logs through the CLI: summary + a
## policy comparison on the Squid log, summary only for the CLF log.
## Then archive the Squid log with --out into a fresh temporary directory,
## --append it a second time, and check the stitched archive with
## ColumnarTrace.from_npz: twice the rows, times never decreasing.  The
## checkout is never written to.
ingest-demo:
	$(PYTHON) -m repro ingest examples/data/sample_squid.log --compare --policies PB,IB,LRU --runs 1
	$(PYTHON) -m repro ingest examples/data/sample_clf.log
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PYTHON) -m repro ingest examples/data/sample_squid.log --out "$$dir/t.npz" > /dev/null && \
	$(PYTHON) -m repro ingest examples/data/sample_squid.log --out "$$dir/t.npz" --append > /dev/null && \
	$(PYTHON) -c 'import sys; import numpy as np; \
		from repro.trace import ColumnarTrace, ingest_access_log; \
		stitched = ColumnarTrace.from_npz(sys.argv[1]); \
		rows = len(ingest_access_log(sys.argv[2]).trace); \
		ok = len(stitched) == 2 * rows and not np.any(np.diff(stitched.times_array) < 0); \
		print(f"stitched archive: {len(stitched)} requests (2 x {rows}), times non-decreasing: {ok}"); \
		sys.exit(0 if ok else 1)' "$$dir/t.npz" examples/data/sample_squid.log

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

## Observability smoke: one faulted reactive replay with hourly
## re-measurement probes, the windowed metrics timeline, the JSONL event
## trace, and the stage profiler all switched on, then one streaming
## replay whose debug trace also records stream trims; after each, a
## schema and payload check over the two files it wrote
## (docs/observability.md).  The first replay's stdout goes to run.out,
## which must hold a profile row for each stage the replay times and a
## non-zero re-measurement count.  Artifacts land in .obs-smoke/.
OBS_PROFILE_STAGES = replay policy_ops estimator fault_evaluation

obs-smoke:
	mkdir -p .obs-smoke
	$(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
		--reactive-threshold 0.15 --reactive-passive --reactive-hysteresis 0.05 \
		--fault-origin-outages 2 --fault-seed 1 --remeasure-every 3600 \
		--metrics-out .obs-smoke/metrics.json --metrics-window 1800 \
		--trace-out .obs-smoke/trace.jsonl --trace-level debug --profile \
		> .obs-smoke/run.out
	cat .obs-smoke/run.out
	@for stage in $(OBS_PROFILE_STAGES); do \
		grep -Eq "^  $$stage +[0-9.]+ s +[0-9]+ call\(s\)$$" .obs-smoke/run.out || \
		{ echo "obs-smoke: the profile has no $$stage row" >&2; exit 1; }; \
	done
	@grep -Eq "^bandwidth re-measurements: [1-9][0-9]* " .obs-smoke/run.out || \
		{ echo "obs-smoke: the replay fired no re-measurement probe" >&2; exit 1; }
	$(PYTHON) scripts/check_obs.py .obs-smoke/metrics.json .obs-smoke/trace.jsonl
	$(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
		--client-clouds 8 --streaming-fraction 1.0 \
		--metrics-out .obs-smoke/stream-metrics.json --metrics-window 1800 \
		--trace-out .obs-smoke/stream-trace.jsonl --trace-level debug
	$(PYTHON) scripts/check_obs.py .obs-smoke/stream-metrics.json .obs-smoke/stream-trace.jsonl

## Streaming smoke: the streaming test suite (engine semantics,
## golden bit-identity with sessions on, the golden QoE fixture, the
## prefix-vs-whole ablation) plus one CLI replay with segment-aware
## sessions, passive-driven re-keying with hysteresis and a stochastic
## outage/flap schedule all on together, which prints the QoE,
## re-keying and fault reports end-to-end (docs/streaming.md).  That
## report holds no timing, so it must match tests/data/streaming_smoke.out
## byte for byte: a drifted number fails, not only a crash.  After a
## deliberate change to what the replay prints, re-record the file with
## `make streaming-smoke-record` and commit it.
STREAMING_SMOKE_RUN = $(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
	--client-clouds 8 --streaming-fraction 1.0 --streaming-prefetch 2 \
	--reactive-threshold 0.15 --reactive-passive --reactive-hysteresis 0.05 \
	--fault-origin-outages 2 --fault-bandwidth-flaps 4 --fault-seed 1

streaming-smoke:
	$(PYTHON) -m pytest -q tests/test_sim_streaming.py tests/test_streaming_segmentation.py
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(STREAMING_SMOKE_RUN) > "$$out" && cat "$$out" && \
	diff -u tests/data/streaming_smoke.out "$$out"

streaming-smoke-record:
	$(STREAMING_SMOKE_RUN) > tests/data/streaming_smoke.out

## Hierarchy smoke: the hierarchy test suite (tier-chain semantics,
## golden bit-identity with the fleet on, the golden ablation
## fixture, sharded-replay determinism) plus two 2-tier CLI replays
## that print the per-tier report end-to-end (docs/hierarchy.md): a
## sharded one with oracle knowledge, and an unsharded one with passive
## knowledge, client clouds and an outage/flap schedule.
hierarchy-smoke:
	$(PYTHON) -m pytest -q tests/test_sim_hierarchy.py
	$(PYTHON) -m repro run --policy PB --scale 0.05 --pops 4 --tiers 2 \
		--tier-cache-kb 100000,400000 --tier-uplink 50,40 --shards 4
	$(PYTHON) -m repro run --policy PB --scale 0.05 --knowledge passive \
		--client-clouds 8 --pops 4 --tiers 2 --tier-cache-kb 100000,400000 \
		--tier-uplink 50,40 --fault-origin-outages 2 \
		--fault-bandwidth-flaps 4 --fault-seed 1
