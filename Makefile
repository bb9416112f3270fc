# Developer entry points.  The tier-1 bar (ROADMAP.md) is `make test`;
# `make lint` runs the same static-analysis gate CI exercises via
# tests/lint/test_codebase_clean.py.

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
OBS_SMOKE_DIR := results/obs-smoke
PROFILE_SMOKE_DIR := results/profile-smoke
LIVE_SMOKE_DIR := results/live-smoke

.PHONY: test unit obs-smoke profile-smoke live-smoke bench-compare \
	bench-record lint lint-json lint-fast flow baseline bench results \
	bench-engine bench-obs bench-storage bench-profile bench-live chaos \
	perfbench-selftest

test: unit obs-smoke profile-smoke live-smoke bench-compare flow chaos \
	perfbench-selftest

unit:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q

# End-to-end observability smoke: a small traced+metered pipeline run via
# the real CLI, then validate run_report.json against the checked-in
# schema (docs/run_report.schema.json).  Part of the default `make test`.
obs-smoke:
	rm -rf $(OBS_SMOKE_DIR)
	PYTHONPATH=$(PYTHONPATH) python -m repro --trace --metrics \
		--obs-dir $(OBS_SMOKE_DIR) --scale 0.02 experiment table1 >/dev/null
	PYTHONPATH=$(PYTHONPATH) python -m repro obs validate \
		$(OBS_SMOKE_DIR)/run_report.json
	PYTHONPATH=$(PYTHONPATH) python -m repro obs summarize \
		--report $(OBS_SMOKE_DIR)/run_report.json
	PYTHONPATH=$(PYTHONPATH) python -m repro obs lineage \
		$(OBS_SMOKE_DIR)/provenance.json >/dev/null

# Profiling smoke: run the national pipeline under --profile via the real
# CLI, render the hotspot table, then rebuild the profile from the trace
# twice and require byte-identical output (the determinism contract of
# docs/profile.schema.json).  Part of the default `make test`.
profile-smoke:
	rm -rf $(PROFILE_SMOKE_DIR)
	PYTHONPATH=$(PYTHONPATH) python -m repro --profile \
		--obs-dir $(PROFILE_SMOKE_DIR) --scale 0.02 experiment fig2 >/dev/null
	PYTHONPATH=$(PYTHONPATH) python -m repro --obs-dir $(PROFILE_SMOKE_DIR) \
		obs profile --top 10
	PYTHONPATH=$(PYTHONPATH) python -m repro obs profile \
		--trace $(PROFILE_SMOKE_DIR)/trace.jsonl \
		--out $(PROFILE_SMOKE_DIR)/profile_rebuild_a.json >/dev/null
	PYTHONPATH=$(PYTHONPATH) python -m repro obs profile \
		--trace $(PROFILE_SMOKE_DIR)/trace.jsonl \
		--out $(PROFILE_SMOKE_DIR)/profile_rebuild_b.json >/dev/null
	cmp $(PROFILE_SMOKE_DIR)/profile_rebuild_a.json \
		$(PROFILE_SMOKE_DIR)/profile_rebuild_b.json

# Live-observability smoke: a short replay through the streaming
# aggregator + alert engine via the real CLI, then serve the health API
# on an ephemeral port, probe every endpoint, and validate alerts.json
# against docs/alerts.schema.json.  A second replay must resume from the
# smoke's last checkpoint (rebuilding the aggregator from the source) and
# write the same alerts.json and window.json.  Checkpoints stay under
# $(LIVE_SMOKE_DIR).  Part of the default `make test`.
live-smoke:
	rm -rf $(LIVE_SMOKE_DIR)
	PYTHONPATH=$(PYTHONPATH) python -m repro --scale 0.05 \
		--checkpoint-dir $(LIVE_SMOKE_DIR)/checkpoints live smoke \
		--out $(LIVE_SMOKE_DIR)
	PYTHONPATH=$(PYTHONPATH) python -m repro --scale 0.05 --resume \
		--checkpoint-dir $(LIVE_SMOKE_DIR)/checkpoints live replay \
		--end 2022-03-12 --out $(LIVE_SMOKE_DIR)/resumed 2>&1 >/dev/null \
		| grep "resumed from checkpoint at day 2022-03-13"
	cmp $(LIVE_SMOKE_DIR)/alerts.json $(LIVE_SMOKE_DIR)/resumed/alerts.json
	cmp $(LIVE_SMOKE_DIR)/window.json $(LIVE_SMOKE_DIR)/resumed/window.json

# Perf-regression gate: unify the checked-in BENCH snapshots and compare
# against the latest BENCH_history.jsonl record; exits 6 on a slowdown
# beyond the threshold.  Deterministic (file vs file), so it belongs in
# the default `make test`.  Refresh the baseline with `make bench-record`.
bench-compare:
	PYTHONPATH=$(PYTHONPATH) python -m repro bench compare

# Append the current unified snapshots to the history, keyed by HEAD.
bench-record:
	PYTHONPATH=$(PYTHONPATH) python -m repro bench record \
		--sha $$(git rev-parse --short HEAD) \
		--ts $$(git show -s --format=%cs HEAD)

lint:
	PYTHONPATH=$(PYTHONPATH) python -m repro lint

lint-json:
	PYTHONPATH=$(PYTHONPATH) python -m repro lint --format json

# Inner-loop lint: only files changed vs HEAD (modified, staged, or
# untracked), fanned out across the process pool.  Findings are identical
# to a full run restricted to those files.
lint-fast:
	PYTHONPATH=$(PYTHONPATH) python -m repro lint --changed-only --jobs 0

# Whole-program flow gate: per-file rules plus the cross-module pass
# (stage contracts, kernel purity, network seam).  Exits 5 on any
# above-baseline finding.  Part of the default `make test`.
flow:
	PYTHONPATH=$(PYTHONPATH) python -m repro lint --flow

# Regenerate lint-baseline.json from current findings.  Only for
# grandfathering a deliberate exception -- shrink it, don't grow it.
baseline:
	PYTHONPATH=$(PYTHONPATH) python -m repro lint --write-baseline

bench:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks

# The paper's tables and figures, the extensions and the ablations: the 16
# modules that write the 48 paper, extension and ablation files under
# results/ (REPRO_BENCH_SCALE, default 0.25).  Leaves out the perf modules,
# which rewrite BENCH_*.json, and test_robustness, which runs tier-1.
results:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks/test_fig*.py \
		benchmarks/test_table*.py benchmarks/test_ext_*.py \
		benchmarks/test_ablations.py

# Engine perf baseline: vectorized kernels vs the legacy row loops;
# records before/after timings in BENCH_engine.json.
bench-engine:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks/test_engine_perf.py

# Obs overhead baseline: disabled instrumentation must stay under 3% of
# group-by/join kernel time; records the bound in BENCH_obs.json.
bench-obs:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks/test_obs_overhead.py

# Storage overhead baseline: atomic+checksummed CSV commit vs a bare
# write; must stay under 5%; records the numbers in BENCH_storage.json.
bench-storage:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks/test_storage_overhead.py

# Hotspot baseline: profile the figure/table benchmark run and record the
# top per-span self-times in BENCH_profile.json; `repro bench compare`
# then gates each hotspot individually (exit 6 on a regression).
bench-profile:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks/test_profile_hotspots.py

# Live-service baseline: aggregator replay throughput plus p50/p99
# request latency under >=1000 concurrent requests; records
# BENCH_live.json, which `repro bench compare` gates per key (the
# percentile rows carry their own floor_ms noise floors).
bench-live:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q benchmarks/test_live_service.py

# The benchmark's self-test: each perfbench workload once at a tiny scale,
# checking it prints exactly the metrics BENCHMARK.json declares and that
# every traced target still resolves (a renamed function fails here, not
# as a failed benchmark run).  Part of the default `make test`.
perfbench-selftest:
	python3 -m pytest perfbench/test_perfbench.py -q

# The crash matrix (docs/ROBUSTNESS.md): kill a pipeline run at every
# announced crash point, resume it, and require byte-identical outputs.
# Exits 7 on any unrecovered crash.  Part of the default `make test`.
chaos:
	PYTHONPATH=$(PYTHONPATH) python -m repro chaos
