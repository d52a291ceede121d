# CI entry points. `make ci` is the gate: vet + sfavet (the first-party
# static-analysis suite of docs/static-analysis.md) + build + docs checks
# (markdown links + stale documented options) + race tests + fuzz smoke
# runs (match and engine oracles, the prefilter, the parser and the
# snapshot decoder) + the served-path benchmark's self-tests + the
# sfaserve serving smoke (server boot, rule load, hot reload under
# concurrent streamed scans, Prometheus /metrics scrape + exposition
# checks) + the snapshot smoke (save → reload → verify verdicts,
# warm-restart sfaserve over a state dir, shard-cache reuse) + a short
# benchmark smoke run proving the hot paths still report 0 allocs/op.
# `make bench-json` captures the benchmark trajectory snapshot
# (BENCH_9.json) that CI uploads as an artifact and gates on;
# RuleSet_ColdBuild_{Tuple,Vector} tracks the tuple-interned
# construction speedup, RuleSet_LazyColdStart the lazy compile+scan
# cost over a corpus the eager builder rejects, and the
# StreamHotpath_{Instrumented,FlightRecorded} twins prove the
# observability layer — scan stats plus the flight-recorder ring —
# adds no allocations to the streaming hot path.

GO ?= go
BENCH_JSON ?= BENCH_9.json

.PHONY: build vet lint test race docs-check fuzz-smoke perfbench-test serve-smoke snapshot-smoke bench-smoke bench-json ci

build:
	$(GO) build ./...

# Standard vet. copylocks (catches by-value copies of the obs wrapper
# atomics and sync types) and lostcancel are in vet's default check set,
# so they need no flags here.
vet:
	$(GO) vet ./...

# First-party analyzers (internal/lint): atomicfield, hotpathalloc,
# pooldispatch, borrowedtable. Annotation grammar and escape hatches are
# documented in docs/static-analysis.md.
lint:
	$(GO) run ./cmd/sfavet ./...

test:
	$(GO) test ./...

# Docs gate: every relative markdown link in README/ROADMAP/docs/ and
# the package READMEs resolves, and every documented With* option is
# still declared in the Go source (renames fail here, not in review).
docs-check:
	$(GO) run ./cmd/docscheck

race:
	$(GO) test -race ./...

# Exercise the fuzz corpora for a few seconds so the oracle cross-checks
# actually run somewhere: FuzzMatch (combined vs isolated vs derivative
# oracle), FuzzEngineAgreement (the default engine at two threads against
# the derivative oracle), FuzzPrefilter (prefiltered vs unfiltered
# verdicts), FuzzParse (the pattern parser must error, never panic) and
# FuzzLoadRuleSet (malformed snapshots must error, never panic or
# over-allocate).
fuzz-smoke:
	$(GO) test -fuzz='^FuzzMatch$$' -fuzztime=10s -run '^$$' ./sfa
	$(GO) test -fuzz='^FuzzEngineAgreement$$' -fuzztime=10s -run '^$$' ./sfa
	$(GO) test -fuzz='^FuzzPrefilter$$' -fuzztime=10s -run '^$$' ./sfa
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=10s -run '^$$' ./internal/syntax
	$(GO) test -fuzz='^FuzzLoadRuleSet$$' -fuzztime=10s -run '^$$' ./sfa

# perfbench/ is its own module (it replaces repro with ../), so the
# root `go test ./...` never sees it; vet and test it here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Serving subsystem smoke: boot the real sfaserve loop, load rules over
# HTTP, hot-reload under concurrent streamed scans, assert shard reuse,
# scrape /metrics in Prometheus text format (exposition validity, core
# series, counter monotonicity under reloads), and round-trip the
# flight recorder + attribution endpoints under concurrent load — all
# under -race.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestServePromScrapeSmoke|TestServeFlightSmoke|TestServeEndToEnd|TestServeFlightAndAttribution|TestServeFlightConcurrent|TestRuleboardConcurrentScansAndReloads|TestMetricsContentNegotiation|TestMetricsPromExposition|TestPromAttributionSeries|TestPromMonotonicUnderConcurrentScansAndReloads|TestPromTenantRowsSurviveDeleteAndReadd|TestSlowScanLogging' ./cmd/sfaserve ./internal/serve

# Snapshot subsystem smoke: rule-set save → reload → byte-identical
# verdicts (vs the isolated oracle), warm-restart the real sfaserve over
# a state directory twice asserting stable persisted BuildIDs, and the
# content-addressed store's concurrency/eviction behaviour — under -race.
snapshot-smoke:
	$(GO) test -race -run 'TestRuleSetSnapshotRoundTrip|TestLoadRuleSetRejectsCorruption|TestShardCacheWarmsRepeatedBuilds|TestWarmRestartSmoke|TestStatePersistAndWarmRestore|TestStoreConcurrent|TestStoreEviction' ./sfa ./cmd/sfaserve ./internal/serve ./internal/snapshot

# Keep the smoke run small: 1 MiB inputs, 2 iterations per benchmark.
# 'Hotpath' also selects the StreamHotpath carried-mapping writes.
bench-smoke:
	SFA_BENCH_MB=1 $(GO) test -run '^$$' -bench 'Hotpath|Walk_' -benchtime 2x .

# Benchmark-trajectory snapshot: hot path + row walks + the multi-pattern
# RuleSet engines + the streaming writes + the cold-vs-warm rule-set
# load pair, emitted as name → {ns/op, MB/s, allocs/op}. benchjson
# doubles as the allocation gate: the pooled match hot path and the
# streaming chunk hot path must stay at 0 allocs/op, each armed by its
# own pattern.
bench-json:
	SFA_BENCH_MB=1 $(GO) test -run '^$$' -bench 'Hotpath|Walk_|RuleSet_' -benchtime 2x -benchmem . > bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out $(BENCH_JSON) \
		-zero-alloc 'Hotpath.*Pooled' -zero-alloc 'StreamHotpath' \
		-zero-alloc 'Instrumented' -zero-alloc 'FlightRecorded'

ci: vet lint build docs-check race fuzz-smoke perfbench-test serve-smoke snapshot-smoke bench-smoke
